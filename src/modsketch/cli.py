"""Command-line harness.

Every command is a pure function of (config file, seed) to output files: the
config carries the experiment description, and command-line flags override
only the seed and output paths.  Results tables share one schema,

    run_id, seed, d, b, q, depth, weight, d_prime, metric_name, value

written deterministically (no timestamps), so reruns are byte-identical.

Exit codes: 0 ok, 2 config error, 3 validation error.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
from typing import get_args

import numpy as np

from modsketch import recovery
from modsketch._seeding import derive_rng
from modsketch.block_random import (
    BlockParams,
    DimensionMismatchError,
    ParameterError,
    auto_params,
    measure_noise_profile,
    sample_matrix,
)
from modsketch.dictlearn import (
    DLConfig,
    learn_dictionary,
    match_permutation,
    save_dictionary_artifacts,
    unroll_network,
)
from modsketch.network import (
    NetworkValidationError,
    SyntheticProfile,
    build_network,
    generate_synthetic,
    load_network,
    save_network,
)
from modsketch.recovery import (
    PathStep,
    RecoveryError,
    recover_attributes_unique,
    report_csv_header,
    report_csv_row,
    sketch_similarity,
)
from modsketch.repository import SketchRepository
from modsketch.sketcher import (
    DimensionFloorError,
    MatrixRegistry,
    erase_to_prefix,
    export_sketch_csv,
    load_sketch,
    overall_sketch,
    save_sketch,
)

RESULTS_HEADER = "# modsketch-results v1\nrun_id,seed,d,b,q,depth,weight,d_prime,metric_name,value"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    return cfg


_KIND_NAMES = {int: "an integer", "count": "an integer >= 1", float: "a finite number", bool: "true or false",
               dict: "an object", list[int]: "a non-empty list of integers",
               list[float]: "a non-empty list of numbers", list[dict]: "a non-empty list of objects"}


def _convert(value, kind):
    """``value`` as ``kind``, which it must already be in the JSON; no boolean is
    a number, and a ``"count"`` is an integer of at least 1."""
    if kind in (bool, dict):
        if not isinstance(value, kind):
            raise TypeError(value)
        return value
    if kind in (int, "count"):
        if type(value) is not int or (kind == "count" and value < 1):
            raise TypeError(value)
        return value
    if kind is float:
        if type(value) not in (int, float) or not math.isfinite(value):
            raise TypeError(value)
        return float(value)
    if not (isinstance(value, list) and value):
        raise TypeError(value)
    return [_convert(item, get_args(kind)[0]) for item in value]


def _require(cfg: dict, key: str, path="config", kind=None):
    """Read a required field, converted to ``kind`` (a key of
    ``_KIND_NAMES``) when one is given."""
    if key not in cfg:
        raise ConfigError(f"{path}: missing required field {key!r}")
    if kind is None:
        return cfg[key]
    try:
        return _convert(cfg[key], kind)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: field {key!r} must be {_KIND_NAMES[kind]}, got {cfg[key]!r}") from None


def _optional(cfg: dict, key: str, default, kind, path="config"):
    """Read a field that may be absent or null, as :func:`_require` does."""
    return default if cfg.get(key) is None else _require(cfg, key, path, kind)


def _result_row(run_id, seed, params, metric, value, depth=0, weight=0.0) -> str:
    d, b, q = (params.d, params.b, params.q) if params else (0, 0, 0.0)
    return f"{run_id},{seed},{d},{b},{float(q)!r},{depth},{float(weight)!r},0,{metric},{float(value)!r}"


def _write_results(path: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


def _block_params(pcfg: dict) -> BlockParams:
    """The explicit ``{b, q, d, n_cap}`` form of a ``params`` object."""
    return BlockParams(
        b=_require(pcfg, "b", "params", int),
        q=_require(pcfg, "q", "params", float),
        d=_require(pcfg, "d", "params", int),
        n_cap=_require(pcfg, "n_cap", "params", int),
    )


def _registry_from_config(cfg: dict, seed: int) -> MatrixRegistry:
    pcfg = _require(cfg, "params", kind=dict)
    if "b" in pcfg:
        params = _block_params(pcfg)
    else:
        n_cap = _require(pcfg, "n_cap", "params", int)
        d_request = _require(pcfg, "d_request", "params", int)
        params = auto_params(d_request, n_cap, q=_optional(pcfg, "q", None, float, "params"))
    return MatrixRegistry(
        params,
        master_seed=seed,
        mode=cfg.get("mode", "block-random"),
        allow_high_noise=_optional(cfg, "allow_high_noise", False, bool),
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_calibrate(cfg: dict, seed: int, out_dir: str) -> int:
    """Noise sweep over dimensions; fits delta(d) = c*sqrt(b*log2(N)/d)."""
    run_id = cfg.get("run_id", "calibrate")
    n_cap = _optional(cfg, "n_cap", 64, int)
    dims = _optional(cfg, "dims", [512, 1024, 2048, 4096, 8192], list[int])
    trials = _optional(cfg, "trials", 200, int)
    pairs = _optional(cfg, "pairs", 1, int)
    quantile = _optional(cfg, "quantile", 0.99, float)
    transparent = _optional(cfg, "transparent", True, bool)
    os.makedirs(out_dir, exist_ok=True)

    rows: list[str] = []
    deltas_iso: list[tuple[int, int, float]] = []
    deltas_des: list[tuple[int, int, float]] = []
    for d_req in dims:
        params = auto_params(d_req, n_cap)
        prof = measure_noise_profile(
            ("plain",), "both", trials, params, quantile=quantile, master_seed=seed,
            pairs_per_trial=pairs,
        )
        rows.append(_result_row(run_id, seed, params, "delta_iso", prof.delta_iso))
        rows.append(_result_row(run_id, seed, params, "delta_desync", prof.delta_desync))
        rows.append(_result_row(run_id, seed, params, "alpha_iso", prof.alpha))
        deltas_iso.append((params.d, params.b, prof.delta_iso))
        deltas_des.append((params.d, params.b, prof.delta_desync))

    if transparent:
        params = auto_params(dims[min(1, len(dims) - 1)], n_cap)
        tprof = measure_noise_profile(
            ("transparent",), "isometry", trials, params, quantile=quantile, master_seed=seed,
            pairs_per_trial=pairs,
        )
        rows.append(_result_row(run_id, seed, params, "alpha_transparent", tprof.alpha))

    def fit(deltas):
        # free-exponent fit log(delta) = log(c') + e*log(d), plus the
        # coefficient of the sqrt(b*log2(N)/d) law at e = -1/2
        logs_d = np.log([d for d, _, _ in deltas])
        logs_v = np.log([v for _, _, v in deltas])
        exponent, intercept = np.polyfit(logs_d, logs_v, 1)
        coeffs = [v / math.sqrt(b * math.log2(n_cap) / d) for d, b, v in deltas]
        c = float(np.mean(coeffs))
        preds = [c * math.sqrt(b * math.log2(n_cap) / d) for d, b, _ in deltas]
        residuals = [v - p for (_, _, v), p in zip(deltas, preds)]
        return float(exponent), c, residuals

    if len(dims) >= 2:
        for name, deltas in (("iso", deltas_iso), ("desync", deltas_des)):
            exponent, c, residuals = fit(deltas)
            rows.append(_result_row(run_id, seed, None, f"fit_exponent_{name}", exponent))
            rows.append(_result_row(run_id, seed, None, f"fit_c_{name}", c))
            for (d, _, _), r in zip(deltas, residuals):
                rows.append(_result_row(run_id, seed, None, f"residual_{name}_d{d}", r))

    _write_results(os.path.join(out_dir, "delta_table.csv"), rows)
    print(f"wrote {os.path.join(out_dir, 'delta_table.csv')}")
    return EXIT_OK


def cmd_gen_network(cfg: dict, seed: int, out_path: str) -> int:
    profile_cfg = _require(cfg, "profile", kind=dict)
    profile = SyntheticProfile(
        n_modules=_require(profile_cfg, "n_modules", "profile", int),
        depth=_require(profile_cfg, "depth", "profile", int),
        fan_in=_require(profile_cfg, "fan_in", "profile", int),
        weight_scheme=profile_cfg.get("weight_scheme", "uniform"),
        attr_sparsity=_optional(profile_cfg, "attr_sparsity", 3, int, "profile"),
        attr_span=_optional(profile_cfg, "attr_span", None, int, "profile"),
    )
    net = generate_synthetic(profile, seed=seed, d=_require(cfg, "dimension", kind=int))
    save_network(net, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_sketch(cfg: dict, seed: int, network_path: str, out_path: str) -> int:
    net = load_network(network_path)
    cfg = dict(cfg)
    cfg.setdefault("params", {"d_request": net.d, "n_cap": net.n_cap})
    registry = _registry_from_config(cfg, seed)
    if registry.d != net.d:
        raise NetworkValidationError(
            f"registry dimension {registry.d} != network dimension {net.d}; "
            "regenerate the network at the aligned dimension"
        )
    erase_to = _optional(cfg, "erase_to", None, int)
    csv = _optional(cfg, "csv", False, bool)
    sk = overall_sketch(net, registry, signature_mode=_optional(cfg, "signature", False, bool))
    if erase_to:
        sk = erase_to_prefix(sk, erase_to)
    save_sketch(sk, out_path, registry.seed_fingerprint())
    if csv:
        export_sketch_csv(sk, out_path + ".csv")
    print(f"wrote {out_path}")
    return EXIT_OK


QUERY_KINDS = (
    "attributes_unique", "attributes_by_path", "frequency", "summed_attributes", "mean_attributes", "signature"
)


def cmd_recover(cfg: dict, seed: int, sketch_path: str, out_path: str) -> int:
    sk, fingerprint = load_sketch(sketch_path)
    cfg = dict(cfg)
    cfg.setdefault("params", {})
    registry = _registry_from_config(cfg, seed)
    if fingerprint not in ("unknown", registry.seed_fingerprint()):
        raise ParameterError(f"{sketch_path} was made under another seed or params (fingerprint {fingerprint})")
    query = _require(cfg, "query", kind=dict)
    kind = _require(query, "kind", "query")
    if kind not in QUERY_KINDS:
        raise ConfigError(f"unknown query kind {kind!r}")
    # looked up at call time, so a wrapper installed on the module sees the call
    recover = getattr(recovery, f"recover_{kind}")
    w = _optional(query, "w", 1.0, float, "query")
    if kind == "attributes_by_path":
        steps = [
            PathStep(_require(p, "position", "query path step", int), str(_require(p, "module", "query path step")))
            for p in _require(query, "path", "query", list[dict])
        ]
        rep = recover(sk, steps, registry, w=w)
    else:
        rep = recover(sk, query.get("module", ""), _optional(query, "h", 2, int, "query"), w, registry)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(report_csv_header() + "\n")
        fh.write(report_csv_row(rep, seed=str(seed)) + "\n")
    if isinstance(rep.estimate, float):
        print(f"{kind}: estimate={rep.estimate!r} rounded={rep.rounded}")
    else:
        head = ", ".join(f"{v:.4f}" for v in rep.estimate[:8])
        print(f"{kind}: estimate[:8]=[{head}] predicted_error={rep.predicted_error:.4f}")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_similarity(sketch_a: str, sketch_b: str, out_path: str | None) -> int:
    a, fp_a = load_sketch(sketch_a)
    b, fp_b = load_sketch(sketch_b)
    if "unknown" not in (fp_a, fp_b) and fp_a != fp_b:
        raise ParameterError(f"sketches were made under different seed fingerprints: {fp_a} vs {fp_b}")
    value = sketch_similarity(a, b)
    print(f"similarity: {value!r}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(f"{report_csv_header()}\nsim,,1,1.0,{a.d},{a.erased_prefix},0,,{value!r}\n")
    return EXIT_OK


def cmd_run(cfg: dict, seed: int, out_path: str) -> int:
    """Seeded experiment sweeps writing the shared results schema."""
    experiment = _require(cfg, "experiment")
    run_id = cfg.get("run_id", experiment)
    rows: list[str] = []
    if experiment == "attr-error-vs-d":
        dims = _optional(cfg, "dims", [512, 1024, 2048], list[int])
        n_seeds = _optional(cfg, "seeds", 20, "count")
        n_cap = _optional(cfg, "n_cap", 32, int)
        attrs = _optional(cfg, "attributes", [0.6, 0.0, 0.8], list[float])
        for d_req in dims:
            params = auto_params(d_req, n_cap)
            errors = []
            for trial in range(n_seeds):
                reg = MatrixRegistry(
                    params, master_seed=seed * 10007 + trial, allow_high_noise=True
                )
                net = _single_leaf_network(params.d, attrs)
                sk = overall_sketch(net, reg)
                rep = recover_attributes_unique(sk, "leaf", 2, 1.0, reg)
                truth = net.objects["a"].attributes[: len(attrs)]
                errors.append(float(np.max(np.abs(rep.estimate[: len(attrs)] - truth))))
            rows.append(
                _result_row(run_id, seed, params, "attr_linf_median", float(np.median(errors)), depth=2, weight=1.0)
            )
    elif experiment == "similarity-pairs":
        n_seeds = _optional(cfg, "seeds", 20, "count")
        params = auto_params(_optional(cfg, "d", 1024, int), _optional(cfg, "n_cap", 32, int))
        for trial in range(n_seeds):
            reg = MatrixRegistry(params, master_seed=seed * 10007 + trial, allow_high_noise=True)
            s1 = overall_sketch(_single_leaf_network(params.d, [1.0], module="m1"), reg)
            s2 = overall_sketch(_single_leaf_network(params.d, [0.5, 0.5], module="m2"), reg)
            rows.append(
                _result_row(
                    run_id, seed * 10007 + trial, params, "disjoint_dot", sketch_similarity(s1, s2)
                )
            )
    else:
        raise ConfigError(f"unknown experiment {experiment!r}")
    _write_results(out_path, rows)
    print(f"wrote {out_path}")
    return EXIT_OK


def _single_leaf_network(d: int, attrs, module="leaf"):
    return build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": module}],
            "objects": [
                {"id": "root", "module": "out", "attributes": []},
                {"id": "a", "module": module, "attributes": list(attrs)},
            ],
            "edges": [("root", "a", 1.0)],
        },
        d=d,
        n_cap=32,
    )


def cmd_learn_dict(cfg: dict, seed: int, out_dir: str) -> int:
    """Dictionary-learning experiments: planted instances or teacher unrolling."""
    mode = cfg.get("learn_mode", "plant")
    os.makedirs(out_dir, exist_ok=True)
    params = _block_params(_require(cfg, "params", kind=dict))
    rows: list[str] = []
    run_id = cfg.get("run_id", "learn-dict")

    if mode == "plant":
        n_matrices = _optional(cfg, "n_matrices", 2, "count")
        n_samples = _optional(cfg, "n_samples", 200, "count")
        dominant = _optional(cfg, "dominant", 0.9, float)
        rng = derive_rng(seed, "cli-plant")
        mats = [sample_matrix(params, f"cli-plant:{seed}:{i}") for i in range(n_matrices)]
        ys = np.zeros((n_samples, params.d))
        planted = []
        for k in range(n_samples):
            i = int(rng.integers(n_matrices))
            j = int(rng.integers(params.d)) + 1
            planted.append((i, j))
            x = np.zeros(params.d)
            x[j - 1] = dominant
            ys[k] = mats[i].matvec(x)
        learned = learn_dictionary(ys, DLConfig(params=params, eps_recover=_optional(cfg, "eps", 0.1, float)))
        report = match_permutation(learned, mats)
        save_dictionary_artifacts(learned, out_dir, report)
        inv = {v: k for k, v in report.permutation.items()}
        recovered = sum(
            1 for k, (i, j) in enumerate(planted) if (inv.get(i), j) in learned.columns
        )
        rows.append(_result_row(run_id, seed, params, "atoms_found", learned.n_atoms))
        rows.append(_result_row(run_id, seed, params, "columns_recovered", len(learned.columns)))
        rows.append(_result_row(run_id, seed, params, "planted_recovered", recovered))
        rows.append(
            _result_row(run_id, seed, params, "all_within_criterion", int(report.all_within_criterion()))
        )
    elif mode == "files":
        samples_dir = _require(cfg, "samples_dir")
        paths = sorted(glob.glob(os.path.join(samples_dir, "*.sketch")))
        if not paths:
            raise ConfigError(f"no .sketch files under {samples_dir!r}")
        vectors = []
        for path in paths:
            sk, _fp = load_sketch(path)
            if sk.d != params.d:
                raise ConfigError(f"{path}: dimension {sk.d} != params d {params.d}")
            vectors.append(sk.values)
        learned = learn_dictionary(
            np.array(vectors), DLConfig(params=params, eps_recover=_optional(cfg, "eps", 0.1, float))
        )
        save_dictionary_artifacts(learned, out_dir)
        rows.append(_result_row(run_id, seed, params, "atoms_found", learned.n_atoms))
        rows.append(_result_row(run_id, seed, params, "columns_recovered", len(learned.columns)))
        rows.append(
            _result_row(run_id, seed, params, "samples_read", len(vectors))
        )
    elif mode == "unroll":
        teacher = _require(cfg, "teacher", kind=dict)
        depth = _optional(teacher, "depth", 2, int, "teacher")
        w = _optional(teacher, "w", 0.5, float, "teacher")
        n_sketches = _optional(teacher, "n_sketches", 500, "count", "teacher")
        attrs_a = _optional(teacher, "attrs_a", [0.6, 0.0, 0.8], list[float], "teacher")
        attrs_b = _optional(teacher, "attrs_b", [0.0, 1.0], list[float], "teacher")
        net = build_network(
            {
                "modules": [{"id": "out", "output": True}, {"id": "A"}, {"id": "B"}],
                "objects": [
                    {"id": "root", "module": "out", "attributes": []},
                    {"id": "a", "module": "A", "attributes": attrs_a},
                    {"id": "b", "module": "B", "attributes": attrs_b},
                ],
                "edges": [("root", "a", w), ("root", "b", w)],
            },
            d=params.d,
            n_cap=params.n_cap,
        )
        registry = MatrixRegistry(params, master_seed=seed, allow_high_noise=True)
        rng = derive_rng(seed, "cli-unroll-attrs")
        sketches = []
        for _k in range(n_sketches):
            for obj, base in (("a", attrs_a), ("b", attrs_b)):
                attrs = np.zeros(params.d)
                attrs[: len(base)] = base
                attrs = np.abs(attrs + 0.05 * rng.standard_normal(params.d) * (attrs > 0))
                norm = np.linalg.norm(attrs)
                net.objects[obj].attributes = attrs / norm if norm > 0 else attrs
            sketches.append(overall_sketch(net, registry).values)
        result = unroll_network(
            np.array(sketches),
            params,
            w_goal=w,
            recursion_budget=3 * depth,
            eps_final=_optional(cfg, "eps", 0.05, float),
        )
        rows.append(_result_row(run_id, seed, params, "modules_recovered", result.n_modules))
        rows.append(_result_row(run_id, seed, params, "levels_run", result.levels_run))
        for key, count in sorted(result.sample_counts.items()):
            rows.append(_result_row(run_id, seed, params, f"module_{key}_samples", count))
    else:
        raise ConfigError(f"unknown learn_mode {mode!r}")

    _write_results(os.path.join(out_dir, "report.csv"), rows)
    print(f"wrote {os.path.join(out_dir, 'report.csv')}")
    return EXIT_OK


def cmd_repo(args: argparse.Namespace) -> int:
    if args.repo_command == "insert":
        sk, _ = load_sketch(args.sketch)
        bad = [kv for kv in args.tag or [] if "=" not in kv]
        if bad:
            raise ConfigError(f"--tag {bad[0]!r} is not of the form key=value")
        tags = dict(kv.split("=", 1) for kv in args.tag or [])
        repo = SketchRepository.from_log(args.store, sk.d)
        eid = repo.insert(sk, args.id, tags)
        print(f"inserted {eid} (store size {len(repo)})")
        return EXIT_OK
    if args.repo_command == "query":
        probe, _ = load_sketch(args.sketch)
        repo = SketchRepository.from_log(args.store, probe.d)
        if args.bucketed:
            hits, recall = repo.query_similar(probe, args.k, bucketed=True)
            print(f"recall={recall!r}")
        else:
            hits = repo.query_similar(probe, args.k)
        for hit in hits:
            print(f"{hit.entry.id}\t{hit.score!r}")
        return EXIT_OK
    if args.repo_command == "cluster":
        result = SketchRepository.from_log(args.store).cluster(k=args.k)
        for idx, assign in enumerate(result.assignments):
            print(f"{idx}\t{assign}")
        return EXIT_OK
    raise ConfigError(f"unknown repo command {args.repo_command!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config for the run")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("calibrate", help="noise sweep and delta(d) fit")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-network", help="generate a synthetic network")
    add_common(p)
    p.add_argument("--out", required=True, help="network file path")

    p = sub.add_parser("sketch", help="compute the overall sketch of a network")
    add_common(p)
    p.add_argument("--network", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("recover", help="run a recovery query against a sketch")
    add_common(p)
    p.add_argument("--sketch", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("similarity", help="inner product of two sketches")
    p.add_argument("--sketch-a", required=True)
    p.add_argument("--sketch-b", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="seeded experiment sweep")
    add_common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("learn-dict", help="dictionary learning experiment")
    add_common(p)
    p.add_argument("--out", required=True, help="artifact directory")

    p = sub.add_parser("repo", help="sketch repository operations")
    repo_sub = p.add_subparsers(dest="repo_command", required=True)
    pi = repo_sub.add_parser("insert")
    pi.add_argument("--store", required=True)
    pi.add_argument("--sketch", required=True)
    pi.add_argument("--id", default=None)
    pi.add_argument("--tag", action="append")
    pq = repo_sub.add_parser("query")
    pq.add_argument("--store", required=True)
    pq.add_argument("--sketch", required=True)
    pq.add_argument("--k", type=int, default=5)
    pq.add_argument("--bucketed", action="store_true")
    pc = repo_sub.add_parser("cluster")
    pc.add_argument("--store", required=True)
    pc.add_argument("--k", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "repo":
            return cmd_repo(args)
        if args.command == "similarity":
            return cmd_similarity(args.sketch_a, args.sketch_b, args.out)
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else _optional(cfg, "seed", 0, int)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, seed, args.out)
        if args.command == "gen-network":
            return cmd_gen_network(cfg, seed, args.out)
        if args.command == "sketch":
            return cmd_sketch(cfg, seed, args.network, args.out)
        if args.command == "recover":
            return cmd_recover(cfg, seed, args.sketch, args.out)
        if args.command == "run":
            return cmd_run(cfg, seed, args.out)
        if args.command == "learn-dict":
            return cmd_learn_dict(cfg, seed, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        NetworkValidationError, ParameterError, RecoveryError, DimensionFloorError, DimensionMismatchError
    ) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
