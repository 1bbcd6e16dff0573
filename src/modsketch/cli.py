"""Command-line harness.

Every command is a pure function of (config file, seed) to output files: the
config carries the experiment description, and command-line flags override
only the seed and output paths.  Results tables share one schema,

    run_id, seed, d, b, q, depth, weight, d_prime, metric_name, value

written deterministically (no timestamps), so reruns are byte-identical.

Exit codes: 0 ok, 2 for a ``ConfigError``, 3 for any other ``ModsketchError``
or a path the OS refuses; anything else is a bug.
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
    ModsketchError,
    ParameterError,
    auto_params,
    sample_matrix,
)
from modsketch.calibrated import fit_delta_law, measure_noise_profile
from modsketch.dictlearn import (
    DLConfig,
    learn_dictionary,
    match_permutation,
    save_dictionary_artifacts,
    unroll_network,
)
from modsketch.network import (
    ModularNetwork,
    SyntheticProfile,
    build_network,
    generate_synthetic,
    load_network,
    save_network,
)
from modsketch.recovery import (
    PathStep,
    recover_attributes_unique,
    report_csv_header,
    report_csv_row,
    sketch_similarity,
)
from modsketch.repository import SketchRepository
from modsketch.sketcher import (
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


class ConfigError(ModsketchError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    return cfg


_KIND_NAMES = {int: "an integer", "count": "an integer >= 1", float: "a finite number", bool: "true or false",
               dict: "an object", str: "a string", "label": "a string without commas or line breaks",
               list[int]: "a non-empty list of integers", list[float]: "a non-empty list of numbers",
               list[dict]: "a non-empty list of objects"}


def _convert(value, kind):
    """``value`` as ``kind``, which it must already be in the JSON; no boolean is
    a number, a ``"count"`` is an integer of at least 1, a ``"label"`` is a
    string that fits one field of a results row, and a tuple kind lists the
    strings allowed."""
    if kind is float:
        if type(value) not in (int, float) or not math.isfinite(value):
            raise TypeError(value)
        return float(value)
    if get_args(kind):
        if not (isinstance(value, list) and value):
            raise TypeError(value)
        return [_convert(item, get_args(kind)[0]) for item in value]
    if isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
    elif kind == "label":
        ok = isinstance(value, str) and "," not in value and "".join(value.splitlines()) == value
    elif kind in (int, "count"):
        ok = type(value) is int and (kind is int or value >= 1)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise TypeError(value)
    return value


def _require(cfg: dict, key: str, kind, path="config"):
    """Read a required field, converted to ``kind``: a key of ``_KIND_NAMES``
    or a tuple of the strings allowed."""
    if key not in cfg:
        raise ConfigError(f"{path}: missing required field {key!r}")
    try:
        return _convert(cfg[key], kind)
    except (TypeError, ValueError, OverflowError):
        name = f"one of {', '.join(map(repr, kind))}" if isinstance(kind, tuple) else _KIND_NAMES[kind]
        raise ConfigError(f"{path}: field {key!r} must be {name}, got {cfg[key]!r}") from None


def _optional(cfg: dict, key: str, default, kind, path="config"):
    """Read a field that may be absent or null, as :func:`_require` does."""
    return default if cfg.get(key) is None else _require(cfg, key, kind, path)


def _config(args: argparse.Namespace) -> tuple[dict, int]:
    """The command's config and its seed, which ``--seed`` overrides."""
    cfg = _load_config(args.config)
    return cfg, args.seed if args.seed is not None else _optional(cfg, "seed", 0, int)


def _result_row(run_id, seed, params, metric, value, depth=0, weight=0.0) -> str:
    d, b, q = (params.d, params.b, params.q) if params else (0, 0, 0.0)
    return f"{run_id},{seed},{d},{b},{float(q)!r},{depth},{float(weight)!r},0,{metric},{float(value)!r}"


def _write_results(path: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"wrote {path}")


def _block_params(pcfg: dict) -> BlockParams:
    """The explicit ``{b, q, d, n_cap}`` form of a ``params`` object."""
    return BlockParams(
        b=_require(pcfg, "b", int, "params"),
        q=_require(pcfg, "q", float, "params"),
        d=_require(pcfg, "d", int, "params"),
        n_cap=_require(pcfg, "n_cap", int, "params"),
    )


def _registry_from_config(cfg: dict, seed: int, default_params: dict) -> MatrixRegistry:
    pcfg = _optional(cfg, "params", default_params, dict)
    if "b" in pcfg:
        params = _block_params(pcfg)
    else:
        n_cap = _require(pcfg, "n_cap", int, "params")
        d_request = _require(pcfg, "d_request", int, "params")
        params = auto_params(d_request, n_cap, q=_optional(pcfg, "q", None, float, "params"))
    return MatrixRegistry(
        params,
        master_seed=seed,
        mode=_optional(cfg, "mode", "block-random", str),
        allow_high_noise=_optional(cfg, "allow_high_noise", False, bool),
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_calibrate(args: argparse.Namespace) -> None:
    """Noise sweep over dimensions, and the fit of delta(d) to the calibrated law."""
    cfg, seed = _config(args)
    run_id = _optional(cfg, "run_id", "calibrate", "label")
    n_cap = _optional(cfg, "n_cap", 64, int)
    dims = _optional(cfg, "dims", [512, 1024, 2048, 4096, 8192], list[int])
    trials = _optional(cfg, "trials", 200, int)
    pairs = _optional(cfg, "pairs", 1, int)
    quantile = _optional(cfg, "quantile", 0.99, float)
    transparent = _optional(cfg, "transparent", True, bool)
    os.makedirs(args.out, exist_ok=True)

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

    if len(dims) >= 2:
        for name, deltas in (("iso", deltas_iso), ("desync", deltas_des)):
            exponent, c, residuals = fit_delta_law(deltas, n_cap)
            rows.append(_result_row(run_id, seed, None, f"fit_exponent_{name}", exponent))
            rows.append(_result_row(run_id, seed, None, f"fit_c_{name}", c))
            for (d, _, _), r in zip(deltas, residuals):
                rows.append(_result_row(run_id, seed, None, f"residual_{name}_d{d}", r))

    _write_results(os.path.join(args.out, "delta_table.csv"), rows)


def cmd_gen_network(args: argparse.Namespace) -> None:
    cfg, seed = _config(args)
    profile_cfg = _require(cfg, "profile", dict)
    profile = SyntheticProfile(
        n_modules=_require(profile_cfg, "n_modules", int, "profile"),
        depth=_require(profile_cfg, "depth", int, "profile"),
        fan_in=_require(profile_cfg, "fan_in", int, "profile"),
        weight_scheme=_optional(profile_cfg, "weight_scheme", "uniform", str, "profile"),
        attr_sparsity=_optional(profile_cfg, "attr_sparsity", 3, int, "profile"),
        attr_span=_optional(profile_cfg, "attr_span", None, int, "profile"),
    )
    net = generate_synthetic(profile, seed=seed, d=_require(cfg, "dimension", int))
    save_network(net, args.out)
    print(f"wrote {args.out}")


def cmd_sketch(args: argparse.Namespace) -> None:
    cfg, seed = _config(args)
    net = load_network(args.network)
    registry = _registry_from_config(cfg, seed, {"d_request": net.d, "n_cap": net.n_cap})
    erase_to = _optional(cfg, "erase_to", None, int)
    csv = _optional(cfg, "csv", False, bool)
    sk = overall_sketch(net, registry, signature_mode=_optional(cfg, "signature", False, bool))
    if erase_to is not None:
        sk = erase_to_prefix(sk, erase_to)
    save_sketch(sk, args.out, registry.seed_fingerprint())
    if csv:
        export_sketch_csv(sk, args.out + ".csv")
    print(f"wrote {args.out}")


QUERY_KINDS = (
    "attributes_unique", "attributes_by_path", "frequency", "summed_attributes", "mean_attributes", "signature"
)


def cmd_recover(args: argparse.Namespace) -> None:
    cfg, seed = _config(args)
    sk, fingerprint = load_sketch(args.sketch)
    registry = _registry_from_config(cfg, seed, {})
    if fingerprint not in ("unknown", registry.seed_fingerprint()):
        raise ParameterError(f"{args.sketch} was made under another seed or params (fingerprint {fingerprint})")
    query = _require(cfg, "query", dict)
    kind = _require(query, "kind", QUERY_KINDS, "query")
    # looked up at call time, so a wrapper installed on the module sees the call
    recover = getattr(recovery, f"recover_{kind}")
    w = _optional(query, "w", 1.0, float, "query")
    if kind == "attributes_by_path":
        steps = [
            PathStep(_require(p, "position", int, "query path step"), _require(p, "module", "label", "query path step"))
            for p in _require(query, "path", list[dict], "query")
        ]
        rep = recover(sk, steps, registry, w=w)
    else:
        rep = recover(sk, _require(query, "module", "label", "query"), _optional(query, "h", 2, int, "query"), w, registry)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report_csv_header() + "\n")
        fh.write(report_csv_row(rep, seed=str(seed)) + "\n")
    if isinstance(rep.estimate, float):
        print(f"{kind}: estimate={rep.estimate!r} rounded={rep.rounded}")
    else:
        head = ", ".join(f"{v:.4f}" for v in rep.estimate[:8])
        print(f"{kind}: estimate[:8]=[{head}] predicted_error={rep.predicted_error:.4f}")
    if "matched" in rep.extras:
        print(f"{kind}: matched={rep.extras['matched']} residual={rep.extras['residual']:.4f}")
    print(f"wrote {args.out}")


def cmd_similarity(args: argparse.Namespace) -> None:
    a, fp_a = load_sketch(args.sketch_a)
    b, fp_b = load_sketch(args.sketch_b)
    if "unknown" not in (fp_a, fp_b) and fp_a != fp_b:
        raise ParameterError(f"sketches were made under different seed fingerprints: {fp_a} vs {fp_b}")
    value = sketch_similarity(a, b)
    print(f"similarity: {value!r}")
    if args.out:
        _write_results(args.out, [_result_row("similarity", 0, None, "similarity", value)])


def cmd_run(args: argparse.Namespace) -> None:
    """Seeded experiment sweeps writing the shared results schema."""
    cfg, seed = _config(args)
    experiment = _require(cfg, "experiment", ("attr-error-vs-d", "similarity-pairs"))
    run_id = _optional(cfg, "run_id", experiment, "label")
    rows: list[str] = []
    if experiment == "attr-error-vs-d":
        dims = _optional(cfg, "dims", [512, 1024, 2048], list[int])
        n_seeds = _optional(cfg, "seeds", 20, "count")
        n_cap = _optional(cfg, "n_cap", 32, int)
        attrs = _optional(cfg, "attributes", [0.6, 0.0, 0.8], list[float])
        for d_req in dims:
            params = auto_params(d_req, n_cap)
            net = _star_network(params.d, 32, [("leaf", attrs, 1.0)])
            truth = net.objects["leaf"].attributes[: len(attrs)]
            errors = []
            for trial in range(n_seeds):
                reg = MatrixRegistry(params, master_seed=seed * 10007 + trial, allow_high_noise=True)
                sk = overall_sketch(net, reg)
                rep = recover_attributes_unique(sk, "leaf", 2, 1.0, reg)
                errors.append(float(np.max(np.abs(rep.estimate[: len(attrs)] - truth))))
            rows.append(
                _result_row(run_id, seed, params, "attr_linf_median", float(np.median(errors)), depth=2, weight=1.0)
            )
    else:
        n_seeds = _optional(cfg, "seeds", 20, "count")
        params = auto_params(_optional(cfg, "d", 1024, int), _optional(cfg, "n_cap", 32, int))
        net1 = _star_network(params.d, 32, [("m1", [1.0], 1.0)])
        net2 = _star_network(params.d, 32, [("m2", [0.5, 0.5], 1.0)])
        for trial in range(n_seeds):
            reg = MatrixRegistry(params, master_seed=seed * 10007 + trial, allow_high_noise=True)
            s1 = overall_sketch(net1, reg)
            s2 = overall_sketch(net2, reg)
            rows.append(
                _result_row(
                    run_id, seed * 10007 + trial, params, "disjoint_dot", sketch_similarity(s1, s2)
                )
            )
    _write_results(args.out, rows)


def _star_network(d: int, n_cap: int, leaves: list[tuple[str, list[float], float]]) -> ModularNetwork:
    """The output pseudo-object ``root`` fed, in order, by one object per
    ``(module, attributes, weight)`` leaf, each object named after its module."""
    return build_network(
        {
            "modules": [{"id": "out", "output": True}] + [{"id": m} for m, _, _ in leaves],
            "objects": [{"id": "root", "module": "out", "attributes": []}]
            + [{"id": m, "module": m, "attributes": list(attrs)} for m, attrs, _ in leaves],
            "edges": [("root", m, w) for m, _, w in leaves],
        },
        d=d,
        n_cap=n_cap,
    )


def cmd_learn_dict(args: argparse.Namespace) -> None:
    """Dictionary-learning experiments: planted instances or teacher unrolling."""
    cfg, seed = _config(args)
    mode = _optional(cfg, "learn_mode", "plant", ("plant", "files", "unroll"))
    os.makedirs(args.out, exist_ok=True)
    params = _block_params(_require(cfg, "params", dict))
    rows: list[str] = []
    run_id = _optional(cfg, "run_id", "learn-dict", "label")
    eps = _optional(cfg, "eps", 0.05 if mode == "unroll" else 0.1, float)

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
            ys[k] += dominant * mats[i].column(j)  # summed from +0.0, as a one-hot matvec is
        learned = learn_dictionary(ys, DLConfig(params=params, eps_recover=eps))
        report = match_permutation(learned, mats)
        save_dictionary_artifacts(learned, args.out, report)
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
        samples_dir = _require(cfg, "samples_dir", str)
        paths = sorted(glob.glob(os.path.join(samples_dir, "*.sketch")))
        if not paths:
            raise ConfigError(f"no .sketch files under {samples_dir!r}")
        vectors = []
        for path in paths:
            sk, _fp = load_sketch(path)
            if sk.d != params.d:
                raise ConfigError(f"{path}: dimension {sk.d} != params d {params.d}")
            vectors.append(sk.values)
        learned = learn_dictionary(np.array(vectors), DLConfig(params=params, eps_recover=eps))
        save_dictionary_artifacts(learned, args.out)
        rows.append(_result_row(run_id, seed, params, "atoms_found", learned.n_atoms))
        rows.append(_result_row(run_id, seed, params, "columns_recovered", len(learned.columns)))
        rows.append(
            _result_row(run_id, seed, params, "samples_read", len(vectors))
        )
    else:
        teacher = _require(cfg, "teacher", dict)
        depth = _optional(teacher, "depth", 2, "count", "teacher")
        w = _optional(teacher, "w", 0.5, float, "teacher")
        n_sketches = _optional(teacher, "n_sketches", 500, "count", "teacher")
        attrs_a = _optional(teacher, "attrs_a", [0.6, 0.0, 0.8], list[float], "teacher")
        attrs_b = _optional(teacher, "attrs_b", [0.0, 1.0], list[float], "teacher")
        net = _star_network(params.d, params.n_cap, [("A", attrs_a, w), ("B", attrs_b, w)])
        registry = MatrixRegistry(params, master_seed=seed, allow_high_noise=True)
        rng = derive_rng(seed, "cli-unroll-attrs")
        sketches = []
        for _k in range(n_sketches):
            for obj, base in (("A", attrs_a), ("B", attrs_b)):
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
            eps_final=eps,
        )
        rows.append(_result_row(run_id, seed, params, "modules_recovered", result.n_modules))
        rows.append(_result_row(run_id, seed, params, "levels_run", result.levels_run))
        for key, count in sorted(result.sample_counts.items()):
            rows.append(_result_row(run_id, seed, params, f"module_{key}_samples", count))

    _write_results(os.path.join(args.out, "report.csv"), rows)


def cmd_repo_insert(args: argparse.Namespace) -> None:
    sk, _ = load_sketch(args.sketch)
    bad = [kv for kv in args.tag or [] if "=" not in kv]
    if bad:
        raise ConfigError(f"--tag {bad[0]!r} is not of the form key=value")
    if args.id is not None and ("\t" in args.id or "".join(args.id.splitlines()) != args.id):
        raise ConfigError(f"--id {args.id!r} holds a tab or a line break")
    tags = dict(kv.split("=", 1) for kv in args.tag or [])
    with SketchRepository(sk.d, args.store) as repo:
        eid = repo.insert(sk, args.id, tags)
    print(f"inserted {eid} (store size {len(repo)})")


def cmd_repo_query(args: argparse.Namespace) -> None:
    probe, _ = load_sketch(args.sketch)
    for hit in SketchRepository(log_path=args.store).query_similar(probe, args.k):
        print(f"{hit.entry.id}\t{hit.score!r}")


def cmd_repo_cluster(args: argparse.Namespace) -> None:
    result = SketchRepository(log_path=args.store).cluster(k=args.k)
    for idx, assign in enumerate(result.assignments):
        print(f"{idx}\t{assign}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``modsketch`` parser.  Each command's ``handler`` default is read from
    this module's globals when the parser is built, so ``main`` calls any
    wrapper installed on the module after import."""
    parser = argparse.ArgumentParser(prog="modsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, config=True, group=sub, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        if config:
            p.add_argument("--config", required=True, help="JSON config for the run")
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        return p

    p = add_command("calibrate", cmd_calibrate, help="noise sweep and delta(d) fit")
    p.add_argument("--out", required=True, help="output directory")

    p = add_command("gen-network", cmd_gen_network, help="generate a synthetic network")
    p.add_argument("--out", required=True, help="network file path")

    p = add_command("sketch", cmd_sketch, help="compute the overall sketch of a network")
    p.add_argument("--network", required=True)
    p.add_argument("--out", required=True)

    p = add_command("recover", cmd_recover, help="run a recovery query against a sketch")
    p.add_argument("--sketch", required=True)
    p.add_argument("--out", required=True)

    p = add_command("similarity", cmd_similarity, config=False, help="inner product of two sketches")
    p.add_argument("--sketch-a", required=True)
    p.add_argument("--sketch-b", required=True)
    p.add_argument("--out", default=None)

    p = add_command("run", cmd_run, help="seeded experiment sweep")
    p.add_argument("--out", required=True)

    p = add_command("learn-dict", cmd_learn_dict, help="dictionary learning experiment")
    p.add_argument("--out", required=True, help="artifact directory")

    p = sub.add_parser("repo", help="sketch repository operations")
    repo_sub = p.add_subparsers(dest="repo_command", required=True)
    pi = add_command("insert", cmd_repo_insert, config=False, group=repo_sub)
    pi.add_argument("--store", required=True)
    pi.add_argument("--sketch", required=True)
    pi.add_argument("--id", default=None)
    pi.add_argument("--tag", action="append")
    pq = add_command("query", cmd_repo_query, config=False, group=repo_sub)
    pq.add_argument("--store", required=True)
    pq.add_argument("--sketch", required=True)
    pq.add_argument("--k", type=int, default=5)
    pc = add_command("cluster", cmd_repo_cluster, config=False, group=repo_sub)
    pc.add_argument("--store", required=True)
    pc.add_argument("--k", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModsketchError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # a path the OS refuses: a missing directory, a file for a directory, ...
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"file error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
