"""Tests for the command-line harness: determinism, schemas, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from modsketch import repository
from modsketch.block_random import auto_params
from modsketch.cli import EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, main
from modsketch.network import build_network, save_network
from modsketch.sketcher import Sketch, save_sketch


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_calibrate_small_sweep(tmp_path):
    cfg = write_json(
        tmp_path / "cal.json",
        {"run_id": "c", "seed": 1, "n_cap": 32, "dims": [512, 1024], "trials": 40},
    )
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    table = (out / "delta_table.csv").read_text().splitlines()
    assert table[0] == "# modsketch-results v1"
    assert table[1] == "run_id,seed,d,b,q,depth,weight,d_prime,metric_name,value"
    metrics = {line.split(",")[8] for line in table[2:]}
    assert "delta_iso" in metrics and "fit_exponent_iso" in metrics
    assert "fit_c_desync" in metrics


def test_gen_sketch_recover_pipeline(tmp_path):
    gen_cfg = write_json(
        tmp_path / "gen.json",
        {
            "seed": 3,
            "dimension": 1014,
            "profile": {"n_modules": 1, "depth": 2, "fan_in": 1, "attr_sparsity": 2},
        },
    )
    net_path = tmp_path / "net.txt"
    assert main(["gen-network", "--config", gen_cfg, "--out", str(net_path)]) == EXIT_OK

    sk_cfg = write_json(tmp_path / "sk.json", {"seed": 3, "allow_high_noise": True, "csv": True})
    sk_path = tmp_path / "net.sketch"
    assert main(["sketch", "--config", sk_cfg, "--network", str(net_path), "--out", str(sk_path)]) == EXIT_OK
    assert sk_path.exists() and (tmp_path / "net.sketch.csv").exists()

    rec_cfg = write_json(
        tmp_path / "rec.json",
        {
            "seed": 3,
            "allow_high_noise": True,
            "params": {"d_request": 1014, "n_cap": 6},
            "query": {"kind": "attributes_unique", "module": "m0", "h": 2, "w": 1.0},
        },
    )
    rec_out = tmp_path / "rec.csv"
    assert main(["recover", "--config", rec_cfg, "--sketch", str(sk_path), "--out", str(rec_out)]) == EXIT_OK
    lines = rec_out.read_text().splitlines()
    assert lines[0].startswith("kind,module,depth")
    assert lines[1].startswith("attributes_unique,m0,2,")
    # a registry under another seed does not match the sketch's fingerprint
    other_seed = ["recover", "--config", rec_cfg, "--sketch", str(sk_path), "--out", str(rec_out), "--seed", "4"]
    assert main(other_seed) == EXIT_VALIDATION
    # a truncated payload is refused, not read short
    sk_path.write_bytes(sk_path.read_bytes()[:-8])
    assert main(["recover", "--config", rec_cfg, "--sketch", str(sk_path), "--out", str(rec_out)]) == EXIT_VALIDATION


def test_recover_signature_sketch_at_full_scale(tmp_path, capsys):
    params = {"d_request": 8192, "n_cap": 8}
    net = build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": "leaf"}],
            "objects": [
                {"id": "root", "module": "out", "attributes": []},
                {"id": "a", "module": "leaf", "attributes": [0.6, 0.0, 0.8]},
            ],
            "edges": [("root", "a", 1.0)],
        },
        d=8211,
    )
    net_path = tmp_path / "leaf.net"
    save_network(net, str(net_path))
    base = {"seed": 11, "allow_high_noise": True, "params": params}
    sk_cfg = write_json(tmp_path / "sk.json", {**base, "signature": True})
    sk_path = tmp_path / "leaf.sketch"
    assert main(["sketch", "--config", sk_cfg, "--network", str(net_path), "--out", str(sk_path)]) == EXIT_OK
    estimates = {}
    for kind in ("frequency", "attributes_unique"):
        cfg = write_json(tmp_path / f"{kind}.json", {**base, "query": {"kind": kind, "module": "leaf"}})
        capsys.readouterr()
        assert main(["recover", "--config", cfg, "--sketch", str(sk_path), "--out", str(tmp_path / "q.csv")]) == EXIT_OK
        estimates[kind] = capsys.readouterr().out.splitlines()[0]
    count = float(estimates["frequency"].split("estimate=")[1].split()[0])
    assert abs(count - 1.0) < 0.2
    attrs = [float(v) for v in estimates["attributes_unique"].split("=[")[1].split("]")[0].split(",")[:3]]
    assert np.max(np.abs(np.array(attrs) - [0.6, 0.0, 0.8])) < 0.1


def test_similarity_command(tmp_path):
    gen_cfg = write_json(
        tmp_path / "gen.json",
        {"seed": 5, "dimension": 1014, "profile": {"n_modules": 2, "depth": 2, "fan_in": 2}},
    )
    net_path = tmp_path / "net.txt"
    main(["gen-network", "--config", gen_cfg, "--out", str(net_path)])
    sk_cfg = write_json(tmp_path / "sk.json", {"seed": 5, "allow_high_noise": True})
    a = tmp_path / "a.sketch"
    b = tmp_path / "b.sketch"
    main(["sketch", "--config", sk_cfg, "--network", str(net_path), "--out", str(a)])
    main(["sketch", "--config", sk_cfg, "--network", str(net_path), "--out", str(b)])
    out = tmp_path / "sim.csv"
    assert main(["similarity", "--sketch-a", str(a), "--sketch-b", str(b), "--out", str(out)]) == EXIT_OK
    assert out.exists()
    # sketches made under different seeds are not comparable
    main(["sketch", "--config", sk_cfg, "--network", str(net_path), "--out", str(b), "--seed", "6"])
    assert main(["similarity", "--sketch-a", str(a), "--sketch-b", str(b)]) == EXIT_VALIDATION


def test_run_rerun_byte_identical(tmp_path):
    cfg = write_json(
        tmp_path / "run.json",
        {"experiment": "attr-error-vs-d", "seed": 2, "dims": [512, 1014], "seeds": 4},
    )
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_run_error_monotone_vs_d(tmp_path):
    cfg = write_json(
        tmp_path / "run.json",
        {"experiment": "attr-error-vs-d", "seed": 4, "dims": [512, 1014, 2070], "seeds": 8},
    )
    out = tmp_path / "sweep.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    meds = [float(r[9]) for r in rows if r[8] == "attr_linf_median"]
    inversions = sum(1 for a, b in zip(meds, meds[1:]) if b > a)
    assert inversions <= 1


def test_learn_dict_plant_mode(tmp_path):
    cfg = write_json(
        tmp_path / "ld.json",
        {
            "seed": 6,
            "learn_mode": "plant",
            "params": {"b": 45, "q": 0.5, "d": 1440, "n_cap": 6},
            "n_matrices": 2,
            "n_samples": 30,
        },
    )
    out = tmp_path / "dict"
    assert main(["learn-dict", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = (out / "report.csv").read_text().splitlines()
    metrics = {line.split(",")[8]: float(line.split(",")[9]) for line in report[2:]}
    assert metrics["atoms_found"] == 2.0
    assert metrics["all_within_criterion"] == 1.0
    assert (out / "signatures.txt").exists()
    assert (out / "coefficients.csv").exists()


def test_learn_dict_unroll_mode(tmp_path):
    cfg = write_json(
        tmp_path / "unroll.json",
        {
            "learn_mode": "unroll",
            "params": {"b": 45, "q": 0.2, "d": 1440, "n_cap": 12},
            "teacher": {"depth": 2, "n_sketches": 20},
        },
    )
    reports = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["learn-dict", "--config", cfg, "--out", str(out)]) == EXIT_OK
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]
    assert reports[0].decode().splitlines()[2:] == [
        "learn-dict,0,1440,45,0.2,0,0.0,0,modules_recovered,0.0",
        "learn-dict,0,1440,45,0.2,0,0.0,0,levels_run,1.0",
    ]


def test_repo_commands(tmp_path):
    gen_cfg = write_json(
        tmp_path / "gen.json",
        {"seed": 7, "dimension": 1014, "profile": {"n_modules": 1, "depth": 2, "fan_in": 1}},
    )
    net = tmp_path / "net.txt"
    main(["gen-network", "--config", gen_cfg, "--out", str(net)])
    sk_cfg = write_json(tmp_path / "sk.json", {"seed": 7, "allow_high_noise": True})
    sk = tmp_path / "s.sketch"
    main(["sketch", "--config", sk_cfg, "--network", str(net), "--out", str(sk)])
    store = tmp_path / "repo.log"
    assert main(["repo", "insert", "--store", str(store), "--sketch", str(sk), "--id", "first"]) == EXIT_OK
    assert main(["repo", "query", "--store", str(store), "--sketch", str(sk), "--k", "1"]) == EXIT_OK
    assert main(["repo", "cluster", "--store", str(store), "--k", "1"]) == EXIT_OK
    missing, empty = tmp_path / "missing.log", tmp_path / "empty.log"
    empty.write_text("")
    assert main(["repo", "cluster", "--store", str(missing), "--k", "1"]) == EXIT_VALIDATION
    assert main(["repo", "cluster", "--store", str(empty), "--k", "1"]) == EXIT_VALIDATION


def test_repo_query_refuses_a_missing_store_as_cluster_does(tmp_path, capsys):
    sk = tmp_path / "s.sketch"
    save_sketch(Sketch(values=np.arange(8.0), kind="overall", depth=1, erased_prefix=8), str(sk))
    missing = tmp_path / "missing.log"
    query = ["repo", "query", "--store", str(missing), "--sketch", str(sk)]
    for argv in (query, ["repo", "cluster", "--store", str(missing), "--k", "1"]):
        assert main(argv) == EXIT_VALIDATION, argv
        assert capsys.readouterr() == ("", f"validation error: no sketch store at {missing}\n")
    assert not missing.exists()


def test_repo_query_refuses_a_log_without_a_complete_record_as_cluster_does(tmp_path, capsys):
    sk = tmp_path / "s.sketch"
    save_sketch(Sketch(values=np.arange(8.0), kind="overall", depth=1, erased_prefix=8), str(sk))
    for content in (b"", b'{"id": "torn'):
        log = tmp_path / "s.log"
        log.write_bytes(content)
        for argv in (["query", "--sketch", str(sk)], ["cluster", "--k", "1"]):
            assert main(["repo", argv[0], "--store", str(log)] + argv[1:]) == EXIT_VALIDATION, argv
            assert capsys.readouterr() == ("", f"validation error: {log} does not start with a complete record\n")
        assert log.read_bytes() == content


def test_explicit_params_form_writes_the_same_bytes(tmp_path):
    """A ``{b, q, d, n_cap}`` params object naming the aligned params that a
    ``{d_request, n_cap}`` one picks writes the same sketch and report."""
    gen_cfg = write_json(
        tmp_path / "gen.json", {"seed": 3, "dimension": 1014, "profile": {"n_modules": 1, "depth": 2, "fan_in": 1}}
    )
    net = tmp_path / "net.txt"
    assert main(["gen-network", "--config", gen_cfg, "--out", str(net)]) == EXIT_OK
    p = auto_params(1014, 6)
    written = {}
    for form, params in (("auto", {"d_request": 1014, "n_cap": 6}), ("explicit", {"b": p.b, "q": p.q, "d": p.d, "n_cap": 6})):
        sk, report = tmp_path / f"{form}.sketch", tmp_path / f"{form}.csv"
        cfg = {"seed": 3, "allow_high_noise": True, "params": params}
        sk_cfg = write_json(tmp_path / "sk.json", cfg)
        assert main(["sketch", "--config", sk_cfg, "--network", str(net), "--out", str(sk)]) == EXIT_OK
        rec_cfg = write_json(tmp_path / "rec.json", {**cfg, "query": {"kind": "attributes_unique", "module": "m0"}})
        assert main(["recover", "--config", rec_cfg, "--sketch", str(sk), "--out", str(report)]) == EXIT_OK
        written[form] = (sk.read_bytes(), report.read_bytes())
    assert written["explicit"] == written["auto"]


def test_repo_commands_open_the_log_to_append_only_to_insert(tmp_path, monkeypatch):
    sk = tmp_path / "s.sketch"
    save_sketch(Sketch(values=np.arange(8.0), kind="overall", depth=1, erased_prefix=8), str(sk))
    store = tmp_path / "s.log"
    appends = []

    def spy_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "a" in mode:
            appends.append(fh)
        return fh

    closed = []
    close = repository.SketchRepository.close

    def spy_close(self):
        closed.append(self)  # kept alive, so no finalizer can be what closes its log
        close(self)

    monkeypatch.setattr(repository, "open", spy_open, raising=False)
    monkeypatch.setattr(repository.SketchRepository, "close", spy_close)
    for _ in range(2):
        assert main(["repo", "insert", "--store", str(store), "--sketch", str(sk)]) == EXIT_OK
    assert len(closed) == 2 and len(appends) == 2 and all(fh.closed for fh in appends)
    assert main(["repo", "query", "--store", str(store), "--sketch", str(sk), "--k", "1"]) == EXIT_OK
    assert main(["repo", "cluster", "--store", str(store), "--k", "1"]) == EXIT_OK
    assert len(appends) == 2


def test_config_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["calibrate", "--config", missing, "--out", str(tmp_path)]) == EXIT_CONFIG
    bad = write_json(tmp_path / "bad.json", {"experiment": "wat"})
    assert main(["run", "--config", bad, "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_validation_error_exit_code(tmp_path):
    gen_cfg = write_json(
        tmp_path / "gen.json",
        {"seed": 8, "dimension": 1014, "profile": {"n_modules": 1, "depth": 2, "fan_in": 1}},
    )
    net = tmp_path / "net.txt"
    main(["gen-network", "--config", gen_cfg, "--out", str(net)])
    # dimension floor violated without the override flag
    sk_cfg = write_json(tmp_path / "sk.json", {"seed": 8, "allow_high_noise": False})
    rc = main(["sketch", "--config", sk_cfg, "--network", str(net), "--out", str(tmp_path / "s")])
    assert rc == EXIT_VALIDATION


def recover_config(tmp_path, h=2):
    return write_json(
        tmp_path / "rec.json",
        {
            "seed": 0,
            "allow_high_noise": True,
            "params": {"d_request": 1014, "n_cap": 6},
            "query": {"kind": "frequency", "module": "m0", "h": h, "w": 1.0},
        },
    )


def test_malformed_sketch_header_exit_code(tmp_path):
    rec_cfg = recover_config(tmp_path)
    sk_path = tmp_path / "bad.sketch"
    for header in (
        "modsketch-sketch v1 d=2 kind=overall",  # missing fields
        "modsketch-sketch v1 d=2 kind=overall depth=1 erased_prefix=2 seed=unknown junk",
        "modsketch-sketch v1 d=two kind=overall depth=1 erased_prefix=2 seed=unknown",
        "modsketch-sketch v1 d=2 kind=overall depth=1 erased_prefix=2.5 seed=unknown",
        "modsketch-sketch v1 d=2 kind=weird depth=1 erased_prefix=2 seed=unknown",
        "modsketch-sketch v1 d=2 kind=overall depth=1 erased_prefix=3 seed=unknown",
        "modsketch-sketch v1 d=2 kind=overall depth=1 erased_prefix=2 sig=2 seed=unknown",
        "modsketch-sketch v1 d=-1 kind=overall depth=1 erased_prefix=2 seed=unknown",  # not a read length
        "modsketch-sketch v1 d=1 kind=overall depth=1 erased_prefix=1 seed=unknown",  # 8 bytes past the payload
        "modsketch-sketch v1 d=2 kind=overall depth=0 erased_prefix=2 seed=unknown",
    ):
        sk_path.write_bytes(header.encode() + b"\n" + bytes(16))
        rc = main(["recover", "--config", rec_cfg, "--sketch", str(sk_path), "--out", str(tmp_path / "r.csv")])
        assert rc == EXIT_VALIDATION, header
        assert main(["similarity", "--sketch-a", str(sk_path), "--sketch-b", str(sk_path)]) == EXIT_VALIDATION, header


def test_recover_beyond_float_depth_exit_code(tmp_path):
    # beta = 2^(4h-3)/w leaves float range at h = 257
    d = auto_params(1014, 6).d
    sk_path = tmp_path / "zero.sketch"
    save_sketch(Sketch(values=np.zeros(d), kind="overall", depth=1, erased_prefix=d), str(sk_path))
    argv = ["recover", "--config", recover_config(tmp_path, h=257), "--sketch", str(sk_path), "--out", str(tmp_path / "r.csv")]
    assert main(argv) == EXIT_VALIDATION


def test_recover_infinite_noise_bound_exit_code(tmp_path):
    # beta = 2^1021 at h = 256 is finite, but the query's noise bound is not
    d = auto_params(1014, 6).d
    sk_path = tmp_path / "zero.sketch"
    save_sketch(Sketch(values=np.zeros(d), kind="overall", depth=1, erased_prefix=d), str(sk_path))
    argv = ["recover", "--config", recover_config(tmp_path, h=256), "--sketch", str(sk_path), "--out", str(tmp_path / "r.csv")]
    assert main(argv) == EXIT_VALIDATION


def test_recover_sketch_of_another_dimension_exit_code(tmp_path, capsys):
    # an unfingerprinted sketch skips the seed check, so recovery checks its d
    d, registry_d = auto_params(1014, 6).d, auto_params(2048, 6).d
    sk_path = tmp_path / "small.sketch"
    save_sketch(Sketch(values=np.full(d, 0.01), kind="overall", depth=1, erased_prefix=d), str(sk_path))
    path = [{"position": 1, "module": "m0"}]
    for query in ({"kind": "frequency", "module": "m0"}, {"kind": "attributes_by_path", "path": path}):
        rec = write_json(tmp_path / "rec.json", {"params": {"d_request": 2048, "n_cap": 6}, "query": query})
        capsys.readouterr()
        argv = ["recover", "--config", rec, "--sketch", str(sk_path), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: sketch d={d}, registry d={registry_d}\n"


def test_recover_signature_prints_match_and_residual(tmp_path, capsys):
    # a zero signature sketch recovers the zero signature, with no residual
    d = auto_params(1014, 6).d
    sk_path = tmp_path / "zero.sketch"
    save_sketch(Sketch(np.zeros(d), "overall", 1, d, signature_mode=True), str(sk_path))
    query = {"kind": "signature", "module": "m0"}
    rec = write_json(tmp_path / "rec.json", {"params": {"d_request": 1014, "n_cap": 6}, "query": query})
    capsys.readouterr()
    assert main(["recover", "--config", rec, "--sketch", str(sk_path), "--out", str(tmp_path / "r.csv")]) == EXIT_OK
    assert "signature: matched=True residual=0.0000\n" in capsys.readouterr().out
    rows = (tmp_path / "r.csv").read_text().splitlines()
    assert rows[0] == "kind,module,depth,weight,d,d_prime,seed,linf_error,predicted_error"
    assert rows[1].startswith(f"signature,m0,2,1.0,{d},{d},0,,")


def test_similarity_out_writes_one_results_row(tmp_path, capsys):
    sk_path = tmp_path / "a.sketch"
    save_sketch(Sketch(np.array([0.5, 0.25, 0.0]), "overall", 1, 3), str(sk_path))
    out = tmp_path / "sim.csv"
    assert main(["similarity", "--sketch-a", str(sk_path), "--sketch-b", str(sk_path), "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines() == [
        "# modsketch-results v1",
        "run_id,seed,d,b,q,depth,weight,d_prime,metric_name,value",
        "similarity,0,0,0,0.0,0,0.0,0,similarity,0.3125",
    ]


def test_gen_network_too_few_modules_exit_code(tmp_path, capsys):
    # every object level below the output needs a module of its own
    cfg = write_json(
        tmp_path / "gen.json",
        {"seed": 0, "dimension": 64, "profile": {"n_modules": 3, "depth": 5, "fan_in": 1}},
    )
    assert main(["gen-network", "--config", cfg, "--out", str(tmp_path / "net.txt")]) == EXIT_VALIDATION
    # out-of-range attribute fields are named, not a traceback or a silent default
    capsys.readouterr()
    for change, message in (
        ({"attr_sparsity": -1}, "attr_sparsity must be an integer >= 1, got -1\n"),
        ({"attr_sparsity": 0}, "attr_sparsity must be an integer >= 1, got 0\n"),
        ({"attr_span": -2}, "attr_span must be an integer >= 1, got -2\n"),
        ({"attr_span": 0}, "attr_span must be an integer >= 1, got 0\n"),
        ({"attr_sparsity": 5, "attr_span": 2}, "attr_sparsity 5 exceeds attr_span 2"),
    ):
        profile = {"n_modules": 2, "depth": 2, "fan_in": 1, **change}
        cfg = write_json(tmp_path / "gen.json", {"seed": 0, "dimension": 64, "profile": profile})
        assert main(["gen-network", "--config", cfg, "--out", str(tmp_path / "net.txt")]) == EXIT_VALIDATION, profile
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {message}") and err.count("\n") == 1, err


def test_gen_network_deep_chain(tmp_path):
    # generation and validation walk the graph without recursing per level
    cfg = write_json(
        tmp_path / "gen.json",
        {"seed": 0, "dimension": 64, "profile": {"n_modules": 1499, "depth": 1500, "fan_in": 1}},
    )
    out = tmp_path / "net.txt"
    assert main(["gen-network", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert sum(line.startswith("object ") for line in out.read_text().splitlines()) == 1500


def test_calibrate_fitted_c_stable_under_trial_doubling(tmp_path):
    outs = []
    for trials in (60, 120):
        cfg = write_json(
            tmp_path / f"cal{trials}.json",
            {"run_id": "c", "seed": 9, "n_cap": 32, "dims": [512, 1024],
             "trials": trials, "pairs": 3, "transparent": False},
        )
        out = tmp_path / f"cal{trials}"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = (out / "delta_table.csv").read_text().splitlines()[2:]
        cs = {r.split(",")[8]: float(r.split(",")[9]) for r in rows}
        outs.append(cs["fit_c_iso"])
    assert abs(outs[0] - outs[1]) / outs[1] < 0.10


def test_learn_dict_files_mode(tmp_path):
    from modsketch.block_random import BlockParams, sample_matrix
    from modsketch.sketcher import Sketch, save_sketch

    params = BlockParams(b=45, q=0.5, d=1440, n_cap=6)
    mat = sample_matrix(params, "cli-files:0")
    samples = tmp_path / "samples"
    samples.mkdir()
    for k in range(10):
        x = np.zeros(params.d)
        x[37 * (k + 1)] = 0.9
        sk = Sketch(values=mat.matvec(x), kind="overall", depth=1, erased_prefix=params.d)
        save_sketch(sk, str(samples / f"s{k:03d}.sketch"))
    cfg = write_json(
        tmp_path / "ld.json",
        {
            "seed": 1,
            "learn_mode": "files",
            "samples_dir": str(samples),
            "params": {"b": 45, "q": 0.5, "d": 1440, "n_cap": 6},
        },
    )
    out = tmp_path / "dict"
    assert main(["learn-dict", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "report.csv").read_text().splitlines()[2:]
    metrics = {r.split(",")[8]: float(r.split(",")[9]) for r in rows}
    assert metrics["samples_read"] == 10.0
    assert metrics["atoms_found"] == 1.0


def test_learn_dict_rerun_leaves_no_stale_artifacts(tmp_path):
    """A files-mode run into a directory that a plant run wrote keeps none of
    the plant run's atom files and no permutation report."""
    from modsketch.block_random import BlockParams, sample_matrix

    params = {"b": 45, "q": 0.5, "d": 1440, "n_cap": 6}
    mat = sample_matrix(BlockParams(**params), "cli-rerun:0")
    samples = tmp_path / "samples"
    samples.mkdir()
    for k in range(10):
        x = np.zeros(1440)
        x[37 * (k + 1)] = 0.9
        sk = Sketch(values=mat.matvec(x), kind="overall", depth=1, erased_prefix=1440)
        save_sketch(sk, str(samples / f"s{k:03d}.sketch"))
    out = tmp_path / "dict"
    plant = write_json(tmp_path / "plant.json", {"seed": 6, "params": params, "n_samples": 30})
    files = write_json(
        tmp_path / "files.json", {"seed": 1, "learn_mode": "files", "samples_dir": str(samples), "params": params}
    )
    assert main(["learn-dict", "--config", plant, "--out", str(out)]) == EXIT_OK
    assert (out / "permutation.csv").exists()
    assert main(["learn-dict", "--config", files, "--out", str(out)]) == EXIT_OK
    rows = (out / "report.csv").read_text().splitlines()[2:]
    metrics = {r.split(",")[8]: float(r.split(",")[9]) for r in rows}
    assert len(list((out / "atoms").iterdir())) == metrics["columns_recovered"] > 0
    assert not (out / "permutation.csv").exists()


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert main(["gen-network", "--config", str(cfg), "--out", str(tmp_path / "net.txt")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: config must be a JSON object, got list\n"


def test_typed_config_fields_exit_code(tmp_path, capsys):
    profile = {"n_modules": 1, "depth": 2, "fan_in": 1}
    for cfg in (
        {"seed": 0, "dimension": "abc", "profile": profile},
        {"seed": 0, "dimension": 64, "profile": {**profile, "fan_in": [1]}},
        {"seed": 0, "dimension": 64, "profile": 5},
        {"seed": "x", "dimension": 64, "profile": profile},
        # numbers are typed strictly: no booleans, fractions or numeric strings
        {"seed": "7", "dimension": 64, "profile": profile},
        {"seed": 0, "dimension": 1014.9, "profile": profile},
        {"seed": 0, "dimension": 64, "profile": {**profile, "n_modules": True}},
        {"seed": True, "dimension": 64, "profile": {**profile, "fan_in": True}},
    ):
        path = write_json(tmp_path / "gen.json", cfg)
        assert main(["gen-network", "--config", path, "--out", str(tmp_path / "net.txt")]) == EXIT_CONFIG, cfg
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    # optional fields of the other commands read through the same reader
    cal = write_json(tmp_path / "cal.json", {"dims": [512], "trials": "many"})
    assert main(["calibrate", "--config", cal, "--out", str(tmp_path / "cal")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: config: field 'trials' must be an integer, got 'many'\n"
    # the registry's params read through the same typed fields
    d = auto_params(1014, 6).d
    sk_path = tmp_path / "zero.sketch"
    save_sketch(Sketch(values=np.zeros(d), kind="overall", depth=1, erased_prefix=d), str(sk_path))
    for params in ({"d_request": "big", "n_cap": 6}, {"d_request": 1014, "n_cap": 6, "q": "half"}, [1014]):
        rec = write_json(tmp_path / "rec.json", {"params": params, "query": {"kind": "frequency", "module": "m0"}})
        assert main(["recover", "--config", rec, "--sketch", str(sk_path), "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "params" in err and err.count("\n") == 1, err
    # and so do the list and boolean fields
    ld_params = {"b": 45, "q": 0.5, "d": 1440, "n_cap": 6}
    for command, cfg in (
        ("calibrate", {"dims": ["abc"]}),
        ("calibrate", {"dims": []}),
        ("calibrate", {"dims": [512], "transparent": 0}),
        ("run", {"experiment": "attr-error-vs-d", "dims": 5}),
        ("run", {"experiment": "attr-error-vs-d", "attributes": [0.5, "x"]}),
        ("learn-dict", {"learn_mode": "unroll", "params": ld_params, "teacher": {"attrs_a": {"a": 1}}}),
        ("learn-dict", {"learn_mode": "unroll", "params": ld_params, "teacher": {"attrs_b": "ab"}}),
        ("calibrate", {"dims": [512.7]}),
        ("calibrate", {"dims": [512], "trials": 30.9}),
        ("calibrate", {"dims": [512], "quantile": True}),
        ("learn-dict", {"params": ld_params, "dominant": True}),
        ("learn-dict", {"params": {**ld_params, "q": float("nan")}}),
        # counts must be at least 1
        ("learn-dict", {"params": ld_params, "n_samples": -1}),
        ("learn-dict", {"params": ld_params, "n_matrices": 0}),
        ("learn-dict", {"learn_mode": "unroll", "params": ld_params, "teacher": {"n_sketches": 0}}),
        ("run", {"experiment": "attr-error-vs-d", "seeds": 0}),
        ("run", {"experiment": "similarity-pairs", "seeds": -3}),
        # string fields are strings, and a run_id fits one field of a results row
        ("learn-dict", {"learn_mode": "files", "params": ld_params, "samples_dir": 5}),
        ("run", {"experiment": "attr-error-vs-d", "run_id": "a,b\nx"}),
        ("run", {"experiment": "attr-error-vs-d", "run_id": "a,b"}),
        ("calibrate", {"dims": [512], "run_id": "c\n"}),
        ("learn-dict", {"learn_mode": "plnat", "params": ld_params}),
        ("learn-dict", {"learn_mode": "unroll", "params": ld_params, "teacher": {"depth": 0}}),
    ):
        path = write_json(tmp_path / "list.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG, cfg
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    for path_steps in (5, [{"module": "m0"}], [{"position": "first", "module": "m0"}], ["m0"], [{"position": 1, "module": 5}]):
        query = {"kind": "attributes_by_path", "path": path_steps}
        rec = write_json(tmp_path / "rec.json", {"params": {"d_request": 1014, "n_cap": 6}, "query": query})
        assert main(["recover", "--config", rec, "--sketch", str(sk_path), "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_repo_dimension_mismatch_names_both_dimensions(tmp_path, capsys):
    store = tmp_path / "s.log"
    for d in (8, 12):
        save_sketch(Sketch(values=np.arange(float(d)), kind="overall", depth=1, erased_prefix=d), str(tmp_path / f"s{d}.sketch"))
    assert main(["repo", "insert", "--store", str(store), "--sketch", str(tmp_path / "s8.sketch")]) == EXIT_OK
    logged = store.read_bytes()
    capsys.readouterr()
    for command in ("insert", "query"):
        argv = ["repo", command, "--store", str(store), "--sketch", str(tmp_path / "s12.sketch")]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: sketch d=12, store d=8\n"
    assert store.read_bytes() == logged
    # a store with no complete record yet takes the sketch's d
    fresh = tmp_path / "fresh.log"
    fresh.write_text("")
    assert main(["repo", "insert", "--store", str(fresh), "--sketch", str(tmp_path / "s12.sketch")]) == EXIT_OK
    assert main(["repo", "query", "--store", str(fresh), "--sketch", str(tmp_path / "s12.sketch"), "--k", "1"]) == EXIT_OK


def test_repo_input_errors_exit_codes(tmp_path, capsys):
    sk = tmp_path / "s.sketch"
    save_sketch(Sketch(values=np.arange(8.0), kind="overall", depth=1, erased_prefix=8), str(sk))
    store = tmp_path / "s.log"
    insert = ["repo", "insert", "--store", str(store), "--sketch", str(sk)]
    assert main(insert + ["--tag", "foo"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --tag 'foo' is not of the form key=value\n"
    assert not store.exists()
    for _ in range(3):
        assert main(insert + ["--tag", "a=b=c"]) == EXIT_OK
    capsys.readouterr()
    for k in ("0", "-1"):
        assert main(["repo", "query", "--store", str(store), "--sketch", str(sk), "--k", k]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"validation error: k must be an integer >= 1, got {k}\n")


def test_missing_input_file_exit_code(tmp_path, capsys):
    absent = str(tmp_path / "absent")
    out = str(tmp_path / "out")
    sk_cfg = write_json(tmp_path / "sk.json", {"seed": 0, "allow_high_noise": True})
    for argv in (
        ["repo", "insert", "--store", str(tmp_path / "s.log"), "--sketch", absent],
        ["repo", "query", "--store", str(tmp_path / "s.log"), "--sketch", absent],
        ["similarity", "--sketch-a", absent, "--sketch-b", absent],
        ["recover", "--config", recover_config(tmp_path), "--sketch", absent, "--out", out],
        ["sketch", "--config", sk_cfg, "--network", absent, "--out", out],
    ):
        assert main(argv) == EXIT_VALIDATION, argv
        err = capsys.readouterr().err
        assert err.startswith("validation error: cannot read ") and absent in err and err.count("\n") == 1, err


def refused_path_argv(tmp_path, command):
    """The argv of ``command`` with one path the OS refuses, and that path."""
    save_sketch(Sketch(values=np.arange(8.0), kind="overall", depth=1, erased_prefix=8), str(tmp_path / "s.sketch"))
    net = build_network(
        {"modules": [{"id": "out", "output": True}, {"id": "leaf"}],
         "objects": [{"id": "root", "module": "out", "attributes": []}, {"id": "a", "module": "leaf", "attributes": [0.6]}],
         "edges": [("root", "a", 1.0)]},
        d=90,  # aligned for the network's n_cap
    )
    save_network(net, str(tmp_path / "net.txt"))
    (tmp_path / "afile").write_text("")
    sk, cfg = str(tmp_path / "s.sketch"), write_json(tmp_path / "cfg.json", {"seed": 0, "allow_high_noise": True})
    gen = write_json(tmp_path / "gen.json", {"seed": 0, "dimension": 64, "profile": {"n_modules": 1, "depth": 2, "fan_in": 1}})
    run = write_json(tmp_path / "run.json", {"experiment": "similarity-pairs", "seeds": 1, "d": 64, "n_cap": 8})
    nodir, afile, adir = str(tmp_path / "nodir" / "x"), str(tmp_path / "afile"), str(tmp_path)
    return {
        "sketch": (["sketch", "--config", cfg, "--network", str(tmp_path / "net.txt"), "--out", nodir], nodir),
        "gen-network": (["gen-network", "--config", gen, "--out", nodir], nodir),
        "run": (["run", "--config", run, "--out", nodir], nodir),
        "similarity": (["similarity", "--sketch-a", sk, "--sketch-b", sk, "--out", nodir], nodir),
        "repo-insert-no-dir": (["repo", "insert", "--store", nodir, "--sketch", sk], nodir),
        "repo-insert-file-as-dir": (["repo", "insert", "--store", afile + "/x.log", "--sketch", sk], afile + "/x.log"),
        "calibrate-out-a-file": (["calibrate", "--config", cfg, "--out", afile], afile),
        "learn-dict-out-a-file": (["learn-dict", "--config", cfg, "--out", afile], afile),
        "repo-query-store-a-dir": (["repo", "query", "--store", adir, "--sketch", sk], adir),
        "repo-cluster-store-a-dir": (["repo", "cluster", "--store", adir, "--k", "1"], adir),
        "recover-config-a-dir": (["recover", "--config", adir, "--sketch", sk, "--out", nodir], adir),
    }[command]


@pytest.mark.parametrize(
    "command",
    ["sketch", "gen-network", "run", "similarity", "repo-insert-no-dir", "repo-insert-file-as-dir",
     "calibrate-out-a-file", "learn-dict-out-a-file", "repo-query-store-a-dir", "repo-cluster-store-a-dir",
     "recover-config-a-dir"],
)
def test_path_the_os_refuses_exit_code(tmp_path, capsys, command):
    # a missing directory, a file where a directory must be, or the reverse:
    # one stderr line naming the path and the reason, not a traceback
    argv, path = refused_path_argv(tmp_path, command)
    capsys.readouterr()
    config = command == "recover-config-a-dir"
    assert main(argv) == (EXIT_CONFIG if config else EXIT_VALIDATION)
    err = capsys.readouterr().err
    prefix = f"config error: cannot read config file {path}: " if config else f"file error: {path}: "
    reason = ("No such file or directory", "Not a directory", "File exists", "Is a directory")
    assert err.startswith(prefix) and err.rstrip("\n").endswith(reason) and err.count("\n") == 1, err
    assert not (tmp_path / "nodir").exists()


def test_malformed_log_record_metadata_exit_code(tmp_path, capsys):
    sk = tmp_path / "s.sketch"
    save_sketch(Sketch(values=np.arange(8.0), kind="overall", depth=1, erased_prefix=8), str(sk))
    store = tmp_path / "s.log"
    assert main(["repo", "insert", "--store", str(store), "--sketch", str(sk)]) == EXIT_OK
    record = json.loads(store.read_text())
    capsys.readouterr()
    for change in (
        {"tags": "x"},
        {"tags": {"n": 1}},
        {"depth": "deep", "kind": 7, "erased_prefix": -4},
        {"depth": 1.0},
        {"kind": "weird"},
        {"erased_prefix": 0},
        {"erased_prefix": 9},
        {"signature_mode": 1},
        {"id": 5},
        {"id": None},
        {"depth": -1},
    ):
        store.write_text(json.dumps({**record, **change}, sort_keys=True) + "\n")
        assert main(["repo", "cluster", "--store", str(store), "--k", "1"]) == EXIT_VALIDATION, change
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "malformed record at byte 0" in err, err
        assert err.count("\n") == 1, err


def test_malformed_network_numbers_exit_code(tmp_path, capsys):
    good = (
        "[network]\ndimension = 1014\nn_cap = 6\nn_multiplier = 3\n"
        "[modules]\noutput out\nmodule leaf\n[objects]\nobject root out\nobject a leaf 0:0.6\n[edges]\nroot a 1.0\n"
    )
    sk_cfg = write_json(tmp_path / "sk.json", {"seed": 0, "allow_high_noise": True})
    net_path = tmp_path / "net.txt"
    for old, new, where in (
        ("dimension = 1014", "dimension = abc", "line 2: dimension must be an integer, got 'abc'"),
        ("n_cap = 6", "n_cap = x", "line 3: n_cap must be an integer, got 'x'"),
        ("n_multiplier = 3", "n_multiplier = 2.5", "line 4: n_multiplier must be an integer, got '2.5'"),
        ("root a 1.0", "root a heavy", "line 12: edge weight must be a number, got 'heavy'"),
        ("root a 1.0", "root a nan", "edge weight on ('root', 'a') must be nonnegative, got nan"),
        ("root a 1.0", "root a inf", "input weights of 'root' sum to inf > 1"),
        ("0:0.6", "0:nan", "attribute entries must be finite and nonnegative"),
        ("0:0.6", "0:inf", "attribute entries must be finite and nonnegative"),
        ("0:0.6", "-1:0.5", "object 'a' attribute index -1 outside [0, 1014)"),
        ("0:0.6", "-3:0.5 2:0.1", "object 'a' attribute index -3 outside [0, 1014)"),
        ("0:0.6", "0:1e300", "attribute vector is too large to normalize"),
        ("n_multiplier = 3", "n_multiplier = 0", "n_multiplier must be an integer >= 1, got 0"),
    ):
        net_path.write_text(good.replace(old, new))
        assert main(["sketch", "--config", sk_cfg, "--network", str(net_path), "--out", str(tmp_path / "s")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {where}\n"
    net_path.write_text(good)
    assert main(["sketch", "--config", sk_cfg, "--network", str(net_path), "--out", str(tmp_path / "s")]) == EXIT_OK


def test_registry_mode_and_boolean_fields_are_checked(tmp_path, capsys):
    net = tmp_path / "net.txt"
    gen_cfg = write_json(tmp_path / "gen.json", {"seed": 1, "dimension": 1014, "profile": {"n_modules": 1, "depth": 2, "fan_in": 1}})
    assert main(["gen-network", "--config", gen_cfg, "--out", str(net)]) == EXIT_OK
    sketch = ["sketch", "--network", str(net), "--out", str(tmp_path / "s.sketch"), "--config"]
    capsys.readouterr()
    assert main(sketch + [write_json(tmp_path / "sk.json", {"allow_high_noise": True, "mode": "orthonormall"})]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: unknown registry mode 'orthonormall'") and err.count("\n") == 1, err
    for key in ("allow_high_noise", "signature", "csv"):
        cfg = write_json(tmp_path / "sk.json", {"allow_high_noise": True, key: "no"})
        assert main(sketch + [cfg]) == EXIT_CONFIG, key
        assert capsys.readouterr().err == f"config error: config: field {key!r} must be true or false, got 'no'\n"
    # the default (null) and the JSON booleans still read
    for cfg in ({"allow_high_noise": True, "csv": None}, {"allow_high_noise": True, "signature": False, "csv": True}):
        assert main(sketch + [write_json(tmp_path / "sk.json", cfg)]) == EXIT_OK


def test_recover_query_module_is_a_required_string(tmp_path, capsys):
    d = auto_params(1014, 6).d
    sk_path = tmp_path / "zero.sketch"
    save_sketch(Sketch(values=np.zeros(d), kind="overall", depth=1, erased_prefix=d), str(sk_path))
    for query, message in (
        ({"kind": "frequency"}, "query: missing required field 'module'"),
        ({"kind": "frequency", "module": ["m0"]}, "query: field 'module' must be a string without commas or line breaks"),
        ({"kind": "attributes_unique", "module": 5}, "query: field 'module' must be a string without commas or line breaks"),
        ({"kind": "frequency", "module": "m0,m1"}, "query: field 'module' must be a string without commas or line breaks"),
        ({"kind": "freq", "module": "m0"}, "query: field 'kind' must be one of 'attributes_unique', "),
    ):
        rec = write_json(tmp_path / "rec.json", {"params": {"d_request": 1014, "n_cap": 6}, "query": query})
        assert main(["recover", "--config", rec, "--sketch", str(sk_path), "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err


def test_sketch_erase_to_zero_is_range_checked(tmp_path, capsys):
    gen_cfg = write_json(tmp_path / "gen.json", {"seed": 2, "dimension": 1014, "profile": {"n_modules": 1, "depth": 2, "fan_in": 1}})
    net = tmp_path / "net.txt"
    assert main(["gen-network", "--config", gen_cfg, "--out", str(net)]) == EXIT_OK
    sketch = ["sketch", "--network", str(net), "--out", str(tmp_path / "s.sketch"), "--config"]
    capsys.readouterr()
    assert main(sketch + [write_json(tmp_path / "sk.json", {"allow_high_noise": True, "erase_to": 0})]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: prefix must be an integer in [1, 1014], got 0\n"
    assert not (tmp_path / "s.sketch").exists()
    assert main(sketch + [write_json(tmp_path / "sk.json", {"allow_high_noise": True, "erase_to": 1})]) == EXIT_OK
    assert b" erased_prefix=1 " in (tmp_path / "s.sketch").read_bytes().split(b"\n", 1)[0]
