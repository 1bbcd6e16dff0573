#!/usr/bin/env python3
"""Benchmark of the modsketch sketch -> recover -> learn -> retrieve pipeline.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1] [--ops N]

One workload runs in this process: set-up (repeated, each time with the
import time of a fresh interpreter; the median is ``setup_s``), then one op
at a time for ``--seconds`` seconds (or exactly ``--ops`` ops after the
workload's one-off ops), checking every op's output.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are the per-layer ones, per traced op, taken from spans recorded around
the package's public functions (odd-numbered ops are traced, even ones are
not, and the difference is the tracing overhead).  ``--workload all`` runs every workload
in its own process, one after the other, and prints every metric by name.

The full record (environment, per-workload metrics, digests) is written to
``.bench_work/results/`` and the spans of a traced run to
``.bench_work/traces/``.  See perfbench/README.md for the workloads.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# Pinned before numpy is imported: one calling thread, one BLAS/OpenMP thread.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
NAMES = ("cli-chain", "teacher-batch", "learn-planted", "repo-mixed")
DEFAULT_SEED = 0  # digests.json holds the expected outputs for this seed
MIN_OPS = 2  # repeated ops per run, however short --seconds is


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None, help="run exactly N repeated ops instead of a timed window")
    return p.parse_args(argv)


def result_path(kind: str, name: str, seed: int, trace: int) -> str:
    return os.path.join(WORK, kind, f"{name}-s{seed}-t{trace}.json")


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the benchmark and the package."""
    code = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
            "import kernels, tracing, workloads; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC, HERE], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": THREADS,
        "commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float]):
    """Highest percentile with at least 10 samples beyond it: (value, pct, n)."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], math.floor(100 * (n - 10) / n), n


def median(samples: list[float]) -> float:
    """Median, or 0 when no op succeeded (the run then reports correct: false)."""
    return statistics.median(samples) if samples else 0.0


def summarize(wl, records: list[dict]) -> tuple[dict, dict]:
    """(the end-to-end metrics of BENCHMARK.json, the workload's own named report)."""
    ok = [r for r in records if r["error"] is None]
    repeated = [r for r in ok if r["kind"] == "op"]
    write = [r["stages"][wl.WRITE] for r in repeated]
    read = [sum(r["stages"][s] for s in wl.READ) for r in repeated]
    timed_s = sum(sum(r["stages"].values()) for r in repeated) / 1e3
    rate = len(repeated) / timed_s if timed_s else 0.0
    e2e = {"write_p50_ms": (median(write), "ms"), "read_p50_ms": (median(read), "ms")}
    report = {}
    for metric, stage, stat in wl.REPORT:
        samples = [r["stages"][stage] for r in ok if stage in r["stages"]]
        if stat == "p50":
            report[metric] = {"value": median(samples), "unit": "ms", "n": len(samples)}
        else:
            t = tail(samples)
            report[metric] = (
                {"value": t[0], "unit": "ms", "percentile": t[1], "n": t[2]} if t
                else {"value": None, "unit": "ms", "n": len(samples), "note": "fewer than 11 samples"}
            )
    if wl.WRITE == "sketch":
        report["sketches_per_s"] = {"value": rate, "unit": "1/s", "n": len(repeated)}
    recalls = [r["extra"]["recall"] for r in ok if "recall" in r["extra"]]
    if recalls:
        report["bucketed_recall"] = {"value": statistics.fmean(recalls), "unit": "ratio", "n": len(recalls)}
    return e2e, report


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "modsketch", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import modsketch

    if not os.path.abspath(modsketch.__file__).startswith(SRC + os.sep):
        print(f"error: modsketch imported from {modsketch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import kernels
    import tracing
    import workloads

    import_s = time.perf_counter() - _START
    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _measure(args, cls, workdir, import_s, workloads, tracing, kernels)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, cls, workdir, import_s, workloads, tracing, kernels) -> int:
    tracer = tracing.Tracer() if args.trace else None
    fixed = args.ops is not None

    # set-up: repeated in an end-to-end run, each time with the import time of
    # a fresh interpreter (this process imports only once); the median of the
    # sums is setup_s
    setup_times, import_times, wl = [], [], None
    repeats = 1 if (tracer or fixed) else cls.SETUP_REPEATS
    for _ in range(repeats):
        if wl is not None:
            wl.close()  # drop the previous inputs before building new ones
        import_times.append(import_s if repeats == 1 else import_seconds())
        wl = cls(args.seed, workdir)
        t0 = time.perf_counter()
        if tracer:
            with tracer.active("setup"), tracer.span("bench.setup"):
                setup_digest = wl.setup()
        else:
            setup_digest = wl.setup()
        setup_times.append(time.perf_counter() - t0)

    expected = {}
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            expected = json.load(fh).get(cls.name, {})
    setup_ok = not expected or expected["setup"] == setup_digest
    if not setup_ok:
        print(f"error: set-up digest {setup_digest} != committed {expected['setup']}", file=sys.stderr)

    # the measured window: one op at a time
    records: list[dict] = []
    n_pre = len(cls.PRELUDE)
    start = time.perf_counter()
    i = 0
    while True:
        done = i - n_pre
        if fixed and done >= args.ops:
            break
        if not fixed and done >= MIN_OPS and time.perf_counter() - start >= args.seconds:
            break
        traced = tracer is not None and (i < n_pre or done % 2 == 1)
        rec = workloads.OpRecord(cls.PRELUDE[i] if i < n_pre else "op", tracer if traced else None)
        row = {"i": i, "kind": rec.kind, "traced": traced, "error": None, "digest": None}
        try:
            inp = wl.prepare(i)
            gc.collect()  # garbage of earlier ops is not this op's cost
            if traced:
                with tracer.active(i), tracer.span("bench.op"):
                    t0 = time.perf_counter()
                    wl.run(inp, rec)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                wl.run(inp, rec)
                wall = time.perf_counter() - t0
            row["digest"] = wl.check(inp, rec)
            want = expected.get("ops", [])
            if i < len(want) and row["digest"] != want[i]:
                raise workloads.CheckError(f"digest {row['digest']} != committed {want[i]}")
        except Exception as exc:  # an op failure is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            row["wall_ms"] = wall * 1e3
        row["stages"], row["extra"] = rec.stages, rec.extra
        records.append(row)
        i += 1
    window_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counters = wl.counters()
    wl.close()
    wl = None

    failed = sum(r["error"] is not None for r in records)
    correct = setup_ok and failed == 0
    env = environment(args.seed)
    e2e, report = summarize(cls, records)
    setup_s = statistics.median(a + b for a, b in zip(import_times, setup_times))
    report = {
        "setup_s": {"value": setup_s, "unit": "s", "n": len(setup_times)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "error_rate": {"value": failed / len(records), "unit": "ratio", "n": len(records)},
        **report,
    }
    if tracer:
        metrics, traced_ops = per_layer(cls, records, tracer, counters, tracing, kernels, args.seed)
        report["traced_ops"] = {"value": traced_ops, "unit": "count"}
        os.makedirs(os.path.dirname(result_path("traces", cls.name, args.seed, 1)), exist_ok=True)
        with open(result_path("traces", cls.name, args.seed, 1), "w", encoding="utf-8") as fh:
            json.dump({"workload": cls.name, "env": env, "spans": tracer.dump()}, fh)
    else:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"), **e2e}

    full = {
        "workload": cls.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": args.ops, "correct": correct, "env": env, "import_times_s": import_times, "setup_times_s": setup_times,
        "window_s": window_s, "report": report,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digests": {"setup": setup_digest, "ops": [r["digest"] for r in records]},
        "op_rows": [{k: r[k] for k in ("i", "kind", "traced", "stages", "error")} for r in records],
        "errors": [(r["i"], r["error"]) for r in records if r["error"]],
    }
    out = result_path("results", cls.name, args.seed, args.trace)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    print(f"# workload {cls.name}: seed {args.seed}, {len(records)} ops in {window_s:.1f} s, trace {args.trace}")
    print("# env " + json.dumps(env))
    if tracer:
        print(f"# per-layer counts and times are per traced op, over {report['traced_ops']['value']} traced ops")
    else:
        for name, item in report.items():
            detail = f" p{item['percentile']}" if "percentile" in item else ""
            value = "n/a" if item["value"] is None else f"{item['value']:.6g}"
            print(f"# {name:<24} {value:>12} {item['unit']:<6}{detail} n={item.get('n', 1)}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer(cls, records, tracer, counters, tracing, kernels, seed) -> tuple[dict, int]:
    """Per-layer metrics, and the number of traced repeated ops they average over.

    A timed window fits more ops on a faster commit, so counts and times are
    per traced repeated op (one-off prelude ops and set-up count once each),
    which keeps them comparable across commits.
    """
    traced = [r for r in records if r["traced"] and r["error"] is None]
    repeated = [r for r in traced if r["kind"] == "op"]
    weights = {r["i"]: 1.0 if r["kind"] != "op" else 1.0 / len(repeated) for r in traced}
    weights["setup"] = 1.0
    traced_wall_ms = sum(r["wall_ms"] * weights[r["i"]] for r in traced)
    metrics = tracing.layer_metrics(tracer, weights, cls.WRITE, traced_wall_ms)
    metrics["repository.log_bytes_per_sketch_byte"] = (0.0, "ratio")
    metrics.update(counters)
    # overhead: traced minus untraced wall time of the repeated op
    on = [r["wall_ms"] for r in repeated]
    off = [r["wall_ms"] for r in records if not r["traced"] and r["error"] is None and r["kind"] == "op"]
    overhead = statistics.median(on) - statistics.median(off) if on and off else 0.0
    metrics["trace.overhead_ms_per_op"] = (overhead, "ms")
    metrics["trace.overhead_pct"] = (100 * overhead / statistics.median(off) if off else 0.0, "%")
    metrics.update(kernels.sweep(seed))
    return metrics, len(repeated)


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up time are its own."""
    status = 0
    rows = []
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops is not None:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, check=False)
        if proc.returncode != 0:
            status = 1
            continue
        with open(result_path("results", name, args.seed, args.trace), encoding="utf-8") as fh:
            full = json.load(fh)
        status |= int(not full["correct"])
        items = full["metrics"] if args.trace else {**full["report"], **full["metrics"]}
        for metric, item in items.items():
            rows.append((name, metric, item["value"], item["unit"]))
    print(f"\n{'workload':<14} {'metric':<44} {'value':>14} unit")
    for name, metric, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<14} {metric:<44} {shown:>14} {unit}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
