#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]
    python3 perfbench/selftest.py --record-digests

For each workload (default: all four), short runs of a fixed number of ops
must show that

* two traced runs with the same seed give identical digests and identical
  counts (sample_matrix calls, registry lookups, matvec calls, columns
  recovered, log bytes per sketch byte), and an untraced run gives the
  same digests, so tracing does not change any output;
* a run with another seed changes the set-up digest and every op digest;
* the metrics printed are exactly those BENCHMARK.json lists.

It also runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must fail without printing a result.

``--record-digests`` rewrites perfbench/digests.json from runs at the
default seed; do that only when a change to the program is meant to change
its outputs, and say so where the change is described.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
from run import DEFAULT_SEED, NAMES, WORK, result_path  # noqa: E402

SEED_A, SEED_B = 101, 202
OPS = 2
# ops whose digests are recorded for the default seed: more than a default
# (22 s) window runs here, so every op of such a run is compared
RECORDED_OPS = {"cli-chain": 128, "teacher-batch": 96, "learn-planted": 24, "repo-mixed": 512}
COUNTS = (
    "block_random.sample_matrix.calls",
    "block_random.sample_matrix.setup_calls",
    "sketcher.registry.lookups",
    "block_random.matvec.calls",
    "block_random.rmatvec.calls",
    "dictlearn.columns_recovered",
    "repository.log_bytes_per_sketch_byte",
)


def bench(name: str, seed: int, trace: int, ops: int = OPS) -> tuple[dict, dict]:
    cmd = [sys.executable, RUN, "--workload", name, "--seed", str(seed), "--trace", str(trace), "--ops", str(ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(result_path("results", name, seed, trace), encoding="utf-8") as fh:
        return last, json.load(fh)


def check_workload(name: str, spec: dict) -> list[str]:
    problems = []
    a1, full1 = bench(name, SEED_A, 1)
    a2, full2 = bench(name, SEED_A, 1)
    a3, full3 = bench(name, SEED_A, 0)
    b, fullb = bench(name, SEED_B, 0)
    for label, res in (("traced", a1), ("traced again", a2), ("untraced", a3), ("other seed", b)):
        if not res["correct"] or res["failed"]:
            problems.append(f"{label} run not correct: {res}")
    if not full1["digests"] == full2["digests"] == full3["digests"]:
        problems.append("same seed, different digests")
    for key in COUNTS:
        if full1["metrics"][key]["value"] != full2["metrics"][key]["value"]:
            problems.append(f"same seed, different {key}")
    if fullb["digests"]["setup"] == full1["digests"]["setup"]:
        problems.append("another seed left the set-up digest unchanged")
    if any(x == y for x, y in zip(fullb["digests"]["ops"], full1["digests"]["ops"])):
        problems.append("another seed left an op digest unchanged")
    if list(a1["metrics"]) != [m["name"] for m in spec["per_layer"]]:
        problems.append("traced metrics differ from BENCHMARK.json per_layer")
    if list(a3["metrics"]) != [m["name"] for m in spec["end_to_end"]]:
        problems.append("untraced metrics differ from BENCHMARK.json end_to_end")
    return problems


def check_stripped(spec: dict) -> list[str]:
    """Without the package source the benchmark must fail and print no result."""
    stripped = os.path.join(WORK, "stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(stripped, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [*spec["command"], "--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=stripped, timeout=180, check=False)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"stripped checkout: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def record_digests() -> None:
    path = os.path.join(HERE, "digests.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{}\n")  # nothing to compare against while recording
    digests = {}
    for name in NAMES:
        _, full = bench(name, DEFAULT_SEED, 0, ops=RECORDED_OPS[name])
        digests[name] = full["digests"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"wrote digests for seed {DEFAULT_SEED}")


def main(argv: list[str]) -> int:
    if argv == ["--record-digests"]:
        record_digests()
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if list(NAMES) != [w["name"] for w in spec["workloads"]]:
        print("FAIL: workload names differ from BENCHMARK.json")
        return 1
    failures = 0
    for name in argv or NAMES:
        problems = check_workload(name, spec)
        failures += len(problems)
        print(f"{'ok' if not problems else 'FAIL'}: {name}")
        for p in problems:
            print(f"  {p}")
    problems = check_stripped(spec)
    failures += len(problems)
    print(f"{'ok' if not problems else 'FAIL'}: stripped checkout fails without a result")
    for p in problems:
        print(f"  {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
