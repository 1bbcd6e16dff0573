"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, then runs ops one at
a time (one closed-loop caller).  An op is split in three so that only the
program's own work is timed and traced:

``prepare(i)``  untimed input generation for op ``i`` (depends on seed, i only)
``run(inp, rec)``  the timed calls, each inside ``rec.stage(name)``
``check(inp, rec)``  untimed output checks; returns the op's digest

Ops listed in ``PRELUDE`` run once each, in order, before the repeated op.
The benchmark calls only public entry points of ``modsketch.cli``,
``network``, ``block_random``, ``sketcher``, ``recovery``, ``dictlearn`` and
``repository``, always through the module attribute so that a traced run
sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np

from modsketch import block_random, cli, dictlearn, network, recovery, repository, sketcher


class CheckError(AssertionError):
    """An op's output failed a check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _rng(seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, *parts])  # SeedSequence takes no negative entropy


def _digest(*chunks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        if isinstance(chunk, np.ndarray):
            chunk = np.ascontiguousarray(chunk).tobytes()
        elif isinstance(chunk, str):
            chunk = chunk.encode()
        h.update(chunk)
    return h.hexdigest()


class OpRecord:
    """Stage times (ms) and outputs of one op."""

    def __init__(self, kind: str, tracer=None) -> None:
        self.kind = kind
        self.tracer = tracer
        self.stages: dict[str, float] = {}
        self.out: dict = {}
        self.extra: dict = {}

    @contextmanager
    def stage(self, name: str, per: int = 1):
        """Time the block; ``per`` > 1 records the time per repetition of a block run that often."""
        span = self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            yield
            self.stages[name] = (time.perf_counter() - t0) * 1e3 / per


class Workload:
    name = ""
    WRITE = ""  # stage reported as write_p50_ms
    READ: tuple[str, ...] = ()  # stages summed into read_p50_ms
    PRELUDE: tuple[str, ...] = ()
    REPORT: tuple[tuple[str, str, str], ...] = ()  # (metric, stage, statistic)
    SETUP_REPEATS = 5  # set-ups per end-to-end run; setup_s is the median

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> str:
        """Build inputs and warm up; returns a digest of the inputs."""
        raise NotImplementedError

    def prepare(self, i: int):
        """Untimed inputs of op i."""
        raise NotImplementedError

    def run(self, inp, rec: OpRecord) -> None:
        raise NotImplementedError

    def check(self, inp, rec: OpRecord) -> str:
        raise NotImplementedError

    def counters(self) -> dict[str, tuple[float, str]]:
        return {}

    def close(self) -> None:
        pass


def _finite(values, what: str) -> None:
    require(bool(np.all(np.isfinite(values))), f"{what} is not finite")


# ---------------------------------------------------------------------------
# cli-chain
# ---------------------------------------------------------------------------


class CliChain(Workload):
    """README quick start as a seed sweep, through ``cli.main`` in-process."""

    name = "cli-chain"
    WRITE = "sketch"
    READ = ("recover",)
    REPORT = (
        ("sketch_p50_ms", "sketch", "p50"),
        ("sketch_tail_ms", "sketch", "tail"),
        ("recover_p50_ms", "recover", "p50"),
        ("recover_tail_ms", "recover", "tail"),
    )
    D = 2070

    def _cli(self, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        require(code == 0, f"modsketch {argv[0]} exited {code}")

    def _write_json(self, name: str, cfg: dict) -> str:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return self.path(name)

    def setup(self) -> str:
        profile = {"n_modules": 3, "depth": 3, "fan_in": 2, "weight_scheme": "random"}
        net_cfg = self._write_json("net.json", {"seed": 7, "dimension": self.D, "profile": profile})
        self.net_path = self.path("teacher.net")
        self._cli("gen-network", "--config", net_cfg, "--out", self.net_path, "--seed", str(self.seed))
        net = network.load_network(self.net_path)
        # one generated path: the first input at every level, down to a leaf
        ids, steps, obj = [net.output_object_id], [], net.objects[net.output_object_id]
        while obj.inputs:
            obj = net.objects[obj.inputs[0][0]]
            ids.append(obj.id)
            steps.append({"position": 1, "module": obj.producer})
        # README values, except n_cap: the recover registry must match the
        # sketch's, which takes n_cap from the generated network
        base = {"seed": 7, "allow_high_noise": True, "params": {"d_request": self.D, "n_cap": net.n_cap}}
        self.sk_cfg = self._write_json("sk.json", {"seed": 7, "allow_high_noise": True, "csv": True})
        self.freq_cfg = self._write_json(
            "q.json", {**base, "query": {"kind": "frequency", "module": "m0", "h": 2, "w": 0.5}}
        )
        w_path = network.effective_weight(net, ids)
        self.path_cfg = self._write_json(
            "q_path.json", {**base, "query": {"kind": "attributes_by_path", "path": steps, "w": w_path}}
        )
        self.sketch_path = self.path("teacher.sketch")
        # warm-up: one chain on a seed no op uses
        warm = OpRecord("warm")
        self.run(self.prepare(-1), warm)
        self.check(None, warm)
        with open(self.net_path, "rb") as fh:
            return _digest(fh.read())

    def prepare(self, i: int) -> int:
        return int(_rng(self.seed, 1, i).integers(2**31 - 1)) if i >= 0 else 2**31 - 1

    def run(self, seed: int, rec: OpRecord) -> None:
        s = str(seed)
        with rec.stage("sketch"):
            self._cli("sketch", "--config", self.sk_cfg, "--network", self.net_path,
                      "--out", self.sketch_path, "--seed", s)
        with rec.stage("recover"):
            self._cli("recover", "--config", self.freq_cfg, "--sketch", self.sketch_path,
                      "--out", self.path("freq.csv"), "--seed", s)
            self._cli("recover", "--config", self.path_cfg, "--sketch", self.sketch_path,
                      "--out", self.path("path.csv"), "--seed", s)

    def check(self, seed: int, rec: OpRecord) -> str:
        files = {}
        for name in ("teacher.sketch", "teacher.sketch.csv", "freq.csv", "path.csv"):
            with open(self.path(name), "rb") as fh:
                files[name] = fh.read()
        sk, _ = sketcher.load_sketch(self.sketch_path)
        require(sk.d == self.D and sk.kind == "overall", "sketch header")
        _finite(sk.values, "sketch")
        rows = files["teacher.sketch.csv"].decode().splitlines()
        require(rows[0] == "index,value" and len(rows) == self.D + 1, "sketch CSV shape")
        csv_values = np.array([float(r.split(",")[1]) for r in rows[1:]])
        require(np.array_equal(csv_values, sk.values), "sketch CSV differs from the sketch file")
        for name in ("freq.csv", "path.csv"):
            lines = files[name].decode().splitlines()
            require(len(lines) == 2 and lines[0] == recovery.report_csv_header(), f"{name} shape")
        return _digest(*files.values())


# ---------------------------------------------------------------------------
# teacher-batch
# ---------------------------------------------------------------------------


class TeacherBatch(Workload):
    """One warm registry and one topology, many firings."""

    name = "teacher-batch"
    WRITE = "sketch"
    READ = ("recover",)
    REPORT = CliChain.REPORT
    SETUP_REPEATS = 3
    D = 2070
    # the query set runs this often per op on the same sketch, so that the
    # read step is timed over about a quarter of the window, not a tenth
    QUERY_REPEATS = 3

    def setup(self) -> str:
        profile = network.SyntheticProfile(n_modules=4, depth=4, fan_in=3, weight_scheme="random")
        self.net = network.generate_synthetic(profile, seed=self.seed, d=self.D)
        params = block_random.auto_params(self.D, self.net.n_cap)
        self.registry = sketcher.MatrixRegistry(params, master_seed=self.seed, allow_high_noise=True)
        self.base = {oid: obj.attributes.copy() for oid, obj in self.net.objects.items() if obj.attributes.any()}
        self.modules = sorted(m for m, mod in self.net.modules.items() if not mod.is_output)
        ids, self.steps, obj = [self.net.output_object_id], [], self.net.objects[self.net.output_object_id]
        while obj.inputs:
            obj = self.net.objects[obj.inputs[0][0]]
            ids.append(obj.id)
            self.steps.append(recovery.PathStep(1, obj.producer))
        require(len(self.steps) == 3, "path to a depth-4 leaf")
        self.leaf = obj.producer
        self.w_path = network.effective_weight(self.net, ids)
        warm = sketcher.overall_sketch(self.net, self.registry)  # draws every matrix
        self._queries(warm)  # warms the recovery path
        return _digest(warm.values)

    def _queries(self, sk):
        reg = self.registry
        freqs = [recovery.recover_frequency(sk, m, 2, 0.5, reg) for m in self.modules]
        by_path = recovery.recover_attributes_by_path(sk, self.steps, reg, w=self.w_path)
        erased = sketcher.erase_to_prefix(sk, self.D // 2)
        unique = recovery.recover_attributes_unique(erased, self.leaf, 4, self.w_path, reg)
        return {"freqs": freqs, "path": by_path, "unique": unique}

    def prepare(self, i: int):
        # jitter every object's attributes, as the learn-dict unroll teacher does
        rng = _rng(self.seed, 2, i)
        for oid, base in self.base.items():
            attrs = np.abs(base + 0.05 * rng.standard_normal(self.D) * (base > 0))
            self.net.objects[oid].attributes = attrs / np.linalg.norm(attrs)
        return i

    def run(self, inp, rec: OpRecord) -> None:
        with rec.stage("sketch"):
            sk = sketcher.overall_sketch(self.net, self.registry)
        with rec.stage("recover", per=self.QUERY_REPEATS):
            sets = [self._queries(sk) for _ in range(self.QUERY_REPEATS)]
        rec.out = {"sk": sk, **sets[0], "again": sets[1:]}

    @staticmethod
    def _estimates(out) -> list[np.ndarray]:
        return [np.array([r.estimate for r in out["freqs"]]), out["path"].estimate, out["unique"].estimate]

    def check(self, inp, rec: OpRecord) -> str:
        out = rec.out
        first = self._estimates(out)
        for again in out["again"]:
            require(all(np.array_equal(a, b) for a, b in zip(first, self._estimates(again))),
                    "a repeated query set gave other estimates")
        require(out["sk"].d == self.D, "sketch dimension")
        _finite(out["sk"].values, "sketch")
        freq = first[0]
        _finite(freq, "frequency estimates")
        for key in ("path", "unique"):
            require(out[key].estimate.shape == (self.D,), f"{key} estimate shape")
            _finite(out[key].estimate, f"{key} estimate")
        require(out["unique"].erased_prefix == self.D // 2, "erased prefix")
        return _digest(out["sk"].values, freq, out["path"].estimate, out["unique"].estimate)


# ---------------------------------------------------------------------------
# learn-planted
# ---------------------------------------------------------------------------


class LearnPlanted(Workload):
    """The block-scanning learner on planted batches (criterion 9's setting)."""

    name = "learn-planted"
    WRITE = "learn"
    READ = ("match",)
    REPORT = (("learn_p50_ms", "learn", "p50"), ("match_p50_ms", "match", "p50"))
    N_SAMPLES = 200
    BACKGROUND = 40
    # match_permutation (about 40 ms) runs this often per op on the same
    # result, so that the read step is timed over more than a few samples
    MATCH_REPEATS = 8

    def setup(self) -> str:
        self.params = block_random.BlockParams(b=45, q=0.5, d=1440, n_cap=6)
        self.config = dictlearn.DLConfig(params=self.params, eps_recover=0.1)
        # match_permutation pairs a learned cluster with every truth whose
        # matrix signature is within `radius` (symmetric Hamming).  At b=45 a
        # signature has 15 bits, and about 1 random pair in 135 lies within
        # 2 * radius of each other; no cluster of such a pair can be matched
        # to one truth, so the pair is redrawn under the next key.
        radius = max(1, round(self.config.sig_match_eps_factor * self.config.eps_recover))
        for attempt in itertools.count():
            self.mats = [
                block_random.sample_matrix(self.params, f"bench-plant:{self.seed}:{attempt}:{i}") for i in range(2)
            ]
            a, b = (np.sign(m.sigma_m) for m in self.mats)
            if min(np.count_nonzero(a != b), np.count_nonzero(a != -b)) > 2 * radius:
                break
        return _digest(*(m.csc.data for m in self.mats), *(m.csc.indices for m in self.mats))

    def prepare(self, i: int):
        """One dominant 0.9 coefficient plus a 0.05-norm background per sample."""
        rng = _rng(self.seed, 3, i)
        n, d, nb = self.N_SAMPLES, self.params.d, self.BACKGROUND
        which = rng.integers(2, size=n)
        col = rng.integers(d, size=n)
        xs = np.zeros((2, d, n))
        xs[which, col, np.arange(n)] = 0.9
        bm = rng.integers(2, size=(n, nb))
        bc = rng.integers(d, size=(n, nb))
        vals = rng.standard_normal((n, nb))
        vals *= 0.05 / np.linalg.norm(vals, axis=1, keepdims=True)
        vals[(bm == which[:, None]) & (bc == col[:, None])] = 0.0
        np.add.at(xs, (bm, bc, np.broadcast_to(np.arange(n)[:, None], bm.shape)), vals)
        ys = (self.mats[0].matvec(xs[0]) + self.mats[1].matvec(xs[1])).T
        return np.ascontiguousarray(ys), set(zip(which.tolist(), (col + 1).tolist()))

    def run(self, inp, rec: OpRecord) -> None:
        ys, _ = inp
        with rec.stage("learn"):
            learned = dictlearn.learn_dictionary(ys, self.config)
        with rec.stage("match", per=self.MATCH_REPEATS):
            reports = [dictlearn.match_permutation(learned, self.mats) for _ in range(self.MATCH_REPEATS)]
        rec.out = {"learned": learned, "report": reports[0], "again": reports[1:]}

    def check(self, inp, rec: OpRecord) -> str:
        _, planted = inp
        learned, report = rec.out["learned"], rec.out["report"]
        for again in rec.out["again"]:
            require(again.permutation == report.permutation and again.column_rows == report.column_rows,
                    "a repeated match_permutation gave another result")
        # criterion 9's soundness checks
        require(not report.unmatched and not report.ambiguous, "unmatched or ambiguous cluster")
        require(report.all_within_criterion(), "a column outside the 0.2*d criterion")
        for row in report.column_rows:
            require(row["signed_mismatch_on_installed"] == 0, "sign mismatch on an installed block")
            require((row["true_matrix"], row["column"]) in planted, "recovered column was never planted")
        require(len(learned.columns) > 0, "nothing recovered")
        rec.extra["columns"] = len(learned.columns)
        chunks = []
        for key in sorted(learned.columns):
            chunks += [str(key), learned.columns[key]]
        for k, coeffs in enumerate(learned.coefficients):
            chunks += [f"{k}:{sorted(coeffs.items())!r}"]
        chunks.append(repr(sorted(report.permutation.items())))
        return _digest(*chunks)


# ---------------------------------------------------------------------------
# repo-mixed
# ---------------------------------------------------------------------------


class RepoMixed(Workload):
    """One logged store, written and read."""

    name = "repo-mixed"
    WRITE = "insert"
    READ = ("query", "bucketed_query")
    PRELUDE = ("reopen", "reopen", "cluster")
    REPORT = (
        ("repo_open_ms", "repo_open", "p50"),
        ("insert_p50_ms", "insert", "p50"),
        ("query_p50_ms", "query", "p50"),
        ("query_tail_ms", "query", "tail"),
        ("bucketed_query_p50_ms", "bucketed_query", "p50"),
        ("cluster_ms", "cluster", "p50"),
    )
    SETUP_REPEATS = 3
    D = 2070
    N = 5000
    CLUSTERS = 8
    SPREAD = 0.2  # within-cluster noise norm relative to the unit center
    K = 10

    def _mixture(self, rng: np.random.Generator, n: int) -> np.ndarray:
        labels = rng.integers(self.CLUSTERS, size=n)
        x = self.centers[labels] + self.SPREAD * rng.standard_normal((n, self.D)) / math.sqrt(self.D)
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    def _sketch(self, values: np.ndarray):
        return sketcher.Sketch(values=values, kind="overall", depth=1, erased_prefix=self.D)

    def setup(self) -> str:
        self.repo = None
        rng = _rng(self.seed, 4)
        self.centers = rng.standard_normal((self.CLUSTERS, self.D))
        self.centers /= np.linalg.norm(self.centers, axis=1, keepdims=True)
        base = self._mixture(rng, self.N)
        # the benchmark's own copy of every stored vector, for reference top-k
        self.ref = np.empty((self.N + 1024, self.D))
        self.ref[: self.N] = base
        self.n = self.N
        self.store = self.path("store.log")
        if os.path.exists(self.store):
            os.remove(self.store)
        repo = repository.SketchRepository(self.D, log_path=self.store)
        for i in range(self.N):
            repo.insert(self._sketch(base[i]), f"e{i}")
        self.repo = repo
        return _digest(base, str(os.path.getsize(self.store)))

    def prepare(self, i: int):
        if i < len(self.PRELUDE):
            return self.PRELUDE[i]
        rng = _rng(self.seed, 5, i)
        new, probe = self._mixture(rng, 2)
        return f"r{i}", self._sketch(new), self._sketch(probe)

    def run(self, inp, rec: OpRecord) -> None:
        if inp == "reopen":
            self.repo = None  # free the old store before replaying into a new one
            with rec.stage("repo_open"):
                self.repo = repository.SketchRepository(self.D, log_path=self.store)
            return
        if inp == "cluster":
            with rec.stage("cluster"):
                rec.out["cluster"] = self.repo.cluster(k=self.CLUSTERS)
            return
        eid, new, probe = inp
        with rec.stage("insert"):
            self.repo.insert(new, eid)
        with rec.stage("query"):
            rec.out["exact"] = self.repo.query_similar(probe, self.K)
        with rec.stage("bucketed_query"):
            rec.out["bucketed"] = self.repo.query_similar(probe, self.K, bucketed=True)

    def _reference_top(self, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scores = self.ref[: self.n] @ probe
        order = np.lexsort((np.arange(self.n), -scores))[: self.K]
        return order, scores

    def check(self, inp, rec: OpRecord) -> str:
        if inp == "reopen":
            require(len(self.repo) == self.n, "reopened store size")
            # a stored vector, looked up after replay, must come back as itself
            j = self.n - 1
            hit = self.repo.query_similar(self._sketch(self.ref[j]), 1)[0]
            require(hit.entry.id == f"e{j}" and hit.score == float(self.ref[j] @ self.ref[j]),
                    "replayed entry differs from the inserted one")
            return _digest(str(len(self.repo)), hit.entry.sketch.values)
        if inp == "cluster":
            res = rec.out["cluster"]
            assign = np.array(res.assignments)
            data = self.ref[: self.n]
            require(assign.shape == (self.n,) and res.centroids.shape == (self.CLUSTERS, self.D), "cluster shape")
            # k-means stops at a fixpoint: every point sits at a nearest centroid
            dist = (res.centroids**2).sum(axis=1)[None, :] - 2.0 * data @ res.centroids.T
            mine = dist[np.arange(self.n), assign]
            require(bool(np.all(mine <= dist.min(axis=1) + 1e-9)), "point not at its nearest centroid")
            return _digest(assign.astype(np.int64))
        eid, new, probe = inp
        if self.n == len(self.ref):
            self.ref = np.concatenate([self.ref, np.empty_like(self.ref[:1024])])
        self.ref[self.n] = new.values
        self.n += 1
        order, scores = self._reference_top(probe.values)
        exact = rec.out["exact"]
        got = np.array([h.entry.seq for h in exact])
        require(len(exact) == self.K, "exact top-k size")
        if not np.array_equal(got, order):
            # allow reordering only among scores tied to within rounding
            require(np.allclose(np.sort(scores[got]), np.sort(scores[order]), rtol=0, atol=1e-12),
                    "exact top-k differs from the numpy reference")
        bhits, reported = rec.out["bucketed"]
        bseq = [h.entry.seq for h in bhits]
        require(len(bhits) <= self.K and len(set(bseq)) == len(bseq), "bucketed top-k size")
        bscores = np.array([h.score for h in bhits])
        require(np.allclose(bscores, scores[bseq], rtol=0, atol=1e-12), "bucketed scores")
        require(bool(np.all(np.diff(bscores) <= 0)), "bucketed hits out of order")
        recall = len(set(bseq) & set(order.tolist())) / self.K
        require(abs(recall - reported) < 1e-12, "reported recall differs from the benchmark's")
        rec.extra["recall"] = recall
        return _digest(got.astype(np.int64), np.array(bseq, dtype=np.int64))

    def counters(self) -> dict[str, tuple[float, str]]:
        log_bytes = os.path.getsize(self.store)
        return {"repository.log_bytes_per_sketch_byte": (log_bytes / (self.n * 8 * self.D), "ratio")}

    def close(self) -> None:
        self.repo = None
        self.ref = None


WORKLOADS = {w.name: w for w in (CliChain, TeacherBatch, LearnPlanted, RepoMixed)}
