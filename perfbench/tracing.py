"""Span tracing for the benchmark's traced runs.

The tracer wraps the public functions and methods of the seven package
layers from outside the package.  A module-level function is replaced at
every ``modsketch`` module attribute bound to it, which are the names its
callers look up (``from x import f`` copies the binding, so patching only the
defining module would miss those callers); a method is replaced on its class.
Every call then records a span (name, start, end, parent, op id, extra) in
memory, and nothing is written until the run ends.  ``uninstall`` restores
the original objects, so untraced ops run the unmodified package.

Spans are also the counting boundaries: a span's ``extra`` holds the count
measured at that boundary (bytes a matvec touches, blocks a learner scans),
so counts and times come from the same place.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("block_random", "network", "sketcher", "recovery", "dictlearn", "repository", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "extra")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.extra = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def matrix_nbytes(mat) -> int:
    """Bytes a sampled BlockRandomMatrix holds (CSC arrays plus structure)."""
    csc = mat.csc
    arrays = (csc.data, csc.indices, csc.indptr, mat.sigma_m, mat.sigma_s, mat.flips, mat.eta,
              mat.col_sq_norms)
    return int(sum(a.nbytes for a in arrays))


def _matvec_bytes(args, kwargs, result):
    # computed, not measured: every stored entry read as value + row index
    # (8 + 4 bytes), plus the input and output vectors once each
    mat, x = args[0], args[1]
    return int(mat.csc.nnz * 12 + 2 * np.size(x) * 8)


def _learn_counts(args, kwargs, result):
    samples, config = args[0], args[1]
    rows = int(np.atleast_2d(samples).shape[0])
    return (rows * config.params.n_blocks, len(result.columns), rows)


def _query_label(args, kwargs):
    bucketed = kwargs.get("bucketed", args[3] if len(args) > 3 else False)
    return "repository.query_bucketed" if bucketed else "repository.query_exact"


# span name -> how the span is labelled, counted, or nested
RENAMES = {
    "repository.SketchRepository.__init__": "repository.replay",
    "repository.SketchRepository.insert": "repository.insert",
    "repository.SketchRepository.cluster": "repository.cluster",
}
LABELS = {"repository.SketchRepository.query_similar": _query_label}
EXTRAS = {
    "block_random.BlockRandomMatrix.matvec": _matvec_bytes,
    "block_random.BlockRandomMatrix.rmatvec": _matvec_bytes,
    "block_random.sample_matrix": lambda args, kwargs, result: matrix_nbytes(result),
    "sketcher.MatrixRegistry.module_matrix": lambda args, kwargs, result: id(args[0]),
    "sketcher.MatrixRegistry.tuple_matrix": lambda args, kwargs, result: id(args[0]),
    "dictlearn.learn_dictionary": _learn_counts,
}
# Replaying the log calls insert once per record; those inserts belong to the
# replay, so nothing under it is recorded as a separate span.
OPAQUE = {"repository.SketchRepository.__init__"}
EXTRA_METHODS = {"repository.SketchRepository.__init__"}


def _targets():
    """(owner, attribute, original, span key) for every public callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"modsketch.{layer}")
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, name, obj, f"{layer}.{name}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    key = f"{layer}.{name}.{attr}"
                    if inspect.isfunction(member) and (not attr.startswith("_") or key in EXTRA_METHODS):
                        out.append((obj, attr, member, key))
    return out


class Tracer:
    """In-memory span recorder that installs itself around the package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._opaque = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped = [(owner, attr, orig, self._wrap(key, orig)) for owner, attr, orig, key in _targets()]

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, key: str, fn):
        tracer = self
        name = RENAMES.get(key, key)
        label = LABELS.get(key)
        extra = EXTRAS.get(key)
        opaque = int(key in OPAQUE)

        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            span = tracer._open(label(args, kwargs) if label else name)
            tracer._opaque += opaque
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._opaque -= opaque
                tracer._close(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "modsketch" or n.startswith("modsketch.")]
        for owner, attr, orig, wrapped in self._wrapped:
            if inspect.isclass(owner):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                if vars(mod).get(attr) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def active(self, op):
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.op = None

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, "extra": s.extra}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans
# ---------------------------------------------------------------------------


class SpanIndex:
    """Busy time, self time and counts over the spans of the measured ops.

    ``weights`` maps an op id (or ``"setup"``) to the weight of its spans, so
    that sums over ops can be reported per op.
    """

    def __init__(self, spans: list[Span], weights: dict) -> None:
        self.all = spans
        child_ms = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_ms[s.parent] += s.ms
        self.self_ms = [s.ms - c for s, c in zip(spans, child_ms)]
        self.weight = [weights.get(s.op, 0.0) for s in spans]
        self.ops = [i for i, s in enumerate(spans) if isinstance(s.op, int)]
        self.setup = [i for i, s in enumerate(spans) if s.op == "setup"]

    def ancestors(self, i: int):
        p = self.all[i].parent
        while p >= 0:
            yield p
            p = self.all[p].parent

    def named(self, name: str, where=None) -> list[int]:
        return [i for i in (self.ops if where is None else where) if self.all[i].name == name]

    def calls(self, name: str, where=None) -> float:
        return sum(self.weight[i] for i in self.named(name, where))

    def busy(self, name: str, where=None) -> float:
        return sum(self.weight[i] * self.all[i].ms for i in self.named(name, where))

    def self_time(self, name: str) -> float:
        return sum(self.weight[i] * self.self_ms[i] for i in self.named(name))

    def extra_sum(self, name: str, pos=None) -> float:
        total = 0.0
        for i in self.named(name):
            extra = self.all[i].extra
            total += self.weight[i] * (extra if pos is None else extra[pos])
        return total

    def busy_inside(self, names: tuple[str, ...], stage: str) -> float:
        """Time of spans named ``names`` that run under a span named ``stage``."""
        return sum(
            self.weight[i] * self.all[i].ms
            for i in self.ops
            if self.all[i].name in names and any(self.all[a].name == stage for a in self.ancestors(i))
        )

    def registry_mb_held(self) -> float:
        """Largest total of matrix bytes one registry cached.

        The registry never evicts, so the bytes it holds are the bytes of the
        draws made under its lookups.  A registry is told apart by its id
        within the enclosing ``cli.main`` call (each CLI command builds a
        fresh one, and ids are reused once a registry is freed).
        """
        held: dict[tuple[int, int], int] = {}
        for i, s in enumerate(self.all):
            if s.name != "block_random.sample_matrix" or s.parent < 0:
                continue
            lookup = self.all[s.parent]
            if not lookup.name.startswith("sketcher.MatrixRegistry."):
                continue
            anchor = next((a for a in self.ancestors(i) if self.all[a].name == "cli.main"), -1)
            key = (lookup.extra, anchor)
            held[key] = held.get(key, 0) + s.extra
        return max(held.values(), default=0) / 1e6


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, weights: dict, write_stage: str,
                  traced_wall_ms: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics taken from spans (not the overhead or kernel sweep rows).

    Counts and times are sums over the traced ops, each op's spans weighted
    by ``weights``; ``traced_wall_ms`` is the same weighted sum of op wall
    times.
    """
    ix = SpanIndex(tracer.spans, weights)
    m: dict[str, tuple[float, str]] = {}

    def timing(prefix, name, fields=("calls", "busy_ms")):
        if "calls" in fields:
            m[f"{prefix}.calls"] = (ix.calls(name), "count")
        if "busy_ms" in fields:
            m[f"{prefix}.busy_ms"] = (ix.busy(name), "ms")
        if "self_ms" in fields:
            m[f"{prefix}.self_ms"] = (ix.self_time(name), "ms")

    sm = "block_random.sample_matrix"
    timing(sm, sm)
    m[f"{sm}.ms_per_call"] = (_ratio(ix.busy(sm), ix.calls(sm)), "ms")
    m[f"{sm}.setup_calls"] = (ix.calls(sm, ix.setup), "count")
    m[f"{sm}.setup_busy_ms"] = (ix.busy(sm, ix.setup), "ms")
    for kind in ("matvec", "rmatvec"):
        name = f"block_random.BlockRandomMatrix.{kind}"
        timing(f"block_random.{kind}", name)
        m[f"block_random.{kind}.bytes_computed"] = (ix.extra_sum(name), "B")
    timing("block_random.prefix_col_sq_norms", "block_random.BlockRandomMatrix.prefix_col_sq_norms")

    lookups = ix.calls("sketcher.MatrixRegistry.module_matrix") + ix.calls("sketcher.MatrixRegistry.tuple_matrix")
    draws = sum(ix.weight[i] for i in ix.named(sm)
                if ix.all[ix.all[i].parent].name.startswith("sketcher.MatrixRegistry."))
    m["sketcher.registry.lookups"] = (lookups, "count")
    m["sketcher.registry.draws"] = (draws, "count")
    m["sketcher.registry.hit_ratio"] = (1.0 - draws / lookups if lookups else 0.0, "ratio")
    m["sketcher.registry.mb_held"] = (ix.registry_mb_held(), "MB")
    timing("sketcher.overall_sketch", "sketcher.overall_sketch", ("busy_ms", "self_ms"))
    for name in ("sketcher.save_sketch", "sketcher.load_sketch", "sketcher.export_sketch_csv",
                 "network.load_network"):
        timing(name, name, ("busy_ms",))
    timing("cli.main", "cli.main", ("self_ms",))
    for kind in ("frequency", "attributes_unique", "attributes_by_path"):
        timing(f"recovery.{kind}", f"recovery.recover_{kind}", ("calls", "busy_ms", "self_ms"))

    learn = "dictlearn.learn_dictionary"
    timing(learn, learn, ("busy_ms",))
    blocks, columns, samples = (ix.extra_sum(learn, k) for k in range(3))
    m["dictlearn.blocks_scanned"] = (blocks, "count")
    m["dictlearn.columns_recovered"] = (columns, "count")
    m["dictlearn.columns_per_sample"] = (_ratio(columns, samples), "ratio")
    timing("dictlearn.match_permutation", "dictlearn.match_permutation", ("busy_ms",))

    for kind in ("replay", "insert", "query_exact", "query_bucketed", "cluster"):
        timing(f"repository.{kind}", f"repository.{kind}", ("busy_ms",))

    for layer in LAYERS:
        mine = [i for i in ix.ops if ix.all[i].name.split(".", 1)[0] == layer]
        if layer == "block_random":
            m["layer.block_random.calls"] = (sum(ix.weight[i] for i in mine), "count")
        m[f"layer.{layer}.self_ms"] = (sum(ix.weight[i] * ix.self_ms[i] for i in mine), "ms")

    stage = f"bench.{write_stage}"
    write_ms = ix.busy(stage)
    matvecs = ("block_random.BlockRandomMatrix.matvec", "block_random.BlockRandomMatrix.rmatvec")
    m["share.sample_matrix_of_write"] = (_ratio(ix.busy_inside((sm,), stage), write_ms), "ratio")
    m["share.matvec_of_write"] = (_ratio(ix.busy_inside(matvecs, stage), write_ms), "ratio")
    m["share.learn_dictionary_of_op"] = (_ratio(ix.busy(learn), traced_wall_ms), "ratio")
    return m
