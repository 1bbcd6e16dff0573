"""A sketch store: insertion, similarity retrieval, clustering.

Because unrelated sketches have near-zero inner product while sketches
sharing heavy same-module objects correlate, a plain inner-product top-k over
the store retrieves related computations, and k-means over sketch vectors
surfaces candidate new modules as clusters.  Retrieval scores every stored
row against the probe in one ``np.vecdot`` pass and ranks the exact top-k.
The library's optional bucketing by 16 constant random hyperplanes ranks
only the probe's bucket and reports its recall against the exact top-k; it
reads the same scores, so it costs what the exact query costs.

The vectors live in one contiguous ``(n, d)`` array, grown by doubling, with
one bucket code per row, and an optional append-only log that only this
module reads.  Many readers may query concurrently while one writer inserts
(queries see a consistent prefix of the insert sequence).

``SketchRepository(d, log_path)`` opens every store.  Replay, the only code
that reads a log, takes d from its first complete record; ``d`` sizes a store
whose log is missing or has no complete record yet, refused without it.

A logged store opens its log once, at its first insert, as an unbuffered
binary append handle, and writes every record through it.  ``close()``
(or leaving a ``with`` block) closes the handle, a later insert reopens it,
and a dropped store closes it too.  Replay and queries never open it.  The
handle holds the file it opened: a log removed or replaced under an open
store keeps receiving that store's appends until it is closed.  An append
that fails cuts the log back to its length before the record, so a later
insert starts on a clean line.  Insert and replay check a record by one rule
(``require_sketch``, a string id, string tags), so ``insert`` refuses,
before logging a byte, any record replay would refuse.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
import warnings
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from modsketch._seeding import derive_rng
from modsketch.block_random import ParameterError, require_integer
from modsketch.sketcher import Sketch, decode_values, encode_values, require_sketch

__all__ = ["SketchEntry", "QueryHit", "ClusterResult", "SketchRepository"]

# a bucket code's bits, one per hyperplane, the first plane's the most significant
_PLANE_BITS = 1 << np.arange(15, -1, -1, dtype=np.int64)
_KMEANS_ITERATIONS = 25  # at most this many Lloyd steps; k-means stops once the assignments repeat


@dataclass
class SketchEntry:
    id: str
    sketch: Sketch
    tags: dict[str, str] = field(default_factory=dict)
    seq: int = 0


@dataclass
class QueryHit:
    entry: SketchEntry
    score: float


@dataclass
class ClusterResult:
    centroids: np.ndarray  # (k, d)
    assignments: list[int]  # aligned with insert order of the clustered entries


def _log_line(eid: str, tags: dict, sketch: Sketch) -> bytes:
    """The record's line: ``json.dumps(record, sort_keys=True)`` and a newline.

    Only the metadata goes through ``json.dumps``.  The base64 values are
    spliced in after it, which gives the same bytes: ``"values"`` sorts after
    every other key, and base64 needs no JSON escaping.
    """
    rec = {"id": eid, "tags": tags, "kind": sketch.kind, "depth": sketch.depth, "erased_prefix": sketch.erased_prefix}
    if sketch.signature_mode:
        # written only when set, so logs of plain sketches keep their bytes
        rec["signature_mode"] = True
    head = json.dumps(rec, sort_keys=True).encode("ascii")
    return b"".join((head[:-1], b', "values": "', base64.b64encode(encode_values(sketch.values)), b'"}\n'))


def _parse_record(line: bytes) -> tuple[Sketch, str, dict]:
    """A log line's sketch, id and tags, unchecked; d is read from the payload, which must hold whole float64s."""
    rec = json.loads(line)
    tags, eid, payload = rec["tags"], rec["id"], base64.b64decode(rec["values"])
    values = decode_values(payload, len(payload) // 8)
    return Sketch(values, rec["kind"], rec["depth"], rec["erased_prefix"], rec.get("signature_mode", False)), eid, tags


class SketchRepository:
    """In-memory sketch store with an optional append-only log file."""

    def __init__(self, d: int | None = None, log_path: str | None = None):
        self.log_path = None  # set after the replay, which must not log again
        self._log = None  # the append handle, opened by the first logged insert
        self._log_closer = None  # closes it, at close() or once the store is dropped
        self._n = 0
        self._meta: list[tuple] = []  # (id, tags, kind, depth, erased_prefix, signature_mode) per row
        self._write_lock = threading.Lock()
        self._set_dimension(d)
        if log_path and os.path.exists(log_path):
            self._replay_log(log_path)
        elif d is None:
            raise ParameterError(f"no sketch store at {log_path}" if log_path else "a store without a log needs d")
        self.log_path = log_path

    def _set_dimension(self, d: int | None) -> None:
        if d is not None:
            d = require_integer(d, "store dimension", 1)
        self.d = d
        self._vectors, self._codes = np.empty((0, d or 0)), np.empty(0, dtype=np.int64)
        self._planes = derive_rng(0, "repository-hyperplanes").standard_normal((len(_PLANE_BITS), d or 0))

    # -- insertion ---------------------------------------------------------

    def insert(self, sketch: Sketch, entry_id: str | None = None, tags: dict | None = None) -> str:
        with self._write_lock:
            return self._insert(sketch, f"sketch-{self._n}" if entry_id is None else entry_id, tags or {})

    def _insert(self, sketch: Sketch, eid: str, tags: dict) -> str:
        """Log and store a record once it passes the rule replay reads it by;
        the caller holds the write lock, or replays a store not yet shared."""
        sketch = require_sketch(sketch, self.d, "store")
        if not (isinstance(tags, Mapping) and all(isinstance(k, str) and isinstance(v, str) for k, v in tags.items())):
            raise ParameterError(f"tags must map strings to strings, got {tags!r}")
        if not isinstance(eid, str):
            raise ParameterError(f"id must be a string, got {eid!r}")
        tags, n = dict(tags), self._n
        if self.log_path:
            self._append(_log_line(eid, tags, sketch))
        # readers take _n before the arrays, so publish new arrays only once
        # they hold every committed row, and count a row only once it is written
        if n == len(self._vectors):
            vectors = np.empty((max(1, 2 * n), self.d))
            vectors[:n] = self._vectors[:n]
            codes = np.empty(len(vectors), dtype=np.int64)
            codes[:n] = self._codes[:n]
            self._vectors, self._codes = vectors, codes
        self._vectors[n] = sketch.values
        self._codes[n] = self._bucket_of(sketch.values)
        self._meta.append((eid, tags, sketch.kind, sketch.depth, sketch.erased_prefix, sketch.signature_mode))
        self._n = n + 1
        return eid

    def _append(self, record: bytes) -> None:
        if self._log is None:
            self._log = open(self.log_path, "ab", buffering=0)
            self._log_closer = weakref.finalize(self, self._log.close)
        start = self._log.seek(0, os.SEEK_END)  # where the record starts, with one writer
        try:
            view = memoryview(record)
            while view:  # a raw write may take only part of the buffer
                view = view[self._log.write(view) :]
        except BaseException:
            try:
                self._log.truncate(start)  # cut what was written, so replay sees clean lines
            finally:
                self._close_log()  # the next insert reopens the log
            raise

    def _close_log(self) -> None:
        if self._log is not None:
            self._log = None
            self._log_closer()

    def close(self) -> None:
        """Close the log's append handle, if open; a later insert reopens it."""
        with self._write_lock:
            self._close_log()

    def __enter__(self) -> "SketchRepository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self._n

    def _replay_log(self, path: str) -> None:
        """Re-insert every logged record, at the d of the first.

        A record is committed by its newline.  A final line without one is a
        torn append that ``insert`` never returned from: it is dropped with a
        warning and cut from the file, so the next append starts on a clean
        line.  A malformed line anywhere else is an error.
        """
        complete = 0
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise ParameterError(f"cannot read sketch store {path}: {exc.strerror}") from None
        with fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                try:
                    sketch, eid, tags = _parse_record(line)
                    if not complete:
                        self._set_dimension(sketch.d)
                    self._insert(sketch, eid, tags)
                except (ValueError, KeyError, TypeError) as exc:
                    raise ParameterError(f"{path}: malformed record at byte {complete}: {exc}") from None
                complete += len(line)
        if self.d is None:
            raise ParameterError(f"{path} does not start with a complete record")
        torn = os.path.getsize(path) - complete
        if torn:
            warnings.warn(f"{path}: dropped a torn final record of {torn} bytes", RuntimeWarning, stacklevel=3)
            os.truncate(path, complete)

    # -- retrieval ----------------------------------------------------------

    def _bucket_of(self, values: np.ndarray) -> int:
        return int(((self._planes @ values) >= 0) @ _PLANE_BITS)

    def query_similar(self, probe: Sketch, k: int, bucketed: bool = False):
        """Top-k entries by inner product with the probe.

        Brute force is exact (ties broken by insert sequence).  Bucketed mode
        ranks only the probe's hyperplane bucket and additionally reports
        the recall it achieved against brute force on this probe.
        """
        k = require_integer(k, "k", 1)
        probe = require_sketch(probe, self.d, "store")
        n = self._n
        vectors, codes, meta = self._vectors, self._codes, self._meta
        if not n:
            return ([], 1.0) if bucketed else []
        # the printed scores are the per-row dots ``row @ probe``: vecdot runs
        # the same dot kernel on each row, so every score keeps its bits, while
        # a gemv (``vectors @ probe``) sums in another order and differs in the
        # last bits
        scores = np.vecdot(vectors[:n], probe.values)

        def top(rows: np.ndarray) -> list[QueryHit]:
            hits = []
            for i in rows[np.argsort(-scores[rows], kind="stable")[:k]]:
                eid, tags, *fields = meta[i]
                # a copy, not a view: a view would keep a doubled-away buffer alive
                hits.append(QueryHit(SketchEntry(eid, Sketch(vectors[i].copy(), *fields), tags, int(i)), float(scores[i])))
            return hits

        exact = top(np.arange(n))
        if not bucketed:
            return exact
        approx = top(np.flatnonzero(codes[:n] == self._bucket_of(probe.values)))
        exact_seqs = {h.entry.seq for h in exact}
        return approx, sum(h.entry.seq in exact_seqs for h in approx) / len(exact)

    # -- clustering ----------------------------------------------------------

    def cluster(self, k: int) -> ClusterResult:
        """Deterministic k-means over the stored sketch vectors.

        Initialization orders entries by a content hash (not insert order),
        so a reordering of the same entries yields the same clustering.
        """
        n = self._n
        data = self._vectors[:n]
        k = require_integer(k, "k", 1, n)
        keys = [hashlib.blake2b(np.round(row, 9).tobytes(), digest_size=8).hexdigest() for row in data]
        # the first k content-distinct vectors, in content-key order, seed the
        # centroids: each key's first occurrence, as np.unique returns it
        seeds = list(np.unique(keys, return_index=True)[1][:k])
        centers = data[seeds + seeds[:1] * (k - len(seeds))]

        assign = np.full(n, -1, dtype=np.int64)
        for _ in range(_KMEANS_ITERATIONS):
            # one centre at a time, so the largest temporary is (n, d), not (n, k, d)
            dists = np.stack([((data - center) ** 2).sum(axis=1) for center in centers], axis=1)
            new_assign = np.argmin(dists, axis=1)
            for c in range(k):
                members = data[new_assign == c]
                if len(members):
                    centers[c] = members.mean(axis=0)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        return ClusterResult(centroids=centers, assignments=[int(a) for a in assign])
