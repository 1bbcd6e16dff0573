"""A sketch store: insertion, similarity retrieval, clustering.

Because unrelated sketches have near-zero inner product while sketches
sharing heavy same-module objects correlate, a plain inner-product top-k over
the store retrieves related computations, and k-means over sketch vectors
surfaces candidate new modules as clusters.  Retrieval is exact brute force
by default with an optional random-hyperplane bucketing that trades recall
for speed (and reports the recall it achieved).

The store is in-memory with an optional append-only log; many readers may
query concurrently while one writer inserts (queries see a consistent prefix
of the insert sequence).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from modsketch._seeding import derive_rng
from modsketch.block_random import DimensionMismatchError, ParameterError
from modsketch.sketcher import Sketch, decode_values, encode_values

__all__ = ["SketchEntry", "QueryHit", "ClusterResult", "SketchRepository"]


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


def _parse_record(line: bytes, d: int) -> tuple[Sketch, str, dict]:
    rec = json.loads(line)
    sk = Sketch(
        values=decode_values(base64.b64decode(rec["values"]), d),
        kind=rec["kind"],
        depth=rec["depth"],
        erased_prefix=rec["erased_prefix"],
        signature_mode=rec.get("signature_mode", False),
    )
    return sk, rec["id"], rec["tags"]


class SketchRepository:
    """In-memory sketch store with an optional append-only log file."""

    def __init__(self, d: int, log_path: str | None = None, lsh_planes: int = 16, seed: int = 0):
        self.d = d
        self.log_path = None  # set after the replay, which must not log again
        self._entries: list[SketchEntry] = []
        self._write_lock = threading.Lock()
        rng = derive_rng(seed, "repository-hyperplanes")
        self._planes = rng.standard_normal((lsh_planes, d)) if lsh_planes > 0 else None
        self._buckets: dict[int, list[int]] = {}
        if log_path and os.path.exists(log_path):
            self._replay_log(log_path)
        self.log_path = log_path

    # -- insertion ---------------------------------------------------------

    def insert(self, sketch: Sketch, entry_id: str | None = None, tags: dict | None = None) -> str:
        if sketch.d != self.d:
            raise DimensionMismatchError(f"sketch d={sketch.d}, repository d={self.d}")
        with self._write_lock:
            seq = len(self._entries)
            eid = entry_id if entry_id is not None else f"sketch-{seq}"
            entry = SketchEntry(id=eid, sketch=sketch, tags=dict(tags or {}), seq=seq)
            if self._planes is not None:
                self._buckets.setdefault(self._bucket_of(sketch.values), []).append(seq)
            if self.log_path:
                with open(self.log_path, "a", encoding="utf-8") as fh:
                    fh.write(self._log_line(entry) + "\n")
            # append is atomic w.r.t. snapshot readers
            self._entries.append(entry)
            return eid

    def __len__(self) -> int:
        return len(self._entries)

    def _log_line(self, entry: SketchEntry) -> str:
        rec = {
            "id": entry.id,
            "tags": entry.tags,
            "kind": entry.sketch.kind,
            "depth": entry.sketch.depth,
            "erased_prefix": entry.sketch.erased_prefix,
            "values": base64.b64encode(encode_values(entry.sketch.values)).decode("ascii"),
        }
        if entry.sketch.signature_mode:
            # written only when set, so logs of plain sketches keep their bytes
            rec["signature_mode"] = True
        return json.dumps(rec, sort_keys=True)

    def _replay_log(self, path: str) -> None:
        """Re-insert every logged record.

        A record is committed by its newline.  A final line without one is a
        torn append that ``insert`` never returned from: it is dropped with a
        warning and cut from the file, so the next append starts on a clean
        line.  A malformed line anywhere else is an error.
        """
        complete = 0
        with open(path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                try:
                    sk, eid, tags = _parse_record(line, self.d)
                except (ValueError, KeyError, TypeError) as exc:
                    raise ParameterError(f"{path}: malformed record at byte {complete}: {exc}") from None
                self.insert(sk, eid, tags)
                complete += len(line)
        torn = os.path.getsize(path) - complete
        if torn:
            warnings.warn(f"{path}: dropped a torn final record of {torn} bytes", RuntimeWarning, stacklevel=3)
            with open(path, "r+b") as fh:
                fh.truncate(complete)

    @classmethod
    def from_log(cls, log_path: str) -> "SketchRepository":
        """Reopen a logged store, taking d from its first record."""
        try:
            with open(log_path, "rb") as fh:
                first = json.loads(fh.readline())
            d = len(base64.b64decode(first["values"])) // 8
        except FileNotFoundError:
            raise ParameterError(f"no sketch store at {log_path}") from None
        except (ValueError, KeyError, TypeError):
            raise ParameterError(f"{log_path} does not start with a complete record") from None
        return cls(d, log_path=log_path)

    # -- retrieval ----------------------------------------------------------

    def _bucket_of(self, values: np.ndarray) -> int:
        assert self._planes is not None
        bits = (self._planes @ values) >= 0
        code = 0
        for bit in bits:
            code = (code << 1) | int(bit)
        return code

    def query_similar(self, probe: Sketch, k: int, bucketed: bool = False):
        """Top-k entries by inner product with the probe.

        Brute force is exact (ties broken by insert sequence).  Bucketed mode
        scores only the probe's hyperplane bucket and additionally reports
        the recall it achieved against brute force on this probe.
        """
        if probe.d != self.d:
            raise DimensionMismatchError(f"probe d={probe.d}, repository d={self.d}")
        snapshot = self._entries[: len(self._entries)]
        if not snapshot:
            return ([], 1.0) if bucketed else []

        def top(entries):
            scored = [QueryHit(e, float(e.sketch.values @ probe.values)) for e in entries]
            scored.sort(key=lambda h: (-h.score, h.entry.seq))
            return scored[:k]

        exact = top(snapshot)
        if not bucketed:
            return exact
        if self._planes is None:
            raise ParameterError("repository was built without hyperplanes")
        candidate_seqs = self._buckets.get(self._bucket_of(probe.values), [])
        candidates = [snapshot[s] for s in candidate_seqs if s < len(snapshot)]
        approx = top(candidates)
        exact_ids = {h.entry.seq for h in exact}
        recall = (
            len([h for h in approx if h.entry.seq in exact_ids]) / len(exact) if exact else 1.0
        )
        return approx, recall

    # -- clustering ----------------------------------------------------------

    def cluster(self, k: int, iterations: int = 25) -> ClusterResult:
        """Deterministic k-means over the stored sketch vectors.

        Initialization orders entries by a content hash (not insert order),
        so a reordering of the same entries yields the same clustering.
        """
        snapshot = self._entries[: len(self._entries)]
        n = len(snapshot)
        if k < 1:
            raise ParameterError("k must be >= 1")
        if k > n:
            raise ParameterError(f"k={k} exceeds repository size {n}")
        data = np.stack([e.sketch.values for e in snapshot])

        def content_key(vec: np.ndarray) -> str:
            return hashlib.blake2b(np.round(vec, 9).tobytes(), digest_size=8).hexdigest()

        order = sorted(range(n), key=lambda i: (content_key(data[i]), i))
        # first k content-distinct vectors seed the centroids
        centroids = []
        seen: set[str] = set()
        for i in order:
            key = content_key(data[i])
            if key not in seen:
                seen.add(key)
                centroids.append(data[i])
            if len(centroids) == k:
                break
        while len(centroids) < k:
            centroids.append(centroids[0])
        centers = np.stack(centroids)

        assign = np.full(n, -1, dtype=np.int64)
        for _ in range(iterations):
            dists = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = np.argmin(dists, axis=1)
            for c in range(k):
                members = data[new_assign == c]
                if len(members):
                    centers[c] = members.mean(axis=0)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        return ClusterResult(centroids=centers, assignments=[int(a) for a in assign])
