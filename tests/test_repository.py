"""Tests for the sketch repository: retrieval, clustering, log persistence."""

from __future__ import annotations

import base64
import gc
import hashlib
import json
import re
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from modsketch._seeding import derive_rng
from modsketch.block_random import DimensionMismatchError, ParameterError, auto_params
from modsketch.network import build_network
from modsketch.repository import QueryHit, SketchEntry, SketchRepository
from modsketch.sketcher import MatrixRegistry, Sketch, encode_values, erase_to_prefix, overall_sketch

D = 64


def make_sketch(values) -> Sketch:
    return Sketch(values=np.asarray(values, dtype=np.float64), kind="overall", depth=1, erased_prefix=len(values))


def rand_sketch(rng, d=D) -> Sketch:
    return make_sketch(rng.standard_normal(d))


def test_insert_and_query_self_first():
    repo = SketchRepository(D)
    rng = np.random.default_rng(0)
    sketches = [rand_sketch(rng) for _ in range(10)]
    ids = [repo.insert(s) for s in sketches]
    probe = sketches[4]
    hits = repo.query_similar(probe, k=3)
    assert hits[0].entry.id == ids[4]
    assert hits[0].score == pytest.approx(float(probe.values @ probe.values))


def test_query_empty_repository():
    repo = SketchRepository(D)
    assert repo.query_similar(make_sketch(np.zeros(D)), k=5) == []


def test_query_exact_topk_with_ties_by_sequence():
    repo = SketchRepository(D)
    base = np.zeros(D)
    base[0] = 1.0
    for _ in range(3):
        repo.insert(make_sketch(base))  # identical scores
    hits = repo.query_similar(make_sketch(base), k=2)
    assert [h.entry.seq for h in hits] == [0, 1]


def test_dimension_mismatch():
    repo = SketchRepository(D)
    with pytest.raises(DimensionMismatchError):
        repo.insert(make_sketch(np.zeros(D // 2)))
    with pytest.raises(DimensionMismatchError):
        repo.query_similar(make_sketch(np.zeros(D * 2)), k=1)


def test_bucketed_mode_reports_recall_and_dimension_safety():
    repo = SketchRepository(D)
    rng = np.random.default_rng(1)
    for _ in range(40):
        repo.insert(rand_sketch(rng))
    probe = rand_sketch(rng)
    approx, recall = repo.query_similar(probe, k=5, bucketed=True)
    assert 0.0 <= recall <= 1.0
    assert all(h.entry.sketch.d == D for h in approx)
    # the probe's own bucket always contains the probe itself when inserted
    repo.insert(probe)
    approx2, recall2 = repo.query_similar(probe, k=1, bucketed=True)
    assert approx2 and approx2[0].score == pytest.approx(float(probe.values @ probe.values))
    assert recall2 == 1.0


def test_shared_object_ranks_above_disjoint():
    # two sketches sharing a heavy same-module object should outrank
    # disjoint-module sketches in >= 90% of seeded trials
    params = auto_params(1024, 32)
    wins = 0
    trials = 20
    for seed in range(trials):
        reg = MatrixRegistry(params, master_seed=seed, allow_high_noise=True)

        def net(module, attrs, oid="x"):
            return build_network(
                {
                    "modules": [{"id": "out", "output": True}, {"id": module}],
                    "objects": [
                        {"id": "root", "module": "out", "attributes": []},
                        {"id": oid, "module": module, "attributes": attrs},
                    ],
                    "edges": [("root", oid, 0.9)],
                },
                d=params.d,
                n_cap=32,
            )

        shared_attrs = [0.25] * 16
        probe = overall_sketch(net("shared", shared_attrs), reg)
        related = overall_sketch(net("shared", shared_attrs), reg)
        repo = SketchRepository(params.d)
        repo.insert(related, "related")
        for i in range(4):
            repo.insert(overall_sketch(net(f"other{i}", [0.5, 0.5], oid=f"y{i}"), reg), f"o{i}")
        hits = repo.query_similar(probe, k=1)
        wins += int(hits[0].entry.id == "related")
    assert wins >= int(0.9 * trials)


def test_cluster_validation_and_identical_entries():
    repo = SketchRepository(D)
    with pytest.raises(ParameterError):
        repo.cluster(k=1)  # empty
    v = np.zeros(D)
    v[3] = 1.0
    for _ in range(4):
        repo.insert(make_sketch(v))
    with pytest.raises(ParameterError):
        repo.cluster(k=5)
    result = repo.cluster(k=3)
    # all identical entries collapse onto one effective centroid
    for c in range(3):
        np.testing.assert_allclose(result.centroids[c], v)
    assert set(result.assignments) == {0}


def test_cluster_k1_mean():
    repo = SketchRepository(D)
    rng = np.random.default_rng(2)
    vecs = [rng.standard_normal(D) for _ in range(6)]
    for v in vecs:
        repo.insert(make_sketch(v))
    result = repo.cluster(k=1)
    np.testing.assert_allclose(result.centroids[0], np.mean(vecs, axis=0), atol=1e-9)


def test_cluster_two_planted_families():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(D) * 2
    b = rng.standard_normal(D) * 2
    repo = SketchRepository(D)
    labels = []
    for i in range(30):
        center = a if i % 2 == 0 else b
        labels.append(i % 2)
        repo.insert(make_sketch(center + 0.1 * rng.standard_normal(D)))
    result = repo.cluster(k=2)
    # purity: each true family lands (almost) entirely in one cluster
    agree = sum(int(x == y) for x, y in zip(result.assignments, labels))
    purity = max(agree, len(labels) - agree) / len(labels)
    assert purity >= 0.95


def test_cluster_stable_under_reordering():
    rng = np.random.default_rng(4)
    vecs = [rng.standard_normal(D) for _ in range(12)]
    repo1 = SketchRepository(D)
    for v in vecs:
        repo1.insert(make_sketch(v))
    repo2 = SketchRepository(D)
    for v in reversed(vecs):
        repo2.insert(make_sketch(v))
    r1 = repo1.cluster(k=3)
    r2 = repo2.cluster(k=3)
    np.testing.assert_allclose(np.sort(r1.centroids, axis=0), np.sort(r2.centroids, axis=0), atol=1e-9)


def test_log_roundtrip(tmp_path):
    log = tmp_path / "repo.log"
    repo = SketchRepository(D, log_path=str(log))
    rng = np.random.default_rng(5)
    sketches = [rand_sketch(rng) for _ in range(5)]
    for i, s in enumerate(sketches):
        repo.insert(s, f"e{i}", tags={"n": str(i)})
    again = SketchRepository(D, log_path=str(log))
    assert len(again) == 5
    hits = again.query_similar(sketches[2], k=1)
    assert hits[0].entry.id == "e2"
    assert hits[0].entry.tags == {"n": "2"}


def test_log_replay_keeps_signature_mode(tmp_path):
    log = tmp_path / "repo.log"
    repo = SketchRepository(D, log_path=str(log))
    rng = np.random.default_rng(6)
    plain = rand_sketch(rng)
    signed = rand_sketch(rng)
    signed.signature_mode = True
    repo.insert(plain, "plain")
    repo.insert(signed, "signed")
    # the field is written only when set, so plain records keep their bytes
    assert ["signature_mode" in line for line in log.read_text().splitlines()] == [False, True]
    again = SketchRepository.from_log(str(log))
    assert again.d == D
    modes = {h.entry.id: h.entry.sketch.signature_mode for h in again.query_similar(plain, k=2)}
    assert modes == {"plain": False, "signed": True}


def test_torn_final_record_is_dropped_and_cut(tmp_path):
    log = tmp_path / "repo.log"
    repo = SketchRepository(D, log_path=str(log))
    rng = np.random.default_rng(7)
    sketches = [rand_sketch(rng) for _ in range(3)]
    for i, s in enumerate(sketches[:2]):
        repo.insert(s, f"e{i}")
    complete = log.read_bytes()
    line = complete.split(b"\n")[0]
    log.write_bytes(complete + line[: len(line) // 2])  # a crash mid-append
    with pytest.warns(RuntimeWarning, match="torn final record"):
        again = SketchRepository(D, log_path=str(log))
    assert len(again) == 2
    assert log.read_bytes() == complete
    again.insert(sketches[2], "e2")
    third = SketchRepository(D, log_path=str(log))
    # a zero probe ties every score, so the hits come in insert order
    assert [h.entry.id for h in third.query_similar(make_sketch(np.zeros(D)), k=3)] == ["e0", "e1", "e2"]


def test_malformed_record_before_the_end_is_an_error(tmp_path):
    log = tmp_path / "repo.log"
    repo = SketchRepository(D, log_path=str(log))
    rng = np.random.default_rng(8)
    repo.insert(rand_sketch(rng), "e0")
    repo.insert(rand_sketch(rng), "e1")
    lines = log.read_text().splitlines(keepends=True)
    log.write_text(lines[0][:40] + "\n" + lines[1])
    with pytest.raises(ParameterError, match="malformed record at byte 0"):
        SketchRepository(D, log_path=str(log))


def test_from_log_refuses_missing_or_empty_store(tmp_path):
    with pytest.raises(ParameterError, match="no sketch store"):
        SketchRepository.from_log(str(tmp_path / "absent.log"))
    empty = tmp_path / "empty.log"
    empty.write_text("")
    with pytest.raises(ParameterError, match="complete record"):
        SketchRepository.from_log(str(empty))


# -- the log's bytes and its append handle ------------------------------------


def oracle_record(eid: str, tags: dict, sketch: Sketch) -> bytes:
    """A log record as ``json.dumps`` of the whole record writes it."""
    rec = {
        "id": eid,
        "tags": tags,
        "kind": sketch.kind,
        "depth": sketch.depth,
        "erased_prefix": sketch.erased_prefix,
        "values": base64.b64encode(encode_values(sketch.values)).decode("ascii"),
    }
    if sketch.signature_mode:
        rec["signature_mode"] = True
    return (json.dumps(rec, sort_keys=True) + "\n").encode("utf-8")


def test_log_records_equal_json_of_the_whole_record(tmp_path):
    rng = np.random.default_rng(11)
    records = []
    for signed in (False, True):
        for eid, tags in [
            ('a"b\\c/d', {'q"uote': 'back\\slash/', "k": "v"}),
            ("ünï\u00e7ødé ☃ \U0001f600", {"ключ": "值", "\t": "\n"}),
            ("plain", {}),
        ]:
            values = rng.standard_normal(D)
            values[:4] = [-0.0, 5e-324, -2.2250738585072014e-308 / 3, -1.2345678901234567e300]  # signed zero, subnormals, huge
            records.append((eid, tags, replace(make_sketch(values), signature_mode=signed)))
    log = tmp_path / "repo.log"
    with SketchRepository(D, log_path=str(log)) as repo:
        for eid, tags, sk in records:
            repo.insert(sk, eid, tags)
    assert log.read_bytes().splitlines(keepends=True) == [oracle_record(*r) for r in records]


def test_dropping_a_logged_store_closes_its_log_without_warning(tmp_path):
    repo = SketchRepository(D, log_path=str(tmp_path / "repo.log"))
    repo.insert(rand_sketch(np.random.default_rng(12)), "e0")
    handle = repo._log
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del repo
        gc.collect()
    assert handle.closed
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_close_is_idempotent_and_a_later_insert_reopens_the_log(tmp_path):
    log = tmp_path / "repo.log"
    rng = np.random.default_rng(13)
    with SketchRepository(D, log_path=str(log)) as repo:
        repo.insert(rand_sketch(rng), "e0")
    assert repo._log is None
    repo.close()
    repo.close()
    repo.insert(rand_sketch(rng), "e1")
    repo.close()
    again = SketchRepository(D, log_path=str(log))
    assert [h.entry.id for h in again.query_similar(make_sketch(np.zeros(D)), k=3)] == ["e0", "e1"]


def test_replay_and_queries_never_open_the_log(tmp_path):
    log = tmp_path / "repo.log"
    rng = np.random.default_rng(14)
    with SketchRepository(D, log_path=str(log)) as repo:
        repo.insert(rand_sketch(rng), "e0")
    again = SketchRepository(D, log_path=str(log))
    again.query_similar(rand_sketch(rng), k=1, bucketed=True)
    again.cluster(k=1)
    assert again._log is None


def test_two_stores_on_one_log_interleave_their_appends(tmp_path):
    log = tmp_path / "repo.log"
    rng = np.random.default_rng(15)
    stores = [SketchRepository(D, log_path=str(log)) for _ in range(2)]
    for i in range(6):
        stores[i % 2].insert(rand_sketch(rng), f"e{i}")
    for store in stores:
        store.close()
    again = SketchRepository(D, log_path=str(log))
    assert [h.entry.id for h in again.query_similar(make_sketch(np.zeros(D)), k=6)] == [f"e{i}" for i in range(6)]


class WrappedHandle:
    """The append handle, with ``write`` replaced by a subclass."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


class FailingHandle(WrappedHandle):
    def write(self, data):
        raise OSError(28, "No space left on device")


class TornHandle(WrappedHandle):
    """Writes half of the buffer, then fails, as a full disk may."""

    def write(self, data):
        self.inner.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


class HalvingHandle(WrappedHandle):
    """Writes at most half of the first buffer it is given, all of later ones."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0

    def write(self, data):
        self.calls += 1
        return self.inner.write(data[: (len(data) + 1) // 2] if self.calls == 1 else data)


def test_a_failed_append_publishes_no_row_and_the_next_insert_reopens(tmp_path, monkeypatch):
    log = tmp_path / "repo.log"
    rng = np.random.default_rng(16)
    repo = SketchRepository(D, log_path=str(log))
    repo.insert(rand_sketch(rng), "e0")
    real = repo._log
    monkeypatch.setattr(repo, "_log", FailingHandle(real))
    with pytest.raises(OSError, match="No space left"):
        repo.insert(rand_sketch(rng), "lost")
    assert len(repo) == 1 and repo._log is None and real.closed
    repo.insert(rand_sketch(rng), "e1")
    assert len(repo) == 2
    repo.close()
    again = SketchRepository(D, log_path=str(log))
    assert [h.entry.id for h in again.query_similar(make_sketch(np.zeros(D)), k=3)] == ["e0", "e1"]


@pytest.mark.parametrize("handle", [FailingHandle, TornHandle], ids=["nothing-written", "half-written"])
def test_a_failed_append_cuts_its_partial_record_off_the_log(tmp_path, monkeypatch, handle):
    log = tmp_path / "repo.log"
    rng = np.random.default_rng(18)
    first, lost, second = rand_sketch(rng), rand_sketch(rng), rand_sketch(rng)
    repo = SketchRepository(D, log_path=str(log))
    repo.insert(first, "e0")
    monkeypatch.setattr(repo, "_log", handle(repo._log))
    with pytest.raises(OSError, match="No space left"):
        repo.insert(lost, "lost")
    assert log.read_bytes() == oracle_record("e0", {}, first)
    repo.insert(second, "e1", {"k": "v"})
    repo.close()
    assert log.read_bytes() == oracle_record("e0", {}, first) + oracle_record("e1", {"k": "v"}, second)
    again = SketchRepository(D, log_path=str(log))
    hits = again.query_similar(make_sketch(np.zeros(D)), k=3)
    assert [(h.entry.id, h.entry.tags) for h in hits] == [("e0", {}), ("e1", {"k": "v"})]
    assert [h.entry.sketch.values.tobytes() for h in hits] == [first.values.tobytes(), second.values.tobytes()]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_insert_refuses_non_finite_values_before_logging(tmp_path, bad):
    log = tmp_path / "repo.log"
    rng = np.random.default_rng(19)
    first = rand_sketch(rng)
    with SketchRepository(D, log_path=str(log)) as repo:
        repo.insert(first, "e0")
        values = rng.standard_normal(D)
        values[5] = bad
        with pytest.raises(ParameterError, match="sketch values must be finite, value 5 is"):
            repo.insert(make_sketch(values), "bad")
        assert len(repo) == 1
    assert log.read_bytes() == oracle_record("e0", {}, first)
    assert len(SketchRepository.from_log(str(log))) == 1
    unlogged = SketchRepository(D)
    with pytest.raises(ParameterError, match="sketch values must be finite"):
        unlogged.insert(make_sketch(values))
    assert len(unlogged) == 0


def test_a_short_write_is_continued_until_the_record_is_whole(tmp_path, monkeypatch):
    log = tmp_path / "repo.log"
    rng = np.random.default_rng(17)
    repo = SketchRepository(D, log_path=str(log))
    first, second = rand_sketch(rng), rand_sketch(rng)
    repo.insert(first, "e0")
    halving = HalvingHandle(repo._log)
    monkeypatch.setattr(repo, "_log", halving)
    repo.insert(second, "e1", {"k": "v"})
    repo.close()
    assert halving.calls == 2
    assert log.read_bytes() == oracle_record("e0", {}, first) + oracle_record("e1", {"k": "v"}, second)


# -- reference: a store of one Sketch per entry -------------------------------
# Every entry scored and sorted on (-score, seq), bucket codes built bit by
# bit, and k-means over an (n, k, d) broadcast.  The array-backed repository
# must reproduce it bit for bit.


def oracle_bucket(values: np.ndarray) -> int:
    planes = derive_rng(0, "repository-hyperplanes").standard_normal((16, len(values)))
    code = 0
    for bit in (planes @ values) >= 0:
        code = (code << 1) | int(bit)
    return code


def oracle_query(entries: list[SketchEntry], probe: Sketch, k: int, bucketed: bool = False):
    def top(chosen):
        scored = [QueryHit(e, float(e.sketch.values @ probe.values)) for e in chosen]
        scored.sort(key=lambda h: (-h.score, h.entry.seq))
        return scored[:k]

    exact = top(entries)
    if not bucketed:
        return exact
    code = oracle_bucket(probe.values)
    approx = top([e for e in entries if oracle_bucket(e.sketch.values) == code])
    exact_seqs = {h.entry.seq for h in exact}
    return approx, len([h for h in approx if h.entry.seq in exact_seqs]) / len(exact)


def oracle_cluster(entries: list[SketchEntry], k: int, iterations: int = 25):
    data = np.stack([e.sketch.values for e in entries])
    n = len(data)

    def content_key(vec):
        return hashlib.blake2b(np.round(vec, 9).tobytes(), digest_size=8).hexdigest()

    centroids, seen = [], set()
    for i in sorted(range(n), key=lambda i: (content_key(data[i]), i)):
        if content_key(data[i]) not in seen:
            seen.add(content_key(data[i]))
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
    return centers, [int(a) for a in assign]


def hit_bits(hits):
    return [
        (h.entry.id, h.entry.seq, h.entry.tags, float.hex(h.score), h.entry.sketch.kind, h.entry.sketch.depth,
         h.entry.sketch.erased_prefix, h.entry.sketch.signature_mode, h.entry.sketch.values.tobytes())
        for h in hits
    ]


def test_array_store_matches_per_entry_oracle(tmp_path):
    rng = np.random.default_rng(9)
    base = [rand_sketch(rng) for _ in range(30)]
    near = [make_sketch(s.values + 1e-3 * rng.standard_normal(D)) for s in base[:10]]  # shares buckets
    signed = replace(rand_sketch(rng), signature_mode=True, kind="object", depth=3)
    erased = erase_to_prefix(rand_sketch(rng), 20)
    stored = base + near + base[:5] + [signed, erased]  # base[:5] twice: tied scores
    log = tmp_path / "repo.log"
    repo = SketchRepository(D, log_path=str(log))
    entries = []
    for seq, sk in enumerate(stored):
        tags = {"n": str(seq)} if seq % 3 == 0 else {}
        repo.insert(sk, f"e{seq}", tags)
        entries.append(SketchEntry(f"e{seq}", sk, tags, seq))
    probes = [base[0], base[7], near[2], signed, erased, make_sketch(np.zeros(D)), rand_sketch(rng)]
    for store in (repo, SketchRepository(D, log_path=str(log))):  # as inserted, and replayed
        for probe in probes:
            for k in (1, 4, len(stored) + 3):
                assert hit_bits(store.query_similar(probe, k)) == hit_bits(oracle_query(entries, probe, k))
                approx, recall = store.query_similar(probe, k, bucketed=True)
                want, want_recall = oracle_query(entries, probe, k, bucketed=True)
                assert hit_bits(approx) == hit_bits(want) and float.hex(recall) == float.hex(want_recall)
        for k in (1, 3, 8):
            got = store.cluster(k)
            centers, assignments = oracle_cluster(entries, k)
            assert got.assignments == assignments
            assert got.centroids.tobytes() == centers.tobytes()


@pytest.mark.parametrize("d", [2070, 2071])  # the benchmark's d, and an odd tail
def test_scores_match_per_row_dots_at_benchmark_shapes(d):
    rng = np.random.default_rng(d)
    rows = [rand_sketch(rng, d) for _ in range(294)]
    stored = rows + rows[:6]  # 300 rows, capacity 512; the last six tie with the first six
    repo = SketchRepository(d)
    entries = []
    for seq, sk in enumerate(stored):
        repo.insert(sk, f"e{seq}")
        entries.append(SketchEntry(f"e{seq}", sk, {}, seq))
    assert len(repo._vectors) > len(repo)
    wide = rng.standard_normal(2 * d)
    probes = [rows[3], rand_sketch(rng, d), make_sketch(wide[::2]), make_sketch(wide[:d][::-1])]
    assert not probes[2].values.flags.contiguous and probes[3].values.strides[0] < 0
    for probe in probes:
        for k in (1, 10, len(stored)):
            assert hit_bits(repo.query_similar(probe, k)) == hit_bits(oracle_query(entries, probe, k))


def test_cluster_peak_memory_stays_near_the_store_size():
    n, d = 2000, 256
    repo = SketchRepository(d)
    for v in np.random.default_rng(10).standard_normal((n, d)):
        repo.insert(make_sketch(v))
    tracemalloc.start()
    try:
        repo.cluster(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * d * 8, f"cluster(8) peaked at {peak / (n * d * 8):.1f}x the stored vectors"


def test_queries_beside_one_writer_and_one_registry_shared_by_two_threads():
    """The store's promise: a query beside one inserting writer sees a prefix
    of the inserts, every hit whole.  And the registry's lock: two threads
    asking for the same key get one matrix."""
    rng = np.random.default_rng(31)
    rows = rng.standard_normal((300, D))
    probe = rand_sketch(rng)
    repo = SketchRepository(D)
    bucket_of = repo._bucket_of

    def yielding_bucket_of(values):  # the writer yields mid-insert, before the row is published
        time.sleep(0)
        return bucket_of(values)

    repo._bucket_of = yielding_bucket_of
    writer = threading.Thread(target=lambda: [repo.insert(make_sketch(row)) for row in rows])
    reg = MatrixRegistry(auto_params(1014, 6), master_seed=0, allow_high_noise=True)
    barrier, got = threading.Barrier(2, timeout=30), []

    def ask():
        barrier.wait()
        got.append(reg.module_matrix("m", 1))

    asker = threading.Thread(target=ask)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer.start()
        queries = 0
        while writer.is_alive() or not queries:
            hits = repo.query_similar(probe, k=10)
            n = len(repo)
            for hit in hits:
                seq = hit.entry.seq
                assert seq < n and hit.entry.id == f"sketch-{seq}"
                assert hit.entry.sketch.values.tobytes() == rows[seq].tobytes()
                assert hit.score == float(rows[seq] @ probe.values)
            queries += 1
        writer.join(timeout=30)
        asker.start()
        barrier.wait()
        mine = reg.module_matrix("m", 1)
        asker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and len(repo) == len(rows)
    assert not asker.is_alive() and got[0] is mine


# -- one rule for a record: what insert logs, replay reads back ---------------


def logged_store(tmp_path):
    """A logged store holding one entry, e0; its log's path; e0's sketch."""
    log = tmp_path / "repo.log"
    repo = SketchRepository(D, log_path=str(log))
    first = rand_sketch(np.random.default_rng(21))
    repo.insert(first, "e0", {"k": "v"})
    return repo, log, first


def assert_reopens_with_only(log, first):
    again = SketchRepository.from_log(str(log))
    assert len(again) == 1
    (hit,) = again.query_similar(first, k=1)
    assert (hit.entry.id, hit.entry.tags) == ("e0", {"k": "v"})
    assert hit.entry.sketch.values.tobytes() == first.values.tobytes()


@pytest.mark.parametrize(
    "args, message",
    [
        (("e1", {"n": 1}), "tags must map strings to strings, got {'n': 1}"),
        (("e1", {1: "v"}), "tags must map strings to strings, got {1: 'v'}"),
        (("e1", ["k"]), "tags must map strings to strings"),
        ((7,), "id must be a string, got 7"),
        ((b"e1",), "id must be a string"),
    ],
    ids=["tag-value-int", "tag-key-int", "tags-list", "id-int", "id-bytes"],
)
def test_insert_refuses_an_id_or_tags_replay_would_refuse(tmp_path, args, message):
    repo, log, first = logged_store(tmp_path)
    before = log.read_bytes()
    with pytest.raises(ParameterError, match=re.escape(message)):
        repo.insert(rand_sketch(np.random.default_rng(22)), *args)
    assert len(repo) == 1 and log.read_bytes() == before
    repo.close()
    assert_reopens_with_only(log, first)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("kind", "bogus", "unknown sketch kind 'bogus'"),
        ("depth", 0, "sketch depth must be an integer >= 1, got 0"),
        ("depth", 1.0, "sketch depth must be an integer >= 1, got 1.0"),
        ("depth", True, "sketch depth must be an integer >= 1, got True"),
        ("depth", "1", "sketch depth must be an integer >= 1, got '1'"),
        ("erased_prefix", D + 1, f"erased prefix must be an integer in [1, {D}], got {D + 1}"),
        ("erased_prefix", np.float64(3.0), f"erased prefix must be an integer in [1, {D}], got"),
        ("signature_mode", 1, "signature mode must be a boolean, got 1"),
    ],
    ids=["kind-bogus", "depth-0", "depth-float", "depth-bool", "depth-str", "prefix-above-d", "prefix-numpy-float",
         "signature-int"],
)
def test_insert_refuses_a_sketch_replay_would_refuse(tmp_path, field, value, message):
    repo, log, first = logged_store(tmp_path)
    before = log.read_bytes()
    with pytest.raises(ParameterError, match=re.escape(message)):
        repo.insert(replace(rand_sketch(np.random.default_rng(23)), **{field: value}), "e1")
    with pytest.raises(ParameterError, match=re.escape(message)):
        SketchRepository(D).insert(replace(rand_sketch(np.random.default_rng(23)), **{field: value}))
    assert len(repo) == 1 and log.read_bytes() == before
    repo.close()
    assert_reopens_with_only(log, first)


def test_numpy_integer_depth_and_prefix_are_logged_as_their_ints(tmp_path):
    repo, log, first = logged_store(tmp_path)
    sk = replace(rand_sketch(np.random.default_rng(24)), kind="object", depth=np.int64(3), erased_prefix=np.int32(D))
    repo.insert(sk, "e1")
    repo.close()
    as_ints = replace(sk, depth=3, erased_prefix=D)
    assert log.read_bytes() == oracle_record("e0", {"k": "v"}, first) + oracle_record("e1", {}, as_ints)
    hits = SketchRepository.from_log(str(log)).query_similar(make_sketch(np.zeros(D)), k=2)
    assert [(type(h.entry.sketch.depth), type(h.entry.sketch.erased_prefix)) for h in hits] == [(int, int)] * 2
    assert (hits[1].entry.sketch.depth, hits[1].entry.sketch.erased_prefix) == (3, D)


def test_replay_refuses_what_insert_refuses_with_its_own_message(tmp_path):
    repo, log, _ = logged_store(tmp_path)
    repo.close()
    good = log.read_bytes()
    bad = json.loads(good)
    for field, value, message in [("kind", "bogus", "unknown sketch kind 'bogus'"), ("id", 7, "id must be a string"),
                                  ("tags", {"n": 1}, "tags must map strings to strings")]:
        log.write_bytes(good + json.dumps({**bad, field: value}, sort_keys=True).encode() + b"\n")
        with pytest.raises(ParameterError, match=re.escape(f"malformed record at byte {len(good)}: {message}")):
            SketchRepository.from_log(str(log))


def test_from_log_reads_d_from_a_first_record_of_whole_float64s(tmp_path):
    repo, log, _ = logged_store(tmp_path)
    repo.close()
    rec = json.loads(log.read_bytes())
    rec["values"] = base64.b64encode(bytes(8 * D + 4)).decode("ascii")
    log.write_text(json.dumps(rec, sort_keys=True) + "\n")
    with pytest.raises(ParameterError, match="does not start with a complete record"):
        SketchRepository.from_log(str(log))
    with pytest.raises(ParameterError, match="does not start with a complete record"):
        SketchRepository.from_log(str(log), D)
