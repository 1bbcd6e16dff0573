"""Round-trip properties of the three writers.

Whatever the store's ``insert``, ``save_sketch`` or ``build_network`` and
``save_network`` accept, the matching reader returns with equal fields and
equal bits.  Whatever a writer refuses, it refuses with a typed error before
writing a byte.  Most drawn fields are valid; one in ten is of a wrong type
or range a caller might pass: a bool or a float for an integer, a numpy
scalar, a non-finite value, a 2-D or string array of values, an unknown kind,
a non-string id or tag, an id holding whitespace or starting with '#'.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch.block_random import ParameterError
from modsketch.network import NetworkValidationError, build_network, load_network, save_network
from modsketch.repository import SketchRepository
from modsketch.sketcher import Sketch, load_sketch, save_sketch

# derandomized and capped, so the module stays within seconds of Tier-1 time
ROUND_TRIP = settings(derandomize=True, deadline=None, max_examples=150, database=None)

KINDS = ("tuple", "attribute", "input", "object", "overall")
STORE_D = 5


def mostly(valid: st.SearchStrategy, invalid: st.SearchStrategy, odds: int = 10) -> st.SearchStrategy:
    """A draw from invalid one time in odds, else from valid."""
    return st.sampled_from(range(odds)).flatmap(lambda r: valid if r else invalid)


finite = st.floats(allow_nan=False, allow_infinity=False)  # -0.0, subnormals and the extremes included


def integers(high: int) -> st.SearchStrategy:
    """An integer in [1, high], as an int or a numpy integer, or one time in
    ten a value that is not one: 0, a bool, a float, a string."""
    valid = st.integers(1, high)
    return mostly(
        st.one_of(valid, valid.map(np.int64), st.integers(1, min(high, 255)).map(np.uint8)),
        st.one_of(st.integers(-1, 0), st.booleans(), st.floats(0, 8), st.just("1")),
    )


texts = mostly(st.text(max_size=6), st.one_of(st.integers(0, 9), st.binary(max_size=2)))
# ids the network text form can carry: no whitespace, no control character
tokens = mostly(
    st.text(st.characters(exclude_categories=("Zs", "Zl", "Zp", "Cc", "Cs")), min_size=1, max_size=6),
    st.one_of(st.just(""), st.text(max_size=3).map(lambda s: "#" + s), st.text(max_size=3).map(lambda s: s + " x")),
    odds=30,
)


@st.composite
def sketches(draw, d: int) -> Sketch:
    values = np.array(draw(st.lists(finite, min_size=d, max_size=d)), dtype=np.float64)
    if d and draw(st.integers(0, 9)) == 0:
        values[draw(st.integers(0, d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    values = draw(mostly(st.just(values), st.sampled_from([np.stack([values, values], axis=1), values.astype(str)])))
    kind = draw(mostly(st.sampled_from(KINDS), st.sampled_from(["bogus", "", "Overall"])))
    signature_mode = draw(mostly(st.one_of(st.booleans(), st.sampled_from([np.True_, np.False_])), st.integers(0, 1)))
    return Sketch(values, kind, draw(integers(2**62)), draw(integers(max(d, 1))), signature_mode)


def fields(sk: Sketch) -> tuple:
    """Every field of a sketch, with the types a reader gives them."""
    return (sk.values.tobytes(), sk.kind, int(sk.depth), int(sk.erased_prefix), bool(sk.signature_mode))


def read_fields(sk: Sketch) -> tuple:
    assert type(sk.depth) is int and type(sk.erased_prefix) is int and type(sk.signature_mode) is bool
    return (sk.values.tobytes(), sk.kind, sk.depth, sk.erased_prefix, sk.signature_mode)


def file_bytes(path: str) -> bytes:
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # bucket codes of values near 1e308
@ROUND_TRIP
@given(
    records=st.lists(
        st.tuples(
            sketches(STORE_D),
            st.one_of(st.none(), texts),
            st.one_of(st.none(), st.dictionaries(texts, texts, max_size=3)),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_store_insert_then_reopen_returns_every_accepted_record(records):
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "store.log")
        expected = []
        with SketchRepository(STORE_D, log_path=log) as repo:
            for sk, eid, tags in records:
                before = file_bytes(log)
                try:
                    got = repo.insert(sk, eid, tags)
                except ParameterError:
                    assert len(repo) == len(expected) and file_bytes(log) == before
                    continue
                assert got == (f"sketch-{len(expected)}" if eid is None else eid)
                expected.append((got, dict(tags or {}), fields(sk)))
        again = SketchRepository(STORE_D, log_path=log)
        # a zero probe ties every score, so the hits come in insert order
        hits = again.query_similar(Sketch(np.zeros(STORE_D), "overall", 1, STORE_D), k=max(1, len(expected)))
        assert [(h.entry.id, h.entry.tags, read_fields(h.entry.sketch)) for h in hits] == expected


@ROUND_TRIP
@given(
    sk=st.integers(0, 4).flatmap(sketches),
    fingerprint=mostly(st.sampled_from(["", "unknown", "0123abcdef456789", "a=b"]), st.text(max_size=4)),
)
def test_save_sketch_then_load_returns_every_accepted_file(sk, fingerprint):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.sketch")
        try:
            save_sketch(sk, path, fingerprint)
        except ParameterError:
            assert not os.path.exists(path)
            return
        loaded, fp = load_sketch(path)
        assert (read_fields(loaded), fp) == (fields(sk), fingerprint or "unknown")


@st.composite
def network_specs(draw):
    """A layered network spec: the output object on level 0, every other
    object one level below a parent it draws (or unreachable), each module
    on one level.  Only an id can make it invalid."""
    n_levels = draw(st.integers(1, 3))
    n_modules = draw(st.lists(st.integers(1, 2), min_size=n_levels, max_size=n_levels))
    n_objects = draw(st.lists(st.integers(1, 3), min_size=n_levels, max_size=n_levels))
    n_ids = 2 + sum(n_modules) + sum(n_objects)
    ids = draw(st.lists(tokens, min_size=n_ids, max_size=n_ids, unique=True))
    out_module, root = ids.pop(), ids.pop()
    modules, objects = [{"id": out_module, "output": True}], [{"id": root, "module": out_module}]
    levels, edges = [[root]], []
    for level in range(n_levels):
        mods = [ids.pop() for _ in range(n_modules[level])]
        modules += [{"id": m} for m in mods]
        children = []
        for _ in range(n_objects[level]):
            oid = ids.pop()
            attrs = draw(st.lists(st.one_of(st.just(0.0), st.floats(0, 1e100)), max_size=6))
            objects.append({"id": oid, "module": draw(st.sampled_from(mods)), "attributes": attrs})
            parent = draw(mostly(st.sampled_from(levels[-1]), st.none(), odds=5))  # None: unreachable
            if parent is not None:
                edges.append((parent, oid, draw(st.floats(0, 1))))
            children.append(oid)
        levels.append(children)
    totals = {}
    for parent, _, w in edges:
        totals[parent] = totals.get(parent, 0.0) + w
    edges = [(p, c, w / max(1.0, totals[p])) for p, c, w in edges]  # each parent's weights sum to at most 1
    draw(st.randoms()).shuffle(objects)
    return {"modules": modules, "objects": objects, "edges": edges}


@ROUND_TRIP
@given(spec=network_specs(), n_multiplier=st.integers(1, 3), extra_cap=st.one_of(st.none(), st.integers(0, 5)))
def test_build_save_load_returns_the_network(spec, n_multiplier, extra_cap):
    n_cap = None
    if extra_cap is not None:
        n_cap = n_multiplier * max(len(spec["modules"]), max(len(spec["objects"]) - 1, 1)) + extra_cap
    try:
        net = build_network(spec, d=8, n_multiplier=n_multiplier, n_cap=n_cap)
    except NetworkValidationError as exc:
        ids = [m["id"] for m in spec["modules"]] + [o["id"] for o in spec["objects"]]
        assert any(i.startswith("#") or i.split() != [i] for i in ids), exc
        assert "is empty, holds whitespace or starts with '#'" in str(exc)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.txt")
        save_network(net, path)
        again = load_network(path)
    assert (again.d, again.n_cap, again.n_multiplier, again.output_object_id) == (
        net.d, net.n_cap, net.n_multiplier, net.output_object_id)
    assert list(again.modules.values()) == list(net.modules.values())

    def shape(n):
        return [(o.id, o.producer, o.depth, [(c, float.hex(w)) for c, w in o.inputs]) for o in n.objects.values()]

    assert shape(again) == shape(net)
    for oid, obj in net.objects.items():
        # load_network normalizes the attributes it reads once more, which can
        # move an entry by an ulp or two, so their bits are not kept
        np.testing.assert_allclose(again.objects[oid].attributes, obj.attributes, rtol=4 * np.finfo(float).eps, atol=0)
