"""Tests for the recursive sketch construction, prototypes, and erasure."""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest

from modsketch.block_random import BlockParams, DimensionMismatchError, ParameterError, auto_params
from modsketch.network import (
    SyntheticProfile,
    build_network,
    generate_synthetic,
    load_network,
    save_network,
)
from modsketch.recovery import recover_frequency
from modsketch.sketcher import (
    DimensionFloorError,
    MatrixRegistry,
    PrototypeScopeError,
    Sketch,
    attribute_subsketch,
    erase_to_prefix,
    export_sketch_csv,
    load_sketch,
    object_signature,
    object_sketches,
    overall_sketch,
    prototype_a_overall,
    prototype_b_overall,
    save_sketch,
    tuple_sketch,
)

PARAMS_SMALL = BlockParams(b=24, q=0.5, d=24, n_cap=12)
PARAMS_MED = BlockParams(b=39, q=0.3, d=1014, n_cap=64)


def identity_registry(d=24, n_cap=12):
    params = BlockParams(b=24, q=0.5, d=24, n_cap=12) if d == 24 else auto_params(d, n_cap)
    return MatrixRegistry(params, master_seed=0, mode="identity", allow_high_noise=True)


def single_leaf(d=24, weight=1.0, attrs=(0.6, 0.0, 0.8)):
    return build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": "leaf"}],
            "objects": [
                {"id": "root", "module": "out", "attributes": []},
                {"id": "a", "module": "leaf", "attributes": list(attrs)},
            ],
            "edges": [("root", "a", weight)],
        },
        d=d,
    )


# ---------------------------------------------------------------------------
# Tuple sketch
# ---------------------------------------------------------------------------


def test_tuple_of_nothing_is_zero():
    reg = identity_registry()
    sk = tuple_sketch([], [], tuple_depth=1, registry=reg)
    assert np.all(sk.values == 0)


def test_tuple_identity_single_input_passthrough():
    reg = identity_registry()
    x = np.linspace(0, 1, reg.d)
    inp = Sketch(values=x, kind="object", depth=2, erased_prefix=reg.d)
    sk = tuple_sketch([inp], [1.0], tuple_depth=1, registry=reg)
    np.testing.assert_array_equal(sk.values, x)


def test_tuple_linearity_in_inputs():
    params = PARAMS_MED
    reg = MatrixRegistry(params, master_seed=3, allow_high_noise=True)
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal(params.d) for _ in range(3)]
    sks = [Sketch(values=x, kind="object", depth=2, erased_prefix=params.d) for x in xs]
    doubled = [Sketch(values=2 * x, kind="object", depth=2, erased_prefix=params.d) for x in xs]
    w = [0.2, 0.3, 0.5]
    a = tuple_sketch(sks, w, tuple_depth=1, registry=reg)
    b = tuple_sketch(doubled, w, tuple_depth=1, registry=reg)
    np.testing.assert_allclose(b.values, 2 * a.values, rtol=1e-12)


def test_tuple_weight_validation():
    reg = identity_registry()
    x = Sketch(values=np.zeros(reg.d), kind="object", depth=2, erased_prefix=reg.d)
    with pytest.raises(ParameterError):
        tuple_sketch([x, x], [0.7, 0.5], tuple_depth=1, registry=reg)
    with pytest.raises(ParameterError):
        tuple_sketch([x], [0.5, 0.5], tuple_depth=1, registry=reg)


# ---------------------------------------------------------------------------
# Subsketches, identity-mode hand values
# ---------------------------------------------------------------------------


def test_attribute_subsketch_identity_hand_value():
    net = single_leaf()
    reg = identity_registry()
    sk = attribute_subsketch(net.objects["a"], reg)
    want = np.zeros(reg.d)
    want[:3] = [0.3, 0.0, 0.4]  # x/2
    want[0] += 0.5  # e1/2
    np.testing.assert_allclose(sk.values, want)


def test_attribute_subsketch_zero_attributes():
    net = single_leaf(attrs=())
    reg = identity_registry()
    sk = attribute_subsketch(net.objects["a"], reg)
    want = np.zeros(reg.d)
    want[0] = 0.5
    np.testing.assert_allclose(sk.values, want)


def test_signature_mode_differs_only_by_third_term():
    net = single_leaf(d=PARAMS_MED.d)
    reg = MatrixRegistry(PARAMS_MED, master_seed=5, allow_high_noise=True)
    obj = net.objects["a"]
    plain = attribute_subsketch(obj, reg, signature_mode=False)
    signed = attribute_subsketch(obj, reg, signature_mode=True)
    e1 = np.zeros(reg.d)
    e1[0] = 1.0
    r1 = reg.module_matrix("leaf", 1)
    r2 = reg.module_matrix("leaf", 2)
    r3 = reg.module_matrix("leaf", 3)
    sig = object_signature(obj, reg.params.n_cap, reg.d)
    # plain uses halves, signature mode thirds: subtracting the shared parts
    # leaves exactly the signature term.
    diff = signed.values - (plain.values - (1 / 6) * (r1.matvec(obj.attributes) + r2.matvec(e1)))
    np.testing.assert_allclose(diff, r3.matvec(sig) / 3.0, atol=1e-12)


@pytest.mark.parametrize("mode", ["block-random", "orthonormal", "identity"])
def test_attribute_subsketch_bitwise_full_slot2(mode):
    # the cached first column stands in for R_{M,2} e_1 bit for bit
    params = PARAMS_MED if mode != "orthonormal" else BlockParams(b=39, q=0.3, d=546, n_cap=64)
    net = single_leaf(d=params.d)
    obj = net.objects["a"]
    reg = MatrixRegistry(params, master_seed=5, mode=mode, allow_high_noise=True)
    full = MatrixRegistry(params, master_seed=5, mode=mode, allow_high_noise=True)
    e1 = np.zeros(params.d)
    e1[0] = 1.0
    r1, r2, r3 = (full.module_matrix("leaf", slot) for slot in (1, 2, 3))
    plain = 0.5 * r1.matvec(obj.attributes) + 0.5 * r2.matvec(e1)
    sig = object_signature(obj, params.n_cap, params.d)
    signed = (r1.matvec(obj.attributes) + r2.matvec(e1) + r3.matvec(sig)) / 3.0
    assert attribute_subsketch(obj, reg).values.tobytes() == plain.tobytes()
    got = attribute_subsketch(obj, reg, signature_mode=True)
    assert got.values.tobytes() == signed.tobytes()


def test_object_signature_deterministic_and_sparse():
    net = single_leaf()
    sig1 = object_signature(net.objects["a"], 12, 64)
    sig2 = object_signature(net.objects["a"], 12, 64)
    np.testing.assert_array_equal(sig1, sig2)
    n_ones = int(np.ceil(np.log2(12)))
    assert np.count_nonzero(sig1) == n_ones
    np.testing.assert_allclose(np.linalg.norm(sig1), 1.0)


def test_single_leaf_identity_object_and_overall():
    net = single_leaf()
    reg = identity_registry()
    obj = object_sketches(net, reg)["a"]
    want = np.zeros(reg.d)
    want[:3] = [0.15, 0.0, 0.2]  # x/4
    want[0] += 0.25  # e1/4
    np.testing.assert_allclose(obj.values, want)
    top = overall_sketch(net, reg)
    np.testing.assert_allclose(top.values, want)
    assert top.kind == "overall"


def test_empty_network_overall_zero():
    net = build_network(
        {
            "modules": [{"id": "out", "output": True}],
            "objects": [{"id": "root", "module": "out", "attributes": []}],
            "edges": [],
        },
        d=24,
    )
    reg = identity_registry()
    assert np.all(overall_sketch(net, reg).values == 0)


def test_deep_chain_builds_roundtrips_and_sketches(tmp_path):
    # Neither validation nor sketching recurses over depth: a 5000-deep chain
    # (one module per level) goes through the whole pipeline.
    n = 5000
    spec = {
        "modules": [{"id": "out", "output": True}] + [{"id": f"m{i}"} for i in range(n)],
        "objects": [{"id": "root", "module": "out", "attributes": []}]
        + [{"id": f"o{i}", "module": f"m{i}", "attributes": [0.0, 1.0]} for i in range(n)],
        "edges": [("root", "o0", 1.0)] + [(f"o{i}", f"o{i + 1}", 1.0) for i in range(n - 1)],
    }
    net = build_network(spec, d=24)
    assert net.max_depth == n + 1
    path = tmp_path / "chain.txt"
    save_network(net, str(path))
    again = load_network(str(path))
    save_network(again, str(tmp_path / "chain2.txt"))
    assert (tmp_path / "chain2.txt").read_text() == path.read_text()
    # identity mode: object(h) = attr/2 + object(h+1)/2, so the overall
    # sketch is attr = (e1 + e2)/2 up to a 2^-5000 remainder
    sk = overall_sketch(again, identity_registry())
    want = np.zeros(24)
    want[:2] = 0.5
    np.testing.assert_allclose(sk.values, want)


def test_identical_subtrees_identical_object_sketches():
    net = build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": "m"}],
            "objects": [
                {"id": "root", "module": "out", "attributes": []},
                {"id": "a", "module": "m", "attributes": [1.0]},
                {"id": "b", "module": "m", "attributes": [1.0]},
            ],
            "edges": [("root", "a", 0.5), ("root", "b", 0.5)],
        },
        d=PARAMS_MED.d,
    )
    reg = MatrixRegistry(PARAMS_MED, master_seed=7, allow_high_noise=True)
    sketches = object_sketches(net, reg)
    np.testing.assert_array_equal(sketches["a"].values, sketches["b"].values)


# ---------------------------------------------------------------------------
# The level-synchronous pass against the per-object pass
# ---------------------------------------------------------------------------

D_PLAN = 288  # auto_params(288, n_cap).d == 288 for every n_cap used below


def mixed_network():
    """A zero edge weight, a child under two parents, a module whose objects
    sit at different positions, objects with zero attributes (one module has
    nothing else), an object whose only input has weight 0, leaves beside
    parents on one level, and an unreachable object."""
    producers = {"root": "out", "x1": "a", "x2": "a", "x3": "a", "y1": "b", "y2": "c", "y3": "c",
                 "y4": "b", "y5": "b", "y6": "e", "z1": "d", "u": "d"}
    attrs = {"y3": [], "y6": [], "x2": [0.0, 0.0, 2.0]}
    edges = [("root", "x1", 0.5), ("root", "x2", 0.0), ("root", "x3", 0.5), ("x1", "y1", 0.5), ("x1", "y2", 0.3),
             ("x1", "y6", 0.2), ("x2", "y5", 0.0), ("x3", "y3", 0.3), ("x3", "y4", 0.5), ("x3", "y1", 0.2),
             ("y4", "z1", 1.0)]
    objects = [{"id": o, "module": m, "attributes": attrs.get(o, [] if m == "out" else [0.3, 0.0, 0.4 + 0.1 * i, 0.2])}
               for i, (o, m) in enumerate(producers.items())]
    modules = [{"id": "out", "output": True}] + [{"id": m} for m in "abcde"]
    return build_network({"modules": modules, "objects": objects, "edges": edges}, d=D_PLAN)


def plan_case(kind, mode, seed=0):
    if kind == "mixed":
        net = mixed_network()
    else:
        n_modules, depth, fan_in, scheme = kind
        net = generate_synthetic(SyntheticProfile(n_modules, depth, fan_in, weight_scheme=scheme), seed=seed, d=D_PLAN)
    reg = MatrixRegistry(auto_params(D_PLAN, net.n_cap), master_seed=3 + seed, mode=mode, allow_high_noise=True)
    assert reg.d == D_PLAN
    return net, reg


def per_object_pass(net, reg, signature_mode=False):
    """The sketch pass one object at a time, deepest first: the oracle that
    the level pass must equal byte for byte.  Returns every object's sketch
    and the overall one."""

    def transparent(mat, x):
        return (x + mat.matvec(x)) * 0.5

    def tuple_of(values, weights, depth):
        acc = np.zeros(reg.d)
        for pos, (v, w) in enumerate(zip(values, weights), start=1):
            if w != 0.0:
                acc += w * transparent(reg.tuple_matrix(pos, depth), v)
        return acc

    out = {}
    for obj in sorted((o for o in net.objects.values() if o.depth >= 2), key=lambda o: -o.depth):
        r1x = reg.module_matrix(obj.producer, 1).matvec(obj.attributes)
        r2_e1 = reg.module_first_column(obj.producer).column(1)
        if signature_mode:
            sig = object_signature(obj, reg.params.n_cap, reg.d)
            attr = (r1x + r2_e1 + reg.module_matrix(obj.producer, 3).matvec(sig)) / 3.0
        else:
            attr = 0.5 * r1x + 0.5 * r2_e1
        inp = tuple_of([out[c] for c, _ in obj.inputs], [w for _, w in obj.inputs], 2 * obj.depth - 1)
        pair = tuple_of([attr, inp], [0.5, 0.5], 2 * (obj.depth - 1))
        out[obj.id] = transparent(reg.module_matrix(obj.producer, 0), pair)
    root = net.objects[net.output_object_id]
    return out, tuple_of([out[c] for c, _ in root.inputs], [w for _, w in root.inputs], 1)


# blake2b-128 of overall_sketch(...).values.tobytes(), recorded with the
# per-object pass; bytes, unlike array equality, tell -0.0 from +0.0.  The
# orthonormal digests also depend on the LAPACK and BLAS builds numpy uses.
GOLDEN_OVERALL = {
    ("teacher", "block-random", False): "b185b4853eec4ddef313020eca286c37",
    ("teacher", "block-random", True): "08b56d47307f40f02378ac61267fec22",
    ("teacher", "orthonormal", False): "89a53eec7ff19893df9d9ebb17cf23b0",
    ("teacher", "identity", False): "7742576a0b134506bf2a265181cc0280",
    ("mixed", "block-random", False): "778177c1f6cc21f9c2e81b643d62c7b9",
    ("mixed", "block-random", True): "863d50a67576c197ea3612e9ff586279",
    ("mixed", "orthonormal", False): "0e0bf70029bc6134fa3f7b844fb0832b",
}
TEACHER = (4, 4, 3, "random")  # depth 4, fan-in 3: 39 objects


@pytest.mark.parametrize("kind,mode,signature_mode", sorted(GOLDEN_OVERALL), ids=lambda v: str(v))
def test_overall_sketch_golden_digest(kind, mode, signature_mode):
    net, reg = plan_case(TEACHER if kind == "teacher" else kind, mode)
    values = overall_sketch(net, reg, signature_mode=signature_mode).values
    assert hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest() == GOLDEN_OVERALL[kind, mode, signature_mode]


@pytest.mark.parametrize(
    "kind,mode,signature_mode",
    [(TEACHER, "block-random", False), (TEACHER, "block-random", True), (TEACHER, "orthonormal", False),
     (TEACHER, "identity", False), ((3, 3, 2, "uniform"), "block-random", False),
     ((4, 5, 2, "random"), "block-random", True), ((5, 3, 4, "random"), "orthonormal", False),
     ((1, 2, 5, "uniform"), "block-random", False), ("mixed", "block-random", False),
     ("mixed", "block-random", True), ("mixed", "identity", False)],
    ids=lambda v: str(v),
)
@pytest.mark.parametrize("seed", [0, 1])
def test_level_pass_equals_per_object_pass_bytewise(kind, mode, signature_mode, seed):
    net, reg = plan_case(kind, mode, seed)
    want_objects, want_overall = per_object_pass(net, reg, signature_mode)
    got = object_sketches(net, reg, signature_mode)
    assert list(got) == list(want_objects)  # deepest first, network order within a depth
    for oid, values in want_objects.items():
        assert got[oid].values.tobytes() == values.tobytes(), oid
        assert (got[oid].kind, got[oid].depth, got[oid].erased_prefix) == ("object", net.objects[oid].depth, reg.d)
    overall = overall_sketch(net, reg, signature_mode)
    assert overall.values.tobytes() == want_overall.tobytes()
    assert (overall.kind, overall.depth, overall.signature_mode) == ("overall", 1, signature_mode)


def test_leaf_level_draws_no_input_tuple_matrix():
    # every depth-3 object is a leaf, so its empty input tuple skips the
    # product with t:2 at pair depth 4, and that matrix is never drawn
    net, reg = plan_case((3, 3, 2, "uniform"), "block-random")
    overall_sketch(net, reg)
    assert "t:2:2" in reg._cache and "t:1:4" in reg._cache
    assert "t:2:4" not in reg._cache


def quick_start_network():
    """The README quick start's teacher network: d=2070, 3 modules, depth 3."""
    return generate_synthetic(SyntheticProfile(3, 3, 2, weight_scheme="random"), seed=7, d=2070)


def test_overall_sketch_assembles_no_attribute_matrix():
    # R_{M,1} multiplies only the attribute block, whose rows are zero past
    # the attributes, so it is read only through sparse products and never
    # holds its entries; every other full matrix multiplies dense blocks
    net = quick_start_network()
    reg = MatrixRegistry(auto_params(net.d, net.n_cap), master_seed=7, allow_high_noise=True)
    overall_sketch(net, reg)
    unassembled = {key for key, mat in reg._cache.items() if mat._blocks_t is None}
    attribute_keys = {key for key in reg._cache if key.startswith("m:") and key.endswith(":1")}
    assert len(attribute_keys) == 2 and unassembled == attribute_keys
    assert all(reg._cache[key]._csc is None for key in unassembled)


def test_overall_determinism_and_seed_sensitivity():
    net = generate_synthetic(SyntheticProfile(3, 3, 2), seed=1, d=PARAMS_MED.d)
    reg1 = MatrixRegistry(PARAMS_MED, master_seed=11, allow_high_noise=True)
    reg2 = MatrixRegistry(PARAMS_MED, master_seed=11, allow_high_noise=True)
    reg3 = MatrixRegistry(PARAMS_MED, master_seed=12, allow_high_noise=True)
    s1 = overall_sketch(net, reg1)
    s2 = overall_sketch(net, reg2)
    s3 = overall_sketch(net, reg3)
    np.testing.assert_array_equal(s1.values, s2.values)
    assert not np.array_equal(s1.values, s3.values)


def test_overall_affine_in_attributes():
    net = single_leaf(d=PARAMS_MED.d)
    reg = MatrixRegistry(PARAMS_MED, master_seed=13, allow_high_noise=True)
    rng = np.random.default_rng(2)
    v1 = np.abs(rng.standard_normal(PARAMS_MED.d)) * 0.1
    v2 = np.abs(rng.standard_normal(PARAMS_MED.d)) * 0.1

    def sketch_with(attrs):
        net.objects["a"].attributes = attrs
        return overall_sketch(net, reg).values

    s0 = sketch_with(np.zeros(PARAMS_MED.d))
    s1 = sketch_with(v1)
    s2 = sketch_with(v2)
    s12 = sketch_with(v1 + v2)
    np.testing.assert_allclose(s12, s1 + s2 - s0, rtol=1e-9, atol=1e-12)


def test_unreachable_objects_do_not_contribute():
    spec = {
        "modules": [{"id": "out", "output": True}, {"id": "m"}, {"id": "stray"}],
        "objects": [
            {"id": "root", "module": "out", "attributes": []},
            {"id": "a", "module": "m", "attributes": [1.0]},
        ],
        "edges": [("root", "a", 1.0)],
    }
    base = build_network(spec, d=PARAMS_MED.d, n_cap=64)
    spec["objects"].append({"id": "s", "module": "stray", "attributes": [0.5, 0.5]})
    extended = build_network(spec, d=PARAMS_MED.d, n_cap=64)
    reg = MatrixRegistry(PARAMS_MED, master_seed=21, allow_high_noise=True)
    np.testing.assert_array_equal(
        overall_sketch(base, reg).values, overall_sketch(extended, reg).values
    )


def test_overall_norm_bounded():
    # ||overall|| stays below e^(1/2) for any desk network.
    for seed in range(4):
        net = generate_synthetic(
            SyntheticProfile(4, 4, 2, weight_scheme="random"), seed=seed, d=PARAMS_MED.d
        )
        reg = MatrixRegistry(PARAMS_MED, master_seed=seed, allow_high_noise=True)
        assert np.linalg.norm(overall_sketch(net, reg).values) <= math.e**0.5


def test_attribute_perturbation_contraction():
    # perturbing every attribute by <= eps in l2 moves the sketch <= eps/2
    eps = 0.3
    for seed in range(5):
        net = generate_synthetic(SyntheticProfile(3, 3, 2), seed=seed, d=PARAMS_MED.d)
        reg = MatrixRegistry(PARAMS_MED, master_seed=100 + seed, allow_high_noise=True)
        s = overall_sketch(net, reg).values
        rng = np.random.default_rng(seed)
        for obj in net.objects.values():
            if obj.id != net.output_object_id:
                delta = rng.standard_normal(net.d)
                delta *= eps / np.linalg.norm(delta)
                obj.attributes = obj.attributes + delta
        s_bar = overall_sketch(net, reg).values
        assert np.linalg.norm(s_bar - s) <= eps / 2


# ---------------------------------------------------------------------------
# Registry behavior
# ---------------------------------------------------------------------------


def test_registry_caches_and_keys():
    reg = MatrixRegistry(PARAMS_MED, master_seed=1, allow_high_noise=True)
    m1 = reg.module_matrix("cat", 1)
    assert reg.module_matrix("cat", 1) is m1
    assert m1.seed_key == "s1/m:cat:1"
    t1 = reg.tuple_matrix(2, 3)
    assert t1.seed_key == "s1/t:2:3"
    assert reg.tuple_matrix(2, 3) is t1
    # distinct depth -> distinct matrix
    t2 = reg.tuple_matrix(2, 5)
    assert (t1.csc != t2.csc).nnz > 0


def test_registry_dimension_floor():
    params = BlockParams(b=39, q=0.3, d=546, n_cap=64)
    strict = MatrixRegistry(params, master_seed=0)
    with pytest.raises(DimensionFloorError):
        strict.check_dimension_floor(6)
    MatrixRegistry(params, master_seed=0, allow_high_noise=True).check_dimension_floor(6)


# ---------------------------------------------------------------------------
# Prototypes
# ---------------------------------------------------------------------------


def test_prototype_a_orthonormal_exact_recovery():
    net = single_leaf(d=128)
    params = auto_params(128, 12)
    reg = MatrixRegistry(params, master_seed=2, mode="orthonormal", allow_high_noise=True)
    # pad network dimension to the aligned params dimension
    net = single_leaf(d=params.d)
    sk = prototype_a_overall(net, reg)
    r = reg.module_matrix("leaf", 1)
    recovered = r.rmatvec(sk.values)
    np.testing.assert_allclose(recovered, net.objects["a"].attributes, atol=1e-9)


def test_prototype_a_disjoint_modules_small_dot():
    params = PARAMS_MED
    dots = []
    for seed in range(10):
        reg = MatrixRegistry(params, master_seed=seed, allow_high_noise=True)
        net1 = build_network(
            {
                "modules": [{"id": "out", "output": True}, {"id": "m1"}],
                "objects": [
                    {"id": "root", "module": "out", "attributes": []},
                    {"id": "a", "module": "m1", "attributes": [1.0]},
                ],
                "edges": [("root", "a", 1.0)],
            },
            d=params.d,
        )
        net2 = build_network(
            {
                "modules": [{"id": "out", "output": True}, {"id": "m2"}],
                "objects": [
                    {"id": "root", "module": "out", "attributes": []},
                    {"id": "b", "module": "m2", "attributes": [0.5, 0.5]},
                ],
                "edges": [("root", "b", 1.0)],
            },
            d=params.d,
        )
        s1 = prototype_a_overall(net1, reg)
        s2 = prototype_a_overall(net2, reg)
        dots.append(abs(float(s1.values @ s2.values)))
    assert np.median(dots) <= 0.15


def test_prototype_a_shared_object_dot():
    params = PARAMS_MED
    w, w_bar = 0.9, 0.7
    # An attribute spread over several coordinates; a 1-2 sparse one would
    # expose the per-column norm fluctuation (sd ~ sqrt(b/(qd)) ~ 0.3 here)
    # rather than the claim's aggregate noise.
    attrs = [0.25] * 16
    for seed in range(5):
        reg = MatrixRegistry(params, master_seed=40 + seed, allow_high_noise=True)

        def flat_net(weight):
            return build_network(
                {
                    "modules": [{"id": "out", "output": True}, {"id": "m"}],
                    "objects": [
                        {"id": "root", "module": "out", "attributes": []},
                        {"id": "shared", "module": "m", "attributes": attrs},
                    ],
                    "edges": [("root", "shared", weight)],
                },
                d=params.d,
            )

        s1 = prototype_a_overall(flat_net(w), reg)
        s2 = prototype_a_overall(flat_net(w_bar), reg)
        assert float(s1.values @ s2.values) >= w * w_bar - 0.15


def test_prototypes_reject_deep_networks():
    net = generate_synthetic(SyntheticProfile(2, 3, 1), seed=0, d=PARAMS_MED.d)
    reg = MatrixRegistry(PARAMS_MED, master_seed=0, allow_high_noise=True)
    with pytest.raises(PrototypeScopeError):
        prototype_a_overall(net, reg)
    with pytest.raises(PrototypeScopeError):
        prototype_b_overall(net, reg)


# ---------------------------------------------------------------------------
# A network of another dimension than the registry's
# ---------------------------------------------------------------------------


def mismatched_pair(mode="block-random"):
    """A 2070-d flat network and a 1014-d registry, block-random by default."""
    return single_leaf(d=2070), MatrixRegistry(auto_params(1014, 8), master_seed=0, mode=mode, allow_high_noise=True)


def test_object_sketches_refuse_another_dimension():
    net, reg = mismatched_pair()
    with pytest.raises(DimensionMismatchError):
        object_sketches(net, reg)


def test_attribute_subsketch_refuses_another_dimension():
    net, reg = mismatched_pair()
    with pytest.raises(DimensionMismatchError):
        attribute_subsketch(net.objects["a"], reg)


def test_prototype_b_refuses_another_dimension():
    net, reg = mismatched_pair()
    with pytest.raises(DimensionMismatchError):
        prototype_b_overall(net, reg)


def test_prototype_a_refuses_another_dimension():
    net, reg = mismatched_pair()
    with pytest.raises(DimensionMismatchError):
        prototype_a_overall(net, reg)


@pytest.mark.parametrize(
    "sketch_of",
    [
        object_sketches,
        lambda net, reg: attribute_subsketch(net.objects["a"], reg),
        prototype_a_overall,
        prototype_b_overall,
    ],
    ids=["object_sketches", "attribute_subsketch", "prototype_a_overall", "prototype_b_overall"],
)
@pytest.mark.parametrize("mode", ["orthonormal", "identity"])
def test_other_matrix_modes_refuse_another_dimension(mode, sketch_of):
    net, reg = mismatched_pair(mode)
    with pytest.raises(DimensionMismatchError):
        sketch_of(net, reg)


# ---------------------------------------------------------------------------
# Erasure and files
# ---------------------------------------------------------------------------


def test_erase_full_prefix_identity():
    sk = Sketch(values=np.arange(8.0), kind="overall", depth=1, erased_prefix=8)
    same = erase_to_prefix(sk, 8)
    np.testing.assert_array_equal(same.values, sk.values)
    assert same.erased_prefix == 8


def test_erase_halves_norm_bound_and_idempotence():
    rng = np.random.default_rng(0)
    sk = Sketch(values=rng.standard_normal(16), kind="overall", depth=1, erased_prefix=16)
    half = erase_to_prefix(sk, 8)
    assert np.linalg.norm(half.values) <= np.linalg.norm(sk.values)
    assert np.all(half.values[8:] == 0)
    quarter_direct = erase_to_prefix(sk, 4)
    quarter_two_step = erase_to_prefix(half, 4)
    np.testing.assert_array_equal(quarter_direct.values, quarter_two_step.values)
    assert quarter_two_step.erased_prefix == 4


def test_erase_rejects_bad_prefix():
    sk = Sketch(values=np.zeros(8), kind="overall", depth=1, erased_prefix=8)
    with pytest.raises(ParameterError):
        erase_to_prefix(sk, 0)
    with pytest.raises(ParameterError):
        erase_to_prefix(sk, 9)


def test_sketch_file_roundtrip(tmp_path):
    net = single_leaf(d=PARAMS_MED.d)
    reg = MatrixRegistry(PARAMS_MED, master_seed=3, allow_high_noise=True)
    sk = overall_sketch(net, reg)
    path = tmp_path / "s.sketch"
    save_sketch(sk, str(path), reg.seed_fingerprint())
    loaded, fp = load_sketch(str(path))
    np.testing.assert_array_equal(loaded.values, sk.values)
    assert loaded.kind == sk.kind and loaded.erased_prefix == sk.erased_prefix
    assert fp == reg.seed_fingerprint()
    csv_path = tmp_path / "s.csv"
    export_sketch_csv(sk, str(csv_path))
    first = csv_path.read_text().splitlines()
    assert first[0] == "index,value"
    assert len(first) == PARAMS_MED.d + 1


@pytest.mark.parametrize(
    "change, fingerprint, message",
    [
        ({"kind": "bogus"}, "", "unknown sketch kind 'bogus'"),
        ({"values": np.array([0.5, np.nan, 0.0])}, "", "sketch values must be finite, value 1 is nan"),
        ({"depth": 1.0}, "", "sketch depth must be an integer >= 1, got 1.0"),
        ({"erased_prefix": 4}, "", "erased prefix must be an integer in [1, 3], got 4"),
        ({"signature_mode": "no"}, "", "signature mode must be a boolean, got 'no'"),
        ({"values": np.ones((3, 2))}, "", "sketch values must be a 1-D array of real numbers, got 2-D float64"),
        ({"values": np.array(["0.5", "1", "0"])}, "", "sketch values must be a 1-D array of real numbers, got 1-D <U3"),
        ({}, "a b", "seed fingerprint 'a b' must be ASCII without whitespace"),
        ({}, "ab\n", "seed fingerprint 'ab\\n' must be ASCII without whitespace"),
        ({}, "\t", "seed fingerprint '\\t' must be ASCII without whitespace"),
        ({}, "séed", "seed fingerprint 'séed' must be ASCII without whitespace"),
    ],
    ids=["kind-bogus", "nan", "depth-float", "prefix-above-d", "signature-str", "values-2d", "values-str",
         "fingerprint-space", "fingerprint-newline", "fingerprint-tab", "fingerprint-non-ascii"],
)
def test_save_sketch_refuses_what_load_sketch_would_refuse(tmp_path, change, fingerprint, message):
    good = Sketch(values=np.array([0.5, -0.25, 0.0]), kind="overall", depth=1, erased_prefix=3)
    path = tmp_path / "s.sketch"
    save_sketch(good, str(path), "0123abcd")
    before = path.read_bytes()
    with pytest.raises(ParameterError, match=re.escape(message)):
        save_sketch(Sketch(**{**vars(good), **change}), str(path), fingerprint)
    with pytest.raises(ParameterError, match=re.escape(message)):
        save_sketch(Sketch(**{**vars(good), **change}), str(tmp_path / "new.sketch"), fingerprint)
    assert path.read_bytes() == before and not (tmp_path / "new.sketch").exists()
    loaded, fp = load_sketch(str(path))
    assert (loaded.values.tobytes(), fp) == (good.values.tobytes(), "0123abcd")


def test_save_sketch_writes_a_numpy_integer_depth_as_its_int(tmp_path):
    values = np.array([0.5, -0.25, 0.0])
    save_sketch(Sketch(values, "object", np.int64(2), np.uint8(2), np.True_), str(tmp_path / "np.sketch"))
    save_sketch(Sketch(values, "object", 2, 2, True), str(tmp_path / "int.sketch"))
    assert (tmp_path / "np.sketch").read_bytes() == (tmp_path / "int.sketch").read_bytes()
    loaded, _ = load_sketch(str(tmp_path / "np.sketch"))
    assert (loaded.depth, loaded.erased_prefix, loaded.signature_mode) == (2, 2, True)


def test_public_builders_keep_the_signature_mode():
    # root -> a (module m) -> b (module leaf): the tuple of a's object sketch
    # is the overall sketch, bit for bit, and must recover as the overall does
    params = auto_params(1024, 8)
    net = build_network({"modules": [{"id": "out", "output": True}, {"id": "m"}, {"id": "leaf"}],
                         "objects": [{"id": "root", "module": "out"}, {"id": "a", "module": "m", "attributes": [1.0]},
                                     {"id": "b", "module": "leaf", "attributes": [0.5, 0.1, 0.3]}],
                         "edges": [("root", "a", 1.0), ("a", "b", 1.0)]}, d=params.d)
    reg = MatrixRegistry(params, master_seed=3, allow_high_noise=True)
    overall = overall_sketch(net, reg, signature_mode=True)
    objects = object_sketches(net, reg, signature_mode=True)
    assert [sk.signature_mode for sk in objects.values()] == [True, True]
    assert attribute_subsketch(net.objects["b"], reg, signature_mode=True).signature_mode
    assert not attribute_subsketch(net.objects["b"], reg).signature_mode
    rebuilt = tuple_sketch([objects["a"]], [1.0], 1, reg)
    assert rebuilt.signature_mode and rebuilt.values.tobytes() == overall.values.tobytes()
    frequency = recover_frequency(overall, "leaf", 3, 1.0, reg).estimate
    assert recover_frequency(rebuilt, "leaf", 3, 1.0, reg).estimate == frequency
    assert not tuple_sketch([], [], 1, reg).signature_mode


def test_a_numpy_integer_names_the_matrix_its_int_names():
    reg = MatrixRegistry(PARAMS_SMALL, master_seed=np.int64(7))
    assert reg.seed_fingerprint() == MatrixRegistry(PARAMS_SMALL, master_seed=7).seed_fingerprint()
    assert reg.module_matrix("m", np.int64(1)) is reg.module_matrix("m", 1)
    assert reg.tuple_matrix(np.int32(2), np.uint8(3)) is reg.tuple_matrix(2, 3)
    assert sorted(reg._cache) == ["m:m:1", "t:2:3"]
    twin = MatrixRegistry(PARAMS_SMALL, master_seed=7)
    assert np.array_equal(reg.module_matrix("m", 1).column(1), twin.module_matrix("m", 1).column(1))
