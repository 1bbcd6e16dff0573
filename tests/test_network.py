"""Tests for the communication-graph model and its serialization."""

from __future__ import annotations

import numpy as np
import pytest

from modsketch.network import (
    CycleError,
    DepthConsistencyError,
    OutputModuleError,
    SyntheticProfile,
    UnknownFieldError,
    WeightSumError,
    build_network,
    effective_weight,
    generate_synthetic,
    load_network,
    save_network,
)

D = 32


def single_leaf_spec(weight=1.0):
    return {
        "modules": [{"id": "out", "output": True}, {"id": "leaf"}],
        "objects": [
            {"id": "root", "module": "out", "attributes": []},
            {"id": "a", "module": "leaf", "attributes": [0.6, 0.0, 0.8]},
        ],
        "edges": [("root", "a", weight)],
    }


def test_single_leaf_depths():
    net = build_network(single_leaf_spec(), d=D)
    assert net.objects["root"].depth == 1
    assert net.objects["a"].depth == 2
    assert net.max_depth == 2
    assert net.recursion_budget == 6


def test_attributes_padded_and_normalized():
    net = build_network(single_leaf_spec(), d=D)
    attrs = net.objects["a"].attributes
    assert attrs.shape == (D,)
    np.testing.assert_allclose(np.linalg.norm(attrs), 1.0)
    np.testing.assert_allclose(attrs[:3], [0.6, 0.0, 0.8])
    assert np.all(attrs[3:] == 0)


def test_empty_inputs_allowed():
    net = build_network(single_leaf_spec(), d=D)
    assert net.objects["a"].inputs == []


def test_weight_sum_violation():
    spec = single_leaf_spec()
    spec["objects"].append({"id": "b", "module": "leaf2", "attributes": [1.0]})
    spec["modules"].append({"id": "leaf2"})
    spec["edges"] = [("root", "a", 0.7), ("root", "b", 0.5)]
    with pytest.raises(WeightSumError):
        build_network(spec, d=D)


def test_cycle_detection():
    spec = single_leaf_spec()
    spec["objects"].append({"id": "b", "module": "leaf2", "attributes": [1.0]})
    spec["modules"].append({"id": "leaf2"})
    spec["edges"] = [("root", "a", 0.5), ("a", "b", 0.5), ("b", "a", 0.5)]
    with pytest.raises(CycleError):
        build_network(spec, d=D)


def test_depth_consistency_enforced():
    # "a" would be reachable at depths 2 and 3.
    spec = single_leaf_spec(weight=0.5)
    spec["modules"].append({"id": "mid"})
    spec["objects"].append({"id": "m1", "module": "mid", "attributes": [1.0]})
    spec["edges"].append(("root", "m1", 0.4))
    spec["edges"].append(("m1", "a", 1.0))
    with pytest.raises(DepthConsistencyError):
        build_network(spec, d=D)


def test_missing_output_module():
    spec = single_leaf_spec()
    spec["modules"][0]["output"] = False
    with pytest.raises(OutputModuleError):
        build_network(spec, d=D)


def test_effective_weight_example():
    # 10% into the mid object, mid 50% into the output -> 5%.
    spec = {
        "modules": [{"id": "out", "output": True}, {"id": "mid"}, {"id": "leaf"}],
        "objects": [
            {"id": "root", "module": "out", "attributes": []},
            {"id": "cat", "module": "mid", "attributes": [1.0]},
            {"id": "edge", "module": "leaf", "attributes": [1.0]},
        ],
        "edges": [("root", "cat", 0.5), ("cat", "edge", 0.1)],
    }
    net = build_network(spec, d=D)
    assert effective_weight(net, ["root", "cat", "edge"]) == pytest.approx(0.05)
    assert effective_weight(net, ["root"]) == 1.0
    assert effective_weight(net, ["root", "cat"]) == pytest.approx(0.5)


def test_effective_weight_two_halves():
    net = build_network(single_leaf_spec(weight=0.5), d=D)
    spec = single_leaf_spec(weight=0.5)
    spec["modules"].append({"id": "leaf2"})
    spec["objects"].append({"id": "b", "module": "leaf2", "attributes": [1.0]})
    spec["edges"].append(("a", "b", 0.5))
    net = build_network(spec, d=D)
    assert effective_weight(net, ["root", "a", "b"]) == pytest.approx(0.25)


def test_effective_weight_missing_edge():
    net = build_network(single_leaf_spec(), d=D)
    with pytest.raises(Exception):
        effective_weight(net, ["root", "nope"])


def test_synthetic_minimal_matches_single_leaf_shape():
    prof = SyntheticProfile(n_modules=1, depth=2, fan_in=1, attr_sparsity=2)
    net = generate_synthetic(prof, seed=0, d=D)
    assert net.max_depth == 2
    leaves = [o for o in net.objects.values() if o.depth == 2]
    assert len(leaves) == 1
    assert net.objects[net.output_object_id].inputs[0][1] == 1.0


def saved_text(net, path):
    save_network(net, str(path))
    return path.read_text()


def test_synthetic_deterministic(tmp_path):
    prof = SyntheticProfile(n_modules=3, depth=3, fan_in=2, weight_scheme="random")
    a = saved_text(generate_synthetic(prof, seed=42, d=D), tmp_path / "a.txt")
    b = saved_text(generate_synthetic(prof, seed=42, d=D), tmp_path / "b.txt")
    assert a == b
    c = saved_text(generate_synthetic(prof, seed=43, d=D), tmp_path / "c.txt")
    assert a != c


def test_synthetic_uniform_weights():
    prof = SyntheticProfile(n_modules=2, depth=3, fan_in=3)
    net = generate_synthetic(prof, seed=1, d=D)
    for obj in net.objects.values():
        if obj.inputs:
            for _, w in obj.inputs:
                assert w == pytest.approx(1.0 / 3.0)


def test_synthetic_always_validates():
    for seed in range(5):
        prof = SyntheticProfile(n_modules=4, depth=4, fan_in=2, weight_scheme="random")
        net = generate_synthetic(prof, seed=seed, d=64)
        # level-by-level effective weights form sub-convex combinations
        for depth in range(2, net.max_depth + 1):
            total = 0.0
            for obj in net.objects.values():
                if obj.depth == depth - 1:
                    total_children = sum(w for _, w in obj.inputs)
                    assert total_children <= 1 + 1e-9
            del total


def test_save_load_roundtrip(tmp_path):
    prof = SyntheticProfile(n_modules=3, depth=3, fan_in=2, weight_scheme="random")
    net = generate_synthetic(prof, seed=9, d=D)
    path = tmp_path / "net.txt"
    save_network(net, str(path))
    again = load_network(str(path))
    # bit-exact on a second save
    assert saved_text(again, tmp_path / "net2.txt") == path.read_text()


def test_load_unknown_field(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[network]\ndimension = 8\nwibble = 3\n")
    with pytest.raises(UnknownFieldError) as err:
        load_network(str(path))
    assert "wibble" in str(err.value)


def test_load_short_attributes_zero_padded(tmp_path):
    net = build_network(single_leaf_spec(), d=D)
    path = tmp_path / "n.txt"
    save_network(net, str(path))
    again = load_network(str(path))
    assert again.objects["a"].attributes.shape == (D,)
    np.testing.assert_allclose(again.objects["a"].attributes, net.objects["a"].attributes)


def test_unreachable_objects_keep_depth_zero():
    spec = single_leaf_spec()
    spec["modules"].append({"id": "stray"})
    spec["objects"].append({"id": "s", "module": "stray", "attributes": [1.0]})
    net = build_network(spec, d=D)
    assert net.objects["s"].depth == 0
