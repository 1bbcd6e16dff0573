"""Tests for sketch interrogation: attributes, statistics, similarity,
signatures, and erased-prefix variants."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from modsketch.block_random import DimensionMismatchError, ParameterError, auto_params
from modsketch.network import SyntheticProfile, build_network, effective_weight, generate_synthetic
from modsketch.recovery import (
    EmptyClassError,
    ModeMismatchError,
    PathStep,
    RecoveryError,
    beta_factor,
    predicted_error,
    recover_attributes_by_path,
    recover_attributes_unique,
    recover_frequency,
    recover_mean_attributes,
    recover_signature,
    recover_summed_attributes,
    report_csv_header,
    report_csv_row,
    sketch_similarity,
    _column_contract,
)
from modsketch.sketcher import (
    MatrixRegistry,
    erase_to_prefix,
    object_signature,
    overall_sketch,
)

ATTRS = [0.6, 0.0, 0.8]


def leaf_net(d, weight=1.0, attrs=ATTRS, module="leaf"):
    return build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": module}],
            "objects": [
                {"id": "root", "module": "out", "attributes": []},
                {"id": "a", "module": module, "attributes": list(attrs)},
            ],
            "edges": [("root", "a", weight)],
        },
        d=d,
    )


def chain_net(d, w1=0.6, w2=0.5, attrs=ATTRS):
    return build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": "mid"}, {"id": "deep"}],
            "objects": [
                {"id": "root", "module": "out", "attributes": []},
                {"id": "m", "module": "mid", "attributes": [1.0]},
                {"id": "b", "module": "deep", "attributes": list(attrs)},
            ],
            "edges": [("root", "m", w1), ("m", "b", w2)],
        },
        d=d,
    )


def registry_for(d, n_cap=64, seed=0, mode="block-random", q=None):
    params = auto_params(d, n_cap, q=q)
    return MatrixRegistry(params, master_seed=seed, mode=mode, allow_high_noise=True)


# ---------------------------------------------------------------------------
# The depth scaling: pinned exactly in orthonormal mode
# ---------------------------------------------------------------------------


def test_beta_values():
    assert beta_factor(2, 1.0) == 32.0
    assert beta_factor(3, 1.0) == 512.0
    assert beta_factor(2, 0.5) == 64.0
    assert beta_factor(2, 1.0, signature_mode=True) == 48.0
    with pytest.raises(ParameterError, match=r"^depth must be an integer >= 2, got 1$"):
        beta_factor(1, 1.0)
    # 2^(4h-4) leaves float range at h = 257
    assert beta_factor(256, 1.0) == 2.0**1021
    with pytest.raises(RecoveryError):
        beta_factor(257, 1.0)


def test_beta_beyond_float_range_is_an_error():
    # 2^796 / 1e-300 is past the largest float
    with pytest.raises(RecoveryError):
        beta_factor(200, 1e-300)


def test_predicted_error_of_a_tiny_weight_is_an_error():
    with pytest.raises(RecoveryError):
        predicted_error(200, 1e-300, registry_for(1014))


def test_predicted_error_beyond_float_range_is_an_error():
    # beta = 2^1021 is finite, but beta * h * delta * coefficient is not
    reg = registry_for(1014)
    with pytest.raises(RecoveryError):
        predicted_error(256, 1.0, reg)
    sk = overall_sketch(leaf_net(reg.params.d), reg)
    with pytest.raises(RecoveryError):
        recover_frequency(sk, "leaf", 256, 1.0, reg)


def test_depth2_scaling_orthonormal():
    # Orthonormal matrices make the contraction exact up to cross terms that
    # average out over seeds; a wrong beta would bias the estimate by 2x.
    reg0 = registry_for(512, mode="orthonormal", seed=0)
    d = reg0.params.d
    net = leaf_net(d)
    estimates = []
    for seed in range(6):
        reg = registry_for(512, mode="orthonormal", seed=seed)
        sk = overall_sketch(net, reg)
        rep = recover_attributes_unique(sk, "leaf", h=2, w=1.0, registry=reg)
        estimates.append(rep.estimate[:3])
    mean_est = np.mean(estimates, axis=0)
    np.testing.assert_allclose(mean_est, ATTRS, atol=0.12)


def test_depth3_attenuation_is_2_pow_4h_minus_3():
    # At h=3 the attribute routes carry coefficient w * 2^-9 (beta = 512);
    # the alternatives 2^-(3h-1) / 2^-(3h+1) would measure 2x / 0.5x here.
    # Differencing against the zero-attribute sketch isolates those routes
    # exactly (the construction is affine in attributes), leaving only the
    # object's own 2^6 - 1 rotated routes as noise.
    reg0 = registry_for(2048, seed=0)
    d = reg0.params.d
    ratios = []
    for seed in range(20):
        reg = registry_for(2048, seed=900 + seed)
        net = chain_net(d, w1=0.9, w2=1.0)
        sk = overall_sketch(net, reg)
        net.objects["b"].attributes = np.zeros(d)
        sk_zero = overall_sketch(net, reg)
        x_full = np.zeros(d)
        x_full[:3] = ATTRS
        signal_dir = reg.module_matrix("deep", 1).matvec(x_full)
        coeff = float((sk.values - sk_zero.values) @ signal_dir) / float(
            signal_dir @ signal_dir
        )
        ratios.append(coeff * (2**9) / 0.9)
    mean_ratio = float(np.mean(ratios))
    assert 0.8 <= mean_ratio <= 1.25


# ---------------------------------------------------------------------------
# Attribute recovery, block-random
# ---------------------------------------------------------------------------


def test_attr_recovery_single_leaf():
    errors = []
    for seed in range(16):
        reg = registry_for(2048, seed=seed)
        net = leaf_net(reg.params.d)
        sk = overall_sketch(net, reg)
        rep = recover_attributes_unique(sk, "leaf", h=2, w=1.0, registry=reg)
        errors.append(np.max(np.abs(rep.estimate[:3] - ATTRS)))
    assert np.median(errors) <= 0.2


def test_attr_recovery_zero_attributes_stays_low():
    reg = registry_for(2048, seed=3)
    net = leaf_net(reg.params.d, attrs=())
    sk = overall_sketch(net, reg)
    rep = recover_attributes_unique(sk, "leaf", h=2, w=1.0, registry=reg)
    assert np.max(np.abs(rep.estimate[:8])) <= 3 * rep.predicted_error


def test_quantized_attributes_recovered_exactly():
    # entries on the 0.25 grid; rounding the estimate recovers them exactly
    # whenever the noise stays under 0.125
    grid_attrs = [0.5, 0.25, 0.0, 0.75]
    hits = 0
    for seed in range(6):
        reg = registry_for(6144, seed=40 + seed)
        net = leaf_net(reg.params.d, attrs=grid_attrs)
        truth = net.objects["a"].attributes[:4]
        sk = overall_sketch(net, reg)
        rep = recover_attributes_unique(sk, "leaf", h=2, w=1.0, registry=reg)
        rounded = np.round(np.asarray(rep.estimate[:4]) / 0.25) * 0.25
        want = np.round(truth / 0.25) * 0.25
        hits += int(np.array_equal(rounded, want))
    assert hits >= 5


def test_recovery_linear_in_sketch():
    reg = registry_for(1024, seed=7)
    net = leaf_net(reg.params.d)
    s1 = overall_sketch(net, reg)
    s2 = overall_sketch(leaf_net(reg.params.d, attrs=[1.0]), reg)
    mix = replace(s1, values=0.3 * s1.values + 0.6 * s2.values)
    r1 = recover_attributes_unique(s1, "leaf", 2, 1.0, reg).estimate
    r2 = recover_attributes_unique(s2, "leaf", 2, 1.0, reg).estimate
    rmix = recover_attributes_unique(mix, "leaf", 2, 1.0, reg).estimate
    np.testing.assert_allclose(rmix, 0.3 * r1 + 0.6 * r2, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Path-disambiguated recovery
# ---------------------------------------------------------------------------


def two_same_module_net(d, attrs_a, attrs_b):
    return build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": "m"}],
            "objects": [
                {"id": "root", "module": "out", "attributes": []},
                {"id": "a", "module": "m", "attributes": attrs_a},
                {"id": "b", "module": "m", "attributes": attrs_b},
            ],
            "edges": [("root", "a", 0.5), ("root", "b", 0.5)],
        },
        d=d,
    )


def test_path_recovery_disambiguates_module_reuse():
    attrs_a = [0.0, 1.0]
    attrs_b = [1.0, 0.0]
    err_a = []
    err_b = []
    for seed in range(8):
        reg = registry_for(4096, seed=seed)
        net = two_same_module_net(reg.params.d, attrs_a, attrs_b)
        sk = overall_sketch(net, reg)
        rep_a = recover_attributes_by_path(sk, [PathStep(1, "m")], reg, w=0.5)
        rep_b = recover_attributes_by_path(sk, [PathStep(2, "m")], reg, w=0.5)
        err_a.append(np.max(np.abs(rep_a.estimate[:2] - attrs_a)))
        err_b.append(np.max(np.abs(rep_b.estimate[:2] - attrs_b)))
    assert np.median(err_a) <= 0.25
    assert np.median(err_b) <= 0.25


def test_wrong_path_gives_no_false_attribute():
    attrs_a = [0.0, 1.0]
    contamination = []
    for seed in range(8):
        reg = registry_for(4096, seed=50 + seed)
        net = two_same_module_net(reg.params.d, attrs_a, attrs_a)
        sk = overall_sketch(net, reg)
        # position 3 was never used by the network
        rep = recover_attributes_by_path(sk, [PathStep(3, "m")], reg, w=0.5)
        contamination.append(np.max(np.abs(rep.estimate[:2])))
    reg = registry_for(4096, seed=0)
    threshold = 3 * predicted_error(2, 0.5, reg)
    assert np.median(contamination) <= threshold


def test_path_agrees_with_unique_when_unique():
    for seed in range(4):
        reg = registry_for(2048, seed=80 + seed)
        net = leaf_net(reg.params.d, weight=0.8)
        sk = overall_sketch(net, reg)
        uni = recover_attributes_unique(sk, "leaf", 2, 0.8, reg)
        via_path = recover_attributes_by_path(sk, [PathStep(1, "leaf")], reg, w=0.8)
        gap = np.max(np.abs(uni.estimate[:3] - via_path.estimate[:3]))
        assert gap <= 2 * (uni.predicted_error + via_path.predicted_error)


def test_path_recovery_assembles_only_what_it_reads_transposed():
    # as a recover command does: a fresh registry draws only the matrices
    # the path reads, each read transposed, so none builds its CSC row
    # indices; the estimate has the bits of one taken on the sketch's own
    # registry, whose walk matrices were assembled whole by the sketch
    net = generate_synthetic(SyntheticProfile(3, 3, 2, weight_scheme="random"), seed=7, d=2070)
    params = auto_params(net.d, net.n_cap)
    sketched = MatrixRegistry(params, master_seed=7, allow_high_noise=True)
    sk = overall_sketch(net, sketched)
    ids, path, obj = [net.output_object_id], [], net.objects[net.output_object_id]
    while obj.inputs:
        obj = net.objects[obj.inputs[0][0]]
        ids.append(obj.id)
        path.append(PathStep(1, obj.producer))
    w = effective_weight(net, ids)
    fresh = MatrixRegistry(params, master_seed=7, allow_high_noise=True)
    got = recover_attributes_by_path(sk, path, fresh, w)
    assert len(fresh._cache) == 3 * len(path) + 1
    assert all(mat._blocks_t is not None and mat._csc is None for mat in fresh._cache.values())
    assert got.estimate.tobytes() == recover_attributes_by_path(sk, path, sketched, w).estimate.tobytes()


def test_path_recovery_validates():
    reg = registry_for(512, seed=1)
    net = leaf_net(reg.params.d)
    sk = overall_sketch(net, reg)
    with pytest.raises(RecoveryError):
        recover_attributes_by_path(sk, [], reg, w=1.0)


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


def counting_net(d, k, module="m"):
    objects = [{"id": "root", "module": "out", "attributes": []}]
    edges = []
    for i in range(k):
        objects.append({"id": f"o{i}", "module": module, "attributes": [1.0]})
        edges.append(("root", f"o{i}", 1.0 / max(k, 1)))
    return build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": module}],
            "objects": objects,
            "edges": edges,
        },
        d=d,
        n_cap=64,
    )


@pytest.mark.parametrize("k", [0, 1, 3])
def test_frequency_counts_round_exactly(k):
    exact = 0
    seeds = range(5)
    for seed in seeds:
        reg = registry_for(4096, seed=300 + seed)
        d = reg.params.d
        net = counting_net(d, k) if k > 0 else leaf_net(d, module="other")
        sk = overall_sketch(net, reg)
        w_star = 1.0 / k if k else 1.0
        rep = recover_frequency(sk, "m", h=2, w_star=w_star, registry=reg)
        exact += int(rep.rounded == k)
    assert exact >= len(list(seeds)) - 1


def test_summed_and_mean_attributes():
    a = [1.0, 0.0]
    b = [0.0, 1.0]
    for seed in range(4):
        reg = registry_for(4096, seed=400 + seed)
        net = two_same_module_net(reg.params.d, a, b)
        sk = overall_sketch(net, reg)
        summed = recover_summed_attributes(sk, "m", h=2, w_star=0.5, registry=reg)
        np.testing.assert_allclose(summed.estimate[:2], [1.0, 1.0], atol=0.35)
        mean = recover_mean_attributes(sk, "m", h=2, w_star=0.5, registry=reg)
        assert mean.rounded == 2
        np.testing.assert_allclose(mean.estimate[:2], [0.5, 0.5], atol=0.2)


def test_mean_identical_objects_matches_common_attribute():
    reg = registry_for(4096, seed=5)
    net = counting_net(reg.params.d, 3)
    sk = overall_sketch(net, reg)
    mean = recover_mean_attributes(sk, "m", h=2, w_star=1.0 / 3, registry=reg)
    assert mean.rounded == 3
    assert abs(mean.estimate[0] - 1.0) < 0.25


def test_mean_empty_class_raises():
    reg = registry_for(1024, seed=6)
    net = leaf_net(reg.params.d, module="other")
    sk = overall_sketch(net, reg)
    with pytest.raises(EmptyClassError):
        recover_mean_attributes(sk, "m", h=2, w_star=1.0, registry=reg)


def test_single_object_summed_matches_unique():
    reg = registry_for(1024, seed=8)
    net = leaf_net(reg.params.d)
    sk = overall_sketch(net, reg)
    uni = recover_attributes_unique(sk, "leaf", 2, 1.0, reg)
    summed = recover_summed_attributes(sk, "leaf", 2, 1.0, reg)
    np.testing.assert_array_equal(uni.estimate, summed.estimate)


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------


def test_similarity_self_is_squared_norm():
    reg = registry_for(1024, seed=9)
    net = leaf_net(reg.params.d)
    sk = overall_sketch(net, reg)
    assert sketch_similarity(sk, sk) == pytest.approx(float(sk.values @ sk.values))


def test_similarity_dimension_checks():
    reg = registry_for(1024, seed=9)
    net = leaf_net(reg.params.d)
    sk = overall_sketch(net, reg)
    other = erase_to_prefix(sk, sk.d // 2)
    with pytest.raises(ParameterError):
        sketch_similarity(sk, other)


def test_similarity_symmetric_bilinear():
    reg = registry_for(1024, seed=10)
    s1 = overall_sketch(leaf_net(reg.params.d), reg)
    s2 = overall_sketch(leaf_net(reg.params.d, attrs=[1.0]), reg)
    assert sketch_similarity(s1, s2) == pytest.approx(sketch_similarity(s2, s1))
    mix = replace(s1, values=2.0 * s1.values)
    assert sketch_similarity(mix, s2) == pytest.approx(2 * sketch_similarity(s1, s2))


# ---------------------------------------------------------------------------
# Signature recovery
# ---------------------------------------------------------------------------


def test_signature_roundtrip_large_d():
    reg = registry_for(8192, n_cap=8, seed=11)
    net = leaf_net(reg.params.d)
    truth = object_signature(net.objects["a"], reg.params.n_cap, reg.params.d)
    sk = overall_sketch(net, reg, signature_mode=True)
    rep = recover_signature(sk, "leaf", h=2, w=1.0, registry=reg)
    assert rep.extras["matched"]
    np.testing.assert_array_equal(rep.estimate, truth)


def test_signature_sketch_recoveries_read_mode_from_sketch():
    # signature mode scales attribute terms by 1/3 instead of 1/2; every
    # recovery must take that from the sketch, and erasure must keep it
    reg = registry_for(8192, n_cap=8, seed=11)
    net = leaf_net(reg.params.d)
    sk = overall_sketch(net, reg, signature_mode=True)
    assert recover_frequency(sk, "leaf", 2, 1.0, reg).estimate == pytest.approx(1.0, abs=0.2)
    attrs = recover_attributes_unique(sk, "leaf", 2, 1.0, reg).estimate[:3]
    assert np.max(np.abs(attrs - ATTRS)) < 0.1
    rep = recover_signature(erase_to_prefix(sk, sk.d * 9 // 10), "leaf", h=2, w=1.0, registry=reg)
    assert rep.extras["matched"]
    truth = object_signature(net.objects["a"], reg.params.n_cap, reg.params.d)
    np.testing.assert_array_equal(rep.estimate, truth)


def test_signature_sparsity_comes_from_the_registry():
    # the network's n_cap asks for 4 ones and the registry's for 3; the sketch
    # and its recovery both follow the registry, so the match is its signature
    reg = registry_for(8192, n_cap=8, seed=11)
    net = build_network(
        {
            "modules": [{"id": "out", "output": True}, {"id": "leaf"}],
            "objects": [
                {"id": "root", "module": "out", "attributes": []},
                {"id": "a", "module": "leaf", "attributes": list(ATTRS)},
            ],
            "edges": [("root", "a", 1.0)],
        },
        d=reg.params.d,
        n_cap=16,
    )
    truth = object_signature(net.objects["a"], reg.params.n_cap, reg.params.d)
    rep = recover_signature(overall_sketch(net, reg, signature_mode=True), "leaf", h=2, w=1.0, registry=reg)
    assert rep.extras["matched"]
    np.testing.assert_array_equal(rep.estimate, truth)


def test_signature_equal_attributes_equal_signature():
    net = leaf_net(64)
    sig1 = object_signature(net.objects["a"], 16, 64)
    net2 = leaf_net(64)
    sig2 = object_signature(net2.objects["a"], 16, 64)
    np.testing.assert_array_equal(sig1, sig2)


def test_signature_mode_mismatch_detected():
    reg = registry_for(1024, seed=12)
    sk = overall_sketch(leaf_net(reg.params.d), reg, signature_mode=False)
    with pytest.raises(ModeMismatchError):
        recover_signature(sk, "leaf", h=2, w=1.0, registry=reg)


def test_signature_small_d_never_wrong_match():
    # at small d the noise exceeds the quantization gap: either no-match is
    # reported or the match is the true signature
    for seed in range(6):
        reg = registry_for(546, n_cap=8, seed=700 + seed)
        net = leaf_net(reg.params.d)
        truth = object_signature(net.objects["a"], reg.params.n_cap, reg.params.d)
        sk = overall_sketch(net, reg, signature_mode=True)
        rep = recover_signature(sk, "leaf", h=2, w=1.0, registry=reg)
        if rep.extras["matched"]:
            np.testing.assert_array_equal(rep.estimate, truth)


# ---------------------------------------------------------------------------
# Erased-prefix recovery
# ---------------------------------------------------------------------------


def test_prefix_full_is_identity():
    reg = registry_for(1024, seed=13)
    net = leaf_net(reg.params.d)
    sk = overall_sketch(net, reg)
    full = recover_attributes_unique(sk, "leaf", 2, 1.0, reg)
    via = recover_attributes_unique(erase_to_prefix(sk, sk.d), "leaf", 2, 1.0, reg)
    np.testing.assert_array_equal(full.estimate, via.estimate)


def test_prefix_error_inflation_about_sqrt2():
    errs_full = []
    errs_half = []
    for seed in range(12):
        reg = registry_for(2048, seed=500 + seed)
        net = leaf_net(reg.params.d)
        sk = overall_sketch(net, reg)
        half = erase_to_prefix(sk, sk.d // 2)
        full = recover_attributes_unique(sk, "leaf", 2, 1.0, reg)
        part = recover_attributes_unique(half, "leaf", 2, 1.0, reg)
        errs_full.append(np.max(np.abs(full.estimate[:3] - ATTRS)))
        errs_half.append(np.max(np.abs(part.estimate[:3] - ATTRS)))
    ratio = np.median(errs_half) / np.median(errs_full)
    assert ratio <= 1.9


@pytest.mark.parametrize("mode", ["block-random", "orthonormal", "identity"])
def test_path_recovery_rescales_an_erased_sketch_by_d_over_d_prime(mode):
    # the estimate on a half prefix is d/d' times the one on the same values
    # taken as unerased, and its noise bound sqrt(d/d') times as large
    reg = registry_for(546, seed=21, mode=mode)
    d = reg.params.d
    half = erase_to_prefix(overall_sketch(chain_net(d), reg), d // 2)
    path = [PathStep(1, "mid"), PathStep(1, "deep")]
    erased = recover_attributes_by_path(half, path, reg, w=0.3)
    as_full = recover_attributes_by_path(replace(half, erased_prefix=d), path, reg, w=0.3)
    assert erased.estimate.tobytes() == ((d / (d // 2)) * as_full.estimate).tobytes()
    assert erased.predicted_error == as_full.predicted_error * math.sqrt(d / (d // 2))


def test_prefix_below_block_rejected():
    reg = registry_for(1024, seed=14)
    net = leaf_net(reg.params.d)
    sk = erase_to_prefix(overall_sketch(net, reg), reg.params.b // 2)
    with pytest.raises(RecoveryError):
        recover_attributes_unique(sk, "leaf", 2, 1.0, reg)


def test_sketch_of_another_dimension_rejected():
    reg = registry_for(1024, seed=14)
    other = registry_for(2048, seed=14)
    sk = overall_sketch(leaf_net(other.params.d), other, signature_mode=True)
    for recover in (recover_attributes_unique, recover_frequency, recover_summed_attributes,
                    recover_mean_attributes, recover_signature):
        with pytest.raises(DimensionMismatchError, match=f"sketch d={other.params.d}, registry d={reg.params.d}"):
            recover(sk, "leaf", 2, 1.0, reg)
    with pytest.raises(DimensionMismatchError):
        recover_attributes_by_path(sk, [PathStep(1, "leaf")], reg, 1.0)


def test_prefix_frequency_still_counts():
    exact = 0
    for seed in range(4):
        reg = registry_for(6144, seed=600 + seed)
        net = counting_net(reg.params.d, 2)
        sk = erase_to_prefix(overall_sketch(net, reg), reg.params.d // 2)
        rep = recover_frequency(sk, "m", h=2, w_star=0.5, registry=reg)
        exact += int(rep.rounded == 2)
    assert exact >= 3


@pytest.mark.parametrize("mode", ["block-random", "orthonormal", "identity"])
def test_frequency_reads_first_column_bitwise(mode):
    # the first-column contraction equals coordinate 0 of the full R_{M,2}
    # contraction, on plain, signature and erased sketches
    d = 512 if mode == "orthonormal" else 1014
    reg = registry_for(d, seed=8, mode=mode)
    full = registry_for(d, seed=8, mode=mode)  # holds the full slot-2 matrices
    net = counting_net(reg.params.d, 3)
    plain = overall_sketch(net, reg)
    sketches = [plain, overall_sketch(net, reg, signature_mode=True), erase_to_prefix(plain, reg.params.d // 2)]
    for sk in sketches:
        for beta in (None, 7.5):
            rep = recover_frequency(sk, "m", 2, 1.0 / 3.0, reg, beta=beta)
            want_beta = beta_factor(2, 1.0 / 3.0, sk.signature_mode) if beta is None else beta
            want = want_beta * _column_contract(full.module_matrix("m", 2), sk)
            assert rep.estimate == float(want[0])
            assert np.float64(rep.estimate).tobytes() == want[0].tobytes()


def test_registry_never_draws_full_slot2_for_sketch_and_frequency():
    reg = registry_for(1014, seed=9)
    net = counting_net(reg.params.d, 2)
    sk = overall_sketch(net, reg, signature_mode=True)
    recover_frequency(sk, "m", 2, 0.5, reg)
    recover_frequency(erase_to_prefix(sk, reg.params.d // 2), "m", 2, 0.5, reg)
    assert "m:m:2:e1" in reg._cache
    assert reg._cache["m:m:2:e1"].csc.shape == (reg.params.d, 1)
    assert not [key for key in reg._cache if key.startswith("m:") and key.endswith(":2")]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_report_csv_row():
    reg = registry_for(1024, seed=15)
    net = leaf_net(reg.params.d)
    sk = overall_sketch(net, reg)
    rep = recover_attributes_unique(sk, "leaf", 2, 1.0, reg)
    row = report_csv_row(rep, seed="15", truth=net.objects["a"].attributes)
    header = report_csv_header()
    assert len(row.split(",")) == len(header.split(","))
    assert row.startswith("attributes_unique,leaf,2,1.0,")


def test_predicted_error_scales():
    reg = registry_for(2048, seed=16)
    base = predicted_error(2, 1.0, reg)
    assert predicted_error(2, 0.5, reg) == pytest.approx(2 * base)
    assert predicted_error(3, 1.0, reg) == pytest.approx(base * 16 * 1.5)
    assert predicted_error(2, 1.0, reg, erased_prefix=reg.params.d // 2) == pytest.approx(
        base * np.sqrt(2)
    )


def test_signature_report_bound_scales_with_its_beta():
    # a signature sketch's beta is 3/2 of a plain one's, and so is its bound
    reg = registry_for(1024, seed=3)
    net = leaf_net(reg.params.d)
    plain = recover_frequency(overall_sketch(net, reg), "leaf", 2, 1.0, reg)
    sig = recover_frequency(overall_sketch(net, reg, signature_mode=True), "leaf", 2, 1.0, reg)
    assert (plain.beta, sig.beta) == (32.0, 48.0)
    assert plain.predicted_error == pytest.approx(predicted_error(2, 1.0, reg))
    assert sig.predicted_error == pytest.approx(1.5 * plain.predicted_error)


def test_similarity_invariant_under_object_relabeling():
    # renaming object ids consistently leaves sketches untouched (tuple
    # positions come from edge order, not labels)
    reg = registry_for(1024, seed=21)
    d = reg.params.d

    def net_with_ids(a_id, b_id):
        return build_network(
            {
                "modules": [{"id": "out", "output": True}, {"id": "m"}],
                "objects": [
                    {"id": "root", "module": "out", "attributes": []},
                    {"id": a_id, "module": "m", "attributes": [0.0, 1.0]},
                    {"id": b_id, "module": "m", "attributes": [1.0]},
                ],
                "edges": [("root", a_id, 0.5), ("root", b_id, 0.5)],
            },
            d=d,
        )

    s1 = overall_sketch(net_with_ids("a", "b"), reg)
    s2 = overall_sketch(net_with_ids("left", "right"), reg)
    probe = overall_sketch(leaf_net(d), reg)
    assert sketch_similarity(s1, probe) == sketch_similarity(s2, probe)
    np.testing.assert_array_equal(s1.values, s2.values)


def test_frequency_beta_override_scales_the_noise_bound():
    # the bound of a report uses the beta of its estimate, overridden or not
    reg = registry_for(1024, seed=3)
    sk = overall_sketch(leaf_net(reg.params.d), reg)
    for prefix in (sk.d, sk.d // 2):
        part = erase_to_prefix(sk, prefix)
        depth = recover_frequency(part, "leaf", 2, 1.0, reg)
        flat = recover_frequency(part, "leaf", 2, 1.0, reg, beta=4.0)
        assert (depth.beta, flat.beta) == (32.0, 4.0)
        assert flat.predicted_error == pytest.approx(depth.predicted_error * 4.0 / 32.0)
