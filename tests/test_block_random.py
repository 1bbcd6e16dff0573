"""Tests for the block-sparse matrix family, its signature code, and noise profiles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from modsketch.block_random import (
    BlockParams,
    CorruptCodewordError,
    IdentityMatrix,
    ParameterError,
    _apply_factors,
    auto_params,
    decode_column_signature,
    encode_column_signature,
    measure_noise_profile,
    sample_matrix,
    sample_orthonormal,
)

# Small parameter set where the code occupies the whole sub-block: d=8 needs
# ceil(log2 8)+3 = 6 slots and b/3 = 6.
P8 = BlockParams(b=18, q=0.5, d=8, n_cap=8)


# ---------------------------------------------------------------------------
# Column-signature code
# ---------------------------------------------------------------------------


def test_encode_hand_value_j3():
    # binary(3-1) = 010 MSB-first, leading +1, bits (+1, -1), scale 1/sqrt(8*0.5)=1/2
    got = encode_column_signature(3, +1, -1, P8)
    want = np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5])
    np.testing.assert_allclose(got, want)


def test_encode_hand_value_j1():
    # binary(0) = 000 -> all -1, then bits (+1, +1)
    got = encode_column_signature(1, +1, +1, P8)
    want = np.array([0.5, -0.5, -0.5, -0.5, 0.5, 0.5])
    np.testing.assert_allclose(got, want)


def test_decode_hand_value():
    z = np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5])
    assert decode_column_signature(z, P8) == (3, +1)


def test_decode_roundtrip_and_global_sign():
    for j in range(1, P8.d + 1):
        for b_m in (-1, 1):
            for b_s in (-1, 1):
                z = encode_column_signature(j, b_m, b_s, P8)
                assert decode_column_signature(z, P8) == (j, b_m)
                assert decode_column_signature(-z, P8) == (j, b_m)


def test_decode_specific_sign():
    z = encode_column_signature(5, -1, +1, P8)
    assert decode_column_signature(z, P8) == (5, -1)


def test_encode_rejects_out_of_range_index():
    with pytest.raises(ParameterError):
        encode_column_signature(0, 1, 1, P8)
    with pytest.raises(ParameterError):
        encode_column_signature(9, 1, 1, P8)


def test_decode_flags_corrupt_codeword():
    # d=6 leaves headroom in the 3 index bits: indices 7, 8 are invalid.
    params = BlockParams(b=18, q=0.5, d=6, n_cap=8)
    z = encode_column_signature(6, 1, 1, params).copy()
    t = params.index_bits
    z[1:t + 1] = abs(z[0])  # bits 111 -> index 8 > 6
    with pytest.raises(CorruptCodewordError):
        decode_column_signature(z, params)


def test_params_validation():
    with pytest.raises(ParameterError):
        BlockParams(b=16, q=0.5, d=8, n_cap=8)  # not a multiple of 3
    with pytest.raises(ParameterError):
        BlockParams(b=15, q=0.5, d=8, n_cap=8)  # below the code-size floor
    with pytest.raises(ParameterError):
        BlockParams(b=18, q=1.5, d=8, n_cap=8)  # q out of range


def test_auto_params_alignment_fixpoint():
    params = auto_params(2048, n_cap=16)
    assert params.d % params.b == 0
    assert params.d >= 2048
    assert params.b >= 3 * (math.ceil(math.log2(params.d)) + 3)
    # requesting an already-aligned dimension is a no-op
    again = auto_params(params.d, n_cap=16, q=params.q)
    assert again.d == params.d and again.b == params.b


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

# Valid stand-in for the spec's (d=1024, b=24) demo point, which violates the
# block-size floor b >= 3*(ceil(log2 d)+3) = 39 (no multiple of 3 divides 1024).
P1014 = BlockParams(b=39, q=0.25, d=1014, n_cap=64)


def test_sampling_deterministic():
    m1 = sample_matrix(P1014, "unit:det")
    m2 = sample_matrix(P1014, "unit:det")
    assert (m1.csc != m2.csc).nnz == 0
    np.testing.assert_array_equal(m1.sigma_m, m2.sigma_m)
    np.testing.assert_array_equal(m1.eta, m2.eta)
    m3 = sample_matrix(P1014, "unit:other")
    assert (m1.csc != m3.csc).nnz > 0


def test_sampling_rejects_misaligned_d():
    with pytest.raises(ParameterError):
        sample_matrix(BlockParams(b=18, q=0.5, d=8, n_cap=8), "x")


def test_column_norms_concentrate():
    mat = sample_matrix(P1014, "unit:norms")
    cols_sq = mat.col_sq_norms
    # E||col||^2 = (q d / b) * (b / (d q)) = 1
    assert 0.9 <= cols_sq.mean() <= 1.1
    dense_sq = np.asarray(mat.csc.multiply(mat.csc).sum(axis=0)).ravel()
    np.testing.assert_allclose(cols_sq, dense_sq, rtol=1e-12)


def test_active_block_fraction_binomial():
    mat = sample_matrix(P1014, "unit:fraction")
    n_blocks = P1014.n_blocks
    trials = n_blocks * P1014.d
    frac = mat.eta.mean()
    margin = 3 * math.sqrt(P1014.q * (1 - P1014.q) / trials)
    assert abs(frac - P1014.q) <= margin


def test_entry_magnitudes_exact():
    mat = sample_matrix(P1014, "unit:mags")
    np.testing.assert_allclose(np.abs(mat.csc.data), P1014.entry_scale, rtol=1e-12)


def test_every_column_decodes_to_itself():
    mat = sample_matrix(P1014, "unit:selfdecode")
    m = P1014.sub_block
    for j in (1, 2, 500, P1014.d):
        blocks = mat.active_blocks(j)
        col = mat.column(j)
        for i in blocks:
            block = col[i * P1014.b : (i + 1) * P1014.b]
            fs, fc, fm = (int(v) for v in mat.flips[:, i, j - 1])
            # the c sub-block decodes to the column's own index
            jj, _sign = decode_column_signature(block[m : 2 * m] * fc, P1014)
            assert jj == j
            # the m sub-block is +-sigma_m exactly
            np.testing.assert_allclose(block[2 * m :], fm * mat.sigma_m)
            np.testing.assert_allclose(block[:m], fs * mat.sigma_s[j - 1])


def test_regeneration_from_seed_key_bit_exact():
    mat = sample_matrix(P1014, "unit:regen")
    again = sample_matrix(mat.params, mat.seed_key)
    np.testing.assert_array_equal(mat.csc.toarray(), again.csc.toarray())


def test_prefix_col_sq_norms():
    mat = sample_matrix(P1014, "unit:prefix")
    d_half = P1014.d // 2
    want = np.sum(mat.csc.toarray()[:d_half, :] ** 2, axis=0)
    np.testing.assert_allclose(mat.prefix_col_sq_norms(d_half), want, atol=1e-12)
    np.testing.assert_allclose(mat.prefix_col_sq_norms(P1014.d), mat.col_sq_norms)


# ---------------------------------------------------------------------------
# Factor products (the noise-profile templates)
# ---------------------------------------------------------------------------


def test_apply_identity_factor():
    x = np.arange(16, dtype=np.float64)
    np.testing.assert_array_equal(_apply_factors([("identity", None)], x), x)


def test_transparent_of_identity_mode_is_passthrough():
    x = np.linspace(-1, 1, 16)
    np.testing.assert_array_equal(_apply_factors([("transparent", IdentityMatrix(16))], x), x)


def test_r_then_rt_near_isometry():
    # <R^T R x, x> = ||Rx||^2 concentrates on 1 at d ~ 1e3; the deviation has
    # sd ~ sqrt(b/d) ~ 0.1 here, so assert the median of seeded trials.
    devs = []
    for trial in range(11):
        mat = sample_matrix(P1014, f"unit:iso:{trial}")
        rng = np.random.default_rng(trial)
        x = rng.standard_normal(P1014.d)
        x /= np.linalg.norm(x)
        v = mat.rmatvec(mat.matvec(x))
        devs.append(abs(v @ x - 1.0))
    assert np.median(devs) <= 0.15


def test_apply_linearity():
    mat = sample_matrix(P1014, "unit:lin")
    factors = [("transparent", mat), ("transpose", mat)]
    rng = np.random.default_rng(7)
    x = rng.standard_normal(P1014.d)
    y = rng.standard_normal(P1014.d)
    a, b = 0.37, -2.25
    lhs = _apply_factors(factors, a * x + b * y)
    rhs = a * _apply_factors(factors, x) + b * _apply_factors(factors, y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_transparent_exactness_bit_for_bit():
    mat = sample_matrix(P1014, "unit:exact")
    rng = np.random.default_rng(11)
    x = rng.standard_normal(P1014.d)
    got = _apply_factors([("transparent", mat)], x)
    want = (x + mat.matvec(x)) * 0.5
    assert np.array_equal(got, want)


def test_orthonormal_mode_exact_inverse():
    mat = sample_orthonormal(64, "unit:orth")
    x = np.random.default_rng(3).standard_normal(64)
    np.testing.assert_allclose(mat.rmatvec(mat.matvec(x)), x, atol=1e-9)


# ---------------------------------------------------------------------------
# Noise profiles
# ---------------------------------------------------------------------------

PNOISE = BlockParams(b=39, q=0.3, d=780, n_cap=64)


def test_plain_isometry_profile():
    prof = measure_noise_profile(("plain",), "isometry", 60, PNOISE, master_seed=1)
    assert abs(prof.alpha - 1.0) < 0.1
    assert 0 < prof.delta_iso < 0.5


def test_transparent_half_scaled_isometry():
    prof = measure_noise_profile(("transparent",), "isometry", 60, PNOISE, master_seed=2)
    assert 0.45 <= prof.alpha <= 0.55


def test_independent_matrices_desynchronize():
    prof = measure_noise_profile(
        ("plain",), "desynchronization", 60, PNOISE, master_seed=3, right_family=("plain",)
    )
    assert abs(prof.alpha) < 0.1
    assert prof.delta_desync < 0.5


def test_isometry_delta_halves_when_d_quadruples():
    small = auto_params(512, n_cap=64)
    big = auto_params(4 * small.d, n_cap=64)
    prof_s = measure_noise_profile(("plain",), "isometry", 120, small, master_seed=4)
    prof_b = measure_noise_profile(("plain",), "isometry", 120, big, master_seed=4)
    ratio = prof_s.delta_iso / prof_b.delta_iso
    # 1/sqrt(d) scaling predicts 2 (up to the slowly growing block size)
    assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


def test_product_desync_within_composition_bound():
    single = measure_noise_profile(("plain",), "desynchronization", 100, PNOISE, master_seed=5)
    product = measure_noise_profile(
        ("plain", "plain"), "desynchronization", 100, PNOISE, master_seed=5
    )
    assert product.delta_desync <= 2.5 * single.delta_desync


def test_profile_requires_enough_trials():
    with pytest.raises(ParameterError):
        measure_noise_profile(("plain",), "isometry", 10, PNOISE)


def test_identity_template_zero_deltas():
    # identity factors leave both noise variables zero (up to the rounding of
    # the fitted alpha, which lands within machine epsilon of 1)
    prof = measure_noise_profile(("identity",), "both", 30, PNOISE, master_seed=9)
    assert prof.delta_iso <= 1e-12
    assert prof.delta_desync <= 1e-12
    assert prof.alpha == pytest.approx(1.0)
