"""Tests for the block-sparse matrix family, its signature code, and noise profiles."""

from __future__ import annotations

import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from modsketch._seeding import derive_rng
from modsketch.block_random import (
    BlockParams,
    CorruptCodewordError,
    DimensionMismatchError,
    IdentityMatrix,
    ParameterError,
    _assemble,
    _draw,
    _index_code_table,
    _row_indices,
    auto_params,
    decode_column_signature,
    encode_column_signature,
    sample_first_column,
    sample_matrix,
    sample_orthonormal,
    transparent,
)
from modsketch.calibrated import measure_noise_profile
from modsketch.sketcher import MatrixRegistry

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
    with pytest.raises(ParameterError):
        auto_params(1014, 0)  # n_cap below 2, refused before its log is taken


def test_auto_params_alignment_fixpoint():
    params = auto_params(2048, n_cap=16)
    assert params.d % params.b == 0
    assert params.d >= 2048
    assert params.b >= 3 * (math.ceil(math.log2(params.d)) + 3)
    # requesting an already-aligned dimension is a no-op
    again = auto_params(params.d, n_cap=16, q=params.q)
    assert again.d == params.d and again.b == params.b


def test_numpy_integer_params_draw_the_int_params_matrix():
    params = auto_params(np.int64(546), np.int32(64))
    assert params == auto_params(546, 64)
    want = sample_matrix(auto_params(546, 64), "unit:numpy")
    assert (sample_matrix(params, "unit:numpy").csc != want.csc).nnz == 0


def test_an_integer_q_draws_the_float_q_matrix():
    # q is kept as the float it equals, so params that compare equal key one draw
    params = BlockParams(b=39, q=1, d=546, n_cap=8)
    assert type(params.q) is float and params == BlockParams(b=39, q=1.0, d=546, n_cap=8)
    want = sample_matrix(BlockParams(b=39, q=1.0, d=546, n_cap=8), "k")
    got = sample_matrix(params, "k")
    assert got.csc.data.tobytes() == want.csc.data.tobytes() and got.csc.indices.tobytes() == want.csc.indices.tobytes()
    fingerprints = {MatrixRegistry(BlockParams(b=39, q=q, d=546, n_cap=8), 0).seed_fingerprint() for q in (1, 1.0)}
    assert len(fingerprints) == 1


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
# Draw format v1: golden digests and bitwise oracles
# ---------------------------------------------------------------------------

# Parameters of the golden grid: q = 0 and q = 1 at the edges, P1014, the
# learner's d=1440 point, and auto_params at two benchmark dimensions.
GOLDEN_PARAMS = {
    "d936-q0": BlockParams(b=39, q=0.0, d=936, n_cap=64),
    "d936-q1": BlockParams(b=39, q=1.0, d=936, n_cap=64),
    "d1014": P1014,
    "b45-q0.5-d1440": BlockParams(b=45, q=0.5, d=1440, n_cap=64),
    "d2070": auto_params(2070, 64),
    "d4176": auto_params(4176, 64),
}
GOLDEN_SEED_KEYS = ("golden:0", "golden:1", "golden:2")
# blake2b digests of (csc.data, csc.indices, csc.indptr, col_sq_norms),
# recorded from the float64 assembly that defined draw format v1.
GOLDEN_V1 = {
    ("d936-q0", "golden:0"): "9f9cb092bcd9b3b7eb526c30411fe065",
    ("d936-q0", "golden:1"): "9f9cb092bcd9b3b7eb526c30411fe065",
    ("d936-q0", "golden:2"): "9f9cb092bcd9b3b7eb526c30411fe065",
    ("d936-q1", "golden:0"): "59732a06c94ddd9dc4bbc800791afc6a",
    ("d936-q1", "golden:1"): "a761e35556b199dfff9166e2ec31391f",
    ("d936-q1", "golden:2"): "85aeb885d1fc373cb88e193e4339c0fd",
    ("d1014", "golden:0"): "c9e41eb9d61985baa8551f7aff54551e",
    ("d1014", "golden:1"): "3b194edd869a1bfc58893095f57f3d3c",
    ("d1014", "golden:2"): "e6ab1b4cbabc9e28424ba89eae710fcf",
    ("b45-q0.5-d1440", "golden:0"): "9427e409c8503da31ceb9fbe0f363217",
    ("b45-q0.5-d1440", "golden:1"): "96e80bce7689c3dbb6def35c22675a0b",
    ("b45-q0.5-d1440", "golden:2"): "388e35c7bf87065e7df156ef7ddb0055",
    ("d2070", "golden:0"): "27cd98234b49402645b7e39d26301d04",
    ("d2070", "golden:1"): "f7c6b7f3d6390404925b8475afcc7d75",
    ("d2070", "golden:2"): "d02312a899339ab1e80b28d2db4cc783",
    ("d4176", "golden:0"): "a7c4149bbbb8a27f1a298c057ea01e55",
    ("d4176", "golden:1"): "b08ab7329eacb60bf5f2b379c04eb722",
    ("d4176", "golden:2"): "bc43cc2cef86e60d7dddeb9c9bb00b25",
}


def draw_digest(mat) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in (mat.csc.data, mat.csc.indices, mat.csc.indptr, mat.col_sq_norms):
        h.update(a.dtype.str.encode() + repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def cumsum_prefix_norms(mat, d_prime):
    """The running-sum definition of prefix column norms over the CSC entries."""
    contrib = (mat.csc.data**2) * (mat.csc.indices < d_prime)
    running = np.concatenate([[0.0], np.cumsum(contrib)])
    return np.diff(running[mat.csc.indptr])


@pytest.mark.parametrize("name", list(GOLDEN_PARAMS))
def test_draw_format_v1_golden(name):
    for key in GOLDEN_SEED_KEYS:
        assert draw_digest(sample_matrix(GOLDEN_PARAMS[name], key)) == GOLDEN_V1[(name, key)], key


def reference_draw(params, seed_key):
    """Draw format v1 as the generator calls that defined it."""
    d, m, n_blocks = params.d, params.sub_block, params.n_blocks
    rng = derive_rng(0, "block-matrix", seed_key, params.b, params.q, d)
    sign_m = rng.integers(0, 2, size=m, dtype=np.int8) * 2 - 1
    sign_s = rng.integers(0, 2, size=(d, m), dtype=np.int8) * 2 - 1
    flips = rng.integers(0, 2, size=(3, n_blocks, d), dtype=np.int8)
    flips += flips
    flips -= 1
    eta = rng.random(size=(n_blocks, d)) < params.q
    return sign_m, sign_s, flips, eta


# Draws whose int8 arrays end inside a 32-bit word and whose word counts end
# inside a 64-bit output: d*m mod 4 is 1, 2 or 3, and the words before
# flips, or before eta, are odd in number.
DRAW_EDGE_PARAMS = {
    "dm1-odd-odd": BlockParams(b=39, q=0.37, d=117, n_cap=8),
    "dm2-odd-even": BlockParams(b=33, q=0.37, d=66, n_cap=8),
    "dm3-even-odd": BlockParams(b=33, q=0.37, d=33, n_cap=8),
    "dm3-odd-odd": BlockParams(b=45, q=0.37, d=45, n_cap=8),
    "dm1-even-even": BlockParams(b=45, q=0.37, d=315, n_cap=8),
    "dm2-even-odd-q0": BlockParams(b=39, q=0.0, d=78, n_cap=8),
    "dm2-even-odd-q1": BlockParams(b=39, q=1.0, d=78, n_cap=8),
}


def reference_csc(params, sign_m, sign_s, flips, eta):
    """CSC data, indices and indptr of the leading eta.shape[1] columns of a
    draw, each entry from the format's definition in float64: active block i
    of column j is f_s sigma_s_j | f_c Enc(j, f_m sigma_m[0], f_s sigma_s_j[0])
    | f_m sigma_m, times the scale, on rows i*b to i*b + b - 1."""
    b, t = params.b, params.index_bits
    scale = params.entry_scale if params.q > 0 else 0.0
    ja, ia = np.nonzero(eta.T)  # column-major, as CSC stores them
    f_s, f_c, f_m = (flips[k, ia, ja].astype(np.float64)[:, None] for k in range(3))
    s_j, s_m = sign_s[ja].astype(np.float64), sign_m.astype(np.float64)
    code = np.ones((len(ja), params.sub_block))  # leading +1 and padding
    for k in range(t):  # MSB-first bits of j - 1 (0-based ja), 0 -> -1
        code[:, 1 + k] = np.where((ja >> (t - 1 - k)) & 1, 1.0, -1.0)
    code[:, t + 1] = f_m[:, 0] * s_m[0]
    code[:, t + 2] = f_s[:, 0] * s_j[:, 0]
    data = np.hstack([f_s * s_j, f_c * code, f_m * s_m]) * scale
    rows = ia[:, None] * b + np.arange(b)
    indptr = np.concatenate([[0], np.cumsum(b * eta.sum(axis=0))])
    return data.ravel(), rows.ravel().astype(np.int32), indptr.astype(np.int32)


@pytest.mark.parametrize("name", list(GOLDEN_PARAMS) + list(DRAW_EDGE_PARAMS))
def test_draw_equals_the_generator_calls_of_format_v1(name):
    params = {**GOLDEN_PARAMS, **DRAW_EDGE_PARAMS}[name]
    b = params.b
    for key in GOLDEN_SEED_KEYS:
        for got, want in zip(_draw(params, key), reference_draw(params, key), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert got.tobytes() == want.tobytes(), key
        first = sample_first_column(params, key)
        sign_m, sign_s, flips, eta = reference_draw(params, key)
        scale = params.entry_scale if params.q > 0 else 0.0
        assert first.sigma_m.tobytes() == (sign_m * scale).tobytes()
        assert first.sigma_s.tobytes() == (sign_s[:1] * scale).tobytes()
        assert first.flips.tobytes() == np.ascontiguousarray(flips[:, :, :1]).tobytes()
        assert first.eta.tobytes() == np.ascontiguousarray(eta[:, :1]).tobytes()
        # the assembled arrays, and the transposed block view's one index per block
        for mat in (sample_matrix(params, key), first):
            want = reference_csc(params, sign_m, sign_s, flips, eta[:, : mat.csc.shape[1]])
            for got, ref in zip((mat.csc.data, mat.csc.indices, mat.csc.indptr), want, strict=True):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (key, mat.csc.shape)
            assert mat._blocks_t.indices.tobytes() == (mat.csc.indices[::b] // b).tobytes(), key
            assert mat._blocks_t.indptr.tobytes() == (mat.csc.indptr // b).tobytes(), key


@pytest.mark.parametrize("name", ["d936-q0", "d936-q1", "d1014", "b45-q0.5-d1440", "d2070"])
def test_prefix_col_sq_norms_bitwise_cumsum_oracle(name):
    params = GOLDEN_PARAMS[name]
    d, b = params.d, params.b
    for key in GOLDEN_SEED_KEYS[:2]:
        mat = sample_matrix(params, key)
        for d_prime in (b, b + 1, d // 3, d // 2, d // 2 + 7, d - 1, d):
            got = mat.prefix_col_sq_norms(d_prime)
            assert got.tobytes() == cumsum_prefix_norms(mat, d_prime).tobytes(), (key, d_prime)


@pytest.mark.parametrize("name", list(GOLDEN_PARAMS))
def test_sample_first_column_bitwise_full_draw(name):
    params = GOLDEN_PARAMS[name]
    d = params.d
    e1 = np.zeros(d)
    e1[0] = 1.0
    x = np.random.default_rng(5).standard_normal(d)
    for key in GOLDEN_SEED_KEYS:
        mat = sample_matrix(params, key)
        col = sample_first_column(params, key)
        assert col.csc.shape == (d, 1)
        # copies of column 1 only: a view would keep the whole draw alive
        assert col.flips.shape == (3, params.n_blocks, 1) and col.flips.base is None and col.eta.base is None
        lo, hi = mat.csc.indptr[0], mat.csc.indptr[1]
        assert col.csc.indices.tobytes() == mat.csc.indices[lo:hi].tobytes()
        assert col.csc.data.tobytes() == mat.csc.data[lo:hi].tobytes()
        assert col.column(1).tobytes() == mat.matvec(e1).tobytes()
        assert col.column(1).tobytes() == mat.column(1).tobytes()
        assert col.col_sq_norms.tobytes() == mat.col_sq_norms[:1].tobytes()
        assert col.rmatvec(x).tobytes() == mat.rmatvec(x)[:1].tobytes()
        for d_prime in (params.b, d // 2, d - 1):
            assert col.prefix_col_sq_norms(d_prime).tobytes() == mat.prefix_col_sq_norms(d_prime)[:1].tobytes()


@pytest.mark.parametrize(
    "make",
    [
        lambda: sample_matrix(GOLDEN_PARAMS["d1014"], "unit:column"),
        lambda: sample_orthonormal(96, "unit:column"),
        lambda: IdentityMatrix(96),
    ],
    ids=["block-random", "orthonormal", "identity"],
)
def test_column_is_matvec_of_unit_vector_bitwise(make):
    # the sketch's R_{M,2} e_1 term and the per-column match_permutation
    # oracle in test_dictlearn.py read columns this way
    mat = make()
    d = mat.d
    for j in (1, d // 2, d):
        e_j = np.zeros(d)
        e_j[j - 1] = 1.0
        assert mat.column(j).tobytes() == mat.matvec(e_j).tobytes(), j


@pytest.mark.parametrize(
    "make",
    [
        lambda: sample_matrix(GOLDEN_PARAMS["d1014"], "unit:block"),
        lambda: sample_orthonormal(1092, "unit:block"),
        lambda: IdentityMatrix(96),
    ],
    ids=["block-random", "orthonormal", "identity"],
)
def test_matvec_of_a_block_is_matvec_of_each_column_bitwise(make):
    # the sketch pass multiplies (d, n) blocks, and each column must keep
    # the bits of its own product; at d=1092 a gemm differs from a gemv in
    # the last bits, so the orthonormal type multiplies column by column
    mat = make()
    rng = np.random.default_rng(11)
    block = rng.standard_normal((mat.d, 27))
    block[:, 3] = 0.0
    block[mat.d // 2 :, 5] = -0.0
    for x in (block, block[:, ::2], block[:, :1]):
        got = mat.matvec(x)
        assert got.shape == x.shape
        for j in range(x.shape[1]):
            assert got[:, j].tobytes() == mat.matvec(np.ascontiguousarray(x[:, j])).tobytes(), j


@pytest.mark.parametrize("draw", [sample_matrix, sample_first_column], ids=["full", "first-column"])
@pytest.mark.parametrize("special", [1.0, np.nan, np.inf], ids=["finite", "nan", "inf"])
@pytest.mark.parametrize("k", [None, 5], ids=["1-D", "block"])
def test_matvec_bits_equal_the_whole_csc_product(draw, special, k):
    # matvec multiplies only the nonzero rows when they are at most half;
    # on both sides of that rule, and with -0.0 in the skipped rows, the
    # bits are those of the whole product, taken on an independent draw so
    # that the sparse cases run on a matrix not yet assembled
    mat = draw(P1014, "unit:matvec-rows")
    whole = draw(P1014, "unit:matvec-rows").csc
    n = mat.eta.shape[1]
    rng = np.random.default_rng(13)
    for n_live in sorted({0, 1, n // 2, n // 2 + 1, n}):
        x = np.zeros((n,) if k is None else (n, k))
        live = rng.permutation(n)[:n_live]
        x[live] = rng.standard_normal(x[live].shape)
        x[live[:1]] = special
        x[np.setdiff1d(np.arange(n), live)[::2]] = -0.0
        assert mat.matvec(x).tobytes() == (whole @ x).tobytes(), n_live


def test_matvec_refuses_an_input_of_the_wrong_length():
    # a zero input of the wrong length would slice to no rows at all
    mat = sample_matrix(P1014, "unit:matvec-length")
    col = sample_first_column(P1014, "unit:matvec-length")
    for m, x in ((mat, np.zeros(1)), (mat, np.ones((mat.d + 1, 2))), (col, np.zeros(mat.d))):
        with pytest.raises(DimensionMismatchError):
            m.matvec(x)
    for m, x in ((mat, np.zeros(mat.d + 1)), (col, np.zeros(1))):
        with pytest.raises(DimensionMismatchError):
            m.rmatvec(x)


def test_matvec_of_a_mostly_nonzero_block_copies_no_matrix():
    # slicing d/2 + 1 of the rows would copy half the CSC arrays; the
    # whole product allocates only its output and the row mask
    mat = sample_matrix(P1014, "unit:matvec-alloc")
    csc_bytes = mat.csc.data.nbytes + mat.csc.indices.nbytes + mat.csc.indptr.nbytes
    x = np.zeros((mat.d, 4))
    x[: mat.d // 2 + 1] = 1.0
    tracemalloc.start()
    try:
        mat.matvec(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < csc_bytes / 4, f"matvec peaked at {peak / csc_bytes:.2f}x the CSC bytes"


def test_rmatvec_reuses_one_block_view_sharing_the_csc_data():
    # the transpose is read through one 1 x b block view, built by the first
    # product, whose data is the CSC data; its bits are those of the CSR
    # transpose product of an independent draw's CSC form
    mat = sample_matrix(GOLDEN_PARAMS["d1014"], "unit:rmatvec")
    mat.rmatvec(np.ones(mat.d))
    view = mat._blocks_t
    mat.rmatvec(np.ones(mat.d))
    assert mat._blocks_t is view
    assert np.shares_memory(view.data, mat.csc.data)
    assert mat._blocks_t is view
    rng = np.random.default_rng(12)
    for params, draw in [
        (GOLDEN_PARAMS["d1014"], sample_matrix),
        (GOLDEN_PARAMS["d1014"], sample_first_column),
        (GOLDEN_PARAMS["d936-q0"], sample_matrix),
        (GOLDEN_PARAMS["d936-q1"], sample_matrix),
    ]:
        m = draw(params, "unit:rmatvec")
        whole = draw(params, "unit:rmatvec").csc
        d = params.d
        for shape in ((d,), (d, 5)):
            erased = rng.standard_normal(shape)
            erased[: d // 2] = -0.0
            special = rng.standard_normal(shape)
            special[3], special[d - 1] = np.inf, np.nan
            for x in (rng.standard_normal(shape), erased, special):
                want = whole.T @ x
                got = m.rmatvec(x)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (d, draw.__name__, shape)


@pytest.mark.parametrize("name", list(GOLDEN_PARAMS))
def test_assemble_of_a_column_list_equals_the_csc_slice(name):
    # what a sparse matvec assembles: the data, row indices and indptr of
    # the whole matrix's columns cols, in dtype and bytes
    params = GOLDEN_PARAMS[name]
    d = params.d
    rng = np.random.default_rng(14)
    for key in GOLDEN_SEED_KEYS[:2]:
        sign_m = _draw(params, key)[0]
        mat, whole = sample_matrix(params, key), sample_matrix(params, key).csc
        col_sets = [np.arange(0), np.array([0]), np.array([d - 1]), np.arange(d)]
        col_sets += [np.sort(rng.choice(d, size=n, replace=False)) for n in (2, 7, d // 2)]
        for cols in col_sets:
            data, indptr, ia = _assemble(params, sign_m, mat.sign_s, mat.flips, mat.eta, cols)
            want = whole[:, cols]
            for got, ref in zip((data, _row_indices(params, ia), indptr), (want.data, want.indices, want.indptr)):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (key, len(cols))
        first = sample_first_column(params, key)
        data, indptr, ia = _assemble(params, sign_m, first.sign_s, first.flips, first.eta, np.array([0]))
        assert data.tobytes() == whole[:, [0]].data.tobytes() and indptr.tobytes() == whole[:, [0]].indptr.tobytes()


def test_sparse_matvec_assembles_only_the_columns_it_reads():
    # a product of an input with few nonzero rows, as the attribute block
    # is, keeps the matrix unassembled and peaks at a small multiple of the
    # bytes of those columns (an 8-byte value and a 4-byte row index per
    # entry) besides its output, not at the matrix's
    params = GOLDEN_PARAMS["d2070"]
    warm = np.zeros(params.d)
    warm[:3] = 1.0
    sample_matrix(params, "unit:sparse-warm").matvec(warm)  # the code table is cached once
    rng = np.random.default_rng(15)
    for n_rows, k in ((1, None), (16, None), (16, 3)):
        mat = sample_matrix(params, "unit:sparse")
        rows = np.sort(rng.choice(params.d, size=n_rows, replace=False))
        x = np.zeros((params.d,) if k is None else (params.d, k))
        x[rows] = rng.standard_normal(x[rows].shape)
        tracemalloc.start()
        try:
            got = mat.matvec(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mat._blocks_t is None and mat._csc is None
        whole = sample_matrix(params, "unit:sparse").csc
        assert got.tobytes() == (whole @ x).tobytes(), n_rows
        col_bytes = 12 * int(mat.eta[:, rows].sum()) * params.b
        assert peak - got.nbytes < 3 * col_bytes, f"{n_rows} columns peaked at {peak} B against {col_bytes} B"
        assert peak < (whole.data.nbytes + whole.indices.nbytes) / 50


def test_threads_making_the_first_product_share_one_assembly():
    # the first product assembles the matrix once, under its lock: every
    # thread, more than there are cores, gets the bits of an independent
    # draw's CSC products, and the one block view they read shares its data
    # with the CSC form
    params = GOLDEN_PARAMS["d2070"]
    rng = np.random.default_rng(16)
    x, y = rng.standard_normal(params.d), rng.standard_normal(params.d)
    whole = sample_matrix(params, "unit:threads").csc
    want = ((whole.T @ y).tobytes(), (whole @ x).tobytes())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(3):
            mat = sample_matrix(params, "unit:threads")
            barrier, got, views = threading.Barrier(4), [], []

            def first_products():
                barrier.wait()
                out = (mat.rmatvec(y).tobytes(), mat.matvec(x).tobytes())
                got.append(out)
                views.append(mat._blocks_t)

            threads = [threading.Thread(target=first_products) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), trial
            assert got == [want] * 4, trial
            assert all(view is mat._blocks_t for view in views), trial
            assert np.shares_memory(mat._blocks_t.data, mat.csc.data), trial
    finally:
        sys.setswitchinterval(interval)


def test_index_code_table_is_read_only():
    table = _index_code_table(P1014.d, P1014.sub_block)
    with pytest.raises(ValueError):
        table[0, 0] = -1
    # draws and encodings work on copies, so they still see the pristine table
    assert encode_column_signature(1, 1, 1, P1014)[0] == P1014.entry_scale


# ---------------------------------------------------------------------------
# The transparent factor and round trips
# ---------------------------------------------------------------------------


def test_transparent_of_identity_mode_is_passthrough():
    x = np.linspace(-1, 1, 16)
    np.testing.assert_array_equal(transparent(IdentityMatrix(16), x), x)


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


def test_transparent_exactness_bit_for_bit():
    mat = sample_matrix(P1014, "unit:exact")
    rng = np.random.default_rng(11)
    x = rng.standard_normal(P1014.d)
    got = transparent(mat, x)
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


def test_isometry_delta_halves_when_d_quadruples():
    small = auto_params(512, n_cap=64)
    big = auto_params(4 * small.d, n_cap=64)
    prof_s = measure_noise_profile(("plain",), "isometry", 120, small, master_seed=4)
    prof_b = measure_noise_profile(("plain",), "isometry", 120, big, master_seed=4)
    ratio = prof_s.delta_iso / prof_b.delta_iso
    # 1/sqrt(d) scaling predicts 2 (up to the slowly growing block size)
    assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


@pytest.mark.parametrize(
    "family, mode, pairs, want",
    [
        (("plain",), "both", 2, ("0x1.926c1f06990e6p-2", "0x1.812960c98a47ep-4", "0x1.02751ff6e9861p+0")),
        (("plain",), "isometry", 1, ("0x1.70849feeefc8bp-2", "0x0.0p+0", "0x1.02408cc97e071p+0")),
        (("transparent",), "isometry", 2, ("0x1.6fa446c06ce0fp-4", "0x0.0p+0", "0x1.fb8366af63075p-2")),
        (("transparent",), "both", 1, ("0x1.67d2e1ce87eb7p-4", "0x1.69ed8a38faffcp-5", "0x1.00e336038180fp-1")),
    ],
    ids=["plain-both-2", "plain-isometry", "transparent-isometry-2", "transparent-both"],
)
def test_noise_profile_bits_are_pinned(family, mode, pairs, want):
    # criterion 2's call shapes and calibrate's, at the float bits they give
    prof = measure_noise_profile(family, mode, 30, auto_params(512, 64), master_seed=3, pairs_per_trial=pairs)
    assert (prof.delta_iso.hex(), prof.delta_desync.hex(), prof.alpha.hex()) == want


def test_profile_requires_enough_trials():
    with pytest.raises(ParameterError):
        measure_noise_profile(("plain",), "isometry", 10, PNOISE)
