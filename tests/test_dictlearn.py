"""Tests for block-signature dictionary learning and network unrolling.

The plant-and-recover oracle below constructs samples directly from known
matrices and coefficients (y = sum_i R_i x_i + noise), independently of the
learner, so every expectation is computable from the plant.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from modsketch.block_random import (
    BlockParams,
    CorruptCodewordError,
    DimensionMismatchError,
    ParameterError,
    auto_params,
    decode_column_signature,
    sample_first_column,
    sample_matrix,
)
from modsketch.dictlearn import (
    DLConfig,
    LearnedDictionary,
    PermutationReport,
    _modal_rows,
    _parse_matching_sets,
    _sym_hamming,
    classify_recovered_vectors,
    default_eps_schedule,
    learn_dictionary,
    match_permutation,
    save_dictionary_artifacts,
    unroll_network,
)

PLANT = BlockParams(b=45, q=0.5, d=1440, n_cap=6)


def eligible(mat, j, floor, exclude_block=None):
    """A planted column is recoverable only if its realized active blocks can
    clear the matching-set floor; the binomial fluctuation of the count makes
    unconditional completeness impossible at desk scale."""
    blocks = set(int(b) for b in mat.active_blocks(j))
    if exclude_block is not None:
        blocks.discard(exclude_block)
    return len(blocks) >= floor


def plant_instance(
    seed,
    n_samples=60,
    n_matrices=2,
    dominant=0.9,
    residual_mass=0.05,
    dominant_sign=1,
    params=PLANT,
):
    """Known ground truth: per sample one dominant (matrix, column) pair plus
    spread residual mass."""
    rng = np.random.default_rng(seed)
    mats = [sample_matrix(params, f"plant:{seed}:{i}") for i in range(n_matrices)]
    planted = []
    xs = np.zeros((n_samples, n_matrices, params.d))
    for k in range(n_samples):
        i = int(rng.integers(n_matrices))
        j = int(rng.integers(params.d)) + 1
        xs[k, i, j - 1] = dominant_sign * dominant
        # residual: small l2 mass spread over 40 random coordinates
        ri = rng.integers(n_matrices, size=40)
        rj = rng.integers(params.d, size=40)
        vals = rng.standard_normal(40)
        vals *= residual_mass / np.linalg.norm(vals)
        for a, bcol, v in zip(ri, rj, vals):
            if (a, bcol + 1) != (i, j):
                xs[k, a, bcol] += v
        planted.append((i, j))
    ys = np.zeros((n_samples, params.d))
    for k in range(n_samples):
        for i in range(n_matrices):
            ys[k] += mats[i].matvec(xs[k, i])
    return mats, xs, ys, planted


def config_for(params=PLANT, eps=0.1):
    return DLConfig(params=params, eps_recover=eps)


def test_config_refuses_eps_outside_unit_interval():
    for eps in (0.0, -0.1, 1.5, 1e300):
        with pytest.raises(ParameterError):
            config_for(eps=eps)


# ---------------------------------------------------------------------------
# Core recovery
# ---------------------------------------------------------------------------


def test_zero_samples_recover_nothing():
    learned = learn_dictionary(np.zeros((5, PLANT.d)), config_for())
    assert learned.n_atoms == 0
    assert learned.columns == {}
    assert all(c == {} for c in learned.coefficients)


def test_planted_recovery_columns_and_coefficients():
    mats, xs, ys, planted = plant_instance(seed=0)
    learned = learn_dictionary(ys, config_for())
    report = match_permutation(learned, mats)
    # no unmatched clusters: every discovered signature is a true one
    assert report.unmatched == [] and report.ambiguous == []
    assert learned.n_atoms == 2
    # soundness: every recovered column is a true column, signs exact on the
    # blocks the learner installed
    assert len(report.column_rows) == len(learned.columns)
    for row in report.column_rows:
        assert row["within_criterion"]
        assert row["signed_mismatch_on_installed"] == 0
    # completeness: every planted pair was recovered with an accurate signed
    # coefficient
    inv = {v: k for k, v in report.permutation.items()}
    floor = config_for().set_floor
    checked = 0
    for k, (i, j) in enumerate(planted):
        if not eligible(mats[i], j, floor):
            continue
        cluster = inv[i]
        assert (cluster, j) in learned.columns
        assert learned.coefficient(k, cluster, j) == pytest.approx(0.9, abs=0.1)
        checked += 1
    assert checked >= len(planted) * 2 // 3


def test_planted_recovery_hamming_zero_on_active_blocks():
    mats, _xs, ys, planted = plant_instance(seed=1, n_samples=30)
    learned = learn_dictionary(ys, config_for())
    report = match_permutation(learned, mats)
    for (cluster, j), col in learned.columns.items():
        true_col = mats[report.permutation[cluster]].column(j)
        installed = np.nonzero(col)[0]
        assert len(installed) > 0
        np.testing.assert_array_equal(col[installed], true_col[installed])


def test_negative_dominant_coefficient_sign_recovered():
    mats, _xs, ys, planted = plant_instance(seed=2, n_samples=30, dominant_sign=-1)
    learned = learn_dictionary(ys, config_for())
    report = match_permutation(learned, mats)
    inv = {v: k for k, v in report.permutation.items()}
    floor = config_for().set_floor
    checked = 0
    for k, (i, j) in enumerate(planted):
        if not eligible(mats[i], j, floor):
            continue
        val = learned.coefficient(k, inv[i], j)
        assert val == pytest.approx(-0.9, abs=0.1)
        checked += 1
    assert checked >= len(planted) * 2 // 3


def test_single_matrix_identity_permutation():
    mats, _xs, ys, _planted = plant_instance(seed=3, n_samples=20, n_matrices=1)
    learned = learn_dictionary(ys, config_for())
    report = match_permutation(learned, mats)
    assert report.permutation == {0: 0}


def test_sample_permutation_equivariance():
    _mats, _xs, ys, _planted = plant_instance(seed=4, n_samples=20)
    learned = learn_dictionary(ys, config_for())
    perm = np.random.default_rng(0).permutation(len(ys))
    learned_p = learn_dictionary(ys[perm], config_for())
    # same recovered column set (cluster ids may differ; compare by content)
    cols_a = sorted(tuple(np.nonzero(c)[0]) for c in learned.columns.values())
    cols_b = sorted(tuple(np.nonzero(c)[0]) for c in learned_p.columns.values())
    assert cols_a == cols_b
    # coefficients travel with their samples
    vals_a = sorted(round(v, 6) for k in range(len(ys)) for v in learned.coefficients[k].values())
    vals_b = sorted(round(v, 6) for k in range(len(ys)) for v in learned_p.coefficients[k].values())
    assert vals_a == vals_b


def test_scaling_samples_scales_coefficients_not_columns():
    _mats, _xs, ys, planted = plant_instance(seed=5, n_samples=20)
    cfg = config_for()
    learned = learn_dictionary(ys, cfg)
    learned_half = learn_dictionary(0.5 * ys, cfg)
    assert set(learned_half.columns) == set(learned.columns)
    for key, col in learned.columns.items():
        np.testing.assert_array_equal(col, learned_half.columns[key])
    for k in range(len(ys)):
        for key, val in learned.coefficients[k].items():
            assert learned_half.coefficients[k][key] == pytest.approx(0.5 * val, rel=0.05)


def test_l1_spike_noise_changes_nothing():
    mats, _xs, ys, planted = plant_instance(seed=6, n_samples=30)
    cfg = config_for()
    base = learn_dictionary(ys, cfg)
    spiked = ys.copy()
    # adversarial single-block spike of total l1 mass sqrt(d) on every sample
    blk = 7
    spiked[:, blk * PLANT.b : (blk + 1) * PLANT.b] += math.sqrt(PLANT.d) / PLANT.b
    noisy = learn_dictionary(spiked, cfg)
    report = match_permutation(noisy, mats)
    assert report.unmatched == []
    # the spike can only remove its own block from matching sets, never
    # create columns: pairs shrink at most to those still clearing the floor
    base_report = match_permutation(base, mats)
    base_pairs = {(base_report.permutation[i], j) for (i, j) in base.columns}
    noisy_pairs = {(report.permutation[i], j) for (i, j) in noisy.columns}
    assert noisy_pairs <= base_pairs
    floor = cfg.set_floor
    must_survive = {
        (i, j)
        for k, (i, j) in enumerate(planted)
        if eligible(mats[i], j, floor, exclude_block=blk)
    }
    assert must_survive <= noisy_pairs
    # columns still exact on commonly installed blocks
    for row in report.column_rows:
        assert row["signed_mismatch_on_installed"] == 0
    # coefficients still accurate where recovered
    inv = {v: k for k, v in report.permutation.items()}
    for k, (i, j) in enumerate(planted):
        if (i, j) in must_survive:
            assert noisy.coefficient(k, inv[i], j) == pytest.approx(0.9, abs=0.1)


def test_artifacts_roundtrip_layout(tmp_path):
    mats, _xs, ys, _planted = plant_instance(seed=7, n_samples=10)
    learned = learn_dictionary(ys, config_for())
    report = match_permutation(learned, mats)
    save_dictionary_artifacts(learned, str(tmp_path), report)
    assert (tmp_path / "signatures.txt").exists()
    assert (tmp_path / "coefficients.csv").exists()
    assert (tmp_path / "permutation.csv").exists()
    atoms = list((tmp_path / "atoms").iterdir())
    assert len(atoms) == len(learned.columns)
    header = (tmp_path / "coefficients.csv").read_text().splitlines()[0]
    assert header == "sample,cluster,column,value"


# ---------------------------------------------------------------------------
# Bit-exactness against the per-seed learner
# ---------------------------------------------------------------------------


def reference_learn(samples, config):
    """The learner as it was before matching sets were parsed once each: every
    seed rounds and parses its set again, takes the modal sub-blocks with
    ``np.unique(axis=0)`` and decodes every member row on its own."""
    p = config.params
    d, b, q = p.d, p.b, p.q
    m = p.sub_block
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(samples, dtype=np.float64)))
    n_samples = y.shape[0]
    scale, tau1, tau2 = config.scale, config.tau1_value, config.tau2_value
    blocks = y.reshape(n_samples, p.n_blocks, b)
    abs_blocks = np.abs(blocks)
    weights = abs_blocks.sum(axis=2) * math.sqrt(q * d) / b
    in_window = (
        (weights > 0)
        & (abs_blocks.min(axis=2) >= tau1)
        & (abs_blocks.max(axis=2) <= config.upper_value)
    )
    signatures, sig_patterns, columns = [], [], {}
    coefficients = [dict() for _ in range(n_samples)]
    for k in range(n_samples):
        window_idx = np.nonzero(in_window[k])[0]
        if len(window_idx) == 0:
            continue
        zs = blocks[k, window_idx] / weights[k, window_idx, None]
        zs_s = zs[:, :m]
        hyper_dev = np.max(np.abs(np.abs(zs_s) - scale), axis=1)
        for seed_pos in np.nonzero(hyper_dev <= tau2)[0]:
            z_seed_s = zs_s[seed_pos]
            d_plus = np.max(np.abs(zs_s - z_seed_s), axis=1)
            d_minus = np.max(np.abs(zs_s + z_seed_s), axis=1)
            members = np.nonzero(np.minimum(d_plus, d_minus) <= 2 * tau2)[0]
            if len(members) < config.set_floor:
                continue
            rounded = np.where(zs[members] >= 0, scale, -scale)
            patterns = (rounded > 0).astype(np.int8)
            modal = np.empty(b)
            for lo, hi in ((0, m), (m, 2 * m), (2 * m, b)):
                uniq, counts = np.unique(patterns[:, lo:hi], axis=0, return_counts=True)
                modal[lo:hi] = np.where(uniq[np.argmax(counts)] > 0, scale, -scale)
            try:
                j, _f_modal = decode_column_signature(modal[m : 2 * m], p)
            except CorruptCodewordError:
                continue
            votes = 0
            for row in rounded:
                try:
                    _, f_row = decode_column_signature(row[m : 2 * m], p)
                except CorruptCodewordError:
                    continue
                votes += (1 if row[2 * m] > 0 else -1) * f_row
            s_x = 1.0 if votes >= 0 else -1.0
            modal_m = modal[2 * m :]
            modal_m_pattern = np.where(modal_m > 0, 1, -1).astype(np.int8)
            cluster = -1
            for i, sig in enumerate(sig_patterns):
                if _sym_hamming(sig, modal_m_pattern) <= config.hamming_radius:
                    cluster = i
                    break
            if cluster < 0:
                cluster = len(signatures)
                signatures.append(modal_m.copy())
                sig_patterns.append(modal_m_pattern)
            key = (cluster, j)
            if key not in columns:
                col = np.zeros(d)
                for row, blk in zip(rounded, window_idx[members]):
                    col[blk * b : (blk + 1) * b] = s_x * row
                columns[key] = col
            coefficients[k][key] = s_x * float(weights[k, window_idx[seed_pos]])
    return LearnedDictionary(config, len(signatures), signatures, columns, coefficients)


def assert_bitwise_equal(got, want):
    assert got.n_atoms == want.n_atoms
    assert [(s.dtype, s.tobytes()) for s in got.signatures] == [
        (s.dtype, s.tobytes()) for s in want.signatures
    ]
    assert repr(list(got.columns)) == repr(list(want.columns))  # discovery order and key types
    for key, col in want.columns.items():
        assert (got.columns[key].dtype, got.columns[key].tobytes()) == (col.dtype, col.tobytes()), key
    hexed = lambda coeffs: [[(repr(key), float(v).hex()) for key, v in c.items()] for c in coeffs]
    assert hexed(got.coefficients) == hexed(want.coefficients)


def codeword(j, b_m, params=PLANT):
    """Scaled column-signature codeword of index j, also for j beyond d."""
    t = params.index_bits
    word = np.ones(params.sub_block)
    word[1 : t + 1] = [1 if ((j - 1) >> (t - 1 - i)) & 1 else -1 for i in range(t)]
    word[t + 1] = b_m
    return word * params.entry_scale


def crafted_codeword_batch(seed=8):
    """A planted batch plus five samples, each one column at 0.9, the first
    four with their column-signature thirds rewritten:

    - corrupt: every block encodes an index beyond d, so the modal codeword
      is corrupt and the set is skipped;
    - vote: six agreeing blocks are the only decodable ones, and the corrupt
      rest would flip the parity vote if they voted;
    - tie: the blocks split evenly between two valid codewords;
    - overlap: as tie, plus one block Z for the second codeword.  Z sits
      inside every seed's matching set but one: seed Y, whose random-string
      third has the same signs as seed X's, but is nudged the other way.  So
      X's set decodes the second codeword and Y's set the first;
    - cross: codewords untouched; Z as in overlap, and seed Y halfway in
      block order, nudged as in overlap and scaled by 1.1 (weight 0.99).
      Y's set lacks Z, so two sets decode to the same column and Y falls
      between the other set's seeds; the last seed, not Y, sets the
      coefficient.
    """
    params = PLANT
    m = params.sub_block
    mats, _xs, ys, _planted = plant_instance(seed=seed, n_samples=30)
    wide = [j for j in range(1, params.d + 1) if len(mats[0].active_blocks(j)) >= 14]
    even = next(j for j in wide[2:] if len(mats[0].active_blocks(j)) % 2 == 0)
    odd = next(j for j in wide[2:] if len(mats[0].active_blocks(j)) % 2 == 1)
    out = {}
    names = ("corrupt", "vote", "tie", "overlap", "cross")
    for name, j in zip(names, (wide[0], wide[1], even, odd, wide[-1])):
        col = mats[0].column(j)
        blks = [int(blk) for blk in mats[0].active_blocks(j)]
        if name == "cross":
            z_blk, y_blk = blks[0], blks[len(blks) // 2]
            for blk, nudge in ((z_blk, 0.5), (y_blk, -0.2)):
                col[blk * params.b : blk * params.b + 2] *= (1 + nudge, 1 - nudge)
            col[y_blk * params.b : (y_blk + 1) * params.b] *= 1.1
            blks = []  # every codeword stays j's own
        elif name == "overlap":
            z_blk, y_blk = blks.pop(0), blks[-1]
            x_blk = next(blk for blk in blks[-2::-1] if col[blk * params.b] == col[y_blk * params.b])
            for blk, nudge in ((x_blk, 0.2), (y_blk, -0.2), (z_blk, 0.5)):
                col[blk * params.b : blk * params.b + 2] *= (1 + nudge, 1 - nudge)
            col[z_blk * params.b + m : z_blk * params.b + 2 * m] = codeword(params.d - j, 1)
        for n, blk in enumerate(blks):
            lo = blk * params.b + m
            agree = 1 if col[lo + m] > 0 else -1  # this row's vote is agree * b_m
            if name == "corrupt":
                word = codeword(params.d + 1 + n, agree)
            elif name == "vote":
                word = codeword(j, agree) if n < 6 else codeword(params.d + 1 + n, -agree)
            else:
                word = codeword(j if n < len(blks) // 2 else params.d - j, 1)
            col[lo : lo + m] = word
        out[name] = (j, len(ys))
        ys = np.vstack([ys, 0.9 * col])
    return ys, out


# oracle batches planted under other parameters than PLANT: more than 64
# blocks per sample, and a sub-block wider than 64 bits
BATCH_PARAMS = {
    "87-blocks": auto_params(4176, 8),
    "wide-sub-block": BlockParams(b=195, q=0.9, d=1950, n_cap=6),
}


def plant_batch(name):
    if name == "crafted-codewords":
        return crafted_codeword_batch()[0]
    if name == "crafted-cross":
        ys, rows = crafted_codeword_batch()
        return ys[rows["cross"][1] :]
    if name == "l1-spike":
        ys = plant_instance(seed=6, n_samples=60)[2].copy()
        ys[:, 7 * PLANT.b : 8 * PLANT.b] += math.sqrt(PLANT.d) / PLANT.b
        return ys
    if name == "degenerate-rows":
        ys = plant_instance(seed=10, n_samples=30)[2]
        # the learner refuses a non-finite batch, so the huge rows stand in
        # for the infinite and NaN ones a sketch cannot hold
        part_huge = ys[1].copy()
        part_huge[3 * PLANT.b : 4 * PLANT.b] = 1e300
        odd = [np.zeros(PLANT.d), ys[0].copy(), np.full(PLANT.d, 1e300), -ys[0], part_huge]
        rows = []
        for k, row in enumerate(ys):
            rows += [row] + odd[k : k + 1]
        return np.array(rows)
    if name in BATCH_PARAMS:
        return plant_instance(seed=11, n_samples=60, params=BATCH_PARAMS[name])[2]
    kwargs = {
        "plain": dict(seed=0),
        "negative-sign": dict(seed=2, dominant_sign=-1),
        "one-matrix": dict(seed=3, n_matrices=1),
        "three-matrices": dict(seed=9, n_matrices=3),
    }[name]
    return plant_instance(n_samples=60, **kwargs)[2]


@pytest.mark.parametrize(
    "name",
    [
        "plain", "negative-sign", "l1-spike", "one-matrix", "three-matrices", "crafted-codewords", "crafted-cross",
        "87-blocks", "wide-sub-block", "degenerate-rows",
    ],
)
def test_learner_bitwise_per_seed_oracle(name):
    ys = plant_batch(name)
    config = config_for(BATCH_PARAMS.get(name, PLANT))
    got = learn_dictionary(ys, config)
    assert got.columns
    assert_bitwise_equal(got, reference_learn(ys, config))


def test_crafted_codewords_exercise_the_decode_rules():
    ys, rows = crafted_codeword_batch()
    learned = learn_dictionary(ys, config_for())
    _j, k = rows["corrupt"]
    assert learned.coefficients[k] == {}  # corrupt modal codeword: skipped
    j, k = rows["vote"]
    [(key, val)] = learned.coefficients[k].items()
    assert key[1] == j and val > 0  # only the six decodable rows voted
    j, k = rows["tie"]  # j - 1 < d - j - 1, so j's codeword is the smaller pattern
    assert [key[1] for key in learned.coefficients[k]] == [j]
    j, k = rows["overlap"]
    assert sorted(key[1] for key in learned.coefficients[k]) == [j, PLANT.d - j]
    j, k = rows["cross"]
    [(key, val)] = learned.coefficients[k].items()
    assert key[1] == j and val == pytest.approx(0.9, abs=0.01)  # not Y's 0.99


def test_parse_matching_set_matches_scalar_decode():
    """Member rows whose column thirds come from two codewords (either may
    lie beyond d) under random global signs: one batched parse of all sets
    agrees with decoding each set's modal row and every member row on their
    own, and the modal rows do not vote."""
    m, scale = PLANT.sub_block, PLANT.entry_scale
    rng = np.random.default_rng(1)
    sets = []
    for _ in range(400):
        n = int(rng.integers(1, 9))
        pool = [codeword(int(j), int(rng.choice([-1, 1]))) for j in rng.integers(1, PLANT.d + 60, size=2)]
        z = rng.choice([-1.0, 1.0], size=(n, PLANT.b)) * rng.uniform(0.5, 1.5, size=(n, PLANT.b)) * scale
        for row in z:
            row[m : 2 * m] = pool[int(rng.integers(2))] * rng.choice([-1, 1])
        sets.append(z)
    set_of_row = np.repeat(np.arange(len(sets)), [len(z) for z in sets])
    got_j, got_sign, got_rounded, got_modal_m = _parse_matching_sets(np.vstack(sets), set_of_row, len(sets), PLANT)
    outcomes = set()
    for s, z in enumerate(sets):
        rounded = np.where(z >= 0, scale, -scale)
        np.testing.assert_array_equal(got_rounded[set_of_row == s], rounded)
        modal = np.empty(PLANT.b)
        for lo in (0, m, 2 * m):
            uniq, counts = np.unique(rounded[:, lo : lo + m] > 0, axis=0, return_counts=True)
            modal[lo : lo + m] = np.where(uniq[np.argmax(counts)], scale, -scale)
        try:
            j, _ = decode_column_signature(modal[m : 2 * m], PLANT)
        except CorruptCodewordError:
            assert got_j[s] > PLANT.d
            outcomes.add("corrupt")
            continue
        votes = 0
        for row in rounded:
            try:
                votes += (1 if row[2 * m] > 0 else -1) * decode_column_signature(row[m : 2 * m], PLANT)[1]
            except CorruptCodewordError:
                pass
        outcomes.add(("tie" if votes == 0 else "vote", votes >= 0))
        assert repr(got_j.tolist()[s]) == repr(j) and got_sign[s] == (1.0 if votes >= 0 else -1.0)
        np.testing.assert_array_equal(got_modal_m[s], modal[2 * m :])
    assert outcomes == {"corrupt", ("tie", True), ("vote", True), ("vote", False)}


def test_modal_row_matches_unique_tie_rule():
    """Groups of rows drawn from small pools, so counts often tie, all in one
    call per width: each group's modal row is the one ``np.unique(axis=0)``
    ranks first among the most frequent."""
    rng = np.random.default_rng(0)
    for width in (1, 7, 8, 9, 15, 64, 65, 70):
        groups = []
        for _ in range(200):
            pool = rng.integers(0, 2, size=(int(rng.integers(1, 5)), width)).astype(bool)
            groups.append(pool[rng.integers(0, len(pool), size=int(rng.integers(1, 20)))])
        group = np.repeat(np.arange(len(groups)), [len(bits) for bits in groups])
        # the rows of the groups interleaved, so a group's rows are not adjacent
        shuffle = rng.permutation(len(group))
        got = _modal_rows(np.vstack(groups)[shuffle], group[shuffle], len(groups))
        ties = 0
        for g, bits in enumerate(groups):
            uniq, counts = np.unique(bits.astype(np.int8), axis=0, return_counts=True)
            np.testing.assert_array_equal(got[g], uniq[np.argmax(counts)] > 0)
            ties += np.count_nonzero(counts == counts.max()) > 1
        assert ties > 0


# ---------------------------------------------------------------------------
# Permutation matching against the per-column loop
# ---------------------------------------------------------------------------


def reference_match(learned, truth):
    """``match_permutation`` as it was before it counted sign bits of all
    columns at once: each signature is compared with each truth, and each
    column with ``column(j)`` of its truth, by ``_sym_hamming``."""
    p = learned.config.params
    radius = max(1, int(round(learned.config.sig_match_eps_factor * learned.config.eps_recover)))
    true_sigs = [np.where(mat.sigma_m > 0, 1, -1).astype(np.int8) for mat in truth]
    permutation, ambiguous, unmatched = {}, [], []
    for i, sig in enumerate(learned.signatures):
        pattern = np.where(sig > 0, 1, -1).astype(np.int8)
        hits = [t for t, ts in enumerate(true_sigs) if _sym_hamming(pattern, ts) <= radius]
        if len(hits) == 1:
            permutation[i] = hits[0]
        elif len(hits) > 1:
            ambiguous.append(i)
        else:
            unmatched.append(i)
    rows = []
    for (i, j), col in sorted(learned.columns.items()):
        if i not in permutation:
            continue
        true_col = truth[permutation[i]].column(j)
        sym = _sym_hamming(np.sign(col), np.sign(true_col))
        installed = np.nonzero(col)[0]
        signed_on_installed = int(np.count_nonzero(np.sign(col[installed]) != np.sign(true_col[installed])))
        rows.append(
            {
                "cluster": i,
                "true_matrix": permutation[i],
                "column": j,
                "sym_hamming": sym,
                "signed_mismatch_on_installed": signed_on_installed,
                "within_criterion": sym <= 0.2 * p.d,
            }
        )
    return PermutationReport(permutation=permutation, ambiguous=ambiguous, unmatched=unmatched, column_rows=rows)


def assert_report_matches_reference(learned, truth):
    """Equal field by field, with the type of every value, and return it."""
    got, want = match_permutation(learned, truth), reference_match(learned, truth)
    typed = lambda report: (
        [(type(k), k, type(v), v) for k, v in report.permutation.items()],
        [(type(i), i) for i in report.ambiguous],
        [(type(i), i) for i in report.unmatched],
        [[(key, type(v), v) for key, v in row.items()] for row in report.column_rows],
    )
    assert typed(got) == typed(want)
    return got


# planted like PLANT, at a d that is not a multiple of 8, so the packed sign
# rows end in a padded byte
ODD_PARAMS = BlockParams(b=45, q=0.5, d=45 * 31, n_cap=6)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=0),
        dict(seed=2, dominant_sign=-1),
        dict(seed=9, n_matrices=3),
        dict(seed=12, params=ODD_PARAMS),
        dict(seed=13, n_matrices=3, params=ODD_PARAMS),
    ],
    ids=["plain", "negative-sign", "three-matrices", "odd-d", "odd-d-three-matrices"],
)
def test_match_permutation_per_column_oracle(kwargs):
    mats, _xs, ys, _planted = plant_instance(n_samples=100, **kwargs)
    learned = learn_dictionary(ys, config_for(kwargs.get("params", PLANT)))
    report = assert_report_matches_reference(learned, mats)
    assert len(report.column_rows) == len(learned.columns) > 0


def test_match_permutation_empty_dictionary():
    mats = plant_instance(seed=0, n_samples=1)[0]
    learned = learn_dictionary(np.zeros((5, PLANT.d)), config_for())
    report = assert_report_matches_reference(learned, mats)
    assert (report.permutation, report.ambiguous, report.unmatched, report.column_rows) == ({}, [], [], [])


def test_match_permutation_without_truth_leaves_every_cluster_unmatched():
    _mats, _xs, ys, _planted = plant_instance(seed=0, n_samples=30)
    learned = learn_dictionary(ys, config_for())
    report = assert_report_matches_reference(learned, [])
    assert report.unmatched == list(range(learned.n_atoms)) and report.column_rows == []


def test_match_permutation_truth_no_cluster_matches():
    mats, _xs, ys, _planted = plant_instance(seed=1, n_samples=30)
    learned = learn_dictionary(ys, config_for())
    spare = sample_matrix(PLANT, "plant:spare")
    report = assert_report_matches_reference(learned, [spare] + mats)
    assert 0 not in report.permutation.values() and report.unmatched == []
    assert sorted(report.permutation.values()) == [1, 2]


def test_match_permutation_hand_built_clusters():
    """Cluster 0 matches truths 0 and 2 (truth 2 is truth 0 with one
    signature bit flipped), cluster 1 matches truth 1 only, and cluster 2
    matches none.  Cluster 1's columns are installed on some blocks only, one
    of them with a negative global sign and one with a block of the wrong
    sign."""
    mats = plant_instance(seed=3, n_samples=1)[0]
    near = mats[0].sigma_m.copy()
    near[4] = -near[4]
    truth = mats + [dataclasses.replace(mats[0], sigma_m=near)]
    far = mats[1].sigma_m * np.where(np.arange(PLANT.sub_block) % 2, 1, -1)
    b = PLANT.b
    columns = {}
    for n, j in enumerate((5, 700, PLANT.d)):
        col = mats[1].column(j)
        active = mats[1].active_blocks(j)
        col.reshape(-1, b)[active[::3]] = 0.0  # a third of its blocks not installed
        if n == 1:
            col = -col
        if n == 2:
            col.reshape(-1, b)[active[1]] *= -1
        columns[(1, j)] = col
    columns[(0, 9)] = mats[0].column(9)
    columns[(2, 9)] = mats[1].column(9)
    learned = LearnedDictionary(
        config=config_for(), n_atoms=3, signatures=[-mats[0].sigma_m, mats[1].sigma_m, far],
        columns=columns, coefficients=[],
    )
    report = assert_report_matches_reference(learned, truth)
    assert (report.permutation, report.ambiguous, report.unmatched) == ({1: 1}, [0], [2])
    signed = [row["signed_mismatch_on_installed"] for row in report.column_rows]
    assert signed[0] == 0 and signed[1] > 0 and signed[2] == b
    assert [row["column"] for row in report.column_rows] == [5, 700, PLANT.d]


@pytest.mark.parametrize(
    "make",
    [
        lambda: sample_matrix(BlockParams(b=45, q=0.5, d=1530, n_cap=6), "plant:0:1"),
        lambda: sample_matrix(BlockParams(b=48, q=0.5, d=1440, n_cap=6), "plant:0:1"),
        lambda: sample_first_column(PLANT, "plant:0:1"),  # truth 1's signature, one column
    ],
    ids=["other-d", "other-b", "first-column-only"],
)
def test_match_permutation_refuses_truth_of_other_dimensions(make):
    mats, _xs, ys, _planted = plant_instance(seed=0, n_samples=30)
    learned = learn_dictionary(ys, config_for())
    with pytest.raises(DimensionMismatchError):
        match_permutation(learned, mats[:1] + [make()])


# ---------------------------------------------------------------------------
# Classification rules
# ---------------------------------------------------------------------------


def test_classify_low_norm_is_garbage():
    vectors = [np.zeros(8), np.full(8, 0.01)]
    labels = classify_recovered_vectors(vectors, w_goal=0.5, recursion_budget=6, eps_level=0.05)
    assert labels == ["garbage", "garbage"]


def test_classify_e1_disambiguation():
    e1_like = np.zeros(8)
    e1_like[0] = 0.25
    attr_like = np.zeros(8)
    attr_like[0] = 0.05  # first coordinate well under the e1 level
    attr_like[3] = 0.2
    labels = classify_recovered_vectors(
        [attr_like, e1_like], w_goal=0.5, recursion_budget=6, eps_level=0.04
    )
    assert labels == ["attribute", "e1"]


def test_classify_all_below_threshold_prunes():
    v = np.zeros(8)
    v[3] = 0.2  # survives the garbage test but no first-coordinate evidence
    labels = classify_recovered_vectors([v], w_goal=0.5, recursion_budget=6, eps_level=0.05)
    assert labels == ["object-sketch"]
    # and with a tiny weight goal the threshold rises above any first coord
    labels2 = classify_recovered_vectors(
        [v], w_goal=64.0, recursion_budget=1, eps_level=0.05
    )
    assert labels2 == ["object-sketch"] or labels2 == ["garbage"]


def test_eps_schedule_shape():
    sched = default_eps_schedule(0.1, 4)
    assert len(sched) == 4
    assert all(a <= b for a, b in zip(sched, sched[1:]))
    assert sched[-1] == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Unrolling
# ---------------------------------------------------------------------------


# The flat fixture superposes three comparable coefficients per sample, so a
# fraction 1-(1-q)^2 of each column's blocks collide and rightly fail the
# matching test; the set floor is lowered accordingly (the (0.9)^3 default
# assumes a single globally dominant coefficient).
UNROLL_PARAMS = BlockParams(b=45, q=0.2, d=2880, n_cap=6)


def unroll_config():
    return DLConfig(params=UNROLL_PARAMS, eps_recover=0.05, set_floor_frac=0.3)


def flat_pair_batch(seed, w=0.5, n_per_module=25, light_module=False):
    """Terminal-level fixture: each sample carries one module's attribute
    pair, y = R_{M,1} (w/2) x + R_{M,2} (w/2) e_1."""
    params = UNROLL_PARAMS
    d = params.d
    rng = np.random.default_rng(seed)
    mats = {}
    for mod in ("A", "B", "C"):
        for slot in (1, 2):
            mats[(mod, slot)] = sample_matrix(params, f"unroll:{seed}:{mod}:{slot}")
    x_by_module = {}
    for mod in ("A", "B", "C"):
        x = np.zeros(d)
        x[2 + ord(mod) - ord("A")] = 0.6
        x[8 + ord(mod) - ord("A")] = 0.8
        x_by_module[mod] = x
    e1 = np.zeros(d)
    e1[0] = 1.0
    samples = []
    roles = []
    modules = ["A", "B"] + (["C"] if light_module else [])
    for k in range(n_per_module * len(modules)):
        mod = modules[k % len(modules)]
        weight = 0.004 if mod == "C" else w
        x = x_by_module[mod]
        y = mats[(mod, 1)].matvec(0.5 * weight * x) + mats[(mod, 2)].matvec(0.5 * weight * e1)
        samples.append(y)
        roles.append(mod)
    return params, np.array(samples), x_by_module, roles


def test_unroll_terminal_level_recovers_modules():
    params, samples, x_by_module, roles = flat_pair_batch(seed=0)
    result = unroll_network(
        samples, params, w_goal=0.5, recursion_budget=6, eps_final=0.05, levels=1,
        dl_config=unroll_config(),
    )
    assert result.n_modules == 2
    # each module's unscaled attribute estimates match its true attributes
    matched = 0
    for rec in result.modules.values():
        assert rec.attributes, "module recovered with no occurrences"
        mean_attr = np.mean(rec.attributes, axis=0)
        best = min(
            np.max(np.abs(mean_attr - x)) for x in x_by_module.values()
        )
        assert best <= 0.1
        matched += 1
    assert matched == 2
    # roughly every sample of each module contributed
    assert all(count >= 20 for count in result.sample_counts.values())


def test_unroll_light_module_absent_no_false_module():
    params, samples, _x, _roles = flat_pair_batch(seed=1, light_module=True)
    result = unroll_network(
        samples, params, w_goal=0.5, recursion_budget=6, eps_final=0.05, levels=1,
        dl_config=unroll_config(),
    )
    # module C's vectors sit far below the garbage threshold
    assert result.n_modules == 2


def recursing_batch(params=PLANT):
    """Samples whose recovered slices carry no e1 evidence, so they recurse."""
    mat = sample_matrix(params, "unroll:noise")
    xs = np.zeros((10, params.d))
    xs[:, 99] = 0.8  # dominant coordinate away from e1
    return np.array([mat.matvec(x) for x in xs])


def mixed_unroll_batch():
    """Flat pairs at w=0.3, samples carrying two attribute vectors beside
    their e_1, and recursing samples, in one batch."""
    params, flat, _x, _roles = flat_pair_batch(seed=0, w=0.3)
    d = params.d
    mats = [sample_matrix(params, f"unroll:two:{slot}") for slot in (1, 2, 3)]
    x, x2, e1 = np.zeros(d), np.zeros(d), np.zeros(d)
    x[2], x[8], x2[5], e1[0] = 0.6, 0.8, 1.0, 1.0
    rng = np.random.default_rng(4)
    two = [sum(m.matvec(0.1 * rng.uniform(0.9, 1.1) * v) for m, v in zip(mats, (x, e1, x2))) for _ in range(10)]
    return params, np.vstack([flat, two, recursing_batch(params)])


def test_unroll_reports_partial_recovery_when_levels_cannot_recurse():
    # the recursing samples die out; the result reports the levels run and
    # an empty module table
    result = unroll_network(
        recursing_batch(), PLANT, w_goal=0.5, recursion_budget=6, eps_final=0.05, levels=3
    )
    assert result.n_modules == 0
    assert result.frames_per_level[0] == 10
    assert result.levels_run >= 1


def reference_unroll(sketches, params, w_goal, recursion_budget, eps_final, levels, dl_config):
    """The unroll loop as it was before it became one pass over ``(sample id,
    vector)`` frames: each cluster id of a frame is visited in turn.  Returns
    ``(modules, frames_per_level)``, modules mapping the e_1 cluster to its
    ``(attributes, sample_ids)``."""
    config = dl_config or DLConfig(params=params, eps_recover=eps_final)
    y = np.atleast_2d(np.asarray(sketches, dtype=np.float64))
    frames = [(k, y[k]) for k in range(y.shape[0])]
    modules = {}
    frames_per_level = []
    for eps_level in default_eps_schedule(eps_final, levels):
        if not frames:
            break
        frames_per_level.append(len(frames))
        learned = learn_dictionary(np.stack([f[1] for f in frames]), config)
        next_frames = []
        for idx, (sample_id, _vec) in enumerate(frames):
            slices = learned.recovered_slices(idx)
            if not slices:
                continue
            cluster_ids = sorted(slices)
            vectors = [slices[c] for c in cluster_ids]
            labels = classify_recovered_vectors(vectors, w_goal, recursion_budget, eps_level)
            e1_scale = None
            attr_vectors = []
            for cid, vec, label in zip(cluster_ids, vectors, labels):
                if label == "garbage":
                    continue
                if label == "e1":
                    e1_scale = float(vec[0])
                    e1_cluster = cid
                elif label == "attribute":
                    attr_vectors.append(vec)
                else:
                    next_frames.append((sample_id, vec))
            if e1_scale is not None and e1_scale > 0:
                attrs, ids = modules.setdefault(e1_cluster, ([], []))
                for vec in attr_vectors:
                    attrs.append(vec / e1_scale)
                    ids.append(sample_id)
        frames = next_frames
    return modules, frames_per_level


def unroll_fixture(name):
    """``(samples, params, levels, dl_config)`` of a named unroll fixture."""
    if name == "recursing":
        return recursing_batch(), PLANT, 3, None
    if name == "mixed":
        params, samples = mixed_unroll_batch()
        return samples, params, 2, unroll_config()
    _flat, seed, levels = name.split("-")
    params, samples, _x, _roles = flat_pair_batch(seed=int(seed), light_module=seed == "1")
    return samples, params, int(levels), unroll_config()


@pytest.mark.parametrize(
    "name", [f"flat-{seed}-{levels}" for seed in (0, 1, 2) for levels in (1, 2)] + ["mixed", "recursing"]
)
def test_unroll_bitwise_reference_loop(name):
    samples, params, levels, config = unroll_fixture(name)
    args = (samples, params, 0.5, 6, 0.05, levels, config)
    got = unroll_network(*args)
    want_modules, want_frames = reference_unroll(*args)
    assert list(got.modules) == list(want_modules)
    for key, (attrs, ids) in want_modules.items():
        rec = got.modules[key]
        assert [(a.dtype, a.tobytes()) for a in rec.attributes] == [(a.dtype, a.tobytes()) for a in attrs]
        assert rec.sample_ids == ids
    assert list(got.sample_counts.items()) == [(key, len(set(ids))) for key, (_a, ids) in want_modules.items()]
    assert got.frames_per_level == want_frames
    assert got.levels_run == len(want_frames)
    # each fixture reaches the paths it is here for
    assert {"recursing": [10, 10], "mixed": [70, 10]}.get(name, want_frames) == want_frames
    assert got.n_modules == {"recursing": 0, "mixed": 3}.get(name, 2)
