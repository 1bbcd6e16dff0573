"""Recovering the random matrices and inputs from sketch samples alone.

Given samples y = [R_1 .. R_N] x + noise with the R_i drawn from the
block-sparse family, every coefficient x_j that dominates the blocks it
touches leaves them looking like clean scaled hypercube patterns.  The
learner scans all blocks of all samples and keeps the ones that

  1. sit inside the magnitude window [tau1, 2/sqrt(qd)] on every coordinate,
  2. have an l1-normalized random-string third close to the hypercube,
  3. recur across at least (0.9)^3 * qd/b blocks of the sample (matching in
     symmetric l-inf distance on the random-string third).

Accepted blocks are rounded to the hypercube and parsed: the matrix-signature
third clusters blocks into matrices, the column-signature third decodes the
column index, and the two parity bits embedded in the code tie the observed
global sign to the true sign of the coefficient, which is what makes the
recovery *recursable* (signs and the matrix permutation come out right, so
recovered coefficient vectors can be fed back in as new samples).

The scan is one pass over the whole batch, not a loop over samples: the
window, the seed test and the seed-against-window matching (in fixed-size
chunks of (seed, block) pairs) run over every block of every sample at once,
the distinct matching sets come from one ``np.unique`` over (sample, match
row) keys, and every set is rounded and decoded in one vectorized step.
Only what depends on order stays a loop: clustering and installing columns,
set by set, and writing coefficients, in seed order.

Permutation matching against known matrices is one pass as well: every
signature is compared with every true signature, and every column with its
true column, by counting packed sign bits.

``unroll_network`` applies this level by level to overall sketches of a
fixed-tree network, classifying recovered vectors into attribute vectors,
unit markers (e_1), recursable object sketches, and garbage.
"""

from __future__ import annotations

import glob
import math
import os
from dataclasses import dataclass, field
from numbers import Real
from typing import ClassVar

import numpy as np

from modsketch.block_random import BlockParams, DimensionMismatchError, ParameterError

__all__ = [
    "DLConfig",
    "LearnedDictionary",
    "learn_dictionary",
    "PermutationReport",
    "match_permutation",
    "classify_recovered_vectors",
    "UnrollResult",
    "unroll_network",
    "default_eps_schedule",
    "save_dictionary_artifacts",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _level_eps(eps_final: float, levels: int, level: int) -> float:
    """eps_final halved once per level after ``level``, by exponent, so no level count overflows."""
    return math.ldexp(eps_final, level - levels)


def default_eps_schedule(eps_final: float, levels: int) -> tuple[float, ...]:
    """Nondecreasing per-level tolerances, geometric with ratio 2.

    The analysis only fixes the shape (eps_1 <= ... <= eps_H, polynomially
    related); the committed desk-scale schedule halves per remaining level.
    """
    return tuple(_level_eps(eps_final, levels, h) for h in range(1, levels + 1))


HAMMING_MATCH_FRAC = 0.01  # signature match radius, as a fraction of b


@dataclass
class DLConfig:
    """Thresholds of the block-scanning recovery.

    The analysis prescribes the shapes (tau1 ~ eps/sqrt(qd), tau2 ~ eps^2,
    set floor (0.9)^3 qd/b, signature radius 0.01 b); the constants here were
    fixed by the committed plant-and-recover calibration.
    """

    params: BlockParams
    eps_recover: float = 0.1
    set_floor_frac: float = 0.9**3
    sig_match_eps_factor: ClassVar[float] = 10.0  # match_permutation's signature radius over eps_recover

    def __post_init__(self) -> None:
        eps = self.eps_recover
        if isinstance(eps, bool) or not isinstance(eps, Real) or not 0.0 < eps <= 1.0:
            raise ParameterError(f"eps_recover must be a number in (0, 1], got {eps!r}")

    @property
    def scale(self) -> float:
        return self.params.entry_scale

    @property
    def tau1_value(self) -> float:
        return 0.5 * self.eps_recover * self.scale

    @property
    def tau2_value(self) -> float:
        return self.eps_recover**2

    @property
    def upper_value(self) -> float:
        return 2.0 * self.scale

    @property
    def set_floor(self) -> float:
        p = self.params
        return self.set_floor_frac * p.q * p.d / p.b

    @property
    def hamming_radius(self) -> int:
        return int(HAMMING_MATCH_FRAC * self.params.b)


# ---------------------------------------------------------------------------
# Output container
# ---------------------------------------------------------------------------


@dataclass
class LearnedDictionary:
    """Matrices and coefficients recovered from one batch of samples.

    Clusters are numbered in discovery order; ``signatures[i]`` is the
    representative matrix-signature pattern of cluster i (global sign
    arbitrary), ``columns[(i, j)]`` a recovered column (zero off its observed
    blocks), and ``coefficients[k]`` maps (i, j) to the signed coefficient of
    sample k.
    """

    config: DLConfig
    n_atoms: int
    signatures: list[np.ndarray]
    columns: dict[tuple[int, int], np.ndarray]
    coefficients: list[dict[tuple[int, int], float]]

    def coefficient(self, k: int, i: int, j: int) -> float:
        return self.coefficients[k].get((i, j), 0.0)

    def recovered_slices(self, k: int) -> dict[int, np.ndarray]:
        """Per-cluster dense coefficient slice of sample k."""
        d = self.config.params.d
        out: dict[int, np.ndarray] = {}
        for (i, j), val in self.coefficients[k].items():
            if i not in out:
                out[i] = np.zeros(d)
            out[i][j - 1] = val
        return out


def _sym_hamming(a: np.ndarray, b: np.ndarray) -> int:
    return int(min(np.count_nonzero(a != b), np.count_nonzero(a != -b)))


# ---------------------------------------------------------------------------
# The learner
# ---------------------------------------------------------------------------


# bytes of each float temporary of the seed x window pass: small enough that
# the pass's temporaries stay in cache, and bounded whatever the batch size
_CHUNK_BYTES = 1 << 18


def _row_keys(group: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """One void key per row of a boolean matrix: the row's group id, then the
    row packed most significant bit first.

    Both parts are big-endian, so byte order is (group, row) order.
    """
    raw = np.concatenate(
        [group.astype(">u8")[:, None].view(np.uint8), np.packbits(bits, axis=1)], axis=1
    )
    return raw.view(np.dtype((np.void, raw.shape[1]))).ravel()


def _match_rows(
    zs_s: np.ndarray, win_k: np.ndarray, win_blk: np.ndarray, seeds: np.ndarray, n_blocks: int, radius: float
) -> np.ndarray:
    """Matching sets, one row per seed over the blocks of its sample: the
    in-window blocks within ``radius`` of the seed in symmetric l-inf
    distance on the random-string third.

    Column i of ``zs_s`` is block ``win_blk[i]`` of sample ``win_k[i]``, by
    sample, then by block.  The (seed, block of the seed's sample) pairs are
    compared in chunks of ``_CHUNK_BYTES`` per temporary.
    """
    win_count = np.bincount(win_k)
    seed_k = win_k[seeds]
    pair_count = win_count[seed_k]
    pair_seed = np.repeat(np.arange(len(seeds)), pair_count)
    # pair n of a seed whose pairs start at n0 compares it with the column
    # n - n0 past the first in-window block of its sample
    shift = (np.cumsum(pair_count) - pair_count) - (np.cumsum(win_count) - win_count)[seed_k]
    pair_win = np.arange(len(pair_seed)) - np.repeat(shift, pair_count)
    match = np.empty(len(pair_seed), dtype=bool)
    step = max(1, _CHUNK_BYTES // (8 * len(zs_s)))
    for lo in range(0, len(match), step):
        hi = lo + step
        block_s, seed_s = zs_s.take(pair_win[lo:hi], axis=1), zs_s.take(seeds[pair_seed[lo:hi]], axis=1)
        d_plus = np.max(np.abs(block_s - seed_s), axis=0)
        d_minus = np.max(np.abs(np.add(block_s, seed_s, out=block_s), out=block_s), axis=0)
        match[lo:hi] = np.minimum(d_plus, d_minus) <= radius
    rows = np.zeros((len(seeds), n_blocks), dtype=bool)
    rows[pair_seed[match], win_blk[pair_win[match]]] = True
    return rows


def _modal_rows(bits: np.ndarray, group: np.ndarray, n_groups: int) -> np.ndarray:
    """Most frequent row of each group of a boolean matrix, the
    lexicographically smallest among ties (the row ``np.unique(axis=0)``
    ranks first).  Every group in ``range(n_groups)`` must hold a row.
    """
    _, first, counts = np.unique(_row_keys(group, bits), return_index=True, return_counts=True)
    key_group = group[first]  # nondecreasing: keys sort by group first
    # within a group, the highest count first; stable, so ties keep row order
    order = np.lexsort((-counts, key_group))
    starts = np.searchsorted(key_group[order], np.arange(n_groups))
    return bits[first[order[starts]]]


def _parse_matching_sets(z: np.ndarray, set_of_row: np.ndarray, n_sets: int, p: BlockParams) -> tuple:
    """Round the member rows of many matching sets to the hypercube and read
    each set's column.

    Returns ``(j, s_x, rounded, modal_m)``: per set the column index (beyond
    d when the modal column codeword is corrupt), the sign and the modal
    matrix-signature third; per row the rounded block.  The member rows and
    the modal rows are decoded as
    :func:`~modsketch.block_random.decode_column_signature` does (normalized
    by the sign of coordinate 0, index bits MSB first, parity bit at t+1);
    an index beyond d is corrupt.  The sign s_x is a parity vote over the
    member rows whose codewords are not corrupt.
    """
    m, t, scale = p.sub_block, p.index_bits, p.entry_scale
    bits = z >= 0
    rounded = np.where(bits, scale, -scale)  # (n_rows, b)
    modal_c, modal_m = (_modal_rows(bits[:, lo : lo + m], set_of_row, n_sets) for lo in (m, 2 * m))
    powers = 1 << np.arange(t - 1, -1, -1, dtype=np.int64)
    rows = np.vstack([bits[:, m : 2 * m], modal_c])  # the modal rows decode last
    code = rows ^ ~rows[:, :1]
    rows_j = code[:, 1 : t + 1] @ powers + 1
    n_rows = len(bits)
    votes = np.where(bits[:, 2 * m], 1, -1) * np.where(code[:n_rows, t + 1], 1, -1)
    tally = np.bincount(set_of_row, weights=votes * (rows_j[:n_rows] <= p.d), minlength=n_sets)
    s_x = np.where(tally >= 0, 1.0, -1.0)
    return rows_j[n_rows:], s_x, rounded, np.where(modal_m, scale, -scale)


def learn_dictionary(samples: np.ndarray, config: DLConfig) -> LearnedDictionary:
    """Scan all blocks of all samples and collect identifiable columns.

    Every seed block of a dominant column finds the same matching set, so
    each distinct set of a sample is clustered and installed once, in the
    order of its first seed; each seed then writes its own weight, in seed
    order, so the last seed of a column wins.  The samples must be a finite
    2-D array of width d; an ill-conditioned one never fails, it simply
    yields fewer recovered columns and zero coefficients.
    """
    p = config.params
    d, b, q, m, n_blocks = p.d, p.b, p.q, p.sub_block, p.n_blocks
    y = np.asarray(samples)
    if y.ndim != 2 or y.dtype.kind not in "iuf":
        raise ParameterError(f"samples must be a 2-D array of real numbers, got a {y.ndim}-D {y.dtype} array")
    if y.shape[1] != d:
        raise DimensionMismatchError(f"samples have dimension {y.shape[1]}, expected {d}")
    y = np.ascontiguousarray(y, dtype=np.float64)
    n_samples = y.shape[0]
    tau2 = config.tau2_value

    blocks = y.reshape(n_samples, n_blocks, b)
    abs_blocks = np.abs(blocks)
    block_max = abs_blocks.max(axis=2)  # NaN or inf exactly where the block holds one
    finite = np.isfinite(block_max).all(axis=1)
    if not finite.all():
        raise ParameterError(f"samples must be finite, sample {int(np.argmin(finite))} is not")
    weights = abs_blocks.sum(axis=2) * math.sqrt(q * d) / b  # |x| of a clean dominated block
    # magnitude window (pre-normalization): every coordinate in [tau1, 2/sqrt(qd)]
    in_window = (
        (weights > 0)
        & (abs_blocks.min(axis=2) >= config.tau1_value)
        & (block_max <= config.upper_value)
    )
    del abs_blocks  # as large as the batch, and nothing below reads it

    # every in-window block of the batch, by sample, then by block
    win_k, win_blk = np.nonzero(in_window)
    # normalized random-string thirds, one column per block, so that every
    # reduction over a third runs across the contiguous block axis
    zs_s = np.ascontiguousarray((blocks[win_k, win_blk, :m] / weights[win_k, win_blk, None]).T)
    # seed blocks additionally pass the hypercube closeness test
    seeds = np.nonzero(np.max(np.abs(np.abs(zs_s) - config.scale), axis=0) <= tau2)[0]
    match_rows = _match_rows(zs_s, win_k, win_blk, seeds, n_blocks, 2 * tau2)
    kept = np.count_nonzero(match_rows, axis=1) >= config.set_floor
    seeds, match_rows = seeds[kept], match_rows[kept]
    seed_k = win_k[seeds]

    # distinct sets per sample, in the order of their first seed
    _, first, set_of_seed = np.unique(_row_keys(seed_k, match_rows), return_index=True, return_inverse=True)
    order = np.argsort(first)
    first, set_of_seed = first[order], np.argsort(order)[set_of_seed]
    member_set, member_blk = np.nonzero(match_rows[first])
    member_k = seed_k[first][member_set]
    set_j, set_sign, rounded, set_modal_m = _parse_matching_sets(
        blocks[member_k, member_blk] / weights[member_k, member_blk, None], member_set, len(first), p
    )
    set_bounds = np.searchsorted(member_set, np.arange(len(first) + 1))

    signatures: list[np.ndarray] = []
    sig_patterns: list[np.ndarray] = []  # +-1 int8 views of signatures
    cluster_of: dict[bytes, int] = {}  # modal signature third -> its cluster
    columns: dict[tuple[int, int], np.ndarray] = {}
    set_keys: list[tuple[int, int] | None] = []
    for s, (j, s_x) in enumerate(zip(set_j.tolist(), set_sign.tolist())):
        if j > d:  # corrupt modal codeword
            set_keys.append(None)
            continue
        modal_m = set_modal_m[s]
        # clusters are only appended, so the first lookup of a signature holds
        sig_key = modal_m.tobytes()
        cluster = cluster_of.get(sig_key)
        if cluster is None:
            pattern = np.where(modal_m > 0, 1, -1).astype(np.int8)
            cluster = next(
                (i for i, sig in enumerate(sig_patterns) if _sym_hamming(sig, pattern) <= config.hamming_radius),
                len(signatures),
            )
            if cluster == len(signatures):
                signatures.append(modal_m.copy())
                sig_patterns.append(pattern)
            cluster_of[sig_key] = cluster
        key = (cluster, j)
        if key not in columns:
            lo, hi = set_bounds[s], set_bounds[s + 1]
            columns[key] = np.zeros(d)
            columns[key].reshape(n_blocks, b)[member_blk[lo:hi]] = s_x * rounded[lo:hi]
        set_keys.append(key)

    # each sample's seeds in seed order: a dict keeps a key where it first
    # came and its last value, so the last seed of a column wins
    parsed = set_j[set_of_seed] <= d
    values = (set_sign[set_of_seed] * weights[seed_k, win_blk[seeds]])[parsed].tolist()
    keys = [set_keys[s] for s in set_of_seed[parsed].tolist()]
    bounds = np.searchsorted(seed_k[parsed], np.arange(n_samples + 1)).tolist()
    coefficients = [dict(zip(keys[lo:hi], values[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]

    return LearnedDictionary(
        config=config,
        n_atoms=len(signatures),
        signatures=signatures,
        columns=columns,
        coefficients=coefficients,
    )


# ---------------------------------------------------------------------------
# Permutation matching against ground truth (test harness side)
# ---------------------------------------------------------------------------


@dataclass
class PermutationReport:
    permutation: dict[int, int]  # learned cluster -> true matrix index
    ambiguous: list[int]  # learned clusters matching several true signatures
    unmatched: list[int]  # learned clusters matching none
    column_rows: list[dict] = field(default_factory=list)

    def all_within_criterion(self) -> bool:
        return all(row["within_criterion"] for row in self.column_rows)


def match_permutation(learned: LearnedDictionary, truth: list) -> PermutationReport:
    """Align recovered clusters with true matrices by signature.

    Signatures match at symmetric Hamming radius 10*eps (sub-block
    coordinates); each recovered column is then compared against its matched
    truth: full symmetric Hamming distance, the 0.2d criterion, and the
    signed distance restricted to the blocks the learner actually installed.

    Both distances are counted over sign bits.  With |supp L| and |supp T|
    the nonzero counts of the learned and the true column, ``same`` and
    ``opp`` the coordinates where both are nonzero with equal and with
    opposite signs:

      sym_hamming = |supp L| + |supp T| - 2 (same + opp) + min(same, opp)
      signed_mismatch_on_installed = |supp L| - same

    Truth matrices of another d or b than the dictionary's, or holding fewer
    than d columns, are refused with :class:`DimensionMismatchError`.
    """
    p = learned.config.params
    d, b, m = p.d, p.b, p.sub_block
    for t, mat in enumerate(truth):
        if mat.params.b != b or (mat.d, mat.eta.shape[1]) != (d, d):
            raise DimensionMismatchError(
                f"truth matrix {t} is {mat.d} x {mat.eta.shape[1]} at b={mat.params.b}; "
                f"the dictionary needs {d} x {d} at b={b}"
            )
    radius = max(1, int(round(learned.config.sig_match_eps_factor * learned.config.eps_recover)))

    # one (clusters x truths) array of symmetric Hamming distances between
    # signatures, read as +1 where positive and -1 elsewhere
    learned_sigs = np.packbits(np.array(learned.signatures).reshape(-1, m) > 0, axis=1)
    true_sigs = np.packbits(np.array([mat.sigma_m for mat in truth]).reshape(-1, m) > 0, axis=1)
    differ = np.bitwise_count(learned_sigs[:, None] ^ true_sigs[None]).sum(axis=2, dtype=np.int64)
    hits = np.minimum(differ, m - differ) <= radius
    n_hits = np.count_nonzero(hits, axis=1)
    matched = np.flatnonzero(n_hits == 1)
    permutation = dict(zip(matched.tolist(), np.nonzero(hits[matched])[1].tolist()))

    keys = [key for key in sorted(learned.columns) if key[0] in permutation]
    cols = np.array([learned.columns[key] for key in keys]).reshape(len(keys), d)
    true_of_key = np.array([permutation[i] for i, _ in keys], dtype=np.intp)
    js = np.array([j for _, j in keys], dtype=np.intp)
    # each key's true column as sign masks, written block by block: the CSC
    # data holds every active (column, block) pair's b entries, column by
    # column and by block within a column, so column j's r-th active block
    # is row indptr[j - 1] / b + r of the data taken b entries at a time
    true_pos = np.zeros((len(keys), d // b, b), dtype=bool)
    true_neg = np.zeros_like(true_pos)
    for t in np.unique(true_of_key).tolist():
        sel = np.flatnonzero(true_of_key == t)
        mat = truth[t]
        active = mat.eta[:, js[sel] - 1].T
        block_rows = (mat.csc.indptr[js[sel] - 1, None] // b + np.cumsum(active, axis=1) - 1)[active]
        blocks = mat.csc.data.reshape(-1, b)[block_rows]
        key_of_block, blk = np.nonzero(active)
        true_pos[sel[key_of_block], blk] = blocks > 0
        true_neg[sel[key_of_block], blk] = blocks < 0

    # packbits pads each row with zero bits, which add to no count
    l_pos, l_neg = np.packbits(cols > 0, axis=1), np.packbits(cols < 0, axis=1)
    t_pos, t_neg = (np.packbits(x.reshape(len(keys), d), axis=1) for x in (true_pos, true_neg))
    supp_l, supp_t, same, opp = np.bitwise_count(
        np.stack([l_pos | l_neg, t_pos | t_neg, (l_pos & t_pos) | (l_neg & t_neg), (l_pos & t_neg) | (l_neg & t_pos)])
    ).sum(axis=2, dtype=np.int64)
    sym = supp_l + supp_t - 2 * (same + opp) + np.minimum(same, opp)
    rows = [
        {
            "cluster": i,
            "true_matrix": t,
            "column": j,
            "sym_hamming": s,
            "signed_mismatch_on_installed": signed,
            "within_criterion": within,
        }
        for (i, j), t, s, signed, within in zip(
            keys, true_of_key.tolist(), sym.tolist(), (supp_l - same).tolist(), (sym <= 0.2 * d).tolist()
        )
    ]
    return PermutationReport(
        permutation=permutation,
        ambiguous=np.flatnonzero(n_hits > 1).tolist(),
        unmatched=np.flatnonzero(n_hits == 0).tolist(),
        column_rows=rows,
    )


# ---------------------------------------------------------------------------
# Classification of recovered vectors (network unrolling)
# ---------------------------------------------------------------------------


def classify_recovered_vectors(
    vectors: list[np.ndarray],
    w_goal: float,
    recursion_budget: int,
    eps_level: float,
) -> list[str]:
    """Label one parent's recovered children.

    Low-infinity-norm vectors are garbage.  If any survivor's first
    coordinate clears 3 * w * 2^-H, the parent was an attribute subsketch:
    the largest first coordinate is the unit marker e_1 and its siblings are
    attribute vectors.  Otherwise the survivors are recursable object-sketch
    material.
    """
    labels = ["garbage"] * len(vectors)
    survivors = [
        idx for idx, v in enumerate(vectors) if v.size and float(np.max(np.abs(v))) >= eps_level
    ]
    if not survivors:
        return labels
    threshold = 3.0 * w_goal * 2.0 ** (-recursion_budget)
    first_coords = {idx: float(vectors[idx][0]) for idx in survivors}
    passing = [idx for idx in survivors if first_coords[idx] >= threshold]
    if passing:
        e1_idx = max(passing, key=lambda idx: first_coords[idx])
        for idx in survivors:
            labels[idx] = "e1" if idx == e1_idx else "attribute"
    else:
        for idx in survivors:
            labels[idx] = "object-sketch"
    return labels


# ---------------------------------------------------------------------------
# Level-by-level unrolling
# ---------------------------------------------------------------------------


@dataclass
class ModuleRecovery:
    """Recovered occurrences of one module: unscaled attribute estimates."""

    attributes: list[np.ndarray] = field(default_factory=list)
    sample_ids: list[int] = field(default_factory=list)


@dataclass
class UnrollResult:
    modules: dict[int, ModuleRecovery]  # keyed by the e_1 cluster, the module's fingerprint
    levels_run: int
    frames_per_level: list[int]
    sample_counts: dict[int, int]

    @property
    def n_modules(self) -> int:
        return len(self.modules)


def unroll_network(
    sketches: np.ndarray,
    params: BlockParams,
    w_goal: float,
    recursion_budget: int,
    eps_final: float = 0.05,
    levels: int | None = None,
    dl_config: DLConfig | None = None,
) -> UnrollResult:
    """Alternate dictionary learning and classification over sketch levels.

    Level 1 consumes the overall sketches; each subsequent level consumes the
    recovered coefficient slices of the previous one.  When a frame's
    children contain a vector passing the e_1 first-coordinate test, that
    branch terminates as a (module fingerprint, attribute estimate) pair,
    unscaled by the e_1 magnitude; branches whose children all stay below the
    test are pruned as garbage once no recursable material remains.
    """
    levels = levels if levels is not None else recursion_budget
    config = dl_config or DLConfig(params=params, eps_recover=eps_final)

    y = np.atleast_2d(np.asarray(sketches, dtype=np.float64))
    frames = list(enumerate(y))  # (sample id, vector)
    modules: dict[int, ModuleRecovery] = {}
    frames_per_level: list[int] = []

    for level in range(1, levels + 1):
        if not frames:
            break
        eps_level = _level_eps(eps_final, levels, level)
        frames_per_level.append(len(frames))
        learned = learn_dictionary(np.stack([vec for _, vec in frames]), config)
        next_frames: list[tuple[int, np.ndarray]] = []
        for idx, (sample_id, _) in enumerate(frames):
            slices = learned.recovered_slices(idx)
            cluster_ids = sorted(slices)
            vectors = [slices[c] for c in cluster_ids]
            labels = classify_recovered_vectors(vectors, w_goal, recursion_budget, eps_level)
            next_frames += [(sample_id, v) for v, label in zip(vectors, labels) if label == "object-sketch"]
            if "e1" not in labels:
                continue
            e1_cluster = cluster_ids[labels.index("e1")]
            e1_scale = float(slices[e1_cluster][0])
            if e1_scale > 0:
                rec = modules.setdefault(e1_cluster, ModuleRecovery())
                for vec, label in zip(vectors, labels):
                    if label == "attribute":
                        rec.attributes.append(vec / e1_scale)
                        rec.sample_ids.append(sample_id)
        frames = next_frames

    return UnrollResult(
        modules=modules,
        levels_run=len(frames_per_level),
        frames_per_level=frames_per_level,
        sample_counts={key: len(set(rec.sample_ids)) for key, rec in modules.items()},
    )


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def save_dictionary_artifacts(
    learned: LearnedDictionary,
    out_dir: str,
    permutation: PermutationReport | None = None,
) -> None:
    """Emit the dictionary as a directory of plain-text artifacts.

    One file per recovered atom (rows of ``block_index: sign pattern``), a
    signature table, a coefficients CSV, and (when ground truth was
    available) the permutation report.  Atom files and a permutation report
    left by an earlier run into the same directory are removed first; no
    other file is touched.
    """
    p = learned.config.params
    b = p.b
    atoms_dir = os.path.join(out_dir, "atoms")
    os.makedirs(atoms_dir, exist_ok=True)
    stale = glob.glob(os.path.join(glob.escape(atoms_dir), "atom_*_*.txt"))
    for path in stale + [os.path.join(out_dir, "permutation.csv")]:
        if os.path.isfile(path):
            os.remove(path)

    with open(os.path.join(out_dir, "signatures.txt"), "w", encoding="utf-8") as fh:
        for i, sig in enumerate(learned.signatures):
            bits = "".join("+" if v > 0 else "-" for v in sig)
            fh.write(f"{i} {bits}\n")

    for (i, j), col in sorted(learned.columns.items()):
        path = os.path.join(atoms_dir, f"atom_{i}_{j}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for blk in np.nonzero(col.reshape(-1, b).any(axis=1))[0]:
                pattern = col[blk * b : (blk + 1) * b]
                bits = "".join("+" if v > 0 else "-" for v in pattern)
                fh.write(f"{blk}: {bits}\n")

    with open(os.path.join(out_dir, "coefficients.csv"), "w", encoding="utf-8") as fh:
        fh.write("sample,cluster,column,value\n")
        for k, coeffs in enumerate(learned.coefficients):
            for (i, j), val in sorted(coeffs.items()):
                fh.write(f"{k},{i},{j},{float(val)!r}\n")

    if permutation is not None:
        with open(os.path.join(out_dir, "permutation.csv"), "w", encoding="utf-8") as fh:
            fh.write("cluster,true_matrix,column,sym_hamming,within_criterion\n")
            for row in permutation.column_rows:
                fh.write(
                    f"{row['cluster']},{row['true_matrix']},{row['column']},"
                    f"{row['sym_hamming']},{int(row['within_criterion'])}\n"
                )
