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

``unroll_network`` applies this level by level to overall sketches of a
fixed-tree network, classifying recovered vectors into attribute vectors,
unit markers (e_1), recursable object sketches, and garbage.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

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


def default_eps_schedule(eps_final: float, levels: int) -> tuple[float, ...]:
    """Nondecreasing per-level tolerances, geometric with ratio 2.

    The analysis only fixes the shape (eps_1 <= ... <= eps_H, polynomially
    related); the committed desk-scale schedule halves per remaining level.
    """
    return tuple(eps_final / (2.0 ** (levels - h)) for h in range(1, levels + 1))


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
    sig_match_eps_factor: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_recover <= 1.0:
            raise ParameterError(f"eps_recover must lie in (0, 1], got {self.eps_recover}")

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
            out.setdefault(i, np.zeros(d))[j - 1] = val
        return out


def _sym_hamming(a: np.ndarray, b: np.ndarray) -> int:
    return int(min(np.count_nonzero(a != b), np.count_nonzero(a != -b)))


# ---------------------------------------------------------------------------
# The learner
# ---------------------------------------------------------------------------


def _modal_row(bits: np.ndarray) -> np.ndarray:
    """Most frequent row of a boolean matrix, the lexicographically smallest
    among ties (the row ``np.unique(axis=0)`` ranks first).

    Rows are packed most significant bit first, so byte order is row order.
    """
    packed = np.packbits(bits, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return bits[first[np.argmax(counts)]]


def _parse_matching_set(z_members: np.ndarray, p: BlockParams) -> tuple | None:
    """Round a matching set to the hypercube and read its column.

    Returns ``(j, s_x, rounded, modal_m)``, or None when the modal column
    codeword is corrupt.  The member rows and the modal row are decoded as
    :func:`~modsketch.block_random.decode_column_signature` does (normalized
    by the sign of coordinate 0, index bits MSB first, parity bit at t+1);
    an index beyond d is corrupt.  The sign s_x is a parity vote over the
    member rows whose codewords are not corrupt.
    """
    m, t, scale = p.sub_block, p.index_bits, p.entry_scale
    rounded = np.where(z_members >= 0, scale, -scale)  # (n_members, b)
    bits = rounded > 0
    modal_bits = np.concatenate([_modal_row(bits[:, lo : lo + m]) for lo in (0, m, 2 * m)])
    rows = np.vstack([bits, modal_bits])  # the modal row decodes last
    code = rows[:, m : 2 * m] ^ ~rows[:, m : m + 1]
    rows_j = code[:, 1 : t + 1] @ (1 << np.arange(t - 1, -1, -1, dtype=np.int64)) + 1
    if rows_j[-1] > p.d:
        return None
    votes = np.where(rows[:, 2 * m], 1, -1) * np.where(code[:, t + 1], 1, -1)
    s_x = 1.0 if votes[:-1][rows_j[:-1] <= p.d].sum() >= 0 else -1.0
    return int(rows_j[-1]), s_x, rounded, np.where(modal_bits[2 * m :], scale, -scale)


def learn_dictionary(samples: np.ndarray, config: DLConfig) -> LearnedDictionary:
    """Scan all blocks of all samples and collect identifiable columns.

    Every seed block of a dominant column finds the same matching set, so
    each distinct set of a sample is parsed, clustered and installed once;
    each seed then writes its own weight, in seed order, so the last seed
    of a column wins.  Ill-conditioned inputs never fail; they simply yield
    fewer recovered columns and zero coefficients.
    """
    p = config.params
    d, b, q, m, n_blocks = p.d, p.b, p.q, p.sub_block, p.n_blocks
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(samples, dtype=np.float64)))
    if y.shape[1] != d:
        raise DimensionMismatchError(f"samples have dimension {y.shape[1]}, expected {d}")
    n_samples = y.shape[0]
    tau2 = config.tau2_value

    blocks = y.reshape(n_samples, n_blocks, b)
    abs_blocks = np.abs(blocks)
    weights = abs_blocks.sum(axis=2) * math.sqrt(q * d) / b  # |x| of a clean dominated block
    # magnitude window (pre-normalization): every coordinate in [tau1, 2/sqrt(qd)]
    in_window = (
        (weights > 0)
        & (abs_blocks.min(axis=2) >= config.tau1_value)
        & (abs_blocks.max(axis=2) <= config.upper_value)
    )

    signatures: list[np.ndarray] = []
    sig_patterns: list[np.ndarray] = []  # +-1 int8 views of signatures
    columns: dict[tuple[int, int], np.ndarray] = {}
    coefficients: list[dict[tuple[int, int], float]] = [dict() for _ in range(n_samples)]

    for k in range(n_samples):
        window_idx = np.nonzero(in_window[k])[0]
        zs = blocks[k, window_idx] / weights[k, window_idx, None]  # normalized blocks
        zs_s = zs[:, :m]
        # seed blocks additionally pass the hypercube closeness test
        seeds = np.nonzero(np.max(np.abs(np.abs(zs_s) - config.scale), axis=1) <= tau2)[0]
        # matching sets, one row per seed: symmetric l-inf closeness on the
        # random-string third
        seed_s = zs_s[seeds, None, :]
        d_plus = np.max(np.abs(zs_s - seed_s), axis=2)
        d_minus = np.max(np.abs(zs_s + seed_s), axis=2)
        match = np.minimum(d_plus, d_minus) <= 2 * tau2
        kept = match.sum(axis=1) >= config.set_floor
        seeds, match = seeds[kept], match[kept]
        packed = np.packbits(match, axis=1)
        set_keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, set_of_seed = np.unique(set_keys, return_index=True, return_inverse=True)
        parsed_sets: list[tuple | None] = [None] * len(first)
        for s in np.argsort(first):  # sets in the order of their first seed
            members = np.nonzero(match[first[s]])[0]
            parsed = _parse_matching_set(zs[members], p)
            if parsed is None:  # corrupt modal codeword
                continue
            j, s_x, rounded, modal_m = parsed
            modal_m_pattern = np.where(modal_m > 0, 1, -1).astype(np.int8)
            # clusters are only appended, so the first seed's lookup holds for the set
            cluster = next(
                (i for i, sig in enumerate(sig_patterns)
                 if _sym_hamming(sig, modal_m_pattern) <= config.hamming_radius),
                len(signatures),
            )
            if cluster == len(signatures):
                signatures.append(modal_m)
                sig_patterns.append(modal_m_pattern)
            key = (cluster, j)
            if key not in columns:
                columns[key] = np.zeros(d)
                columns[key].reshape(n_blocks, b)[window_idx[members]] = s_x * rounded
            parsed_sets[s] = (key, s_x)
        for s, seed_pos in zip(set_of_seed, seeds):
            if parsed_sets[s] is not None:
                key, s_x = parsed_sets[s]
                coefficients[k][key] = s_x * float(weights[k, window_idx[seed_pos]])

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
    """
    p = learned.config.params
    m = p.sub_block
    radius = max(1, int(round(learned.config.sig_match_eps_factor * learned.config.eps_recover)))
    true_sigs = [np.where(mat.sigma_m > 0, 1, -1).astype(np.int8) for mat in truth]

    permutation: dict[int, int] = {}
    ambiguous: list[int] = []
    unmatched: list[int] = []
    for i, sig in enumerate(learned.signatures):
        pattern = np.where(sig > 0, 1, -1).astype(np.int8)
        hits = [t for t, ts in enumerate(true_sigs) if _sym_hamming(pattern, ts) <= radius]
        if len(hits) == 1:
            permutation[i] = hits[0]
        elif len(hits) > 1:
            ambiguous.append(i)
        else:
            unmatched.append(i)

    rows: list[dict] = []
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
    return PermutationReport(
        permutation=permutation, ambiguous=ambiguous, unmatched=unmatched, column_rows=rows
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

    for eps_level in default_eps_schedule(eps_final, levels):
        if not frames:
            break
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
    available) the permutation report.
    """
    p = learned.config.params
    b = p.b
    atoms_dir = os.path.join(out_dir, "atoms")
    os.makedirs(atoms_dir, exist_ok=True)

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
