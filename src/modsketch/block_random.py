"""Block-sparse signed random matrices.

A matrix from the family ``D(b, q, d)`` is d x d and column-block structured:
each column is split into d/b blocks of b entries, each block is independently
active with probability q, and an active block carries three sub-blocks of
b/3 entries each, all of magnitude 1/sqrt(d*q):

* a per-column "random string" (shared by all blocks of the column),
* a "column signature" encoding the column index and two parity bits,
* a "matrix signature" shared by every active block of the whole matrix.

Each sub-block is multiplied by its own per-(block, column) sign flip.  The
signatures are what make the family *identifiable*: sketches built from these
matrices can later be decomposed without knowing the matrices, because every
strong enough coefficient leaves legible signed block patterns behind
(see :mod:`modsketch.dictlearn`).

Columns are unit norm in expectation, and the family behaves like a noisy
rotation: ``<Rx, Rx>`` concentrates on ``<x, x>`` (isometry) and ``<Rx, y>``
concentrates on zero for independent x, y (desynchronization).
:func:`modsketch.calibrated.measure_noise_profile` measures both deviations.

A draw reads one run of raw outputs of its seed's Philox stream (draw format
v1, see :func:`_draw`).  A matrix keeps that compact draw and assembles it
only as far as its products read it.  Assembly multiplies one int8 base row
per column by the 8 sign masks of a block, and gathers a pattern per active
block.  A forward product of an input with at most half its rows nonzero
assembles only the columns of those rows, and keeps nothing.  The first
transposed product, or ``column``, assembles every column once, as a 1 x b
block (BSR) view: the float data and one row index per active block.  The
first other forward product, or ``csc``, adds the int32 row index of every
entry and wraps the same data as the CSC form.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from modsketch._seeding import derive_rng

__all__ = [
    "ParameterError",
    "DimensionMismatchError",
    "CorruptCodewordError",
    "BlockParams",
    "auto_params",
    "corollary_q",
    "encode_column_signature",
    "decode_column_signature",
    "BlockRandomMatrix",
    "OrthonormalMatrix",
    "IdentityMatrix",
    "sample_matrix",
    "sample_first_column",
    "sample_orthonormal",
    "transparent",
]


class ModsketchError(ValueError):
    """Base of every error the package raises on bad input or arguments."""


class ParameterError(ModsketchError):
    """Invalid block parameters or operation arguments."""


class DimensionMismatchError(ParameterError):
    """Vector/matrix dimensions do not agree."""


class CorruptCodewordError(ModsketchError):
    """A column-signature codeword decoded to an out-of-range index."""


def require_integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """value as the int it equals, a numpy integer too.  A bool, a float, a
    string or an integer outside [low, high] (high only with low) is refused:
    ``<what> must be an integer[ >= low | in [low, high]], got <value!r>``."""
    # a plain int, the common case, passes the first test alone
    if type(value) is int or isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        n = int(value)
        if (low is None or n >= low) and (high is None or n <= high):
            return n
    bound = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
    raise ParameterError(f"{what} must be an integer{bound}, got {value!r}")


def require_real(value, what: str, low: float, high: float, ends: str) -> float:
    """value as the Python float it equals, an int or a numpy number too but never a bool, if finite and between
    low and high, each end closed or open as ``ends`` says ("[]", "[)", "(]" or "()"); else a ParameterError."""
    if type(value) is float or isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        x = float(value) if type(value) is not int or value.bit_length() < 1024 else math.inf  # no float holds it
        if math.isfinite(x) and (low < x or x == low and ends[0] == "[") and (x < high or x == high and ends[1] == "]"):
            return x
    raise ParameterError(f"{what} must be a finite number in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")


def require_array(value, what: str, ndim: int, width: int | None = None) -> np.ndarray:
    """value as a float64 array, a float64 ndarray not copied, if an ndarray, list or tuple of real numbers (no
    bool) with ndim axes, a last axis width long when width is given and every entry finite; else a ParameterError
    naming what: ``must be a <ndim>-D array of real numbers``, ``must have width`` or ``must be finite``."""
    try:
        array = np.asarray(value) if isinstance(value, (np.ndarray, list, tuple)) else None
    except ValueError:  # a ragged list
        array = None
    if array is None or array.ndim != ndim or array.dtype.kind not in "iuf":
        got = type(value).__name__ if array is None else f"{array.ndim}-D {array.dtype}"
        raise ParameterError(f"{what} must be a {ndim}-D array of real numbers, got {got}")
    if width is not None and array.shape[-1] != width:
        raise DimensionMismatchError(f"{what} must have width {width}, got {array.shape[-1]}")
    if not np.isfinite(array).all():  # the one pass over the entries of a finite array
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(array))[0])  # the first non-finite value
        raise ParameterError(f"{what} must be finite, value {at[0] if ndim == 1 else at} is {float(array[at])!r}")
    return array.astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def _ceil_log2(n: int) -> int:
    if n <= 1:
        return 0
    return int(math.ceil(math.log2(n)))


def _min_block(d: int, n_cap: int) -> int:
    """The smallest admissible b: 3 * max(ceil(log2 n_cap), ceil(log2 d) + 3)."""
    return 3 * max(_ceil_log2(n_cap), _ceil_log2(d) + 3)


@dataclass(frozen=True)
class BlockParams:
    """Parameters of the block-sparse matrix family.

    b must be a multiple of 3 and large enough that a third of a block can
    hold the column-index code (see :func:`_min_block`).  Matrix sampling
    additionally requires d to be a multiple of b (the signature code alone
    does not); use :func:`auto_params` to round a requested dimension up to
    the next aligned value.
    """

    b: int
    q: float  # kept as the float it equals: the draw key spells it with str
    d: int
    n_cap: int

    def __post_init__(self) -> None:
        for name, low in (("b", None), ("d", 1), ("n_cap", 2)):
            object.__setattr__(self, name, require_integer(getattr(self, name), name, low))
        if self.b % 3 != 0:
            raise ParameterError(f"b must be a multiple of 3, got {self.b}")
        floor = _min_block(self.d, self.n_cap)
        if self.b < floor:
            raise ParameterError(
                f"b={self.b} too small for d={self.d}, n_cap={self.n_cap}; need b >= {floor}"
            )
        object.__setattr__(self, "q", require_real(self.q, "q", 0, 1, "[]"))

    @property
    def sub_block(self) -> int:
        """Entries per sub-block (b/3)."""
        return self.b // 3

    @property
    def index_bits(self) -> int:
        """Bits used for the column index inside the signature code."""
        return _ceil_log2(self.d)

    @property
    def n_blocks(self) -> int:
        if self.d % self.b != 0:
            raise ParameterError(
                f"d={self.d} is not a multiple of b={self.b}; matrix layout undefined"
            )
        return self.d // self.b

    @property
    def entry_scale(self) -> float:
        """Magnitude of every nonzero entry, 1/sqrt(d*q)."""
        if self.q <= 0.0:
            raise ParameterError("entry scale undefined for q = 0")
        return 1.0 / math.sqrt(self.d * self.q)

    def require_alignment(self) -> None:
        self.n_blocks  # raises if misaligned


def corollary_q(d: int, n_cap: int) -> float:
    """Default activation probability sqrt((log2 N + log2 d) * log2 N / d).

    This is the sparsity at which the family's isometry/desynchronization
    deviation scales like ~1/sqrt(d) (up to log factors); capped at 1.
    """
    ln_n = max(1.0, math.log2(n_cap))
    ln_d = max(1.0, math.log2(d))
    return min(1.0, math.sqrt((ln_n + ln_d) * ln_n / d))


def auto_params(d_request: int, n_cap: int, q: float | None = None) -> BlockParams:
    """Build aligned parameters for a requested dimension.

    b is the smallest admissible block size and d is rounded *up* to the next
    multiple of b; because b itself depends on ceil(log2 d), the two are
    iterated to a fixpoint.  q defaults to :func:`corollary_q` of the final
    dimension.
    """
    d = d_request = require_integer(d_request, "requested dimension", 1)
    n_cap = require_integer(n_cap, "n_cap", 2)
    for _ in range(8):
        b = _min_block(d, n_cap)
        d_aligned = ((d + b - 1) // b) * b
        if d_aligned == d:
            break
        d = d_aligned
    else:  # pragma: no cover - the fixpoint stabilizes in <= 3 rounds
        raise ParameterError(f"could not align d={d_request} to a block size")
    q_val = corollary_q(d, n_cap) if q is None else q
    return BlockParams(b=b, q=q_val, d=d, n_cap=n_cap)


# ---------------------------------------------------------------------------
# Column-signature code
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _index_code_table(d: int, sub_block: int) -> np.ndarray:
    """Unscaled +/-1 codewords for all columns of a d-dimensional matrix.

    Layout per row: a leading +1, the MSB-first binary of j-1 mapped
    0 -> -1 / 1 -> +1, two +1 placeholders for the parity bits, and +1
    padding out to b/3 entries.  The table is shared by every caller, so it
    is read-only.
    """
    t = _ceil_log2(d)
    if sub_block < t + 3:
        raise ParameterError(f"sub-block of {sub_block} cannot hold {t} index bits + 3")
    table = np.ones((d, sub_block), dtype=np.int8)
    j = np.arange(d, dtype=np.int64)
    for k in range(t):
        bits = (j >> (t - 1 - k)) & 1
        table[:, 1 + k] = 2 * bits.astype(np.int8) - 1
    table.flags.writeable = False
    return table


def encode_column_signature(j: int, b_m: int, b_s: int, params: BlockParams) -> np.ndarray:
    """Encode column index j (1-based) and two parity bits as a sub-block.

    Returns a (b/3)-vector over {+-1/sqrt(d*q)}: leading +1, MSB-first sign
    bits of j-1, then b_m, b_s, then +1 padding, all scaled.
    """
    j = require_integer(j, "column index", 1, params.d)
    if b_m not in (-1, 1) or b_s not in (-1, 1):
        raise ParameterError("parity bits must be +1 or -1")
    t = params.index_bits
    code = _index_code_table(params.d, params.sub_block)[j - 1].astype(np.float64)
    code[t + 1] = b_m
    code[t + 2] = b_s
    return code * params.entry_scale


def decode_column_signature(z: np.ndarray, params: BlockParams) -> tuple[int, int]:
    """Invert :func:`encode_column_signature` up to global sign.

    The input must already lie on the scaled hypercube (callers round first).
    Returns (column index, b_m).  A decoded index beyond d signals a
    corrupted codeword.
    """
    z = require_array(z, "codeword", 1, params.sub_block)
    if z[0] < 0:
        z = -z
    t = params.index_bits
    bits = (z[1 : t + 1] > 0).astype(np.int64)
    j = 0
    for bit in bits:
        j = (j << 1) | int(bit)
    j += 1
    if j > params.d:
        raise CorruptCodewordError(f"decoded column index {j} exceeds d={params.d}")
    sign = 1 if z[t + 1] > 0 else -1
    return j, sign


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def _require_length(x: np.ndarray, n: int) -> None:
    """Refuse a product input that is not a 1-D or 2-D array of real numbers whose first axis is n long.  It is
    not scanned for non-finite entries, which every product would pay: the sketch pass builds what it multiplies."""
    if not (isinstance(x, np.ndarray) and x.ndim in (1, 2) and x.dtype.kind in "iuf"):
        got = f"{x.ndim}-D {x.dtype}" if isinstance(x, np.ndarray) else type(x).__name__
        raise ParameterError(f"a product input must be a 1-D or 2-D array of real numbers, got {got}")
    if x.shape[0] != n:
        raise DimensionMismatchError(f"input of shape {x.shape} for a product needing length {n}")


@dataclass
class BlockRandomMatrix:
    """A draw from D(b, q, d), held compact and assembled on demand.

    ``flips`` stacks the per-(block, column) sign triples in the order
    (f_s, f_c, f_m); ``eta`` marks active blocks; ``sign_s`` holds the int8
    signs of the random strings, and ``sigma_s`` scales them on access.
    These, ``sigma_m`` and the norms are all the matrix holds until a
    product reads it.  Then:

    * ``matvec`` of an input with at most half its rows nonzero assembles
      only those columns, and keeps nothing;
    * the first ``rmatvec`` or ``column`` assembles every column once, as
      ``_blocks_t``: an n x d view of the float data as 1 x b blocks, with
      one row index per active block;
    * the first other ``matvec``, or ``csc``, adds the int32 row index of
      every entry and wraps the view's data as the d x n CSC form.

    So a matrix read only through sparse products never holds its entries,
    and one read only transposed never holds their row indices.  The
    structured fields let tests and the dictionary learner inspect ground
    truth, and the matrix is re-derivable bit-exactly from ``seed_key``.  It
    holds the draw's first n columns: all d, or one from
    :func:`sample_first_column`.
    """

    params: BlockParams
    seed_key: str
    sigma_m: np.ndarray  # (b/3,) scaled floats
    sign_s: np.ndarray = field(repr=False)  # (n, b/3) int8
    flips: np.ndarray  # (3, n_blocks, n) int8
    eta: np.ndarray  # (n_blocks, n) bool
    col_sq_norms: np.ndarray = field(repr=False)  # (n,)
    _blocks_t: sp.bsr_matrix | None = field(default=None, init=False, repr=False, compare=False)
    _csc: sp.csc_matrix | None = field(default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def sigma_s(self) -> np.ndarray:
        """(n, b/3) scaled floats of the random strings."""
        return self.sign_s.astype(np.float64) * _scale(self.params)

    def _arrays(self, cols: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_assemble`` of the given sorted columns (0-based), or of all."""
        # sigma_m keeps its signs at q = 0 too, where they scale to -0.0
        sign_m = np.where(np.signbit(self.sigma_m), -1, 1).astype(np.int8)
        return _assemble(self.params, sign_m, self.sign_s, self.flips, self.eta, cols)

    def _view(self) -> sp.bsr_matrix:
        """The n x d block view of every column, assembled on first use."""
        if self._blocks_t is None:
            with self._lock:
                if self._blocks_t is None:
                    data, indptr, ia = self._arrays()
                    b = self.params.b
                    self._blocks_t = sp.bsr_matrix((data.reshape(-1, 1, b), ia, indptr // b),
                                                   shape=(self.eta.shape[1], self.d), blocksize=(1, b))
        return self._blocks_t

    @property
    def csc(self) -> sp.csc_matrix:
        """The d x n CSC form, sharing the block view's data."""
        if self._csc is None:
            view = self._view()
            with self._lock:
                if self._csc is None:
                    self._csc = sp.csc_matrix(
                        (view.data.reshape(-1), _row_indices(self.params, view.indices), view.indptr * self.params.b),
                        shape=(self.d, self.eta.shape[1]),
                    )
        return self._csc

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``csc @ x`` for x of shape (n,) or (n, k), bit for bit.  When at
        most half of x's rows are nonzero, only the columns of those rows
        are assembled and multiply: a CSC product sums each entry column by
        column from +0.0, and a zero row adds only a signed zero, which
        changes no such sum.  A denser x takes the whole product, as most
        of the matrix would be assembled for little saving."""
        _require_length(x, self.eta.shape[1])
        rows = np.flatnonzero(x if x.ndim == 1 else x.any(axis=1))
        if 2 * len(rows) > len(x):
            return self.csc @ x
        data, indptr, ia = self._arrays(rows)
        part = sp.csc_matrix((data, _row_indices(self.params, ia), indptr), shape=(self.d, len(rows)))
        return part @ x[rows]

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``csc.T @ x`` for x of shape (d,) or (d, k), bit for bit: the block
        product adds each column's entries in the CSC order from +0.0."""
        _require_length(x, self.d)
        return self._view() @ x

    def column(self, j: int) -> np.ndarray:
        """Dense column j (1-based), equal bit for bit to ``matvec(e_j)``,
        read from the block view."""
        j = require_integer(j, "column", 1, self.eta.shape[1])
        view = self._view()
        lo, hi = view.indptr[j - 1], view.indptr[j]
        out = np.zeros(self.d)
        out.reshape(-1, self.params.b)[view.indices[lo:hi]] = view.data[lo:hi, 0]
        return out

    def active_blocks(self, j: int) -> np.ndarray:
        """Indices of active blocks of column j (1-based), 0-based blocks."""
        return np.nonzero(self.eta[:, j - 1])[0]

    def prefix_col_sq_norms(self, d_prime: int) -> np.ndarray:
        """Per-column squared norms restricted to the first d_prime rows.

        Every entry squares to the same s^2, so the running sum of squares
        over the CSC entries, taken left to right from +0.0, is T[n] after n
        in-prefix entries (out-of-prefix ones add +0.0, which changes
        nothing).  Counting each column's in-prefix entries from ``eta``
        gives both ends of its range in that sum.
        """
        b = self.params.b
        full, part = divmod(require_integer(d_prime, "prefix", 0, self.d), b)
        counts = b * self.eta[:full].sum(axis=0)
        if part and full < self.params.n_blocks:
            counts += part * self.eta[full]
        ends = np.concatenate([[0], np.cumsum(counts)])
        n = int(ends[-1])
        return np.diff(_sq_sum_table(self.params, 1 << n.bit_length())[ends])


@dataclass
class OrthonormalMatrix:
    """Haar-random rotation; the idealized stand-in used by prototype oracles."""

    dense: np.ndarray
    seed_key: str

    @property
    def d(self) -> int:
        return self.dense.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``dense @ x``; a (d, n) x is multiplied column by column, because a
        matrix-matrix product rounds differently from a matrix-vector one."""
        _require_length(x, self.d)
        if x.ndim == 1:
            return self.dense @ x
        return np.stack([self.dense @ col for col in np.ascontiguousarray(x.T)], axis=1)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        _require_length(x, self.d)
        return self.dense.T @ x

    def column(self, j: int) -> np.ndarray:
        return self.dense[:, require_integer(j, "column", 1, self.d) - 1].copy()

    @property
    def col_sq_norms(self) -> np.ndarray:
        return np.ones(self.d)

    def prefix_col_sq_norms(self, d_prime: int) -> np.ndarray:
        return np.sum(self.dense[: require_integer(d_prime, "prefix", 0, self.d), :] ** 2, axis=0)


@dataclass
class IdentityMatrix:
    """Test-mode matrix: R = I, so transparent wrappers pass vectors through."""

    dim: int
    seed_key: str = "identity"

    def __post_init__(self) -> None:
        self.dim = require_integer(self.dim, "dim", 1)

    @property
    def d(self) -> int:
        return self.dim

    def matvec(self, x: np.ndarray) -> np.ndarray:
        _require_length(x, self.dim)
        return np.array(x, dtype=np.float64)  # a copy

    rmatvec = matvec  # I is its own transpose

    def column(self, j: int) -> np.ndarray:
        col = np.zeros(self.dim)
        col[require_integer(j, "column", 1, self.dim) - 1] = 1.0
        return col

    @property
    def col_sq_norms(self) -> np.ndarray:
        return np.ones(self.dim)

    def prefix_col_sq_norms(self, d_prime: int) -> np.ndarray:
        return (np.arange(self.dim) < require_integer(d_prime, "prefix", 0, self.dim)).astype(np.float64)


AnyMatrix = BlockRandomMatrix | OrthonormalMatrix | IdentityMatrix


def transparent(mat: AnyMatrix, x: np.ndarray) -> np.ndarray:
    """The transparent factor (I + R)/2 applied to x: an unrotated copy of x
    beside the rotated one."""
    return (x + mat.matvec(x)) * 0.5


def _scale(params: BlockParams) -> float:
    """The entry scale, or 0 for q = 0 (which activates no block)."""
    return params.entry_scale if params.q > 0 else 0.0


@lru_cache(maxsize=4)
def _sq_sum_table(params: BlockParams, length: int) -> np.ndarray:
    """T[n] = s^2 + ... + s^2 (n terms, added left to right from +0.0) for
    n < length, s the entry scale; read-only, like the code table.

    Callers round length up to a power of two, so repeated prefixes share a
    table of at most twice the entries they read (4 MB for a half prefix at
    d=2070)."""
    s = _scale(params)
    table = np.zeros(length)
    np.cumsum(np.full(length - 1, s * s), out=table[1:])
    table.flags.writeable = False
    return table


def _signs(words: np.ndarray) -> np.ndarray:
    """int8 +-1 of bit 7 of each byte of ``words`` (32-bit words, least
    significant byte first): +1 where it is set."""
    signs = (words.view(np.uint8) >> 7).view(np.int8)
    signs += signs
    signs -= 1
    return signs


def _draw(params: BlockParams, seed_key: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The random part of a draw: int8 signs of sigma_m (b/3,) and sigma_s
    (d, b/3), int8 flips (3, n_blocks, d) and bool eta (n_blocks, d).

    Draw order is part of the format (v1): sigma_m, sigma_s, flips, eta, all
    read from one run of raw 64-bit Philox outputs.  The three int8 arrays
    take bit 7 of successive bytes of 32-bit words, least significant byte
    first; each 64-bit output gives its low half, then its high half, and
    each array starts on a fresh word, so a half left over by one array
    starts the next.  eta takes the next n_blocks*d outputs u, past any
    half left over, as ``(u >> 11) * 2**-53 < q``.  These are the bits that
    ``rng.integers(0, 2, dtype=np.int8)`` and ``rng.random`` draw.
    """
    params.require_alignment()
    d, m, n_blocks = params.d, params.sub_block, params.n_blocks
    sizes = (m, d * m, 3 * n_blocks * d)
    ends = np.cumsum([0] + [-(-n // 4) for n in sizes])  # word offsets; each array starts on a fresh word
    n_halves = -(-int(ends[-1]) // 2)
    rng = derive_rng(0, "block-matrix", seed_key, params.b, params.q, d)
    raw = rng.bit_generator.random_raw(n_halves + n_blocks * d)
    words = raw[:n_halves].astype("<u8", copy=False).view("<u4")
    sign_m, sign_s, flips = (_signs(words[lo:hi])[:n] for lo, hi, n in zip(ends[:-1], ends[1:], sizes))
    # (u >> 11) * 2**-53 < q, in integers: the product is exact, and an
    # integer is below q * 2**53 exactly when it is below its ceiling
    eta = (raw[n_halves:] >> 11) < math.ceil(params.q * 2.0**53)
    return sign_m, sign_s.reshape(d, m), flips.reshape(3, n_blocks, d), eta.reshape(n_blocks, d)


# (f_s, f_c, f_m) of sign pattern k: -1 where bit 2, 1 or 0 of k is set
_PATTERN_FLIPS = 1 - 2 * ((np.arange(8, dtype=np.int8)[:, None] >> np.array([2, 1, 0], dtype=np.int8)) & 1)


def _assemble(
    params: BlockParams,
    sign_m: np.ndarray,
    sign_s: np.ndarray,
    flips: np.ndarray,
    eta: np.ndarray,
    cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC data and int32 indptr of the given sorted columns (0-based) of a
    matrix's draw, or of all of them, and int32 ``ia``, the row block of
    each active block; :func:`_row_indices` turns ``ia`` into the CSC row
    indices.  ``sign_s``, ``flips`` and ``eta`` hold the matrix's n columns.

    A block of column j is one of 8 sign patterns, one per (f_s, f_c, f_m):
    the column's int8 base row sigma_s_j | Enc(j, sigma_m[0], sigma_s_j[0]) |
    sigma_m times a +-1 mask that repeats f_s, f_c and f_m over the thirds,
    with f_c*f_m and f_c*f_s at the parity places.  One multiply makes all 8,
    each active block gathers its own, and the int8 result is scaled once:
    every entry is +-1 times +-scale, which is exact, so the floats equal
    those of assembling in float64.
    """
    d, b, m, t = params.d, params.b, params.sub_block, params.index_bits
    code = _index_code_table(d, m)
    if cols is None:
        code = code[: eta.shape[1]]
    else:
        sign_s, flips, eta, code = sign_s[cols], flips[:, :, cols], eta[:, cols], code[cols]
    n_blocks, n_cols = eta.shape
    # column-major (column, block) pairs, so the CSC arrays come out sorted
    ja, ia = np.divmod(np.flatnonzero(eta.T), n_blocks)
    fs, fc, fm = np.take(flips.reshape(3, -1), ia * n_cols + ja, axis=1)

    base = np.empty((n_cols, b), dtype=np.int8)
    base[:, :m] = sign_s
    base[:, m : 2 * m] = code
    base[:, m + t + 1] = sign_m[0]
    base[:, m + t + 2] = sign_s[:, 0]
    base[:, 2 * m :] = sign_m
    masks = np.repeat(_PATTERN_FLIPS, m, axis=1)
    masks[:, m + t + 1 : m + t + 3] *= _PATTERN_FLIPS[:, [2, 0]]
    which = ja * 8 + 4 * (fs < 0) + 2 * (fc < 0) + (fm < 0)
    block = (base[:, None, :] * masks).reshape(-1, b)[which]

    indptr = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(eta.sum(axis=0) * b, out=indptr[1:])
    return block.ravel() * _scale(params), indptr, ia.astype(np.int32)


def _row_indices(params: BlockParams, ia: np.ndarray) -> np.ndarray:
    """int32 CSC row indices of the blocks whose row blocks are ``ia``."""
    return np.arange(params.d, dtype=np.int32).reshape(-1, params.b)[ia].ravel()


def _matrix(
    params: BlockParams, seed_key: str, sign_m: np.ndarray, sign_s: np.ndarray, flips: np.ndarray, eta: np.ndarray
) -> BlockRandomMatrix:
    """The unassembled matrix of the draw's first eta.shape[1] columns.
    ``flips`` and ``sign_s`` are the whole draw's; the matrix keeps
    contiguous copies of its own columns, as a view would keep the draw
    alive."""
    b, n_cols, scale = params.b, eta.shape[1], _scale(params)
    return BlockRandomMatrix(
        params=params,
        seed_key=seed_key,
        sigma_m=sign_m.astype(np.float64) * scale,
        sign_s=np.ascontiguousarray(sign_s[:n_cols]),
        flips=np.ascontiguousarray(flips[:, :, :n_cols]),
        eta=np.ascontiguousarray(eta),
        col_sq_norms=eta.sum(axis=0).astype(np.float64) * b * (scale**2),
    )


def sample_matrix(params: BlockParams, seed_key: str) -> BlockRandomMatrix:
    """Draw a matrix from D(b, q, d), deterministically given seed_key.

    Per column j: a fresh random-string sub-block; per (block i, column j):
    three Rademacher flips (f_s, f_c, f_m), parity bits f'_m = f_m *
    sign(sigma_m[1]) and f'_s = f_s * sign(sigma_s_j[1]) baked into the
    column signature Enc(j, f'_m, f'_s), and a Bernoulli(q) activation.  The
    active block of the column is f_s*sigma_s_j || f_c*sigma_c || f_m*sigma_m.
    """
    return _matrix(params, seed_key, *_draw(params, seed_key))


def sample_first_column(params: BlockParams, seed_key: str) -> BlockRandomMatrix:
    """Column 1 of ``sample_matrix(params, seed_key)`` as a d x 1 matrix,
    without assembling the others (the whole draw still runs, since the
    format interleaves it).  Its products, norms and ``column(1)`` equal
    those of the full draw's column 1 bit for bit."""
    sign_m, sign_s, flips, eta = _draw(params, seed_key)
    return _matrix(params, seed_key, sign_m, sign_s, flips, eta[:, :1])


def sample_orthonormal(d: int, seed_key: str) -> OrthonormalMatrix:
    """Haar-random d x d rotation via QR of a Gaussian draw."""
    d = require_integer(d, "d", 1)
    rng = derive_rng(0, "orthonormal-matrix", seed_key, d)
    g = rng.standard_normal((d, d))
    qmat, r = np.linalg.qr(g)
    qmat = qmat * np.sign(np.diag(r))[None, :]
    return OrthonormalMatrix(dense=qmat, seed_key=seed_key)
