"""The recursive sketch construction.

The sketch is defined recursively from the output pseudo-object down.  The
building block is the tuple sketch

    tuple(s_1..s_k; w_1..w_k) = sum_i w_i * (I + R_i)/2 * s_i

whose transparent factors pass every child through both unrotated and
rotated, so information can later be retrieved either way.  Each object theta
contributes

    attr(theta)   = 1/2 R_{M,1} x_theta + 1/2 R_{M,2} e_1
    input(theta)  = tuple(object(child_1), ..., object(child_k); w_1..w_k)
    object(theta) = (I + R_{M,0})/2 * tuple(attr, input; 1/2, 1/2)

and the overall sketch is the *input* tuple of the output pseudo-object
(not its object sketch, which would inject a shared R_{out,2} e_1 term into
every sketch and ruin dissimilarity of unrelated inputs).

Tuple matrices are drawn per (position, tuple depth), where tuple depth
starts at 1 for the overall sketch and increases every time a tuple sketch
is taken (``input_tuple_depth``/``pair_tuple_depth``, which path recovery
reads too); module matrices are drawn per (module, slot).  All draws are
deterministic functions of the registry's master seed.

The pass runs level by level, deepest first.  Every edge runs from depth k
to k+1, so a level's children are the level before.  Within a level, the
objects of module M share R_{M,0} and R_{M,1}, and the input tuples share
one matrix per position, so each distinct matrix multiplies the (d, n)
block of all the columns that use it, once.  Every column adds the same
operands in the same order as one object's sketch alone, and ``matvec`` of
a (d, n) block equals the products of its columns for every matrix type,
so each sketch is bit-identical to one computed object by object.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace
from typing import Literal, Sequence, get_args

import numpy as np

from modsketch._seeding import derive_rng
from modsketch.block_random import (
    AnyMatrix,
    BlockParams,
    IdentityMatrix,
    ModsketchError,
    ParameterError,
    require_integer,
    sample_first_column,
    sample_matrix,
    sample_orthonormal,
    transparent,
)
from modsketch.calibrated import delta_iso_fit
from modsketch.network import ModularNetwork, ObjectNode

__all__ = [
    "Sketch",
    "MatrixRegistry",
    "DimensionFloorError",
    "PrototypeScopeError",
    "tuple_sketch",
    "attribute_subsketch",
    "object_sketches",
    "overall_sketch",
    "prototype_a_overall",
    "prototype_b_overall",
    "erase_to_prefix",
    "object_signature",
    "save_sketch",
    "load_sketch",
    "export_sketch_csv",
]

SketchKind = Literal["tuple", "attribute", "input", "object", "overall"]
RegistryMode = Literal["block-random", "orthonormal", "identity"]


class DimensionFloorError(ModsketchError):
    """Sketch dimension too small for the requested recursion depth."""


class PrototypeScopeError(ModsketchError):
    """Prototype sketches only cover networks one level below the output."""


@dataclass
class Sketch:
    """A d-vector with provenance: what it summarizes and how much survives."""

    values: np.ndarray
    kind: SketchKind
    depth: int
    erased_prefix: int
    signature_mode: bool = False

    @property
    def d(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class MatrixRegistry:
    """Deterministic, lazily sampled matrix store.

    Knowing (master_seed, params, mode) is knowing every matrix: each key
    maps to exactly one matrix, sampled on first use and cached.  Keys
    serialize as ``m:<module>:<slot>`` and ``t:<index>:<depth>``.  Slot 2
    is only ever read as its first column, ``R_{M,2} e_1``, so
    :meth:`module_first_column` serves it; in block-random mode that is a
    d x 1 matrix holding only that column, cached under ``m:<module>:2:e1``.

    A block-random entry holds its compact draw (about 0.43 MB at d=2070)
    and assembles as its products read it (see
    :class:`~modsketch.block_random.BlockRandomMatrix`): the float data and
    block indices at its first transposed product (about 6.1 MB in the
    README quick start, d=2070), and the CSC row indices at its first dense
    forward product (3.0 MB more).  So the sketch pass leaves each ``R_{M,1}``, read
    only through the attribute block's sparse rows, at its draw, and a
    registry that only recovers never builds CSC row indices.
    """

    def __init__(
        self,
        params: BlockParams,
        master_seed: int,
        mode: RegistryMode = "block-random",
        allow_high_noise: bool = False,
    ) -> None:
        params.require_alignment()
        if mode not in get_args(RegistryMode):
            raise ParameterError(f"unknown registry mode {mode!r}; expected one of {get_args(RegistryMode)}")
        self.master_seed = require_integer(master_seed, "master seed")
        self.params = params
        self.mode = mode
        self.allow_high_noise = allow_high_noise
        self._cache: dict[str, AnyMatrix] = {}
        self._lock = threading.Lock()

    @property
    def d(self) -> int:
        return self.params.d

    def seed_fingerprint(self) -> str:
        raw = f"{self.master_seed}|{self.mode}|{self.params.b}|{self.params.q}|{self.params.d}"
        return hashlib.blake2b(raw.encode(), digest_size=8).hexdigest()

    def check_dimension_floor(self, recursion_budget: int) -> None:
        """Refuse dimensions whose fitted noise exceeds 1/(4H).

        The recovery guarantees assume the per-matrix deviation delta is at
        most 1/(4H); at desk-scale dimensions this usually fails, which is
        exactly what the override flag acknowledges.
        """
        if self.mode != "block-random" or self.allow_high_noise:
            return
        delta = delta_iso_fit(self.params.d, self.params.b, self.params.n_cap)
        bound = 1.0 / (4.0 * recursion_budget)
        if delta > bound:
            raise DimensionFloorError(
                f"fitted delta {delta:.4f} exceeds 1/(4H) = {bound:.4f} at d={self.params.d}; "
                "increase d or pass allow_high_noise=True"
            )

    def _get(self, key: str, first_column: bool = False) -> AnyMatrix:
        """The matrix of key in the registry's mode, or (block-random mode
        only) a d x 1 matrix of its first column, cached under ``<key>:e1``."""
        cache_key = f"{key}:e1" if first_column else key
        hit = self._cache.get(cache_key)  # a dict read is atomic; the lock guards inserts
        if hit is not None:
            return hit
        seed_key = f"s{self.master_seed}/{key}"
        if first_column:
            made: AnyMatrix = sample_first_column(self.params, seed_key)
        elif self.mode == "identity":
            made = IdentityMatrix(self.params.d, seed_key)
        elif self.mode == "orthonormal":
            made = sample_orthonormal(self.params.d, seed_key)
        else:
            made = sample_matrix(self.params, seed_key)
        with self._lock:
            return self._cache.setdefault(cache_key, made)

    def module_matrix(self, module_id: str, slot: int) -> AnyMatrix:
        return self._get(f"m:{module_id}:{require_integer(slot, 'module matrix slot', 0, 3)}")

    def module_first_column(self, module_id: str) -> AnyMatrix:
        """A matrix whose column 1, products and norms at column 1 are those
        of R_{module,2}, bit for bit; outside block-random mode, R_{module,2}
        itself."""
        if self.mode != "block-random":
            return self.module_matrix(module_id, 2)
        return self._get(f"m:{module_id}:2", first_column=True)

    def tuple_matrix(self, position: int, tuple_depth: int) -> AnyMatrix:
        pos, depth = require_integer(position, "tuple position", 1), require_integer(tuple_depth, "tuple depth", 1)
        return self._get(f"t:{pos}:{depth}")


def _columns(cols: Sequence[int]) -> slice | list[int]:
    """cols as a slice when they count up by one, so that indexing a block
    with them makes a view instead of a copy."""
    first, n = cols[0], len(cols)
    if n == 1 or tuple(cols) == tuple(range(first, first + n)):
        return slice(first, first + n)
    return list(cols)


# ---------------------------------------------------------------------------
# Sketch operations
# ---------------------------------------------------------------------------


def _tuples(
    edges: list[tuple[int, int, int, float]], children: np.ndarray, n: int, depth: int, registry: MatrixRegistry
) -> np.ndarray:
    """n tuple sketches as the columns of a (d, n) block: edge (position,
    column, child, w) adds w (I + T)/2 children[:, child] to the column, T
    the position's matrix at this tuple depth.  One product per position;
    each column's sum starts at +0.0 and adds its terms by ascending
    position, as one tuple taken alone would."""
    acc, by_position = np.zeros((registry.d, n)), {}
    for edge in edges:
        by_position.setdefault(edge[0], []).append(edge)
    for pos in sorted(by_position):
        _, cols, kids, ws = zip(*by_position[pos])
        mat = registry.tuple_matrix(pos, depth)
        acc[:, _columns(cols)] += np.array(ws) * transparent(mat, children[:, _columns(kids)])
    return acc


def tuple_sketch(sketches: list[Sketch], weights: list[float], tuple_depth: int, registry: MatrixRegistry) -> Sketch:
    """Weighted sum of transparent-matrix applications; empty input -> zero."""
    if len(sketches) != len(weights):
        raise ParameterError("sketches and weights must have equal length")
    total = sum(weights)
    if not all(w >= 0 for w in weights) or total > 1.0 + 1e-9:  # a NaN weight fails w >= 0
        raise ParameterError(f"weights must be nonnegative with sum <= 1, got sum {total}")
    if any(sk.d != registry.d for sk in sketches):
        raise ParameterError("sketch dimension mismatch")
    modes = {bool(sk.signature_mode) for sk in sketches}
    if len(modes) > 1:
        raise ParameterError("sketches mix signature mode and plain mode")
    edges = [(pos, 0, pos - 1, w) for pos, w in enumerate(weights, start=1) if w != 0.0]
    acc = _tuples(edges, np.array([sk.values for sk in sketches]).T, 1, tuple_depth, registry)
    return Sketch(values=acc[:, 0], kind="tuple", depth=1, erased_prefix=registry.d, signature_mode=True in modes)


def signature_shape(n_cap: int) -> tuple[int, float]:
    """Sparsity ceil(log2 n_cap) of an object signature, and the level
    1/sqrt(sparsity) of its nonzero entries."""
    n_ones = max(1, int(np.ceil(np.log2(max(2, n_cap)))))
    return n_ones, 1.0 / np.sqrt(n_ones)


def object_signature(obj: ObjectNode, n_cap: int, d: int) -> np.ndarray:
    """Deterministic sparse signature ("magic number") of an object.

    A vector of :func:`signature_shape`, derived by hashing the producing
    module and the quantized attributes, so equal objects always carry equal
    signatures and recovered signatures can serve as fingerprints.
    """
    n_ones, level = signature_shape(n_cap)
    quantized = np.round(obj.attributes * 1e6).astype(np.int64)
    digest = hashlib.blake2b(
        obj.producer.encode() + quantized.tobytes(), digest_size=8
    ).hexdigest()
    rng = derive_rng(int(digest, 16) % (2**63), "object-signature")
    idx = rng.choice(d, size=n_ones, replace=False)
    sig = np.zeros(d)
    sig[idx] = level
    return sig


def _attribute_block(
    objs: list[ObjectNode], registry: MatrixRegistry, signature_mode: bool
) -> tuple[np.ndarray, dict[str, slice | list[int]]]:
    """attr(theta) of every object as the columns of a (d, n) block, and the
    columns of each module; one product per module matrix."""
    d, groups, columns = registry.d, {}, {}
    for j, obj in enumerate(objs):
        groups.setdefault(obj.producer, []).append(j)
    out = np.empty((d, len(objs)))
    for module, cols in groups.items():
        members, columns[module] = [objs[j] for j in cols], _columns(cols)
        r1x = registry.module_matrix(module, 1).matvec(np.array([o.attributes for o in members]).T)
        r2_e1 = registry.module_first_column(module).column(1)[:, None]
        if signature_mode:
            sig = np.array([object_signature(o, registry.params.n_cap, d) for o in members]).T
            out[:, columns[module]] = (r1x + r2_e1 + registry.module_matrix(module, 3).matvec(sig)) / 3.0
        else:
            out[:, columns[module]] = 0.5 * r1x + 0.5 * r2_e1
    return out, columns


def attribute_subsketch(obj: ObjectNode, registry: MatrixRegistry, signature_mode: bool = False) -> Sketch:
    """1/2 R_{M,1} x + 1/2 R_{M,2} e_1 (thirds, plus a signature term, when
    signature_mode is on)."""
    block, _ = _attribute_block([obj], registry, signature_mode)
    return Sketch(block[:, 0], "attribute", obj.depth, registry.d, signature_mode)


def input_tuple_depth(object_depth: int) -> int:
    """Tuple depth of a depth-k object's input tuple (the overall sketch is
    the output pseudo-object's, k=1 -> 1)."""
    return 2 * object_depth - 1


def pair_tuple_depth(object_depth: int) -> int:
    """Tuple depth of a depth-k object's attr/input pair."""
    return 2 * (object_depth - 1)


def _sketch_pass(
    net: ModularNetwork, registry: MatrixRegistry, signature_mode: bool
) -> tuple[list[tuple[list[ObjectNode], np.ndarray]], np.ndarray]:
    """(objects, (d, n) block of their object sketches) for each real depth,
    deepest first, and the output pseudo-object's input tuple as (d, 1)."""
    by_depth: dict[int, list[ObjectNode]] = {}
    for obj in net.objects.values():
        if obj.depth >= 1:
            by_depth.setdefault(obj.depth, []).append(obj)
    levels, children, child_col = [], np.zeros((registry.d, 0)), {}
    for k in sorted(by_depth, reverse=True):
        objs = by_depth[k]
        edges = [(pos, j, child_col[cid], w) for j, obj in enumerate(objs)
                 for pos, (cid, w) in enumerate(obj.inputs, start=1) if w != 0.0]
        inp = _tuples(edges, children, len(objs), input_tuple_depth(k), registry)
        if k == 1:
            return levels, inp
        attr, groups = _attribute_block(objs, registry, signature_mode)
        # tuple(attr, input; 1/2, 1/2) from +0.0.  An empty input tuple adds no
        # term: (0 + R 0) * 0.5 * 0.5 is +0.0, which changes no sum begun at +0.0.
        pair = 0.0 + 0.5 * transparent(registry.tuple_matrix(1, pair_tuple_depth(k)), attr)
        if edges:
            live = _columns(sorted({e[1] for e in edges}))
            pair[:, live] += 0.5 * transparent(registry.tuple_matrix(2, pair_tuple_depth(k)), inp[:, live])
        children, child_col = np.empty_like(pair), {obj.id: j for j, obj in enumerate(objs)}
        for module, cols in groups.items():
            children[:, cols] = transparent(registry.module_matrix(module, 0), pair[:, cols])
        levels.append((objs, children))


def object_sketches(net: ModularNetwork, registry: MatrixRegistry, signature_mode: bool = False) -> dict[str, Sketch]:
    """Object sketch of every reachable real object (depth >= 2), by id,
    deepest first."""
    out = {}
    for objs, block in _sketch_pass(net, registry, signature_mode)[0]:
        for obj, values in zip(objs, block.T.copy()):
            out[obj.id] = Sketch(values, "object", obj.depth, registry.d, signature_mode)
    return out


def overall_sketch(net: ModularNetwork, registry: MatrixRegistry, signature_mode: bool = False) -> Sketch:
    """Input tuple of the output pseudo-object."""
    if net.d != registry.d:
        raise ParameterError(f"network dimension {net.d} != registry dimension {registry.d}")
    registry.check_dimension_floor(net.recursion_budget)
    root_input = _sketch_pass(net, registry, signature_mode)[1]
    return Sketch(root_input[:, 0].copy(), "overall", 1, registry.d, signature_mode)


# ---------------------------------------------------------------------------
# Prototypes (flat-network oracles)
# ---------------------------------------------------------------------------


def _flat_children(net: ModularNetwork) -> list[tuple[ObjectNode, float]]:
    root = net.objects[net.output_object_id]
    children = [(net.objects[cid], w) for cid, w in root.inputs]
    for child, _ in children:
        if child.inputs:
            raise PrototypeScopeError(
                "prototype sketches require every object to feed the output directly"
            )
    return children


def prototype_a_overall(net: ModularNetwork, registry: MatrixRegistry) -> Sketch:
    """Flat convex combination sum_i w_i R_{M(theta_i)} x_i (slot-1 matrices)."""
    children = _flat_children(net)
    acc = np.zeros(registry.d)
    for obj, w in children:
        mat = registry.module_matrix(obj.producer, 1)
        acc += w * mat.matvec(obj.attributes)
    return Sketch(values=acc, kind="overall", depth=1, erased_prefix=registry.d)


def prototype_b_overall(net: ModularNetwork, registry: MatrixRegistry) -> Sketch:
    """Flat tuple of per-object sketches 1/2 R_{M,1} x + 1/2 R_{M,2} e_1."""
    children = _flat_children(net)
    sketches = [attribute_subsketch(obj, registry) for obj, _ in children]
    weights = [w for _, w in children]
    sk = tuple_sketch(sketches, weights, tuple_depth=1, registry=registry)
    return replace(sk, kind="overall")


# ---------------------------------------------------------------------------
# Erasure and serialization
# ---------------------------------------------------------------------------


def erase_to_prefix(sk: Sketch, d_prime: int) -> Sketch:
    """Zero all coordinates beyond d_prime and record the surviving prefix."""
    d_prime = require_integer(d_prime, "prefix", 1, sk.d)
    if d_prime >= sk.erased_prefix:
        # already erased at least this far
        return replace(sk, erased_prefix=min(sk.erased_prefix, d_prime))
    values = sk.values.copy()
    values[d_prime:] = 0.0
    return replace(sk, values=values, erased_prefix=d_prime)


_SKETCH_MAGIC = "modsketch-sketch v1"


def encode_values(values: np.ndarray) -> bytes:
    """Little-endian float64 payload of a sketch vector."""
    return np.asarray(values, dtype="<f8").tobytes()


def decode_values(payload: bytes, d: int) -> np.ndarray:
    """Inverse of :func:`encode_values`, refusing a payload of the wrong length."""
    if len(payload) != 8 * d:
        raise ParameterError(f"sketch payload holds {len(payload)} bytes, d={d} needs {8 * d}")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64)


def save_sketch(sk: Sketch, path: str, seed_fingerprint: str = "") -> None:
    """Header line + little-endian float64 payload.  Refuses, before opening
    the file, a sketch :func:`sketch_from_metadata` refuses and a fingerprint
    with whitespace or a non-ASCII character, which the header cannot carry."""
    sk = sketch_from_metadata(sk.values, sk.kind, sk.depth, sk.erased_prefix, sk.signature_mode)
    seed = seed_fingerprint or "unknown"
    if not (isinstance(seed, str) and seed.isascii() and seed.split() == [seed]):
        raise ParameterError(f"seed fingerprint {seed_fingerprint!r} must be ASCII without whitespace")
    header = (f"{_SKETCH_MAGIC} d={sk.d} kind={sk.kind} depth={sk.depth} erased_prefix={sk.erased_prefix} "
              f"sig={int(sk.signature_mode)} seed={seed}\n")
    with open(path, "wb") as fh:
        fh.writelines((header.encode("ascii"), encode_values(sk.values)))


def sketch_from_metadata(values: np.ndarray, kind, depth, erased_prefix, signature_mode) -> Sketch:
    """The rule of a sketch record, which the store and ``.sketch`` writers
    apply before writing and their readers after reading: finite values, a
    known kind, integer depth >= 1 and prefix in [1, d], boolean signature mode.
    The values must be a 1-D array of real numbers; a float64 one is kept, not copied."""
    if not (isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iuf"):
        shape = f"{values.ndim}-D {values.dtype}" if isinstance(values, np.ndarray) else type(values).__name__
        raise ParameterError(f"sketch values must be a 1-D array of real numbers, got {shape}")
    values = values.astype(np.float64, copy=False)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))  # the first non-finite value
        raise ParameterError(f"sketch values must be finite, value {i} is {float(values[i])!r}")
    if kind not in get_args(SketchKind):
        raise ParameterError(f"unknown sketch kind {kind!r}")
    depth = require_integer(depth, "sketch depth", 1)
    erased_prefix = require_integer(erased_prefix, "erased prefix", 1, len(values))
    if not isinstance(signature_mode, (bool, np.bool_)):
        raise ParameterError(f"signature mode must be a boolean, got {signature_mode!r}")
    return Sketch(values, kind, depth, erased_prefix, bool(signature_mode))


def load_sketch(path: str) -> tuple[Sketch, str]:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ParameterError(f"cannot read sketch file {path}: {exc.strerror}") from None
    with fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        if not header.startswith(_SKETCH_MAGIC):
            raise ParameterError(f"not a sketch file: {path}")
        try:
            fields = dict(tok.split("=", 1) for tok in header[len(_SKETCH_MAGIC) :].split())
            d, depth, erased_prefix = (int(fields[k]) for k in ("d", "depth", "erased_prefix"))
            kind, seed, sig = fields["kind"], fields["seed"], fields.get("sig", "0")
        except (KeyError, ValueError) as exc:
            # a missing field, a token without "=", or a non-integer value
            raise ParameterError(f"{path}: malformed sketch header ({exc!r})") from None
        values = decode_values(fh.read(), d)
    return sketch_from_metadata(values, kind, depth, erased_prefix, {"0": False, "1": True}.get(sig, sig)), seed


def export_sketch_csv(sk: Sketch, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(sk.values):
            fh.write(f"{i},{float(v)!r}\n")
