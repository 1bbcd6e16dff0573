"""Modular-network communication graphs.

A network records how modules fired for one input: each firing is an object
with a producing module, an ordered list of weighted input edges, and a
nonnegative, l2-normalized, zero-padded attribute vector.  One distinguished
module is the output module; its single pseudo-object is the graph sink, and
the sketcher summarizes exactly the part of the graph reachable from it.

Depths count objects along a path from the output pseudo-object (the
pseudo-object itself has depth 1); every object a module produces must sit at
one common depth, so modules have well-defined depths too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from modsketch._seeding import derive_rng
from modsketch.block_random import ModsketchError, ParameterError, require_array, require_integer, require_real

__all__ = [
    "NetworkValidationError",
    "CycleError",
    "WeightSumError",
    "DepthConsistencyError",
    "OutputModuleError",
    "UnknownFieldError",
    "Module",
    "ObjectNode",
    "ModularNetwork",
    "build_network",
    "effective_weight",
    "SyntheticProfile",
    "generate_synthetic",
    "save_network",
    "load_network",
]

WEIGHT_TOL = 1e-9


class NetworkValidationError(ModsketchError):
    """Base class for structural validation failures."""


class CycleError(NetworkValidationError):
    pass


class WeightSumError(NetworkValidationError, ParameterError):
    """Input weights, of an object or of a tuple, summing past 1."""


class DepthConsistencyError(NetworkValidationError):
    pass


class OutputModuleError(NetworkValidationError):
    pass


class UnknownFieldError(NetworkValidationError):
    """A serialized network contains a field the parser does not know."""


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Module:
    id: str
    is_output: bool = False


@dataclass
class ObjectNode:
    """One firing of a module.

    ``inputs`` is the ordered list of (child object id, importance weight);
    the order matters because tuple positions select distinct matrices.
    ``depth`` is filled in by validation (0 while unreachable).
    """

    id: str
    producer: str
    attributes: np.ndarray
    inputs: list[tuple[str, float]] = field(default_factory=list)
    depth: int = 0


@dataclass
class ModularNetwork:
    modules: dict[str, Module]
    objects: dict[str, ObjectNode]
    output_object_id: str
    d: int
    n_cap: int
    n_multiplier: int = 3

    @property
    def max_depth(self) -> int:
        return max((o.depth for o in self.objects.values() if o.depth > 0), default=1)

    @property
    def recursion_budget(self) -> int:
        """H = 3 x maximum depth, the unrolling horizon used downstream."""
        return 3 * self.max_depth


# ---------------------------------------------------------------------------
# Building and validation
# ---------------------------------------------------------------------------


def _pad_and_normalize(values, d: int, what: str) -> np.ndarray:
    values = require_array(values, what, 1)
    if not np.all(values >= -WEIGHT_TOL):
        raise NetworkValidationError(f"{what} must be nonnegative")
    if len(values) > d:
        raise NetworkValidationError(
            f"attribute vector of length {len(values)} exceeds sketch dimension {d}"
        )
    out = np.zeros(d)
    out[: len(values)] = np.clip(values, 0.0, None)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(out))
    if norm == np.inf:
        raise NetworkValidationError("attribute vector is too large to normalize")
    if norm > 0:
        out /= norm
    return out


def require_weights(weights, what: str) -> list[float]:
    """An object's or a tuple's input weights as floats, each in [0, inf), summing to 1 + WEIGHT_TOL at most."""
    ws = [require_real(w, f"each of the {what}", 0, np.inf, "[)") for w in weights]
    if sum(ws) > 1.0 + WEIGHT_TOL:
        raise WeightSumError(f"{what} sum to {sum(ws)} > 1")
    return ws


def _require_id(what: str, ident: str) -> str:
    """ident, refused when the text form cannot carry it: :func:`save_network`
    writes ids as whitespace-separated UTF-8 tokens, and :func:`load_network`
    skips a line that starts with '#'."""
    if ident.startswith("#") or ident.split() != [ident]:
        raise NetworkValidationError(f"{what} id {ident!r} is empty, holds whitespace or starts with '#'")
    if any("\ud800" <= c <= "\udfff" for c in ident):
        raise NetworkValidationError(f"{what} id {ident!r} holds a lone surrogate, which UTF-8 cannot encode")
    return ident


def build_network(
    spec: dict,
    d: int,
    n_multiplier: int = 3,
    n_cap: int | None = None,
) -> ModularNetwork:
    """Validate a declarative description and produce a network.

    ``spec`` maps:
      * "modules": list of {"id", "output": bool} dicts,
      * "objects": list of {"id", "module", "attributes": sequence} dicts,
      * "edges": list of (parent id, child id, weight) triples, parent
        consuming child's output; edge order defines tuple positions.

    Attribute vectors are zero-padded to d and l2-normalized.  Raises a
    distinct error per failure mode (cycle, weight sums, depth consistency,
    output module count), and an id that is empty, holds whitespace or
    starts with '#'.
    """
    d, n_multiplier = require_integer(d, "d", 1), require_integer(n_multiplier, "n_multiplier", 1)
    if n_cap is not None:
        n_cap = require_integer(n_cap, "n_cap")  # the floor below bounds it
    modules: dict[str, Module] = {}
    for mdesc in spec.get("modules", []):
        mod = Module(id=_require_id("module", str(mdesc["id"])), is_output=bool(mdesc.get("output", False)))
        if mod.id in modules:
            raise NetworkValidationError(f"duplicate module id {mod.id!r}")
        modules[mod.id] = mod

    outputs = [m for m in modules.values() if m.is_output]
    if len(outputs) != 1:
        raise OutputModuleError(f"need exactly one output module, found {len(outputs)}")

    objects: dict[str, ObjectNode] = {}
    for odesc in spec.get("objects", []):
        oid = _require_id("object", str(odesc["id"]))
        if oid in objects:
            raise NetworkValidationError(f"duplicate object id {oid!r}")
        producer = str(odesc["module"])
        if producer not in modules:
            raise NetworkValidationError(f"object {oid!r} names unknown module {producer!r}")
        attrs = _pad_and_normalize(odesc.get("attributes", []), d, f"attributes of {oid!r}")
        objects[oid] = ObjectNode(id=oid, producer=producer, attributes=attrs)

    out_objects = [o for o in objects.values() if modules[o.producer].is_output]
    if len(out_objects) != 1:
        raise OutputModuleError(
            f"the output module must produce exactly one pseudo-object, found {len(out_objects)}"
        )
    output_obj = out_objects[0]
    if np.any(output_obj.attributes != 0):
        raise OutputModuleError("the output pseudo-object carries a zero attribute vector")

    for parent, child, weight in spec.get("edges", []):
        if parent not in objects or child not in objects:
            raise NetworkValidationError(f"edge ({parent!r}, {child!r}) names unknown object")
        objects[parent].inputs.append((child, weight))

    for obj in objects.values():
        weights = require_weights([w for _, w in obj.inputs], f"input weights of {obj.id!r}")
        obj.inputs = [(child, w) for (child, _), w in zip(obj.inputs, weights)]

    floor = n_multiplier * max(len(modules), max(len(objects) - 1, 1))
    if n_cap is not None and n_cap < floor:
        raise NetworkValidationError(f"n_cap={n_cap} below required floor {floor}")
    n_cap = max(2, floor) if n_cap is None else n_cap
    net = ModularNetwork(modules, objects, output_obj.id, d, n_cap, n_multiplier)
    _assign_depths(net)
    return net


def _assign_depths(net: ModularNetwork) -> None:
    """Depth-label reachable objects; detect cycles and depth conflicts.

    A depth-first walk from the output pseudo-object in edge order, on an
    explicit stack of (object id, depth, remaining children) frames, so the
    depth of a network is not bounded by Python's recursion limit.
    """
    depths: dict[str, int] = {}
    module_depth: dict[str, int] = {}
    on_path: set[str] = set()
    stack: list[tuple[str, int, Iterator[tuple[str, float]]]] = []
    oid, depth = net.output_object_id, 1
    while True:
        if oid in on_path:
            raise CycleError(f"cycle through object {oid!r}")
        prev = depths.get(oid)
        if prev is None:
            obj = net.objects[oid]
            mod_prev = module_depth.get(obj.producer)
            if mod_prev is not None and mod_prev != depth:
                raise DepthConsistencyError(
                    f"module {obj.producer!r} has objects at depths {mod_prev} and {depth}"
                )
            module_depth[obj.producer] = depth
            depths[oid] = depth
            on_path.add(oid)
            stack.append((oid, depth, iter(obj.inputs)))
        elif prev != depth:
            raise DepthConsistencyError(f"object {oid!r} reachable at depths {prev} and {depth}")
        # next child of the innermost unfinished object; finished ones leave the path
        while stack:
            parent, parent_depth, children = stack[-1]
            child = next(children, None)
            if child is not None:
                oid, depth = child[0], parent_depth + 1
                break
            stack.pop()
            on_path.discard(parent)
        else:
            break
    for oid, depth in depths.items():
        net.objects[oid].depth = depth
    # Unreachable objects keep depth 0 and are excluded from sketches.


def effective_weight(net: ModularNetwork, path: list[str]) -> float:
    """Product of edge weights along a path of object ids from the output."""
    if not path or path[0] != net.output_object_id:
        raise NetworkValidationError("path must start at the output pseudo-object")
    weight = 1.0
    for parent_id, child_id in zip(path, path[1:]):
        parent = net.objects.get(parent_id)
        if parent is None:
            raise NetworkValidationError(f"unknown object {parent_id!r} on path")
        for cid, w in parent.inputs:
            if cid == child_id:
                weight *= w
                break
        else:
            raise NetworkValidationError(f"no edge {parent_id!r} -> {child_id!r}")
    return weight


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticProfile:
    """Shape of a generated fixture network.

    ``depth`` is the maximum object depth (2 = all real objects feed the
    output directly).  ``fan_in`` children per non-leaf object;
    ``weight_scheme`` is "uniform" (1/k each) or "random" (normalized random
    draws); ``attr_sparsity`` nonzero attribute entries per object.
    """

    n_modules: int
    depth: int
    fan_in: int
    weight_scheme: str = "uniform"
    attr_sparsity: int = 3
    attr_span: int | None = None  # coordinates the attributes may occupy

    def __post_init__(self) -> None:
        for name, low in (("n_modules", 1), ("depth", 2), ("fan_in", 1), ("attr_sparsity", 1)):
            object.__setattr__(self, name, require_integer(getattr(self, name), name, low))
        if self.attr_span is not None:
            object.__setattr__(self, "attr_span", require_integer(self.attr_span, "attr_span", 1))
        if self.n_modules < self.depth - 1:
            raise NetworkValidationError(
                f"{self.n_modules} modules cannot cover {self.depth - 1} object levels "
                "(each level needs a module of its own)"
            )
        if self.weight_scheme not in ("uniform", "random"):
            raise NetworkValidationError(f"unknown weight scheme {self.weight_scheme!r}")
        if self.attr_span is not None and self.attr_sparsity > self.attr_span:
            raise NetworkValidationError(f"attr_sparsity {self.attr_sparsity} exceeds attr_span {self.attr_span}")


def generate_synthetic(profile: SyntheticProfile, seed: int, d: int) -> ModularNetwork:
    """Deterministically generate a tree-shaped network for experiments."""
    rng = derive_rng(require_integer(seed, "seed"), "synthetic-network")
    levels = profile.depth - 1  # object levels below the output
    module_names = [f"m{i}" for i in range(profile.n_modules)]
    # Spread modules over levels round-robin so each level has at least one.
    per_level: list[list[str]] = [[] for _ in range(levels)]
    for i, name in enumerate(module_names):
        per_level[i % levels].append(name)

    modules = [{"id": "out", "output": True}] + [{"id": m} for m in module_names]
    objects: list[dict] = [{"id": "root", "module": "out", "attributes": []}]
    edges: list[tuple[str, str, float]] = []

    span = profile.attr_span or max(profile.attr_sparsity * 4, 8)

    def make_attrs() -> list[float]:
        idx = rng.choice(span, size=profile.attr_sparsity, replace=False)
        vals = np.zeros(span)
        vals[idx] = np.abs(rng.standard_normal(len(idx))) + 0.1
        vals /= np.linalg.norm(vals)
        return [float(v) for v in vals]

    def weights(k: int) -> list[float]:
        if profile.weight_scheme == "uniform":
            return [1.0 / k] * k
        raw = rng.random(k) + 0.05
        raw /= raw.sum()
        return [float(w) for w in raw]

    counter = 0

    def grow(parent_id: str, level: int) -> Iterator[tuple[str, int]]:
        # Adds parent's children one at a time, yielding each so the caller
        # grows its subtree before the next sibling (and its draws) is made.
        nonlocal counter
        ws = weights(profile.fan_in)
        mods = per_level[level]
        for i in range(profile.fan_in):
            oid = f"o{counter}"
            counter += 1
            objects.append(
                {"id": oid, "module": mods[(counter + i) % len(mods)], "attributes": make_attrs()}
            )
            edges.append((parent_id, oid, ws[i]))
            yield oid, level + 1

    stack = [grow("root", 0)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif child[1] < levels:
            stack.append(grow(*child))
    return build_network(
        {"modules": modules, "objects": objects, "edges": edges},
        d=d,
        n_multiplier=3,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

FORMAT_HEADER = "# modsketch-network v1"


def save_network(net: ModularNetwork, path: str) -> None:
    """Write the structured text form (see :func:`load_network`)."""
    lines = [FORMAT_HEADER]
    lines.append("[network]")
    lines.append(f"dimension = {net.d}")
    lines.append(f"n_cap = {net.n_cap}")
    lines.append(f"n_multiplier = {net.n_multiplier}")
    lines.append("[modules]")
    for mod in net.modules.values():
        kind = "output" if mod.is_output else "module"
        lines.append(f"{kind} {mod.id}")
    lines.append("[objects]")
    for obj in net.objects.values():
        nz = np.nonzero(obj.attributes)[0]
        attrs = " ".join(f"{i}:{float(obj.attributes[i])!r}" for i in nz)
        lines.append(f"object {obj.id} {obj.producer} {attrs}".rstrip())
    lines.append("[edges]")
    for obj in net.objects.values():
        for child, w in obj.inputs:
            lines.append(f"{obj.id} {child} {float(w)!r}")
    text = ("\n".join(lines) + "\n").encode("utf-8")  # before the file is opened, so a failure writes nothing
    with open(path, "wb") as fh:
        fh.write(text)


def _parse_number(kind: type, text: str, where: str):
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise NetworkValidationError(f"{where} must be {noun}, got {text!r}") from None


def load_network(path: str) -> ModularNetwork:
    """Parse the text form written by :func:`save_network`.

    Sections: [network] with ``key = value`` lines (dimension, n_cap,
    n_multiplier), [modules] with ``module <id>`` / ``output <id>`` lines,
    [objects] with ``object <id> <module> [<index>:<value> ...]`` lines, and
    [edges] with ``<parent> <child> <weight>`` lines.  Unknown fields are
    parse errors that name the field.
    """
    section = None
    meta: dict[str, int] = {}
    modules: list[dict] = []
    objects: list[dict] = []
    edges: list[tuple[str, str, float]] = []
    sparse_attrs: dict[str, list[tuple[int, float]]] = {}

    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise NetworkValidationError(f"cannot read network file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise NetworkValidationError(
            f"network file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in ("network", "modules", "objects", "edges"):
                raise UnknownFieldError(f"line {lineno}: unknown section [{section}]")
            continue
        if section == "network":
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in ("dimension", "n_cap", "n_multiplier"):
                raise UnknownFieldError(f"line {lineno}: unknown network field {key!r}")
            meta[key] = _parse_number(int, value.strip(), f"line {lineno}: {key}")
        elif section == "modules":
            kind, _, mid = line.partition(" ")
            if kind not in ("module", "output"):
                raise UnknownFieldError(f"line {lineno}: unknown module kind {kind!r}")
            modules.append({"id": mid.strip(), "output": kind == "output"})
        elif section == "objects":
            parts = line.split()
            if parts[0] != "object" or len(parts) < 3:
                raise UnknownFieldError(f"line {lineno}: malformed object record")
            oid, producer = parts[1], parts[2]
            pairs: list[tuple[int, float]] = []
            for tok in parts[3:]:
                idx_s, _, val_s = tok.partition(":")
                try:
                    pairs.append((int(idx_s), float(val_s)))
                except ValueError as exc:
                    raise UnknownFieldError(
                        f"line {lineno}: bad attribute pair {tok!r}"
                    ) from exc
            sparse_attrs[oid] = pairs
            objects.append({"id": oid, "module": producer})
        elif section == "edges":
            parts = line.split()
            if len(parts) != 3:
                raise UnknownFieldError(f"line {lineno}: malformed edge record")
            weight = _parse_number(float, parts[2], f"line {lineno}: edge weight")
            edges.append((parts[0], parts[1], weight))
        else:
            raise UnknownFieldError(f"line {lineno}: content outside any section")

    if "dimension" not in meta:
        raise UnknownFieldError("missing [network] dimension")
    d = meta["dimension"]
    for odesc in objects:
        pairs = sparse_attrs[odesc["id"]]
        for i, _ in pairs:
            if not 0 <= i < d:
                raise NetworkValidationError(f"object {odesc['id']!r} attribute index {i} outside [0, {d})")
        vals = np.zeros(max((i for i, _ in pairs), default=-1) + 1)
        for i, v in pairs:
            vals[i] = v
        odesc["attributes"] = vals

    return build_network(
        {"modules": modules, "objects": objects, "edges": edges},
        d=d,
        n_multiplier=meta.get("n_multiplier", 3),
        n_cap=meta.get("n_cap"),
    )
