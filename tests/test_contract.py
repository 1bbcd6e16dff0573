"""The integer half of the library's input contract.

Every integer argument the library reads names something: a dimension, a
count, a seed, a slot, a position or a depth.  The table below lists each one
that :func:`~modsketch.block_random.require_integer` reads, with a call that
passes it and the range of values it accepts.  The properties:

* a bool, a float, a string, or an integer outside the range ends in a
  :class:`~modsketch.block_random.ModsketchError` subclass, never in a
  builtin exception;
* a numpy integer gives the same result as the int it equals, bit for bit
  and type for type, and is refused as that int is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch.block_random import (
    BlockParams,
    IdentityMatrix,
    ModsketchError,
    ParameterError,
    auto_params,
    encode_column_signature,
    require_integer,
    sample_matrix,
    sample_orthonormal,
)
from modsketch.calibrated import measure_noise_profile
from modsketch.network import SyntheticProfile, build_network, generate_synthetic
from modsketch.recovery import beta_factor
from modsketch.repository import SketchRepository
from modsketch.sketcher import MatrixRegistry, Sketch, erase_to_prefix, sketch_from_metadata

# derandomized, and capped so the module stays within seconds of Tier-1 time
CONTRACT = settings(derandomize=True, deadline=None, max_examples=200, database=None)

P24 = BlockParams(b=24, q=0.5, d=24, n_cap=12)
MAT = sample_matrix(P24, "contract")
ORTHO = sample_orthonormal(24, "contract")
IDENTITY = IdentityMatrix(24)
SK = Sketch(np.arange(24.0), "overall", 1, 24)
# root -> a: two modules and two objects, so n_multiplier 3 needs n_cap >= 6
SPEC = {
    "modules": [{"id": "out", "output": True}, {"id": "leaf"}],
    "objects": [{"id": "root", "module": "out", "attributes": []}, {"id": "a", "module": "leaf", "attributes": [0.6]}],
    "edges": [("root", "a", 1.0)],
}


def store() -> SketchRepository:
    repo = SketchRepository(24)
    for i in range(3):
        repo.insert(Sketch(np.arange(24.0) * (i - 1), "overall", 1, 24))
    return repo


STORE = store()


@dataclass(frozen=True)
class Arg:
    """One integer argument: a call that passes ``value`` for it, an
    accepted value, and the range [low, high] it accepts (None: unbounded)."""

    name: str
    call: Callable
    valid: int
    low: int | None = None
    high: int | None = None

    def __repr__(self) -> str:
        return self.name


ARGS = [
    # block_random; b's lower bound is the floor for d = 24, n_cap = 12
    Arg("BlockParams.b", lambda v: BlockParams(b=v, q=0.5, d=24, n_cap=12), 24, 24),
    Arg("BlockParams.d", lambda v: BlockParams(b=24, q=0.5, d=v, n_cap=12), 24, 1),
    Arg("BlockParams.n_cap", lambda v: BlockParams(b=24, q=0.5, d=24, n_cap=v), 12, 2),
    Arg("auto_params.d_request", lambda v: auto_params(v, 8), 24, 1),
    Arg("auto_params.n_cap", lambda v: auto_params(24, v), 8, 2),
    Arg("encode_column_signature.j", lambda v: encode_column_signature(v, 1, -1, P24), 5, 1, 24),
    Arg("BlockRandomMatrix.column", lambda v: MAT.column(v), 3, 1, 24),
    Arg("BlockRandomMatrix.prefix_col_sq_norms", lambda v: MAT.prefix_col_sq_norms(v), 12, 0, 24),
    Arg("OrthonormalMatrix.column", lambda v: ORTHO.column(v), 3, 1, 24),
    Arg("OrthonormalMatrix.prefix_col_sq_norms", lambda v: ORTHO.prefix_col_sq_norms(v), 12, 0, 24),
    Arg("sample_orthonormal.d", lambda v: sample_orthonormal(v, "contract"), 24, 1),
    Arg("IdentityMatrix.dim", lambda v: IdentityMatrix(v), 24, 1),
    Arg("IdentityMatrix.column", lambda v: IDENTITY.column(v), 3, 1, 24),
    Arg("IdentityMatrix.prefix_col_sq_norms", lambda v: IDENTITY.prefix_col_sq_norms(v), 12, 0, 24),
    # calibrated
    Arg("measure_noise_profile.trials", lambda v: measure_noise_profile(("plain",), "both", v, P24), 30, 30),
    Arg("measure_noise_profile.pairs_per_trial",
        lambda v: measure_noise_profile(("plain",), "both", 30, P24, pairs_per_trial=v), 1, 1),
    Arg("measure_noise_profile.master_seed",
        lambda v: measure_noise_profile(("plain",), "isometry", 30, P24, master_seed=v), 3),
    # network; n_cap's lower bound is SPEC's floor
    Arg("generate_synthetic.seed", lambda v: generate_synthetic(SyntheticProfile(2, 3, 2), v, 24), 1),
    Arg("SyntheticProfile.n_modules", lambda v: SyntheticProfile(v, 2, 1), 2, 1),
    Arg("SyntheticProfile.depth", lambda v: SyntheticProfile(2, v, 1), 3, 2),
    Arg("SyntheticProfile.fan_in", lambda v: SyntheticProfile(2, 2, v), 2, 1),
    Arg("SyntheticProfile.attr_sparsity", lambda v: SyntheticProfile(2, 2, 1, attr_sparsity=v), 3, 1),
    Arg("SyntheticProfile.attr_span", lambda v: SyntheticProfile(2, 2, 1, attr_sparsity=1, attr_span=v), 8, 1),
    Arg("build_network.d", lambda v: build_network(SPEC, d=v), 24, 1),
    Arg("build_network.n_multiplier", lambda v: build_network(SPEC, d=24, n_multiplier=v), 2, 1),
    Arg("build_network.n_cap", lambda v: build_network(SPEC, d=24, n_cap=v), 12, 6),
    # recovery and repository
    Arg("beta_factor.h", lambda v: beta_factor(v, 1.0), 3, 2),
    Arg("SketchRepository.d", lambda v: SketchRepository(v), 24, 1),
    Arg("SketchRepository.query_similar.k", lambda v: STORE.query_similar(SK, v), 2, 1),
    Arg("SketchRepository.cluster.k", lambda v: STORE.cluster(v), 2, 1, 3),
    # sketcher
    Arg("MatrixRegistry.master_seed", lambda v: MatrixRegistry(P24, v), 7),
    Arg("MatrixRegistry.module_matrix.slot", lambda v: MatrixRegistry(P24, 0).module_matrix("m", v), 1, 0, 3),
    Arg("MatrixRegistry.tuple_matrix.position", lambda v: MatrixRegistry(P24, 0).tuple_matrix(v, 1), 2, 1),
    Arg("MatrixRegistry.tuple_matrix.depth", lambda v: MatrixRegistry(P24, 0).tuple_matrix(1, v), 3, 1),
    Arg("erase_to_prefix.d_prime", lambda v: erase_to_prefix(SK, v), 12, 1, 24),
    Arg("sketch_from_metadata.depth", lambda v: sketch_from_metadata(np.zeros(24), "overall", v, 24, False), 2, 1),
    Arg("sketch_from_metadata.erased_prefix",
        lambda v: sketch_from_metadata(np.zeros(24), "overall", 1, v, False), 12, 1, 24),
]


def digest(x):
    """x as nested tuples of type names, reprs and raw bytes, so that equal
    digests mean equal bits and equal types; private attributes (caches,
    locks, assembled views) are left out."""
    if isinstance(x, np.ndarray):
        return "ndarray", x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return type(x).__name__, tuple(digest(v) for v in x)
    if isinstance(x, dict):
        return "dict", tuple((k, digest(v)) for k, v in x.items())
    if hasattr(x, "__dict__"):
        return type(x).__name__, digest({k: v for k, v in vars(x).items() if not k.startswith("_")})
    return type(x).__name__, repr(x)


def outside(arg: Arg) -> list[int]:
    """The integers just outside arg's range."""
    return [b for b in (None if arg.low is None else arg.low - 1, None if arg.high is None else arg.high + 1)
            if b is not None]


def not_accepted(arg: Arg) -> st.SearchStrategy:
    """Values arg must refuse: bools, floats (an integral one too), strings
    (of digits too) and integers outside its range, as Python or numpy
    scalars."""
    kinds = [
        st.sampled_from([True, False, np.True_, np.False_]),
        st.floats(),
        st.floats().map(np.float64),
        st.just(float(arg.valid)),
        st.text(max_size=4),
        st.integers(-3, 40).map(str),
    ]
    if arg.low is not None:
        kinds += [st.integers(max_value=arg.low - 1), st.integers(arg.low - 1000, arg.low - 1).map(np.int64)]
    if arg.high is not None:
        kinds += [st.integers(min_value=arg.high + 1), st.integers(arg.high + 1, arg.high + 1000).map(np.int64)]
    return st.one_of(kinds)


def test_the_message_shape():
    assert require_integer(np.int16(5), "n", 1, 9) == 5 and type(require_integer(np.int16(5), "n")) is int
    for value, low, high, message in (
        (2.0, None, None, "n must be an integer, got 2.0"),
        (True, 0, None, "n must be an integer >= 0, got True"),
        ("3", 1, 9, "n must be an integer in [1, 9], got '3'"),
        (10, 1, 9, "n must be an integer in [1, 9], got 10"),
        (np.int64(0), 1, None, "n must be an integer >= 1, got np.int64(0)"),
    ):
        with pytest.raises(ParameterError) as info:
            require_integer(value, "n", low, high)
        assert str(info.value) == message


@pytest.mark.parametrize("arg", ARGS, ids=repr)
def test_each_integer_argument_refuses_a_bool_a_float_a_string_and_an_integer_outside(arg):
    arg.call(arg.valid)
    for value in (True, float(arg.valid), str(arg.valid), *outside(arg)):
        with pytest.raises(ModsketchError):
            arg.call(value)


@pytest.mark.parametrize("arg", ARGS, ids=repr)
def test_a_numpy_integer_acts_as_the_int_it_equals(arg):
    want = digest(arg.call(arg.valid))
    for kind in (np.int64, np.int32, np.uint8):
        assert digest(arg.call(kind(arg.valid))) == want, kind
    for value in outside(arg):
        with pytest.raises(ModsketchError) as as_int:
            arg.call(value)
        with pytest.raises(ModsketchError) as as_numpy:
            arg.call(np.int64(value))
        assert type(as_numpy.value) is type(as_int.value)


@CONTRACT
@given(data=st.data())
def test_integer_arguments_refuse_what_is_not_an_integer_in_range(data):
    arg = data.draw(st.sampled_from(ARGS))
    value = data.draw(not_accepted(arg))
    with pytest.raises(ModsketchError):
        arg.call(value)
