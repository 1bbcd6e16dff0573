"""The library's input contract: numbers, arrays and sketches.

Every integer argument the library reads names something: a dimension, a
count, a seed, a slot, a position or a depth.  Every real argument is a
weight, a probability, a tolerance or a quantile.  Every array argument is a
batch of samples, a vector or a codeword, and every sketch argument is a
:class:`~modsketch.sketcher.Sketch`.  The tables below list each argument
that :func:`~modsketch.block_random.require_integer`,
:func:`~modsketch.block_random.require_real`,
:func:`~modsketch.block_random.require_array` or
:func:`~modsketch.sketcher.require_sketch` reads, with a call that passes it
and the values it accepts.  The properties:

* a bool, a string, a non-finite number, or a number outside the range ends
  in a :class:`~modsketch.block_random.ModsketchError` subclass, never in a
  builtin exception; an integer argument refuses a float too;
* a numpy integer gives the same result as the int it equals, bit for bit
  and type for type, and is refused as that int is; a numpy float, or an
  int, gives a real argument the result of the Python float it equals;
* an array argument refuses a non-finite entry, another number of axes or
  another width, a bool, string, object or complex array, and anything that
  is not an array, list or tuple; a list or a tuple gives the result of the
  array it equals;
* a sketch argument refuses a NaN value, 2-D, list and string values, an
  unknown kind, a non-boolean mode, a prefix outside [1, d], another d (with
  the ``sketch d=...`` message) and anything that is not a sketch, and the
  refusal writes no file;
* every call of any of the four readers in ``src/modsketch`` is reached by
  a row.
"""

from __future__ import annotations

import ast
import math
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsketch.block_random import (
    BlockParams,
    DimensionMismatchError,
    IdentityMatrix,
    ModsketchError,
    ParameterError,
    auto_params,
    decode_column_signature,
    encode_column_signature,
    require_array,
    require_integer,
    require_real,
    sample_matrix,
    sample_orthonormal,
)
from modsketch.calibrated import measure_noise_profile
from modsketch.dictlearn import (
    DLConfig,
    classify_recovered_vectors,
    default_eps_schedule,
    learn_dictionary,
    unroll_network,
)
from modsketch.network import SyntheticProfile, build_network, generate_synthetic
from modsketch.recovery import (
    PathStep,
    beta_factor,
    recover_attributes_by_path,
    recover_attributes_unique,
    recover_frequency,
    recover_mean_attributes,
    recover_signature,
    recover_summed_attributes,
    sketch_similarity,
)
from modsketch.repository import SketchRepository
from modsketch.sketcher import (
    MatrixRegistry,
    Sketch,
    erase_to_prefix,
    export_sketch_csv,
    load_sketch,
    require_sketch,
    save_sketch,
    tuple_sketch,
)

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
LEARNED = learn_dictionary(np.zeros((2, 24)), DLConfig(P24))
IDENTITY_REGISTRY = MatrixRegistry(P24, 0, "identity")
REGISTRY = MatrixRegistry(P24, 0)


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
    Arg("Sketch.depth", lambda v: require_sketch(Sketch(np.zeros(24), "overall", v, 24, False)), 2, 1),
    Arg("Sketch.erased_prefix", lambda v: require_sketch(Sketch(np.zeros(24), "overall", 1, v, False)), 12, 1, 24),
    # dictlearn
    Arg("default_eps_schedule.levels", lambda v: default_eps_schedule(0.5, v), 3, 1),
    Arg("unroll_network.recursion_budget", lambda v: unroll_network(np.zeros((2, 24)), P24, 1.0, v), 3, 1),
    Arg("unroll_network.levels", lambda v: unroll_network(np.zeros((2, 24)), P24, 1.0, 3, levels=v), 2, 1),
    Arg("classify_recovered_vectors.recursion_budget",
        lambda v: classify_recovered_vectors([np.ones(4)], 0.5, v, 0.05), 6, 1),
    Arg("LearnedDictionary.coefficient.k", lambda v: LEARNED.coefficient(v, 0, 1), 1, 0, 1),
    Arg("LearnedDictionary.coefficient.i", lambda v: LEARNED.coefficient(0, v, 1), 0),
    Arg("LearnedDictionary.coefficient.j", lambda v: LEARNED.coefficient(0, 0, v), 1),
    Arg("LearnedDictionary.recovered_slices.k", lambda v: LEARNED.recovered_slices(v), 1, 0, 1),
]


@dataclass(frozen=True)
class RealArg:
    """One real argument: a call that passes ``value`` for it, an accepted
    value that a float32 holds exactly, an accepted integer (None when the
    interval holds none), and the interval from low to high, each end closed
    or open as ``ends`` says."""

    name: str
    call: Callable
    valid: float
    integral: int | None
    low: float
    high: float
    ends: str

    def __repr__(self) -> str:
        return self.name

    def holds(self, x: float) -> bool:
        return (self.low < x or x == self.low and self.ends[0] == "[") and (
            x < self.high or x == self.high and self.ends[1] == "]")


INF = math.inf
REALS = [
    RealArg("BlockParams.q", lambda v: BlockParams(b=24, q=v, d=24, n_cap=12), 0.5, 1, 0, 1, "[]"),
    RealArg("auto_params.q", lambda v: auto_params(24, 8, q=v), 0.25, 1, 0, 1, "[]"),
    RealArg("measure_noise_profile.quantile",
            lambda v: measure_noise_profile(("plain",), "isometry", 30, P24, quantile=v), 0.5, None, 0, 1, "()"),
    RealArg("build_network.weight", lambda v: build_network({**SPEC, "edges": [("root", "a", v)]}, d=24),
            0.5, 1, 0, INF, "[)"),
    RealArg("tuple_sketch.weights", lambda v: tuple_sketch([SK], [v], 1, IDENTITY_REGISTRY), 0.5, 1, 0, INF, "[)"),
    RealArg("beta_factor.w", lambda v: beta_factor(3, v), 0.5, 2, 0, INF, "()"),
    RealArg("recover_frequency.w_star", lambda v: recover_frequency(SK, "m", 2, v, MatrixRegistry(P24, 0)),
            0.5, 1, 0, INF, "()"),
    RealArg("recover_frequency.beta", lambda v: recover_frequency(SK, "m", 2, 1.0, MatrixRegistry(P24, 0), beta=v),
            0.5, 3, 0, INF, "()"),
    RealArg("DLConfig.eps_recover", lambda v: DLConfig(P24, eps_recover=v), 0.25, 1, 0, 1, "(]"),
    RealArg("DLConfig.set_floor_frac", lambda v: DLConfig(P24, set_floor_frac=v), 0.5, 0, 0, 1, "[]"),
    RealArg("default_eps_schedule.eps_final", lambda v: default_eps_schedule(v, 3), 0.5, 1, 0, 1, "(]"),
    RealArg("unroll_network.w_goal", lambda v: unroll_network(np.zeros((2, 24)), P24, v, 3), 0.5, 1, 0, INF, "()"),
    RealArg("unroll_network.eps_final", lambda v: unroll_network(np.zeros((2, 24)), P24, 1.0, 3, eps_final=v),
            0.5, 1, 0, 1, "(]"),
    RealArg("classify_recovered_vectors.w_goal",
            lambda v: classify_recovered_vectors([np.ones(4), np.full(4, 0.01)], v, 6, 0.05), 0.5, 1, 0, INF, "()"),
    RealArg("classify_recovered_vectors.eps_level",
            lambda v: classify_recovered_vectors([np.ones(4), np.full(4, 0.01)], 0.5, 6, v), 0.0625, 0, 0, INF, "[)"),
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


def test_the_real_message_shape():
    assert require_real(np.float32(0.5), "x", 0, 1, "()") == 0.5
    assert type(require_real(np.int8(1), "x", 0, 1, "[]")) is float
    for value, low, high, ends, message in (
        (True, 0, 1, "[]", "x must be a finite number in [0, 1], got True"),
        ("0.5", 0, 1, "(]", "x must be a finite number in (0, 1], got '0.5'"),
        (0, 0, INF, "()", "x must be a finite number in (0, inf), got 0"),
        (math.nan, 0, INF, "[)", "x must be a finite number in [0, inf), got nan"),
        (np.float64(INF), 0, INF, "[]", "x must be a finite number in [0, inf], got np.float64(inf)"),
        (10**400 - 1, 0, INF, "[)", f"x must be a finite number in [0, inf), got {10**400 - 1!r}"),
        (np.False_, 0, 1, "[]", "x must be a finite number in [0, 1], got np.False_"),
        (None, 0, 1, "[]", "x must be a finite number in [0, 1], got None"),
    ):
        with pytest.raises(ParameterError) as info:
            require_real(value, "x", low, high, ends)
        assert str(info.value) == message


def refused_reals(arg: RealArg) -> list:
    """A bool, a digit string, NaN, +-inf, each excluded end, and a number
    on either side of the interval."""
    ends = [e for e, bracket in ((arg.low, arg.ends[0]), (arg.high, arg.ends[1])) if bracket in "()" and math.isfinite(e)]
    beyond = [b for b in (arg.low - 1, arg.high + 1) if math.isfinite(b)]
    return [True, np.True_, str(arg.valid), math.nan, INF, -INF, np.float64(math.nan), *ends, *beyond]


@pytest.mark.parametrize("arg", REALS, ids=repr)
def test_each_real_argument_refuses_a_bool_a_string_a_non_finite_number_and_a_number_outside(arg):
    arg.call(arg.valid)
    for value in refused_reals(arg):
        with pytest.raises(ModsketchError):
            arg.call(value)


@pytest.mark.parametrize("arg", REALS, ids=repr)
def test_a_numpy_number_acts_as_the_python_float_it_equals(arg):
    want = digest(arg.call(arg.valid))
    for kind in (np.float64, np.float32):
        assert digest(arg.call(kind(arg.valid))) == want, kind
    if arg.integral is not None:
        want = digest(arg.call(float(arg.integral)))
        for value in (arg.integral, np.int64(arg.integral), np.uint8(arg.integral), np.float32(arg.integral)):
            assert digest(arg.call(value)) == want, repr(value)


def not_a_real_in(arg: RealArg) -> st.SearchStrategy:
    """Values arg must refuse: bools, strings (of numbers too), None, lists,
    non-finite numbers, ints beyond every float, and numbers outside its
    interval, as Python or numpy scalars."""
    outside = st.floats(allow_nan=False).filter(lambda x: not (math.isfinite(x) and arg.holds(x)))
    return st.one_of(
        st.sampled_from([True, False, np.True_, np.False_, None, math.nan, np.float32(math.nan), INF, -INF]),
        st.text(max_size=4),
        st.floats().map(str),
        st.lists(st.floats(0, 1), max_size=2),
        st.integers(min_value=2**1024),
        outside,
        outside.map(np.float64),
        st.integers(-10**6, 10**6).filter(lambda n: not arg.holds(n)),
        st.integers(-1000, 1000).filter(lambda n: not arg.holds(n)).map(np.int64),
    )


@CONTRACT
@given(data=st.data())
def test_real_arguments_refuse_what_is_not_a_finite_number_in_range(data):
    arg = data.draw(st.sampled_from(REALS))
    value = data.draw(not_a_real_in(arg))
    with pytest.raises(ModsketchError):
        arg.call(value)


ROOT, LEAF = SPEC["objects"]


@dataclass(frozen=True)
class ArrayArg:
    """One array argument: a call that passes ``value`` for it, an accepted
    value, its number of axes and the width of its last axis (None: any),
    and whether a list or tuple is read as the array it equals."""

    name: str
    call: Callable
    valid: np.ndarray
    ndim: int
    width: int | None = None
    sequences: bool = True

    def __repr__(self) -> str:
        return self.name


ARRAYS = [
    ArrayArg("decode_column_signature.z", lambda v: decode_column_signature(v, P24),
             encode_column_signature(5, 1, -1, P24), 1, P24.sub_block),
    ArrayArg("build_network.attributes", lambda v: build_network({**SPEC, "objects": [ROOT, {**LEAF, "attributes": v}]}, 24),
             np.array([0.6, 0.3]), 1),
    ArrayArg("learn_dictionary.samples", lambda v: learn_dictionary(v, DLConfig(P24)), np.eye(2, 24), 2, 24),
    ArrayArg("unroll_network.sketches", lambda v: unroll_network(v, P24, 1.0, 3), np.eye(2, 24), 2, 24),
    ArrayArg("classify_recovered_vectors.vectors", lambda v: classify_recovered_vectors([np.ones(4), v], 0.5, 6, 0.05),
             np.full(4, 0.01), 1),
    # a Sketch holds an array, so its values take no list (the sketch table checks that)
    ArrayArg("Sketch.values", lambda v: require_sketch(Sketch(v, "overall", 1, 3)), np.arange(3.0), 1, sequences=False),
]


def test_the_array_message_shape():
    x = np.arange(3.0)
    assert require_array(x, "x", 1) is x
    assert digest(require_array([1, 2], "x", 1)) == digest(np.array([1.0, 2.0]))
    for value, ndim, width, error, message in (
        ("abc", 1, None, ParameterError, "x must be a 1-D array of real numbers, got str"),
        (None, 1, None, ParameterError, "x must be a 1-D array of real numbers, got NoneType"),
        ([[1.0], [1.0, 2.0]], 2, None, ParameterError, "x must be a 2-D array of real numbers, got list"),
        (np.ones((2, 2)), 1, None, ParameterError, "x must be a 1-D array of real numbers, got 2-D float64"),
        (np.array([True]), 1, None, ParameterError, "x must be a 1-D array of real numbers, got 1-D bool"),
        (np.ones(3), 1, 4, DimensionMismatchError, "x must have width 4, got 3"),
        (np.array([0.0, np.inf]), 1, None, ParameterError, "x must be finite, value 1 is inf"),
        (np.array([[0.0, 1.0], [np.nan, 0.0]]), 2, None, ParameterError, "x must be finite, value (1, 0) is nan"),
    ):
        with pytest.raises(error) as info:
            require_array(value, "x", ndim, width)
        assert str(info.value) == message


def refused_arrays(arg: ArrayArg) -> list:
    """A NaN, an inf and a -inf entry, a bool, a string, a complex and an
    object array of valid shape, one axis more and one fewer, another width,
    a ragged list, a list holding NaN, and values that are no arrays."""
    nan, inf, neg = (arg.valid.astype(float) for _ in range(3))
    nan.flat[-1], inf.flat[0], neg.flat[0] = math.nan, INF, -INF
    wrong = [nan, inf, neg, arg.valid.astype(bool), arg.valid.astype(str), arg.valid.astype(complex),
             arg.valid.astype(object), arg.valid[..., None], arg.valid.reshape(-1)[0], nan.tolist(),
             [[0.5], [0.5, 0.5]], None, True, 0.5, "0.5", {"a": 1.0}]
    if arg.ndim == 2:
        wrong.append(arg.valid[0])
    if arg.width is not None:
        wrong += [arg.valid[..., 1:], np.concatenate([arg.valid, arg.valid[..., :1]], axis=-1)]
    return wrong


@pytest.mark.parametrize("arg", ARRAYS, ids=repr)
def test_each_array_argument_refuses_a_non_finite_entry_another_shape_and_what_is_no_real_array(arg):
    arg.call(arg.valid)
    for value in refused_arrays(arg):
        with pytest.raises(ModsketchError):
            arg.call(value)


@pytest.mark.parametrize("arg", [a for a in ARRAYS if a.sequences], ids=repr)
def test_a_list_or_a_tuple_acts_as_the_array_it_equals(arg):
    want = digest(arg.call(arg.valid))
    assert digest(arg.call(arg.valid.tolist())) == want
    assert digest(arg.call(tuple(arg.valid.tolist()))) == want


def not_an_array_for(arg: ArrayArg) -> st.SearchStrategy:
    """Values arg must refuse: its valid array with one entry made NaN or
    +-inf, or reshaped to another number of axes or width, or cast to a
    dtype that is not real; or a scalar, a string or None."""
    def poisoned(data: tuple[int, float]) -> np.ndarray:
        out = arg.valid.astype(float)
        out.flat[data[0] % out.size] = data[1]
        return out

    shapes = st.lists(st.integers(1, 4), min_size=0, max_size=3).filter(
        lambda shape: len(shape) != arg.ndim or arg.width is not None and shape[-1] != arg.width)
    return st.one_of(
        st.tuples(st.integers(0, 10**6), st.sampled_from([math.nan, INF, -INF])).map(poisoned),
        shapes.map(np.ones),
        st.sampled_from([bool, str, complex, object]).map(arg.valid.astype),
        st.sampled_from([None, True, 0.5, "x", math.nan]),
        st.sampled_from([math.nan, INF, -INF]).map(lambda x: [0.5, x]),
    )


@CONTRACT
@given(data=st.data())
def test_array_arguments_refuse_what_is_not_a_finite_real_array_of_their_shape(data):
    arg = data.draw(st.sampled_from(ARRAYS))
    value = data.draw(not_an_array_for(arg))
    with pytest.raises(ModsketchError):
        arg.call(value)


@dataclass(frozen=True)
class SketchArg:
    """One sketch argument: a call that passes ``sk`` for it and may write
    under ``tmp``, an accepted sketch of d=24, and whether the call holds a
    dimension that another d is refused against."""

    name: str
    call: Callable
    valid: Sketch = field(default_factory=lambda: SK)
    has_d: bool = True

    def __repr__(self) -> str:
        return self.name


SKETCHES = [
    SketchArg("recover_attributes_unique.sk", lambda sk, tmp: recover_attributes_unique(sk, "a", 2, 1.0, REGISTRY)),
    SketchArg("recover_attributes_by_path.sk",
              lambda sk, tmp: recover_attributes_by_path(sk, [PathStep(1, "a")], REGISTRY, 1.0)),
    SketchArg("recover_frequency.sk", lambda sk, tmp: recover_frequency(sk, "a", 2, 1.0, REGISTRY)),
    SketchArg("recover_summed_attributes.sk", lambda sk, tmp: recover_summed_attributes(sk, "a", 2, 1.0, REGISTRY)),
    SketchArg("recover_mean_attributes.sk", lambda sk, tmp: recover_mean_attributes(sk, "a", 2, 1.0, REGISTRY)),
    SketchArg("recover_signature.sk", lambda sk, tmp: recover_signature(sk, "a", 2, 1.0, REGISTRY),
              replace(SK, signature_mode=True)),
    SketchArg("sketch_similarity.a", lambda sk, tmp: sketch_similarity(sk, SK)),
    SketchArg("sketch_similarity.b", lambda sk, tmp: sketch_similarity(SK, sk)),
    SketchArg("tuple_sketch.sketches", lambda sk, tmp: tuple_sketch([sk], [1.0], 1, IDENTITY_REGISTRY)),
    SketchArg("erase_to_prefix.sk", lambda sk, tmp: erase_to_prefix(sk, 12), has_d=False),
    SketchArg("save_sketch.sk", lambda sk, tmp: save_sketch(sk, str(tmp / "s.sketch")), has_d=False),
    SketchArg("export_sketch_csv.sk", lambda sk, tmp: export_sketch_csv(sk, str(tmp / "s.csv")), has_d=False),
    SketchArg("SketchRepository.insert.sketch", lambda sk, tmp: SketchRepository(24, str(tmp / "s.log")).insert(sk)),
    SketchArg("SketchRepository.query_similar.probe", lambda sk, tmp: STORE.query_similar(sk, 2)),
]


def refused_sketches(valid: Sketch) -> list:
    """valid with a NaN value, 2-D, list or string values, an unknown kind, a
    non-boolean mode or a prefix outside [1, d]; and no sketches at all."""
    nan = valid.values.copy()
    nan[3] = math.nan
    return [
        *(replace(valid, values=v) for v in (nan, np.zeros((24, 2)), valid.values.tolist(), np.array(["0"] * 24))),
        replace(valid, kind="bogus"), replace(valid, kind=None), replace(valid, kind=np.array(["tuple", "input"])),
        replace(valid, signature_mode="yes"), replace(valid, signature_mode=1),
        replace(valid, erased_prefix=0), replace(valid, erased_prefix=25),
        valid.values, None, True, {"values": valid.values},
    ]


@pytest.mark.parametrize("arg", SKETCHES, ids=repr)
def test_each_sketch_argument_refuses_what_a_writer_refuses(tmp_path, arg):
    arg.call(arg.valid, tmp_path)
    for path in tmp_path.iterdir():
        path.unlink()
    for value in refused_sketches(arg.valid):
        with pytest.raises(ModsketchError):
            arg.call(value, tmp_path)
        assert not any(tmp_path.iterdir()), value
    if arg.has_d:
        other_d = replace(arg.valid, values=np.zeros(12), erased_prefix=12)
        with pytest.raises(DimensionMismatchError, match=r"^sketch d=\d+, [a-z ]+ d=\d+$"):
            arg.call(other_d, tmp_path)


def raw_sketch_file(tmp: Path, sig) -> str:
    """A .sketch file whose header carries ``sig=<sig>``, as no writer would write it."""
    path = tmp / "raw.sketch"
    path.write_bytes(f"modsketch-sketch v1 d=2 kind=overall depth=1 erased_prefix=2 sig={sig} seed=x\n".encode()
                     + bytes(16))
    return str(path)


READERS = ("require_integer", "require_real", "require_array", "require_sketch")


def reader_calls() -> set[tuple[str, int, int]]:
    """(file, line, column) of every call of a reader in the package."""
    sites = set()
    for path in Path(require_real.__code__.co_filename).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in READERS:
                sites.add((path.name, node.lineno, node.col_offset))
    return sites


def reached_call(call: Callable) -> tuple[str, int, int]:
    """(file, line, column) of the reader call that refuses a bool passed to call."""
    with pytest.raises(ParameterError) as info:
        call(True)
    caller, reader = traceback.extract_tb(info.value.__traceback__)[-2:]
    assert reader.name in READERS, reader
    return Path(caller.filename).name, caller.lineno, caller.colno


def test_every_call_of_a_reader_has_a_row(tmp_path):
    calls = [arg.call for arg in ARGS + REALS + ARRAYS]
    calls += [lambda v, arg=arg: arg.call(v, tmp_path) for arg in SKETCHES]
    calls.append(lambda v: load_sketch(raw_sketch_file(tmp_path, v)))
    reached = {reached_call(call) for call in calls}
    assert reader_calls() - reached == set(), "a reader call with no row in ARGS, REALS, ARRAYS or SKETCHES"
