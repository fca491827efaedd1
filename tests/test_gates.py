"""The argument gates of the public API, fuzzed with junk values.

Every parameter of a function in cohkit.__all__, and of each constructor
there that gates its argument, has a row in GATED: a call that passes the
value under test to that parameter and small valid values to every other
one. A junk value must make the call raise a CohkitError subclass or
return; it must never raise a bare TypeError, ValueError or
AttributeError, and never emit a numpy warning.
"""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohkit
from cohkit.channels import CONDITIONS, MEASURE_FUNCTIONS
from cohkit.errors import (
    CohkitError,
    DimensionMismatchError,
    InvalidArgumentsError,
    InvalidDimensionError,
    InvalidKrausError,
    NotPositiveError,
    NotUnitTraceError,
    require_choice,
    require_count,
    require_instance,
    require_real,
)
from cohkit.measures import METRICS
from cohkit.states import OPERATION_CLASSES

_RHO = cohkit.random_density(2, seed=5)
_KRAUS = cohkit.random_channel("unital_mixture", 2, seed=5)
_I2 = np.eye(2) / 2

JUNK = st.sampled_from([
    None, "", "3", "nan", True, False, np.True_, math.nan, math.inf, -math.inf, -1, -7, -0.5, 2.5,
    np.array(3), np.zeros(3), np.ones((2, 2)), np.array([]), [1],
])
# dimensions and counts with no upper bound: a value that passes the gate allocates, so stay small
UNBOUNDED = st.one_of(JUNK, st.integers(-3, 300))
BOUNDED = st.one_of(JUNK, st.integers(-3, 300), st.just(2**70))
# matrices, vectors and states: junk of every shape, and a matrix where a DensityMatrix belongs
ARRAYS = st.one_of(JUNK, st.sampled_from([
    "x", {}, object(), 10**400, [math.nan], [math.inf, 0.0], [[math.nan]], [1, "x"], [[1, 0], [0]], [0.5, 0.5],
    [[0.5, 0.0], [0.0, 0.5]], np.eye(2) / 2, [1j], np.array(["a"]),
    # entries beyond a probability or an amplitude, some whose sums or norms overflow
    [1e200], [-1e308, 2.0], [1e308, 1e308], [1e300, 1e300],
]))
# a state or a Kraus set: any of ARRAYS, an object of the other kind, and a valid one of dimension 3 where the
# other operands have dimension 2
STATES = st.one_of(ARRAYS, st.sampled_from([_KRAUS, cohkit.maximally_mixed(3)]))
KRAUS = st.one_of(ARRAYS, st.sampled_from([_RHO, cohkit.random_channel("general_tp", 3, seed=1)]))


def choices(*valid):
    """A name: JUNK, wrong strings, lists and arrays of names, and numpy strings, the valid ones of which pass."""
    return st.one_of(JUNK, st.sampled_from([
        "x", valid[0].upper(), f" {valid[0]}", [valid[0]], np.array(valid), np.str_("x"), *map(np.str_, valid),
    ]))


# (function, parameter) -> (call with the value under test, values to try)
GATED = {
    ("apply_channel", "kraus"): (lambda v: cohkit.apply_channel(v, _RHO), KRAUS),
    ("apply_channel", "rho"): (lambda v: cohkit.apply_channel(_KRAUS, v), STATES),
    ("apply_unitary", "rho"): (lambda v: cohkit.apply_unitary(v, cohkit.hadamard()), STATES),
    ("apply_unitary", "u"): (lambda v: cohkit.apply_unitary(_RHO, v), ARRAYS),
    ("audit_conditions", "measure"): (lambda v: cohkit.audit_conditions(v, "C0", samples=1),
                                      choices(*MEASURE_FUNCTIONS)),
    ("audit_conditions", "condition"): (lambda v: cohkit.audit_conditions("l1", v, samples=1), choices(*CONDITIONS)),
    ("audit_conditions", "op_class"): (lambda v: cohkit.audit_conditions("ibiqc", "C2_average", v, samples=1),
                                       choices(*OPERATION_CLASSES)),
    ("audit_conditions", "d"): (lambda v: cohkit.audit_conditions("l1", "C0", d=v, samples=1), BOUNDED),
    ("audit_conditions", "samples"): (lambda v: cohkit.audit_conditions("l1", "C0", samples=v), BOUNDED),
    ("audit_conditions", "seed"): (lambda v: cohkit.audit_conditions("l1", "C0", samples=1, seed=v), BOUNDED),
    ("audit_conditions", "tol"): (lambda v: cohkit.audit_conditions("l1", "C0", samples=1, tol=v), JUNK),
    ("audit_conditions", "probe_eigenbasis"): (
        lambda v: cohkit.audit_conditions("ibiqc", "C2_selective", "unital_mixture", samples=1, probe_eigenbasis=v),
        JUNK),
    ("classify_kraus", "kraus"): (cohkit.classify_kraus, KRAUS),
    ("coherence_report", "rho"): (cohkit.coherence_report, STATES),
    ("DensityMatrix", "matrix"): (cohkit.DensityMatrix, ARRAYS),
    ("DiagonalState", "probs"): (cohkit.DiagonalState, ARRAYS),
    ("glauber_truncated", "a"): (lambda v: cohkit.glauber_truncated(v, 3), JUNK),
    ("glauber_truncated", "d"): (lambda v: cohkit.glauber_truncated(1.0, v), UNBOUNDED),
    ("haar_unitary", "d"): (lambda v: cohkit.haar_unitary(v, 0), UNBOUNDED),
    ("haar_unitary", "seed"): (lambda v: cohkit.haar_unitary(2, v), BOUNDED),
    ("hermitian_eig", "m"): (cohkit.hermitian_eig, ARRAYS),
    ("ibiqc_coherence", "rho"): (cohkit.ibiqc_coherence, STATES),
    ("KrausSet", "operators"): (cohkit.KrausSet, ARRAYS),
    ("l1_coherence", "rho"): (cohkit.l1_coherence, STATES),
    ("make_density", "entries"): (cohkit.make_density, ARRAYS),
    ("maximally_mixed", "d"): (cohkit.maximally_mixed, UNBOUNDED),
    ("min_distance_coherence", "rho"): (lambda v: cohkit.min_distance_coherence(v, "frobenius"), STATES),
    ("min_distance_coherence", "metric"): (lambda v: cohkit.min_distance_coherence(_RHO, v), choices(*METRICS)),
    ("min_distance_coherence", "budget"): (lambda v: cohkit.min_distance_coherence(_RHO, "trace", budget=v), JUNK),
    ("PureState", "amplitudes"): (cohkit.PureState, ARRAYS),
    ("qubit_pair", "alpha"): (cohkit.qubit_pair, JUNK),
    ("random_channel", "kind"): (lambda v: cohkit.random_channel(v, 2), choices(*OPERATION_CLASSES)),
    ("random_channel", "d"): (lambda v: cohkit.random_channel("general_tp", v), UNBOUNDED),
    ("random_channel", "k"): (lambda v: cohkit.random_channel("general_tp", 2, k=v), UNBOUNDED),
    ("random_channel", "seed"): (lambda v: cohkit.random_channel("general_tp", 2, seed=v), BOUNDED),
    ("random_density", "d"): (lambda v: cohkit.random_density(v, 0), UNBOUNDED),
    ("random_density", "seed"): (lambda v: cohkit.random_density(2, v), BOUNDED),
    ("rel_ent_coherence", "rho"): (cohkit.rel_ent_coherence, STATES),
    ("relative_entropy", "rho"): (lambda v: cohkit.relative_entropy(v, _RHO), STATES),
    ("relative_entropy", "sigma"): (lambda v: cohkit.relative_entropy(_RHO, v), STATES),
    ("replay_violation", "report"): (cohkit.replay_violation, ARRAYS),
    ("selective_counterexample", "rho"): (cohkit.selective_counterexample, STATES),
    ("selective_outcomes", "kraus"): (lambda v: cohkit.selective_outcomes(v, _RHO), KRAUS),
    ("selective_outcomes", "rho"): (lambda v: cohkit.selective_outcomes(_KRAUS, v), STATES),
    ("shannon_entropy", "probs"): (cohkit.shannon_entropy, ARRAYS),
    ("trace_distance", "a"): (lambda v: cohkit.trace_distance(v, _I2), ARRAYS),
    ("trace_distance", "b"): (lambda v: cohkit.trace_distance(_I2, v), ARRAYS),
    ("von_neumann_entropy", "rho"): (cohkit.von_neumann_entropy, STATES),
}


def test_the_table_names_every_parameter_of_every_public_function():
    # the constructors that gate their argument are the dataclasses with a __post_init__; the others hold results
    public = {name: obj for name in cohkit.__all__
              if inspect.isfunction(obj := getattr(cohkit, name)) or hasattr(obj, "__post_init__")}
    assert set(GATED) == {(name, p) for name, fn in public.items() for p in inspect.signature(fn).parameters}


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_property_junk_arguments_raise_cohkit_errors_or_return(data):
    key = data.draw(st.sampled_from(sorted(GATED)), label="parameter")
    call, values = GATED[key]
    value = data.draw(values, label="value")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(value)
        except CohkitError:
            pass


@pytest.mark.parametrize("call", [
    lambda: cohkit.make_density("x"), lambda: cohkit.PureState("x"), lambda: cohkit.shannon_entropy("x"),
    lambda: cohkit.shannon_entropy(None), lambda: cohkit.shannon_entropy([math.nan]),
    lambda: cohkit.l1_coherence(None), lambda: cohkit.von_neumann_entropy(np.eye(2) / 2),
    lambda: cohkit.apply_channel(_KRAUS, np.eye(2) / 2), lambda: cohkit.audit_conditions(["l1"], "C0"),
    lambda: cohkit.audit_conditions("l1", np.zeros(3)), lambda: cohkit.trace_distance("x", _I2),
    lambda: cohkit.KrausSet({}), lambda: cohkit.KrausSet("x"), lambda: cohkit.KrausSet([1, "x"]),
    lambda: cohkit.KrausSet([[[1, "x"]]]), lambda: cohkit.DensityMatrix(object()),
    lambda: cohkit.random_channel(np.zeros(3), 2),
    lambda: cohkit.classify_kraus(_RHO), lambda: cohkit.relative_entropy(_RHO, _KRAUS),
])
def test_matrix_and_vector_junk_raises_invalid_arguments(call):
    with pytest.raises(InvalidArgumentsError):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: cohkit.shannon_entropy([1e200]), NotUnitTraceError),
    (lambda: cohkit.shannon_entropy([-1e308, 2.0]), NotPositiveError),
    (lambda: cohkit.shannon_entropy([1e308, 1e308]), NotUnitTraceError),
    (lambda: cohkit.shannon_entropy([]), InvalidArgumentsError),
    (lambda: cohkit.DiagonalState([1e308, 1e308]), NotUnitTraceError),
    (lambda: cohkit.DiagonalState("x"), InvalidArgumentsError),
    (lambda: cohkit.PureState([1e300, 1e300]), NotUnitTraceError),
    (lambda: cohkit.selective_outcomes(cohkit.KrausSet([2 * np.eye(2)]), _RHO), InvalidKrausError),
    (lambda: cohkit.DiagonalState(np.eye(2) / 2), DimensionMismatchError),
    (lambda: cohkit.DiagonalState([]), DimensionMismatchError),
    (lambda: cohkit.PureState([0.6, 0.6]), NotUnitTraceError),
], ids=["entropy-1e200", "entropy-negative", "entropy-overflow", "entropy-empty", "diagonal-overflow",
        "diagonal-string", "pure-overflow", "selective-not-trace-preserving", "diagonal-matrix", "diagonal-empty",
        "pure-norm"])
def test_probability_amplitude_and_channel_gates_raise_before_numpy_warns(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("v, lo, hi, expected", [(3, 1, math.inf, 3), (np.int64(2), 2, 2, 2), (2**70, 0, math.inf, 2**70)])
def test_require_count_accepts_integers_in_range(v, lo, hi, expected):
    out = require_count("n", v, lo, hi)
    assert out == expected and type(out) is int


@pytest.mark.parametrize("v", [True, np.True_, 2.0, "2", None, 0, 5, np.zeros(1)])
def test_require_count_rejects_with_the_given_error(v):
    with pytest.raises(InvalidDimensionError, match=r"^n must be an integer from 1 to 4, got "):
        require_count("n", v, 1, 4, error=InvalidDimensionError)


@pytest.mark.parametrize("v", [0, -2.5, np.float64(1e308), 2**1023, 10**308])
def test_require_real_accepts_finite_reals(v):
    out = require_real("x", v)
    assert out == float(v) and type(out) is float


@pytest.mark.parametrize("v", [True, math.nan, math.inf, -math.inf, 2**1024, "1", None, 1j, np.zeros(1), -1e-300])
def test_require_real_rejects_with_its_lower_bound(v):
    with pytest.raises(InvalidArgumentsError, match=r"^x must be a finite number >= 0, got "):
        require_real("x", v, lo=0)


@pytest.mark.parametrize("v", ["b", np.str_("b")])
def test_require_choice_returns_a_name_among_the_choices(v):
    assert require_choice("letter", v, {"a": 1, "b": 2}) is v


@pytest.mark.parametrize("v", ["c", "", " b", None, b"b", ["b"], np.array(["b"]), np.zeros(3), 1])
def test_require_choice_rejects_every_other_value(v):
    with pytest.raises(InvalidArgumentsError) as err:
        require_choice("letter", v, {"a": 1, "b": 2})
    assert str(err.value) == f"unknown letter {v!r}; expected one of ('a', 'b')"


def test_require_instance_returns_the_object_or_names_both_types():
    assert require_instance("rho", _RHO, cohkit.DensityMatrix) is _RHO
    with pytest.raises(InvalidArgumentsError, match=r"^rho must be a DensityMatrix, got KrausSet$"):
        require_instance("rho", _KRAUS, cohkit.DensityMatrix)
