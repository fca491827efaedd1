import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohkit.errors import DimensionMismatchError, InvalidArgumentsError, OptimizerFailure
from cohkit import measures
from cohkit.linalg import trace_distance
from cohkit.measures import (
    OPTIMIZER_BUDGET,
    SUPPORT_EIGENVALUE_TOL,
    SUPPORT_WEIGHT_TOL,
    _diagonal_distance_fn,
    c_ibiqc,
    c_l1,
    c_re,
    coherence_report,
    entropy_bits,
    ibiqc_coherence,
    l1_coherence,
    min_distance_coherence,
    rel_ent_coherence,
    relative_entropy,
    shannon_entropy,
    spectral_entropy,
    von_neumann_entropy,
)
from cohkit.states import (
    DensityMatrix,
    DiagonalState,
    PureState,
    apply_unitary,
    glauber_truncated,
    haar_unitary,
    hadamard,
    make_density,
    maximally_mixed,
    qubit_pair,
    random_density,
)

ENTROPY_PI_SIXTH = 0.8112781244591327
COHERENCE_PI_SIXTH = 0.18872187554086728


def closed_form(alpha):
    # log2(2) + cos^2 log2 cos^2 + sin^2 log2 sin^2, with 0log0 = 0
    c2 = math.cos(alpha) ** 2
    s2 = math.sin(alpha) ** 2
    out = 1.0
    if c2 > 0.0:
        out += c2 * math.log2(c2)
    if s2 > 0.0:
        out += s2 * math.log2(s2)
    return out


def test_shannon_entropy():
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    assert shannon_entropy(np.array([0.75, 0.25])) == pytest.approx(ENTROPY_PI_SIXTH, abs=1e-15)


def test_von_neumann_entropy_pure():
    psi = PureState(np.full(4, 4 ** -0.5)).to_density()
    assert von_neumann_entropy(psi) == pytest.approx(0.0, abs=1e-10)


def test_von_neumann_entropy_maximally_mixed():
    for d in (2, 3, 6):
        assert von_neumann_entropy(maximally_mixed(d)) == pytest.approx(math.log2(d), abs=1e-12)


def test_von_neumann_entropy_qubit():
    rz, _ = qubit_pair(math.pi / 6)
    assert von_neumann_entropy(rz) == pytest.approx(ENTROPY_PI_SIXTH, abs=1e-12)


def test_l1_coherence_diagonal_is_zero():
    for alpha in (0.0, 0.3, math.pi / 6, 1.2):
        rz, _ = qubit_pair(alpha)
        assert l1_coherence(rz) == 0.0


def test_l1_coherence_examples():
    _, rx0 = qubit_pair(0.0)
    assert l1_coherence(rx0) == pytest.approx(1.0, abs=1e-12)
    psi3 = PureState(np.full(3, 3 ** -0.5)).to_density()
    assert l1_coherence(psi3) == pytest.approx(2.0, abs=1e-12)
    _, rx6 = qubit_pair(math.pi / 6)
    assert l1_coherence(rx6) == pytest.approx(0.5, abs=1e-12)


def test_rel_ent_coherence_diagonal_exactly_zero():
    for alpha in (0.0, 0.3, math.pi / 6, 1.0):
        rz, _ = qubit_pair(alpha)
        assert rel_ent_coherence(rz) == 0.0


def test_rel_ent_coherence_examples():
    _, rx = qubit_pair(math.pi / 6)
    assert rel_ent_coherence(rx) == pytest.approx(COHERENCE_PI_SIXTH, abs=1e-9)
    for d in (2, 3, 4):
        psi = PureState(np.full(d, d ** -0.5)).to_density()
        assert rel_ent_coherence(psi) == pytest.approx(math.log2(d), abs=1e-9)


def test_ibiqc_zero_at_maximally_mixed():
    for d in (2, 3, 4, 5, 6):
        assert ibiqc_coherence(maximally_mixed(d)) == 0.0


def test_ibiqc_basis_pair():
    rz, rx = qubit_pair(math.pi / 6)
    cz = ibiqc_coherence(rz)
    cx = ibiqc_coherence(rx)
    assert cz == pytest.approx(COHERENCE_PI_SIXTH, abs=1e-12)
    assert abs(cz - cx) < 1e-12


def test_ibiqc_glauber_pure():
    rho = glauber_truncated(1.0, 2).to_density()
    assert ibiqc_coherence(rho) == pytest.approx(1.0, abs=1e-10)


def test_ibiqc_closed_form_sweep():
    for alpha in np.linspace(0.0, math.pi, 25):
        rz, rx = qubit_pair(alpha)
        want = closed_form(alpha)
        assert ibiqc_coherence(rz) == pytest.approx(want, abs=1e-9)
        assert ibiqc_coherence(rx) == pytest.approx(want, abs=1e-9)


def test_relative_entropy_self():
    rho = random_density(3, seed=2)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)


def test_relative_entropy_identity_with_ibiqc():
    # D(rho || I/d) = log2 d - S(rho) across random states
    rng = np.random.default_rng(17)
    dims = (2, 3, 4, 5, 6)
    for i in range(1000):
        d = dims[i % len(dims)]
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        lhs = relative_entropy(rho, maximally_mixed(d))
        rhs = ibiqc_coherence(rho)
        assert abs(lhs - rhs) < 1e-9


def test_relative_entropy_support_mismatch():
    p0 = make_density(np.diag([1.0, 0.0]))
    p1 = make_density(np.diag([0.0, 1.0]))
    assert relative_entropy(p0, p1) == math.inf


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        relative_entropy(maximally_mixed(2), maximally_mixed(3))


def test_inequality_chain():
    # c_re <= s_diag <= log2 d on random states
    rng = np.random.default_rng(23)
    for i in range(300):
        d = int(rng.integers(2, 7))
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        rep = coherence_report(rho)
        assert rep.c_re <= rep.s_diag + 1e-9
        assert rep.s_diag <= math.log2(d) + 1e-9


def test_ibiqc_basis_independent():
    rng = np.random.default_rng(29)
    for i in range(100):
        d = int(rng.integers(2, 6))
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        u = haar_unitary(d, seed=int(rng.integers(0, 2**31)))
        assert abs(ibiqc_coherence(apply_unitary(rho, u)) - ibiqc_coherence(rho)) < 1e-9


def test_rel_ent_coherence_basis_dependent_witness():
    rz, _ = qubit_pair(0.0)
    rotated = apply_unitary(rz, hadamard())
    assert abs(rel_ent_coherence(rotated) - rel_ent_coherence(rz)) > 0.5
    assert rel_ent_coherence(rz) == 0.0
    assert rel_ent_coherence(rotated) == pytest.approx(1.0, abs=1e-12)


def test_min_distance_rel_ent_matches_closed_form():
    rng = np.random.default_rng(31)
    for i in range(100):
        d = int(rng.integers(2, 5))
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        value, _ = min_distance_coherence(rho, "relative_entropy")
        assert abs(value - rel_ent_coherence(rho)) < 1e-6


def test_min_distance_rel_ent_diagonal_state():
    rz, _ = qubit_pair(math.pi / 6)
    value, argmin = min_distance_coherence(rz, "relative_entropy")
    assert value <= 1e-9
    assert np.allclose(argmin.probs, [0.75, 0.25], atol=1e-4)


def test_min_distance_trace_metric_qubit():
    _, rx0 = qubit_pair(0.0)
    value, argmin = min_distance_coherence(rx0, "trace")
    assert value == pytest.approx(0.5, abs=1e-6)
    assert np.allclose(argmin.probs, [0.5, 0.5], atol=1e-3)


def test_min_distance_trace_matches_grid():
    # brute-force 1e-4 simplex grid oracle, analytic 2x2 trace norm
    def grid_min(rho):
        p = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        a = rho.matrix[0, 0].real - p
        d = rho.matrix[1, 1].real - (1.0 - p)
        b = abs(rho.matrix[0, 1])
        disc = np.sqrt((a - d) ** 2 + 4 * b * b)
        lam1 = ((a + d) + disc) / 2
        lam2 = ((a + d) - disc) / 2
        return float(np.min(0.5 * (np.abs(lam1) + np.abs(lam2))))

    rng = np.random.default_rng(37)
    for i in range(20):
        rho = random_density(2, seed=int(rng.integers(0, 2**31)))
        value, _ = min_distance_coherence(rho, "trace")
        assert abs(value - grid_min(rho)) < 2e-4


def test_trace_objective_equals_trace_distance_bitwise():
    # the objective reuses one shifted copy of rho across calls, never rho's own matrix;
    # from d = 8 on, numpy sums the absolute eigenvalues pairwise
    rng = np.random.default_rng(41)
    for d in (2, 3, 4, 5, 8, 9):
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        before = rho.matrix.tobytes()
        fn = _diagonal_distance_fn(rho, "trace")
        for _ in range(5):
            probs = rng.dirichlet(np.ones(d))
            assert fn(probs) == trace_distance(rho.matrix, np.diag(probs))
        assert rho.matrix.tobytes() == before


def test_frobenius_objective_equals_norm_bitwise():
    # the search's reference builds on _diagonal_distance_fn itself, so only this pins the objective's bits
    rng = np.random.default_rng(47)
    for d in (2, 3, 4, 5, 8, 9):
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        before = rho.matrix.tobytes()
        fn = _diagonal_distance_fn(rho, "frobenius")
        for _ in range(5):
            probs = rng.dirichlet(np.ones(d))
            assert fn(probs) == float(np.linalg.norm(rho.matrix - np.diag(probs)))
        assert rho.matrix.tobytes() == before


def test_min_distance_trace_lies_between_its_bounds_above_qubits():
    # Compressing rho - delta to a 2x2 block cannot raise the trace norm, so
    # the largest off-diagonal modulus bounds the minimum from below; the
    # search starts at diag(rho), which bounds it from above.
    rng = np.random.default_rng(43)
    for d in (3, 4):
        for _ in range(10):
            rho = random_density(d, seed=int(rng.integers(0, 2**31)))
            dephased = np.diag(rho.matrix.diagonal())
            value, _ = min_distance_coherence(rho, "trace")
            assert np.abs(rho.matrix - dephased).max() - 1e-12 <= value
            assert value <= trace_distance(rho.matrix, dephased) + 1e-12


# States on which Nelder-Mead stagnates 3e-5 to 9e-5 above the minimum
# unless it restarts from its best point. Each reference is the best of 12
# scipy Powell starts (rho's diagonal, uniform and ten N(0, 1) points in
# the softmax coordinates, xtol 1e-12, ftol 1e-15), each polished by
# Nelder-Mead restarts (xatol 1e-12, fatol 1e-16) until the value stops
# falling.
TRACE_STALL_REFERENCES = {315: 0.45573647314727894, 969: 0.3881434176097516, 1030: 0.43599378017072804}


@pytest.mark.parametrize("seed", list(TRACE_STALL_REFERENCES))
def test_min_distance_trace_reaches_reference_on_stagnating_states(seed):
    value, _ = min_distance_coherence(random_density(4, seed=seed), "trace")
    assert value == pytest.approx(TRACE_STALL_REFERENCES[seed], abs=1e-8)


def test_min_distance_smooth_metrics_return_the_diagonal():
    # For relative entropy and Frobenius distance diag(rho) is the minimiser
    # and the search starts there.
    rng = np.random.default_rng(47)
    for i in range(30):
        rho = random_density(2 + i % 3, seed=int(rng.integers(0, 2**31)))
        offdiag = rho.matrix - np.diag(rho.matrix.diagonal())
        for metric, closed in (("relative_entropy", rel_ent_coherence(rho)),
                               ("frobenius", float(np.linalg.norm(offdiag)))):
            value, argmin = min_distance_coherence(rho, metric)
            assert np.abs(argmin.probs - rho.diagonal_probs()).max() <= 1e-8
            assert value == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("metric", ["relative_entropy", "trace", "frobenius"])
def test_min_distance_at_d1_is_zero_at_the_only_diagonal_state(metric):
    value, argmin = min_distance_coherence(maximally_mixed(1), metric)
    assert value == 0.0
    assert argmin.probs.tolist() == [1.0]


def test_min_distance_frobenius_qubit():
    _, rx0 = qubit_pair(0.0)
    value, _ = min_distance_coherence(rx0, "frobenius")
    assert value == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_min_distance_invalid_arguments():
    rho = maximally_mixed(2)
    with pytest.raises(InvalidArgumentsError):
        min_distance_coherence(rho, "fidelity")
    with pytest.raises(InvalidArgumentsError):
        min_distance_coherence(rho, "trace", "pure_states")


@pytest.mark.parametrize("budget", [True, -5, math.inf, math.nan, 1, 2.0, "100"])
def test_min_distance_budget_must_be_an_integer_of_at_least_2(budget):
    # inf and nan used to run, and return a value that is not the minimum
    with pytest.raises(InvalidArgumentsError):
        min_distance_coherence(random_density(3, seed=1), "trace", budget=budget)


def test_min_distance_budget_exhaustion():
    rho = random_density(3, seed=19)
    with pytest.raises(OptimizerFailure):
        min_distance_coherence(rho, "trace", budget=4)


def _masked_relative_entropy_fn(rho):
    """The relative-entropy objective that masks its arguments on every call."""
    neg_s_rho = -von_neumann_entropy(rho)
    diag = rho.diagonal_probs()

    def fn(probs):
        tiny = probs < SUPPORT_EIGENVALUE_TOL
        if np.any(diag[tiny] > SUPPORT_WEIGHT_TOL):
            return math.inf
        keep = ~tiny
        return max(0.0, neg_s_rho - float((diag[keep] * np.log2(probs[keep])).sum()))

    return fn


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def _always_restart_search(rho, metric, budget=OPTIMIZER_BUDGET):
    """Reference search that always restarts: scipy's Nelder-Mead from rho's
    diagonal, then once more from the best point even when that is where the
    first run started; the softmax is numpy's on arrays. Returns (converged,
    value, probs)."""
    from scipy import optimize

    distance = _masked_relative_entropy_fn(rho) if metric == "relative_entropy" else _diagonal_distance_fn(rho, metric)

    def objective(y):
        return distance(_softmax(np.concatenate(([0.0], y))))

    diag_start = np.clip(rho.diagonal_probs(), 1e-12, None)
    diag_start = diag_start / diag_start.sum()
    best = None
    converged = False
    for _ in range(2):
        x0 = np.log(diag_start[1:] / diag_start[0]) if best is None else best.x
        result = optimize.minimize(objective, x0, method="Nelder-Mead",
                                   options={"maxfev": budget // 2, "xatol": 1e-6, "fatol": 1e-13})
        converged = converged or bool(result.success)
        if best is None or result.fun < best.fun:
            best = result
    return converged, float(best.fun), _softmax(np.concatenate(([0.0], best.x)))


# from d = 8 on, numpy sums the softmax's exponentials pairwise
@pytest.mark.parametrize("d", [2, 3, 4, 8, 9])
def test_min_distance_equals_always_restart_reference_bitwise(d):
    rng = np.random.default_rng(53 + d)
    for _ in range(10):
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        for metric in ("relative_entropy", "trace", "frobenius"):
            converged, ref_value, ref_probs = _always_restart_search(rho, metric)
            value, argmin = min_distance_coherence(rho, metric)
            assert converged
            assert value == ref_value, metric
            assert np.array_equal(argmin.probs, ref_probs), metric


@pytest.mark.parametrize("metric", ["relative_entropy", "trace"])
def test_min_distance_budget_failures_equal_always_restart_reference(metric):
    rho = random_density(3, seed=19)
    for budget in range(2, 41):
        converged, ref_value, ref_probs = _always_restart_search(rho, metric, budget)
        if not converged:
            with pytest.raises(OptimizerFailure):
                min_distance_coherence(rho, metric, budget=budget)
            continue
        value, argmin = min_distance_coherence(rho, metric, budget=budget)
        assert value == ref_value and np.array_equal(argmin.probs, ref_probs), budget


@st.composite
def nelder_mead_cases(draw):
    """(kind, x0, a, b, maxfev): an objective of kind quadratic |Ax - b|^2, abs sum|Ax - b|,
    plateau (abs rounded down to a multiple of 1/8, so values tie) or holed (abs, but NaN
    where the last entry of Ax - b is positive) on 1 to 10 coordinates (numpy sums 8 or more
    entries pairwise), a start with some coordinates exactly 0 and a budget of 1 to 200
    evaluations."""
    n = draw(st.integers(1, 10))
    entry = st.floats(-2.0, 2.0)
    x0 = draw(st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=n, max_size=n))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    b = draw(st.lists(entry, min_size=n, max_size=n))
    return draw(st.sampled_from(["quadratic", "abs", "plateau", "holed"])), x0, a, b, draw(st.integers(1, 200))


# the budget runs out in the initial simplex, an expansion, a contraction and a shrink, an
# outside contraction ties with its reflection, a centroid coordinate sums -0.0s, which
# np.add.reduce starts from +0.0, and the simplex shrinks onto two tied values and a NaN,
# where numpy's max of the value spread is NaN and the run must not stop
@settings(max_examples=100, deadline=None)
@given(case=nelder_mead_cases())
@example(case=("abs", [0.0, 0.0, 1.24, 1.61], [[-1.7, -1.6, 1.4, -0.6], [0.3, 0.0, 0.5, -1.7],
                                               [1.1, -1.5, 0.7, -0.4], [-0.0, 0.7, -0.5, -1.8]],
               [1.9, 0.1, 1.0, 0.1], 3))
@example(case=("plateau", [-0.42, 2.86], [[1.1, -0.8], [-0.9, 1.5]], [1.5, 0.0], 12))
@example(case=("abs", [1.11, 1.13], [[-0.4, -1.5], [0.9, 0.1]], [-0.8, -0.1], 200))
@example(case=("plateau", [0.0, 1.52], [[-0.2, 0.4], [-1.5, 0.9]], [-0.9, -1.2], 71))
@example(case=("plateau", [0.0, 1.46, 0.0, -2.62], [[0.9, -1.6, -0.4, 1.5], [-0.1, 1.7, 1.1, 1.7],
                                                   [-1.5, -1.7, -1.7, 1.5], [0.5, -0.0, -1.3, 0.7]],
               [-0.7, 0.8, -0.2, 0.0], 193))
@example(case=("quadratic", [0.0, 0.0, -5e-324], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
               [0.0, 0.0, 1.0], 57))
@example(case=("holed", [0.0, 0.0], [[0.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 200))
def test_property_nelder_mead_equals_scipy_bitwise(case):
    from scipy import optimize

    kind, x0, a, b, maxfev = case
    a, b = np.array(a), np.array(b)
    calls = []

    def fn(x):
        r = a @ x - b
        if kind == "quadratic":
            return float(r @ r)
        value = float(np.abs(r).sum())
        if kind == "holed" and r[-1] > 0:
            return math.nan
        return math.floor(8.0 * value) / 8.0 if kind == "plateau" else value

    def counted(x):
        calls.append(None)
        return fn(x)

    x, value, converged = measures._nelder_mead(counted, np.array(x0), maxfev, 1e-6, 1e-13)
    ref = optimize.minimize(fn, np.array(x0), method="Nelder-Mead",
                            options={"maxfev": maxfev, "xatol": 1e-6, "fatol": 1e-13})
    assert (x.tobytes(), float(value).hex(), converged, len(calls)) == (
        ref.x.tobytes(), float(ref.fun).hex(), ref.success, ref.nfev)


def test_relative_entropy_objective_equals_masked_form_bitwise():
    rng = np.random.default_rng(59)
    for d in (2, 3, 4):
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        fn, masked = _diagonal_distance_fn(rho, "relative_entropy"), _masked_relative_entropy_fn(rho)
        for tiny in (None, 0.0, 1e-13):
            probs = rng.dirichlet(np.ones(d))
            if tiny is not None:
                probs[-1] = tiny
            assert fn(probs) == masked(probs), (d, tiny)
    pure = PureState(np.full(2, 2 ** -0.5)).to_density()  # rho weighs both entries, probs vanishes on one
    probs = np.array([1.0, 0.0])
    assert _diagonal_distance_fn(pure, "relative_entropy")(probs) == math.inf == _masked_relative_entropy_fn(pure)(probs)
    # rho has no weight on its last entry, so a probability that vanishes there is masked out, not infinite
    for d in (2, 3, 4):
        m = np.zeros((d, d), dtype=complex)
        m[:-1, :-1] = random_density(d - 1, seed=int(rng.integers(0, 2**31))).matrix
        rho = make_density(m)
        fn, masked = _diagonal_distance_fn(rho, "relative_entropy"), _masked_relative_entropy_fn(rho)
        for tiny in (0.0, 1e-13):
            probs = np.append(rng.dirichlet(np.ones(d - 1)) * (1.0 - tiny), tiny)
            value = fn(probs)
            assert value == masked(probs), (d, tiny)
            assert value == pytest.approx(relative_entropy(rho, DiagonalState(probs).to_density()), abs=1e-12)


def test_min_distance_restarts_only_after_a_moving_run(monkeypatch):
    runs = []
    nelder_mead = measures._nelder_mead

    def recording(fn, x0, *args):
        result = nelder_mead(fn, x0, *args)
        runs.append((np.array(x0), result[0]))
        return result

    monkeypatch.setattr(measures, "_nelder_mead", recording)
    for d in (2, 3, 4):
        rho = random_density(d, seed=61 + d)
        for metric in ("relative_entropy", "frobenius"):
            runs.clear()
            min_distance_coherence(rho, metric)
            assert len(runs) == 1, (d, metric)
            assert np.array_equal(*runs[0])
    runs.clear()
    min_distance_coherence(random_density(3, seed=7), "trace")
    assert len(runs) == 2
    assert not np.array_equal(*runs[0])
    assert np.array_equal(runs[1][0], runs[0][1])


@pytest.mark.parametrize("failed", [{0}, {1}, {0, 1}], ids=["first", "second", "both"])
def test_min_distance_fails_only_when_neither_run_converges(monkeypatch, failed):
    runs = []
    nelder_mead = measures._nelder_mead

    def failing(fn, x0, *args):
        x, value, converged = nelder_mead(fn, x0, *args)
        result = (x, value, converged and len(runs) not in failed)
        runs.append(result)
        return result

    monkeypatch.setattr(measures, "_nelder_mead", failing)
    with pytest.raises(OptimizerFailure) if failed == {0, 1} else contextlib.nullcontext():
        min_distance_coherence(random_density(3, seed=7), "trace")
    assert len(runs) == 2


def test_ibiqc_zero_implies_maximally_mixed():
    # the measure's zero singles out I/d; perturbed states must not sneak under
    rng = np.random.default_rng(41)
    for d in (2, 3, 4):
        delta = maximally_mixed(d)
        assert ibiqc_coherence(delta) == 0.0
        assert trace_distance(delta.matrix, maximally_mixed(d).matrix) < 1e-6
        for _ in range(20):
            sigma = random_density(d, seed=int(rng.integers(0, 2**31)))
            eps = 1e-8
            mix = make_density((1 - eps) * delta.matrix + eps * sigma.matrix)
            if ibiqc_coherence(mix) < 1e-9:
                assert trace_distance(mix.matrix, delta.matrix) < 1e-6


def test_coherence_report_fields():
    rz, rx = qubit_pair(math.pi / 6)
    rep = coherence_report(rx)
    assert rep.dim == 2
    assert rep.basis_label == "computational"
    assert rep.s_rho == pytest.approx(ENTROPY_PI_SIXTH, abs=1e-12)
    assert rep.c_ibiqc == pytest.approx(COHERENCE_PI_SIXTH, abs=1e-12)
    assert rep.c_re == pytest.approx(COHERENCE_PI_SIXTH, abs=1e-9)
    assert rep.c_l1 == pytest.approx(0.5, abs=1e-12)
    d = rep.to_dict()
    assert set(d) == {"dim", "s_rho", "s_diag", "c_l1", "c_re", "c_ibiqc", "basis_label"}


def test_coherence_report_bounds():
    rng = np.random.default_rng(43)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        rep = coherence_report(random_density(d, seed=int(rng.integers(0, 2**31))))
        assert 0.0 <= rep.s_rho <= math.log2(d) + 1e-9
        assert 0.0 <= rep.c_re <= rep.s_diag + 1e-9
        assert 0.0 <= rep.c_ibiqc <= math.log2(d) + 1e-9
        assert rep.c_l1 >= 0.0


@st.composite
def density_matrices(draw, max_dim=5):
    """States of every rank: G G^dagger / tr for a d x r complex Gaussian G."""
    d = draw(st.integers(1, max_dim), label="d")
    r = draw(st.integers(1, d), label="rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return make_density(m / m.trace().real)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_property_stacked_kernels_match_per_state_functions(d, n, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([random_density(d, rng).matrix for _ in range(n)])
    stack[0] = np.diag(rng.dirichlet(np.ones(d)))
    for kernel, fn in ((c_l1, l1_coherence), (c_re, rel_ent_coherence), (c_ibiqc, ibiqc_coherence),
                       (spectral_entropy, von_neumann_entropy)):
        values = kernel(stack)
        assert values.shape == (n,)
        for value, m in zip(values, stack):
            assert value == pytest.approx(fn(DensityMatrix(m)), abs=1e-12)
    probs = rng.dirichlet(np.ones(d), size=(2, n))
    # a zero entry, with the last entry keeping the vector's sum at 1 (at d = 1 it is the same entry)
    probs[0, 0, 0] = 0.0
    probs[0, 0, -1] = 1.0 - probs[0, 0, :-1].sum()
    assert entropy_bits(probs).shape == (2, n)
    for value, p in zip(entropy_bits(probs).ravel(), probs.reshape(-1, d)):
        assert value == pytest.approx(shannon_entropy(p), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(rho=density_matrices(), seed=st.integers(0, 2**32 - 1))
def test_property_ibiqc_unitary_invariant(rho, seed):
    u = haar_unitary(rho.dim, seed)
    assert ibiqc_coherence(apply_unitary(rho, u)) == pytest.approx(ibiqc_coherence(rho), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(rho=density_matrices())
def test_property_rel_ent_is_distance_to_dephased(rho):
    probs = rho.diagonal_probs()
    dephased = DiagonalState(probs / probs.sum()).to_density()
    assert rel_ent_coherence(rho) == pytest.approx(relative_entropy(rho, dephased), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(rho=density_matrices())
def test_property_ibiqc_is_distance_to_maximally_mixed(rho):
    assert ibiqc_coherence(rho) == pytest.approx(relative_entropy(rho, maximally_mixed(rho.dim)), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(rho=density_matrices(max_dim=8))
def test_property_coherence_report_equals_the_scalar_measures(rho):
    rep = coherence_report(rho)
    assert (rep.dim, rep.s_rho, rep.s_diag, rep.c_l1, rep.c_re, rep.c_ibiqc) == (
        rho.dim, von_neumann_entropy(rho), shannon_entropy(rho.diagonal_probs()), l1_coherence(rho),
        rel_ent_coherence(rho), ibiqc_coherence(rho))
