import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohkit.errors import DimensionMismatchError, InvalidArgumentsError, OptimizerFailure
from cohkit.linalg import trace_distance
from cohkit.measures import (
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
    apply_unitary,
    glauber_truncated,
    haar_unitary,
    hadamard,
    make_density,
    maximally_coherent,
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
    psi = maximally_coherent(4).to_density()
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
    psi3 = maximally_coherent(3).to_density()
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
        psi = maximally_coherent(d).to_density()
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
        value, _ = min_distance_coherence(rho, "relative_entropy", "all_diagonal")
        assert abs(value - rel_ent_coherence(rho)) < 1e-6


def test_min_distance_rel_ent_diagonal_state():
    rz, _ = qubit_pair(math.pi / 6)
    value, argmin = min_distance_coherence(rz, "relative_entropy", "all_diagonal")
    assert value <= 1e-9
    assert np.allclose(argmin.probs, [0.75, 0.25], atol=1e-4)


def test_min_distance_delta0_only():
    rho = random_density(4, seed=13)
    value, argmin = min_distance_coherence(rho, "relative_entropy", "delta0_only")
    assert value == pytest.approx(ibiqc_coherence(rho), abs=1e-12)
    assert np.allclose(argmin.probs, np.full(4, 0.25), atol=1e-15)


def test_min_distance_trace_metric_qubit():
    _, rx0 = qubit_pair(0.0)
    value, argmin = min_distance_coherence(rx0, "trace", "all_diagonal")
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
        value, _ = min_distance_coherence(rho, "trace", "all_diagonal")
        assert abs(value - grid_min(rho)) < 2e-4


def test_min_distance_frobenius_qubit():
    _, rx0 = qubit_pair(0.0)
    value, _ = min_distance_coherence(rx0, "frobenius", "all_diagonal")
    assert value == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_min_distance_invalid_arguments():
    rho = maximally_mixed(2)
    with pytest.raises(InvalidArgumentsError):
        min_distance_coherence(rho, "fidelity", "all_diagonal")
    with pytest.raises(InvalidArgumentsError):
        min_distance_coherence(rho, "trace", "pure_states")


def test_min_distance_budget_exhaustion():
    rho = random_density(3, seed=19)
    with pytest.raises(OptimizerFailure):
        min_distance_coherence(rho, "trace", "all_diagonal", budget=4)


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
    rep = coherence_report(rx, basis_label="hadamard-rotated")
    assert rep.dim == 2
    assert rep.basis_label == "hadamard-rotated"
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
    probs[0, 0, 0] = 0.0
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
