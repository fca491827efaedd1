import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohkit.errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
)
from cohkit.linalg import (
    frobenius_distance,
    hermitian_eig,
    hermitian_eigvals,
    hermiticity_defect,
    trace_distance,
)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def test_eig_identity():
    spec = hermitian_eig(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)


def test_eig_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    spec = hermitian_eig(sx)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eig_diagonal_sorted_ascending():
    spec = hermitian_eig(np.diag([0.75, 0.25]))
    assert np.allclose(spec.eigenvalues, [0.25, 0.75], atol=1e-14)


def test_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        hermitian_eig(m)


def test_eig_lapack_failure_is_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergenceError):
        hermitian_eig(np.eye(2))
    with pytest.raises(NoConvergenceError):
        hermitian_eigvals(np.stack([np.eye(2), np.eye(2)]))


def test_eigvals_stack_matches_eig_and_gates_every_matrix():
    rng = np.random.default_rng(13)
    stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
    values = hermitian_eigvals(stack)
    assert values.shape == (5, 4)
    for row, m in zip(values, stack):
        assert np.max(np.abs(row - hermitian_eig(m).eigenvalues)) < 1e-12
    stack[3, 0, 1] += 1e-6
    with pytest.raises(NotHermitianError):
        hermitian_eigvals(stack)
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(stack)


def test_eig_eigenvectors_unitary():
    rng = np.random.default_rng(10)
    for d in (2, 3, 5, 8):
        m = random_hermitian(rng, d)
        spec = hermitian_eig(m)
        v = spec.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) < 1e-10


def test_eig_matches_numpy_reference():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 6):
        m = random_hermitian(rng, d)
        spec = hermitian_eig(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(spec.eigenvalues - ref)) < 1e-10


def test_eig_deterministic():
    rng = np.random.default_rng(12)
    m = random_hermitian(rng, 5)
    a = hermitian_eig(m)
    b = hermitian_eig(m)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_reconstruction_sweep():
    # V diag(lam) V+ must reproduce the input across dims 2..8
    rng = np.random.default_rng(42)
    dims = (2, 3, 4, 5, 6, 7, 8)
    for i in range(1000):
        d = dims[i % len(dims)]
        m = random_hermitian(rng, d)
        spec = hermitian_eig(m)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - m) < 1e-9
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


def test_eigenvalues_invariant_under_unitary_similarity():
    from cohkit.states import haar_unitary

    rng = np.random.default_rng(7)
    for i in range(50):
        d = int(rng.integers(2, 7))
        m = random_hermitian(rng, d)
        u = haar_unitary(d, seed=int(rng.integers(0, 2**31)))
        a = hermitian_eig(m).eigenvalues
        b = hermitian_eig(u @ m @ u.conj().T).eigenvalues
        assert np.max(np.abs(a - b)) < 1e-9


def test_hermiticity_defect():
    assert hermiticity_defect(np.eye(2)) == 0.0
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    assert hermiticity_defect(m) == pytest.approx(0.5)


def test_trace_distance_examples():
    half = np.eye(2) / 2
    assert trace_distance(half, half) == 0.0
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert trace_distance(p0, p1) == pytest.approx(1.0, abs=1e-12)
    rz = np.diag([0.75, 0.25])
    assert trace_distance(rz, half) == pytest.approx(0.25, abs=1e-12)


def test_trace_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        trace_distance(np.eye(2), np.eye(3))


def test_trace_distance_non_hermitian_difference():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        trace_distance(a, np.zeros((2, 2)))


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        c = random_hermitian(rng, d)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9


def test_trace_distance_symmetry():
    rng = np.random.default_rng(6)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)


def test_frobenius_distance_examples():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert frobenius_distance(a, a) == 0.0
    assert frobenius_distance(a, b) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    rx0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert frobenius_distance(rx0, np.eye(2) / 2) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_frobenius_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        frobenius_distance(np.eye(2), np.eye(4))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(2, 8), scale=st.floats(1e-3, 1e6))
def test_property_eig_matches_reference(seed, d, scale):
    m = scale * random_hermitian(np.random.default_rng(seed), d)
    spec = hermitian_eig(m)
    assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(m))) < 1e-9 * max(1.0, scale)
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - m) < 1e-9 * max(1.0, scale)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(2, 6))
def test_property_trace_distance_metric_axioms(seed, d):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, d)
    b = random_hermitian(rng, d)
    assert trace_distance(a, b) >= 0.0
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
    assert trace_distance(a, a) == 0.0
