"""Dense complex Hermitian linear algebra.

Eigendecomposition is LAPACK's Hermitian solver through numpy.linalg.eigh,
which is deterministic for identical input on one machine and accurate to
machine precision for the small dense matrices this package targets.
hermitian_eig_stack decomposes a whole stack of matrices at once and
hermitian_eig is its one-matrix call; hermitian_eigvals is the
eigenvalue-only form (numpy.linalg.eigvalsh). Every function here that
takes a stack works on arrays of shape (..., d, d).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, NotHermitianError, require_array

HERMITIAN_TOL = 1e-10


def as_complex_stack(m) -> np.ndarray:
    """Coerce, through require_array, to a complex stack of square matrices, shape (..., d, d) with d >= 1."""
    a = require_array("matrix", m, complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatchError(
            f"expected square matrices of dimension >= 1, got shape {a.shape}"
        )
    return a


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex array of dimension >= 1."""
    a = as_complex_stack(m)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected one square matrix, got shape {a.shape}")
    return a


def read_only_copy(a: np.ndarray) -> np.ndarray:
    """A copy of a that raises ValueError on an in-place write."""
    a = a.copy()
    a.flags.writeable = False
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitian_part(m) -> np.ndarray:
    """(m + m^dagger) / 2 for each matrix in a stack."""
    return 0.5 * (m + adjoint(m))


def require_hermitian(m) -> np.ndarray:
    """Coerce m, a matrix or a stack of them, and check that every one is
    Hermitian: no entry deviates from its conjugate transpose by more than
    HERMITIAN_TOL (a non-finite entry always fails); NotHermitianError otherwise."""
    a = as_complex_stack(m)
    defect = float(np.abs(a - adjoint(a)).max(initial=0.0)) if np.isfinite(a).all() else math.inf
    if not (defect <= HERMITIAN_TOL):
        raise NotHermitianError(
            f"hermiticity defect {defect:.3e} exceeds tolerance {HERMITIAN_TOL:.1e}"
        )
    return a


def gram_defect(ops) -> float:
    """Frobenius distance of sum_k A_k^dagger A_k from the identity.

    ops has shape (..., k, d, d), one set of k operators per leading index.
    The sum is V^dagger V for the set stacked into one (k d, d) matrix V, so a
    zero operator, such as a padded slot, adds nothing. The result is the
    largest distance over the sets (0 for none), and inf when an entry is not
    finite, so a tolerance check on it fails closed without a numpy warning.
    A unitary is a set of one operator; unitality is the defect of the adjoints.
    """
    a = np.asarray(ops, dtype=complex)
    if not np.isfinite(a).all():
        return math.inf
    k, d = a.shape[-3], a.shape[-1]
    # k * d, not -1: reshape cannot infer an axis of an empty stack
    v = a.reshape(a.shape[:-3] + (k * d, d))
    m = adjoint(v) @ v - np.eye(d)
    return float(np.sqrt((m.real**2 + m.imag**2).sum(axis=(-2, -1)).max(initial=0.0)))


def hermitian_eig(m):
    """Eigenvalues and eigenvectors of one Hermitian matrix; the
    one-matrix call of hermitian_eig_stack, with the same gate and errors."""
    return hermitian_eig_stack(as_complex_matrix(m))


def _lapack_hermitian(solver, m):
    """solver (numpy's eigh or eigvalsh) on the Hermitian part of each matrix
    of m, after the require_hermitian gate; a LinAlgError from LAPACK
    raises NoConvergenceError."""
    a = require_hermitian(m)
    # eigh and eigvalsh read one triangle only; the average makes both count.
    try:
        return solver(hermitian_part(a))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"Hermitian eigendecomposition failed: {exc}") from exc


def hermitian_eig_stack(m):
    """numpy's EighResult (eigenvalues ascending, eigenvectors in columns) of a
    Hermitian matrix, or of each matrix in a (..., d, d) stack.

    Raises NotHermitianError if any matrix fails the Hermiticity check at
    HERMITIAN_TOL (non-finite entries always fail it), and NoConvergenceError
    if LAPACK reports that the decomposition did not converge.
    """
    return _lapack_hermitian(np.linalg.eigh, m)


def hermitian_eigvals(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix in a
    (..., d, d) stack, without eigenvectors.

    The same gate and errors as hermitian_eig: NotHermitianError if any
    matrix fails the Hermiticity check at HERMITIAN_TOL (non-finite entries
    always fail it), NoConvergenceError if LAPACK reports no convergence.
    """
    return _lapack_hermitian(np.linalg.eigvalsh, m)


def trace_distance(a, b) -> float:
    """Half the sum of absolute eigenvalues of (a - b).

    Requires a - b to be Hermitian within HERMITIAN_TOL.
    """
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return 0.5 * float(np.abs(hermitian_eigvals(am - bm)).sum())
