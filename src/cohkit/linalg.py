"""Dense complex Hermitian linear algebra.

Eigendecomposition is LAPACK's Hermitian solver through numpy.linalg.eigh,
which is deterministic for identical input on one machine and accurate to
machine precision for the small dense matrices this package targets.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, NotHermitianError

HERMITIAN_TOL = 1e-10


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues: real, ascending.
    eigenvectors: unitary matrix whose column i pairs with eigenvalues[i].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex array of dimension >= 1."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(
            f"expected a square matrix of dimension >= 1, got shape {a.shape}"
        )
    return a


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    a = np.asarray(m)
    return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = as_complex_matrix(m)
    defect = hermiticity_defect(a)
    if not (defect <= tol):
        raise NotHermitianError(
            f"hermiticity defect {defect:.3e} exceeds tolerance {tol:.1e}"
        )
    return a


def hermitian_eig(m, tol: float = HERMITIAN_TOL) -> Spectrum:
    """Eigenvalues and eigenvectors of a Hermitian matrix.

    Raises NotHermitianError if the input fails the Hermiticity check at
    tol (non-finite entries always fail it), and NoConvergenceError if
    LAPACK reports that the decomposition did not converge.
    """
    a = require_hermitian(m, tol)
    # eigh reads one triangle only; the average makes both count.
    a = 0.5 * (a + a.conj().T)
    try:
        eigenvalues, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"Hermitian eigendecomposition failed: {exc}") from exc
    return Spectrum(eigenvalues, vecs)


def trace_distance(a, b, tol: float = HERMITIAN_TOL) -> float:
    """Half the sum of absolute eigenvalues of (a - b).

    Requires a - b to be Hermitian within tol.
    """
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch: {am.shape} vs {bm.shape}")
    eigenvalues, _ = hermitian_eig(am - bm, tol)
    return 0.5 * float(np.abs(eigenvalues).sum())


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the entrywise difference."""
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return float(np.linalg.norm(am - bm))
