"""Dense complex Hermitian linear algebra.

Eigendecomposition is LAPACK's Hermitian solver through numpy.linalg.eigh,
which is deterministic for identical input on one machine and accurate to
machine precision for the small dense matrices this package targets.
hermitian_eigvals is the eigenvalue-only form for stacks of matrices
(numpy.linalg.eigvalsh); every function here that takes a stack works on
arrays of shape (..., d, d).
"""

from __future__ import annotations

import math
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


def as_complex_stack(m) -> np.ndarray:
    """Coerce to a complex stack of square matrices, shape (..., d, d) with d >= 1."""
    a = np.asarray(m, dtype=complex)
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


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitian_part(m) -> np.ndarray:
    """(m + m^dagger) / 2 for each matrix in a stack."""
    return 0.5 * (m + adjoint(m))


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of m, or of any matrix in a stack, from
    its conjugate transpose; inf when an entry is not finite."""
    a = np.asarray(m)
    if not np.isfinite(a).all():
        return math.inf
    return float(np.abs(a - adjoint(a)).max())


def require_hermitian(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Coerce m, a matrix or a stack of them, and check every one is
    Hermitian within tol; raises NotHermitianError otherwise."""
    a = as_complex_stack(m)
    defect = hermiticity_defect(a)
    if not (defect <= tol):
        raise NotHermitianError(
            f"hermiticity defect {defect:.3e} exceeds tolerance {tol:.1e}"
        )
    return a


def gram_defect(ops) -> float:
    """Frobenius distance of sum_k A_k^dagger A_k from the identity.

    ops has shape (..., k, d, d), one set of k operators per leading index;
    the result is the largest distance over the sets, and inf when an entry
    is not finite, so a tolerance check on it fails closed without a numpy
    warning. A unitary is a set of one operator; unitality is the defect of
    the adjoints.
    """
    a = np.asarray(ops, dtype=complex)
    if not np.isfinite(a).all():
        return math.inf
    gram = (adjoint(a) @ a).sum(axis=-3) - np.eye(a.shape[-1])
    return float(np.sqrt((gram.real**2 + gram.imag**2).sum(axis=(-2, -1)).max()))


def hermitian_eig(m, tol: float = HERMITIAN_TOL) -> Spectrum:
    """Eigenvalues and eigenvectors of a Hermitian matrix.

    Raises NotHermitianError if the input fails the Hermiticity check at
    tol (non-finite entries always fail it), and NoConvergenceError if
    LAPACK reports that the decomposition did not converge.
    """
    a = require_hermitian(as_complex_matrix(m), tol)
    # eigh reads one triangle only; the average makes both count.
    try:
        eigenvalues, vecs = np.linalg.eigh(hermitian_part(a))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"Hermitian eigendecomposition failed: {exc}") from exc
    return Spectrum(eigenvalues, vecs)


def hermitian_eigvals(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix in a
    (..., d, d) stack, without eigenvectors.

    The same gate and errors as hermitian_eig: NotHermitianError if any
    matrix fails the Hermiticity check at tol (non-finite entries always
    fail it), NoConvergenceError if LAPACK reports no convergence.
    """
    a = require_hermitian(m, tol)
    try:
        return np.linalg.eigvalsh(hermitian_part(a))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"Hermitian eigenvalue solve failed: {exc}") from exc


def trace_distance(a, b, tol: float = HERMITIAN_TOL) -> float:
    """Half the sum of absolute eigenvalues of (a - b).

    Requires a - b to be Hermitian within tol.
    """
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return 0.5 * float(np.abs(hermitian_eigvals(am - bm, tol)).sum())


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the entrywise difference."""
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return float(np.linalg.norm(am - bm))
