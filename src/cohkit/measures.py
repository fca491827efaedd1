"""Coherence quantifiers for density matrices.

Three measures are provided, all in bits (base-2 logs):

  l1_coherence       sum of off-diagonal absolute values; depends on the
                     matrix basis.
  rel_ent_coherence  S(rho_diag) - S(rho); depends on the matrix basis.
  ibiqc_coherence    log2(d) - S(rho); basis independent, and equal to
                     the relative entropy from rho to the maximally
                     mixed state.

Each is a float-valued wrapper of a stacked kernel (c_l1, c_re, c_ibiqc)
that evaluates a whole (..., d, d) array of states at once; the audit
harness calls the kernels directly.

min_distance_coherence recovers distance-based values numerically by
searching over diagonal states, which cross-checks the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InvalidArgumentsError, OptimizerFailure
from .states import DensityMatrix, DiagonalState

SUPPORT_EIGENVALUE_TOL = 1e-12
SUPPORT_WEIGHT_TOL = 1e-10
OPTIMIZER_BUDGET = 100_000

METRICS = ("relative_entropy", "trace", "frobenius")
SEARCH_SETS = ("all_diagonal", "delta0_only")


def entropy_bits(probs) -> np.ndarray:
    """Base-2 entropy of each probability vector along the last axis.

    Values are clamped at zero and sorted ascending before summation, with
    the 0*log(0) = 0 convention, so two vectors holding the same multiset
    of probabilities give bitwise-identical results whatever their order.
    """
    p = np.asarray(probs, dtype=float).clip(0.0)
    p.sort(axis=-1)
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def spectral_entropy(m) -> np.ndarray:
    """Von Neumann entropy in bits of each Hermitian matrix in a (..., d, d) stack."""
    return entropy_bits(linalg.hermitian_eigvals(m))


def c_l1(m) -> np.ndarray:
    """Sum of absolute off-diagonal entries of each matrix in a (..., d, d) stack."""
    mags = np.abs(m)
    return mags.sum(axis=(-2, -1)) - np.trace(mags, axis1=-2, axis2=-1)


def c_re(m) -> np.ndarray:
    """S(diag) - S(rho), clamped at zero, of each state in a (..., d, d) stack."""
    diag = np.clip(np.diagonal(m, axis1=-2, axis2=-1).real, 0.0, None)
    return np.maximum(0.0, entropy_bits(diag) - spectral_entropy(m))


def c_ibiqc(m) -> np.ndarray:
    """log2(d) - S(rho), clamped at zero, of each state in a (..., d, d) stack."""
    return np.maximum(0.0, math.log2(np.shape(m)[-1]) - spectral_entropy(m))


def shannon_entropy(probs) -> float:
    """Base-2 entropy of one probability vector; see entropy_bits."""
    return float(entropy_bits(probs))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the eigenvalue distribution, in bits."""
    return float(spectral_entropy(rho.matrix))


def l1_coherence(rho: DensityMatrix) -> float:
    """Sum of absolute off-diagonal entries."""
    return float(c_l1(rho.matrix))


def rel_ent_coherence(rho: DensityMatrix) -> float:
    """Entropy gained by erasing off-diagonal entries: S(rho_diag) - S(rho)."""
    return float(c_re(rho.matrix))


def ibiqc_coherence(rho: DensityMatrix) -> float:
    """Distance in bits from the maximally mixed state: log2(d) - S(rho).

    Basis independent; zero exactly when rho is maximally mixed, and
    log2(d) for any pure state.
    """
    return float(c_ibiqc(rho.matrix))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy D(rho||sigma) in bits.

    Returns +inf when sigma lacks support where rho has weight: some
    sigma eigenvalue below 1e-12 carries rho-weight above 1e-10.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"state dimensions differ: {rho.dim} vs {sigma.dim}")
    eigenvalues, vecs = linalg.hermitian_eig(sigma.matrix)
    weights = np.clip(np.real(np.diag(vecs.conj().T @ rho.matrix @ vecs)), 0.0, None)
    small = eigenvalues < SUPPORT_EIGENVALUE_TOL
    if np.any(weights[small] > SUPPORT_WEIGHT_TOL):
        return math.inf
    cross = float((weights[~small] * np.log2(eigenvalues[~small])).sum())
    return max(0.0, -von_neumann_entropy(rho) - cross)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def _diagonal_distance_fn(rho: DensityMatrix, metric: str):
    """Callable probs -> distance(rho, diag(probs)) for one metric."""
    m = rho.matrix
    if metric == "relative_entropy":
        # For diagonal sigma, tr[rho log2 sigma] reduces to the diagonal
        # inner product, so only entropies of rho itself need a solver.
        neg_s_rho = -von_neumann_entropy(rho)
        diag = rho.diagonal_probs()

        def fn(probs: np.ndarray) -> float:
            tiny = probs < SUPPORT_EIGENVALUE_TOL
            if np.any(diag[tiny] > SUPPORT_WEIGHT_TOL):
                return math.inf
            keep = ~tiny
            return max(0.0, neg_s_rho - float((diag[keep] * np.log2(probs[keep])).sum()))

    elif metric == "trace":

        def fn(probs: np.ndarray) -> float:
            return linalg.trace_distance(m, np.diag(probs))

    elif metric == "frobenius":

        def fn(probs: np.ndarray) -> float:
            return float(np.linalg.norm(m - np.diag(probs).astype(complex)))

    else:
        raise InvalidArgumentsError(f"unknown metric {metric!r}; expected one of {METRICS}")
    return fn


def min_distance_coherence(
    rho: DensityMatrix,
    metric: str = "relative_entropy",
    search_set: str = "all_diagonal",
    budget: int = OPTIMIZER_BUDGET,
) -> tuple[float, DiagonalState]:
    """Minimize distance(rho, delta) over diagonal states delta.

    search_set "delta0_only" evaluates the single maximally mixed point;
    "all_diagonal" runs a derivative-free Nelder-Mead search over softmax
    coordinates (the first coordinate is pinned to remove the shift
    gauge), restarted from rho's diagonal and from uniform. Raises
    OptimizerFailure if no restart converges within the evaluation budget.
    """
    from scipy import optimize  # deferred: scipy costs most of the package import

    if search_set not in SEARCH_SETS:
        raise InvalidArgumentsError(f"unknown search set {search_set!r}; expected one of {SEARCH_SETS}")
    distance = _diagonal_distance_fn(rho, metric)
    d = rho.dim
    if search_set == "delta0_only" or d == 1:
        delta = DiagonalState(np.full(d, 1.0 / d))
        return distance(delta.probs), delta

    def objective(y: np.ndarray) -> float:
        return distance(_softmax(np.concatenate(([0.0], y))))

    diag_start = np.clip(rho.diagonal_probs(), 1e-12, None)
    diag_start = diag_start / diag_start.sum()
    starts = [np.log(diag_start[1:] / diag_start[0]), np.zeros(d - 1)]
    best = None
    converged = False
    for x0 in starts:
        result = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxfev": budget // len(starts), "xatol": 1e-10, "fatol": 1e-13},
        )
        converged = converged or bool(result.success)
        if best is None or result.fun < best.fun:
            best = result
    if not converged:
        raise OptimizerFailure(
            f"direct search did not converge within {budget} evaluations for metric {metric!r}"
        )
    probs = _softmax(np.concatenate(([0.0], best.x)))
    return float(best.fun), DiagonalState(probs)


@dataclass(frozen=True)
class CoherenceReport:
    """All measures of one state in one matrix basis, entropies included."""

    dim: int
    s_rho: float
    s_diag: float
    c_l1: float
    c_re: float
    c_ibiqc: float
    basis_label: str

    def to_dict(self) -> dict:
        return asdict(self)


def coherence_report(rho: DensityMatrix, basis_label: str = "computational") -> CoherenceReport:
    """Bundle every measure of rho, computing the spectrum once."""
    s_rho = von_neumann_entropy(rho)
    s_diag = shannon_entropy(rho.diagonal_probs())
    return CoherenceReport(
        dim=rho.dim,
        s_rho=s_rho,
        s_diag=s_diag,
        c_l1=l1_coherence(rho),
        c_re=max(0.0, s_diag - s_rho),
        c_ibiqc=max(0.0, math.log2(rho.dim) - s_rho),
        basis_label=basis_label,
    )
