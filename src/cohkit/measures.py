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

import functools
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import (DimensionMismatchError, InvalidArgumentsError, OptimizerFailure, require_array, require_choice,
                     require_count, require_instance)
from .states import DensityMatrix, DiagonalState, require_probabilities

SUPPORT_EIGENVALUE_TOL = 1e-12
SUPPORT_WEIGHT_TOL = 1e-10
OPTIMIZER_BUDGET = 100_000

METRICS = ("relative_entropy", "trace", "frobenius")


def entropy_bits(probs) -> np.ndarray:
    """Base-2 entropy of each probability vector along the last axis.

    Values are clamped at zero and sorted ascending before summation, with
    the 0*log(0) = 0 convention, so two vectors holding the same multiset
    of probabilities give bitwise-identical results whatever their order.
    """
    p = np.asarray(probs, dtype=float).clip(0.0)
    p.sort(axis=-1)
    # 0.0 - sum, not -sum: an all-zero sum would negate to -0.0
    return 0.0 - (p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def spectral_entropy(m) -> np.ndarray:
    """Von Neumann entropy in bits of each Hermitian matrix in a (..., d, d) stack."""
    return entropy_bits(linalg.hermitian_eigvals(m))


def c_l1(m) -> np.ndarray:
    """Sum of absolute off-diagonal entries of each matrix in a (..., d, d) stack."""
    mags = np.abs(m)
    return mags.sum(axis=(-2, -1)) - np.trace(mags, axis1=-2, axis2=-1)


def c_re(m) -> np.ndarray:
    """S(diag) - S(rho), clamped at zero, of each state in a (..., d, d) stack; entropy_bits clamps diag."""
    return np.maximum(0.0, entropy_bits(np.diagonal(m, axis1=-2, axis2=-1).real) - spectral_entropy(m))


def c_ibiqc(m) -> np.ndarray:
    """log2(d) - S(rho), clamped at zero, of each state in a (..., d, d) stack."""
    return np.maximum(0.0, math.log2(np.shape(m)[-1]) - spectral_entropy(m))


def shannon_entropy(probs) -> float:
    """Base-2 entropy of one non-empty probability vector (require_probabilities); see entropy_bits."""
    p = require_array("probs", probs, float)
    if p.ndim != 1 or not p.size or not np.isfinite(p).all():
        raise InvalidArgumentsError(f"probs must be one non-empty vector of finite numbers, got {probs!r:.80}")
    return float(entropy_bits(require_probabilities(p)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the eigenvalue distribution, in bits."""
    return float(spectral_entropy(require_instance("rho", rho, DensityMatrix).matrix))


def l1_coherence(rho: DensityMatrix) -> float:
    """Sum of absolute off-diagonal entries."""
    return float(c_l1(require_instance("rho", rho, DensityMatrix).matrix))


def rel_ent_coherence(rho: DensityMatrix) -> float:
    """Entropy gained by erasing off-diagonal entries: S(rho_diag) - S(rho)."""
    return float(c_re(require_instance("rho", rho, DensityMatrix).matrix))


def ibiqc_coherence(rho: DensityMatrix) -> float:
    """Distance in bits from the maximally mixed state: log2(d) - S(rho).

    Basis independent; zero exactly when rho is maximally mixed, and
    log2(d) for any pure state.
    """
    return float(c_ibiqc(require_instance("rho", rho, DensityMatrix).matrix))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy D(rho||sigma) in bits.

    Returns +inf when sigma lacks support where rho has weight: some
    sigma eigenvalue below 1e-12 carries rho-weight above 1e-10.
    """
    if require_instance("rho", rho, DensityMatrix).dim != require_instance("sigma", sigma, DensityMatrix).dim:
        raise DimensionMismatchError(f"state dimensions differ: {rho.dim} vs {sigma.dim}")
    eigenvalues, vecs = linalg.hermitian_eig(sigma.matrix)
    weights = np.clip(np.real(np.diag(vecs.conj().T @ rho.matrix @ vecs)), 0.0, None)
    return _relative_entropy_bits(-von_neumann_entropy(rho), weights, eigenvalues)


def _relative_entropy_bits(neg_s_rho: float, weights: np.ndarray, eigenvalues: np.ndarray) -> float:
    """-S(rho) - sum_j w_j log2 l_j, clamped at zero, for rho's weights w_j on sigma's eigenvalues l_j;
    inf when an eigenvalue below SUPPORT_EIGENVALUE_TOL carries weight above SUPPORT_WEIGHT_TOL."""
    small = eigenvalues < SUPPORT_EIGENVALUE_TOL
    if np.logical_or.reduce(small):
        if np.logical_or.reduce(weights[small] > SUPPORT_WEIGHT_TOL):
            return math.inf
        weights, eigenvalues = weights[~small], eigenvalues[~small]
    return max(0.0, neg_s_rho - float(np.add.reduce(weights * np.log2(eigenvalues))))


def _softmax(x: list) -> np.ndarray:
    """exp(x - max x) / its sum for a list of floats; bitwise numpy's np.exp(x - x.max()) over np.add.reduce(e)."""
    top = max(x)  # NaN or not, the result is as numpy's: all NaN when x holds one
    e = np.exp([v - top for v in x])
    return e / np.add.reduce(e)  # numpy's sum: pairwise from 8 entries on


def _diagonal_distance_fn(rho: DensityMatrix, metric: str):
    """Callable probs -> distance(rho, diag(probs)) for one metric of METRICS; relative_entropy's is D(rho||diag).
    trace and frobenius write rho - diag(probs) into one buffer through a view of its diagonal and call numpy's
    ufuncs and reductions directly, with the bits of linalg.trace_distance and np.linalg.norm."""
    require_choice("metric", metric, METRICS)
    m = rho.matrix
    if metric == "relative_entropy":
        # diag(probs)'s eigenbasis is the computational one, so rho's weights on it are rho's
        # diagonal, and S(rho) is computed once per search
        return functools.partial(_relative_entropy_bits, -von_neumann_entropy(rho), rho.diagonal_probs())
    # rho - diag(probs) differs from the buffer on the diagonal only; for trace, rho is gated
    # and made exactly Hermitian once, as linalg.trace_distance does on every call
    shifted = linalg.hermitian_part(linalg.require_hermitian(m)) if metric == "trace" else m.copy()
    diag = shifted.diagonal().copy()
    view = shifted.reshape(-1)[::rho.dim + 1]
    assert np.shares_memory(view, shifted), "reshape copied the buffer"  # it does for a non-contiguous array
    if metric == "trace":

        def fn(probs: np.ndarray) -> float:
            np.subtract(diag, probs, out=view)
            return 0.5 * float(np.add.reduce(np.abs(np.linalg.eigvalsh(shifted))))

    else:  # frobenius
        re, im = shifted.reshape(-1).real, shifted.reshape(-1).imag  # np.linalg.norm's operands

        def fn(probs: np.ndarray) -> float:
            np.subtract(diag, probs, out=view)
            return math.sqrt(re.dot(re) + im.dot(im))

    return fn


class _BudgetSpent(Exception):
    """A _nelder_mead run asked for an evaluation past its budget."""


def _nelder_mead(fn, x0, maxfev: int) -> tuple[np.ndarray, float, bool]:
    """scipy.optimize.minimize(fn, x0, method="Nelder-Mead", options={"maxfev": maxfev, "xatol": 1e-6,
    "fatol": 1e-13}) step for step, so (x, fun, success) bit for bit; both tolerances are fixed.

    The simplex is a list of points, each a list of Python floats on which
    every step does scipy's IEEE operations in scipy's order; for a few
    coordinates this is faster than numpy's per-call overhead. fn receives
    each point as such a list, which the loop never writes in place, so no
    copy is made; fn must not write it either. Where Python and numpy part,
    numpy stays: an array's argsort orders the values (it is not stable, so
    sorted() would break scipy's tie order), and the value is np.min,
    which propagates NaN. The centroid adds the rows in order from +0.0, as
    np.add.reduce does (sum() compensates from Python 3.12 on), and the
    stop test is all(... <= tol), which fails on a NaN as numpy's max
    does. As in scipy, an evaluation past maxfev ends the run in the
    middle of its step (a shrink perhaps half done), after which the
    simplex is sorted once more. x is returned as a float array.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    calls = 0

    def f(x: list) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return fn(x)

    def ordered(sim: list, fsim: list) -> tuple[list, list]:
        ind = np.array(fsim).argsort().tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [x0] + [x0[:k] + [(1 + 0.05) * v if v != 0 else 0.00025] + x0[k + 1:] for k, v in enumerate(x0)]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):  # scipy sorts twice after the initial simplex
        sim, fsim = ordered(sim, fsim)
    while calls < maxfev:
        try:
            best = sim[0]
            if (all(abs(v - b) <= 1e-6 for x in sim[1:] for v, b in zip(x, best))
                    and all(abs(fsim[0] - g) <= 1e-13 for g in fsim[1:])):
                break
            xbar = [functools.reduce(operator.add, col, 0.0) / n for col in zip(*sim[:-1])]
            worst = sim[-1]
            xr = [(1 + rho) * c - rho * w for c, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [(1 + rho * chi) * c - rho * chi * w for c, w in zip(xbar, worst)]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = [(1 + psi * rho) * c - psi * rho * w for c, w in zip(xbar, worst)]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = [(1 - psi) * c + psi * w for c, w in zip(xbar, worst)]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = [b + sigma * (v - b) for b, v in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = ordered(sim, fsim)
    return np.array(sim[0]), np.min(fsim), calls < maxfev


def min_distance_coherence(
    rho: DensityMatrix, metric: str = "relative_entropy", budget: int = OPTIMIZER_BUDGET
) -> tuple[float, DiagonalState]:
    """Minimize distance(rho, delta) over diagonal states delta.

    A derivative-free Nelder-Mead search over softmax coordinates (the
    first coordinate is pinned to remove the shift gauge) runs from rho's
    diagonal, then restarts once from the best point, each run with half
    the evaluation budget. The run with the lowest value wins; on a tie or
    a NaN the earlier run wins. Each run is scipy's Nelder-Mead repeated
    step for step (_nelder_mead), so it gives scipy's bits without
    importing scipy. The restart runs only when the first run moved:
    Nelder-Mead is deterministic, so a restart from the point the first
    run started from would replay it bit for bit, and then only half of
    the budget is used. A run stops when its simplex spans under 1e-6 in
    every coordinate and its values under 1e-13: near a smooth minimum a
    step of 1e-8 already leaves the value unchanged in double precision,
    so the value sets the accuracy. At d = 1 the only diagonal state is
    [1]. budget is an integer >= 2. Raises OptimizerFailure only when no
    run converges.
    """
    budget = require_count("budget", budget, 2)
    distance = _diagonal_distance_fn(require_instance("rho", rho, DensityMatrix), metric)
    d = rho.dim
    if d == 1:
        delta = DiagonalState(np.full(d, 1.0 / d))
        return distance(delta.probs), delta

    def objective(y: list) -> float:
        return distance(_softmax([0.0, *y]))  # the first logit is pinned at 0

    diag_start = np.clip(rho.diagonal_probs(), 1e-12, None)
    diag_start = diag_start / diag_start.sum()
    x0 = np.log(diag_start[1:] / diag_start[0])
    # each run is (x, value, converged)
    runs = [_nelder_mead(objective, x0, budget // 2)]
    # Nelder-Mead is deterministic: a restart from x0 would replay the first run
    if not np.array_equal(runs[0][0], x0):
        runs.append(_nelder_mead(objective, runs[0][0], budget // 2))
    if not any(converged for _, _, converged in runs):
        raise OptimizerFailure(
            f"direct search did not converge within {budget} evaluations for metric {metric!r}"
        )
    # the lowest value wins; min keeps the earlier run on a tie or a NaN
    x, value, _ = min(runs, key=lambda run: run[1])
    probs = _softmax([0.0, *x.tolist()])
    return float(value), DiagonalState(probs)


@dataclass(frozen=True)
class CoherenceReport:
    """All measures of one state in the computational basis, entropies included."""

    dim: int
    s_rho: float
    s_diag: float
    c_l1: float
    c_re: float
    c_ibiqc: float
    basis_label: str

    def to_dict(self) -> dict:
        return asdict(self)


def coherence_report(rho: DensityMatrix) -> CoherenceReport:
    """Bundle every measure of rho, computing the spectrum once."""
    s_rho = von_neumann_entropy(rho)
    # a valid state's diagonal may sum to 1 only within DENSITY_TOL, so no probability gate
    s_diag = float(entropy_bits(rho.diagonal_probs()))
    return CoherenceReport(
        dim=rho.dim,
        s_rho=s_rho,
        s_diag=s_diag,
        c_l1=l1_coherence(rho),
        c_re=max(0.0, s_diag - s_rho),
        c_ibiqc=max(0.0, math.log2(rho.dim) - s_rho),
        basis_label="computational",
    )
