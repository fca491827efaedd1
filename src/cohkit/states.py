"""Quantum state containers, validated construction, and seeded ensembles.

States are dense numpy arrays wrapped in thin dataclasses. make_density
is the validating gateway for arbitrary matrices; the named constructors
always return valid instances. Random ensembles are reproducible: the
same (dimension, seed) pair yields bitwise-identical output, and every
seed argument also accepts a numpy Generator for streaming use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DegenerateTruncationError,
    DimensionMismatchError,
    InvalidArgumentsError,
    InvalidDimensionError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
    NotUnitaryError,
)

DENSITY_TOL = 1e-10
PROB_TOL = 1e-12
NORM_TOL = 1e-12
UNITARY_TOL = 1e-10

# Kept probability fraction below which a truncated expansion is rejected;
# exp(-745) is roughly the smallest positive double.
_LOG_UNDERFLOW = -745.0


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator.

    The constructor only normalizes shape and dtype; use make_density to
    validate untrusted input. Module constructors return valid instances
    by construction.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.as_complex_matrix(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal_probs(self) -> np.ndarray:
        """Diagonal entries as a clamped real probability vector."""
        return np.clip(self.matrix.diagonal().real, 0.0, None)


@dataclass(frozen=True, eq=False)
class DiagonalState:
    """Probability vector, i.e. a density matrix with no off-diagonal part."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.shape[0] < 1:
            raise DimensionMismatchError(f"expected a probability vector, got shape {p.shape}")
        if not (p.min() >= -PROB_TOL):
            raise NotPositiveError(f"probability {p.min():.6e} below zero tolerance {PROB_TOL:.1e}")
        total = float(p.sum())
        if not (abs(total - 1.0) <= PROB_TOL):
            raise NotUnitTraceError(f"probabilities sum to {total!r}, expected 1 within {PROB_TOL:.1e}")
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))

    @property
    def dim(self) -> int:
        return self.probs.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.diag(self.probs).astype(complex))


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.shape[0] < 1:
            raise DimensionMismatchError(f"expected an amplitude vector, got shape {a.shape}")
        norm = float(np.linalg.norm(a))
        if not (abs(norm - 1.0) <= NORM_TOL):
            raise NotUnitTraceError(f"amplitude norm {norm!r} differs from 1 beyond {NORM_TOL:.1e}")
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def _require_dim(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {d!r}")
    return int(d)


def make_density(entries, tol: float = DENSITY_TOL) -> DensityMatrix:
    """Validate a matrix as a density operator.

    Checks Hermiticity and unit trace at tol, then positivity: eigenvalues
    below -tol are rejected, eigenvalues in [-tol, 0) are clamped to zero
    and the spectrum renormalized to unit sum before reconstruction.
    """
    m = linalg.as_complex_matrix(entries)
    defect = linalg.hermiticity_defect(m)
    if not (defect <= tol):
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds tolerance {tol:.1e}")
    trace = complex(m.trace())
    if not (abs(trace - 1.0) <= tol):
        raise NotUnitTraceError(f"trace {trace!r} differs from 1 beyond {tol:.1e}")
    m = 0.5 * (m + m.conj().T)
    eigenvalues, vecs = linalg.hermitian_eig(m, tol)
    if eigenvalues[0] < -tol:
        raise NotPositiveError(
            f"smallest eigenvalue {eigenvalues[0]:.6e} is below -{tol:.1e}"
        )
    if eigenvalues[0] < 0.0:
        clamped = np.clip(eigenvalues, 0.0, None)
        clamped = clamped / clamped.sum()
        m = (vecs * clamped) @ vecs.conj().T
        m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m)


def require_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> None:
    """Raise NotUnitaryError unless u, or every matrix of a (..., d, d)
    stack, has u^dagger u within tol of the identity (Frobenius norm)."""
    gram_defect = linalg.gram_defect(u[..., None, :, :])
    if not (gram_defect <= tol):
        raise NotUnitaryError(f"u^dagger u differs from identity by {gram_defect:.3e}")


def apply_unitary(rho: DensityMatrix, u, tol: float = UNITARY_TOL) -> DensityMatrix:
    """Conjugate a state by a unitary: u rho u^dagger."""
    um = linalg.as_complex_matrix(u)
    if um.shape[0] != rho.dim:
        raise DimensionMismatchError(f"unitary is {um.shape[0]}-dimensional, state is {rho.dim}")
    require_unitary(um, tol)
    return DensityMatrix(linalg.hermitian_part(um @ rho.matrix @ um.conj().T))


def hadamard() -> np.ndarray:
    """The 2x2 Hadamard gate."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def maximally_mixed(d: int) -> DensityMatrix:
    """Identity over d: the unique state with no preferred direction."""
    d = _require_dim(d)
    return DensityMatrix(np.eye(d, dtype=complex) / d)


def maximally_coherent(d: int) -> PureState:
    """Equal-amplitude superposition over the computational basis."""
    d = _require_dim(d)
    return PureState(np.full(d, 1.0 / math.sqrt(d), dtype=complex))


def qubit_pair(alpha: float) -> tuple[DensityMatrix, DensityMatrix]:
    """Diagonal qubit state diag(cos^2 a, sin^2 a) and its Hadamard conjugate.

    The two states share a spectrum; the second carries all of the
    population contrast into off-diagonal entries.
    """
    c2 = math.cos(alpha) ** 2
    s2 = math.sin(alpha) ** 2
    rho_z = DensityMatrix(np.diag([c2, s2]).astype(complex))
    rho_x = apply_unitary(rho_z, hadamard())
    return rho_z, rho_x


def glauber_truncated(a, d: int) -> PureState:
    """Coherent-amplitude state truncated to the lowest d number levels.

    Amplitudes are proportional to a^n / sqrt(n!) for n < d, renormalized
    after truncation. Raises DegenerateTruncationError when the kept
    fraction of the untruncated distribution underflows double precision
    (|a| huge relative to d), since the truncation is then meaningless.
    """
    d = _require_dim(d)
    a = complex(a)
    if a == 0:
        amps = np.zeros(d, dtype=complex)
        amps[0] = 1.0
        return PureState(amps)
    n = np.arange(d)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(d)])
    log_mag = n * math.log(abs(a)) - 0.5 * log_fact
    # Fraction of the full (untruncated) weight that the first d levels
    # keep: logsumexp(2n log|a| - log n!) - |a|^2.
    peak = log_mag.max()
    log_kept = 2.0 * peak + math.log(np.exp(2.0 * (log_mag - peak)).sum()) - abs(a) ** 2
    if log_kept < _LOG_UNDERFLOW:
        raise DegenerateTruncationError(
            f"first {d} levels hold exp({log_kept:.1f}) of the weight for |a|={abs(a):.3g}"
        )
    mags = np.exp(log_mag - peak)
    amps = mags * np.exp(1j * n * cmath.phase(a))
    return PureState(amps / np.linalg.norm(amps))


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def random_density(d: int, seed) -> DensityMatrix:
    """Random full-rank state: G G^dagger / tr(G G^dagger), G complex Gaussian.

    seed: integer, or a numpy Generator to draw from an existing stream.
    """
    d = _require_dim(d)
    rng = np.random.default_rng(seed)
    g = _ginibre(rng, d, d)
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m / float(m.trace().real))


def _haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-distributed isometry from the QR decomposition of a Gaussian matrix.

    The phases of R's diagonal are absorbed into Q so the distribution is
    exactly invariant.
    """
    q, r = np.linalg.qr(_ginibre(rng, rows, cols))
    diag = np.diag(r)
    phases = np.where(np.abs(diag) < 1e-300, 1.0, diag / np.abs(diag))
    return q * phases


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed d x d unitary. seed: integer or numpy Generator."""
    d = _require_dim(d)
    return _haar_isometry(np.random.default_rng(seed), d, d)


def random_channel(kind: str, d: int, k: int = 2, seed=0):
    """Random trace-preserving Kraus set from one of three families.

    kind:
      unital_mixture      sqrt(p_n) U_n with Dirichlet weights and Haar
                          unitaries; unital and trace preserving.
      diagonal_incoherent generalized permutations: one uniformly chosen
                          nonzero row per column, complex Gaussian
                          amplitudes normalized per column across the set,
                          so trace preservation is exact by construction.
      general_tp          a Haar-random isometry from d to k*d sliced into
                          k blocks; trace preserving, generically not
                          unital.

    seed: integer or numpy Generator. Returns a channels.KrausSet.
    """
    from .channels import KrausSet  # deferred: channels imports this module

    d = _require_dim(d)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidDimensionError(f"number of Kraus operators must be >= 1, got {k!r}")
    k = int(k)
    rng = np.random.default_rng(seed)
    label = f"{kind}(d={d}, k={k})"
    if kind == "unital_mixture":
        probs = rng.dirichlet(np.ones(k))
        ops = [math.sqrt(p) * haar_unitary(d, rng) for p in probs]
    elif kind == "diagonal_incoherent":
        # A permutation per operator keeps at most one nonzero per column
        # and per row; per-column normalization then gives exact trace
        # preservation (independent row draws would leave cross terms).
        rows = [rng.permutation(d) for _ in range(k)]
        amp = _ginibre(rng, k, d)
        amp = amp / np.linalg.norm(amp, axis=0)
        ops = []
        for n in range(k):
            op = np.zeros((d, d), dtype=complex)
            op[rows[n], np.arange(d)] = amp[n]
            ops.append(op)
    elif kind == "general_tp":
        isometry = _haar_isometry(rng, k * d, d)
        ops = [isometry[n * d : (n + 1) * d, :] for n in range(k)]
    else:
        raise InvalidArgumentsError(
            f"unknown channel family {kind!r}; expected unital_mixture, "
            "diagonal_incoherent, or general_tp"
        )
    return KrausSet(tuple(ops), label=label)
