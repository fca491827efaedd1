"""Quantum states and Kraus sets, validated construction, and seeded ensembles.

Both are dense numpy arrays wrapped in thin dataclasses. make_density is
the validating gateway for arbitrary matrices; the named constructors return
valid instances, of sizes up to MAX_AUDIT_DIM. Random ensembles are
reproducible: the same (dimension, seed) pair yields bitwise-identical
output, and every seed argument also accepts a numpy Generator.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DegenerateTruncationError,
    DimensionMismatchError,
    InvalidArgumentsError,
    InvalidDimensionError,
    NotPositiveError,
    NotUnitTraceError,
    NotUnitaryError,
    require_array,
    require_choice,
    require_count,
    require_instance,
    require_real,
)

DENSITY_TOL = 1e-10
PROB_TOL = 1e-12
NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
# The largest dimension of a dense object: every sized constructor below, an
# audit and a replayed witness matrix stop here. One audit sample holds up to
# four complex d x d operators, 4 MB at d = 256, and its products and
# eigensolves cost O(d^3); replaying a probe witness builds its d projectors, a
# (d, d, d) complex array of 268 MB at d = 256, so a witness matrix is read only
# up to this dimension.
MAX_AUDIT_DIM = 256
# The random channel families, as kraus_stack names them.
OPERATION_CLASSES = ("unital_mixture", "diagonal_incoherent", "general_tp")

# Kept probability fraction below which a truncated expansion is rejected;
# exp(-745) is roughly the smallest positive double.
_LOG_UNDERFLOW = -745.0


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator.

    The constructor only normalizes shape and dtype; use make_density to
    validate untrusted input. Module constructors return valid instances
    by construction. matrix is a private read-only copy of the input.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.read_only_copy(linalg.as_complex_matrix(self.matrix)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal_probs(self) -> np.ndarray:
        """Diagonal entries as a clamped real probability vector."""
        return np.clip(self.matrix.diagonal().real, 0.0, None)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """The Kraus operators of one channel as a complex (k, d, d) array.

    operators accepts any sequence of k >= 1 same-shape square matrices
    (a tuple, a list or a (k, d, d) array) and holds a private read-only
    copy of it; an empty set, operators of mixed shapes and a single matrix
    raise DimensionMismatchError, a value that is not numbers InvalidArgumentsError.
    """

    operators: np.ndarray

    def __post_init__(self):
        try:
            np.shape(self.operators)
        except ValueError as exc:
            # numpy reads operators of mixed shapes as a ragged sequence; junk entries pass on to as_complex_stack
            raise DimensionMismatchError(f"Kraus operators differ in shape: {exc}") from exc
        ops = linalg.as_complex_stack(self.operators)
        if ops.ndim != 3 or len(ops) < 1:
            raise DimensionMismatchError(f"expected k >= 1 Kraus operators as (k, d, d), got shape {ops.shape}")
        object.__setattr__(self, "operators", linalg.read_only_copy(ops))

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]


@dataclass(frozen=True, eq=False)
class DiagonalState:
    """Probability vector, i.e. a density matrix with no off-diagonal part."""

    probs: np.ndarray

    def __post_init__(self):
        p = require_array("probs", self.probs, float)
        if p.ndim != 1 or p.shape[0] < 1:
            raise DimensionMismatchError(f"expected a probability vector, got shape {p.shape}")
        object.__setattr__(self, "probs", require_probabilities(p))

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.diag(self.probs).astype(complex))


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = require_array("amplitudes", self.amplitudes, complex)
        if a.ndim != 1 or a.shape[0] < 1:
            raise DimensionMismatchError(f"expected an amplitude vector, got shape {a.shape}")
        # an amplitude of modulus above 1 is rejected before its norm can overflow
        if not (np.abs(a).max() <= 1.0 + NORM_TOL):
            raise NotUnitTraceError(f"amplitude of modulus {np.abs(a).max():.6e} above 1 beyond {NORM_TOL:.1e}")
        norm = float(np.linalg.norm(a))
        if not (abs(norm - 1.0) <= NORM_TOL):
            raise NotUnitTraceError(f"amplitude norm {norm!r} differs from 1 beyond {NORM_TOL:.1e}")
        object.__setattr__(self, "amplitudes", a)

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def require_probabilities(p: np.ndarray) -> np.ndarray:
    """p, a probability vector or a stack of them along the last axis, clamped at
    zero; NotPositiveError below -PROB_TOL, NotUnitTraceError for an entry above
    1 + PROB_TOL (before the sum, which then cannot overflow) or a sum off 1."""
    if not (p.min() >= -PROB_TOL):
        raise NotPositiveError(f"probability {p.min():.6e} below zero tolerance {PROB_TOL:.1e}")
    if not (p.max() <= 1.0 + PROB_TOL):
        raise NotUnitTraceError(f"probability {p.max():.6e} above 1 beyond {PROB_TOL:.1e}")
    totals = p.sum(axis=-1)
    total = float(np.ravel(totals)[np.argmax(np.abs(totals - 1.0))])
    if not (abs(total - 1.0) <= PROB_TOL):
        raise NotUnitTraceError(f"probabilities sum to {total!r}, expected 1 within {PROB_TOL:.1e}")
    return np.clip(p, 0.0, None)


def make_density(entries) -> DensityMatrix:
    """Validate a matrix as a density operator.

    Checks Hermiticity and unit trace at DENSITY_TOL, then positivity:
    eigenvalues below -DENSITY_TOL are rejected, eigenvalues in
    [-DENSITY_TOL, 0) are clamped to zero and the spectrum renormalized.
    """
    m = linalg.as_complex_matrix(entries)
    # hermitian_eig gates Hermiticity and decomposes the Hermitian part
    eigenvalues, vecs = linalg.hermitian_eig(m)
    trace = complex(m.trace())
    if not (abs(trace - 1.0) <= DENSITY_TOL):
        raise NotUnitTraceError(f"trace {trace!r} differs from 1 beyond {DENSITY_TOL:.1e}")
    m = linalg.hermitian_part(m)
    if eigenvalues[0] < -DENSITY_TOL:
        raise NotPositiveError(
            f"smallest eigenvalue {eigenvalues[0]:.6e} is below -{DENSITY_TOL:.1e}"
        )
    if eigenvalues[0] < 0.0:
        clamped = np.clip(eigenvalues, 0.0, None)
        clamped = clamped / clamped.sum()
        m = linalg.hermitian_part((vecs * clamped) @ vecs.conj().T)
    return DensityMatrix(m)


def require_unitary(u: np.ndarray) -> None:
    """Raise NotUnitaryError unless u, or every matrix of a (..., d, d)
    stack, has u^dagger u within UNITARY_TOL of the identity (Frobenius norm)."""
    gram_defect = linalg.gram_defect(u[..., None, :, :])
    if not (gram_defect <= UNITARY_TOL):
        raise NotUnitaryError(f"u^dagger u differs from identity by {gram_defect:.3e}")


def apply_unitary(rho: DensityMatrix, u) -> DensityMatrix:
    """Conjugate a state by a unitary: u rho u^dagger."""
    um = linalg.as_complex_matrix(u)
    if um.shape[0] != require_instance("rho", rho, DensityMatrix).dim:
        raise DimensionMismatchError(f"unitary is {um.shape[0]}-dimensional, state is {rho.dim}")
    require_unitary(um)
    return DensityMatrix(linalg.hermitian_part(um @ rho.matrix @ um.conj().T))


def hadamard() -> np.ndarray:
    """The 2x2 Hadamard gate."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def maximally_mixed(d: int) -> DensityMatrix:
    """Identity over d: the unique state with no preferred direction."""
    d = require_count("d", d, 1, MAX_AUDIT_DIM, InvalidDimensionError)
    return DensityMatrix(np.eye(d, dtype=complex) / d)


def qubit_pair(alpha: float) -> tuple[DensityMatrix, DensityMatrix]:
    """Diagonal qubit state diag(cos^2 a, sin^2 a) and its Hadamard conjugate.

    The two states share a spectrum; the second carries all of the
    population contrast into off-diagonal entries.
    """
    alpha = require_real("alpha", alpha)
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
    (|a| huge relative to d, or beyond the double range), since the
    truncation is then meaningless; an a that is not a finite complex
    number raises InvalidArgumentsError.
    """
    d = require_count("d", d, 1, MAX_AUDIT_DIM, InvalidDimensionError)
    if isinstance(a, bool) or not isinstance(a, numbers.Complex):
        raise InvalidArgumentsError(f"amplitude must be a complex number, got {a!r}")
    a = complex(require_real("amplitude real part", a.real), require_real("amplitude imag part", a.imag))
    if a == 0:
        amps = np.zeros(d, dtype=complex)
        amps[0] = 1.0
        return PureState(amps)
    n = np.arange(d)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(d)])
    try:
        r = abs(a)
    except OverflowError as exc:
        raise DegenerateTruncationError(f"|a| exceeds the largest double for a={a!r}") from exc
    log_mag = n * math.log(r) - 0.5 * log_fact
    # Fraction of the full (untruncated) weight that the first d levels
    # keep: logsumexp(2n log|a| - log n!) - |a|^2.
    peak = log_mag.max()
    log_kept = 2.0 * peak + math.log(np.exp(2.0 * (log_mag - peak)).sum()) - r * r
    if log_kept < _LOG_UNDERFLOW:
        raise DegenerateTruncationError(
            f"first {d} levels hold exp({log_kept:.1f}) of the weight for |a|={r:.3g}"
        )
    mags = np.exp(log_mag - peak)
    amps = mags * np.exp(1j * n * cmath.phase(a))
    return PureState(amps / np.linalg.norm(amps))


def _ginibre(normals: np.ndarray) -> np.ndarray:
    """Complex Gaussian matrices from (..., 2, rows, cols) normals: real, then imaginary parts."""
    return (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / math.sqrt(2.0)


def density_stack(normals: np.ndarray) -> np.ndarray:
    """States G G^dagger / tr(G G^dagger) for the Ginibre matrices G of (..., 2, d, d) normals."""
    g = _ginibre(normals)
    m = linalg.hermitian_part(g @ linalg.adjoint(g))
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def isometry_stack(normals: np.ndarray) -> np.ndarray:
    """Haar isometries by stacked QR of the Ginibre matrices of (..., 2, rows, cols) normals.

    The phases of R's diagonal are absorbed into Q so the distribution is
    exactly invariant (Mezzadri, Notices AMS 54, 2007).
    """
    q, r = np.linalg.qr(_ginibre(normals))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(np.abs(diag) < 1e-300, 1.0, diag / np.abs(diag))[..., None, :]


# numpy's SeedSequence hash (NEP 19, numpy/random/bit_generator.pyx): a pool
# of four 32-bit words, the hash constants of its entropy mixing (A) and of
# generate_state (B), and the multipliers of its mix step.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before each of calls hashmix steps and after the
    last one, as a (calls + 1, 1) uint32 column."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h, dtype=np.uint32)[:, None]


# PCG64 takes 4 uint64 words, 8 uint32 words drawn cyclically from the pool
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(value: np.ndarray, h: np.ndarray) -> np.ndarray:
    """len(h) - 1 consecutive hashmix steps, one per row of the result:
    row r is value xor h[r], times h[r + 1], xor itself shifted right by 16."""
    value = (value ^ h[:-1]) * h[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> 16)


@functools.cache
def _seed_words_type():
    """A numpy ISeedSequence that hands PCG64 precomputed seed words.

    Defined on first use: importing numpy.random takes about 15 ms, which
    commands that draw nothing should not pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        # PCG64 reads generate_state(4, np.uint64)'s buffer without checking
        # its layout, so words must be four C-contiguous uint64 values.
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def sample_generators(seed: int, indices: range) -> list:
    """default_rng([seed, i]) for every i in indices, bitwise, seeded by
    one stacked SeedSequence hash over the block.

    Row j of the entropy holds the 32-bit words of seed, least significant
    first, then indices[j], which must be below 2**32 (one word). The pool
    mixing, the extra rounds for entropy words beyond the pool and
    generate_state(4, np.uint64) run as uint32 array operations over all
    samples; each sample then gets Generator(PCG64(its four words)).
    """
    seed = int(seed)
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((len(seed_words) + 1, len(indices)), dtype=np.uint32)
    entropy[:-1] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[-1] = indices
    extra = entropy[_POOL_SIZE:]
    h = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * len(extra))
    pool = np.zeros((_POOL_SIZE, len(indices)), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, h[:_POOL_SIZE + 1])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [j for j in range(_POOL_SIZE) if j != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[step:step + _POOL_SIZE]))
        step += _POOL_SIZE - 1
    for word in extra:
        pool = _mix(pool, _hashmix(word, h[step:step + _POOL_SIZE + 1]))
        step += _POOL_SIZE
    state = _hashmix(np.concatenate([pool, pool]), _STATE_CONSTANTS)
    # uint32 pairs read as little-endian uint64, as generate_state does;
    # astype copies, so each row is its own C-contiguous run of 4 words
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    seed_words_type = _seed_words_type()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(seed_words_type(w))) for w in words]


def dirichlet_stack(rngs, ks, width: int) -> np.ndarray:
    """(n, width) Dirichlet(1, ..., 1) weights: row j holds ks[j] weights
    drawn from rngs[j], then zeros.

    Bitwise Generator.dirichlet(np.ones(k)): for alpha = 1 it draws k
    standard exponentials, sums them left to right and scales each by
    1 / sum.
    """
    draws = pad_parts(ks, width, np.concatenate([rng.standard_exponential(k) for rng, k in zip(rngs, ks)]))
    return draws * (1.0 / draws.cumsum(axis=1)[:, -1])[:, None]


def pad_parts(counts, width: int, parts: np.ndarray) -> np.ndarray:
    """Sets of counts[j] <= width parts, given one after another, as one
    (n, width, ...) array, zero beyond each set's parts."""
    used = np.arange(width) < np.asarray(counts)[:, None]
    out = np.zeros(used.shape + parts.shape[1:], dtype=parts.dtype)
    out[used] = parts
    return out


def _generator(seed) -> np.random.Generator:
    """seed itself when it is a numpy Generator, else default_rng of seed, an integer >= 0."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(require_count("seed", seed, 0))


def random_density(d: int, seed) -> DensityMatrix:
    """Random full-rank state: G G^dagger / tr(G G^dagger), G complex Gaussian.

    seed: integer >= 0, or a numpy Generator to draw from an existing stream.
    """
    d = require_count("d", d, 1, MAX_AUDIT_DIM, InvalidDimensionError)
    return DensityMatrix(density_stack(_generator(seed).standard_normal((2, d, d))))


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed d x d unitary. seed: integer >= 0 or numpy Generator."""
    d = require_count("d", d, 1, MAX_AUDIT_DIM, InvalidDimensionError)
    return isometry_stack(_generator(seed).standard_normal((2, d, d)))


def kraus_stack(kind: str, d: int, ks, rngs, width: int) -> np.ndarray:
    """(n, width, d, d) Kraus operators of n random channels: set j holds
    ks[j] operators (ks an int array) drawn from rngs[j], then zeros.

    Channel j draws on rngs[j], in order: Dirichlet weights, then normals
    (unital_mixture); ks[j] row permutations, then normals
    (diagonal_incoherent); or one (2, ks[j] * d, d) normal (general_tp).
    """
    require_choice("channel family", kind, OPERATION_CLASSES)
    if kind == "unital_mixture":
        probs = dirichlet_stack(rngs, ks, width)
        normals = np.concatenate([rng.standard_normal((k, 2, d, d)) for rng, k in zip(rngs, ks)])
        return np.sqrt(probs)[..., None, None] * pad_parts(ks, width, isometry_stack(normals))
    if kind == "diagonal_incoherent":
        # A permutation per operator keeps at most one nonzero per column
        # and per row; per-column normalization then gives exact trace
        # preservation (independent row draws would leave cross terms).
        rows = pad_parts(ks, width, np.array([rng.permutation(d) for rng, k in zip(rngs, ks) for _ in range(k)]))
        normals = np.concatenate([rng.standard_normal((2, k, d)) for rng, k in zip(rngs, ks)], axis=1)
        amp = pad_parts(ks, width, _ginibre(normals))
        amp = amp / np.linalg.norm(amp, axis=1)[:, None]
        ops = np.zeros(amp.shape + (d,), dtype=complex)
        np.put_along_axis(ops, rows[..., None, :], amp[..., None, :], axis=-2)
        return ops
    normals = [rng.standard_normal((2, k * d, d)) for rng, k in zip(rngs, ks)]
    # general_tp: the isometry from d to k*d has shape (k*d, d), so sets group by k.
    ops = np.zeros((len(ks), width, d, d), dtype=complex)
    for k in set(ks.tolist()):
        sel = np.flatnonzero(ks == k)
        ops[sel, :k] = isometry_stack(np.stack([normals[j] for j in sel])).reshape(len(sel), k, d, d)
    return ops


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

    seed: integer >= 0 or numpy Generator. Returns a KrausSet.
    """
    d = require_count("d", d, 1, MAX_AUDIT_DIM, InvalidDimensionError)
    k = require_count("k", k, 1, MAX_AUDIT_DIM, InvalidDimensionError)
    ops = kraus_stack(kind, d, np.array([k]), [_generator(seed)], k)[0]
    return KrausSet(ops)
