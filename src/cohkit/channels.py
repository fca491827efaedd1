"""Kraus channels and randomized audits of coherence-measure conditions.

The audit harness samples random states and operations and checks the
standard resource-theory conditions:

  C0           invariance under unitary conjugation
  C1           zero exactly on the incoherent set, positive elsewhere
  C2_average   no increase under the deterministic (averaged) channel
  C2_selective no increase of the outcome-averaged value when the
               channel is read out measurement-like, outcome by outcome
  C3           convexity under mixing

Audits are reproducible: sample i of an audit draws all of its
randomness from (seed, i). Reports serialize to stable JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg, measures, states
from .errors import (
    DimensionMismatchError,
    InvalidArgumentsError,
    InvalidKrausError,
    PureStateError,
)

KRAUS_TP_TOL = 1e-10
STRUCTURAL_ENTRY_TOL = 1e-12
DEFAULT_AUDIT_TOL = 1e-9
SELECTIVE_P_FLOOR = 1e-12

# A random state whose measure falls below this floor fails the
# positivity half of C1; kept well above the audit tolerance so a
# failure is visible in the verdict.
C1_POSITIVITY_FLOOR = 1e-6

PURITY_ENTROPY_FLOOR = 1e-6

MEASURE_FUNCTIONS = {
    "l1": measures.l1_coherence,
    "re": measures.rel_ent_coherence,
    "ibiqc": measures.ibiqc_coherence,
}
CONDITIONS = ("C0", "C1", "C2_average", "C2_selective", "C3")
OPERATION_CLASSES = ("unital_mixture", "diagonal_incoherent", "general_tp")
VERDICT_HOLDS = "holds_within_tol"
VERDICT_VIOLATED = "violated"

_CLASSIFY_CHECK_SEED = 1060


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Tuple of same-dimension operators representing one channel."""

    operators: tuple
    label: str = ""

    def __post_init__(self):
        ops = tuple(linalg.as_complex_matrix(op) for op in self.operators)
        if not ops:
            raise DimensionMismatchError("a channel needs at least one Kraus operator")
        if any(op.shape != ops[0].shape for op in ops):
            raise DimensionMismatchError("Kraus operators differ in shape")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def completeness_defect(self) -> float:
        """Frobenius distance of sum(K^dagger K) from the identity."""
        acc = sum(op.conj().T @ op for op in self.operators)
        return float(np.linalg.norm(acc - np.eye(self.dim)))

    def unitality_defect(self) -> float:
        """Frobenius distance of sum(K K^dagger) from the identity."""
        acc = sum(op @ op.conj().T for op in self.operators)
        return float(np.linalg.norm(acc - np.eye(self.dim)))


@dataclass(frozen=True)
class KrausFlags:
    trace_preserving: bool
    unital: bool
    diagonal_incoherent: bool


def apply_channel(kraus: KrausSet, rho: states.DensityMatrix, tol: float = KRAUS_TP_TOL) -> states.DensityMatrix:
    """Deterministic channel action: sum of K rho K^dagger."""
    if kraus.dim != rho.dim:
        raise DimensionMismatchError(f"channel dimension {kraus.dim} vs state dimension {rho.dim}")
    defect = kraus.completeness_defect()
    if not (defect <= tol):
        raise InvalidKrausError(f"sum K^dagger K differs from identity by {defect:.3e}")
    out = sum(op @ rho.matrix @ op.conj().T for op in kraus.operators)
    return states.DensityMatrix(0.5 * (out + out.conj().T))


def selective_outcomes(
    kraus: KrausSet, rho: states.DensityMatrix, p_floor: float = SELECTIVE_P_FLOOR
) -> list[tuple[float, states.DensityMatrix]]:
    """Measurement-like readout: [(p_n, K_n rho K_n^dagger / p_n), ...].

    Outcomes with probability below p_floor are dropped; the rest keep
    the Kraus order.
    """
    if kraus.dim != rho.dim:
        raise DimensionMismatchError(f"channel dimension {kraus.dim} vs state dimension {rho.dim}")
    outcomes = []
    for op in kraus.operators:
        m = op @ rho.matrix @ op.conj().T
        p = float(m.trace().real)
        if p >= p_floor:
            m = 0.5 * (m + m.conj().T) / p
            outcomes.append((p, states.DensityMatrix(m)))
    return outcomes


def _is_structurally_diagonal(kraus: KrausSet) -> bool:
    for op in kraus.operators:
        if np.any((np.abs(op) > STRUCTURAL_ENTRY_TOL).sum(axis=0) > 1):
            return False
    return True


def classify_kraus(kraus: KrausSet, tol: float = KRAUS_TP_TOL) -> KrausFlags:
    """Structural flags of a Kraus set.

    diagonal_incoherent means every operator has at most one nonzero
    entry per column, which guarantees diagonal inputs map to diagonal
    outputs; the structural test is cross-checked behaviorally on ten
    seeded random diagonal states.
    """
    structural = _is_structurally_diagonal(kraus)
    if structural:
        rng = np.random.default_rng(_CLASSIFY_CHECK_SEED)
        d = kraus.dim
        for _ in range(10):
            diag = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
            out = sum(op @ diag @ op.conj().T for op in kraus.operators)
            off = out - np.diag(np.diag(out))
            if np.abs(off).max() >= 1e-10:
                structural = False
                break
    return KrausFlags(
        trace_preserving=kraus.completeness_defect() < tol,
        unital=kraus.unitality_defect() < tol,
        diagonal_incoherent=structural,
    )


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one randomized condition audit."""

    measure_name: str
    condition: str
    operation_class: str | None
    dim: int
    samples: int
    seed: int
    tol: float
    probe_eigenbasis: bool
    max_violation: float
    witness: dict
    verdict: str

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _eigenbasis_projection(rho: states.DensityMatrix) -> KrausSet:
    """Projective measurement onto the state's own eigenbasis."""
    _, vecs = linalg.hermitian_eig(rho.matrix)
    ops = tuple(np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(rho.dim))
    return KrausSet(ops, label="eigenbasis_projection")


def _channel_candidates(rng, rho, op_class, probe_eigenbasis):
    candidates = []
    if op_class is not None:
        k = int(rng.integers(1, 5))
        candidates.append(states.random_channel(op_class, rho.dim, k, rng))
    if probe_eigenbasis:
        candidates.append(_eigenbasis_projection(rho))
    return candidates


def audit_conditions(
    measure: str,
    condition: str,
    op_class: str | None = None,
    d: int = 2,
    samples: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_AUDIT_TOL,
    probe_eigenbasis: bool = False,
) -> AuditReport:
    """Randomized audit of one condition for one measure.

    Per-sample violations:
      C0   |C(U rho U^dagger) - C(rho)| for a Haar unitary U.
      C1   larger of C(incoherent sample) (which must stay below tol) and
           C1_POSITIVITY_FLOOR - C(random state) (positive when a random
           state scores below the floor). The incoherent set is every
           diagonal state for l1/re and the maximally mixed state for
           ibiqc.
      C2_average    C(channel(rho)) - C(rho).
      C2_selective  sum_n p_n C(rho_n) - C(rho) over kept outcomes.
      C3   C(mixture) - weighted average of member values, for Dirichlet
           mixtures of up to four random states.

    For C2 conditions the channel pool is op_class samples, plus the
    projective measurement onto each state's eigenbasis when
    probe_eigenbasis is set; each sample takes the worst candidate.
    verdict is "holds_within_tol" iff the maximum violation is at most tol.
    """
    if measure not in MEASURE_FUNCTIONS:
        raise InvalidArgumentsError(f"unknown measure {measure!r}; expected one of {tuple(MEASURE_FUNCTIONS)}")
    if condition not in CONDITIONS:
        raise InvalidArgumentsError(f"unknown condition {condition!r}; expected one of {CONDITIONS}")
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise InvalidArgumentsError(f"samples must be a positive integer, got {samples!r}")
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidArgumentsError(f"d must be a positive integer, got {d!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidArgumentsError(f"seed must be a non-negative integer, got {seed!r}")
    if not (0.0 <= tol < math.inf):
        raise InvalidArgumentsError(f"tol must be finite and non-negative, got {tol!r}")
    needs_channel = condition in ("C2_average", "C2_selective")
    if needs_channel:
        if op_class is None and not probe_eigenbasis:
            raise InvalidArgumentsError(f"{condition} needs an operation class or probe_eigenbasis")
        if op_class is not None and op_class not in OPERATION_CLASSES:
            raise InvalidArgumentsError(f"unknown operation class {op_class!r}; expected one of {OPERATION_CLASSES}")
    else:
        op_class = None
    fn = MEASURE_FUNCTIONS[measure]

    max_violation = -math.inf
    witness: dict = {}
    for i in range(int(samples)):
        rng = np.random.default_rng([seed, i])
        rho = states.random_density(d, rng)
        if condition == "C0":
            u = states.haar_unitary(d, rng)
            violation = abs(fn(states.apply_unitary(rho, u)) - fn(rho))
            sample_witness = {"sample_index": i, "state": _matrix_json(rho.matrix), "unitary": _matrix_json(u)}
        elif condition == "C1":
            if measure == "ibiqc":
                incoherent = states.maximally_mixed(d)
            else:
                incoherent = states.DiagonalState(rng.dirichlet(np.ones(d))).to_density()
            zero_side = fn(incoherent)
            positive_side = C1_POSITIVITY_FLOOR - fn(rho)
            if zero_side >= positive_side:
                violation = zero_side
                sample_witness = {
                    "sample_index": i,
                    "kind": "nonzero_on_incoherent",
                    "state": _matrix_json(incoherent.matrix),
                    "measure_value": zero_side,
                }
            else:
                violation = positive_side
                sample_witness = {
                    "sample_index": i,
                    "kind": "below_floor_on_random",
                    "state": _matrix_json(rho.matrix),
                    "measure_value": fn(rho),
                }
        elif condition in ("C2_average", "C2_selective"):
            before = fn(rho)
            violation = -math.inf
            sample_witness = {}
            for kraus in _channel_candidates(rng, rho, op_class, probe_eigenbasis):
                if condition == "C2_average":
                    after = fn(apply_channel(kraus, rho))
                else:
                    after = sum(p * fn(out) for p, out in selective_outcomes(kraus, rho))
                candidate = after - before
                if candidate > violation:
                    violation = candidate
                    sample_witness = {
                        "sample_index": i,
                        "state": _matrix_json(rho.matrix),
                        "channel_label": kraus.label,
                        "kraus_operators": [_matrix_json(op) for op in kraus.operators],
                        "measure_before": before,
                        "measure_after": after,
                    }
        else:  # C3
            parts = int(rng.integers(2, 5))
            weights = rng.dirichlet(np.ones(parts))
            members = [states.random_density(d, rng) for _ in range(parts)]
            mixture = states.DensityMatrix(sum(w * s.matrix for w, s in zip(weights, members)))
            average = float(sum(w * fn(s) for w, s in zip(weights, members)))
            violation = fn(mixture) - average
            sample_witness = {
                "sample_index": i,
                "weights": [float(w) for w in weights],
                "states": [_matrix_json(s.matrix) for s in members],
                "measure_mixture": fn(mixture),
                "measure_average": average,
            }
        if violation > max_violation:
            max_violation = violation
            witness = sample_witness

    return AuditReport(
        measure_name=measure,
        condition=condition,
        operation_class=op_class,
        dim=int(d),
        samples=int(samples),
        seed=int(seed),
        tol=float(tol),
        probe_eigenbasis=bool(probe_eigenbasis),
        max_violation=float(max_violation),
        witness=witness,
        verdict=VERDICT_HOLDS if max_violation <= tol else VERDICT_VIOLATED,
    )


def selective_counterexample(rho: states.DensityMatrix) -> tuple[KrausSet, float]:
    """Eigenbasis readout that lifts the basis-independent measure.

    Projecting onto the eigenbasis leaves every outcome pure, so the
    outcome-averaged value of ibiqc_coherence rises by exactly S(rho)
    bits while the averaged channel leaves the state untouched. Returns
    the projective KrausSet and the achieved increase. Raises
    PureStateError when S(rho) <= 1e-6 bits, where no lift exists.
    """
    entropy = measures.von_neumann_entropy(rho)
    if entropy <= PURITY_ENTROPY_FLOOR:
        raise PureStateError(
            f"state entropy {entropy:.3e} bits leaves nothing for a selective readout to gain"
        )
    kraus = _eigenbasis_projection(rho)
    before = measures.ibiqc_coherence(rho)
    after = sum(p * measures.ibiqc_coherence(out) for p, out in selective_outcomes(kraus, rho))
    return kraus, float(after - before)
