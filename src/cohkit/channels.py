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
randomness from (seed, i). Samples are evaluated in blocks, each block's
states and operators stacked into arrays and measured with the stacked
kernels of the measures module. Reports serialize to stable JSON.
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
# The same measures as stacked kernels, (..., d, d) -> (...); audits use these.
_MEASURE_KERNELS = {"l1": measures.c_l1, "re": measures.c_re, "ibiqc": measures.c_ibiqc}
CONDITIONS = ("C0", "C1", "C2_average", "C2_selective", "C3")
OPERATION_CLASSES = ("unital_mixture", "diagonal_incoherent", "general_tp")
VERDICT_HOLDS = "holds_within_tol"
VERDICT_VIOLATED = "violated"

_CLASSIFY_CHECK_SEED = 1060

# Random class channels draw 1 to 4 Kraus operators and C3 mixes 2 to 4
# states; an audit block pads both to this many, with zero weight.
_MAX_PARTS = 4

# Size in bytes of the largest stacked array of one audit block: a block
# holds up to max(_MAX_PARTS, d) complex d x d operators per sample (the
# eigenbasis probe has d). A block's working arrays are a small multiple
# of this, so an audit's memory does not grow with its sample count.
_BLOCK_BYTES = 1 << 20


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
        return linalg.gram_defect(np.stack(self.operators))

    def unitality_defect(self) -> float:
        """Frobenius distance of sum(K K^dagger) from the identity."""
        return linalg.gram_defect(linalg.adjoint(np.stack(self.operators)))


@dataclass(frozen=True)
class KrausFlags:
    trace_preserving: bool
    unital: bool
    diagonal_incoherent: bool


def _kraus_outputs(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """K_n rho K_n^dagger for every operator: ops (..., k, d, d), rho (..., d, d)."""
    return ops @ rho[..., None, :, :] @ linalg.adjoint(ops)


def _require_trace_preserving(ops: np.ndarray, tol: float) -> None:
    """Raise InvalidKrausError unless every set in a (..., k, d, d) stack is complete within tol."""
    defect = linalg.gram_defect(ops)
    if not (defect <= tol):
        raise InvalidKrausError(f"sum K^dagger K differs from identity by {defect:.3e}")


def _average_output(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Deterministic channel output of each state in a stack."""
    return linalg.hermitian_part(_kraus_outputs(ops, rho).sum(axis=-3))


def _selective_readout(ops: np.ndarray, rho: np.ndarray, p_floor: float):
    """Outcome probabilities p, the mask p >= p_floor, and the normalized
    outcome states (zero where an outcome is dropped), all stacked."""
    outs = _kraus_outputs(ops, rho)
    p = np.trace(outs, axis1=-2, axis2=-1).real
    kept = p >= p_floor
    normalized = np.divide(linalg.hermitian_part(outs), p[..., None, None],
                           out=np.zeros_like(outs), where=kept[..., None, None])
    return p, kept, normalized


def apply_channel(kraus: KrausSet, rho: states.DensityMatrix, tol: float = KRAUS_TP_TOL) -> states.DensityMatrix:
    """Deterministic channel action: sum of K rho K^dagger."""
    if kraus.dim != rho.dim:
        raise DimensionMismatchError(f"channel dimension {kraus.dim} vs state dimension {rho.dim}")
    ops = np.stack(kraus.operators)
    _require_trace_preserving(ops, tol)
    return states.DensityMatrix(_average_output(ops, rho.matrix))


def selective_outcomes(
    kraus: KrausSet, rho: states.DensityMatrix, p_floor: float = SELECTIVE_P_FLOOR
) -> list[tuple[float, states.DensityMatrix]]:
    """Measurement-like readout: [(p_n, K_n rho K_n^dagger / p_n), ...].

    Outcomes with probability below p_floor are dropped; the rest keep
    the Kraus order.
    """
    if kraus.dim != rho.dim:
        raise DimensionMismatchError(f"channel dimension {kraus.dim} vs state dimension {rho.dim}")
    p, kept, normalized = _selective_readout(np.stack(kraus.operators), rho.matrix, p_floor)
    return [(float(p[n]), states.DensityMatrix(normalized[n])) for n in np.flatnonzero(kept)]


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
        ops = np.stack(kraus.operators)
        for _ in range(10):
            diag = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
            out = _kraus_outputs(ops, diag).sum(axis=0)
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


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """|v_j><v_j| for each column v_j: (..., d, d) vectors -> (..., d, d, d) operators."""
    return np.einsum("...ij,...kj->...jik", vecs, vecs.conj())


def _eigenbasis_projection(rho: states.DensityMatrix) -> KrausSet:
    """Projective measurement onto the state's own eigenbasis."""
    _, vecs = linalg.hermitian_eig(rho.matrix)
    return KrausSet(tuple(_projectors(vecs)), label="eigenbasis_projection")


def _draw(measure: str, condition: str, op_class, d: int, seed: int, i: int) -> dict:
    """Inputs of sample i, drawn from default_rng([seed, i]) in a fixed order:
    the state, then the unitary (C0), the incoherent state (C1, except for
    ibiqc, whose incoherent set is the maximally mixed state alone), the
    Kraus count and class channel (C2), or the mixture size, weights and
    members (C3)."""
    rng = np.random.default_rng([seed, i])
    draw = {"state": states.random_density(d, rng).matrix}
    if condition == "C0":
        draw["unitary"] = states.haar_unitary(d, rng)
    elif condition == "C1" and measure != "ibiqc":
        draw["incoherent"] = states.DiagonalState(rng.dirichlet(np.ones(d))).to_density().matrix
    elif condition in ("C2_average", "C2_selective") and op_class is not None:
        draw["kraus"] = states.random_channel(op_class, d, int(rng.integers(1, _MAX_PARTS + 1)), rng)
    elif condition == "C3":
        parts = int(rng.integers(2, _MAX_PARTS + 1))
        draw["weights"] = rng.dirichlet(np.ones(parts))
        draw["states"] = [states.random_density(d, rng).matrix for _ in range(parts)]
    return draw


def _pad(per_sample: list, shape: tuple, dtype) -> np.ndarray:
    """Stack per-sample lists of up to _MAX_PARTS items into (n, _MAX_PARTS, *shape), zero-padded."""
    out = np.zeros((len(per_sample), _MAX_PARTS) + shape, dtype=dtype)
    for j, parts in enumerate(per_sample):
        out[j, : len(parts)] = parts
    return out


def _evaluate(measure: str, condition: str, probe_eigenbasis: bool, draws: list):
    """Violation of every sample of one block, and the per-sample values its
    witness reports: measure_* values and the C1 or C2 branch taken."""
    kernel = _MEASURE_KERNELS[measure]
    rho = np.stack([draw["state"] for draw in draws])
    n, d = rho.shape[0], rho.shape[-1]
    if condition == "C0":
        u = np.stack([draw["unitary"] for draw in draws])
        states.require_unitary(u)
        rotated = linalg.hermitian_part(_kraus_outputs(u[:, None], rho)[:, 0])
        return np.abs(kernel(rotated) - kernel(rho)), {}
    if condition == "C1":
        random_value = kernel(rho)
        if measure == "ibiqc":
            zero_side = np.full(n, kernel(states.maximally_mixed(d).matrix))
        else:
            zero_side = kernel(np.stack([draw["incoherent"] for draw in draws]))
        positive_side = C1_POSITIVITY_FLOOR - random_value
        on_incoherent = zero_side >= positive_side
        return np.where(on_incoherent, zero_side, positive_side), {
            "on_incoherent": on_incoherent,
            "measure_value": np.where(on_incoherent, zero_side, random_value),
        }
    if condition == "C3":
        weights = _pad([draw["weights"] for draw in draws], (), float)
        members = _pad([draw["states"] for draw in draws], (d, d), complex)
        mixture = kernel(np.einsum("nm,nmij->nij", weights, members))
        average = (weights * kernel(members)).sum(axis=1)
        return mixture - average, {"measure_mixture": mixture, "measure_average": average}
    # C2: the candidate channels in pool order, the class channel first
    candidates = []
    has_class_channel = "kraus" in draws[0]
    if has_class_channel:
        candidates.append(_pad([draw["kraus"].operators for draw in draws], (d, d), complex))
    if probe_eigenbasis:
        candidates.append(_projectors(np.stack([linalg.hermitian_eig(m).eigenvectors for m in rho])))
    before = kernel(rho)
    afters = []
    for ops in candidates:
        _require_trace_preserving(ops, KRAUS_TP_TOL)
        if condition == "C2_average":
            afters.append(kernel(_average_output(ops, rho)))
        else:
            p, kept, normalized = _selective_readout(ops, rho, SELECTIVE_P_FLOOR)
            afters.append(np.where(kept, p * kernel(normalized), 0.0).sum(axis=1))
    afters = np.stack(afters)
    violations = afters - before
    # argmax keeps the first of equal candidates, as a strict > update would
    winner = np.argmax(violations, axis=0)
    pick = np.arange(n)
    return violations[winner, pick], {
        "class_channel": (winner == 0) & has_class_channel,
        "measure_before": before,
        "measure_after": afters[winner, pick],
    }


def _witness(condition: str, i: int, draw: dict, values: dict) -> dict:
    """Witness of sample i, built from its draw and its evaluated values."""
    witness = {"sample_index": i}
    witness.update((k, float(v)) for k, v in values.items() if k.startswith("measure_"))
    rho = draw["state"]
    if condition == "C0":
        witness.update(state=_matrix_json(rho), unitary=_matrix_json(draw["unitary"]))
    elif condition == "C1":
        if values["on_incoherent"]:
            incoherent = draw["incoherent"] if "incoherent" in draw else states.maximally_mixed(len(rho)).matrix
            witness.update(kind="nonzero_on_incoherent", state=_matrix_json(incoherent))
        else:
            witness.update(kind="below_floor_on_random", state=_matrix_json(rho))
    elif condition == "C3":
        witness.update(weights=[float(w) for w in draw["weights"]],
                       states=[_matrix_json(s) for s in draw["states"]])
    else:
        kraus = draw["kraus"] if values["class_channel"] else _eigenbasis_projection(states.DensityMatrix(rho))
        witness.update(state=_matrix_json(rho), channel_label=kraus.label,
                       kraus_operators=[_matrix_json(op) for op in kraus.operators])
    return witness


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

    Sample i draws its inputs from (seed, i). Samples are evaluated in
    blocks: a block's states, unitaries, Kraus sets and mixtures are
    stacked into arrays (Kraus sets and mixtures zero-padded to four
    members of weight zero) and each measure is one stacked eigenvalue
    solve. The block size follows from d so that one block's arrays take
    a few MB whatever the number of samples.

    The witness is the first sample that reaches the maximum violation.
    On a row that holds, that maximum is round-off (about 1e-15), so its
    sample_index may move with the LAPACK build.
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
    samples = int(samples)
    block = max(1, _BLOCK_BYTES // (16 * max(_MAX_PARTS, d) * d * d))
    best = None
    for start in range(0, samples, block):
        draws = [_draw(measure, condition, op_class, d, seed, i) for i in range(start, min(start + block, samples))]
        violation, values = _evaluate(measure, condition, probe_eigenbasis, draws)
        j = int(np.argmax(violation))
        if best is None or violation[j] > best[0]:
            best = (violation[j], start + j, draws[j], {k: v[j] for k, v in values.items()})
    max_violation, index, draw, values = best
    witness = _witness(condition, index, draw, values)

    return AuditReport(
        measure_name=measure,
        condition=condition,
        operation_class=op_class,
        dim=int(d),
        samples=samples,
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
