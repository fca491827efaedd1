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
randomness from its own generator, bitwise default_rng([seed, i]), and a
block's generators are seeded by one stacked hash. Samples are
drawn and evaluated in blocks: each draw is made for every sample of the
block in turn, and the block's states and operators are built as stacked
arrays and measured with the stacked kernels of the measures module.
Reports serialize to stable JSON.
"""

from __future__ import annotations

import binascii
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg, measures, states
from .errors import (
    DimensionMismatchError,
    InvalidArgumentsError,
    InvalidKrausError,
    ParseError,
    PureStateError,
    require_choice,
    require_count,
    require_instance,
    require_real,
)
from .states import MAX_AUDIT_DIM, OPERATION_CLASSES, KrausSet

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
# The same measures on the pure states |v_j><v_j| of the columns v_j of a (..., d, d)
# stack, -> (..., d): their exact values, since a pure state's spectral entropy is 0.
_PURE_KERNELS = {
    "l1": lambda v: np.abs(v).sum(axis=-2) ** 2 - (np.abs(v) ** 2).sum(axis=-2),
    "re": lambda v: np.maximum(0.0, measures.entropy_bits(np.abs(v.swapaxes(-1, -2)) ** 2)),
    "ibiqc": lambda v: np.full(v.shape[:-2] + v.shape[-1:], math.log2(v.shape[-1])),
}
CONDITIONS = ("C0", "C1", "C2_average", "C2_selective", "C3")
VERDICT_HOLDS = "holds_within_tol"
VERDICT_VIOLATED = "violated"
REPORT_FORMAT = 3
# A later C2 candidate displaces the current winner of a sample only by more than this much.
WIN_MARGIN = 1e-12
# The C2 pools that hold the reset channel R(rho) = |0><0|, K_n = |0><n|: it is trace preserving
# and each K_n has one nonzero entry, so it belongs to both classes, but it is not unital.
RESET_CLASSES = ("diagonal_incoherent", "general_tp")
# diagnostics["violation_decades"] counts violations v <= 0, in (0, 1e-15], in each
# (10^k, 10^(k+1)] for k = -15 ... -1, and v > 1: one bin per gap between these edges.
_DECADE_EDGES = np.concatenate(([0.0], 10.0 ** np.arange(-15, 1)))
# ndim of each matrix entry a witness may hold: one matrix, or a stack of them
_WITNESS_NDIM = {"state": 2, "unitary": 2, "eigenvectors": 2, "kraus_operators": 3, "states": 3}

# Random class channels draw 1 to 4 Kraus operators and C3 mixes 2 to 4
# states: this bounds the draws and the size of a block (_BLOCK_BYTES). A
# block pads its sets only to the largest one it drew, with zero weight.
_MAX_PARTS = 4

# Size in bytes of the largest stacked array of one audit block: a block
# holds up to _MAX_PARTS complex d x d operators per sample (the eigenbasis
# probe needs only the state's eigenvectors, one d x d matrix). A block's
# working arrays are a small multiple of this, so an audit's memory does not
# grow with its sample count.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class KrausFlags:
    trace_preserving: bool
    unital: bool
    diagonal_incoherent: bool


def _kraus_outputs(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """K_n rho K_n^dagger for every operator: ops (..., k, d, d), rho (..., d, d)."""
    return ops @ rho[..., None, :, :] @ linalg.adjoint(ops)


def _require_trace_preserving(ops: np.ndarray) -> None:
    """Raise InvalidKrausError unless every set in a (..., k, d, d) stack is complete within KRAUS_TP_TOL."""
    defect = linalg.gram_defect(ops)
    if not (defect <= KRAUS_TP_TOL):
        raise InvalidKrausError(f"sum K^dagger K differs from identity by {defect:.3e}")


def _average_output(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Deterministic channel output of each state in a stack."""
    return linalg.hermitian_part(_kraus_outputs(ops, rho).sum(axis=-3))


def _selective_readout(ops: np.ndarray, rho: np.ndarray):
    """Outcome probabilities p and the mask kept = p >= SELECTIVE_P_FLOOR, both stacked,
    and the normalized states of the kept outcomes alone, in order: (kept.sum(), d, d)."""
    outs = _kraus_outputs(ops, rho)
    p = np.trace(outs, axis1=-2, axis2=-1).real
    kept = p >= SELECTIVE_P_FLOOR
    return p, kept, linalg.hermitian_part(outs[kept]) / p[kept][:, None, None]


def apply_channel(kraus: KrausSet, rho: states.DensityMatrix) -> states.DensityMatrix:
    """Deterministic channel action: sum of K rho K^dagger."""
    if require_instance("kraus", kraus, KrausSet).dim != require_instance("rho", rho, states.DensityMatrix).dim:
        raise DimensionMismatchError(f"channel dimension {kraus.dim} vs state dimension {rho.dim}")
    _require_trace_preserving(kraus.operators)
    return states.DensityMatrix(_average_output(kraus.operators, rho.matrix))


def selective_outcomes(kraus: KrausSet, rho: states.DensityMatrix) -> list[tuple[float, states.DensityMatrix]]:
    """Measurement-like readout: [(p_n, K_n rho K_n^dagger / p_n), ...].

    Outcomes with probability below SELECTIVE_P_FLOOR are dropped; the rest keep
    the Kraus order. InvalidKrausError, as in apply_channel, unless trace preserving.
    """
    if require_instance("kraus", kraus, KrausSet).dim != require_instance("rho", rho, states.DensityMatrix).dim:
        raise DimensionMismatchError(f"channel dimension {kraus.dim} vs state dimension {rho.dim}")
    _require_trace_preserving(kraus.operators)
    p, kept, normalized = _selective_readout(kraus.operators, rho.matrix)
    return [(float(q), states.DensityMatrix(m)) for q, m in zip(p[kept], normalized)]


def classify_kraus(kraus: KrausSet) -> KrausFlags:
    """Structural flags of a Kraus set; trace_preserving and unital at KRAUS_TP_TOL.

    diagonal_incoherent means every operator has at most one nonzero
    entry per column, which guarantees diagonal inputs map to diagonal
    outputs; the structural test is cross-checked behaviorally on the
    output of every basis state |j><j|, which by linearity covers every
    diagonal input.
    """
    ops = require_instance("kraus", kraus, KrausSet).operators
    structural = bool(((np.abs(ops) > STRUCTURAL_ENTRY_TOL).sum(axis=-2) <= 1).all())
    if structural:
        out = np.einsum("nij,nkj->jik", ops, ops.conj())
        structural = bool(np.abs(out - out * np.eye(kraus.dim)).max() < 1e-10)
    return KrausFlags(
        trace_preserving=linalg.gram_defect(ops) <= KRAUS_TP_TOL,
        unital=linalg.gram_defect(linalg.adjoint(ops)) <= KRAUS_TP_TOL,
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
    diagnostics: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Report format 3: one line per top-level key, "format" among them, in sorted
        order, each value as json.dumps(value, sort_keys=True) writes it, byte for byte.
        The base64 text of a matrix entry is copied as is, not scanned for escapes."""
        fields = sorted({**vars(self), "format": REPORT_FORMAT}.items())
        return "{\n" + ",\n".join(f"  {_ENCODE(key)}: {_render(value)}" for key, value in fields) + "\n}\n"


# One encoder for every report value: json.dumps(value, sort_keys=True) builds a new one per call.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


class _MatrixEntry(dict):
    """A dict that _matrix_json built, so its base64 text is known to need no JSON escapes."""


def _render(value) -> str:
    """json.dumps(value, sort_keys=True), byte for byte. A matrix entry that _matrix_json
    built is written directly: base64 text holds only A-Z a-z 0-9 + / =, none of which
    JSON escapes, so its text is copied as is and never scanned. Any other dict, even one
    with the same keys, goes through the encoder."""
    if not isinstance(value, dict):
        return _ENCODE(value)
    if type(value) is _MatrixEntry:
        return f'{{"base64": "{value["base64"]}", "dtype": "<c16", "shape": {_ENCODE(value["shape"])}}}'
    return "{" + ", ".join(f"{_ENCODE(key)}: {_render(item)}" for key, item in sorted(value.items())) + "}"


def _matrix_json(m) -> dict:
    """A complex matrix, or a stack of them, exactly: its little-endian complex128 bytes in base64."""
    a = np.ascontiguousarray(m, dtype="<c16")
    return _MatrixEntry(base64=binascii.b2a_base64(a, newline=False).decode("ascii"), dtype="<c16", shape=list(a.shape))


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """|v_j><v_j| for each column v_j: (..., d, d) vectors -> (..., d, d, d) operators."""
    return np.einsum("...ij,...kj->...jik", vecs, vecs.conj())


def _reset_operators(d: int) -> np.ndarray:
    """The reset channel's Kraus operators K_n = |0><n|, n = 0 ... d - 1, as a (d, d, d) stack."""
    ops = np.zeros((d, d, d), dtype=complex)
    ops[:, 0, :] = np.eye(d)
    return ops


def _audit_block(measure: str, condition: str, op_class, probe_eigenbasis: bool, d: int, seed: int,
                 indices: range):
    """(violations, counts, witness) of the samples in indices: counts holds the per-sample
    arrays the audit sums (the *_wins of the C2 candidates, dropped_outcomes for C2_selective);
    witness(j) builds the fields of block sample j's witness: its matrices, kind (C1),
    channel_label (C2) and measure_* values. It decomposes rho[j] only for a winning
    C2_average probe, the identity channel, whose value is before itself, exactly.

    Sample i draws on its own generator from states.sample_generators, bitwise
    default_rng([seed, i]), in a fixed order: the state, then the unitary (C0), the
    incoherent state (C1, not for ibiqc, whose incoherent set is I/d alone), the Kraus
    count and class channel (C2), or the mixture size, weights and members (C3). Each draw is
    made for the whole block in turn, written straight into the block's stacked array; Kraus
    sets and mixtures are zero-padded, with weight zero, to the block's largest set.
    """
    kernel = _MEASURE_KERNELS[measure]
    rngs = states.sample_generators(seed, indices)
    rho = states.density_stack(states.normal_stack(rngs, (2, d, d)))
    if condition == "C0":
        u = states.isometry_stack(states.normal_stack(rngs, (2, d, d)))
        states.require_unitary(u)
        # a unitary is a one-operator channel
        rotated = _average_output(u[:, None], rho)
        return (np.abs(kernel(rotated) - kernel(rho)), {},
                lambda j: {"state": _matrix_json(rho[j]), "unitary": _matrix_json(u[j])})
    if condition == "C1":
        if measure == "ibiqc":
            incoherent = np.broadcast_to(states.maximally_mixed(d).matrix, rho.shape)
        else:
            probs = states.require_probabilities(states.dirichlet_stack(rngs, np.full(len(rngs), d)))
            incoherent = np.eye(d, dtype=complex) * probs[:, None, :]
        random_value = kernel(rho)
        zero_side = kernel(incoherent)
        positive_side = C1_POSITIVITY_FLOOR - random_value
        on_incoherent = zero_side >= positive_side

        def witness(j):
            kind, state, value = (("nonzero_on_incoherent", incoherent, zero_side) if on_incoherent[j]
                                  else ("below_floor_on_random", rho, random_value))
            return {"kind": kind, "state": _matrix_json(state[j]), "measure_value": float(value[j])}
        return np.where(on_incoherent, zero_side, positive_side), {}, witness
    if condition == "C3":
        parts = np.array([rng.integers(2, _MAX_PARTS + 1) for rng in rngs])
        weights = states.dirichlet_stack(rngs, parts)
        members = states.pad_parts(parts, states.density_stack(states.normal_stack(rngs, (2, d, d), parts)))
        mixture = kernel(np.einsum("nm,nmij->nij", weights, members))
        average = (weights * kernel(members)).sum(axis=1)

        def witness(j):
            k = parts[j]
            return {"weights": weights[j, :k].tolist(), "states": _matrix_json(members[j, :k]),
                    "measure_mixture": float(mixture[j]), "measure_average": float(average[j])}
        return mixture - average, {}, witness
    # C2: one value per candidate, in pool order: the class channel, the reset, the probe
    before = kernel(rho)
    average = condition == "C2_average"
    pool, afters, dropped = [], [], []

    # the one readout rule of every candidate: averaged, values is its value on each sample;
    # selective, its value sums p * values over the outcomes whose probability p (n, outcomes)
    # is at least SELECTIVE_P_FLOOR, and its other outcomes count as dropped
    def readout(name, p, values, outcomes):
        pool.append(name)
        if average:
            afters.append(np.broadcast_to(values, before.shape))
            return
        kept = p >= SELECTIVE_P_FLOOR
        afters.append(np.where(kept, p * values, 0.0).sum(axis=1))
        dropped.append(outcomes - kept.sum(axis=1))

    if op_class is not None:
        parts = np.array([rng.integers(1, _MAX_PARTS + 1) for rng in rngs])
        kraus = states.kraus_stack(op_class, d, parts, rngs)
        _require_trace_preserving(kraus)
        if average:
            p, values = None, kernel(_average_output(kraus, rho))
        else:
            # only kept outcomes are measured; a zero-padded operator has p = 0 exactly, so it
            # is never kept and is no outcome
            p, kept, normalized = _selective_readout(kraus, rho)
            values = np.zeros(p.shape)
            values[kept] = kernel(normalized)
        readout("class_channel", p, values, parts)
    if op_class in RESET_CLASSES:
        # in closed form: the output, and each selective outcome n (with p_n = rho_nn), is the
        # pure state |0><0|, the first column of the identity (the ibiqc kernel reads d off its shape)
        reset = _PURE_KERNELS[measure](np.eye(d, dtype=complex))[0]
        readout("reset", np.diagonal(rho, axis1=-2, axis2=-1).real, reset, d)
    if probe_eigenbasis:
        if average:
            # sum_j P_j rho P_j over rho's own eigenprojectors is rho: the probe changes nothing
            p, values = None, before
        else:
            # kept per sample, so a winning probe's witness needs no second eigh
            vecs = linalg.hermitian_eig_stack(rho).eigenvectors
            # the projectors P_j = |v_j><v_j| have sum P_j^dagger P_j = V V^dagger
            states.require_unitary(vecs)
            # outcome j leaves the pure state |v_j><v_j| with probability <v_j|rho|v_j>
            p, values = (vecs.conj() * (rho @ vecs)).sum(axis=-2).real, _PURE_KERNELS[measure](vecs)
        readout("probe", p, values, d)
    afters = np.stack(afters)
    violations = afters - before
    pick = np.arange(len(rho))
    # a later candidate displaces the current winner only by more than WIN_MARGIN
    winner = np.zeros(len(rho), dtype=int)
    for k in range(1, len(pool)):
        winner = np.where(violations[k] > violations[winner, pick] + WIN_MARGIN, k, winner)
    # a candidate outside the pool wins no sample
    counts = {"class_channel_wins": 0, "probe_wins": 0} | {f"{name}_wins": winner == k for k, name in enumerate(pool)}
    if dropped:
        counts["dropped_outcomes"] = sum(dropped)

    def witness(j):
        w = {"state": _matrix_json(rho[j]), "measure_before": float(before[j]),
             "measure_after": float(afters[winner[j], j])}
        if pool[winner[j]] == "class_channel":
            k = parts[j]
            return {**w, "channel_label": f"{op_class}(d={d}, k={k})", "kraus_operators": _matrix_json(kraus[j, :k])}
        if pool[winner[j]] == "reset":
            return {**w, "channel_label": f"reset(d={d})"}
        v = linalg.hermitian_eig(rho[j]).eigenvectors if average else vecs[j]
        states.require_unitary(v)
        return {**w, "channel_label": "eigenbasis_projection", "eigenvectors": _matrix_json(v)}
    return violations[winner, pick], counts, witness


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
           ibiqc. An exact tie takes the incoherent side.
      C2_average    C(channel(rho)) - C(rho).
      C2_selective  sum_n p_n C(rho_n) - C(rho) over outcomes p_n >= SELECTIVE_P_FLOOR.
      C3   C(mixture) - weighted average of member values, for Dirichlet
           mixtures of up to four random states.

    For C2 conditions each sample tries a pool of channels, in this order: a
    random op_class channel; the reset R(rho) = |0><0|, Kraus operators |0><n|,
    when op_class is in RESET_CLASSES; and, with probe_eigenbasis, the
    projective measurement onto the state's eigenbasis. Each sample takes the
    worst candidate, but a later one displaces the current winner only by more
    than WIN_MARGIN. The reset is closed form and draws nothing: averaged, its
    output is |0><0|; selective, outcome n has p_n = rho_nn and leaves |0><0|.
    Averaged (C2_average), the probe is the identity channel: its value is
    C(rho) itself, so its violation is exactly 0 and nothing is solved for it.
    Selective (C2_selective), it takes one stacked eigh per block: outcome j
    has probability p_j = <v_j|rho|v_j> and leaves the pure state |v_j><v_j|,
    whose measure values _PURE_KERNELS gives exactly. No projector is built.
    verdict is "holds_within_tol" iff the maximum violation is at most tol.

    Sample i draws its inputs from its own generator, bitwise
    default_rng([seed, i]); samples is at most 2**32, and d at most MAX_AUDIT_DIM.
    Samples are drawn and evaluated in blocks: the states, unitaries, Kraus
    sets and mixtures of a block are built as stacked arrays (Kraus sets
    and mixtures zero-padded, with weight zero, to the block's largest set
    of at most four), and each measure is one stacked eigenvalue solve. The
    block size follows from d so that one block's arrays take a few MB
    whatever the number of samples; the report does not depend on it.

    The witness is the first sample that reaches the maximum violation. On a
    row that holds, that maximum is round-off (about 1e-15), so its sample_index
    may move with the LAPACK build; a C2_average probe row without a class reads
    exactly 0.0 at sample 0. A winning probe writes the state's eigenvectors v_j
    (in C2_average, that state's own eigh); its Kraus operators are |v_j><v_j|.
    A winning reset writes channel_label "reset(d=...)" and no operators.

    diagnostics holds counters over every sample, not kept per sample:
    min_violation, samples_above_tol (the violations strictly above tol),
    violation_decades (see _DECADE_EDGES); for C2, class_channel_wins,
    probe_wins and, in RESET_CLASSES, reset_wins, the samples each candidate
    won; for C2_selective, dropped_outcomes, the outcomes below
    SELECTIVE_P_FLOOR, summed over every candidate.
    """
    op_class = validate_audit_arguments(measure, condition, op_class, d, samples, seed, tol, probe_eigenbasis)
    samples = int(samples)
    block = max(1, _BLOCK_BYTES // (16 * _MAX_PARTS * d * d))
    best = None
    diagnostics = {"min_violation": math.inf}
    decades = np.zeros(len(_DECADE_EDGES) + 1, dtype=int)
    for start in range(0, samples, block):
        indices = range(start, min(start + block, samples))
        violation, counts, witness = _audit_block(measure, condition, op_class, probe_eigenbasis, d, seed, indices)
        j = int(np.argmax(violation))
        if best is None or violation[j] > best[0]:
            best = (violation[j], start + j, witness, j)
        diagnostics["min_violation"] = min(diagnostics["min_violation"], float(violation.min()))
        decades += np.bincount(np.searchsorted(_DECADE_EDGES, violation), minlength=len(decades))
        for name, per_sample in {"samples_above_tol": violation > tol, **counts}.items():
            diagnostics[name] = diagnostics.get(name, 0) + int(np.sum(per_sample))
    max_violation, index, witness, j = best
    diagnostics["violation_decades"] = decades.tolist()

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
        witness={"sample_index": index, **witness(j)},
        verdict=VERDICT_HOLDS if max_violation <= tol else VERDICT_VIOLATED,
        diagnostics=diagnostics,
    )


def validate_audit_arguments(measure: str, condition: str, op_class: str | None, d: int, samples: int, seed: int,
                             tol: float, probe_eigenbasis: bool) -> str | None:
    """Raise InvalidArgumentsError unless audit_conditions accepts these
    arguments; return the operation class the audit uses (None outside C2)."""
    require_choice("measure", measure, MEASURE_FUNCTIONS)
    require_choice("condition", condition, CONDITIONS)
    # sample indices below 2**32 are one 32-bit seed word, as sample_generators needs
    require_count("samples", samples, 1, 2**32)
    # a one-state space (d = 1) holds only I/1 and has no coherence to audit
    require_count("d", d, 2, MAX_AUDIT_DIM)
    require_count("seed", seed, 0)
    require_real("tol", tol, lo=0)
    if not isinstance(probe_eigenbasis, (bool, np.bool_)):
        raise InvalidArgumentsError(f"probe_eigenbasis must be a bool, got {probe_eigenbasis!r}")
    if condition not in ("C2_average", "C2_selective"):
        return None
    if op_class is None and not probe_eigenbasis:
        raise InvalidArgumentsError(f"{condition} needs an operation class or probe_eigenbasis")
    return op_class if op_class is None else require_choice("operation class", op_class, OPERATION_CLASSES)


def _witness_matrices(entry, ndim: int) -> np.ndarray:
    """The matrix (ndim 2) or stack (ndim 3) that _matrix_json wrote as entry; ParseError if it is none."""
    if not isinstance(entry, dict) or set(entry) != {"base64", "dtype", "shape"} or entry["dtype"] != "<c16":
        raise ParseError(f"expected a matrix entry {{base64, dtype: '<c16', shape}}, got {entry!r:.80}")
    shape = entry["shape"]
    if not isinstance(shape, list) or len(shape) != ndim or shape[-1] != shape[-2]:
        raise ParseError(f"expected a shape of {ndim} integers, the last two equal, got {shape!r}")
    size = 16 * math.prod(require_count("a shape entry", n, 0, error=ParseError) for n in shape)
    if shape[-1] > MAX_AUDIT_DIM:
        raise ParseError(f"expected matrices of dimension at most MAX_AUDIT_DIM = {MAX_AUDIT_DIM}, got shape {shape}")
    try:
        data = binascii.a2b_base64(entry["base64"], strict_mode=True)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"matrix data is not base64: {exc}") from exc
    if len(data) != size:
        raise ParseError(f"expected {size} bytes of matrix data for shape {shape}, got {len(data)}")
    return np.frombuffer(data, dtype="<c16").reshape(shape)


def witness_arrays(witness) -> dict:
    """Every matrix entry of a witness dict, decoded, by name; ParseError if one cannot be read."""
    return {key: _witness_matrices(witness[key], ndim) for key, ndim in _WITNESS_NDIM.items() if key in witness}


def replay_violation(report: dict) -> float:
    """A report's violation, recomputed from its witness matrices alone.

    report is AuditReport.to_dict() output or a parsed report file. The
    value goes through the scalar API: apply_unitary (C0); the measure of
    the witness state on its branch (C1); apply_channel or
    selective_outcomes on the witness's Kraus set (C2), whose operators a
    probe witness gives as the projectors |v_j><v_j| of its eigenvectors
    and a reset witness (channel_label "reset(d=...)", d the state's
    dimension) not at all: replay builds its |0><n| itself;
    and the weighted mixture of the witness states (C3). It equals the
    report's max_violation to round-off. A witness that cannot be read
    raises ParseError; readable matrices that are not a valid state (read
    through make_density), unitary or channel, and C3 weights that are not
    probabilities (require_probabilities), raise that check's error.
    """
    try:
        fn = MEASURE_FUNCTIONS[report["measure_name"]]
        condition, w = report["condition"], report["witness"]
        m = witness_arrays(w)
        if condition == "C3":
            weights = states.require_probabilities(np.asarray(w["weights"], dtype=float))
            members = [states.make_density(s) for s in m["states"]]
            mixture = states.DensityMatrix(np.einsum("m,mij->ij", weights, m["states"]))
            return fn(mixture) - sum(p * fn(s) for p, s in zip(weights, members))
        rho = states.make_density(m["state"])
        if condition == "C0":
            return abs(fn(states.apply_unitary(rho, m["unitary"])) - fn(rho))
        if condition == "C1" and w["kind"] == "nonzero_on_incoherent":
            return fn(rho)
        if condition == "C1" and w["kind"] == "below_floor_on_random":
            return C1_POSITIVITY_FLOOR - fn(rho)
        if condition in ("C2_average", "C2_selective"):
            if w.get("channel_label") == f"reset(d={rho.dim})":
                kraus = KrausSet(_reset_operators(rho.dim))
            else:
                kraus = KrausSet(m["kraus_operators"] if "kraus_operators" in m else _projectors(m["eigenvectors"]))
            if condition == "C2_average":
                return fn(apply_channel(kraus, rho)) - fn(rho)
            return sum(p * fn(out) for p, out in selective_outcomes(kraus, rho)) - fn(rho)
    except (KeyError, TypeError, ValueError, IndexError, DimensionMismatchError) as exc:
        raise ParseError(f"cannot read the report's witness: {exc!r}") from exc
    raise ParseError(f"cannot replay a {condition!r} witness of kind {w.get('kind')!r}")


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
    kraus = KrausSet(_projectors(linalg.hermitian_eig(rho.matrix).eigenvectors))
    before = measures.ibiqc_coherence(rho)
    after = sum(p * measures.ibiqc_coherence(out) for p, out in selective_outcomes(kraus, rho))
    return kraus, float(after - before)
