import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohkit.channels import (
    C1_POSITIVITY_FLOOR,
    MEASURE_FUNCTIONS,
    VERDICT_HOLDS,
    VERDICT_VIOLATED,
    AuditReport,
    KrausSet,
    apply_channel,
    audit_conditions,
    classify_kraus,
    selective_counterexample,
    selective_outcomes,
)
from cohkit.cli import EXPECTED_VERDICTS
from cohkit.errors import (
    DimensionMismatchError,
    InvalidArgumentsError,
    InvalidKrausError,
    NotHermitianError,
    NotPositiveError,
    NotUnitaryError,
    NotUnitTraceError,
    PureStateError,
)
from cohkit.linalg import hermitian_eig, hermitian_eigvals, require_hermitian
from cohkit.measures import ibiqc_coherence, von_neumann_entropy
from cohkit.states import (
    DensityMatrix,
    DiagonalState,
    PureState,
    apply_unitary,
    hadamard,
    haar_unitary,
    make_density,
    maximally_mixed,
    qubit_pair,
    random_channel,
    random_density,
    require_unitary,
)

P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def dephasing():
    return KrausSet(operators=(P0, P1), label="computational dephasing")


def test_apply_channel_single_unitary():
    u = haar_unitary(3, seed=5)
    rho = random_density(3, seed=8)
    out = apply_channel(KrausSet(operators=(u,)), rho)
    assert np.allclose(out.matrix, u @ rho.matrix @ u.conj().T, atol=1e-12)


def test_apply_channel_dephasing():
    _, rx0 = qubit_pair(0.0)
    out = apply_channel(dephasing(), rx0)
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_apply_channel_unital_mixture_fixes_delta0():
    delta = maximally_mixed(3)
    for seed in range(5):
        ks = random_channel("unital_mixture", d=3, k=3, seed=seed)
        out = apply_channel(ks, delta)
        assert np.linalg.norm(out.matrix - delta.matrix) < 1e-10


def test_apply_channel_rejects_incomplete_kraus():
    ks = KrausSet(operators=(P0,))
    with pytest.raises(InvalidKrausError):
        apply_channel(ks, maximally_mixed(2))


def test_apply_channel_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_channel(dephasing(), maximally_mixed(3))


def test_apply_channel_output_is_valid_state():
    # output must stay trace-one and PSD across all three families
    rng = np.random.default_rng(51)
    for kind in ("unital_mixture", "diagonal_incoherent", "general_tp"):
        for i in range(1000):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            ks = random_channel(kind, d=d, k=k, seed=int(rng.integers(0, 2**31)))
            rho = random_density(d, seed=int(rng.integers(0, 2**31)))
            out = apply_channel(ks, rho)
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-9
            checked = make_density(out.matrix)
            assert checked.dim == d


def test_selective_outcomes_identity():
    rho = random_density(2, seed=3)
    outcomes = selective_outcomes(KrausSet(operators=(np.eye(2, dtype=complex),)), rho)
    assert len(outcomes) == 1
    p, state = outcomes[0]
    assert p == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(state.matrix, rho.matrix, atol=1e-12)


def test_selective_outcomes_projectors():
    rz, _ = qubit_pair(math.pi / 6)
    outcomes = selective_outcomes(dephasing(), rz)
    assert len(outcomes) == 2
    assert outcomes[0][0] == pytest.approx(0.75, abs=1e-12)
    assert outcomes[1][0] == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(outcomes[0][1].matrix, P0, atol=1e-12)
    assert np.allclose(outcomes[1][1].matrix, P1, atol=1e-12)


def test_selective_outcomes_drops_null_branch():
    pure0 = make_density(P0)
    outcomes = selective_outcomes(dephasing(), pure0, p_floor=1e-12)
    assert len(outcomes) == 1
    assert outcomes[0][0] == pytest.approx(1.0, abs=1e-12)


def test_selective_outcomes_recombine():
    # with no floor the weighted outcomes must re-sum to the channel output
    rng = np.random.default_rng(53)
    for kind in ("unital_mixture", "diagonal_incoherent", "general_tp"):
        for i in range(30):
            d = int(rng.integers(2, 5))
            ks = random_channel(kind, d=d, k=int(rng.integers(1, 4)), seed=int(rng.integers(0, 2**31)))
            rho = random_density(d, seed=int(rng.integers(0, 2**31)))
            outcomes = selective_outcomes(ks, rho, p_floor=0.0)
            total_p = sum(p for p, _ in outcomes)
            mix = sum(p * s.matrix for p, s in outcomes)
            assert total_p == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(mix - apply_channel(ks, rho).matrix) < 1e-9


def test_classify_hadamard():
    flags = classify_kraus(KrausSet(operators=(hadamard(),)))
    assert flags.trace_preserving
    assert flags.unital
    assert not flags.diagonal_incoherent


def test_classify_projectors():
    flags = classify_kraus(dephasing())
    assert flags.trace_preserving
    assert flags.unital
    assert flags.diagonal_incoherent


def test_classify_amplitude_damping():
    gamma = 0.5
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    flags = classify_kraus(KrausSet(operators=(k0, k1)))
    assert flags.trace_preserving
    assert not flags.unital
    assert flags.diagonal_incoherent


def test_classify_generated_families():
    for seed in range(3):
        unital = classify_kraus(random_channel("unital_mixture", d=3, k=3, seed=seed))
        assert unital.trace_preserving and unital.unital
        diag = classify_kraus(random_channel("diagonal_incoherent", d=3, k=3, seed=seed))
        assert diag.trace_preserving and diag.diagonal_incoherent
        gen = classify_kraus(random_channel("general_tp", d=3, k=3, seed=seed))
        assert gen.trace_preserving
        assert not gen.unital


def test_audit_c0_ibiqc_holds():
    report = audit_conditions("ibiqc", "C0", d=3, samples=50, seed=1)
    assert report.verdict == "holds_within_tol"
    assert report.max_violation < 1e-9


def test_audit_c0_l1_violated():
    report = audit_conditions("l1", "C0", d=3, samples=50, seed=1)
    assert report.verdict == "violated"
    assert report.max_violation > 1e-6
    assert "sample_index" in report.witness


def test_audit_c1_ibiqc():
    report = audit_conditions("ibiqc", "C1", d=3, samples=50, seed=2)
    assert report.verdict == "holds_within_tol"
    assert ibiqc_coherence(maximally_mixed(3)) == 0.0


def test_audit_c2_average_ibiqc_unital_holds():
    report = audit_conditions("ibiqc", "C2_average", op_class="unital_mixture", d=3, samples=50, seed=3)
    assert report.verdict == "holds_within_tol"
    assert report.max_violation < 1e-9


def test_audit_c2_average_ibiqc_general_violated():
    # non-unital channels can push states toward purity and gain coherence
    report = audit_conditions("ibiqc", "C2_average", op_class="general_tp", d=3, samples=100, seed=3)
    assert report.verdict == "violated"
    assert report.max_violation > 1e-3
    assert "kraus_operators" in report.witness
    assert "state" in report.witness


def test_audit_c2_l1_re_diagonal_hold():
    for measure in ("l1", "re"):
        for condition in ("C2_average", "C2_selective"):
            report = audit_conditions(measure, condition, op_class="diagonal_incoherent", d=3, samples=50, seed=4)
            assert report.verdict == "holds_within_tol", (measure, condition)
            assert report.max_violation < 1e-9


def test_audit_c2_selective_ibiqc_unital_holds_without_probe():
    report = audit_conditions("ibiqc", "C2_selective", op_class="unital_mixture", d=2, samples=50, seed=5)
    assert report.verdict == "holds_within_tol"


def test_audit_c2_selective_ibiqc_probe_violated():
    report = audit_conditions(
        "ibiqc", "C2_selective", op_class="unital_mixture", d=2, samples=50, seed=5, probe_eigenbasis=True
    )
    assert report.verdict == "violated"
    assert report.max_violation > 0.1
    assert report.witness["channel_label"] == "eigenbasis_projection"


def test_audit_c3_all_measures_hold():
    for measure in ("l1", "re", "ibiqc"):
        report = audit_conditions(measure, "C3", d=3, samples=50, seed=6)
        assert report.verdict == "holds_within_tol", measure
        assert report.max_violation < 1e-9


def test_audit_deterministic():
    a = audit_conditions("ibiqc", "C2_average", op_class="general_tp", d=3, samples=30, seed=7)
    b = audit_conditions("ibiqc", "C2_average", op_class="general_tp", d=3, samples=30, seed=7)
    assert a.to_dict() == b.to_dict()
    assert a.to_json() == b.to_json()


def test_audit_report_shape():
    report = audit_conditions("re", "C0", d=2, samples=10, seed=8)
    d = report.to_dict()
    for key in (
        "measure_name",
        "condition",
        "operation_class",
        "dim",
        "samples",
        "seed",
        "tol",
        "probe_eigenbasis",
        "max_violation",
        "witness",
        "verdict",
    ):
        assert key in d
    assert isinstance(report, AuditReport)
    assert d["samples"] == 10


def test_audit_invalid_arguments():
    with pytest.raises(InvalidArgumentsError):
        audit_conditions("fidelity", "C0", d=2, samples=10, seed=0)
    with pytest.raises(InvalidArgumentsError):
        audit_conditions("ibiqc", "C9", d=2, samples=10, seed=0)
    with pytest.raises(InvalidArgumentsError):
        audit_conditions("ibiqc", "C0", d=2, samples=0, seed=0)
    with pytest.raises(InvalidArgumentsError):
        audit_conditions("ibiqc", "C2_average", d=2, samples=10, seed=0)
    with pytest.raises(InvalidArgumentsError):
        audit_conditions("ibiqc", "C0", d=2, samples=10, seed=-3)
    with pytest.raises(InvalidArgumentsError):
        audit_conditions("ibiqc", "C0", d=0, samples=10, seed=0)
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(InvalidArgumentsError):
            audit_conditions("l1", "C0", d=3, samples=10, seed=0, tol=tol)


@settings(max_examples=40, deadline=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), d=st.integers(2, 4), data=st.data())
def test_property_gates_reject_non_finite(bad, d, data):
    i = data.draw(st.integers(0, d - 1), label="i")
    j = data.draw(st.integers(0, d - 1), label="j")
    m = np.eye(d, dtype=complex) / d
    m[i, j] = bad
    for gate in (require_hermitian, hermitian_eig, hermitian_eigvals, make_density):
        with pytest.raises(NotHermitianError):
            gate(m)
    with pytest.raises(NotHermitianError):
        hermitian_eigvals(np.stack([np.eye(d) / d, m]))
    probs = np.full(d, 1.0 / d)
    probs[i] = bad
    with pytest.raises((NotPositiveError, NotUnitTraceError)):
        DiagonalState(probs)
    with pytest.raises(NotUnitTraceError):
        PureState(np.sqrt(probs.astype(complex)))
    u = np.eye(d, dtype=complex)
    u[i, j] = bad
    with pytest.raises(NotUnitaryError):
        apply_unitary(maximally_mixed(d), u)
    with pytest.raises(NotUnitaryError):
        require_unitary(np.stack([np.eye(d), u]))
    with pytest.raises(InvalidKrausError):
        apply_channel(KrausSet((u,)), maximally_mixed(d))
    assert KrausSet((u,)).unitality_defect() == math.inf
    with pytest.raises(InvalidArgumentsError):
        audit_conditions("l1", "C0", d=d, samples=1, seed=0, tol=bad)


def test_counterexample_qubit():
    rz, _ = qubit_pair(math.pi / 6)
    kraus, violation = selective_counterexample(rz)
    assert violation == pytest.approx(0.811278, abs=1e-6)
    assert violation == pytest.approx(von_neumann_entropy(rz), abs=1e-9)
    flags = classify_kraus(kraus)
    assert flags.trace_preserving
    assert flags.unital


def test_counterexample_maximally_mixed():
    kraus, violation = selective_counterexample(maximally_mixed(2))
    assert violation == pytest.approx(1.0, abs=1e-9)
    assert len(kraus.operators) == 2


def test_counterexample_matches_entropy():
    rng = np.random.default_rng(59)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        _, violation = selective_counterexample(rho)
        assert abs(violation - von_neumann_entropy(rho)) < 1e-9


def test_counterexample_rejects_pure_state():
    pure0 = make_density(P0)
    with pytest.raises(PureStateError):
        selective_counterexample(pure0)


# Every EXPECTED_VERDICTS row at d = 3, seed 11, 100 samples, recorded from
# the per-sample audit loop that preceded the block evaluation: verdict,
# max_violation, witness sample_index. The index is compared only where the
# maximum stands above round-off; on rows that hold it is an arg-max over
# noise that any change of eigensolver rounding may move.
PIN_D, PIN_SEED, PIN_SAMPLES = 3, 11, 100
H, V = VERDICT_HOLDS, VERDICT_VIOLATED
AUDIT_PIN = {
    ('ibiqc', 'C0', None, False): (H, 1.887379141862766e-15, 96),
    ('l1', 'C0', None, False): (V, 0.9538644479559546, 71),
    ('re', 'C0', None, False): (V, 0.6709348350288937, 71),
    ('l1', 'C1', None, False): (H, 0.0, 0),
    ('l1', 'C3', None, False): (H, -0.0012945809374385053, 81),
    ('re', 'C1', None, False): (H, 0.0, 0),
    ('re', 'C3', None, False): (H, -0.0014900687969566784, 81),
    ('ibiqc', 'C1', None, False): (H, 0.0, 0),
    ('ibiqc', 'C3', None, False): (H, -0.002049724336907255, 81),
    ('ibiqc', 'C2_average', 'unital_mixture', False): (H, 1.1102230246251565e-15, 56),
    ('ibiqc', 'C2_average', 'general_tp', False): (V, 0.13063971549330078, 70),
    ('l1', 'C2_average', 'diagonal_incoherent', False): (H, 4.440892098500626e-16, 82),
    ('re', 'C2_average', 'diagonal_incoherent', False): (H, 9.992007221626409e-16, 84),
    ('ibiqc', 'C0', None, True): (H, 1.887379141862766e-15, 96),
    ('l1', 'C0', None, True): (V, 0.9538644479559546, 71),
    ('re', 'C0', None, True): (V, 0.6709348350288937, 71),
    ('l1', 'C1', None, True): (H, 0.0, 0),
    ('l1', 'C3', None, True): (H, -0.0012945809374385053, 81),
    ('re', 'C1', None, True): (H, 0.0, 0),
    ('re', 'C3', None, True): (H, -0.0014900687969566784, 81),
    ('ibiqc', 'C1', None, True): (H, 0.0, 0),
    ('ibiqc', 'C3', None, True): (H, -0.002049724336907255, 81),
    ('ibiqc', 'C2_average', 'unital_mixture', True): (H, 1.9984014443252818e-15, 79),
    ('ibiqc', 'C2_average', 'general_tp', True): (V, 0.13063971549330078, 70),
    ('l1', 'C2_average', 'diagonal_incoherent', True): (H, 1.9984014443252818e-15, 7),
    ('re', 'C2_average', 'diagonal_incoherent', True): (H, 2.1094237467877974e-15, 65),
    ('l1', 'C2_selective', 'diagonal_incoherent', False): (H, 4.440892098500626e-16, 82),
    ('re', 'C2_selective', 'diagonal_incoherent', False): (H, 1.0547118733938987e-15, 84),
    ('ibiqc', 'C2_selective', 'unital_mixture', False): (H, 9.992007221626409e-16, 80),
    ('ibiqc', 'C2_selective', None, True): (V, 1.4405397859820734, 67),
    ('ibiqc', 'C2_selective', 'unital_mixture', True): (V, 1.4405397859820734, 67),
    ('ibiqc', 'C2_selective', 'diagonal_incoherent', True): (V, 1.4405397859820734, 67),
    ('ibiqc', 'C2_selective', 'general_tp', True): (V, 1.4405397859820734, 67),
}


def _witness_matrix(entries):
    a = np.asarray(entries, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _replayed_violation(report):
    """The report's max_violation, recomputed from its witness alone."""
    w = report.witness
    fn = MEASURE_FUNCTIONS[report.measure_name]
    if report.condition == "C0":
        rho = DensityMatrix(_witness_matrix(w["state"]))
        return abs(fn(apply_unitary(rho, _witness_matrix(w["unitary"]))) - fn(rho))
    if report.condition == "C1":
        assert fn(DensityMatrix(_witness_matrix(w["state"]))) == pytest.approx(w["measure_value"], abs=1e-12)
        if w["kind"] == "nonzero_on_incoherent":
            return w["measure_value"]
        return C1_POSITIVITY_FLOOR - w["measure_value"]
    if report.condition == "C3":
        return w["measure_mixture"] - w["measure_average"]
    return w["measure_after"] - w["measure_before"]


def test_audit_pin_covers_expected_verdicts():
    assert set(AUDIT_PIN) == set(EXPECTED_VERDICTS)


@pytest.mark.parametrize("row", list(AUDIT_PIN), ids=lambda row: "-".join(map(str, row)))
def test_audit_matches_pin_and_witness_replays(row):
    measure, condition, op_class, probe = row
    verdict, max_violation, sample_index = AUDIT_PIN[row]
    report = audit_conditions(measure, condition, op_class=op_class, d=PIN_D, samples=PIN_SAMPLES,
                              seed=PIN_SEED, probe_eigenbasis=probe)
    assert report.verdict == verdict
    assert report.max_violation == pytest.approx(max_violation, abs=1e-12)
    if max_violation > 1e-12:
        assert report.witness["sample_index"] == sample_index
    assert _replayed_violation(report) == pytest.approx(report.max_violation, abs=1e-12)
