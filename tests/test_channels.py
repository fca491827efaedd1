import binascii
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cohkit import channels, linalg, states
from cohkit.channels import (
    VERDICT_HOLDS,
    VERDICT_VIOLATED,
    AuditReport,
    KrausFlags,
    KrausSet,
    apply_channel,
    audit_conditions,
    classify_kraus,
    replay_violation,
    selective_counterexample,
    selective_outcomes,
)
from cohkit.cli import EXPECTED_VERDICTS
from cohkit.errors import (
    DimensionMismatchError,
    InvalidArgumentsError,
    InvalidDimensionError,
    InvalidKrausError,
    NotHermitianError,
    NotPositiveError,
    NotUnitaryError,
    NotUnitTraceError,
    ParseError,
    PureStateError,
)
from cohkit.linalg import hermitian_eig, hermitian_eig_stack, hermitian_eigvals, require_hermitian
from cohkit.measures import ibiqc_coherence, l1_coherence, von_neumann_entropy
from cohkit.states import (
    OPERATION_CLASSES,
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
    return KrausSet(operators=(P0, P1))


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


def test_replay_rejects_a_tampered_selective_witness():
    # 2 K is no channel: without selective_outcomes' gate its outcomes would carry probability 4
    report = audit_conditions("ibiqc", "C2_selective", "unital_mixture", d=2, samples=5, seed=1).to_dict()
    ops = channels._witness_matrices(report["witness"]["kraus_operators"], 3)
    report["witness"]["kraus_operators"] = channels._matrix_json(2 * ops)
    with pytest.raises(InvalidKrausError):
        replay_violation(report)


def test_replay_rejects_invalid_witness_states():
    # no density matrix, so no value: a trace-2 state, a non-positive one, and C3 weights that are no probabilities
    report = audit_conditions("ibiqc", "C2_average", "general_tp", d=2, samples=5, seed=1).to_dict()
    report["witness"]["state"] = channels._matrix_json(2 * _witness_matrix(report["witness"]["state"]))
    with pytest.raises(NotUnitTraceError):
        replay_violation(report)
    report = audit_conditions("l1", "C0", d=2, samples=5, seed=1).to_dict()
    report["witness"]["state"] = channels._matrix_json(np.diag([2.0, -1.0]))
    with pytest.raises(NotPositiveError):
        replay_violation(report)
    report = audit_conditions("re", "C3", d=2, samples=5, seed=1).to_dict()
    witness = report["witness"]
    members = channels._witness_matrices(witness["states"], 3).copy()
    members[0] = np.diag([2.0, -1.0])
    weights = [-witness["weights"][0], *witness["weights"][1:]]
    for broken, error in (({"states": channels._matrix_json(members)}, NotPositiveError),
                          ({"weights": weights}, NotPositiveError),
                          ({"weights": [2 * w for w in witness["weights"]]}, NotUnitTraceError)):
        with pytest.raises(error):
            replay_violation({**report, "witness": {**witness, **broken}})


def test_apply_channel_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_channel(dephasing(), maximally_mixed(3))
    with pytest.raises(DimensionMismatchError):
        selective_outcomes(dephasing(), maximally_mixed(3))


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
    outcomes = selective_outcomes(dephasing(), pure0)
    assert len(outcomes) == 1
    assert outcomes[0][0] == pytest.approx(1.0, abs=1e-12)


def test_selective_outcomes_recombine():
    # the kept outcomes re-sum to the channel output: each dropped one carries under SELECTIVE_P_FLOOR
    rng = np.random.default_rng(53)
    for kind in ("unital_mixture", "diagonal_incoherent", "general_tp"):
        for i in range(30):
            d = int(rng.integers(2, 5))
            ks = random_channel(kind, d=d, k=int(rng.integers(1, 4)), seed=int(rng.integers(0, 2**31)))
            rho = random_density(d, seed=int(rng.integers(0, 2**31)))
            outcomes = selective_outcomes(ks, rho)
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


def test_kraus_set_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        KrausSet(())
    with pytest.raises(DimensionMismatchError):
        KrausSet((np.eye(2), np.eye(3)))
    with pytest.raises(DimensionMismatchError):
        KrausSet(np.eye(2))


def test_kraus_set_is_one_complex_stack():
    ops = (P0, P1.real)
    forms = [KrausSet(ops), KrausSet(list(ops)), KrausSet(np.stack(ops))]
    for kraus in forms:
        assert kraus.operators.dtype == complex
        assert kraus.operators.shape == (2, 2, 2)
        assert kraus.dim == 2
        assert np.array_equal(kraus.operators, forms[0].operators)


def test_kraus_set_holds_private_read_only_copy():
    ops = np.stack([P0, P1])
    kraus = KrausSet(ops)
    ops[0, 0, 0] = 7
    assert kraus.operators[0, 0, 0] == 1
    with pytest.raises(ValueError):
        kraus.operators[0, 0, 0] = 2


def test_classify_non_finite_is_not_diagonal():
    u = np.eye(2, dtype=complex)
    u[0, 0] = math.nan
    assert classify_kraus(KrausSet((u,))) == KrausFlags(False, False, False)


def test_classify_checks_the_output_of_every_basis_state():
    # At most one nonzero per column is the structural test of an incoherent
    # operation (Baumgratz, Cramer & Plenio, PRL 113, 140401 (2014)). Here the
    # 9e-13 entry passes it as zero, but |1><1| maps to an output whose
    # off-diagonal entry is 1e3 * 9e-13 = 9e-10, beyond the 1e-10 check.
    k = np.array([[1.0, 1e3], [0.0, 9e-13]], dtype=complex)
    assert not classify_kraus(KrausSet((k,))).diagonal_incoherent
    assert classify_kraus(KrausSet((np.array([[0, 1e3], [1, 0]], dtype=complex),))).diagonal_incoherent


def test_classify_draws_no_random_numbers(monkeypatch):
    kraus = [random_channel(kind, d=3, k=2, seed=4) for kind in ("unital_mixture", "diagonal_incoherent", "general_tp")]
    expected = [classify_kraus(k) for k in kraus]

    def no_rng(*args, **kwargs):
        raise AssertionError("classify_kraus drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert [classify_kraus(k) for k in kraus] == expected
    assert [flags.diagonal_incoherent for flags in expected] == [False, True, False]


def test_classify_agrees_with_the_gate_at_a_defect_equal_to_the_tolerance(monkeypatch):
    monkeypatch.setattr(linalg, "gram_defect", lambda ops: channels.KRAUS_TP_TOL)
    kraus = dephasing()
    apply_channel(kraus, maximally_mixed(2))
    flags = classify_kraus(kraus)
    assert flags.trace_preserving and flags.unital


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 5), k=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_property_unital_mixture_never_raises_ibiqc(d, k, seed):
    rho = random_density(d, seed)
    channel = random_channel("unital_mixture", d, k, seed + 1)
    assert ibiqc_coherence(apply_channel(channel, rho)) <= ibiqc_coherence(rho) + 1e-12
    unital = classify_kraus(channel)
    assert unital.trace_preserving and unital.unital
    diag = classify_kraus(random_channel("diagonal_incoherent", d, k, seed))
    assert diag.trace_preserving and diag.diagonal_incoherent
    gen = classify_kraus(random_channel("general_tp", d, k, seed))
    assert gen.trace_preserving
    # one operator of a d -> d isometry is a unitary, and so unital
    assert gen.unital == (k == 1)


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
    # non-unital channels can push states toward purity and gain coherence; the reset, which
    # leaves the pure state |0><0|, gains all of S(rho)
    report = audit_conditions("ibiqc", "C2_average", op_class="general_tp", d=3, samples=100, seed=3)
    assert report.verdict == "violated"
    assert report.max_violation > 1e-3
    assert report.diagnostics["reset_wins"] > 0
    assert report.witness["channel_label"] == "reset(d=3)"
    assert "kraus_operators" not in report.witness and "eigenvectors" not in report.witness
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
    assert "eigenvectors" in report.witness and "kraus_operators" not in report.witness


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
        "diagnostics",
    ):
        assert key in d
    assert isinstance(report, AuditReport)
    assert d["samples"] == 10


@pytest.mark.parametrize("row", [("ibiqc", "C2_average", "general_tp", False), ("re", "C3", None, False),
                                 ("ibiqc", "C2_selective", "general_tp", True)],
                         ids=lambda row: "-".join(map(str, row)))
def test_to_dict_equals_asdict_and_is_a_deep_copy(row):
    measure, condition, op_class, probe = row
    report = audit_conditions(measure, condition, op_class, d=3, samples=10, seed=3, probe_eigenbasis=probe)
    expected = dataclasses.asdict(report)
    copy = report.to_dict()
    assert copy == expected
    assert list(copy) == list(expected)
    for value in copy["witness"].values():
        if isinstance(value, list):
            if isinstance(value[0], list):
                value[0].append(None)
            value.append(None)
    copy["diagnostics"].clear()
    assert dataclasses.asdict(report) == expected


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
        audit_conditions("ibiqc", "C2_average", "unitary", d=2, samples=10, seed=0)
    with pytest.raises(InvalidArgumentsError):
        audit_conditions("ibiqc", "C0", d=2, samples=10, seed=-3)
    for d in (0, 1):
        with pytest.raises(InvalidArgumentsError):
            audit_conditions("ibiqc", "C0", d=d, samples=10, seed=0)
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(InvalidArgumentsError):
            audit_conditions("l1", "C0", d=3, samples=10, seed=0, tol=tol)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: states.random_density(True, 0), InvalidDimensionError),
        (lambda: states.haar_unitary(True, 0), InvalidDimensionError),
        (lambda: states.maximally_mixed(True), InvalidDimensionError),
        (lambda: states.glauber_truncated(1.0, True), InvalidDimensionError),
        (lambda: states.random_channel("general_tp", True), InvalidDimensionError),
        (lambda: states.random_channel("general_tp", 2, k=True), InvalidDimensionError),
        (lambda: audit_conditions("l1", "C0", d=True, samples=10, seed=0), InvalidArgumentsError),
        (lambda: audit_conditions("l1", "C0", d=3, samples=True, seed=0), InvalidArgumentsError),
        (lambda: audit_conditions("l1", "C0", d=3, samples=10, seed=True), InvalidArgumentsError),
        (lambda: audit_conditions("l1", "C0", d=3, samples=10, seed=0, tol=True), InvalidArgumentsError),
    ],
    ids=["random_density-d", "haar_unitary-d", "maximally_mixed-d", "glauber_truncated-d", "random_channel-d",
         "random_channel-k", "audit-d", "audit-samples", "audit-seed", "audit-tol"],
)
def test_bools_fail_the_integer_and_tolerance_gates(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("seed", [-1, "x", 1.5, math.nan, None, True, np.zeros(2)])
@pytest.mark.parametrize("draw", [lambda seed: states.random_density(2, seed),
                                  lambda seed: states.haar_unitary(2, seed),
                                  lambda seed: states.random_channel("general_tp", 2, seed=seed)],
                         ids=["random_density", "haar_unitary", "random_channel"])
def test_samplers_take_a_generator_or_a_non_negative_integer_seed(draw, seed):
    with pytest.raises(InvalidArgumentsError):
        draw(seed)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, True, "0.5", None, 2**1024, np.zeros(2)])
def test_qubit_pair_takes_a_finite_real_angle(alpha):
    with pytest.raises(InvalidArgumentsError):
        qubit_pair(alpha)


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": "1e-9"}, {"tol": None}, {"tol": -1e-9}, {"d": 257}, {"d": 2**70}, {"d": 2.0}, {"seed": 2.0},
     {"samples": 2**70}, {"probe_eigenbasis": "no"}, {"probe_eigenbasis": 1}, {"probe_eigenbasis": None}],
    ids=lambda kwargs: "-".join(f"{k}={v!r}" for k, v in kwargs.items()),
)
def test_audit_gates_raise_invalid_arguments(kwargs):
    args = {"d": 3, "samples": 1, "seed": 0, **kwargs}
    with pytest.raises(InvalidArgumentsError):
        audit_conditions("ibiqc", "C2_selective", "unital_mixture", **args)


def test_audit_takes_numpy_scalars_and_bools():
    report = audit_conditions("ibiqc", "C2_selective", "unital_mixture", d=np.int64(3), samples=np.int32(5),
                              seed=np.uint8(2), tol=np.float64(1e-9), probe_eigenbasis=np.True_)
    assert report.to_json() == audit_conditions("ibiqc", "C2_selective", "unital_mixture", d=3, samples=5, seed=2,
                                                probe_eigenbasis=True).to_json()


def test_audit_c1_gates_dirichlet_draws_as_one_stack(monkeypatch):
    shapes = []
    gate = states.require_probabilities

    def spy(p):
        shapes.append(p.shape)
        return gate(p)

    monkeypatch.setattr(states, "require_probabilities", spy)
    audit_conditions("l1", "C1", d=3, samples=5, seed=1)
    assert shapes == [(5, 3)]


BLOCK_ROWS = [
    ("l1", "C0", None, False),
    ("l1", "C1", None, False),
    ("ibiqc", "C1", None, False),
    ("re", "C3", None, False),
    ("ibiqc", "C2_average", "unital_mixture", False),
    ("l1", "C2_selective", "diagonal_incoherent", False),
    ("ibiqc", "C2_average", "general_tp", False),
    ("ibiqc", "C2_selective", "unital_mixture", True),
    ("re", "C2_selective", "general_tp", False),
]


@pytest.mark.parametrize("row", BLOCK_ROWS, ids=lambda row: "-".join(map(str, row)))
def test_audit_bytes_do_not_depend_on_block_size(monkeypatch, row):
    measure, condition, op_class, probe = row
    d, samples, seed = 3, 20, 5
    if op_class == "general_tp":
        # replay each sample's draws up to its Kraus count: the state's normals, then integers(1, 5)
        ks = set()
        for i in range(samples):
            rng = np.random.default_rng([seed, i])
            rng.standard_normal((2, d, d))
            ks.add(int(rng.integers(1, channels._MAX_PARTS + 1)))
        assert len(ks) > 1
    default = audit_conditions(measure, condition, op_class, d=d, samples=samples, seed=seed,
                               probe_eigenbasis=probe).to_json()
    for size in (1, 7):
        per_sample = 16 * max(channels._MAX_PARTS, d) * d * d
        monkeypatch.setattr(channels, "_BLOCK_BYTES", size * per_sample)
        report = audit_conditions(measure, condition, op_class, d=d, samples=samples, seed=seed,
                                  probe_eigenbasis=probe)
        assert report.to_json() == default, size


@pytest.mark.parametrize("row", BLOCK_ROWS, ids=lambda row: "-".join(map(str, row)))
def test_min_violation_covers_every_sample_of_every_block(monkeypatch, row):
    measure, condition, op_class, probe = row
    d, samples, seed = 3, 20, 5
    op_class = channels.validate_audit_arguments(measure, condition, op_class, d, samples, seed, 0.0, probe)
    violations = channels._audit_block(measure, condition, op_class, probe, d, seed, range(samples))[0]
    assert len(violations) == samples
    # blocks of 1, 4 and 7 samples, then blocks whose second one opens at the minimiser (size 2 if it is sample 0)
    for size in (1, 4, 7, int(np.argmin(violations)) or 2):
        monkeypatch.setattr(channels, "_BLOCK_BYTES", size * 16 * channels._MAX_PARTS * d * d)
        report = audit_conditions(measure, condition, op_class, d=d, samples=samples, seed=seed,
                                  probe_eigenbasis=probe)
        assert report.diagnostics["min_violation"] == float(violations.min()), size


def test_selective_class_channel_measures_only_its_kept_outcomes(monkeypatch):
    # every matrix the kernel sees is a state: rho, a kept outcome or the reset's |0><0|, never the
    # zero matrix of a zero-padded operator or of an outcome below SELECTIVE_P_FLOOR
    seen = []
    kernel = channels._MEASURE_KERNELS["re"]

    def spy(m):
        seen.append(np.trace(m, axis1=-2, axis2=-1).reshape(-1))
        return kernel(m)

    monkeypatch.setitem(channels._MEASURE_KERNELS, "re", spy)
    report = audit_conditions("re", "C2_selective", "general_tp", d=3, samples=50, seed=2)
    traces = np.concatenate(seen)
    assert len(traces) > 2 * 50 and report.diagnostics["class_channel_wins"] > 0
    np.testing.assert_allclose(traces, 1.0, rtol=0, atol=1e-12)


def test_audit_uses_neither_seed_sequence_nor_dirichlet(monkeypatch):
    # Generators come from the stacked seed hash and Dirichlet weights from
    # exponential draws. Generator is an immutable type, so a subclass whose
    # dirichlet raises stands in for it.
    def forbidden(*args, **kwargs):
        raise AssertionError("an audit called default_rng, SeedSequence or Generator.dirichlet")

    made = []

    class NoDirichlet(np.random.Generator):
        dirichlet = forbidden

        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            made.append(self)

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    monkeypatch.setattr(np.random, "Generator", NoDirichlet)
    for row, verdict in EXPECTED_VERDICTS.items():
        measure, condition, op_class, probe = row
        made.clear()
        report = audit_conditions(measure, condition, op_class, d=3, samples=100, seed=11,
                                  probe_eigenbasis=probe)
        assert report.verdict == verdict, row
        assert len(made) == 100, row


def _reference_json(report) -> str:
    """Report format 3 as json.dumps writes it, one value at a time."""
    fields = sorted({**vars(report), "format": 3}.items())
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in fields) + "\n}\n"


# d = 32 runs every row, so every row of the audit-d32 benchmark among them
@pytest.mark.parametrize("d, samples", [(2, 20), (3, 20), (32, 1)])
def test_report_json_is_one_sorted_key_per_line_on_every_expected_row(monkeypatch, d, samples):
    # json's indent encoder is its pure-Python one; format 3 never needs it
    def indent_encoder(*args, **kwargs):
        raise AssertionError("to_json called json's indent encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", indent_encoder)
    for row in EXPECTED_VERDICTS:
        measure, condition, op_class, probe = row
        report = audit_conditions(measure, condition, op_class, d=d, samples=samples, seed=3,
                                  probe_eigenbasis=probe)
        text = report.to_json()
        assert text == _reference_json(report), row
        doc = json.loads(text)
        assert doc == {**report.to_dict(), "format": 3}, row
        lines = text.split("\n")
        assert lines[0] == "{" and lines[-2:] == ["}", ""], row
        keys = [list(json.loads("{" + line.removesuffix(",") + "}")) for line in lines[1:-2]]
        assert keys == [[k] for k in sorted(doc)], row


# strings that json must escape: quotes, backslashes, control characters, non-ASCII
_JSON_TEXT = st.text(st.sampled_from('"\\/\x00\n\x1f\x7f aZ+=\xe9\u2028\U0001f600') | st.characters(), max_size=6)
_MATRIX_ENTRIES = st.builds(
    channels._matrix_json,
    st.sampled_from([(0, 3, 3), (1, 1, 1), (2, 2, 2), (3, 3), (5, 5), (0, 0)]).flatmap(
        lambda shape: hnp.arrays(np.complex128, shape)))
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT


@settings(max_examples=100, deadline=None)
@given(witness=st.dictionaries(_JSON_TEXT, _MATRIX_ENTRIES | _SCALARS | st.lists(_SCALARS, max_size=3), max_size=6),
       diagnostics=st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                                | st.dictionaries(_JSON_TEXT, inner, max_size=3), max_leaves=8))
@example(witness={"state": channels._matrix_json(np.zeros((0, 2, 2))), 'a"\\': "\x00\xe9"}, diagnostics={})
@example(witness={}, diagnostics={"b": [{"z": 1, "a": [2.5]}], "a": None})
# a hand-built dict with a matrix entry's keys is no engine entry: its text is escaped like any other
@example(witness={"m": {"base64": 'a"b', "dtype": "<c16", "shape": [1]}}, diagnostics={})
def test_property_report_json_is_json_dumps_byte_for_byte(witness, diagnostics):
    base = audit_conditions("l1", "C0", d=2, samples=1, seed=0)
    report = dataclasses.replace(base, witness={"sample_index": 0, **witness}, diagnostics=diagnostics)
    assert report.to_json() == _reference_json(report)


def test_probe_witness_reuses_the_probe_decomposition(monkeypatch):
    def second_eig(*args, **kwargs):
        raise AssertionError("the witness decomposed the state again")

    monkeypatch.setattr(linalg, "hermitian_eig", second_eig)
    report = audit_conditions("ibiqc", "C2_selective", d=3, samples=20, seed=5, probe_eigenbasis=True)
    w = report.witness
    assert w["channel_label"] == "eigenbasis_projection"
    kraus = KrausSet(channels._projectors(_witness_matrix(w["eigenvectors"])))
    rho = DensityMatrix(_witness_matrix(w["state"]))
    after = sum(p * ibiqc_coherence(out) for p, out in selective_outcomes(kraus, rho))
    assert after == pytest.approx(w["measure_after"], abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), n=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_property_pure_kernels_match_the_projector_stack(d, n, seed):
    rng = np.random.default_rng(seed)
    vecs = np.stack([haar_unitary(d, seed=rng) for _ in range(n)])
    for measure, pure in channels._PURE_KERNELS.items():
        expected = channels._MEASURE_KERNELS[measure](channels._projectors(vecs))
        assert pure(vecs).shape == (n, d)
        np.testing.assert_allclose(pure(vecs), expected, rtol=0, atol=1e-12, err_msg=measure)


@pytest.mark.parametrize("measure", ["re", "ibiqc"])
@pytest.mark.parametrize("condition", ["C2_average", "C2_selective"])
def test_probe_audit_builds_no_projectors_and_solves_only_state_stacks(monkeypatch, measure, condition):
    def no_projectors(vecs):
        raise AssertionError("the probe built its projector stack")

    solved = []

    def eigvals(m):
        solved.append(np.ndim(m))
        return hermitian_eigvals(m)

    decomposed = []

    def eig_stack(m):
        decomposed.append(np.ndim(m))
        return hermitian_eig_stack(m)

    monkeypatch.setattr(channels, "_projectors", no_projectors)
    monkeypatch.setattr(linalg, "hermitian_eigvals", eigvals)
    monkeypatch.setattr(linalg, "hermitian_eig_stack", eig_stack)
    # 20 samples at d = 4 are one block
    report = audit_conditions(measure, condition, d=4, samples=20, seed=7, probe_eigenbasis=True)
    assert report.diagnostics["probe_wins"] == 20
    assert solved and set(solved) == {3}
    # the averaged probe is the identity channel: only its winning witness is decomposed, alone
    assert decomposed == ([3] if condition == "C2_selective" else [2])


def test_probe_rejects_eigenvectors_that_are_not_unitary(monkeypatch):
    def doubled(m):
        spectrum = np.linalg.eigh(m)
        return spectrum._replace(eigenvectors=2 * spectrum.eigenvectors)

    monkeypatch.setattr(linalg, "hermitian_eig_stack", doubled)
    for condition in ("C2_average", "C2_selective"):
        with pytest.raises(NotUnitaryError):
            audit_conditions("l1", condition, d=3, samples=5, seed=1, probe_eigenbasis=True)


def test_selective_probe_gates_every_sample_not_only_the_witness(monkeypatch):
    def last_zeroed(m):
        spectrum = np.linalg.eigh(m)
        spectrum.eigenvectors[-1] = 0
        return spectrum

    # the last sample's probe keeps no outcome, so its violation, -C(rho), is below every
    # other sample's S(rho) and it is never the witness
    monkeypatch.setattr(linalg, "hermitian_eig_stack", last_zeroed)
    with pytest.raises(NotUnitaryError):
        audit_conditions("ibiqc", "C2_selective", d=3, samples=5, seed=1, probe_eigenbasis=True)


@pytest.mark.parametrize("measure", list(channels.MEASURE_FUNCTIONS))
@pytest.mark.parametrize("d, n", [(2, 50), (3, 50), (8, 20), (32, 3)])
def test_averaged_probe_alone_violates_by_exactly_zero(measure, d, n):
    # sum_j P_j rho P_j over rho's own eigenprojectors is rho, so every sample reads C(rho) - C(rho);
    # at tol = 0.0 each violation ties tol, and a tie is within it
    report = audit_conditions(measure, "C2_average", None, d, n, seed=5, tol=0.0, probe_eigenbasis=True)
    assert report.max_violation == 0.0 and report.diagnostics["min_violation"] == 0.0
    assert report.verdict == VERDICT_HOLDS and report.diagnostics["samples_above_tol"] == 0
    assert report.diagnostics["violation_decades"] == [n] + [0] * 17
    assert report.diagnostics["probe_wins"] == n
    assert report.witness["sample_index"] == 0
    assert replay_violation(report.to_dict()) == pytest.approx(0.0, abs=1e-12)


def test_a_c1_tie_takes_the_incoherent_side(monkeypatch):
    # C1_POSITIVITY_FLOOR - 5e-7 == 5e-7 exactly, so both sides of every sample tie
    monkeypatch.setitem(channels._MEASURE_KERNELS, "l1", lambda m: np.full(np.shape(m)[:-2], 5e-7))
    assert channels.C1_POSITIVITY_FLOOR - 5e-7 == 5e-7
    report = audit_conditions("l1", "C1", None, 3, 10, seed=5)
    assert report.witness["kind"] == "nonzero_on_incoherent"
    assert report.witness["measure_value"] == 5e-7 == report.max_violation


@settings(max_examples=100, deadline=None)
@given(measure=st.sampled_from(list(channels.MEASURE_FUNCTIONS)), op_class=st.sampled_from(OPERATION_CLASSES),
       d=st.integers(2, 6), seed=st.integers(0, 2**128), n=st.integers(1, 30))
def test_property_averaged_probe_takes_exactly_the_samples_the_class_channel_lowers(measure, op_class, d, seed, n):
    # the probe's violation is 0, so it wins a sample iff the class channel's is below -WIN_MARGIN
    plain, _, _ = channels._audit_block(measure, "C2_average", op_class, False, d, seed, range(n))
    probed, counts, _ = channels._audit_block(measure, "C2_average", op_class, True, d, seed, range(n))
    wins = plain + channels.WIN_MARGIN < 0
    np.testing.assert_array_equal(probed, np.where(wins, 0.0, plain))
    np.testing.assert_array_equal(counts["probe_wins"], wins)


_ZERO_L1 = {"l1": lambda m: np.zeros(np.shape(m)[:-2])}
_C2_FIELDS = {"state", "channel_label", "measure_before", "measure_after"}
# Each kind of witness: (row, kernels patched in, prefix of its kind or channel_label, its fields
# beside sample_index). Replay reads only the matrices, so only this sees a dropped measure_* field.
WITNESS_FIELDS = {
    "C0": (("l1", "C0", None, False), {}, "", {"state", "unitary"}),
    "C1-incoherent": (("l1", "C1", None, False), {}, "nonzero_on_incoherent", {"kind", "state", "measure_value"}),
    # a kernel that reads zero everywhere puts every random state below the positivity floor
    "C1-random": (("l1", "C1", None, False), _ZERO_L1, "below_floor_on_random", {"kind", "state", "measure_value"}),
    "C3": (("re", "C3", None, False), {}, "", {"weights", "states", "measure_mixture", "measure_average"}),
    "C2-class": (("l1", "C2_average", "general_tp", False), {}, "general_tp(d=3, k=",
                 {*_C2_FIELDS, "kraus_operators"}),
    "C2-probe": (("ibiqc", "C2_selective", "unital_mixture", True), {}, "eigenbasis_projection",
                 {*_C2_FIELDS, "eigenvectors"}),
    # replay builds the reset's operators from channel_label, so the witness holds no matrix beside the state
    "C2-reset": (("ibiqc", "C2_average", "general_tp", False), {}, "reset(d=3)", _C2_FIELDS),
}


@pytest.mark.parametrize("name", list(WITNESS_FIELDS))
def test_each_witness_holds_exactly_its_fields(monkeypatch, name):
    (measure, condition, op_class, probe), kernels, tag, fields = WITNESS_FIELDS[name]
    for key, kernel in kernels.items():
        monkeypatch.setitem(channels._MEASURE_KERNELS, key, kernel)
    witness = audit_conditions(measure, condition, op_class, d=3, samples=10, seed=11,
                               probe_eigenbasis=probe).witness
    assert set(witness) == {"sample_index", *fields}
    assert witness.get("kind", witness.get("channel_label", "")).startswith(tag)
    assert all(type(witness[k]) is float for k in fields if k.startswith("measure_"))


def test_replay_of_a_below_floor_witness(monkeypatch):
    monkeypatch.setitem(channels._MEASURE_KERNELS, "l1", _ZERO_L1["l1"])
    report = audit_conditions("l1", "C1", d=3, samples=10, seed=11).to_dict()
    assert report["witness"]["kind"] == "below_floor_on_random"
    assert report["max_violation"] == channels.C1_POSITIVITY_FLOOR
    rho = make_density(channels.witness_arrays(report["witness"])["state"])
    # replay reads the unpatched measure, which is positive on this random state
    assert replay_violation(report) == channels.C1_POSITIVITY_FLOOR - l1_coherence(rho) < 0
    monkeypatch.setitem(channels.MEASURE_FUNCTIONS, "l1", lambda rho: 0.0)
    assert replay_violation(report) == report["max_violation"]


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
    assert linalg.gram_defect(linalg.adjoint(u)[None]) == math.inf
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


# Every EXPECTED_VERDICTS row at d = 3, seed 11, 100 samples: verdict,
# max_violation, witness sample_index. The rows EXPECTED_VERDICTS listed before
# it covered every combination were recorded from the per-sample audit loop that
# preceded the block evaluation; the other 27, and the four the reset channel
# moved, from the block engine. The index is compared only where the
# maximum stands above round-off; on rows that hold it is an arg-max over
# noise that any change of eigensolver rounding may move.
PIN_D, PIN_SEED, PIN_SAMPLES = 3, 11, 100
H, V = VERDICT_HOLDS, VERDICT_VIOLATED
AUDIT_PIN = {
    ('l1', 'C0', None, False): (V, 0.9538644479559546, 71),
    ('l1', 'C0', None, True): (V, 0.9538644479559546, 71),
    ('l1', 'C1', None, False): (H, 0.0, 0),
    ('l1', 'C1', None, True): (H, 0.0, 0),
    ('l1', 'C2_average', 'unital_mixture', False): (V, 0.7875595412709784, 27),
    ('l1', 'C2_average', 'diagonal_incoherent', False): (H, 4.440892098500626e-16, 82),
    ('l1', 'C2_average', 'general_tp', False): (V, 0.6802309332347407, 27),
    ('l1', 'C2_average', None, True): (H, 0.0, 0),
    ('l1', 'C2_average', 'unital_mixture', True): (V, 0.7875595412709784, 27),
    ('l1', 'C2_average', 'diagonal_incoherent', True): (H, 4.440892098500626e-16, 82),
    ('l1', 'C2_average', 'general_tp', True): (V, 0.6802309332347407, 27),
    ('l1', 'C2_selective', 'unital_mixture', False): (V, 0.7875595412709784, 27),
    ('l1', 'C2_selective', 'diagonal_incoherent', False): (H, 4.440892098500626e-16, 82),
    ('l1', 'C2_selective', 'general_tp', False): (V, 0.7071222561847037, 22),
    ('l1', 'C2_selective', None, True): (V, 1.0857105875307296, 11),
    ('l1', 'C2_selective', 'unital_mixture', True): (V, 1.0857105875307296, 11),
    ('l1', 'C2_selective', 'diagonal_incoherent', True): (V, 1.0857105875307296, 11),
    ('l1', 'C2_selective', 'general_tp', True): (V, 1.0857105875307296, 11),
    ('l1', 'C3', None, False): (H, -0.0012945809374385053, 81),
    ('l1', 'C3', None, True): (H, -0.0012945809374385053, 81),
    ('re', 'C0', None, False): (V, 0.6709348350288932, 71),
    ('re', 'C0', None, True): (V, 0.6709348350288932, 71),
    ('re', 'C1', None, False): (H, 0.0, 0),
    ('re', 'C1', None, True): (H, 0.0, 0),
    ('re', 'C2_average', 'unital_mixture', False): (V, 0.46315115248933614, 27),
    ('re', 'C2_average', 'diagonal_incoherent', False): (H, 1.1102230246251565e-15, 84),
    ('re', 'C2_average', 'general_tp', False): (V, 0.34366187307121887, 27),
    ('re', 'C2_average', None, True): (H, 0.0, 0),
    ('re', 'C2_average', 'unital_mixture', True): (V, 0.46315115248933614, 27),
    ('re', 'C2_average', 'diagonal_incoherent', True): (H, 1.1102230246251565e-15, 84),
    ('re', 'C2_average', 'general_tp', True): (V, 0.34366187307121887, 27),
    ('re', 'C2_selective', 'unital_mixture', False): (V, 0.463151152489337, 27),
    ('re', 'C2_selective', 'diagonal_incoherent', False): (H, 1.1102230246251565e-15, 56),
    ('re', 'C2_selective', 'general_tp', False): (V, 0.6542186392614603, 53),
    ('re', 'C2_selective', None, True): (V, 1.1894285198447476, 94),
    ('re', 'C2_selective', 'unital_mixture', True): (V, 1.1894285198447476, 94),
    ('re', 'C2_selective', 'diagonal_incoherent', True): (V, 1.1894285198447476, 94),
    ('re', 'C2_selective', 'general_tp', True): (V, 1.1894285198447476, 94),
    ('re', 'C3', None, False): (H, -0.0014900687969566784, 81),
    ('re', 'C3', None, True): (H, -0.0014900687969566784, 81),
    ('ibiqc', 'C0', None, False): (H, 1.6653345369377348e-15, 96),
    ('ibiqc', 'C0', None, True): (H, 1.6653345369377348e-15, 96),
    ('ibiqc', 'C1', None, False): (H, 0.0, 0),
    ('ibiqc', 'C1', None, True): (H, 0.0, 0),
    ('ibiqc', 'C2_average', 'unital_mixture', False): (H, 4.440892098500626e-16, 9),
    ('ibiqc', 'C2_average', 'diagonal_incoherent', False): (V, 1.4405397859820748, 67),
    ('ibiqc', 'C2_average', 'general_tp', False): (V, 1.4405397859820748, 67),
    ('ibiqc', 'C2_average', None, True): (H, 0.0, 0),
    ('ibiqc', 'C2_average', 'unital_mixture', True): (H, 4.440892098500626e-16, 9),
    ('ibiqc', 'C2_average', 'diagonal_incoherent', True): (V, 1.4405397859820748, 67),
    ('ibiqc', 'C2_average', 'general_tp', True): (V, 1.4405397859820748, 67),
    ('ibiqc', 'C2_selective', 'unital_mixture', False): (H, 8.881784197001252e-16, 4),
    ('ibiqc', 'C2_selective', 'diagonal_incoherent', False): (V, 1.440539785982075, 67),
    ('ibiqc', 'C2_selective', 'general_tp', False): (V, 1.440539785982075, 67),
    ('ibiqc', 'C2_selective', None, True): (V, 1.4405397859820748, 67),
    ('ibiqc', 'C2_selective', 'unital_mixture', True): (V, 1.4405397859820748, 67),
    ('ibiqc', 'C2_selective', 'diagonal_incoherent', True): (V, 1.440539785982075, 67),
    ('ibiqc', 'C2_selective', 'general_tp', True): (V, 1.440539785982075, 67),
    ('ibiqc', 'C3', None, False): (H, -0.002049724336907255, 81),
    ('ibiqc', 'C3', None, True): (H, -0.002049724336907255, 81),
}


def _witness_matrix(entry):
    return channels._witness_matrices(entry, 2)


def test_audit_pin_covers_expected_verdicts():
    assert {row: pin[0] for row, pin in AUDIT_PIN.items()} == EXPECTED_VERDICTS


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
    assert replay_violation(report.to_dict()) == pytest.approx(report.max_violation, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(row=st.sampled_from(list(EXPECTED_VERDICTS)), d=st.integers(2, 6), seed=st.integers(0, 2**128),
       samples=st.integers(1, 40))
@example(row=("ibiqc", "C2_selective", "unital_mixture", True), d=32, seed=12345, samples=1)
def test_property_witness_replays_and_holding_rows_hold(row, d, seed, samples):
    measure, condition, op_class, probe = row
    report = audit_conditions(measure, condition, op_class, d=d, samples=samples, seed=seed, probe_eigenbasis=probe)
    for parsed in (report.to_dict(), json.loads(report.to_json())):
        assert replay_violation(parsed) == pytest.approx(report.max_violation, abs=1e-12)
    if EXPECTED_VERDICTS[row] == VERDICT_HOLDS:
        assert report.verdict != VERDICT_VIOLATED
    diagnostics = report.diagnostics
    assert diagnostics["min_violation"] <= report.max_violation
    assert (diagnostics["samples_above_tol"] > 0) == (report.verdict == VERDICT_VIOLATED)
    assert len(diagnostics["violation_decades"]) == 18 and sum(diagnostics["violation_decades"]) == samples
    if condition.startswith("C2"):
        assert ("reset_wins" in diagnostics) == (op_class in channels.RESET_CLASSES)
        wins = diagnostics["class_channel_wins"], diagnostics.get("reset_wins", 0), diagnostics["probe_wins"]
        assert sum(wins) == samples
        assert wins[0] == 0 or op_class
        assert wins[2] == 0 or probe
        assert report.witness["measure_after"] - report.witness["measure_before"] == report.max_violation


@settings(max_examples=100, deadline=None)
@given(row=st.sampled_from(list(EXPECTED_VERDICTS)), d=st.integers(2, 5), seed=st.integers(0, 2**128),
       n=st.integers(1, 20), m=st.integers(1, 20))
def test_property_audit_max_violation_is_monotone_in_samples(row, d, seed, n, m):
    # sample i draws only from (seed, i), so n samples are a prefix of n + m
    measure, condition, op_class, probe = row
    prefix, longer = (audit_conditions(measure, condition, op_class, d=d, samples=k, seed=seed,
                                       probe_eigenbasis=probe) for k in (n, n + m))
    assert prefix.max_violation <= longer.max_violation


# Diagnostics of three AUDIT_PIN rows whose counts stand clear of round-off. On the ibiqc rows
# the reset wins every sample, by S(rho): on the selective row the probe ties with it to
# round-off, and the earlier candidate keeps the sample.
DIAGNOSTICS_PIN = {
    ("l1", "C0", None, False): {"min_violation": 0.002398614516751718, "samples_above_tol": 100,
                                "violation_decades": [0] * 14 + [3, 40, 57, 0]},
    ("ibiqc", "C2_average", "general_tp", False): {
        "min_violation": 0.3584121290471489, "samples_above_tol": 100, "class_channel_wins": 0, "probe_wins": 0,
        "reset_wins": 100, "violation_decades": [0] * 16 + [53, 47]},
    ("ibiqc", "C2_selective", "general_tp", True): {
        "min_violation": 0.3584121290471489, "samples_above_tol": 100, "class_channel_wins": 0, "probe_wins": 0,
        "reset_wins": 100, "dropped_outcomes": 0, "violation_decades": [0] * 16 + [53, 47]},
}
# Win counts of a probe row where both candidates often sit at round-off: the probe wins a
# sample only by more than WIN_MARGIN, so the class channel keeps its one-operator (unitary)
# draws, and the counts no longer follow last-bit rounding (they read 13 and 87 before the margin).
WINS_PIN = {("ibiqc", "C2_average", "unital_mixture", True): {"class_channel_wins": 23, "probe_wins": 77}}


@pytest.mark.parametrize("row", list(DIAGNOSTICS_PIN), ids=lambda row: "-".join(map(str, row)))
def test_audit_diagnostics_match_pin(row):
    measure, condition, op_class, probe = row
    report = audit_conditions(measure, condition, op_class=op_class, d=PIN_D, samples=PIN_SAMPLES,
                              seed=PIN_SEED, probe_eigenbasis=probe)
    assert report.diagnostics == pytest.approx(DIAGNOSTICS_PIN[row], abs=1e-12)


@pytest.mark.parametrize("row", list(WINS_PIN), ids=lambda row: "-".join(map(str, row)))
def test_audit_win_counts_match_pin(row):
    measure, condition, op_class, probe = row
    report = audit_conditions(measure, condition, op_class=op_class, d=PIN_D, samples=PIN_SAMPLES,
                              seed=PIN_SEED, probe_eigenbasis=probe)
    assert {k: report.diagnostics[k] for k in WINS_PIN[row]} == WINS_PIN[row]


def test_expected_verdicts_cover_exactly_the_combinations_an_audit_accepts():
    accepted = set()
    for measure in channels.MEASURE_FUNCTIONS:
        for condition in channels.CONDITIONS:
            for op_class in (None, *OPERATION_CLASSES):
                for probe in (False, True):
                    try:
                        used = channels.validate_audit_arguments(measure, condition, op_class, 2, 1, 0, 0.0, probe)
                    except InvalidArgumentsError:
                        continue
                    accepted.add((measure, condition, used, probe))
    assert set(EXPECTED_VERDICTS) == accepted and len(accepted) == 60
    assert sum(v == VERDICT_VIOLATED for v in EXPECTED_VERDICTS.values()) == 34


@pytest.mark.parametrize("d", [2, 3, 8])
def test_reset_channel_is_trace_preserving_diagonal_incoherent_and_not_unital(d):
    # so it belongs to the diagonal_incoherent and general_tp pools and not to unital_mixture
    reset = KrausSet(channels._reset_operators(d))
    assert classify_kraus(reset) == KrausFlags(trace_preserving=True, unital=False, diagonal_incoherent=True)
    rho = random_density(d, seed=d)
    zero = np.zeros((d, d))
    zero[0, 0] = 1.0
    np.testing.assert_allclose(apply_channel(reset, rho).matrix, zero, rtol=0, atol=1e-15)
    outcomes = selective_outcomes(reset, rho)
    np.testing.assert_array_equal([p for p, _ in outcomes], np.diagonal(rho.matrix).real)
    for _, out in outcomes:
        np.testing.assert_allclose(out.matrix, zero, rtol=0, atol=1e-15)


def test_selective_dropped_outcomes_sum_over_class_channel_reset_and_probe(monkeypatch):
    # Each candidate drops a known number of outcomes per sample. The class channel, made the
    # identity and parts - 1 zero operators after its draws, drops parts - 1. On states whose last
    # row and column are zero, the reset drops outcome d - 1 (rho_{d-1,d-1} = 0) and the probe the
    # eigenvector of eigenvalue 0: one each.
    kraus_stack, density_stack, parts = states.kraus_stack, states.density_stack, []

    def identity_and_zeros(kind, d, ks, rngs):
        ops = np.zeros_like(kraus_stack(kind, d, ks, rngs))
        ops[:, 0] = np.eye(d)
        parts.extend(ks)
        return ops

    def last_level_empty(normals):
        rho = density_stack(normals)
        rho[:, -1, :] = 0
        rho[:, :, -1] = 0
        return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]

    monkeypatch.setattr(states, "kraus_stack", identity_and_zeros)
    monkeypatch.setattr(states, "density_stack", last_level_empty)
    n = 20
    report = audit_conditions("ibiqc", "C2_selective", "general_tp", d=3, samples=n, seed=1, probe_eigenbasis=True)
    assert len(parts) == n and sum(parts) > n
    assert report.diagnostics["dropped_outcomes"] == (sum(parts) - n) + n + n


# Share of the samples that violate, at d = 32, of each row that EXPECTED_VERDICTS calls violated
# and that does not violate on every sample, measured without the probe over 1500 samples (seeds
# 101 to 103, 500 samples each). The probe never lowers a share: averaged it adds an exact 0, and
# selective it makes every sample violate. CHANGES.md gives the shares at d = 2, 3 and 8 too.
POWER_SHARES = {
    ("l1", "C2_average", "unital_mixture"): 0.1327, ("l1", "C2_average", "general_tp"): 0.1253,
    ("re", "C2_average", "unital_mixture"): 0.1247, ("re", "C2_average", "general_tp"): 0.1153,
    ("l1", "C2_selective", "unital_mixture"): 0.4947, ("l1", "C2_selective", "general_tp"): 0.8673,
    ("re", "C2_selective", "unital_mixture"): 0.4833, ("re", "C2_selective", "general_tp"): 0.8573,
}
POWER_MEASURED, POWER_MISS, POWER_SEED = 1500, 1e-4, 2027


def _power_samples(share: float) -> int:
    """Samples that miss a row of this share with chance below POWER_MISS, at a miss rate two
    standard errors above the measured one, or at 3 / POWER_MEASURED where no sample missed."""
    miss = 1 - share + 2 * math.sqrt(share * (1 - share) / POWER_MEASURED) if share < 1 else 3 / POWER_MEASURED
    return math.ceil(math.log(POWER_MISS) / math.log(miss))


def test_sampler_finds_every_violated_row_at_d32():
    rows = [row for row, verdict in EXPECTED_VERDICTS.items() if verdict == VERDICT_VIOLATED]
    assert len(rows) == 34
    for row in rows:
        measure, condition, op_class, probe = row
        samples = _power_samples(POWER_SHARES.get(row[:3], 1.0))
        report = audit_conditions(measure, condition, op_class, d=32, samples=samples, seed=POWER_SEED,
                                  probe_eigenbasis=probe)
        assert report.verdict == VERDICT_VIOLATED, (row, samples)


_ENTRY = channels._matrix_json(np.eye(2) / 2)
# Each breaks one rule of the format-3 entry of a 2 x 2 matrix
MALFORMED_ENTRIES = {
    "format-2 list": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    "not a dict": "not a matrix",
    "no dtype": {k: v for k, v in _ENTRY.items() if k != "dtype"},
    "extra key": {**_ENTRY, "order": "C"},
    "dtype <f8": {**_ENTRY, "dtype": "<f8"},
    "dtype >c16": {**_ENTRY, "dtype": ">c16"},
    "shape of one int": {**_ENTRY, "shape": [4]},
    "shape of three ints": {**_ENTRY, "shape": [1, 2, 2]},
    "shape not square": {**_ENTRY, "shape": [1, 4]},
    "shape negative": {**_ENTRY, "shape": [-2, -2]},
    "shape of floats": {**_ENTRY, "shape": [2.0, 2.0]},
    "shape of bools": {**_ENTRY, "shape": [True, True]},
    "shape a string": {**_ENTRY, "shape": "22"},
    "too few bytes": {**_ENTRY, "base64": binascii.b2a_base64(bytes(48), newline=False).decode()},
    "too many bytes": {**_ENTRY, "base64": binascii.b2a_base64(bytes(80), newline=False).decode()},
    "invalid character": {**_ENTRY, "base64": _ENTRY["base64"][:4] + "!" + _ENTRY["base64"][4:]},
    "newline inside": {**_ENTRY, "base64": _ENTRY["base64"][:4] + "\n" + _ENTRY["base64"][4:]},
    "excess after padding": {**_ENTRY, "base64": _ENTRY["base64"] + "="},
    "base64 not a string": {**_ENTRY, "base64": None},
    "base64 not ascii": {**_ENTRY, "base64": "é" + _ENTRY["base64"]},
}


@pytest.mark.parametrize("name", list(MALFORMED_ENTRIES))
def test_witness_matrices_reject_malformed_entries(name):
    with pytest.raises(ParseError):
        channels._witness_matrices(MALFORMED_ENTRIES[name], 2)


@settings(max_examples=100, deadline=None)
@given(ndim=st.sampled_from([2, 3]), k=st.integers(0, 3), d=st.integers(0, 4), data=st.data())
def test_property_matrix_entries_round_trip_bitwise(ndim, k, d, data):
    shape = (k, d, d, 2)[3 - ndim:]
    parts = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_subnormal=True)),
                      label="parts")
    m = parts.view(complex)[..., 0]
    entry = json.loads(json.dumps(channels._matrix_json(m)))
    out = channels._witness_matrices(entry, ndim)
    assert out.shape == m.shape and out.tobytes() == m.tobytes()


def test_witness_matrices_bound_the_matrix_dimension_by_max_audit_dim():
    # replaying a probe witness builds a (d, d, d) stack of projectors, so d stops at MAX_AUDIT_DIM
    assert channels.MAX_AUDIT_DIM == 256
    for shape in ((256, 256), (2, 256, 256), (300, 1, 1)):
        entry = json.loads(json.dumps(channels._matrix_json(np.zeros(shape, dtype=complex))))
        assert channels._witness_matrices(entry, len(shape)).shape == shape
    for shape in ((257, 257), (1, 257, 257)):
        # the bytes match the shape, so only the bound rejects the entry
        entry = json.loads(json.dumps(channels._matrix_json(np.zeros(shape, dtype=complex))))
        with pytest.raises(ParseError, match=re.escape(f"at most MAX_AUDIT_DIM = 256, got shape {list(shape)}")):
            channels._witness_matrices(entry, len(shape))


def test_matrix_entries_keep_signed_zeros_and_subnormals():
    m = np.array([[-0.0 + 5e-324j, 0.0 - 0.0j], [2.2250738585072014e-308 - 1e-310j, -math.inf + 1j]])
    out = channels._witness_matrices(json.loads(json.dumps(channels._matrix_json(m))), 2)
    assert out.view(np.uint64).tolist() == m.view(np.uint64).tolist()


def test_replay_violation_rejects_unreadable_witness():
    report = audit_conditions("ibiqc", "C2_selective", d=2, samples=5, seed=1, probe_eigenbasis=True).to_dict()
    witness = report["witness"]
    for broken in (
        {**report, "witness": {}},
        {**report, "witness": None},
        {**report, "measure_name": "fidelity"},
        {**report, "condition": "C9"},
        {**report, "witness": {k: v for k, v in witness.items() if k != "eigenvectors"}},
        *({**report, "witness": {**witness, key: entry}}
          for entry in MALFORMED_ENTRIES.values() for key in ("state", "eigenvectors")),
    ):
        with pytest.raises(ParseError):
            replay_violation(broken)
