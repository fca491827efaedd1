"""End-to-end checks for the package's headline guarantees.

Each test carries a numbered criterion marker; the conftest summary hook
prints one PASS/FAIL line per criterion after the run.
"""

import json
import math

import numpy as np
import pytest

from cohkit.channels import (
    audit_conditions,
    classify_kraus,
    selective_counterexample,
)
from cohkit.cli import default_alpha_grid, demo_glauber, demo_interference, main, parse_interference_config, sweep_alpha
from cohkit.measures import (
    ibiqc_coherence,
    min_distance_coherence,
    rel_ent_coherence,
    relative_entropy,
    von_neumann_entropy,
)
from cohkit.states import maximally_mixed, qubit_pair, random_density

AUDIT_SEED = 11
AUDIT_SAMPLES = 1000


def closed_form(alpha):
    c2 = math.cos(alpha) ** 2
    s2 = math.sin(alpha) ** 2
    out = 1.0
    if c2 > 0.0:
        out += c2 * math.log2(c2)
    if s2 > 0.0:
        out += s2 * math.log2(s2)
    return out


@pytest.mark.criterion(1, "closed-form angle sweep")
def test_criterion_1_sweep_matches_closed_form():
    grid = default_alpha_grid(181, 0.0, math.pi)
    assert len(grid) == 181
    rows = sweep_alpha(grid)
    for alpha, ib_z, ib_x, re_z, re_x, _, _ in rows:
        want = closed_form(alpha)
        assert abs(ib_z - want) < 1e-9
        assert abs(ib_x - want) < 1e-9
        assert abs(ib_z - ib_x) < 1e-12
        assert re_z == 0.0
        assert abs(re_x - want) < 1e-9


@pytest.mark.criterion(2, "relative-entropy identity")
def test_criterion_2_relative_entropy_identity():
    rng = np.random.default_rng(2)
    dims = (2, 3, 4, 6)
    for i in range(1000):
        d = dims[i % len(dims)]
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        lhs = relative_entropy(rho, maximally_mixed(d))
        rhs = math.log2(d) - von_neumann_entropy(rho)
        assert abs(lhs - rhs) < 1e-9


@pytest.mark.criterion(3, "condition audits")
def test_criterion_3_condition_audits():
    report = audit_conditions("ibiqc", "C0", d=4, samples=AUDIT_SAMPLES, seed=AUDIT_SEED)
    assert report.verdict == "holds_within_tol"
    assert report.max_violation < 1e-9

    for d in (2, 3, 4, 5, 6):
        assert ibiqc_coherence(maximally_mixed(d)) == 0.0
    report = audit_conditions("ibiqc", "C1", d=3, samples=AUDIT_SAMPLES, seed=AUDIT_SEED)
    assert report.verdict == "holds_within_tol"
    assert report.max_violation < 1e-9
    # the audit's positivity side requires every sampled random state to
    # score above 1e-6, so a passing report certifies both halves of C1
    rng = np.random.default_rng(AUDIT_SEED)
    for _ in range(100):
        rho = random_density(3, seed=int(rng.integers(0, 2**31)))
        assert ibiqc_coherence(rho) > 1e-6

    report = audit_conditions(
        "ibiqc", "C2_average", op_class="unital_mixture", d=3, samples=AUDIT_SAMPLES, seed=AUDIT_SEED
    )
    assert report.verdict == "holds_within_tol"
    assert report.max_violation < 1e-9

    for measure in ("l1", "re", "ibiqc"):
        report = audit_conditions(measure, "C3", d=3, samples=AUDIT_SAMPLES, seed=AUDIT_SEED)
        assert report.verdict == "holds_within_tol", measure
        assert report.max_violation < 1e-9

    for measure in ("l1", "re"):
        for condition in ("C2_average", "C2_selective"):
            report = audit_conditions(
                measure, condition, op_class="diagonal_incoherent", d=3, samples=AUDIT_SAMPLES, seed=AUDIT_SEED
            )
            assert report.verdict == "holds_within_tol", (measure, condition)
            assert report.max_violation < 1e-9


@pytest.mark.criterion(4, "selective-monotonicity counterexample")
def test_criterion_4_selective_counterexample(tmp_path, capsys):
    rz, _ = qubit_pair(math.pi / 6)
    kraus, violation = selective_counterexample(rz)
    assert violation == pytest.approx(0.811278, abs=1e-6)
    flags = classify_kraus(kraus)
    assert flags.unital
    assert flags.trace_preserving

    out = tmp_path / "probe.json"
    code = main(
        [
            "audit",
            "--measure",
            "ibiqc",
            "--condition",
            "C2sel",
            "--class",
            "unital",
            "--probe-eigenbasis",
            "--d",
            "2",
            "--samples",
            "500",
            "--seed",
            str(AUDIT_SEED),
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["verdict"] == "violated"
    assert report["condition"] == "C2_selective"
    assert report["witness"]["channel_label"] == "eigenbasis_projection"


@pytest.mark.criterion(5, "optimizer vs closed forms")
def test_criterion_5_optimizer_oracle():
    rng = np.random.default_rng(5)
    dims = (2, 3, 4)
    for i in range(100):
        d = dims[i % len(dims)]
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        value, _ = min_distance_coherence(rho, "relative_entropy")
        assert abs(value - rel_ent_coherence(rho)) < 1e-6

    def grid_min_trace(rho):
        # analytic 2x2 trace norm over the probability simplex at 1e-4 steps
        p = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        a = rho.matrix[0, 0].real - p
        d = rho.matrix[1, 1].real - (1.0 - p)
        b = abs(rho.matrix[0, 1])
        disc = np.sqrt((a - d) ** 2 + 4 * b * b)
        return float(np.min(0.25 * (np.abs(a + d + disc) + np.abs(a + d - disc))))

    for i in range(20):
        rho = random_density(2, seed=int(rng.integers(0, 2**31)))
        value, _ = min_distance_coherence(rho, "trace")
        assert abs(value - grid_min_trace(rho)) < 2e-4


@pytest.mark.criterion(6, "entropy inequality chain")
def test_criterion_6_purity_inequality():
    rng = np.random.default_rng(6)
    dims = (2, 3, 4, 5, 6)
    for i in range(1000):
        d = dims[i % len(dims)]
        rho = random_density(d, seed=int(rng.integers(0, 2**31)))
        s_rho = von_neumann_entropy(rho)
        c_re = rel_ent_coherence(rho)
        s_diag = c_re + s_rho
        assert c_re <= s_diag + 1e-9
        assert s_diag <= math.log2(d) + 1e-9


@pytest.mark.criterion(7, "truncated coherent-state demo")
def test_criterion_7_glauber_demo():
    rows = demo_glauber(1.0, [2, 3, 4, 5, 6, 7, 8])
    for d, c_l1, _, c_ibiqc, ratio in rows:
        assert abs(c_ibiqc - math.log2(d)) < 1e-9
        if d >= 3:
            assert ratio < 1.0
            assert c_l1 < d - 1


@pytest.mark.criterion(8, "interference visibility demo")
def test_criterion_8_interference_demo():
    gamma = list(np.linspace(0.0, 2 * math.pi, 181))

    cfg = parse_interference_config(
        {"input": "natural_light", "plate_angle": 0.0, "polarizer_angle": math.pi / 4, "gamma_grid": gamma}
    )
    _, visibility = demo_interference(cfg)
    assert visibility < 1e-12

    cfg = parse_interference_config(
        {"input": {"linear": math.pi / 4}, "plate_angle": 0.0, "polarizer_angle": math.pi / 4, "gamma_grid": gamma}
    )
    intensities, visibility = demo_interference(cfg)
    assert visibility > 1 - 1e-9
    expected = np.cos(np.asarray(gamma) / 2) ** 2
    assert np.max(np.abs(intensities - expected)) < 1e-12

    cfg = parse_interference_config(
        {"input": {"linear": 0.4}, "plate_angle": 0.4, "polarizer_angle": 0.9, "gamma_grid": gamma}
    )
    _, visibility = demo_interference(cfg)
    assert visibility < 1e-12


@pytest.mark.criterion(9, "byte-stable reports")
def test_criterion_9_determinism(tmp_path, capsys):
    audit_args = [
        "audit",
        "--measure",
        "ibiqc",
        "--condition",
        "C2avg",
        "--class",
        "unital",
        "--d",
        "3",
        "--samples",
        "200",
        "--seed",
        str(AUDIT_SEED),
    ]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(audit_args + ["--out", str(first)]) == 0
    assert main(audit_args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    sweep_a = tmp_path / "sweep_a.csv"
    sweep_b = tmp_path / "sweep_b.csv"
    assert main(["sweep", "--points", "181", "--out", str(sweep_a)]) == 0
    assert main(["sweep", "--points", "181", "--out", str(sweep_b)]) == 0
    assert sweep_a.read_bytes() == sweep_b.read_bytes()
