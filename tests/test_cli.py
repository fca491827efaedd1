import json
import math

import numpy as np
import pytest

from cohkit.cli import (
    default_alpha_grid,
    demo_glauber,
    demo_interference,
    load_interference_config,
    load_state,
    main,
    parse_interference_config,
    save_state,
    sweep_alpha,
)
from cohkit.errors import InvalidArgumentsError, NotPositiveError, ParseError
from cohkit.states import make_density, qubit_pair, random_density


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def delta0_doc():
    return {"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}


def test_load_state_maximally_mixed(tmp_path):
    p = tmp_path / "state.json"
    write_json(p, delta0_doc())
    rho = load_state(p)
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_load_state_diagonal(tmp_path):
    p = tmp_path / "state.json"
    write_json(p, {"dim": 2, "entries": [[[0.75, 0], [0, 0]], [[0, 0], [0.25, 0]]]})
    rho = load_state(p)
    assert np.allclose(rho.matrix, np.diag([0.75, 0.25]))


def test_load_state_rejects_indefinite(tmp_path):
    p = tmp_path / "state.json"
    write_json(p, {"dim": 2, "entries": [[[0.6, 0], [0.6, 0]], [[0.6, 0], [0.4, 0]]]})
    with pytest.raises(NotPositiveError):
        load_state(p)


def test_load_state_parse_error_has_position(tmp_path):
    p = tmp_path / "state.json"
    write_json(p, {"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], ["x", 0]]]})
    with pytest.raises(ParseError) as err:
        load_state(p)
    assert "entries[1][1]" in str(err.value)


def test_load_state_rejects_wrong_shape(tmp_path):
    p = tmp_path / "state.json"
    write_json(p, {"dim": 3, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]})
    with pytest.raises(ParseError):
        load_state(p)


def test_save_load_roundtrip(tmp_path):
    rho = random_density(4, seed=33)
    p = tmp_path / "state.json"
    save_state(rho, p, label="random 4-level state")
    back = load_state(p)
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-15


def test_save_load_roundtrip_is_bitwise(tmp_path):
    rho = random_density(3, seed=34)
    p = tmp_path / "state.json"
    save_state(rho, p)
    back = load_state(p)
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(back.matrix, rho.matrix)


def test_default_alpha_grid():
    grid = default_alpha_grid()
    assert len(grid) == 181
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(math.pi)


def test_sweep_alpha_closed_form():
    grid = default_alpha_grid()
    rows = sweep_alpha(grid)
    assert len(rows) == 181
    for alpha, ib_z, ib_x, re_z, re_x, l1_z, l1_x in rows:
        c2 = math.cos(alpha) ** 2
        s2 = math.sin(alpha) ** 2
        want = 1.0
        if c2 > 0.0:
            want += c2 * math.log2(c2)
        if s2 > 0.0:
            want += s2 * math.log2(s2)
        assert abs(ib_z - want) < 1e-9
        assert abs(ib_x - want) < 1e-9
        assert abs(ib_z - ib_x) < 1e-12
        assert re_z == 0.0
        assert abs(re_x - want) < 1e-9
        assert l1_z == 0.0
        assert abs(l1_x - abs(math.cos(2 * alpha))) < 1e-12


def test_sweep_alpha_special_points():
    rows = sweep_alpha([0.0, math.pi / 4, math.pi / 6])
    at0 = rows[0]
    assert at0[1] == pytest.approx(1.0, abs=1e-12)
    assert at0[4] == pytest.approx(1.0, abs=1e-12)
    assert at0[6] == pytest.approx(1.0, abs=1e-12)
    at_quarter = rows[1]
    assert all(abs(v) < 1e-12 for v in at_quarter[1:])
    at_sixth = rows[2]
    assert at_sixth[1] == pytest.approx(0.18872187554086728, abs=1e-12)
    assert at_sixth[6] == pytest.approx(0.5, abs=1e-12)


def test_demo_glauber_rows():
    rows = demo_glauber(1.0, [2, 3])
    d2 = rows[0]
    assert d2[1] == pytest.approx(1.0, abs=1e-12)
    assert d2[3] == pytest.approx(1.0, abs=1e-10)
    assert d2[4] == pytest.approx(1.0, abs=1e-12)
    d3 = rows[1]
    assert d3[1] == pytest.approx(1.931370849898476, abs=1e-12)
    assert d3[3] == pytest.approx(math.log2(3), abs=1e-10)
    assert d3[4] < 1.0


def test_demo_glauber_vacuum():
    rows = demo_glauber(0.0, [2, 4])
    for row in rows:
        assert row[1] == 0.0
        assert row[3] == pytest.approx(math.log2(row[0]), abs=1e-10)


def test_interference_natural_light():
    cfg = parse_interference_config(
        {
            "input": "natural_light",
            "plate_angle": 0.3,
            "polarizer_angle": 1.1,
            "gamma_grid": list(np.linspace(0, 2 * math.pi, 61)),
        }
    )
    intensities, visibility = demo_interference(cfg)
    assert visibility < 1e-12
    assert np.allclose(intensities, 0.5, atol=1e-12)


def test_interference_diagonal_input_full_visibility():
    cfg = parse_interference_config(
        {
            "input": {"linear": math.pi / 4},
            "plate_angle": 0.0,
            "polarizer_angle": math.pi / 4,
            "gamma_grid": list(np.linspace(0, 2 * math.pi, 181)),
        }
    )
    intensities, visibility = demo_interference(cfg)
    assert visibility > 1 - 1e-9
    # closed form for this geometry
    expected = np.cos(np.asarray(cfg.gamma_grid) / 2) ** 2
    assert np.max(np.abs(intensities - expected)) < 1e-12


def test_interference_along_axis_no_fringes():
    cfg = parse_interference_config(
        {
            "input": {"linear": 0.4},
            "plate_angle": 0.4,
            "polarizer_angle": 0.9,
            "gamma_grid": list(np.linspace(0, 2 * math.pi, 61)),
        }
    )
    _, visibility = demo_interference(cfg)
    assert visibility < 1e-12


def test_interference_config_validation():
    with pytest.raises(ParseError):
        parse_interference_config({"input": "moonlight", "plate_angle": 0, "polarizer_angle": 0, "gamma_grid": [0.0]})
    with pytest.raises(ParseError):
        parse_interference_config({"input": "natural_light", "plate_angle": 0, "polarizer_angle": 0, "gamma_grid": []})
    with pytest.raises(ParseError):
        parse_interference_config(
            {"input": "natural_light", "plate_angle": math.inf, "polarizer_angle": 0, "gamma_grid": [0.0]}
        )


def test_main_measure_stdout(tmp_path, capsys):
    p = tmp_path / "state.json"
    rz, _ = qubit_pair(math.pi / 6)
    save_state(rz, p, label="qubit demo")
    assert main(["measure", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == 2
    assert report["label"] == "qubit demo"
    assert report["c_ibiqc"] == pytest.approx(0.18872187554086728, abs=1e-12)
    assert report["c_re"] == 0.0


def test_main_measure_invalid_state_exit_3(tmp_path, capsys):
    p = tmp_path / "bad.json"
    write_json(p, {"dim": 2, "entries": [[[0.6, 0], [0.6, 0]], [[0.6, 0], [0.4, 0]]]})
    assert main(["measure", str(p)]) == 3
    assert "error" in capsys.readouterr().err.lower()


def test_main_usage_error_exit_2(capsys):
    assert main(["sweep", "--points", "not-a-number"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["audit", "--measure", "ibiqc"]) == 2
    assert main(["audit", "--measure", "l1", "--condition", "C0", "--seed", "-3"]) == 2
    assert main(["audit", "--measure", "l1", "--condition", "C0", "--tol", "nan"]) == 2
    assert main(["audit", "--measure", "l1", "--condition", "C0", "--d", "0"]) == 2
    capsys.readouterr()


def test_main_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--from", "0", "--to", "3.141592653589793", "--points", "181", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == 182
    assert lines[0] == "alpha,c_ibiqc_rho_z,c_ibiqc_rho_x,c_re_rho_z,c_re_rho_x,c_l1_rho_z,c_l1_rho_x"
    assert "\r" not in text
    # decimal point, not comma, inside numeric cells
    assert lines[1].split(",")[0] == "0"


def test_main_sweep_rerun_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--points", "64", "--out", str(a)]) == 0
    assert main(["sweep", "--points", "64", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_sweep_rejects_bad_grid(capsys):
    assert main(["sweep", "--points", "0"]) == 2
    capsys.readouterr()


def test_main_audit_single_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "audit",
            "--measure",
            "ibiqc",
            "--condition",
            "C0",
            "--d",
            "3",
            "--samples",
            "40",
            "--seed",
            "11",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["verdict"] == "holds_within_tol"
    assert report["measure_name"] == "ibiqc"
    assert report["samples"] == 40
    assert report["seed"] == 11


def test_main_audit_probe_eigenbasis_violated(tmp_path, capsys):
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
            "40",
            "--seed",
            "11",
            "--out",
            str(out),
        ]
    )
    # violation is the documented expectation, so the exit code stays 0
    assert code == 0
    capsys.readouterr()
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["verdict"] == "violated"
    assert report["witness"]["channel_label"] == "eigenbasis_projection"


def test_main_audit_unexpected_verdict_exit_1(tmp_path, capsys):
    out = tmp_path / "mismatch.json"
    code = main(
        [
            "audit",
            "--measure",
            "ibiqc",
            "--condition",
            "C0",
            "--d",
            "2",
            "--samples",
            "20",
            "--seed",
            "11",
            "--tol",
            "1e-20",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    capsys.readouterr()


def test_main_audit_rerun_identical(tmp_path, capsys):
    args = [
        "audit",
        "--measure",
        "re",
        "--condition",
        "C2avg",
        "--class",
        "diagonal",
        "--d",
        "3",
        "--samples",
        "30",
        "--seed",
        "11",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_main_audit_directory_output(tmp_path, capsys):
    outdir = tmp_path / "reports"
    code = main(
        [
            "audit",
            "--measure",
            "l1,re",
            "--condition",
            "C3",
            "--d",
            "2",
            "--samples",
            "20",
            "--seed",
            "11",
            "--out",
            str(outdir),
        ]
    )
    assert code == 0
    capsys.readouterr()
    names = sorted(f.name for f in outdir.iterdir())
    assert names == ["audit_l1_C3_none.json", "audit_re_C3_none.json"]


def test_main_demo_glauber_csv(tmp_path):
    out = tmp_path / "glauber.csv"
    assert main(["demo", "glauber", "--alpha-re", "1", "--dims", "2,3,4", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "dim,c_l1,c_re,c_ibiqc,c_l1_ratio"
    assert len(lines) == 4
    assert lines[1].startswith("2,")


def test_main_demo_interference(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "curve.csv"
    write_json(
        cfg,
        {
            "input": {"linear": math.pi / 4},
            "plate_angle": 0.0,
            "polarizer_angle": math.pi / 4,
            "gamma_grid": list(np.linspace(0, 2 * math.pi, 41)),
        },
    )
    assert main(["demo", "interference", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["visibility"] > 1 - 1e-9
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gamma,intensity"
    assert len(lines) == 42


def test_main_demo_interference_statefile_input(tmp_path, capsys):
    state = tmp_path / "input.json"
    save_state(make_density(np.eye(2) / 2), state)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "curve.csv"
    write_json(
        cfg,
        {
            "input": {"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            "plate_angle": 0.7,
            "polarizer_angle": 0.2,
            "gamma_grid": [0.0, 1.0, 2.0],
        },
    )
    assert main(["demo", "interference", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["visibility"] < 1e-12


def test_load_interference_config_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_interference_config(tmp_path / "nope.json")


def test_invalid_dims_flag_exit_2(capsys):
    assert main(["demo", "glauber", "--dims", "two,three"]) == 2
    capsys.readouterr()
