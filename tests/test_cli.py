import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cohkit
from cohkit import channels
from cohkit.channels import audit_conditions
from cohkit.cli import (
    EXPECTED_VERDICTS,
    MAX_SWEEP_POINTS,
    build_parser,
    default_alpha_grid,
    demo_glauber,
    demo_interference,
    load_interference_config,
    load_state,
    main,
    parse_interference_config,
    sweep_alpha,
)
from cohkit.errors import InvalidArgumentsError, NotPositiveError, ParseError
from cohkit.measures import (coherence_report, ibiqc_coherence, l1_coherence, rel_ent_coherence, shannon_entropy,
                             von_neumann_entropy)
from cohkit.states import glauber_truncated, make_density, qubit_pair, random_density


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def write_state(path, rho, label=None):
    doc = {"dim": rho.dim, "entries": [[[v.real, v.imag] for v in row] for row in rho.matrix.tolist()]}
    if label is not None:
        doc["label"] = label
    write_json(path, doc)


def delta0_doc():
    return {"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}


def test_load_state_maximally_mixed(tmp_path):
    p = tmp_path / "state.json"
    write_json(p, delta0_doc())
    rho, label = load_state(p)
    assert np.allclose(rho.matrix, np.eye(2) / 2)
    assert label is None


def test_load_state_diagonal(tmp_path):
    p = tmp_path / "state.json"
    write_json(p, {"dim": 2, "entries": [[[0.75, 0], [0, 0]], [[0, 0], [0.25, 0]]]})
    rho, _ = load_state(p)
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


def test_json_dumps_state_file_reads_back_bitwise(tmp_path, capsys):
    # json.dumps writes the shortest text that reads back as the same double
    rho = random_density(4, seed=33)
    p = tmp_path / "state.json"
    write_state(p, rho, label="random 4-level state")
    back, label = load_state(p)
    assert np.array_equal(back.matrix, rho.matrix)
    assert label == "random 4-level state"
    assert main(["measure", str(p)]) == 0
    expected = {**coherence_report(rho).to_dict(), "label": label}
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("d", [1, 2, 4])
def test_zero_entropies_are_positive_zero(tmp_path, capsys, d):
    # a sum of zero terms negates to -0.0, which json writes as "-0.0"
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = 1.0
    rho = make_density(m)
    p = tmp_path / "state.json"
    write_state(p, rho)
    assert main(["measure", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    for value in (shannon_entropy(rho.diagonal_probs()), von_neumann_entropy(rho), report["s_rho"], report["s_diag"]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


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


def _sweep_alpha_per_point(alphas):
    """Reference: the scalar measure calls, one qubit pair at a time."""
    rows = []
    for alpha in np.asarray(alphas, dtype=float):
        rho_z, rho_x = qubit_pair(float(alpha))
        rows.append(
            (
                float(alpha),
                ibiqc_coherence(rho_z),
                ibiqc_coherence(rho_x),
                rel_ent_coherence(rho_z),
                rel_ent_coherence(rho_x),
                l1_coherence(rho_z),
                l1_coherence(rho_x),
            )
        )
    return rows


def _bits(rows):
    return [tuple(float(v).hex() for v in row) for row in rows]


def test_sweep_alpha_matches_per_point_reference_bitwise():
    assert sweep_alpha([]) == []
    rng = np.random.default_rng(59)
    grids = [default_alpha_grid(), [0.0, math.pi / 4, math.pi / 2]]
    grids += [rng.uniform(-10.0, 10.0, int(rng.integers(1, 40))) for _ in range(60)]
    for grid in grids:
        assert _bits(sweep_alpha(grid)) == _bits(_sweep_alpha_per_point(grid))


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


@pytest.mark.parametrize("a", [1.0, 0.3 - 0.8j, 0.0, 2.5j])
def test_demo_glauber_rows_equal_the_scalar_measures_bitwise(a):
    dims = [*range(1, 9), 17, 40]
    expected = []
    for d in dims:
        rho = glauber_truncated(a, d).to_density()
        c = l1_coherence(rho)
        expected.append((d, c, rel_ent_coherence(rho), ibiqc_coherence(rho), c / (d - 1) if d > 1 else math.nan))
    assert _bits(demo_glauber(a, dims)) == _bits(expected)


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
    write_state(p, rz, label="qubit demo")
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
    assert main(["audit", "--measure", "ibiqc", "--condition", "C1", "--d", "1"]) == 2
    assert main(["audit", "--measure", "ibiqc", "--condition", "C2sel", "--probe-eigenbasis", "--d", "1"]) == 2
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


def test_sweep_points_above_the_bound_exit_2(capsys):
    # a sweep holds about 1.2 KB per point, so 10**12 points would ask numpy for terabytes
    assert MAX_SWEEP_POINTS == 100_000
    for points in (MAX_SWEEP_POINTS + 1, 10**12):
        assert main(["sweep", "--points", str(points)]) == 2, points
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --points must be an integer from 1 to 100000, got {points}\n"


@pytest.mark.parametrize("span", [["--from=-1e308", "--to", "1e308"], ["--from", "1.7e308", "--to=-1e308"]])
def test_sweep_span_beyond_the_double_range_exit_2(capsys, span):
    # each end is finite, but linspace's stop - start is not; pytest turns numpy's RuntimeWarning into an error
    assert main(["sweep", *span]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: --to minus --from must be a finite number, got -?inf\n", captured.err)


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
    write_state(state, make_density(np.eye(2) / 2))
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


WRITERS = ["measure", "sweep", "audit-file", "audit-dir", "glauber", "interference"]
# longer than any output of writer_argv, so a file that is not cut to length keeps a tail of it
JUNK = bytes(range(256)) * 256


def writer_argv(tmp_path, command, out) -> list[str]:
    """The command line of one --out writer, with its input files written under tmp_path."""
    state, cfg = tmp_path / "state.json", tmp_path / "cfg.json"
    write_json(state, delta0_doc())
    write_json(cfg, {"input": "natural_light", "plate_angle": 0, "polarizer_angle": 0, "gamma_grid": [0]})
    audit = ["audit", "--measure", "l1", "--condition", "C0", "--samples", "2"]
    return {
        "measure": ["measure", str(state)],
        "sweep": ["sweep"],
        "audit-file": audit,
        "audit-dir": audit,
        "glauber": ["demo", "glauber"],
        "interference": ["demo", "interference", "--config", str(cfg)],
    }[command] + ["--out", str(out)]


@pytest.mark.parametrize("command", WRITERS)
def test_unwritable_output_exit_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    suffix = ".json" if command in ("measure", "audit-file") else ".csv"
    out = blocker / "sub" if command == "audit-dir" else tmp_path / "missing" / f"x{suffix}"
    assert main(writer_argv(tmp_path, command, out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: cannot write ")


@pytest.mark.parametrize("command", WRITERS)
def test_overwrite_leaves_exactly_the_new_bytes(tmp_path, capsys, command):
    out = {"measure": "out.json", "audit-file": "out.json", "audit-dir": "reports"}.get(command, "out.csv")
    written = f"{out}/audit_l1_C0_none.json" if command == "audit-dir" else out
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    (used / written).parent.mkdir(parents=True)
    (used / written).write_bytes(JUNK)
    fresh.mkdir()
    code = main(writer_argv(tmp_path, command, fresh / out))
    assert main(writer_argv(tmp_path, command, used / out)) == code
    capsys.readouterr()
    new = (fresh / written).read_bytes()
    assert 0 < len(new) < len(JUNK)
    assert (used / written).read_bytes() == new


def test_overwrite_through_symlink_keeps_the_link(tmp_path, capsys):
    target, link, fresh = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "fresh.json"
    target.write_bytes(JUNK)
    link.symlink_to(target)
    assert main(writer_argv(tmp_path, "measure", fresh)) == 0
    assert main(writer_argv(tmp_path, "measure", link)) == 0
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()


def test_measure_out_dev_null_exit_0(tmp_path, capsys):
    # /dev/null is seekable, but truncating it fails with EINVAL: only a regular file is cut to length
    if not Path("/dev/null").is_char_device():
        pytest.skip("/dev/null is not a character device")
    assert main(writer_argv(tmp_path, "measure", "/dev/null")) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("bad", [["--samples", "0"], ["--d", "1"], ["--seed", "-1"], ["--tol", "nan"],
                                 ["--condition", "C0,C2avg"], ["--d", "257"], ["--measure", "l1,fidelity"]])
def test_rejected_audit_creates_no_out_directory(tmp_path, capsys, bad):
    out = tmp_path / "newdir"
    argv = ["audit", "--measure", "l1", "--condition", "C0", "--samples", "2", *bad, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_audit_samples_above_2_pow_32_exit_2(tmp_path, capsys):
    # an index of 2**32 or more would be two seed words; the gate stops the audit before any draw
    with pytest.raises(InvalidArgumentsError):
        audit_conditions("l1", "C0", d=2, samples=2**32 + 1)
    out = tmp_path / "x.json"
    argv = ["audit", "--measure", "l1", "--condition", "C0", "--samples", str(2**32 + 1), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "samples" in captured.err and not out.exists()


@pytest.mark.parametrize("flag, token, choices", [
    ("--measure", "fidelity", "('l1', 're', 'ibiqc')"),
    ("--condition", "C9", "('C0', 'C1', 'C2avg', 'C2sel', 'C3')"),
    ("--class", "unitary", "('unital', 'diagonal', 'general')"),
])
def test_unknown_audit_token_names_its_flag_and_choices(tmp_path, capsys, flag, token, choices):
    argv = {"--measure": "l1", "--condition": "C2avg", "--class": "general", flag: f" {token}"}
    assert main(["audit", *(x for item in argv.items() for x in item), "--out", str(tmp_path / "r")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: unknown {flag} '{token}'; expected one of {choices}\n"


def test_load_interference_config_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_interference_config(tmp_path / "nope.json")


def test_invalid_dims_flag_exit_2(capsys):
    for dims in ("two,three", "0", "3,0", "2,-1", "-4"):
        assert main(["demo", "glauber", f"--dims={dims}"]) == 2, dims
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), dims


def test_dims_entries_above_max_audit_dim_or_empty_exit_2(tmp_path, capsys):
    # each row builds a dense d x d state and decomposes it, as one audit sample does
    assert main(["demo", "glauber", "--dims", "1,256", "--out", str(tmp_path / "g.csv")]) == 0
    entry = "--dims entry must be an integer from 1 to 256, got "
    empty = "--dims must be comma-separated integers: invalid literal for int() with base 10: ''"
    for dims, message in (("257", entry + "257"), ("2,100000000000", entry + "100000000000"),
                          ("2,,3", empty), ("2,", empty), ("", empty)):
        assert main(["demo", "glauber", f"--dims={dims}"]) == 2, dims
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", dims


# An integer literal beyond the double range, which json reads as an exact int.
_BIG = "1" + "0" * 400
_CONFIG = '{"input": %s, "plate_angle": %s, "polarizer_angle": 0.5, "gamma_grid": %s}'


def _assert_parse_error_exit_3(tmp_path, capsys, command, text, names):
    """text, read as a state file or an interference config, raises ParseError naming each of names, and
    main exits 3 on it, printing the same message."""
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    if command == "measure":
        load, argv = load_state, ["measure", str(path)]
    else:
        load, argv = load_interference_config, ["demo", "interference", "--config", str(path),
                                                "--out", str(tmp_path / "out.csv")]
    with pytest.raises(ParseError) as err:
        load(path)
    assert all(name in str(err.value) for name in names), str(err.value)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err.value}\n"


@pytest.mark.parametrize(
    "command, text, names",
    [
        ("measure", '{"dim": true, "entries": [[[1, 0]]]}', ('"dim"', "got True")),
        ("measure", '{"dim": 1, "entries": [[[%s, 0]]]}' % _BIG, ("entries[0][0]", _BIG)),
        ("measure", '{"dim": 1, "entries": [[[1, true]]]}', ("entries[0][0]", "True")),
        ("interference", _CONFIG % ('{"linear": %s}' % _BIG, "0", "[0]"), ('"linear"', _BIG)),
        ("interference", _CONFIG % ('{"linear": true}', "0", "[0]"), ('"linear"', "got True")),
        ("interference", _CONFIG % ('"natural_light"', _BIG, "[0]"), ('"plate_angle"', _BIG)),
        ("interference", _CONFIG % ('"natural_light"', "false", "[0]"), ('"plate_angle"', "got False")),
        ("interference", _CONFIG % ('"natural_light"', "0", "[0, %s]" % _BIG), ('"gamma_grid"[1]', _BIG)),
        ("interference", _CONFIG % ('"natural_light"', "0", "[0, true]"), ('"gamma_grid"[1]', "got True")),
        ("interference", _CONFIG % ('{"dim": 2, "entries": [[[%s, 0], [0, 0]], [[0, 0], [0, 0]]]}' % _BIG, "0", "[0]"),
         ("input: entries[0][0]", _BIG)),
        ("measure", '{"dim": 0, "entries": []}', ('"dim"', "got 0")),
        ("measure", '{"dim": null, "entries": []}', ('"dim"', "got None")),
        # no document holds 10**400 rows, so this dim fails at "entries", whose message names it
        ("measure", '{"dim": %s, "entries": [[[1, 0]]]}' % _BIG, ('"entries"', _BIG)),
        ("interference", _CONFIG % ('{"linear": null}', "0", "[0]"), ('"linear"', "got None")),
        ("interference", _CONFIG % ('"natural_light"', "null", "[0]"), ('"plate_angle"', "got None")),
        # json reads 1e400 as inf
        ("interference", _CONFIG % ('"natural_light"', "1e400", "[0]"), ('"plate_angle"', "got inf")),
        ("interference", '{"input": "natural_light", "plate_angle": 0, "polarizer_angle": true, "gamma_grid": [0]}',
         ('"polarizer_angle"', "got True")),
        ("interference", '{"input": "natural_light", "plate_angle": 0, "gamma_grid": [0]}',
         ('"polarizer_angle"', "got None")),
        ("interference", _CONFIG % ('"natural_light"', "0", "[0, 1e400]"), ('"gamma_grid"[1]', "got inf")),
        ("interference", _CONFIG % ('"natural_light"', "0", '[0, 1, "2"]'), ('"gamma_grid"[2]', "got '2'")),
    ],
    ids=["dim-bool", "cell-big", "cell-bool", "linear-big", "linear-bool", "angle-big", "angle-bool",
         "grid-big", "grid-bool", "input-state-big", "dim-zero", "dim-null", "dim-big", "linear-null", "angle-null",
         "angle-inf", "polarizer-bool", "polarizer-missing", "grid-inf", "grid-string"],
)
def test_bad_numbers_in_json_input_exit_3(tmp_path, capsys, command, text, names):
    _assert_parse_error_exit_3(tmp_path, capsys, command, text, names)


@pytest.mark.parametrize(
    "command, text, names",
    [
        ("measure", json.dumps([delta0_doc()]), ("expected a JSON object",)),
        ("measure", json.dumps({**delta0_doc(), "label": 7}), ('"label" must be a string',)),
        ("measure", '{"dim": 2, "entries": [[[0.5, 0]], [[0, 0], [0.5, 0]]]}', ("entries[0]", "2 cells")),
        ("interference", "[]", ("expected a JSON object",)),
        ("interference", _CONFIG % (json.dumps({"dim": 1, "entries": [[[1, 0]]]}), "0", "[0]"),
         ("must have dim 2, got 1",)),
    ],
    ids=["state-not-object", "label-not-string", "row-short", "config-not-object", "input-state-dim-1"],
)
def test_malformed_json_input_exit_3(tmp_path, capsys, command, text, names):
    _assert_parse_error_exit_3(tmp_path, capsys, command, text, names)


@pytest.mark.parametrize("command", ["measure", "interference", "replay"])
def test_input_file_that_is_not_utf8_exit_3(tmp_path, capsys, command):
    # one byte that is not UTF-8, in a label: json never sees the document
    path = tmp_path / "in.json"
    path.write_bytes(b'{"dim": 1, "entries": [[[1, 0]]], "label": "\xff"}')
    argv = {"measure": ["measure", str(path)], "replay": ["replay", str(path)],
            "interference": ["demo", "interference", "--config", str(path), "--out", str(tmp_path / "out.csv")]}
    assert main(argv[command]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not valid JSON: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["measure", "interference", "replay"])
@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"dim": %s}' % ("1" * 5000)],
                         ids=["nested-1e5-deep", "int-5000-digits"])
def test_json_that_python_cannot_decode_exit_3(tmp_path, capsys, command, text):
    # json raises RecursionError on deep nesting and int's ValueError past 4300 digits
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    argv = {"measure": ["measure", str(path)], "replay": ["replay", str(path)],
            "interference": ["demo", "interference", "--config", str(path), "--out", str(tmp_path / "out.csv")]}
    assert main(argv[command]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not valid JSON: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, what", [("measure", "state file"), ("interference", "config"),
                                           ("replay", "report")])
def test_a_path_that_open_refuses_is_unreadable_not_bad_json(tmp_path, capsys, command, what):
    # open() raises ValueError, not OSError, on a path holding a NUL byte
    path = str(tmp_path / "a\x00b.json")
    argv = {"measure": ["measure", path], "replay": ["replay", path],
            "interference": ["demo", "interference", "--config", path, "--out", str(tmp_path / "out.csv")]}
    assert main(argv[command]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {what} {path}: embedded null byte")
    assert not (tmp_path / "out.csv").exists()


def test_state_file_with_a_huge_dim_fails_on_its_first_row_without_allocating(tmp_path, capsys):
    # 10**6 empty rows take 3 MB of file; a (10**6, 10**6) complex matrix would take 14.6 TiB
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1000000, "entries": [%s]}' % ", ".join(["[]"] * 10**6), encoding="utf-8")
    tracemalloc.start()
    try:
        assert main(["measure", str(path)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parsed document itself, about 64 bytes per row; numpy reports its arrays to tracemalloc
    assert peak < 2**28
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: entries[0] must be a list of 1000000 cells\n"


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--alpha-re", "nan"], 2),
        (["--alpha-re=inf"], 2),
        (["--alpha-im", "nan"], 2),
        (["--alpha-re", "1e200"], 3),
        (["--alpha-re", "1.7e308", "--alpha-im", "1.7e308"], 3),
    ],
)
def test_demo_glauber_huge_or_non_finite_amplitude_exit_code(flags, code, capsys):
    assert main(["demo", "glauber", *flags]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _run_main(argv, out, capsys):
    """Exit code, printed output and written file of one main call."""
    out.unlink(missing_ok=True)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


_REPLAY_LINE = re.compile(r"^(.+): max_violation (\S+), replayed (\S+): (agrees|DISAGREES) within tol (\S+)$")


@pytest.mark.parametrize("d, samples", [(2, 20), (3, 20), (32, 1)])
def test_replay_agrees_with_every_expected_row(tmp_path, capsys, d, samples):
    audit = ["audit", "--measure", "l1,re,ibiqc", "--d", str(d), "--samples", str(samples), "--seed", "3",
             "--out", str(tmp_path)]
    every = ["--condition", "C0,C1,C2avg,C2sel,C3", "--class", "unital,diagonal,general"]
    for probe in ([], ["--probe-eigenbasis"]):
        assert main(audit + every + probe) in (0, 1)
    assert main(audit + ["--condition", "C2avg,C2sel", "--probe-eigenbasis"]) == 0
    paths = sorted(str(p) for p in tmp_path.glob("*.json"))
    capsys.readouterr()
    assert main(["replay", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(paths) == 60
    covered = set()
    for path, line in zip(paths, lines):
        match = _REPLAY_LINE.match(line)
        assert match and match[1] == path and match[4] == "agrees", line
        assert abs(float(match[2]) - float(match[3])) <= 1e-12, line
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        assert float(match[2]) == report["max_violation"] and float(match[5]) == report["tol"]
        covered.add((report["measure_name"], report["condition"], report["operation_class"],
                     report["probe_eigenbasis"]))
    assert set(EXPECTED_VERDICTS) == covered


def test_replay_exit_codes_and_show(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert main(["audit", "--measure", "ibiqc", "--condition", "C2sel", "--class", "unital", "--probe-eigenbasis",
                 "--d", "2", "--samples", "10", "--seed", "4", "--out", str(good)]) == 0
    report = json.loads(good.read_text(encoding="utf-8"))
    capsys.readouterr()
    assert main(["replay", "--show", str(good)]) == 0
    lines = capsys.readouterr().out.splitlines()
    shown = {line.split()[0]: json.loads(line.split(": ", 1)[1]) for line in lines[1:]}
    assert set(shown) == {"state", "eigenvectors"} and all(line.startswith("  ") for line in lines[1:])
    rho = np.array(shown["state"])
    assert rho.shape == (2, 2, 2)
    state = channels._witness_matrices(report["witness"]["state"], 2)
    assert (rho[..., 0] + 1j * rho[..., 1]).tolist() == state.tolist()

    off = tmp_path / "off.json"
    write_json(off, {**report, "max_violation": report["max_violation"] + 10 * report["tol"]})
    assert main(["replay", str(good), str(off)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(f"agrees within tol {report['tol']!r}") and "DISAGREES" in out[1]

    for bad in ({**report, "witness": {**report["witness"], "state": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}},
                {**report, "tol": "1e-9"}, {**report, "max_violation": None}, [report]):
        write_json(tmp_path / "bad.json", bad)
        assert main(["replay", str(good), str(tmp_path / "bad.json")]) == 3
        assert "bad.json" in capsys.readouterr().err
    # a witness state that is no density matrix is invalid input, not a disagreement
    for state, message in ((2 * channels._witness_matrices(report["witness"]["state"], 2), "trace"),
                           (np.diag([2.0, -1.0]), "smallest eigenvalue")):
        write_json(tmp_path / "bad.json", {**report, "witness": {**report["witness"],
                                                                 "state": channels._matrix_json(state)}})
        assert main(["replay", str(good), str(tmp_path / "bad.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith(f"{good}: ") and len(captured.out.splitlines()) == 1
        assert captured.err.startswith(f"error: {tmp_path / 'bad.json'}: {message}")
    (tmp_path / "bad.json").write_text("{", encoding="utf-8")
    assert main(["replay", str(tmp_path / "bad.json")]) == 3
    assert main(["replay", str(tmp_path / "missing.json")]) == 3
    assert main(["replay"]) == 2
    capsys.readouterr()


# None removes the key
@pytest.mark.parametrize("field, value", [("format", 2), ("format", True), ("format", 3.0), ("format", "3"),
                                          ("format", None), ("dim", 7), ("dim", 3.0), ("dim", None)])
def test_replay_of_a_file_that_is_not_a_format_3_report_exit_3(tmp_path, capsys, field, value):
    good = tmp_path / "good.json"
    assert main(["audit", "--measure", "re", "--condition", "C3", "--d", "3", "--samples", "5", "--seed", "2",
                 "--out", str(good)]) == 0
    report = json.loads(good.read_text(encoding="utf-8"))
    assert report["format"] == 3 and report["dim"] == 3
    report.pop(field)
    bad = tmp_path / "bad.json"
    write_json(bad, report if value is None else {**report, field: value})
    capsys.readouterr()
    assert main(["replay", str(good), str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{good}: ") and len(captured.out.splitlines()) == 1
    assert captured.err.startswith(f"error: {bad}: {field} must be ")


def test_replay_of_a_witness_above_max_audit_dim_exit_3(tmp_path, capsys):
    report = audit_conditions("ibiqc", "C2_selective", d=2, samples=5, seed=1, probe_eigenbasis=True).to_dict()
    bad = tmp_path / "bad.json"
    big = channels._matrix_json(np.zeros((257, 257), dtype=complex))
    for key in ("state", "eigenvectors"):
        write_json(bad, {**report, "witness": {**report["witness"], key: big}})
        assert main(["replay", str(bad)]) == 3, key
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: expected matrices of dimension at most MAX_AUDIT_DIM = 256, "
                                "got shape [257, 257]\n"), key


def test_reused_parser_gives_what_a_fresh_parser_gives(tmp_path, capsys):
    state = tmp_path / "state.json"
    write_state(state, random_density(3, seed=8), label="reuse")
    out = tmp_path / "out.json"
    audit = ["audit", "--measure", "ibiqc", "--condition", "C2sel", "--class", "unital",
             "--d", "3", "--samples", "20", "--seed", "11", "--out", str(out)]
    sequence = [
        audit + ["--probe-eigenbasis"],
        audit,
        ["sweep", "--points", "not-a-number"],
        ["sweep", "--points", "5"],
        ["measure", str(state), "--out", str(out)],
        ["measure", str(state)],
    ]
    assert build_parser() is build_parser()
    reused = [_run_main(argv, out, capsys) for argv in sequence]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(_run_main(argv, out, capsys))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 2, 0, 0, 0]
    assert reused[4][3] is not None and reused[5][3] is None
    assert reused[5][1].encode("utf-8") == reused[4][3]


def test_readme_names_every_public_export():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [name for name in cohkit.__all__ if not re.search(rf"\b{name}\b", readme)] == []


def test_import_leaves_scipy_unloaded():
    # numpy.random loads on the first draw, so commands that draw nothing skip it
    src = str(Path(cohkit.__file__).resolve().parents[1])
    code = "import sys, cohkit, cohkit.cli; print('scipy' in sys.modules, 'numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert proc.stdout.strip() == "False False"


def test_distance_search_leaves_scipy_unloaded():
    src = str(Path(cohkit.__file__).resolve().parents[1])
    code = ("import sys, cohkit\n"
            "rho = cohkit.random_density(3, seed=5)\n"
            "for metric in ('relative_entropy', 'trace', 'frobenius'):\n"
            "    cohkit.min_distance_coherence(rho, metric)\n"
            "    print(metric, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert proc.stdout.split() == ["relative_entropy", "False", "trace", "False", "frobenius", "False"]
