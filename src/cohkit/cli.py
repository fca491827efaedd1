"""Command-line front end: state files, sweeps, audits, and demos.

Subcommands:

  measure FILE            coherence report of one state file as JSON
  sweep                   qubit-pair measure table over an angle grid
  audit                   randomized condition audits with JSON reports
  demo glauber            truncated coherent-amplitude states per dimension
  demo interference       wave-plate fringe curve and visibility

State files are JSON: {"dim": d, "entries": d x d rows of [re, im]
pairs, "label": optional}. Numbers are written with 17 significant
digits so a save/load round trip is exact. CSV output uses a header
row, comma separators, '.' decimals, and LF line endings. All angles
are radians; degree input is not accepted anywhere.

Exit codes: 0 success (audit verdicts match expectations), 1 audit
verdict mismatch, 2 usage error, 3 invalid input file or state.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import channels, measures, states
from .errors import CohkitError, InvalidArgumentsError, ParseError

EXIT_OK = 0
EXIT_VERDICT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3

VISIBILITY_FLOOR = 1e-12

SWEEP_COLUMNS = (
    "alpha",
    "c_ibiqc_rho_z",
    "c_ibiqc_rho_x",
    "c_re_rho_z",
    "c_re_rho_x",
    "c_l1_rho_z",
    "c_l1_rho_x",
)
GLAUBER_COLUMNS = ("dim", "c_l1", "c_re", "c_ibiqc", "c_l1_ratio")
INTERFERENCE_COLUMNS = ("gamma", "intensity")

CONDITION_BY_FLAG = {
    "C0": "C0",
    "C1": "C1",
    "C2avg": "C2_average",
    "C2sel": "C2_selective",
    "C3": "C3",
}
CLASS_BY_FLAG = {
    "unital": "unital_mixture",
    "diagonal": "diagonal_incoherent",
    "general": "general_tp",
}

_H = channels.VERDICT_HOLDS
_V = channels.VERDICT_VIOLATED

# Expected verdict per (measure, condition, operation class, probe flag).
# Combinations absent from this table carry no expectation and never
# affect the exit code. Unitary invariance (C0), faithfulness (C1), and
# convexity (C3) ignore the operation class.
EXPECTED_VERDICTS = {}
for _probe in (False, True):
    EXPECTED_VERDICTS[("ibiqc", "C0", None, _probe)] = _H
    EXPECTED_VERDICTS[("l1", "C0", None, _probe)] = _V
    EXPECTED_VERDICTS[("re", "C0", None, _probe)] = _V
    for _m in ("l1", "re", "ibiqc"):
        EXPECTED_VERDICTS[(_m, "C1", None, _probe)] = _H
        EXPECTED_VERDICTS[(_m, "C3", None, _probe)] = _H
    EXPECTED_VERDICTS[("ibiqc", "C2_average", "unital_mixture", _probe)] = _H
    EXPECTED_VERDICTS[("ibiqc", "C2_average", "general_tp", _probe)] = _V
    EXPECTED_VERDICTS[("l1", "C2_average", "diagonal_incoherent", _probe)] = _H
    EXPECTED_VERDICTS[("re", "C2_average", "diagonal_incoherent", _probe)] = _H
EXPECTED_VERDICTS[("l1", "C2_selective", "diagonal_incoherent", False)] = _H
EXPECTED_VERDICTS[("re", "C2_selective", "diagonal_incoherent", False)] = _H
EXPECTED_VERDICTS[("ibiqc", "C2_selective", "unital_mixture", False)] = _H
for _cls in (None, "unital_mixture", "diagonal_incoherent", "general_tp"):
    EXPECTED_VERDICTS[("ibiqc", "C2_selective", _cls, True)] = _V


# ---------------------------------------------------------------- state files


def _fmt(x: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return f"{float(x):.17g}"


def _parse_state_document(doc, context: str) -> tuple[states.DensityMatrix, str | None]:
    if not isinstance(doc, dict):
        raise ParseError(f"{context}: expected a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{context}: \"dim\" must be a positive integer, got {dim!r}")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError(f"{context}: \"label\" must be a string")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ParseError(f"{context}: \"entries\" must be a list of {dim} rows")
    m = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{context}: entries[{i}] must be a list of {dim} cells")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in cell)
            ):
                raise ParseError(
                    f"{context}: entries[{i}][{j}] must be a finite [re, im] pair, got {cell!r}"
                )
            m[i, j] = complex(cell[0], cell[1])
    return states.make_density(m), label


def _load_json(path, what: str):
    """Read one JSON document; open and decode failures raise ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _read_statefile(path) -> tuple[states.DensityMatrix, str | None]:
    return _parse_state_document(_load_json(path, "state file"), context=str(path))


def load_state(path) -> states.DensityMatrix:
    """Read and validate a StateFile; malformed input raises ParseError,
    invalid states raise the make_density errors."""
    rho, _ = _read_statefile(path)
    return rho


def save_state(rho: states.DensityMatrix, path, label: str | None = None) -> None:
    """Write a StateFile with 17-significant-digit entries."""
    rows = []
    for row in rho.matrix:
        cells = ", ".join(f"[{_fmt(v.real)}, {_fmt(v.imag)}]" for v in row)
        rows.append(f"    [{cells}]")
    lines = ["{", f'  "dim": {rho.dim},']
    if label is not None:
        lines.append(f'  "label": {json.dumps(label)},')
    lines.append('  "entries": [')
    lines.append(",\n".join(rows))
    lines.append("  ]")
    lines.append("}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_table(columns, rows, out_path=None) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ------------------------------------------------------------------- sweeps


def default_alpha_grid(points: int = 181, start: float = 0.0, stop: float = math.pi) -> np.ndarray:
    return np.linspace(start, stop, points)


def sweep_alpha(alphas) -> list[tuple]:
    """Measure table for the qubit pair over an angle grid.

    Row layout follows SWEEP_COLUMNS: the shared-spectrum measure twice
    (diagonal state, then its Hadamard conjugate), then the two
    basis-dependent measures for each.
    """
    rows = []
    for alpha in np.asarray(alphas, dtype=float):
        rho_z, rho_x = states.qubit_pair(float(alpha))
        rows.append(
            (
                float(alpha),
                measures.ibiqc_coherence(rho_z),
                measures.ibiqc_coherence(rho_x),
                measures.rel_ent_coherence(rho_z),
                measures.rel_ent_coherence(rho_x),
                measures.l1_coherence(rho_z),
                measures.l1_coherence(rho_x),
            )
        )
    return rows


def demo_glauber(a, dims) -> list[tuple]:
    """Truncated coherent-amplitude measures per dimension.

    The last column is c_l1 / (d - 1), the fraction of the l1 ceiling
    the state reaches; nan for d = 1 where the ceiling is zero.
    """
    rows = []
    for d in dims:
        rho = states.glauber_truncated(a, d).to_density()
        c_l1 = measures.l1_coherence(rho)
        ratio = c_l1 / (d - 1) if d > 1 else math.nan
        rows.append((d, c_l1, measures.rel_ent_coherence(rho), measures.ibiqc_coherence(rho), ratio))
    return rows


# ------------------------------------------------------------- interference


@dataclass(frozen=True)
class InterferenceConfig:
    """Two-beam polarization interference setup, all angles in radians."""

    input_state: states.DensityMatrix
    plate_angle: float
    polarizer_angle: float
    gamma_grid: np.ndarray


def parse_interference_config(doc, context: str = "interference config") -> InterferenceConfig:
    if not isinstance(doc, dict):
        raise ParseError(f"{context}: expected a JSON object")
    source = doc.get("input")
    if source == "natural_light":
        rho = states.maximally_mixed(2)
    elif isinstance(source, dict) and set(source) == {"linear"}:
        psi = source["linear"]
        if not isinstance(psi, (int, float)) or not math.isfinite(psi):
            raise ParseError(f"{context}: linear polarization angle must be a finite number")
        rho = states.PureState(np.array([math.cos(psi), math.sin(psi)], dtype=complex)).to_density()
    elif isinstance(source, dict) and "entries" in source:
        rho, _ = _parse_state_document(source, context=f"{context}: input")
        if rho.dim != 2:
            raise ParseError(f"{context}: polarization states must have dim 2, got {rho.dim}")
    else:
        raise ParseError(
            f"{context}: \"input\" must be \"natural_light\", {{\"linear\": psi}}, or a state object"
        )
    angles = {}
    for key in ("plate_angle", "polarizer_angle"):
        value = doc.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ParseError(f"{context}: \"{key}\" must be a finite number in radians")
        angles[key] = float(value)
    grid = doc.get("gamma_grid")
    if (
        not isinstance(grid, list)
        or not grid
        or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in grid)
    ):
        raise ParseError(f"{context}: \"gamma_grid\" must be a non-empty list of finite numbers")
    return InterferenceConfig(
        input_state=rho,
        plate_angle=angles["plate_angle"],
        polarizer_angle=angles["polarizer_angle"],
        gamma_grid=np.asarray(grid, dtype=float),
    )


def load_interference_config(path) -> InterferenceConfig:
    return parse_interference_config(_load_json(path, "config"), context=str(path))


def demo_interference(cfg: InterferenceConfig) -> tuple[np.ndarray, float]:
    """Fringe curve behind a polarizer after a tunable wave plate.

    The plate applies diag(1, e^{i gamma}) in axes rotated by
    plate_angle; the polarizer projects onto polarizer_angle. Returns
    the intensity per grid point and the fringe visibility
    (max - min) / (max + min), defined as zero when the total signal
    stays below 1e-12.
    """
    theta = cfg.plate_angle
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]], dtype=complex
    )
    axis = np.array([math.cos(cfg.polarizer_angle), math.sin(cfg.polarizer_angle)], dtype=complex)
    rho = cfg.input_state.matrix
    intensities = np.empty(cfg.gamma_grid.shape[0], dtype=float)
    for idx, gamma in enumerate(cfg.gamma_grid):
        plate = rot @ np.diag([1.0, np.exp(1j * gamma)]) @ rot.conj().T
        out = plate @ rho @ plate.conj().T
        intensities[idx] = float(np.real(axis.conj() @ out @ axis))
    i_max = float(intensities.max())
    i_min = float(intensities.min())
    total = i_max + i_min
    visibility = 0.0 if total < VISIBILITY_FLOOR else (i_max - i_min) / total
    return intensities, visibility


# ------------------------------------------------------------------- audits


def _split_flags(raw: str, table: dict, option: str) -> list[str]:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if token not in table:
            raise InvalidArgumentsError(
                f"{option} got {token!r}; expected values from {sorted(table)}"
            )
        values.append(token)
    return values


def run_audit_cli(args) -> int:
    """Run every requested audit, write one JSON report each, compare
    verdicts against EXPECTED_VERDICTS."""
    measure_flags = _split_flags(args.measure, channels.MEASURE_FUNCTIONS, "--measure")
    condition_flags = _split_flags(args.condition, CONDITION_BY_FLAG, "--condition")
    class_flags = _split_flags(args.op_class, CLASS_BY_FLAG, "--class") if args.op_class else []

    combos = []
    for m in measure_flags:
        for cond_flag in condition_flags:
            condition = CONDITION_BY_FLAG[cond_flag]
            if condition in ("C2_average", "C2_selective"):
                for cls_flag in class_flags or [None]:
                    combos.append((m, cond_flag, cls_flag))
            else:
                combos.append((m, cond_flag, None))

    out = Path(args.out)
    single_file = out.suffix == ".json" and len(combos) == 1
    if not single_file:
        out.mkdir(parents=True, exist_ok=True)

    mismatches = 0
    for m, cond_flag, cls_flag in combos:
        condition = CONDITION_BY_FLAG[cond_flag]
        op_class = CLASS_BY_FLAG[cls_flag] if cls_flag else None
        report = channels.audit_conditions(
            m,
            condition,
            op_class,
            d=args.d,
            samples=args.samples,
            seed=args.seed,
            tol=args.tol,
            probe_eigenbasis=args.probe_eigenbasis,
        )
        if single_file:
            path = out
        else:
            stem = f"audit_{m}_{cond_flag}_{cls_flag or 'none'}"
            if args.probe_eigenbasis:
                stem += "_probe"
            path = out / f"{stem}.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_json())
        expected = EXPECTED_VERDICTS.get((m, condition, report.operation_class, report.probe_eigenbasis))
        note = ""
        if expected is not None and expected != report.verdict:
            mismatches += 1
            note = f"  MISMATCH (expected {expected})"
        print(
            f"{m} {condition} class={report.operation_class or '-'} "
            f"probe={'yes' if report.probe_eigenbasis else 'no'}: {report.verdict} "
            f"(max violation {report.max_violation:.6e}) -> {path}{note}"
        )
    return EXIT_VERDICT_MISMATCH if mismatches else EXIT_OK


# -------------------------------------------------------------- subcommands


def _cmd_measure(args) -> int:
    rho, label = _read_statefile(args.statefile)
    report = measures.coherence_report(rho).to_dict()
    if label is not None:
        report["label"] = label
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    for name, value in (("--from", args.start), ("--to", args.stop)):
        if not math.isfinite(value):
            raise InvalidArgumentsError(f"{name} must be finite, got {value!r}")
    if args.points < 1:
        raise InvalidArgumentsError(f"--points must be >= 1, got {args.points}")
    rows = sweep_alpha(default_alpha_grid(args.points, args.start, args.stop))
    _write_table(SWEEP_COLUMNS, rows, args.out)
    return EXIT_OK


def _cmd_demo_glauber(args) -> int:
    try:
        dims = [int(token) for token in args.dims.split(",") if token.strip()]
    except ValueError as exc:
        raise InvalidArgumentsError(f"--dims must be comma-separated integers: {exc}") from exc
    if not dims:
        raise InvalidArgumentsError("--dims must name at least one dimension")
    rows = demo_glauber(complex(args.alpha_re, args.alpha_im), dims)
    table = [(str(d),) + tuple(_fmt(v) for v in rest) for d, *rest in rows]
    _write_table(GLAUBER_COLUMNS, table, args.out)
    return EXIT_OK


def _cmd_demo_interference(args) -> int:
    cfg = load_interference_config(args.config)
    intensities, visibility = demo_interference(cfg)
    _write_table(INTERFERENCE_COLUMNS, list(zip(cfg.gamma_grid, intensities)), args.out)
    summary = {
        "visibility": visibility,
        "i_max": float(intensities.max()),
        "i_min": float(intensities.min()),
    }
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohkit",
        description="Coherence measures, condition audits, and interference demos. Angles are radians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="coherence report for a JSON state file")
    p.add_argument("statefile")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("sweep", help="qubit-pair measure table over an angle grid")
    p.add_argument("--from", dest="start", type=float, default=0.0, help="grid start in radians")
    p.add_argument("--to", dest="stop", type=float, default=math.pi, help="grid end in radians")
    p.add_argument("--points", type=int, default=181)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("audit", help="randomized condition audits")
    p.add_argument("--measure", required=True, help="comma list from l1,re,ibiqc")
    p.add_argument("--condition", required=True, help="comma list from C0,C1,C2avg,C2sel,C3")
    p.add_argument("--class", dest="op_class", default=None, help="comma list from unital,diagonal,general")
    p.add_argument("--d", type=int, default=2, help="state dimension")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=channels.DEFAULT_AUDIT_TOL)
    p.add_argument(
        "--probe-eigenbasis",
        action="store_true",
        help="also try the projective measurement onto each state's eigenbasis",
    )
    p.add_argument("--out", default=".", help="report directory, or a .json path for a single audit")
    p.set_defaults(func=run_audit_cli)

    demo = sub.add_parser("demo", help="worked demonstrations")
    demo_sub = demo.add_subparsers(dest="demo_command", required=True)

    p = demo_sub.add_parser("glauber", help="truncated coherent-amplitude measures per dimension")
    p.add_argument("--alpha-re", type=float, default=1.0)
    p.add_argument("--alpha-im", type=float, default=0.0)
    p.add_argument("--dims", default="2,3,4,8", help="comma-separated dimensions")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_demo_glauber)

    p = demo_sub.add_parser("interference", help="wave-plate fringe curve and visibility")
    p.add_argument("--config", required=True, help="JSON setup file")
    p.add_argument("--out", required=True, help="CSV path for the intensity curve")
    p.set_defaults(func=_cmd_demo_interference)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed usage or help
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        return args.func(args)
    except InvalidArgumentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CohkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
