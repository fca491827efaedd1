"""Command-line front end: state files, sweeps, audits, and demos.

Subcommands:

  measure FILE            coherence report of one state file as JSON
  sweep                   qubit-pair measure table over an angle grid
  audit                   randomized condition audits with JSON reports
  demo glauber            truncated coherent-amplitude states per dimension
  demo interference       wave-plate fringe curve and visibility
  replay REPORT.json...   recompute each audit report's violation from its witness

State files are JSON: {"dim": d, "entries": d x d rows of [re, im]
pairs, "label": optional}; they are read, never written, and any JSON
number that a double holds is read exactly. CSV output uses a header
row, comma separators, '.' decimals, LF line endings, and numbers with
17 significant digits, enough to reproduce each double exactly. All
angles are radians; degree input is not accepted anywhere.

Exit codes: 0 success (audit verdicts match expectations, replays agree),
1 audit verdict mismatch or replay disagreement, 2 usage error (an output
path that cannot be written among them), 3 invalid input file or state.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import channels, measures, states
from .errors import (CohkitError, InvalidArgumentsError, ParseError, finite_real, require_choice, require_count,
                     require_real)

EXIT_OK = 0
EXIT_VERDICT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3

VISIBILITY_FLOOR = 1e-12
# A sweep costs about 26 us and 1.2 KB per point, so its largest grid takes a few
# seconds and under 200 MB.
MAX_SWEEP_POINTS = 100_000

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

# The class whose channels are each measure's free operations, under which C2 holds. l1 and re are
# monotone under incoherent operations, whose Kraus operators keep diagonal states diagonal
# (Streltsov, Adesso & Plenio, RMP 89, 041003, 2017). ibiqc = log2 d - S measures nonuniformity,
# whose free operations are the unital channels (Gour et al., Phys. Rep. 583, 1, 2015); the
# general_tp and diagonal_incoherent pools hold the reset, which is not unital.
FREE_CLASS = {"l1": "diagonal_incoherent", "re": "diagonal_incoherent", "ibiqc": "unital_mixture"}


def _holds(measure: str, condition: str, op_class: str | None, probe: bool) -> bool:
    if condition == "C0":
        # l1 and re read the basis; ibiqc reads the spectrum alone
        return measure == "ibiqc"
    if condition.startswith("C2"):
        # the averaged probe is the identity channel; the selective probe's outcomes are rho's
        # eigenvectors, which carry coherence, and it lifts ibiqc by S(rho)
        return op_class in (None, FREE_CLASS[measure]) and not (probe and condition == "C2_selective")
    # each measure is faithful (C1) and convex (C3)
    return True


# Expected verdict of every (measure, condition, operation class, probe flag) that an audit accepts:
# the class counts only in C2, which needs a class or the probe.
EXPECTED_VERDICTS = {
    (m, c, cls, probe): channels.VERDICT_HOLDS if _holds(m, c, cls, probe) else channels.VERDICT_VIOLATED
    for m in channels.MEASURE_FUNCTIONS for c in channels.CONDITIONS for probe in (False, True)
    for cls in ((None, *states.OPERATION_CLASSES) if c.startswith("C2") else (None,))
    if cls or probe or not c.startswith("C2")
}


# ---------------------------------------------------------------- state files


def _fmt(x: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return f"{float(x):.17g}"


def _parse_state_document(doc, context: str) -> tuple[states.DensityMatrix, str | None]:
    if not isinstance(doc, dict):
        raise ParseError(f"{context}: expected a JSON object")
    dim = require_count(f'{context}: "dim"', doc.get("dim"), 1, error=ParseError)
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError(f"{context}: \"label\" must be a string")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ParseError(f"{context}: \"entries\" must be a list of {dim} rows")
    # the matrix is allocated only after every row has its dim cells, so it never outgrows the file
    cells = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{context}: entries[{i}] must be a list of {dim} cells")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2 or not all(map(finite_real, cell)):
                raise ParseError(
                    f"{context}: entries[{i}][{j}] must be a finite [re, im] pair, got {cell!r}"
                )
            cells.append(complex(cell[0], cell[1]))
    m = np.array(cells, dtype=complex).reshape(dim, dim)
    return states.make_density(m), label


def _load_json(path, what: str):
    """Read one JSON document; open, UTF-8, JSON decode and nesting failures raise ParseError."""
    try:
        # ValueError: a path open() refuses, such as one holding a NUL byte
        fh = open(path, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    with fh:
        try:
            return json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {what} {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer literal over
            # Python's 4300-digit limit; RecursionError, arrays or objects nested too deep
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_state(path) -> tuple[states.DensityMatrix, str | None]:
    """Read and validate a StateFile: its state and its label (None when
    absent). Malformed input raises ParseError, invalid states raise the
    make_density errors."""
    return _parse_state_document(_load_json(path, "state file"), context=str(path))


def _write_text(text: str, path=None) -> None:
    """Write text to stdout, or to a file at path with LF line endings; a
    path that cannot be written raises InvalidArgumentsError. An existing
    regular file is overwritten in place and cut to the new length."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        # no O_TRUNC: ext4 flushes a file emptied by it on close; cut to the new length instead
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise InvalidArgumentsError(f"cannot write {path}: {exc}") from exc


def _write_table(columns, rows, out_path=None) -> None:
    lines = [",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]
    _write_text("\n".join(lines) + "\n", out_path)


# ------------------------------------------------------------------- sweeps


def default_alpha_grid(points: int = 181, start: float = 0.0, stop: float = math.pi) -> np.ndarray:
    return np.linspace(start, stop, points)


def sweep_alpha(alphas) -> list[tuple]:
    """Measure table for the qubit pair over an angle grid.

    Row layout follows SWEEP_COLUMNS: the shared-spectrum measure twice
    (diagonal state, then its Hadamard conjugate), then the two
    basis-dependent measures for each.
    """
    alphas = [float(alpha) for alpha in np.asarray(alphas, dtype=float)]
    if not alphas:
        return []
    pairs = [states.qubit_pair(alpha) for alpha in alphas]
    rho_z = np.stack([z.matrix for z, _ in pairs])
    rho_x = np.stack([x.matrix for _, x in pairs])
    columns = [
        kernel(rho).tolist()
        for kernel in (measures.c_ibiqc, measures.c_re, measures.c_l1)
        for rho in (rho_z, rho_x)
    ]
    return list(zip(alphas, *columns))


def demo_glauber(a, dims) -> list[tuple]:
    """Truncated coherent-amplitude measures per dimension.

    The last column is c_l1 / (d - 1), the fraction of the l1 ceiling
    the state reaches; nan for d = 1 where the ceiling is zero.
    """
    rows = []
    for d in dims:
        r = measures.coherence_report(states.glauber_truncated(a, d).to_density())
        rows.append((d, r.c_l1, r.c_re, r.c_ibiqc, r.c_l1 / (d - 1) if d > 1 else math.nan))
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
        psi = require_real(f'{context}: "linear" polarization angle', source["linear"], error=ParseError)
        rho = states.PureState(np.array([math.cos(psi), math.sin(psi)], dtype=complex)).to_density()
    elif isinstance(source, dict) and "entries" in source:
        rho, _ = _parse_state_document(source, context=f"{context}: input")
        if rho.dim != 2:
            raise ParseError(f"{context}: polarization states must have dim 2, got {rho.dim}")
    else:
        raise ParseError(
            f"{context}: \"input\" must be \"natural_light\", {{\"linear\": psi}}, or a state object"
        )
    angles = {key: require_real(f'{context}: "{key}" in radians', doc.get(key), error=ParseError)
              for key in ("plate_angle", "polarizer_angle")}
    grid = doc.get("gamma_grid")
    if not isinstance(grid, list) or not grid:
        raise ParseError(f"{context}: \"gamma_grid\" must be a non-empty list of finite numbers")
    return InterferenceConfig(
        input_state=rho,
        plate_angle=angles["plate_angle"],
        polarizer_angle=angles["polarizer_angle"],
        gamma_grid=np.array([require_real(f'{context}: "gamma_grid"[{k}]', g, error=ParseError)
                             for k, g in enumerate(grid)]),
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
    return [require_choice(option, token.strip(), table) for token in raw.split(",")]


def run_audit_cli(args) -> int:
    """Run every requested audit, write one JSON report each, compare
    verdicts against EXPECTED_VERDICTS."""
    measure_flags = _split_flags(args.measure, channels.MEASURE_FUNCTIONS, "--measure")
    condition_flags = _split_flags(args.condition, CONDITION_BY_FLAG, "--condition")
    class_flags = _split_flags(args.op_class, CLASS_BY_FLAG, "--class") if args.op_class else []

    combos = [(m, cond_flag, cls_flag) for m in measure_flags for cond_flag in condition_flags
              for cls_flag in (class_flags or [None] if cond_flag.startswith("C2") else [None])]
    # every combination is checked before --out is created, so a rejected run leaves nothing behind
    for m, cond_flag, cls_flag in combos:
        channels.validate_audit_arguments(m, CONDITION_BY_FLAG[cond_flag], CLASS_BY_FLAG.get(cls_flag), args.d,
                                          args.samples, args.seed, args.tol, args.probe_eigenbasis)

    out = Path(args.out)
    single_file = out.suffix == ".json" and len(combos) == 1
    if not single_file:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidArgumentsError(f"cannot write reports to {out}: {exc}") from exc

    mismatches = 0
    for m, cond_flag, cls_flag in combos:
        condition = CONDITION_BY_FLAG[cond_flag]
        op_class = CLASS_BY_FLAG[cls_flag] if cls_flag else None
        report = channels.audit_conditions(m, condition, op_class, d=args.d, samples=args.samples, seed=args.seed,
                                           tol=args.tol, probe_eigenbasis=args.probe_eigenbasis)
        if single_file:
            path = out
        else:
            stem = f"audit_{m}_{cond_flag}_{cls_flag or 'none'}"
            if args.probe_eigenbasis:
                stem += "_probe"
            path = out / f"{stem}.json"
        _write_text(report.to_json(), path)
        expected = EXPECTED_VERDICTS[m, condition, report.operation_class, report.probe_eigenbasis]
        note = ""
        if expected != report.verdict:
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
    rho, label = load_state(args.statefile)
    report = measures.coherence_report(rho).to_dict()
    if label is not None:
        report["label"] = label
    _write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    start, stop = require_real("--from", args.start), require_real("--to", args.stop)
    # numpy's linspace takes stop - start, which overflows beyond the double range
    require_real("--to minus --from", stop - start)
    rows = sweep_alpha(default_alpha_grid(require_count("--points", args.points, 1, MAX_SWEEP_POINTS), start, stop))
    _write_table(SWEEP_COLUMNS, rows, args.out)
    return EXIT_OK


def _cmd_demo_glauber(args) -> int:
    # each row builds a dense d x d state and decomposes it, as one audit sample does
    try:
        dims = [require_count("--dims entry", int(token), 1, channels.MAX_AUDIT_DIM) for token in args.dims.split(",")]
    except ValueError as exc:
        raise InvalidArgumentsError(f"--dims must be comma-separated integers: {exc}") from exc
    a = complex(require_real("--alpha-re", args.alpha_re), require_real("--alpha-im", args.alpha_im))
    rows = demo_glauber(a, dims)
    _write_table(GLAUBER_COLUMNS, rows, args.out)
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
    _write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_replay(args) -> int:
    disagreements = 0
    for path in args.reports:
        report = _load_json(path, "report")
        try:
            replayed = channels.replay_violation(report)
            recorded = require_real("max_violation", report.get("max_violation"), error=ParseError)
            tol = require_real("tol", report.get("tol"), lo=0, error=ParseError)
            matrices = channels.witness_arrays(report["witness"])
            # replay_violation also reads to_dict() output, which has no "format"; a report file must have it
            fmt, dim = report.get("format"), report.get("dim")
            if type(fmt) is not int or fmt != channels.REPORT_FORMAT:
                raise ParseError(f"format must be the integer {channels.REPORT_FORMAT}, got {fmt!r}")
            for key, m in matrices.items():
                if type(dim) is not int or dim != m.shape[-1]:
                    raise ParseError(f"dim must be {m.shape[-1]}, the dimension of the witness {key}, got {dim!r}")
            verdict = channels.VERDICT_HOLDS if recorded <= tol else channels.VERDICT_VIOLATED
            if report.get("verdict") != verdict:
                raise ParseError(f"verdict must be {verdict!r}, as max_violation {recorded!r} against tol {tol!r} "
                                 f"gives, got {report.get('verdict')!r}")
            # as validate_audit_arguments: sample indices below 2**32 are one 32-bit seed word
            samples = require_count("samples", report.get("samples"), 1, 2**32, error=ParseError)
            diagnostics = report.get("diagnostics")
            require_count("diagnostics.samples_above_tol", diagnostics.get("samples_above_tol")
                          if isinstance(diagnostics, dict) else None, 0, samples, error=ParseError)
        except CohkitError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        agrees = abs(replayed - recorded) <= tol
        disagreements += not agrees
        print(f"{path}: max_violation {recorded!r}, replayed {float(replayed)!r}: "
              f"{'agrees' if agrees else 'DISAGREES'} within tol {tol!r}")
        for key, m in matrices.items() if args.show else ():
            print(f"  {key} {list(m.shape)}: {json.dumps(np.stack([m.real, m.imag], axis=-1).tolist())}")
    return EXIT_VERDICT_MISMATCH if disagreements else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The cohkit argument parser, built on the first call and shared after
    it, so callers must not modify it.

    Reuse is safe because parse_args returns a fresh Namespace each time and
    set_defaults only fills attributes that namespace lacks.
    """
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

    p = sub.add_parser("replay", help="recompute each audit report's violation from its witness matrices")
    p.add_argument("reports", nargs="+", metavar="REPORT.json")
    p.add_argument("--show", action="store_true", help="also print each witness matrix as [re, im] pairs")
    p.set_defaults(func=_cmd_replay)

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
    except CohkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, InvalidArgumentsError) else EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
