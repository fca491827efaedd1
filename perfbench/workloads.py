"""The benchmark's four workloads: seeded inputs, operations and output checks.

A workload is a list of passes, each a list of operations; a run repeats
whole passes. Every input is generated from the workload seed before the
first operation is timed. Each operation has a timed part (`call`, one
audit command, one CLI command or one search) and an untimed `check` that
returns the operation's output bytes and the problems found in them.
NOTES.md says why each workload exists and which layers it exercises.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from cohkit import channels, cli, measures, states

# Distinct passes generated per run; longer runs cycle through them.
PASS_POOL = 64

# Rows where a "holds" verdict against an expected "violated" is a known
# finding of the audit sampler, not a regression: the random general_tp
# channels of this row raise c_ibiqc for 5.6 % of d = 3 samples and for
# none seen at d >= 8. Such an operation is reported in fail_ratio and
# channels.verdict_mismatch but not counted as failed (see NOTES.md).
KNOWN_MISMATCH_ROWS = {("ibiqc", "C2_average", "general_tp")}

_FLAG_BY_CONDITION = {v: k for k, v in cli.CONDITION_BY_FLAG.items()}
_FLAG_BY_CLASS = {v: k for k, v in cli.CLASS_BY_FLAG.items()}


class Problem(NamedTuple):
    kind: str  # "verdict", "value", "exit", "error" or "repeat"
    text: str
    known: bool = False


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bytes, list[Problem]]]


@dataclass
class Workload:
    passes: list[list[Op]]
    trace_passes: int  # fixed work of a traced run, so its counts repeat exactly
    setup_snippet: str  # import-and-warm-up code for a fresh interpreter

    def pass_ops(self, k: int) -> list[Op]:
        return self.passes[k % len(self.passes)]


def _run_cli(argv: list[str]):
    """One CLI command, with stdout captured as a user's terminal would."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / m.trace().real


# ------------------------------------------------------------------ audits

AUDIT_D32_ROWS = (
    ("ibiqc", "C0", None, False),
    ("re", "C3", None, False),
    ("ibiqc", "C2_selective", "unital_mixture", True),
    ("l1", "C2_average", "diagonal_incoherent", False),
    ("ibiqc", "C2_average", "general_tp", False),
)


def _audit_op(row, d: int, samples: int, seed: int, out: Path) -> Op:
    measure, condition, op_class, probe = row
    argv = ["audit", "--measure", measure, "--condition", _FLAG_BY_CONDITION[condition],
            "--d", str(d), "--samples", str(samples), "--seed", str(seed), "--out", str(out)]
    if op_class is not None:
        argv += ["--class", _FLAG_BY_CLASS[op_class]]
    if probe:
        argv.append("--probe-eigenbasis")
    expected = cli.EXPECTED_VERDICTS[row]

    def check(result):
        code, _ = result
        data = out.read_bytes()
        report = json.loads(data)
        problems = []
        asked = (measure, condition, op_class, d, samples, seed, probe)
        got = tuple(report[k] for k in ("measure_name", "condition", "operation_class", "dim",
                                        "samples", "seed", "probe_eigenbasis"))
        if got != asked:
            problems.append(Problem("value", f"report describes {got}, asked for {asked}"))
        if not math.isfinite(report["max_violation"]):
            problems.append(Problem("value", f"max_violation {report['max_violation']!r}"))
        mismatch = report["verdict"] != expected
        if mismatch:
            known = row[:3] in KNOWN_MISMATCH_ROWS and report["verdict"] == channels.VERDICT_HOLDS
            problems.append(Problem("verdict", f"verdict {report['verdict']}, expected {expected}", known))
        if code != (cli.EXIT_VERDICT_MISMATCH if mismatch else cli.EXIT_OK):
            problems.append(Problem("exit", f"exit code {code}"))
        return data, problems

    label = f"audit {measure} {condition} {op_class or '-'}{' probe' if probe else ''} d={d}"
    return Op(label, lambda: _run_cli(argv), check)


def _audit_workload(rows, d, samples, seed, work: Path, trace_passes, setup_samples):
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**31, size=(PASS_POOL, len(rows)))
    out = work / "report.json"
    passes = [[_audit_op(row, d, samples, int(s), out) for row, s in zip(rows, pass_seeds)]
              for pass_seeds in seeds]
    snippet = (f"from cohkit import cli; cli.main(['audit', '--measure', 'ibiqc', '--condition', 'C0', "
               f"'--d', '{d}', '--samples', '{setup_samples}', '--out', {str(work / 'setup.json')!r}])")
    return Workload(passes, trace_passes, snippet)


def audit_table(seed: int, work: Path) -> Workload:
    """Every EXPECTED_VERDICTS row through the CLI at d = 3, 100 samples each."""
    return _audit_workload(list(cli.EXPECTED_VERDICTS), 3, 100, seed, work,
                           trace_passes=1, setup_samples=10)


def audit_d32(seed: int, work: Path) -> Workload:
    """Five rows at d = 32, one sample per audit."""
    return _audit_workload(AUDIT_D32_ROWS, 32, 1, seed, work,
                           trace_passes=2, setup_samples=1)


# --------------------------------------------------------------- CLI files

CLI_DIMS = (2, 3, 4)
STATE_FILES_PER_DIM = 32
MEASURES_PER_DIM = 8  # per pass
GAMMA_POINTS = 33


def _write_state_file(path: Path, m: np.ndarray, label: str) -> None:
    entries = [[[float(v.real), float(v.imag)] for v in row] for row in m]
    path.write_text(json.dumps({"dim": len(m), "label": label, "entries": entries}) + "\n", encoding="utf-8")


def _measure_op(path: Path, m: np.ndarray, label: str, out: Path) -> Op:
    d = len(m)
    eigs = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    s_rho_ref = _entropy_bits(eigs)
    s_diag_ref = _entropy_bits(np.clip(m.diagonal().real, 0.0, None))
    l1_ref = float(np.abs(m).sum() - np.abs(m.diagonal()).sum())

    def check(result):
        code, _ = result
        data = out.read_bytes()
        r = json.loads(data)
        problems = []
        if code != cli.EXIT_OK:
            problems.append(Problem("exit", f"exit code {code}"))
        if r["dim"] != d or r.get("label") != label:
            problems.append(Problem("value", f"report for dim {r['dim']} label {r.get('label')!r}"))
        if not _close(r["c_ibiqc"], math.log2(d) - r["s_rho"], 1e-12):
            problems.append(Problem("value", "c_ibiqc != log2 d - s_rho"))
        if not _close(r["c_re"], max(0.0, r["s_diag"] - r["s_rho"]), 1e-12):
            problems.append(Problem("value", "c_re != max(0, s_diag - s_rho)"))
        if not (_close(r["s_rho"], s_rho_ref, 1e-9) and _close(r["s_diag"], s_diag_ref, 1e-12)
                and _close(r["c_l1"], l1_ref, 1e-12)):
            problems.append(Problem("value", "entropies or c_l1 differ from the numpy reference"))
        return data, problems

    argv = ["measure", str(path), "--out", str(out)]
    return Op(f"measure d={d}", lambda: _run_cli(argv), check)


def _read_csv(path: Path) -> tuple[bytes, list[list[str]]]:
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    return data, [line.split(",") for line in lines[1:]]


def _qubit_pair_closed_form(alpha: float) -> float:
    """Criterion 1: c_ibiqc of diag(cos^2, sin^2) is 1 - h(cos^2)."""
    return 1.0 - _entropy_bits(np.array([math.cos(alpha) ** 2, math.sin(alpha) ** 2]))


def _sweep_op(start: float, stop: float, points: int, out: Path) -> Op:
    def check(result):
        code, _ = result
        data, rows = _read_csv(out)
        problems = [] if code == cli.EXIT_OK else [Problem("exit", f"exit code {code}")]
        grid = np.linspace(start, stop, points)
        if len(rows) != points:
            problems.append(Problem("value", f"{len(rows)} sweep rows, expected {points}"))
        for want_alpha, row in zip(grid, rows):
            alpha, ib_z, ib_x, re_z, re_x, l1_z, l1_x = map(float, row)
            want = _qubit_pair_closed_form(alpha)
            if not (alpha == want_alpha and _close(ib_z, want, 1e-9) and _close(ib_x, want, 1e-9)
                    and _close(re_z, 0.0, 1e-9) and _close(re_x, want, 1e-9) and _close(l1_z, 0.0, 1e-12)
                    and _close(l1_x, abs(math.cos(2 * alpha)), 1e-9)):
                problems.append(Problem("value", f"sweep row at alpha={alpha!r} misses the closed form"))
                break
        return data, problems

    argv = ["sweep", "--from", repr(start), "--to", repr(stop), "--points", str(points), "--out", str(out)]
    return Op("sweep", lambda: _run_cli(argv), check)


def _glauber_op(a: complex, dims: tuple[int, ...], out: Path) -> Op:
    def check(result):
        code, _ = result
        data, rows = _read_csv(out)
        problems = [] if code == cli.EXIT_OK else [Problem("exit", f"exit code {code}")]
        if [int(row[0]) for row in rows] != list(dims):
            problems.append(Problem("value", "glauber rows do not follow --dims"))
        for row in rows:
            d = int(row[0])
            c_l1, c_re, c_ibiqc, ratio = map(float, row[1:])
            # pure state with amplitudes proportional to a^n / sqrt(n!)
            amps = np.array([abs(a) ** n / math.sqrt(math.factorial(n)) for n in range(d)])
            amps /= np.linalg.norm(amps)
            want_l1 = float(amps.sum() ** 2 - 1.0)
            if not (_close(c_l1, want_l1, 1e-9) and _close(c_re, _entropy_bits(amps**2), 1e-9)
                    and _close(c_ibiqc, math.log2(d), 1e-9) and _close(ratio, want_l1 / (d - 1), 1e-9)):
                problems.append(Problem("value", f"glauber row d={d} misses the closed form"))
        return data, problems

    argv = ["demo", "glauber", "--alpha-re", repr(a.real), "--alpha-im", repr(a.imag),
            "--dims", ",".join(map(str, dims)), "--out", str(out)]
    return Op("demo glauber", lambda: _run_cli(argv), check)


def _interference_op(config: Path, psi: float, theta: float, phi: float, gamma: np.ndarray, out: Path) -> Op:
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    source = np.array([math.cos(psi), math.sin(psi)])
    axis = np.array([math.cos(phi), math.sin(phi)])
    want = np.array([abs(axis @ rot @ np.diag([1.0, np.exp(1j * g)]) @ rot.T @ source) ** 2 for g in gamma])
    want_vis = (want.max() - want.min()) / (want.max() + want.min())

    def check(result):
        code, stdout = result
        data, rows = _read_csv(out)
        problems = [] if code == cli.EXIT_OK else [Problem("exit", f"exit code {code}")]
        got = np.array([[float(v) for v in row] for row in rows])
        summary = json.loads(stdout)
        if got.shape != (len(gamma), 2) or not np.array_equal(got[:, 0], gamma):
            problems.append(Problem("value", "interference curve is not on the requested grid"))
        elif np.max(np.abs(got[:, 1] - want)) > 1e-12 or not _close(summary["visibility"], want_vis, 1e-9):
            problems.append(Problem("value", "fringe curve or visibility differs from the closed form"))
        return data + stdout.encode("utf-8"), problems

    argv = ["demo", "interference", "--config", str(config), "--out", str(out)]
    return Op("demo interference", lambda: _run_cli(argv), check)


def cli_files(seed: int, work: Path) -> Workload:
    """measure over state files at d = 2, 3, 4 interleaved with sweep and demo commands."""
    rng = np.random.default_rng(seed)
    files = {}
    for d in CLI_DIMS:
        for i in range(STATE_FILES_PER_DIM):
            m = _random_state(rng, d)
            path = work / f"state_d{d}_{i}.json"
            _write_state_file(path, m, f"d{d}-{i}")
            files[d, i] = (path, m, f"d{d}-{i}")
    out = work / "out.json"
    csv_out = work / "out.csv"
    passes = []
    for k in range(PASS_POOL):
        picks = rng.integers(0, STATE_FILES_PER_DIM, size=(MEASURES_PER_DIM, len(CLI_DIMS)))
        measure_ops = [_measure_op(*files[d, int(i)], out) for row in picks for d, i in zip(CLI_DIMS, row)]
        start = float(rng.uniform(0.0, math.pi))
        sweep = _sweep_op(start, start + float(rng.uniform(0.1, 0.5)), 9, csv_out)
        glauber = _glauber_op(complex(*rng.uniform(-1.5, 1.5, size=2)), CLI_DIMS, csv_out)
        psi, theta, phi = (float(x) for x in rng.uniform(0.0, math.pi, size=3))
        gamma = np.linspace(0.0, 2 * math.pi, GAMMA_POINTS)
        config = work / f"interference_{k}.json"
        config.write_text(json.dumps({"input": {"linear": psi}, "plate_angle": theta, "polarizer_angle": phi,
                                      "gamma_grid": gamma.tolist()}), encoding="utf-8")
        interference = _interference_op(config, psi, theta, phi, gamma, csv_out)
        third = len(measure_ops) // 3
        passes.append(measure_ops[:third] + [sweep] + measure_ops[third:2 * third] + [glauber]
                      + measure_ops[2 * third:] + [interference])
    path = files[CLI_DIMS[0], 0][0]
    snippet = (f"from cohkit import cli; cli.main(['measure', {str(path)!r}, "
               f"'--out', {str(work / 'setup.json')!r}])")
    return Workload(passes, 20, snippet)


# ---------------------------------------------------------- distance search

# (metric, d, count) per pass. The fast searches (about 4-30 ms each at
# the seed) are 14 of 17 operations and the trace searches at d = 3
# (about 120-230 ms) the other 3, so the median falls inside the fast
# mode and the 90th percentile near the middle of the slow one, not in
# the gap between them. trace at d = 4 (0.45-1.2 s per search) is left
# out: a few of those per run would dominate ops_per_s with their
# seed-to-seed spread.
SEARCH_MIX = (
    ("relative_entropy", 2, 2), ("relative_entropy", 3, 2), ("relative_entropy", 4, 2),
    ("frobenius", 2, 2), ("frobenius", 3, 2), ("frobenius", 4, 2),
    ("trace", 2, 2), ("trace", 3, 3),
)


def _search_op(rho, metric: str) -> Op:
    m = rho.matrix
    d = len(m)
    diag = np.clip(m.diagonal().real, 0.0, None)
    offdiag = m - np.diag(m.diagonal())
    if metric == "relative_entropy":
        low = high = _entropy_bits(diag) - _entropy_bits(np.clip(np.linalg.eigvalsh(m), 0.0, None))
        tol = 1e-6
    elif metric == "frobenius":
        # diag(rho) is the closest diagonal matrix, and it is a state
        low = high = float(np.linalg.norm(offdiag))
        tol = 1e-6
    else:
        # Compressing to a 2x2 block cannot raise the trace norm, so the
        # largest off-diagonal entry bounds it from below; the search
        # starts at diag(rho), which bounds it from above.
        low = float(np.abs(offdiag).max())
        high = 0.5 * float(np.abs(np.linalg.eigvalsh(offdiag)).sum())
        tol = 1e-9

    def check(result):
        value, delta = result
        problems = []
        probs = np.asarray(delta.probs)
        if not (math.isfinite(value) and low - tol <= value <= high + tol):
            problems.append(Problem("value", f"{metric} distance {value!r} outside [{low!r}, {high!r}]"))
        if probs.shape != (d,) or abs(probs.sum() - 1.0) > 1e-12 or probs.min() < 0.0:
            problems.append(Problem("value", "minimizer is not a probability vector"))
        return np.float64(value).tobytes() + probs.tobytes(), problems

    return Op(f"search {metric} d={d}", lambda: measures.min_distance_coherence(rho, metric), check)


def distance_search(seed: int, work: Path) -> Workload:
    """min_distance_coherence over seeded random states, three metrics."""
    rng = np.random.default_rng(seed)
    passes = []
    for _ in range(PASS_POOL):
        ops = [_search_op(states.make_density(_random_state(rng, d)), metric)
               for metric, d, count in SEARCH_MIX for _ in range(count)]
        passes.append([ops[i] for i in rng.permutation(len(ops))])
    snippet = ("from cohkit import measures, states; "
               "measures.min_distance_coherence(states.random_density(3, 0), 'relative_entropy')")
    return Workload(passes, 4, snippet)


WORKLOADS = {
    "audit-table": audit_table,
    "audit-d32": audit_d32,
    "cli-files": cli_files,
    "distance-search": distance_search,
}
