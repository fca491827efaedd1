"""Byte-identity battery: one fixed set of cohkit calls, run on a parent
revision and on this checkout, with every row whose bytes differ named.

Usage, from the root of a checkout:

    python3 tools/identity.py --parent <rev> [--expect-change GROUP[:ROW]]...

The parent revision is exported (bench_pairs.export_commit) and the change
is copied from this checkout's working tree (bench_pairs.copy_worktree:
tracked files with their edits, and untracked files that git does not
ignore), each into a subdirectory of one temporary directory that is
removed afterwards. Each tree runs the battery in a fresh Python process,
with that tree's src/ first on PYTHONPATH and a temporary working
directory. A row is one call; its digest is the SHA-256 of everything the
call produced. The groups:

  audit         AUDIT_ROWS, every combination an audit accepts, written
                in CLI flag form in this tool and checked against
                cli.EXPECTED_VERDICTS by tests/test_identity.py (named like
                l1-C2avg-none-probe-d3-s0), at d = 2, 3 and 5 (100 samples),
                and five rows at d = 32 (10 samples), at seeds 0, 11 and
                2**33 + 1, through cli.main: exit code, stdout, stderr and
                the report text
  replay        cohkit replay --show on the report of every audit row: exit
                code, stdout and stderr
  measure       cohkit measure over generated state files (d = 1 to 8, with
                and without a label, to stdout and to --out), over the pure
                states |0><0| and equal-amplitude at d = 2, 3 and 4 (named
                like pure-zero-d2 and pure-equal-d2-out), whose entropies are
                zero, and over bad or missing files
  sweep         cohkit sweep over four grids
  glauber       cohkit demo glauber over amplitudes and dimension lists
  interference  cohkit demo interference over natural-light, linear and
                inline-state configs, and a config whose gamma_grid holds
                1e400
  search        min_distance_coherence value and probs bytes, all three
                metrics, on generated states at d = 2, 3, 4, 8 and 9 (from
                8 entries on numpy sums pairwise), at d = 1 and on
                random_density(4, seed=409), and the trace search
                at budgets 2 to 40 (an OptimizerFailure message is the
                row's result)
  gates         rejected command lines: exit code, stdout and stderr; among
                them bad sizes, counts, seeds and tolerances, unknown
                --measure, --condition and --class tokens, and a sweep
                whose --from and --to span more than the double range
  overwrite     measure, sweep, audit to a .json file and to a directory,
                demo glauber and demo interference, each with an --out that
                already holds 256 KB of junk: exit code, stdout, stderr and
                the file's bytes
  library       each sized constructor of states at d = 256 and 257,
                random_channel of each family at k = 256 and 257, and
                KrausSet of a string, of a list holding a string and of
                operators of mixed shapes, and, for each channel family at
                d = 3 and k = 1 to 4, the three classify_kraus flags as
                booleans and apply_channel on the set scaled by 1 + 1e-6:
                the bytes of the object built, or the type and message of
                the error

An exception that escapes cli.main does not end the battery: its type and
message are the row's result in place of the exit code, and its stderr
reads "uncaught <type>: <message>". A library row records the type and
message of the error its call raised, in its stderr too; one that is no
CohkitError counts as raised.

The tool prints the parent's commit, HEAD's commit and whether the copied
working tree differs from HEAD (change_dirty), then one digest per group,
then every row that differs or is present on one side only, with the
stderr of both sides on gates rows.
--expect-change GROUP or GROUP:ROW declares differences that the change
makes on purpose (repeatable). ROW may be an fnmatch pattern, such as
'audit:*-C2*-probe-*', which declares every row of the group it matches.
It exits 1 when any other row differs, or when a row of the change raised.
On rows that hold, an audit's witness index can move with the LAPACK
build, so compare trees on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import copy_worktree, export_commit, worktree_commit

ROOT = Path(__file__).resolve().parent.parent
AUDIT_SEEDS = (0, 11, 2**33 + 1)
# The battery's inputs are written here, not read from the tree under test, so that both trees
# run the same rows. Audit rows are in CLI flag form: (--measure, --condition, --class or None,
# --probe-eigenbasis); AUDIT_ROWS is every combination an audit accepts, in the order of
# cli.EXPECTED_VERDICTS: the class counts only in C2, which needs a class or the probe.
AUDIT_ROWS = tuple(
    (measure, condition, op_class, probe) for measure in ("l1", "re", "ibiqc")
    for condition in ("C0", "C1", "C2avg", "C2sel", "C3") for probe in (False, True)
    for op_class in ((None, "unital", "diagonal", "general") if condition.startswith("C2") else (None,))
    if op_class or probe or not condition.startswith("C2")
)
AUDIT_D32_ROWS = (
    ("ibiqc", "C0", None, False),
    ("re", "C3", None, False),
    ("ibiqc", "C2sel", "unital", True),
    ("l1", "C2avg", "diagonal", False),
    ("ibiqc", "C2avg", "general", False),
)
METRICS = ("relative_entropy", "trace", "frobenius")
CHANNEL_FAMILIES = ("unital_mixture", "diagonal_incoherent", "general_tp")


# ---------------------------------------------------------------- battery


def _state(rng, d: int):
    """A random density matrix from numpy alone, so both trees read the same inputs."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / m.trace().real


def _entries(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def battery(tree: Path) -> list[dict]:
    """Every row of the battery as {"group", "row", "sha256", "stderr"}, run in the current directory."""
    import numpy as np

    import cohkit
    from cohkit import channels, cli, errors, measures, states

    if not Path(cohkit.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"cohkit was imported from {cohkit.__file__}, not from {tree}")
    rows = []

    def add(group: str, row: str, payload: bytes, stderr: str = "", raised: bool = False) -> None:
        rows.append({"group": group, "row": row, "sha256": hashlib.sha256(payload).hexdigest(), "stderr": stderr,
                     "raised": raised})

    def run(group: str, row: str, argv: list[str], *outputs: str, junk: bytes = b"") -> None:
        """One cli.main call; an exception it lets escape is the row's result in place of an exit code.
        Each output is removed first, or filled with junk when junk is given, so that the call overwrites it."""
        out, err = io.StringIO(), io.StringIO()
        for path in outputs:
            if junk:
                Path(path).parent.mkdir(parents=True, exist_ok=True)
                Path(path).write_bytes(junk)
            else:
                Path(path).unlink(missing_ok=True)
        raised = False
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:
                raised, code = True, f"{type(exc).__name__}: {exc}"
                print(f"uncaught {code}", file=sys.stderr)
        files = [Path(p).read_bytes() if Path(p).exists() else b"<absent>" for p in outputs]
        payload = json.dumps([code, out.getvalue(), err.getvalue()]).encode() + b"\0" + b"\0".join(files)
        add(group, row, payload, err.getvalue(), raised)

    table = [(row, d, 100) for d in (2, 3, 5) for row in AUDIT_ROWS]
    table += [(row, 32, 10) for row in AUDIT_D32_ROWS]
    for (measure, condition, op_class, probe), d, samples in table:
        for seed in AUDIT_SEEDS:
            argv = ["audit", "--measure", measure, "--condition", condition, "--d", str(d),
                    "--samples", str(samples), "--seed", str(seed), "--out", "report.json"]
            argv += ["--class", op_class] if op_class else []
            argv += ["--probe-eigenbasis"] if probe else []
            name = f"{measure}-{condition}-{op_class or 'none'}{'-probe' if probe else ''}"
            run("audit", f"{name}-d{d}-s{seed}", argv, "report.json")
            run("replay", f"{name}-d{d}-s{seed}", ["replay", "--show", "report.json"])

    rng = np.random.default_rng(2024)
    for d in range(1, 9):
        for n in range(4):
            doc = {"dim": d, "entries": _entries(_state(rng, d))}
            if n % 2:
                doc["label"] = f"state {d}.{n}"
            Path(f"s{d}_{n}.json").write_text(json.dumps(doc))
            run("measure", f"d{d}-{n}", ["measure", f"s{d}_{n}.json"])
            run("measure", f"d{d}-{n}-out", ["measure", f"s{d}_{n}.json", "--out", "m.json"], "m.json")
    for d in (2, 3, 4):
        zero = np.zeros((d, d))
        zero[0, 0] = 1.0
        for name, m in (("zero", zero), ("equal", np.full((d, d), 1.0 / d))):
            Path(f"pure_{name}{d}.json").write_text(json.dumps({"dim": d, "entries": _entries(m)}))
            run("measure", f"pure-{name}-d{d}", ["measure", f"pure_{name}{d}.json"])
            run("measure", f"pure-{name}-d{d}-out", ["measure", f"pure_{name}{d}.json", "--out", "m.json"], "m.json")
    bad = {
        "not-json": "{",
        "not-object": "[]",
        "dim-bool": '{"dim": true, "entries": [[[1, 0]]]}',
        "short-rows": '{"dim": 2, "entries": [[[1, 0], [0, 0]]]}',
        "label-int": '{"dim": 1, "label": 3, "entries": [[[1, 0]]]}',
        "cell-bool": '{"dim": 1, "entries": [[[true, 0]]]}',
        "cell-huge": '{"dim": 1, "entries": [[[1' + "0" * 400 + ', 0]]]}',
        "not-hermitian": json.dumps({"dim": 2, "entries": [[[0.5, 0], [0.5, 0]], [[0, 0], [0.5, 0]]]}),
        "not-positive": json.dumps({"dim": 2, "entries": [[[1.2, 0], [0, 0]], [[0, 0], [-0.2, 0]]]}),
        "trace-2": json.dumps({"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
    }
    for name, text in bad.items():
        Path(f"bad_{name}.json").write_text(text)
        run("measure", f"bad-{name}", ["measure", f"bad_{name}.json"])
    run("measure", "missing-file", ["measure", "no_such_file.json"])

    for name, argv in {"default": [], "short": ["--from", "0.1", "--to", "2", "--points", "5"],
                       "one-point": ["--points", "1"], "wide": ["--from", "-3", "--to", "3", "--points", "17"]}.items():
        run("sweep", name, ["sweep", *argv, "--out", "sweep.csv"], "sweep.csv")

    for re_part, im_part in ((1.0, 0.0), (0.0, 0.0), (0.3, -1.7), (2.5, 0.5), (1e200, 0.0), (30.0, 0.0)):
        for dims in ("2,3,4,8", "1,2,17,40"):
            argv = ["demo", "glauber", f"--alpha-re={re_part!r}", f"--alpha-im={im_part!r}", "--dims", dims,
                    "--out", "g.csv"]
            run("glauber", f"{re_part!r}{im_part:+}j-{dims}", argv, "g.csv")

    inputs = {"natural": "natural_light", "linear": {"linear": 0.7853981633974483},
              "linear-odd": {"linear": 0.3}, "state": {"dim": 2, "entries": _entries(_state(rng, 2))}}
    for name, source in inputs.items():
        for plate, polarizer in ((0.0, 0.7853981633974483), (0.4, 1.1)):
            cfg = {"input": source, "plate_angle": plate, "polarizer_angle": polarizer,
                   "gamma_grid": [0.1 * k for k in range(33)]}
            Path("cfg.json").write_text(json.dumps(cfg))
            run("interference", f"{name}-{plate}-{polarizer}",
                ["demo", "interference", "--config", "cfg.json", "--out", "curve.csv"], "curve.csv")
    Path("cfg.json").write_text('{"input": "natural_light", "plate_angle": 0, "polarizer_angle": 0, '
                                '"gamma_grid": [0, 1e400]}')
    run("interference", "bad-gamma", ["demo", "interference", "--config", "cfg.json", "--out", "curve.csv"],
        "curve.csv")

    def search(row: str, rho, metric: str, **kwargs) -> None:
        try:
            value, argmin = measures.min_distance_coherence(rho, metric, **kwargs)
            add("search", row, np.float64(value).tobytes() + argmin.probs.tobytes())
        except errors.OptimizerFailure as exc:
            add("search", row, str(exc).encode())

    for d, count in ((2, 40), (3, 40), (4, 10), (8, 5), (9, 5)):
        for n in range(count):
            rho = states.make_density(_state(rng, d))
            for metric in METRICS:
                search(f"{metric}-d{d}-{n}", rho, metric)
    rho = states.make_density(_state(rng, 3))
    for budget in range(2, 41):
        search(f"trace-budget{budget}", rho, "trace", budget=budget)
    for metric in METRICS:
        search(f"{metric}-d1", states.maximally_mixed(1), metric)
        search(f"{metric}-seed409", states.random_density(4, seed=409), metric)

    def library(row: str, call) -> None:
        try:
            result = call()
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            add("library", row, message.encode(), message, raised=not isinstance(exc, errors.CohkitError))
            return
        array = next((getattr(result, f) for f in ("matrix", "amplitudes", "operators") if hasattr(result, f)), result)
        add("library", row, np.asarray(array).tobytes())

    sized = {"maximally_mixed-d": states.maximally_mixed,
             "glauber_truncated-d": lambda n: states.glauber_truncated(1.0, n),
             "random_density-d": lambda n: states.random_density(n, 0),
             "haar_unitary-d": lambda n: states.haar_unitary(n, 0)}
    for kind in CHANNEL_FAMILIES:
        sized[f"random_channel-{kind}-d"] = lambda n, kind=kind: states.random_channel(kind, n)
        sized[f"random_channel-{kind}-k"] = lambda n, kind=kind: states.random_channel(kind, 2, k=n)
    for name, call in sized.items():
        for n in (256, 257):
            library(f"{name}-{n}", lambda: call(n))
    library("kraus-string", lambda: states.KrausSet("x"))
    library("kraus-string-entry", lambda: states.KrausSet([1, "x"]))
    library("kraus-mixed-shapes", lambda: states.KrausSet([np.eye(2), np.eye(3)]))
    for kind in CHANNEL_FAMILIES:
        for k in range(1, 5):
            kraus = states.random_channel(kind, 3, k=k, seed=k)
            library(f"classify_kraus-{kind}-k{k}",
                    lambda: [bool(flag) for flag in vars(channels.classify_kraus(kraus)).values()])
            library(f"apply_channel-not-tp-{kind}-k{k}", lambda: channels.apply_channel(
                states.KrausSet((1 + 1e-6) * kraus.operators), states.maximally_mixed(3)))

    gates = {
        "audit-d0": ["audit", "--measure", "l1", "--condition", "C0", "--d", "0"],
        "audit-d1": ["audit", "--measure", "ibiqc", "--condition", "C1", "--d", "1"],
        "audit-d257": ["audit", "--measure", "l1", "--condition", "C0", "--d", "257", "--samples", "1"],
        "audit-samples0": ["audit", "--measure", "l1", "--condition", "C0", "--samples", "0"],
        "audit-samples-2**32+1": ["audit", "--measure", "l1", "--condition", "C0", "--samples", str(2**32 + 1)],
        "audit-seed-1": ["audit", "--measure", "l1", "--condition", "C0", "--seed", "-1"],
        "audit-tol-nan": ["audit", "--measure", "l1", "--condition", "C0", "--tol", "nan"],
        "audit-tol-neg": ["audit", "--measure", "l1", "--condition", "C0", "--tol=-1e-9"],
        "audit-tol-inf": ["audit", "--measure", "l1", "--condition", "C0", "--tol", "inf"],
        "audit-no-class": ["audit", "--measure", "l1", "--condition", "C2avg"],
        "audit-measure-unknown": ["audit", "--measure", "l1,fidelity", "--condition", "C0"],
        "audit-condition-unknown": ["audit", "--measure", "l1", "--condition", "C9"],
        "audit-class-unknown": ["audit", "--measure", "l1", "--condition", "C2avg", "--class", "unitary"],
        "sweep-from-nan": ["sweep", "--from", "nan"],
        "sweep-to-inf": ["sweep", "--to", "inf"],
        "sweep-points0": ["sweep", "--points", "0"],
        "sweep-points-x": ["sweep", "--points", "x"],
        "glauber-re-nan": ["demo", "glauber", "--alpha-re", "nan"],
        "glauber-im-inf": ["demo", "glauber", "--alpha-im", "inf"],
        "glauber-dims0": ["demo", "glauber", "--dims", "0"],
        "glauber-dims-huge": ["demo", "glauber", "--dims", "100000000000"],
        "glauber-dims-empty": ["demo", "glauber", "--dims", "2,,3"],
        "sweep-points-huge": ["sweep", "--points", "1000000000000"],
        "sweep-span-overflow": ["sweep", "--from=-1e308", "--to", "1e308"],
    }
    for name, argv in gates.items():
        run("gates", name, argv + ["--out", "gate.json"], "gate.json")

    junk = bytes(range(256)) * 1024
    audit = ["audit", "--measure", "ibiqc", "--condition", "C2sel", "--class", "unital", "--d", "3", "--samples", "100"]
    Path("cfg.json").write_text(json.dumps({"input": "natural_light", "plate_angle": 0.4, "polarizer_angle": 1.1,
                                            "gamma_grid": [0.1 * k for k in range(33)]}))
    overwrites = {
        "measure": (["measure", "s3_1.json", "--out", "m.json"], "m.json"),
        "sweep": (["sweep", "--out", "sweep.csv"], "sweep.csv"),
        "audit-file": ([*audit, "--out", "report.json"], "report.json"),
        "audit-dir": ([*audit, "--out", "reports"], "reports/audit_ibiqc_C2sel_unital.json"),
        "glauber": (["demo", "glauber", "--out", "g.csv"], "g.csv"),
        "interference": (["demo", "interference", "--config", "cfg.json", "--out", "curve.csv"], "curve.csv"),
    }
    for name, (argv, path) in overwrites.items():
        run("overwrite", name, argv, path, junk=junk)
    return rows


# ---------------------------------------------------------------- compare


def _digest(rows: dict) -> str:
    return hashlib.sha256("".join(f"{k}\t{v['sha256']}\n" for k, v in sorted(rows.items())).encode()).hexdigest()


def _by_group(rows: list[dict]) -> dict:
    groups = {}
    for r in rows:
        groups.setdefault(r["group"], {})[r["row"]] = r
    return groups


def compare(parent_rows: list[dict], change_rows: list[dict], expected=()) -> tuple[list[str], bool]:
    """Report lines and whether every difference is expected and no change row raised.

    expected holds GROUP or GROUP:ROW entries, ROW an fnmatch pattern. A
    row present on one side only counts as a difference. A change row that
    recorded an exception escaping cli.main fails the comparison, declared
    or not; a parent row may record one.
    """
    parent, change = _by_group(parent_rows), _by_group(change_rows)
    lines, ok, used = [], True, set()
    for group in sorted(set(parent) | set(change)):
        p, c = parent.get(group, {}), change.get(group, {})
        differing = [row for row in sorted(set(p) | set(c))
                     if p.get(row, {}).get("sha256") != c.get(row, {}).get("sha256")]
        state = "equal" if not differing else f"{len(differing)} rows differ"
        lines.append(f"{group}: {len(p)} parent rows {_digest(p)[:16]}, {len(c)} change rows {_digest(c)[:16]}, {state}")
        for row in differing:
            declared = {e for e in expected if e == group or fnmatch.fnmatchcase(f"{group}:{row}", e)}
            used |= declared
            ok = ok and bool(declared)
            lines.append(f"  {group}:{row} differs ({'expected' if declared else 'NOT EXPECTED'})")
            for side, rows in (("parent", p), ("change", c)):
                if row not in rows:
                    lines.append(f"    {side}: absent")
                elif rows[row]["stderr"]:
                    lines.append(f"    {side} stderr: {rows[row]['stderr'].rstrip()}")
    if set(expected) - used:
        lines.append(f"declared but unchanged: {', '.join(sorted(set(expected) - used))}")
    raised = sorted(f"{r['group']}:{r['row']}" for r in change_rows if r.get("raised"))
    if raised:
        ok = False
        lines.append(f"change rows that raised: {', '.join(raised)}")
    lines.append("identical apart from the declared changes" if ok else "UNEXPECTED DIFFERENCES")
    return lines, ok


# ---------------------------------------------------------------- driver


def _run_battery(tree: Path) -> list[dict]:
    with tempfile.TemporaryDirectory(prefix="identity-run-") as cwd:
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--battery", str(tree)],
                              cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the battery failed on {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="byte-identity battery: parent revision against this checkout")
    parser.add_argument("--parent", help="git revision of the parent")
    parser.add_argument("--expect-change", action="append", default=[], metavar="GROUP[:ROW]",
                        help="a difference the change makes on purpose, ROW an fnmatch pattern (repeatable)")
    parser.add_argument("--battery", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.battery:
        json.dump(battery(Path(args.battery)), sys.stdout)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        sha = export_commit(ROOT, args.parent, parent)
        head, dirty = worktree_commit(ROOT)
        copy_worktree(ROOT, change)
        parent_rows, change_rows = _run_battery(parent), _run_battery(change)
    lines, ok = compare(parent_rows, change_rows, set(args.expect_change))
    print(f"parent {sha}, change {head}, change_dirty {dirty}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
