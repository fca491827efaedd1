"""Mutation check of the test suite: every mutant below must make a test fail.

Usage, from the root of a checkout:

    python3 tools/mutants.py

Each mutant replaces one text of a file under src/, which must occur exactly
once there, by another. The tool copies the checkout's working tree once into
a temporary directory (bench_pairs.copy_worktree: the files git tracks or does
not ignore, with their edits) and runs every named test file there unmutated,
so that a failure counts only when it is the mutant's. Then it applies each
mutant to that copy in turn, runs pytest -x on the test files the mutant names
and writes the original text back; a mutant whose tests all pass survives.
Every run uses Hypothesis's "ci" profile (derandomized, no example database),
keeps Hypothesis's other files out of the copy and writes no bytecode, so
verdicts repeat. It prints one line per mutant, flushed as soon as the mutant's
run ends, then the survivors, and exits 1 when a mutant survives or its run
ends in an error (a pytest exit code other than 0 or 1). A run takes a few
minutes; tests/test_mutants.py checks each `old` text in every test run. The
tool takes no arguments: --help prints its usage and exits 0; any other
argument exits 2, and so does a run outside a git checkout, with an error; all
before anything is copied.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from bench_pairs import copy_worktree

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    why: str


CHANNELS, LINALG, MEASURES, STATES, CLI, ERRORS = (f"src/cohkit/{name}.py" for name in
                                                    ("channels", "linalg", "measures", "states", "cli", "errors"))
T_CHANNELS, T_CLI, T_GATES, T_LINALG, T_MEASURES, T_STATES = (
    f"tests/test_{name}.py" for name in ("channels", "cli", "gates", "linalg", "measures", "states"))

MUTANTS = (
    # witnesses: each must replay to the recorded violation
    Mutant(CHANNELS, '"kraus_operators": _matrix_json(kraus[j, :k])',
           '"kraus_operators": _matrix_json(kraus[j, :k].conj())', (T_CHANNELS,),
           "a C2 class-channel witness written with conjugated Kraus operators"),
    Mutant(CHANNELS, '"weights": weights[j, :k].tolist()', '"weights": weights[j, :k][::-1].tolist()', (T_CHANNELS,),
           "a C3 witness written with its weights reversed"),
    Mutant(CHANNELS, '"eigenvectors": _matrix_json(v)}', '"eigenvectors": _matrix_json(v.T)}',
           (T_CHANNELS,), "a probe witness written with its eigenvectors transposed"),
    Mutant(CHANNELS, ', "measure_value": float(value[j])}', "}", (T_CHANNELS,),
           "a C1 witness that drops its measure_value"),
    Mutant(CHANNELS, "return asdict(self)\n\n    def to_json", "return dict(vars(self))\n\n    def to_json",
           (T_CHANNELS,), "to_dict a shallow copy that shares witness lists with the report"),
    Mutant(CHANNELS, '"measure_after": float(afters[winner[j], j])', '"measure_after": float(afters[0, j])',
           (T_CHANNELS,), "a C2 witness's measure_after taken from the first candidate, not the winner"),
    # the C2 pool: class channel, reset, probe; a later candidate displaces the winner only by more than WIN_MARGIN
    Mutant(CHANNELS, "> violations[winner, pick] + WIN_MARGIN, k, winner)", "> violations[winner, pick], k, winner)",
           (T_CHANNELS,), "a later C2 candidate displaces the current winner by round-off"),
    Mutant(CHANNELS, "np.where(violations[k] > violations[winner, pick] + WIN_MARGIN",
           "np.where(violations[k] > violations[0] + WIN_MARGIN", (T_CHANNELS,),
           "a later C2 candidate is measured against the first candidate, not the current winner, so the probe "
           "takes the samples where it ties with the reset"),
    Mutant(CHANNELS, 'RESET_CLASSES = ("diagonal_incoherent", "general_tp")', "RESET_CLASSES = OPERATION_CLASSES",
           (T_CHANNELS,), "the reset, which is not unital, joins the unital_mixture pool"),
    Mutant(CHANNELS, "reset = _PURE_KERNELS[measure](np.eye(d, dtype=complex))[0]",
           "reset = kernel(np.eye(d, dtype=complex) / d)", (T_CHANNELS,),
           "the reset leaves the maximally mixed state, not |0><0|"),
    Mutant(CHANNELS, "reset = _PURE_KERNELS[measure](np.eye(d, dtype=complex))[0]",
           "reset = _PURE_KERNELS[measure](np.eye(d, dtype=complex)[:, :1])[0]", (T_CHANNELS,),
           "the reset's value is taken from |0> alone, so the ibiqc pure kernel reads d = 1 and gives 0, not log2 d"),
    Mutant(CHANNELS, 'readout("reset", np.diagonal(rho, axis1=-2, axis2=-1).real',
           'readout("reset", np.abs(rho[:, 0, :])', (T_CHANNELS,),
           "the reset's selective outcome probabilities read rho's first row, not its diagonal"),
    # the one selective readout rule of the C2 candidates: kept outcomes and dropped counts
    Mutant(CHANNELS, "dropped.append(outcomes - kept.sum(axis=1))", "dropped[:] = [outcomes - kept.sum(axis=1)]",
           (T_CHANNELS,), "each candidate's dropped count overwrites those of the candidates before it"),
    Mutant(CHANNELS, "dropped.append(outcomes - kept.sum(axis=1))", "dropped.append(outcomes)", (T_CHANNELS,),
           "every outcome counts as dropped, kept or not"),
    Mutant(CHANNELS, "ops[:, 0, :] = np.eye(d)", "ops[:, :, 0] = np.eye(d)", (T_CHANNELS,),
           "replay builds the reset's operators as |n><0|, not |0><n|"),
    # the eigenbasis probe in closed form: its pure-state values, probabilities and unitarity gate
    Mutant(CHANNELS, "np.abs(v).sum(axis=-2) ** 2 - (np.abs(v) ** 2).sum(axis=-2)", "np.abs(v).sum(axis=-2) ** 2",
           (T_CHANNELS,), "the pure-state l1 value keeps the diagonal's sum of |v_ij|^2"),
    Mutant(CHANNELS, "measures.entropy_bits(np.abs(v.swapaxes(-1, -2)) ** 2)", "measures.entropy_bits(np.abs(v) ** 2)",
           (T_CHANNELS,), "the pure-state re value takes the entropy over rows, not over each eigenvector"),
    Mutant(CHANNELS, "p, values = (vecs.conj() * (rho @ vecs))", "p, values = (vecs * (rho @ vecs))", (T_CHANNELS,),
           "the probe's outcome probabilities read v^T rho v, not v^dagger rho v"),
    Mutant(CHANNELS, "        states.require_unitary(vecs)\n", "", (T_CHANNELS,),
           "the probe uses its eigenvectors without checking that they form a unitary"),
    Mutant(CHANNELS, "        states.require_unitary(v)\n", "", (T_CHANNELS,),
           "a probe witness writes eigenvectors that were never checked to form a unitary"),
    Mutant(CHANNELS, "p, values = None, before", "p, values = None, before + 1e-15", (T_CHANNELS,),
           "the averaged probe, the identity channel, reads round-off in place of exactly C(rho)"),
    Mutant(CHANNELS, 'rho = states.make_density(m["state"])', 'rho = states.DensityMatrix(m["state"])',
           (T_CHANNELS, T_CLI), "replay takes a witness state that is no density matrix"),
    Mutant(CHANNELS, "return C1_POSITIVITY_FLOOR - fn(rho)", "return fn(rho)", (T_CHANNELS,),
           "replay of a below-floor C1 witness returns the measure, not the floor less the measure"),
    Mutant(CLI, 'except CohkitError as exc:\n            raise type(exc)(f"{path}: {exc}")',
           'except ParseError as exc:\n            raise ParseError(f"{path}: {exc}")', (T_CLI,),
           "replay names the report's file only on a ParseError, not on an invalid witness state"),
    Mutant(CLI, " or fmt != channels.REPORT_FORMAT", "", (T_CLI,), "replay takes a report of any integer format"),
    Mutant(CLI, " or dim != m.shape[-1]", "", (T_CLI,), "replay takes a report whose dim is not its witness's"),
    # report format 3: to_json writes json.dumps(value, sort_keys=True) of each value, byte for byte
    Mutant(CHANNELS, '{value["base64"]}"', '{value["base64"].rstrip("=")}"', (T_CHANNELS,),
           "to_json drops the padding of a matrix entry's base64 text in place of copying it as is"),
    Mutant(CHANNELS, "for key, item in sorted(value.items())", "for key, item in value.items()", (T_CHANNELS,),
           "to_json writes a witness's keys in the order the audit built them, not sorted"),
    Mutant(CHANNELS, """"shape": {_ENCODE(value["shape"])}""", """"shape": {str(tuple(value["shape"]))}""",
           (T_CHANNELS,), "to_json writes a matrix entry's shape as a Python tuple, which is no JSON"),
    Mutant(CHANNELS, "_ENCODE = json.JSONEncoder(sort_keys=True).encode", "_ENCODE = json.JSONEncoder().encode",
           (T_CHANNELS,), "the shared encoder leaves unsorted the keys of a dict held in a list"),
    Mutant(CHANNELS, "if type(value) is _MatrixEntry:", 'if value.keys() == {"base64", "dtype", "shape"}:',
           (T_CHANNELS,), "to_json copies unscanned the base64 text of any dict with a matrix entry's keys"),
    # counters over every sample of every block
    Mutant(CHANNELS, 'float(violation.min())', 'float(violation[1:].min(initial=violation[-1]))', (T_CHANNELS,),
           "min_violation skips the first sample of every block"),
    # exact ties: a violation equal to tol is within it; a C1 tie takes the incoherent side
    Mutant(CHANNELS, '"samples_above_tol": violation > tol', '"samples_above_tol": violation >= tol', (T_CHANNELS,),
           "samples_above_tol counts a violation exactly equal to tol"),
    Mutant(CHANNELS, "on_incoherent = zero_side >= positive_side", "on_incoherent = zero_side > positive_side",
           (T_CHANNELS,), "a C1 tie between the two sides takes the random state's side"),
    # format-3 matrix entries: _witness_matrices must reject each malformed entry with ParseError
    Mutant(CHANNELS, ' or entry["dtype"] != "<c16":', ":", (T_CHANNELS,),
           "the reader decodes an entry of any dtype as complex128"),
    Mutant(CHANNELS, "or len(shape) != ndim or shape[-1] != shape[-2]:", "or len(shape) != ndim:", (T_CHANNELS,),
           "the reader accepts a shape whose last two sizes differ"),
    Mutant(CHANNELS, 'require_count("a shape entry", n, 0, error=ParseError)', "int(n)", (T_CHANNELS,),
           "the reader takes floats and negative sizes in a shape"),
    Mutant(CHANNELS, "if len(data) != size:", "if False:", (T_CHANNELS,),
           "the reader skips its byte count, so numpy's reshape error escapes as ValueError"),
    Mutant(CHANNELS, "strict_mode=True", "strict_mode=False", (T_CHANNELS,),
           "the reader skips characters that are not base64"),
    Mutant(CHANNELS, "if shape[-1] > MAX_AUDIT_DIM:", "if False:", (T_CHANNELS, T_CLI),
           "the reader takes matrices above MAX_AUDIT_DIM, whose replay builds a (d, d, d) projector stack"),
    Mutant(CHANNELS, "10.0 ** np.arange(-15, 1)", "10.0 ** np.arange(-16, 1)", (T_CHANNELS,),
           "violation_decades gains a bin for (0, 1e-16]"),
    Mutant(CHANNELS, "probs = states.require_probabilities(states.dirichlet_stack(rngs, np.full(len(rngs), d)))",
           "probs = states.dirichlet_stack(rngs, np.full(len(rngs), d))", (T_CHANNELS,),
           "C1's incoherent states no longer gated as probability vectors"),
    # argument gates: the errors.require_* gates, and where they are called
    Mutant(ERRORS, "or isinstance(v, bool) or not lo <= v <= hi", "or not lo <= v <= hi", (T_CHANNELS, T_STATES),
           "the integer gate accepts True as 1: states and audits take True as a dimension, sample count or seed"),
    Mutant(CHANNELS, 'require_real("tol", tol, lo=0)', 'require_real("tol", tol)', (T_CHANNELS,),
           "audits accept a negative tolerance"),
    Mutant(CHANNELS, 'require_count("d", d, 2, MAX_AUDIT_DIM)', 'require_count("d", d, 1, MAX_AUDIT_DIM)',
           (T_CHANNELS, T_CLI), "audits accept d = 1, a space with no coherence to audit"),
    Mutant(CHANNELS, 'require_count("d", d, 2, MAX_AUDIT_DIM)', 'require_count("d", d, 2)', (T_CHANNELS, T_CLI),
           "audits accept any d above MAX_AUDIT_DIM"),
    Mutant(CHANNELS, "if not isinstance(probe_eigenbasis, (bool, np.bool_)):", "if False:", (T_CHANNELS,),
           "audits run the probe for any truthy probe_eigenbasis, such as the string 'no'"),
    Mutant(MEASURES, "if p.ndim != 1 or not p.size or not np.isfinite(p).all():", "if p.ndim != 1 or not p.size:",
           (T_GATES,), "shannon_entropy raises NotPositiveError, not InvalidArgumentsError, for a vector holding nan"),
    Mutant(MEASURES, "if p.ndim != 1 or not p.size or", "if p.ndim != 1 or", (T_GATES,),
           "shannon_entropy raises numpy's ValueError on an empty vector"),
    # probability vectors, amplitudes and channels: each gate rejects before numpy can overflow or misread
    Mutant(STATES, "if not (p.max() <= 1.0 + PROB_TOL):", "if False:", (T_GATES, T_STATES),
           "the probability gate sums entries of any size: shannon_entropy([1e308, 1e308]) overflows"),
    Mutant(STATES, "if not (np.abs(a).max() <= 1.0 + NORM_TOL):", "if False:", (T_GATES, T_STATES),
           "PureState takes the norm of any amplitudes: PureState([1e300, 1e300]) overflows"),
    Mutant(STATES, 'p = require_array("probs", self.probs, float)', "p = np.asarray(self.probs, dtype=float)",
           (T_GATES, T_STATES), "DiagonalState raises numpy's ValueError on a string"),
    Mutant(CHANNELS, "    _require_trace_preserving(kraus.operators)\n    p, kept, normalized",
           "    p, kept, normalized", (T_CHANNELS, T_GATES),
           "selective_outcomes reads out a Kraus set that is not trace preserving, so replay takes a "
           "tampered C2_selective witness"),
    Mutant(ERRORS, "if not isinstance(v, cls):", "if False:", (T_GATES,),
           "the type gate passes any object, so the scalar measures read .matrix of whatever they are given"),
    Mutant(ERRORS, "if not (isinstance(v, str) and v in choices):", "if v not in choices:", (T_GATES,),
           "the choice gate looks up any value: a list of names raises TypeError, an array ValueError"),
    Mutant(CHANNELS, 'K rho K^dagger."""\n    if require_instance("kraus", kraus, KrausSet).dim != '
                     'require_instance("rho", rho, states.DensityMatrix).dim:',
           'K rho K^dagger."""\n    if require_instance("kraus", kraus, KrausSet).dim != rho.dim:', (T_GATES,),
           "apply_channel reads .dim of whatever state it is given, so an array raises AttributeError"),
    Mutant(LINALG, 'a = require_array("matrix", m, complex)', "a = np.asarray(m, dtype=complex)", (T_GATES,),
           "as_complex_stack lets numpy's errors out: make_density, DensityMatrix and trace_distance raise "
           "ValueError or TypeError on junk"),
    Mutant(ERRORS, "except (TypeError, ValueError, OverflowError) as exc:", "except OverflowError as exc:",
           (T_GATES,), "make_density, PureState and shannon_entropy raise numpy's ValueError on a string"),
    Mutant(MEASURES, 'require_count("budget", budget, 2)', 'require_count("budget", budget, 0)', (T_MEASURES,),
           "the search accepts a budget of 0 or 1, which leaves no evaluation to either run"),
    Mutant(STATES, 'np.random.default_rng(require_count("seed", seed, 0))', "np.random.default_rng(seed)",
           (T_CHANNELS,), "the samplers pass any seed to default_rng: None draws an unreproducible state"),
    Mutant(STATES, 'alpha = require_real("alpha", alpha)', "pass", (T_CHANNELS,),
           "qubit_pair accepts a non-finite angle and returns a NaN matrix"),
    Mutant(STATES, 'a = complex(require_real("amplitude real part", a.real), '
                   'require_real("amplitude imag part", a.imag))', "a = complex(a)", (T_STATES, T_CLI),
           "glauber_truncated accepts a non-finite amplitude"),
    Mutant(LINALG, "a = require_hermitian(m)", "a = as_complex_stack(m)", (T_LINALG,),
           "the eigensolvers skip their Hermiticity gate"),
    Mutant(LINALG, "np.abs(a - adjoint(a)).max(initial=0.0)", "np.abs(a - adjoint(a)).max()", (T_LINALG,),
           "the Hermiticity gate raises numpy's ValueError on an empty stack"),
    Mutant(LINALG, ".sum(axis=(-2, -1)).max(initial=0.0)", ".sum(axis=(-2, -1)).max()", (T_LINALG,),
           "gram_defect and require_unitary raise numpy's ValueError on an empty stack"),
    Mutant(LINALG, "v = a.reshape(a.shape[:-3] + (k * d, d))", "v = adjoint(a).reshape(a.shape[:-3] + (k * d, d))",
           (T_LINALG, T_CHANNELS), "the Gram check stacks the adjoints, so it checks unitality and every gate "
           "rejects a valid general_tp set"),
    Mutant(CHANNELS, "        _require_trace_preserving(kraus)\n", "", (T_CHANNELS,),
           "the audit measures a block's Kraus sets without the trace-preservation gate"),
    Mutant(CLI, 'if report.get("verdict") != verdict:', "if False:", (T_CLI,),
           "replay takes a report whose verdict contradicts its max_violation and tol"),
    Mutant(CLI, 'samples = require_count("samples", report.get("samples"), 1, 2**32, error=ParseError)',
           'samples = report.get("samples")', (T_CLI,),
           "replay takes a report whose samples is no count from 1 to 2**32, such as -4"),
    Mutant(CLI, "0, samples, error=ParseError)", "0, error=ParseError)", (T_CLI,),
           "replay takes a report that counts more samples above tol than it has samples"),
    Mutant(LINALG, "if np.isfinite(a).all() else math.inf", "if np.isfinite(a).all() else 0.0", (T_LINALG,),
           "the Hermiticity defect of a matrix with a non-finite entry reads 0, so the gate passes it"),
    Mutant(CHANNELS, "unital=linalg.gram_defect(linalg.adjoint(ops)) <= KRAUS_TP_TOL",
           "unital=linalg.gram_defect(ops) <= KRAUS_TP_TOL", (T_CHANNELS,),
           "classify_kraus takes its unital flag from sum K^dagger K, so every trace-preserving set reads unital"),
    Mutant(CHANNELS, "trace_preserving=linalg.gram_defect(ops) <= KRAUS_TP_TOL",
           "trace_preserving=linalg.gram_defect(ops) < KRAUS_TP_TOL", (T_CHANNELS,),
           "classify_kraus calls a set incomplete at a defect equal to KRAUS_TP_TOL, which apply_channel accepts"),
    Mutant(CHANNELS, "np.abs(out - out * np.eye(kraus.dim))", "np.abs(out[:1] - out[:1] * np.eye(kraus.dim))",
           (T_CHANNELS,), "classify_kraus checks the output of |0><0| alone, not of every basis state"),
    Mutant(LINALG, "a = a.copy()", "a = a.view()", (T_STATES, T_CHANNELS),
           "DensityMatrix and KrausSet share the caller's array"),
    Mutant(STATES, "            np.shape(self.operators)\n", "            pass\n", (T_CHANNELS,),
           "KrausSet skips its shape read, so operators of mixed shapes raise InvalidArgumentsError"),
    # errors.finite_real: state files, configs and the real-number gate
    Mutant(ERRORS, "and not isinstance(v, bool) and abs(v)", "and abs(v)", (T_CLI, T_CHANNELS),
           "the real-number gate accepts True: JSON true and false read as 1 and 0, True as the audit tolerance"),
    Mutant(ERRORS, "abs(v) <= sys.float_info.max", "True", (T_CLI, T_CHANNELS),
           "the real-number gate accepts nan, inf and integer literals beyond the double range"),
    # state files
    Mutant(CLI, "except (OSError, ValueError) as exc:", "except OSError as exc:", (T_CLI,),
           "a path that open() refuses with ValueError, one holding a NUL byte, escapes main as a traceback"),
    Mutant(CLI, "except (ValueError, RecursionError) as exc:", "except (json.JSONDecodeError, RecursionError) as exc:",
           (T_CLI,), "an input file that is not UTF-8 lets UnicodeDecodeError escape main, a traceback and exit 1"),
    Mutant(CLI, "except (ValueError, RecursionError) as exc:", "except ValueError as exc:", (T_CLI,),
           "an input file nested 100 000 arrays deep lets RecursionError escape main, a traceback and exit 1"),
    Mutant(CLI, "except (ValueError, RecursionError) as exc:",
           "except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:", (T_CLI,),
           "an integer literal over 4300 digits lets int's ValueError escape main, a traceback and exit 1"),
    Mutant(CLI, "    cells = []\n", "    cells = []\n    np.zeros((dim, dim), dtype=complex)\n", (T_CLI,),
           "the state reader allocates the d x d matrix before it checks a row, so 10**6 empty rows ask for 14.6 TiB"),
    Mutant(CLI, "return states.make_density(m), label", "return states.make_density(m), None", (T_CLI,),
           "load_state drops the state file's label"),
    Mutant(CLI, 'doc.get("dim"), 1, error=ParseError)', 'doc.get("dim"), 0, error=ParseError)', (T_CLI,),
           "a state file of dim 0 passes the dim gate and fails later, in make_density"),
    Mutant(CLI, "psi = require_real(f'{context}: \"linear\" polarization angle', source[\"linear\"], error=ParseError)",
           'psi = float(source["linear"])', (T_CLI,),
           "a linear polarization angle of true reads as 1 radian"),
    Mutant(CLI, "doc.get(key), error=ParseError)", "doc.get(key))", (T_CLI,),
           "a bad plate or polarizer angle raises InvalidArgumentsError, so the CLI exits 2, not 3"),
    Mutant(CLI, """require_real(f'{context}: "gamma_grid"[{k}]', g, error=ParseError)""", "float(g)", (T_CLI,),
           "gamma_grid reads true as 1 and an integer beyond the double range raises OverflowError"),
    # output files: an existing --out is cut to the new length, but only when it is a regular file
    Mutant(CLI, "fh.truncate()", "pass", (T_CLI,),
           "an overwritten --out keeps the old file's tail after the new text"),
    Mutant(CLI, "if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):", "if True:", (T_CLI,),
           "--out /dev/null is truncated too, which fails with EINVAL, so measure exits 2"),
    # command-line bounds: each keeps an allocation to the scale of one audit sample or a few seconds' sweep
    Mutant(CLI, 'require_count("--points", args.points, 1, MAX_SWEEP_POINTS)',
           'require_count("--points", args.points, 1)', (T_CLI,),
           "sweep takes any number of points, so 10**12 asks numpy for terabytes"),
    Mutant(CLI, 'require_count("--dims entry", int(token), 1, channels.MAX_AUDIT_DIM)',
           'require_count("--dims entry", int(token), 1)', (T_CLI,),
           "demo glauber takes any dimension, so 10**11 asks numpy for hundreds of GiB"),
    Mutant(CLI, 'for token in args.dims.split(",")]', 'for token in args.dims.split(",") if token.strip()]', (T_CLI,),
           "demo glauber skips an empty --dims entry"),
    Mutant(CLI, '    require_real("--to minus --from", stop - start)\n', "", (T_CLI,),
           "sweep hands linspace a span beyond the double range, which overflows with a RuntimeWarning"),
    # sized constructors: a size above MAX_AUDIT_DIM is rejected before numpy allocates; the
    # size-257 test runs before the test of sizes numpy cannot allocate, so under -x a killed
    # mutant allocates nothing large
    Mutant(STATES, 'd = require_count("d", d, 1, MAX_AUDIT_DIM, InvalidDimensionError)\n'
                   "    return DensityMatrix(density_stack(",
           'd = require_count("d", d, 1, error=InvalidDimensionError)\n'
           "    return DensityMatrix(density_stack(", (T_STATES,),
           "random_density takes any d, so 10**5 asks numpy for 149 GiB"),
    Mutant(STATES, 'k = require_count("k", k, 1, MAX_AUDIT_DIM, InvalidDimensionError)',
           'k = require_count("k", k, 1, error=InvalidDimensionError)', (T_STATES,),
           "random_channel takes any k, so 10**9 operators ask numpy for 59.6 GiB"),
    # seeded sampling: bitwise default_rng([seed, i]) and Generator.dirichlet
    Mutant(STATES, "pool = _mix(pool, _hashmix(word, h[step:step + _POOL_SIZE + 1]))", "pass", (T_STATES,),
           "sample_generators skips the mixing rounds of seed words beyond the pool"),
    Mutant(STATES, "used = np.arange(counts.max()) <", "used = np.arange(counts.max() + 1) <", (T_STATES,),
           "a stack pads one zero part beyond its largest set"),
    Mutant(STATES, "draws.cumsum(axis=1)[:, -1]", "draws.sum(axis=1)", (T_STATES,),
           "Dirichlet weights scaled by numpy's pairwise sum, not the left-to-right one"),
    Mutant(STATES, "probs = dirichlet_stack(rngs, ks)\n        normals = normal_stack(rngs, (2, d, d), ks)",
           "normals = normal_stack(rngs, (2, d, d), ks)\n        probs = dirichlet_stack(rngs, ks)", (T_STATES,),
           "unital-mixture normals drawn before the Dirichlet weights"),
    Mutant(STATES, "normal_stack([rngs[j] for j in sel], (2, k * d, d))",
           "normal_stack([rngs[sel[0]] for j in sel], (2, k * d, d))", (T_STATES,),
           "general_tp draws every channel of a block on the first sample's generator"),
    # draws written straight into the block's arrays
    Mutant(STATES, "for rng, row in zip(rngs, out):", "for rng, row in zip(rngs, out[::-1]):", (T_STATES,),
           "each sample's normals land in the row of the block's last sample, the first in the last"),
    Mutant(STATES, "rng.standard_exponential(out=row[:k])", "rng.standard_exponential(out=row[-k:])", (T_STATES,),
           "Dirichlet draws fill the end of each padded row, so the weights sit under the wrong members"),
    Mutant(STATES, "normals[np.arange(2 * width) % width < ks[:, None]]",
           "normals[np.r_[np.arange(width), np.arange(width)[::-1]] < ks[:, None]]", (T_STATES,),
           "diagonal_incoherent imaginary parts fill the end of each padded set"),
    # distance search
    Mutant(MEASURES, "if not np.array_equal(runs[0][0], x0):", "if True:", (T_MEASURES,),
           "the search restarts even when the restart would replay its first run"),
    Mutant(MEASURES, "if not np.array_equal(runs[0][0], x0):", "if False:", (T_MEASURES,),
           "the search never restarts from its best point"),
    Mutant(MEASURES, "if not any(converged for _, _, converged in runs):", "if not runs[-1][2]:",
           (T_MEASURES,), "only the last run's convergence counts, so a failed restart discards a converged first run"),
    # Nelder-Mead: scipy's steps, bit for bit
    Mutant(MEASURES, "rho, chi, psi, sigma = 1, 2, 0.5, 0.5", "rho, chi, psi, sigma = 1, 3, 0.5, 0.5", (T_MEASURES,),
           "Nelder-Mead expands three times the reflection step, not twice"),
    Mutant(MEASURES, "rho, chi, psi, sigma = 1, 2, 0.5, 0.5", "rho, chi, psi, sigma = 1, 2, 0.5, 0.6", (T_MEASURES,),
           "Nelder-Mead shrinks the simplex to 0.6 of its size, not to half"),
    Mutant(MEASURES, "accept = fxc <= fxr", "accept = fxc < fxr", (T_MEASURES,),
           "an outside contraction that ties with its reflection shrinks the simplex in place of being kept"),
    Mutant(MEASURES, "if calls >= maxfev:", "if calls > maxfev:", (T_MEASURES,),
           "a Nelder-Mead run makes one evaluation past its budget"),
    # Nelder-Mead on Python floats: where numpy's bits differ from the plain float loop
    Mutant(MEASURES, "functools.reduce(operator.add, col, 0.0)", "functools.reduce(operator.add, col)", (T_MEASURES,),
           "the centroid starts from the best vertex, so it keeps a -0.0 that np.add.reduce makes +0.0"),
    Mutant(MEASURES, "ind = np.array(fsim).argsort().tolist()", "ind = sorted(range(len(fsim)), key=fsim.__getitem__)",
           (T_MEASURES,), "the simplex is ordered by a stable sort, which breaks ties unlike numpy's argsort"),
    Mutant(MEASURES, "all(abs(fsim[0] - g) <= 1e-13 for g in fsim[1:])",
           "max(abs(fsim[0] - g) for g in fsim[1:]) <= 1e-13", (T_MEASURES,),
           "the stop test takes Python's max of the value spread, which skips a NaN that numpy's max returns"),
    Mutant(MEASURES, "return e / np.add.reduce(e)", "return e / sum(e.tolist())", (T_MEASURES,),
           "the softmax sums left to right, not pairwise as numpy does from 8 entries on"),
    # the trace and Frobenius objectives: rho - diag(probs) written through a view of the buffer's diagonal
    Mutant(MEASURES, "view = shifted.reshape(-1)[::rho.dim + 1]", "view = shifted.reshape(-1)[::rho.dim]",
           (T_MEASURES,), "the diagonal view steps d entries, so probs is subtracted down a wrapped band"),
    Mutant(MEASURES, "return math.sqrt(re.dot(re) + im.dot(im))", "return math.sqrt(re.dot(re))", (T_MEASURES,),
           "the Frobenius objective drops the imaginary parts of rho's off-diagonal entries"),
    # relative entropy: one support rule for relative_entropy and the search objective
    Mutant(MEASURES, "if np.logical_or.reduce(small):", "if False:", (T_MEASURES,),
           "the relative entropy never masks an eigenvalue below the support tolerance, nor returns inf"),
    Mutant(MEASURES, "        weights, eigenvalues = weights[~small], eigenvalues[~small]\n", "", (T_MEASURES,),
           "the relative entropy keeps the log of an eigenvalue below the support tolerance where rho has "
           "no weight"),
    # rules written once
    Mutant(MEASURES, "return 0.0 - (p * np.log2", "return -(p * np.log2", (T_CLI,),
           "a zero entropy comes out as -0.0"),
    Mutant(CHANNELS, "values[kept] = kernel(normalized)",
           "values[kept] = kernel(np.concatenate([normalized, np.zeros((kraus.shape[0] * kraus.shape[1] - "
           "len(normalized), d, d))]))[:len(normalized)]", (T_CHANNELS,),
           "the selective class channel measures every outcome again, the dropped and zero-padded ones too"),
    # a block evaluates only the Kraus operators and mixture members it drew, never its zero padding
    Mutant(CHANNELS, "ops = kraus[np.arange(kraus.shape[1]) < parts[:, None]]",
           "ops = kraus[np.arange(kraus.shape[1]) < parts[:, None] - 1]", (T_CHANNELS,),
           "the drawn mask is off by one, so each set's last operator is skipped"),
    Mutant(CHANNELS, "(weights * states.pad_parts(parts, kernel(drawn)))",
           "(weights * states.pad_parts(parts, kernel(drawn))[:, ::-1])", (T_CHANNELS,),
           "C3 member values are scattered under the wrong weights, the last slot's first"),
    Mutant(CHANNELS, 'readout("class_channel", p, values, parts)', 'readout("class_channel", p, values, _MAX_PARTS)',
           (T_CHANNELS,),
           "C2_selective counts the zero-padded Kraus operators as dropped outcomes"),
    # expected verdicts: one rule
    Mutant(CLI, '"ibiqc": "unital_mixture"}', '"ibiqc": "general_tp"}', (T_CHANNELS,),
           "the rule takes general_tp as ibiqc's free class"),
    Mutant(CLI, ' and not (probe and condition == "C2_selective")', "", (T_CHANNELS,),
           "the rule expects C2_selective with the probe to hold on the free class"),
    Mutant(CLI, "return EXIT_USAGE if isinstance(exc, InvalidArgumentsError) else EXIT_INVALID_INPUT",
           "return EXIT_INVALID_INPUT if isinstance(exc, InvalidArgumentsError) else EXIT_USAGE", (T_CLI,),
           "usage errors exit 3 and invalid input exits 2"),
)


def _pytest(copy: Path, tests) -> int:
    # CPython checks a .pyc only against its source's size and whole-second mtime, so two
    # equal-length mutants written within one second could otherwise run stale bytecode;
    # Hypothesis caches its Unicode tables in its storage directory, kept beside the copy
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=ci", *tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "HYPOTHESIS_STORAGE_DIRECTORY": str(copy.parent / "hypothesis")}
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True).returncode


def _run(copy: Path, mutant: Mutant) -> int | None:
    """pytest's exit code for mutant applied in copy, its file's text restored after; None if old is not there once."""
    path = copy / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return None
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        return _pytest(copy, mutant.tests)
    finally:
        path.write_text(text, encoding="utf-8")


def _checkout_error() -> str | None:
    """Why ROOT is not the top of a git checkout, which copy_worktree needs; None when it is."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True)
    except OSError as exc:
        return f"cannot run git: {exc}"
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        return f"{ROOT} is not the top of a git checkout, so there is no list of tracked files to copy"
    return None


def main(argv=None) -> int:
    argparse.ArgumentParser(description="mutation check: every mutant in MUTANTS must make a test fail; "
                                        "the run copies the checkout and takes a few minutes").parse_args(argv)
    if error := _checkout_error():
        print(f"error: {error}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="cohkit-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        copy_worktree(ROOT, copy)
        code = _pytest(copy, sorted({t for m in MUTANTS for t in m.tests}))
        if code != 0:
            print(f"the unmutated tests fail (pytest exit {code}); no mutant was run")
            return 1
        codes = []
        for n, mutant in enumerate(MUTANTS):
            codes.append(code := _run(copy, mutant))
            status = {None: "error (old text not found exactly once)", 0: "SURVIVED", 1: "killed"}.get(
                code, f"error (pytest exit {code})")
            print(f"[{n}] {status}: {mutant.why}", flush=True)
    survivors = [m for m, code in zip(MUTANTS, codes) if code == 0]
    errors = [m for m, code in zip(MUTANTS, codes) if code not in (0, 1)]
    print(f"{len(MUTANTS)} mutants, {len(survivors)} survived, {len(errors)} errors")
    for mutant in survivors:
        print(f"survivor: {mutant.file}: {mutant.why}")
    return 1 if survivors or errors else 0


if __name__ == "__main__":
    sys.exit(main())
