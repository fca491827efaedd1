"""Span tracing of cohkit's layers, installed from outside the package.

Tracer.install() replaces functions where cohkit looks them up at call
time (module attributes, the channels.MEASURE_FUNCTIONS table, the
AuditReport.to_json method and the cli module's `open`) with wrappers that
record one span per call: name, start, end, parent span and a few
attributes. It also wraps measures._diagonal_distance_fn to count the
objective evaluations of each search. Spans stay in memory; summary() folds them into the per-layer
metrics and dump() writes them out. uninstall() restores every original.

A span's self time is its duration minus the durations of its direct
children. Every span kind maps to exactly one `<layer>...self_s` metric,
so the self times of all layers add up to the time covered by top-level
spans; the rest of the traced operation time is `trace.unaccounted_s`.
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time
from collections import Counter

from cohkit import channels, cli, linalg, measures, states

EIG_DIMS = (2, 3, 4, 32)
MEASURE_KINDS = ("l1", "re", "ibiqc", "report")

# name -> unit, in the order they are printed. BENCHMARK.json lists the
# same names under per_layer.
PER_LAYER_UNITS = {
    "linalg.eig.calls": "count",
    "linalg.eig.self_s": "s",
    "linalg.eig.failed": "count",
    **{f"linalg.eig.calls.d{d}": "count" for d in EIG_DIMS},
    **{f"linalg.eig.self_s.d{d}": "s" for d in EIG_DIMS},
    "states.sample.calls": "count",
    "states.sample.self_s": "s",
    "states.make_density.calls": "count",
    "states.make_density.self_s": "s",
    **{f"measures.eval.calls.{k}": "count" for k in MEASURE_KINDS},
    "measures.eval.self_s": "s",
    "measures.search.calls": "count",
    "measures.search.self_s": "s",
    "measures.search.nfev": "count",
    "measures.search.failed": "count",
    "channels.audit.calls": "count",
    "channels.audit.samples": "count",
    "channels.audit.self_s": "s",
    "channels.kraus.calls": "count",
    "channels.kraus.self_s": "s",
    "channels.report_bytes": "bytes",
    "channels.to_json.self_s": "s",
    "channels.verdict_mismatch": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_read": "bytes",
    "cli.bytes_written": "bytes",
    "cli.exit_nonzero": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

# span kind -> the metric that receives its self time
SELF_METRIC = {
    "linalg.eig": "linalg.eig.self_s",
    "states.sample": "states.sample.self_s",
    "states.make_density": "states.make_density.self_s",
    "measures.eval": "measures.eval.self_s",
    "measures.search": "measures.search.self_s",
    "channels.audit": "channels.audit.self_s",
    "channels.kraus": "channels.kraus.self_s",
    "channels.to_json": "channels.to_json.self_s",
    "cli.main": "cli.main.self_s",
}


class _Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs


class _CountingFile:
    """File proxy that adds the bytes read and written to two counters."""

    def __init__(self, fh, counters: Counter):
        self._fh = fh
        self._counters = counters

    def read(self, *args):
        data = self._fh.read(*args)
        self._counters["cli.bytes_read"] += len(data.encode("utf-8") if isinstance(data, str) else data)
        return data

    def write(self, data):
        self._counters["cli.bytes_written"] += len(data.encode("utf-8") if isinstance(data, str) else data)
        return self._fh.write(data)

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """Records spans around cohkit's layer boundaries while installed."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn, attrs=None, after=None):
        """Wrapper recording one `name` span per call of fn.

        attrs(args, kwargs) gives the span's attributes; after(span,
        result) may add more once fn has returned.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(name, 0.0, self._stack[-1] if self._stack else -1,
                         attrs(args, kwargs) if attrs else {})
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["failed"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after:
                after(span, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        def eig_attrs(args, kwargs):
            m = args[0] if args else kwargs["m"]
            return {"d": len(m)}

        self._patch(linalg, "hermitian_eig", self._wrap("linalg.eig", linalg.hermitian_eig, eig_attrs))
        for fname in ("random_density", "haar_unitary", "random_channel"):
            self._patch(states, fname, self._wrap("states.sample", getattr(states, fname)))
        self._patch(states, "make_density", self._wrap("states.make_density", states.make_density))

        for kind, fname in (("l1", "l1_coherence"), ("re", "rel_ent_coherence"),
                            ("ibiqc", "ibiqc_coherence"), ("report", "coherence_report")):
            wrapped = self._wrap("measures.eval", getattr(measures, fname),
                                 lambda a, k, kind=kind: {"kind": kind})
            self._patch(measures, fname, wrapped)
            if kind in channels.MEASURE_FUNCTIONS:
                # The audit table binds the functions at import time, so
                # patching the module attribute alone would miss audits.
                self._patch(channels.MEASURE_FUNCTIONS, kind, wrapped)

        self._patch(measures, "min_distance_coherence",
                    self._wrap("measures.search", measures.min_distance_coherence))
        distance_fn = measures._diagonal_distance_fn

        def counting_distance_fn(*args, **kwargs):
            fn = distance_fn(*args, **kwargs)

            def counted(probs):
                self.counters["measures.search.nfev"] += 1
                return fn(probs)

            return counted

        self._patch(measures, "_diagonal_distance_fn", counting_distance_fn)

        self._patch(channels, "audit_conditions", self._wrap(
            "channels.audit", channels.audit_conditions,
            lambda a, k: {"samples": int(k.get("samples", a[4] if len(a) > 4 else 100))}))
        for fname in ("apply_channel", "selective_outcomes"):
            self._patch(channels, fname, self._wrap("channels.kraus", getattr(channels, fname)))

        def count_report(span, text):
            self.counters["channels.report_bytes"] += len(text.encode("utf-8"))

        self._patch(channels.AuditReport, "to_json",
                    self._wrap("channels.to_json", channels.AuditReport.to_json, after=count_report))

        def cli_main_attrs(args, kwargs):
            out = sys.stdout
            return {"stdout_at": out.tell() if isinstance(out, io.StringIO) else None}

        def cli_main_after(span, code):
            if code:
                self.counters["cli.exit_nonzero"] += 1
            out = sys.stdout
            if span.attrs["stdout_at"] is not None and isinstance(out, io.StringIO):
                self.counters["cli.bytes_written"] += len(
                    out.getvalue()[span.attrs["stdout_at"]:].encode("utf-8"))

        self._patch(cli, "main", self._wrap("cli.main", cli.main, cli_main_attrs, cli_main_after))
        self._patch(cli, "open", lambda *a, **k: _CountingFile(open(*a, **k), self.counters))
        return self

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ reporting

    def summary(self, traced_wall: float, overhead: float, verdict_mismatch: int) -> dict:
        """Per-layer metrics as {name: value} in PER_LAYER_UNITS order.

        traced_wall is the operation time of the traced phase, overhead the
        extra time tracing took.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        values = Counter(self.counters)
        values["channels.verdict_mismatch"] = verdict_mismatch
        top_level = 0.0
        for span, children in zip(self.spans, child_time):
            duration = span.end - span.start
            self_s = duration - children
            values[SELF_METRIC[span.name]] += self_s
            if span.parent < 0:
                top_level += duration
            if span.name == "linalg.eig":
                values["linalg.eig.calls"] += 1
                values["linalg.eig.failed"] += "failed" in span.attrs
                if span.attrs["d"] in EIG_DIMS:
                    values[f"linalg.eig.calls.d{span.attrs['d']}"] += 1
                    values[f"linalg.eig.self_s.d{span.attrs['d']}"] += self_s
            elif span.name == "measures.eval":
                values[f"measures.eval.calls.{span.attrs['kind']}"] += 1
            elif span.name == "measures.search":
                values["measures.search.calls"] += 1
                values["measures.search.failed"] += "failed" in span.attrs
            elif span.name == "channels.audit":
                values["channels.audit.calls"] += 1
                values["channels.audit.samples"] += span.attrs["samples"]
            elif span.name in ("states.sample", "states.make_density", "channels.kraus", "cli.main"):
                values[f"{span.name}.calls"] += 1
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = overhead
        values["trace.unaccounted_s"] = traced_wall - top_level
        return {name: float(values[name]) if PER_LAYER_UNITS[name] == "s" else int(values[name])
                for name in PER_LAYER_UNITS}

    def dump(self, path) -> None:
        """Write the spans as JSON lines: index, name, start, end, parent, attributes."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                attrs = {k: v for k, v in span.attrs.items() if k != "stdout_at"}
                fh.write(json.dumps({"id": i, "name": span.name, "start": span.start, "end": span.end,
                                     "parent": span.parent, "attrs": attrs}) + "\n")


_MISSING = object()
