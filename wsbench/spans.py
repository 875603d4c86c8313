"""In-memory span tracing around the calls the pipeline makes between
wallscale's modules, plus the per-layer metrics derived from the spans.

Tracing wraps module attributes from outside the package: the pipeline
calls ``profiles.load_profile``, ``fitting.fit_power_law`` and the rest
through their modules' globals, so replacing an attribute routes every call
through a wrapper that records a span ``(name, start, end, parent, item)``.
Nothing inside ``src/wallscale`` is changed; ``uninstall`` puts the original
functions back.  Counters that need the file system (bytes read and
written) keep only the paths during the pass and stat them afterwards, so
no span pays for them.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time
from collections import Counter
from pathlib import Path

# (module, attribute, what identifies the item the call works on)
WRAPPED = (
    ("cli", "main", None),
    ("report", "batch", None),
    ("report", "analyze", lambda a, k: Path(a[0]).stem),
    ("report", "analyze_profile", None),
    ("report", "emit_plotdata", lambda a, k: a[0].report.label),
    ("report", "envelope_table", None),
    ("report", "format_table", None),
    ("report", "report_to_text", None),
    ("profiles", "load_profile", None),
    ("profiles", "select_intermediate", None),
    ("fitting", "fit_broken_line", None),
    ("fitting", "fit_power_law", None),
    ("fitting", "significant_break", None),
    ("diagnostics", "ln_re1_from_prefactor", None),
    ("diagnostics", "ln_re2_from_exponent", None),
    ("diagnostics", "combine_reynolds", None),
    ("diagnostics", "build_universal_series", None),
    ("diagnostics", "classify_shift", None),
    ("diagnostics", "turbulence_shift_x", None),
    ("scaling", "envelope_at", lambda a, k: f"x={a[0]!r}"),
    ("scaling", "envelope_line_fit", None),
)

DIAGNOSTICS_SPANS = ("diagnostics.ln_re1_from_prefactor",
                     "diagnostics.ln_re2_from_exponent",
                     "diagnostics.combine_reynolds",
                     "diagnostics.build_universal_series",
                     "diagnostics.classify_shift",
                     "diagnostics.turbulence_shift_x")

# name -> unit, in the order they are reported.
PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.wallscale_s": "s",
    "profiles.load_profile.calls": "count",
    "profiles.load_profile.self_s": "s",
    "profiles.load_profile.samples": "count",
    "profiles.load_profile.bytes_read": "B",
    "profiles.select_intermediate.self_s": "s",
    "profiles.select_intermediate.samples_dropped": "count",
    "fitting.fit_broken_line.calls": "count",
    "fitting.fit_broken_line.self_s": "s",
    "fitting.fit_power_law.calls": "count",
    "fitting.fit_power_law.self_s": "s",
    "fitting.fit_power_law.calls_per_fit": "count",
    "fitting.significant_break.self_s": "s",
    "diagnostics.self_s": "s",
    "diagnostics.build_universal_series.samples": "count",
    "diagnostics.turbulence_shift_x.calls": "count",
    "scaling.envelope_at.calls": "count",
    "scaling.envelope_at.self_s": "s",
    "scaling.envelope_line_fit.self_s": "s",
    "report.analyze_profile.self_s": "s",
    "report.batch.self_s": "s",
    "report.emit_plotdata.calls": "count",
    "report.emit_plotdata.self_s": "s",
    "report.emit_plotdata.files_written": "count",
    "report.emit_plotdata.bytes_written": "B",
    "report.envelope_table.calls": "count",
    "report.envelope_table.self_s": "s",
    "report.envelope_table.distinct_ratio": "ratio",
    "report.format_table.self_s": "s",
    "report.report_to_text.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


class Tracer:
    """Records spans for the calls listed in ``WRAPPED`` while installed."""

    def __init__(self, package):
        self._package = package
        self._saved = []
        self._stack = []           # (span index, item) of open spans
        self.spans = []            # (name, start, end, parent, item)
        self.counts = Counter()
        self.paths_read = []
        self.paths_written = []
        self.tables = []           # text of every envelope table computed

    def install(self) -> None:
        for module_name, attr, item_of in WRAPPED:
            module = getattr(self._package, module_name)
            original = getattr(module, attr, None)
            if original is None:    # removed from the program: reads as 0
                continue
            setattr(module, attr, self._wrap(f"{module_name}.{attr}",
                                             original, item_of))
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, item_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent, item = stack[-1] if stack else (-1, None)
            if item_of is not None:
                item = item_of(args, kwargs)
            index = len(spans)
            spans.append(None)
            stack.append((index, item))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, item)
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result) -> None:
        if name == "profiles.load_profile":
            self.counts["profiles.load_profile.samples"] += len(result)
            self.paths_read.append(args[0])
        elif name == "profiles.select_intermediate":
            self.counts["profiles.select_intermediate.samples_dropped"] += (
                len(args[0]) - len(result))
        elif name == "diagnostics.build_universal_series":
            self.counts["diagnostics.build_universal_series.samples"] += len(
                getattr(args[0], "samples", args[0]))
        elif name == "report.emit_plotdata":
            self.paths_written.extend(result)
        elif name == "report.envelope_table":
            self.tables.append(result)

    def take(self):
        """Return and clear what was recorded since the last call."""
        taken = (self.spans[:], Counter(self.counts), self.paths_read[:],
                 self.paths_written[:], self.tables[:])
        self.spans.clear()
        self.counts.clear()
        self.paths_read.clear()
        self.paths_written.clear()
        self.tables.clear()
        return taken


def self_times(spans) -> tuple[Counter, Counter]:
    """Per span name: (self seconds, calls).  Self time is a span's
    duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls = Counter(), Counter()
    for (name, start, end, _, _), c in zip(spans, child):
        self_s[name] += (end - start) - c
        calls[name] += 1
    return self_s, calls


def pass_metrics(taken, pass_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything but import and
    overhead, which come from other runs)."""
    spans, counts, paths_read, paths_written, tables = taken
    self_s, calls = self_times(spans)
    covered = sum(end - start for _, start, end, parent, _ in spans
                  if parent < 0)
    fits = calls["fitting.fit_broken_line"]
    m = {
        "profiles.load_profile.calls": calls["profiles.load_profile"],
        "profiles.load_profile.self_s": self_s["profiles.load_profile"],
        "profiles.load_profile.samples": counts["profiles.load_profile.samples"],
        "profiles.load_profile.bytes_read": sum(os.path.getsize(p)
                                                for p in paths_read),
        "profiles.select_intermediate.self_s":
            self_s["profiles.select_intermediate"],
        "profiles.select_intermediate.samples_dropped":
            counts["profiles.select_intermediate.samples_dropped"],
        "fitting.fit_broken_line.calls": fits,
        "fitting.fit_broken_line.self_s": self_s["fitting.fit_broken_line"],
        "fitting.fit_power_law.calls": calls["fitting.fit_power_law"],
        "fitting.fit_power_law.self_s": self_s["fitting.fit_power_law"],
        "fitting.fit_power_law.calls_per_fit":
            calls["fitting.fit_power_law"] / fits if fits else 0.0,
        "fitting.significant_break.self_s": self_s["fitting.significant_break"],
        "diagnostics.self_s": sum(self_s[n] for n in DIAGNOSTICS_SPANS),
        "diagnostics.build_universal_series.samples":
            counts["diagnostics.build_universal_series.samples"],
        "diagnostics.turbulence_shift_x.calls":
            calls["diagnostics.turbulence_shift_x"],
        "scaling.envelope_at.calls": calls["scaling.envelope_at"],
        "scaling.envelope_at.self_s": self_s["scaling.envelope_at"],
        "scaling.envelope_line_fit.self_s": self_s["scaling.envelope_line_fit"],
        "report.analyze_profile.self_s": self_s["report.analyze_profile"],
        "report.batch.self_s": self_s["report.batch"],
        "report.emit_plotdata.calls": calls["report.emit_plotdata"],
        "report.emit_plotdata.self_s": self_s["report.emit_plotdata"],
        "report.emit_plotdata.files_written": len(paths_written),
        "report.emit_plotdata.bytes_written": sum(os.path.getsize(p)
                                                  for p in paths_written),
        "report.envelope_table.calls": len(tables),
        "report.envelope_table.self_s": self_s["report.envelope_table"],
        # 0 when no table is computed at all.
        "report.envelope_table.distinct_ratio":
            len(set(tables)) / len(tables) if tables else 0.0,
        "report.format_table.self_s": self_s["report.format_table"],
        "report.report_to_text.self_s": self_s["report.report_to_text"],
        "cli.main.self_s": self_s["cli.main"],
        "trace.unattributed_frac": max(0.0, 1.0 - covered / pass_seconds),
    }
    return {k: float(v) for k, v in m.items()}


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(stderr: str) -> dict[str, float]:
    """Seconds of ``-X importtime`` self time summed per top-level package."""
    totals = Counter()
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            package = m.group(4).split(".")[0]
            if package in ("numpy", "scipy", "wallscale"):
                totals[package] += int(m.group(1)) * 1e-6
    return {f"import.{p}_s": totals[p] for p in ("numpy", "scipy", "wallscale")}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}


def write_spans(path: Path, passes) -> None:
    """One JSON line per span: pass number, name, start, end, parent, item."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in passes:
            for name, start, end, parent, item in spans:
                fh.write(json.dumps([number, name, start, end, parent, item])
                         + "\n")
