"""One pass of a workload, driven through ``wallscale.cli.main``.

Shared by the timed loop in ``run.py`` and the fresh interpreters in
``child.py``.  It imports nothing from wallscale itself: callers pass the
imported ``wallscale.cli`` module, and ``main`` is looked up on it at call
time so that the traced run's wrapper is the one called.
"""

from __future__ import annotations

import contextlib
import gc
import io
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class PassResult:
    calls: tuple[CliCall, ...]
    out_dir: Path | None
    seconds: float

    def to_json(self) -> dict:
        return {"calls": [[list(c.argv), c.code, c.stdout, c.stderr]
                          for c in self.calls],
                "out_dir": None if self.out_dir is None else str(self.out_dir),
                "seconds": self.seconds}

    @classmethod
    def from_json(cls, data: dict) -> "PassResult":
        calls = tuple(CliCall(tuple(a), c, o, e)
                      for a, c, o, e in data["calls"])
        out_dir = data["out_dir"]
        return cls(calls, None if out_dir is None else Path(out_dir),
                   data["seconds"])


def pass_argvs(workload: str, corpus_dir, args, out_dir) -> list[list[str]]:
    """The CLI invocations that make up one pass of a workload."""
    if workload == "lab_batch":
        return [["batch", str(corpus_dir), "--out-dir", str(out_dir)]]
    if workload == "dns_analyze":
        return [["analyze", str(p)] for p in sorted(Path(corpus_dir).iterdir())]
    if workload == "envelope_grid":
        return [["envelope", *args, "--out-dir", str(out_dir)]]
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(cli, argvs, out_dir) -> PassResult:
    """Run the invocations one after another, capturing their output, and
    time the whole pass.  Garbage left by earlier passes is collected
    first, outside the timed span."""
    calls = []
    gc.collect()
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        calls.append(CliCall(tuple(argv), code, out.getvalue(), err.getvalue()))
    seconds = time.perf_counter() - start
    return PassResult(tuple(calls), None if out_dir is None else Path(out_dir),
                      seconds)
