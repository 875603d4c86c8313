"""Time every stage of the wallscale pipeline, per source tree.

    python3 benchmarks/run.py --out BENCH_<PR>.json \
        --tree parent=/path/to/parent/src --tree change=src [--repeats 10]

Needs only numpy and the standard library.  At defaults two trees take
a few minutes on 2 vCPUs; a tree whose fit refits every split of a
noiseless single law (about 0.3 s a call at n = 4000) takes most of it.

The corpus is written once, with numpy and ``repr`` only, so every tree
reads the same bytes.  For each n = 40, 200, 1000 and 4000 it holds a
directory ``nN`` of ``PROFILES`` profiles of n samples over ln eta = 1..10,
each a noisy (sigma = 0.01) power law phi = 8.67 eta**0.14 breaking to
eta**0.2 at ln eta = 6.5, whose last 5 samples are set to its maximum, so
the sublayer cut, the plateau cut and the break are all exercised; and
``single-nN.dat``, the noiseless phi = 8.67 eta**0.14 over the same ln eta,
on which every split's total RSS is rounding noise.

Each ``NAME=SRC`` tree gets one child interpreter, with ``PYTHONPATH=SRC``,
for the whole run.  At start-up the child checks, at every n, that
``fitting.fit_log_broken_line`` on the selected samples of ``nN/p0.dat``
and of ``single-nN.dat`` equals ``exhaustive_broken_line`` of
``tests/oracle.py`` in the measured tree's own checkout (the directory
above ``SRC``), so each tree is checked against the rule it states; a
difference stops the run and names the tree.  It prints one JSON line: the
counts (kept samples of ``p0.dat``, ``fit_power_law`` calls of both fits,
and ``scaling.solve_envelope`` calls of ``cli.main(ENVELOPE_ARGV)``, the
2000-point envelope of the benchmark's ``envelope_grid`` workload) and the
names of its stages.  Then it reads stage names from stdin, one a line, and
answers each with the best of ``--repeats`` ``time.perf_counter`` timings
of one call.  The stages, at every n: ``load_profile``,
``select_intermediate``, both fits (``fitting.fit_log_broken_line`` of the
selected ``ln_eta`` and ``ln_phi`` columns, as ``analyze_profile`` calls
it; the stage keeps its name ``fit_broken_line_s``), the universal series
(``diagnostics.universal_series`` of the region-I samples at the alpha
``analyze_profile`` uses, as ``build_universal_series_s``),
``analyze_profile``, ``emit_plotdata``, and ``cli.main`` of
``analyze FILE`` and ``batch DIR --out-dir OUT``; then
``scaling.envelope_at`` per call (a sweep over ln eta = 5..10 in 50 steps,
divided by 50), ``report.envelope_table((5, 10), 50)``,
``scaling.envelope_curve((2, 30), 2000)`` and ``cli.main(ENVELOPE_ARGV)``.
The commands' output goes to buffers: stdout is the protocol.  Each
``emit_plotdata`` and ``batch`` call creates a new directory, as the
benchmark's ``lab_batch`` passes do, removed after the visit, untimed.

The parent visits every stage ``VISITS`` times on every tree, one tree
right after the other, swapping the trees' order on every visit, so drift
of the host's speed over seconds cancels within each pair.  Import time
and memory are the benchmark's to measure.  The record keeps each metric's
value per visit (a count has one), each tree's median, and, for each tree
after the first, the median over visits of the first tree's value divided
by its own (above 1 where that tree is faster).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIZES = (40, 200, 1000, 4000)
PROFILES = 4
VISITS = 10
ENVELOPE_XS = np.linspace(5.0, 10.0, 50).tolist()
ENVELOPE_ARGV = ("envelope", "--ln-eta-min", "2", "--ln-eta-max", "30",
                 "--n-points", "2000")


def write_profile(path: Path, label: str, eta, phi) -> None:
    rows = "".join(f"{e!r} {p!r}\n" for e, p in zip(eta.tolist(),
                                                    phi.tolist()))
    path.write_text(f"label={label}\n" + rows, encoding="utf-8")


def write_corpus(root: Path) -> None:
    for n in SIZES:
        folder = root / f"n{n}"
        folder.mkdir()
        ln_eta = np.linspace(1.0, 10.0, n)
        eta = np.exp(ln_eta)
        ln_law = np.log(8.67) + np.where(ln_eta < 6.5, 0.14 * ln_eta,
                                         0.14 * 6.5 + 0.2 * (ln_eta - 6.5))
        for i in range(PROFILES):
            rng = np.random.default_rng([n, i])
            phi = np.exp(ln_law + rng.normal(0.0, 0.01, n))
            phi[-5:] = phi.max()
            write_profile(folder / f"p{i}.dat", f"n{n}-{i}", eta, phi)
        write_profile(root / f"single-n{n}.dat", f"single-n{n}", eta,
                      8.67 * eta ** 0.14)


def best_of(fn, repeats):
    """The smallest of ``repeats`` perf_counter timings of ``fn()``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def child(corpus: Path, repeats: int) -> None:
    """Run in the child interpreter: check the fits, print the counts and
    the stage names, then time each stage named on stdin."""
    from wallscale import (analyze_profile, cli, diagnostics, emit_plotdata,
                           fitting, load_profile, report, scaling,
                           select_intermediate)
    sys.path.append(str(Path(fitting.__file__).parents[2] / "tests"))
    from oracle import exhaustive_broken_line

    def run_cli(*argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise SystemExit(f"wallscale {' '.join(argv)} failed: "
                             f"{err.getvalue()}")

    def counting_calls(module, name, fn):
        """``fn()`` and the number of calls it made to ``module.name``."""
        real, calls = getattr(module, name), []
        setattr(module, name, lambda *a: calls.append(a) or real(*a))
        try:
            return fn(), len(calls)
        finally:
            setattr(module, name, real)

    def checked_fit(path):
        """The selected samples of a file, a call of their fit, and the
        fit_power_law calls it makes, once the fit is checked."""
        inter = select_intermediate(load_profile(path))

        def fit():
            return fitting.fit_log_broken_line(inter.ln_eta, inter.ln_phi)

        result, calls = counting_calls(fitting, "fit_power_law", fit)
        if result != exhaustive_broken_line(inter.eta, inter.phi):
            raise SystemExit(f"{path.relative_to(corpus)}: "
                             "fit_log_broken_line differs from the "
                             "exhaustive search")
        return inter, fit, calls

    counts, stages = {}, {}
    out = Path(tempfile.mkdtemp(dir=corpus))    # removed with the corpus
    fresh = itertools.count()

    def new_dir():
        return f"{out}/{next(fresh)}"

    def add_size(n):
        """Add the counts and the stages of size n."""
        folder = corpus / f"n{n}"
        path = folder / "p0.dat"
        profile = load_profile(path)
        inter, fit, calls = checked_fit(path)
        _, single_fit, single_calls = checked_fit(corpus / f"single-n{n}.dat")
        bundle = analyze_profile(profile)
        k = bundle.fit.split_index
        alpha = scaling.alpha_of_ln_re(bundle.report.ln_re)
        counts.update({f"n{n}.kept": len(inter),
                       f"n{n}.fit_power_law_calls": calls,
                       f"n{n}.single_law.fit_power_law_calls": single_calls})
        stages.update({f"n{n}.{name}": fn for name, fn in {
            "load_profile_s": lambda: load_profile(path),
            "select_intermediate_s": lambda: select_intermediate(profile),
            "fit_broken_line_s": fit,
            "single_law.fit_broken_line_s": single_fit,
            "build_universal_series_s":
                lambda: diagnostics.universal_series(
                    inter.ln_eta[:k], inter.phi[:k], alpha),
            "analyze_profile_s": lambda: analyze_profile(profile),
            "emit_plotdata_s": lambda: emit_plotdata(bundle, new_dir(),
                                                     stem=f"n{n}"),
            "cli_analyze_s": lambda: run_cli("analyze", str(path)),
            "cli_batch_s": lambda: run_cli("batch", str(folder),
                                           "--out-dir", new_dir()),
        }.items()})

    for n in SIZES:
        add_size(n)
    _, counts["cli_envelope_2_30_2000.solves"] = counting_calls(
        scaling, "solve_envelope", lambda: run_cli(*ENVELOPE_ARGV))
    stages.update({
        "envelope_at_s": lambda: [scaling.envelope_at(x)
                                  for x in ENVELOPE_XS],
        "envelope_table_5_10_50_s":
            lambda: report.envelope_table((5.0, 10.0), 50),
        "envelope_curve_2_30_2000_s":
            lambda: scaling.envelope_curve((2.0, 30.0), 2000),
        "cli_envelope_2_30_2000_s": lambda: run_cli(*ENVELOPE_ARGV),
    })
    calls_per_stage = {"envelope_at_s": len(ENVELOPE_XS)}
    print(json.dumps({"counts": counts, "stages": list(stages)}), flush=True)
    for line in sys.stdin:
        name = line.strip()
        seconds = best_of(stages[name], repeats)
        for made in out.iterdir():
            shutil.rmtree(made)
        print(json.dumps(seconds / calls_per_stage.get(name, 1)), flush=True)


def reply(name, proc):
    """The next JSON line from the child of tree ``name``.  A child that
    fails ends the run."""
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"tree {name}: the child failed with exit status "
                         f"{proc.wait()}")
    return json.loads(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tree", action="append", default=[],
                        metavar="NAME=SRC")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.child is not None:
        child(args.child, args.repeats)
        return

    trees = {}
    for spec in args.tree:
        name, _, src = spec.partition("=")
        if not name or not src or name in trees:
            parser.error(f"--tree {spec!r}: expected a new NAME=SRC")
        trees[name] = src
    if args.out is None or not trees:
        parser.error("--out and at least one --tree are required")

    names = list(trees)
    values = {}     # metric -> tree -> one value per visit (a count: one)
    with contextlib.ExitStack() as stack:
        corpus = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        write_corpus(corpus)
        children = {name: stack.enter_context(subprocess.Popen(
            [sys.executable, __file__, "--child", str(corpus),
             "--repeats", str(args.repeats)],
            env=dict(os.environ, PYTHONPATH=str(Path(src).resolve())),
            text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE))
            for name, src in trees.items()}
        for name, proc in children.items():
            header = reply(name, proc)
            for metric, count in header["counts"].items():
                values.setdefault(metric, {})[name] = [count]
        for visit in range(VISITS):
            for stage in header["stages"]:
                for name in names if visit % 2 == 0 else names[::-1]:
                    print(stage, file=children[name].stdin, flush=True)
                    values.setdefault(stage, {}).setdefault(name, []).append(
                        reply(name, children[name]))
            print(f"visit {visit + 1}/{VISITS} done", file=sys.stderr)

    metrics = {}
    for metric, rounds in values.items():
        medians = {name: statistics.median(v) for name, v in rounds.items()}
        metrics[metric] = {"rounds": rounds, "median": medians}
        ratios = {name: statistics.median(
            b / v for b, v in zip(rounds[names[0]], rounds[name]))
            for name in names[1:]}
        if ratios:
            metrics[metric]["ratio_median"] = ratios
        print(f"{metric:38s}", *(f"{name} {m:.6g}" for name, m in
                                  medians.items()),
              *(f"{names[0]}/{name} {q:.3f}" for name, q in ratios.items()))

    record = {
        "what": "wallscale pipeline stages and commands, best-of-N "
                "perf_counter seconds per call, one value per visit of "
                "one long-lived child per tree, and counts",
        "command": " ".join(["python3 benchmarks/run.py",
                             f"--repeats {args.repeats}",
                             *(f"--tree {name}=SRC" for name in names)]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "rounds": VISITS,
        "trees": names,
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
