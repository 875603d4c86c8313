"""Time every stage of the wallscale pipeline, per source tree.

    python3 benchmarks/run.py --out BENCH_<PR>.json \
        --tree parent=/path/to/parent/src --tree change=src [--repeats 10]

Needs the standard library and the package's dependencies, numpy and
orjson.  At defaults two trees take a few minutes on 2 vCPUs; a tree
whose fit refits every split of a noiseless single law (about 0.3 s a
call at n = 4000) takes most of it.

The corpus is written once, with numpy and ``repr`` only, so every tree
reads the same bytes.  For each n = 40, 200, 1000 and 4000 it holds a
directory ``nN`` of ``PROFILES`` profiles of n samples over ln eta = 1..10,
each a noisy (sigma = 0.01) power law phi = 8.67 eta**0.14 breaking to
eta**0.2 at ln eta = 6.5, whose last 5 samples are set to its maximum, so
the sublayer cut, the plateau cut and the break are all exercised;
``comma-nN.dat`` and ``tab-nN.dat``, ``nN/p0.dat`` with commas and with
tabs for separators; and ``single-nN.dat``, the noiseless
phi = 8.67 eta**0.14 over the same ln eta, on which every split's total
RSS is rounding noise.

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
of one call.  The stages, at every n: ``load_profile`` (of ``p0.dat``,
of ``comma-nN.dat`` as ``load_profile_comma_s`` and of ``tab-nN.dat`` as
``load_profile_tab_s``),
``select_intermediate``, both fits (``fitting.fit_log_broken_line`` of the
selected ``ln_eta`` and ``ln_phi`` columns, as ``analyze_profile`` calls
it; the stage keeps its name ``fit_broken_line_s``), the universal series
(``diagnostics.universal_series`` of the region-I samples at the alpha
``analyze_profile`` uses, as ``build_universal_series_s``),
``analyze_profile``, ``emit_plotdata``, ``profiles.format_columns`` of
the four log-log columns that ``emit_plotdata`` writes (rendering only,
as ``format_columns_s``), the tree's column logarithm of ``p0.dat``'s eta
and its column exponential of the n ln eta of the corpus's grid
(``log_column_s`` and ``exp_column_s``: ``profiles.ieee_log`` and
``ieee_exp`` where the tree has them, else ``profiles.libm_column`` of
``math.log`` and ``math.exp``), and ``cli.main`` of ``analyze FILE`` and
``batch DIR --out-dir OUT``; then ``scaling.envelope_at`` per call (a sweep
over ln eta = 5..10 in 50 steps, divided by 50),
``report.envelope_table()`` (ln eta = 5..10 in 50 steps),
``scaling.envelope_curve((2, 30), 2000)``, ``report.format_envelope`` of
that curve (rendering only) and ``cli.main(ENVELOPE_ARGV)``.
The commands' output goes to buffers: stdout is the protocol.  Each
``emit_plotdata`` and ``batch`` call creates a new directory, as the
benchmark's ``lab_batch`` passes do, removed after the visit, untimed.

The parent visits every stage ``VISITS`` times on every tree, one tree
right after the other, swapping the trees' order on every visit, so drift
of the host's speed over seconds cancels within each pair.

Start-up is measured first, in fresh interpreters, ``STARTS`` rounds
that alternate the trees in the same way; each tree's package is copied
without byte code, and no child writes any, so each import compiles the
source, as a fresh checkout run with ``PYTHONDONTWRITEBYTECODE=1`` does.  In each round every tree gets an
untraced child, for ``import.wallscale_s`` (the wall time of ``import
wallscale.cli`` after numpy and the standard library modules this script
imports), ``import.maxrss_mb`` (the child's peak RSS after it), the
seconds and minor page faults (``ru_minflt``) of a first
``cli.main(ENVELOPE_ARGV)`` right after the import, and
``compile.<module>_s``, one ``compile()`` of each module's source; and a
traced child, with ``tracemalloc`` on from before the import, for
``import.wallscale_peak_mb`` and ``compile.<module>_peak_mb``, the
import's and each compile's peak of traced memory.

The record keeps each metric's value per visit or start (a count has
one), each tree's median, and, for each tree after the first, the median
over visits of the first tree's value divided by its own (above 1 where
that tree is faster or smaller).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

SIZES = (40, 200, 1000, 4000)
PROFILES = 4
VISITS = 10
STARTS = 20
ENVELOPE_XS = np.linspace(5.0, 10.0, 50).tolist()
ENVELOPE_ARGV = ("envelope", "--ln-eta-min", "2", "--ln-eta-max", "30",
                 "--n-points", "2000")


def write_profile(path: Path, label: str, eta, phi, sep=" ") -> None:
    rows = "".join(f"{e!r}{sep}{p!r}\n" for e, p in zip(eta.tolist(),
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
            if i == 0:
                for name, sep in (("comma", ","), ("tab", "\t")):
                    write_profile(root / f"{name}-n{n}.dat", f"n{n}-{i}",
                                  eta, phi, sep=sep)
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


def run_main(cli, argv) -> None:
    """``cli.main(argv)`` with its output in buffers; a failure ends the
    run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"wallscale {' '.join(argv)} failed: "
                         f"{err.getvalue()}")


def startup(traced: bool) -> None:
    """Run in a fresh interpreter whose ``PYTHONPATH`` holds a copy of the
    package without byte code: import ``wallscale.cli``, then print one
    JSON object of start-up metrics.

    Untraced: the import's seconds, the process's peak RSS after it, the
    seconds and minor page faults of a first ``cli.main(ENVELOPE_ARGV)``,
    then the seconds of ``compile()`` of each module's source.  Traced
    (``tracemalloc`` on from before the import): the import's peak of
    traced memory, then each module's compile peak above the memory
    traced before it."""
    if traced:
        tracemalloc.start()
    start = time.perf_counter()
    import wallscale.cli
    seconds = time.perf_counter() - start
    package = Path(wallscale.cli.__file__).parent
    if package.parent != Path(os.environ["PYTHONPATH"]):
        raise SystemExit(f"imported wallscale from {package}")
    if traced:
        record = {"import.wallscale_peak_mb":
                  tracemalloc.get_traced_memory()[1] / 2**20}
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        run_main(wallscale.cli, ENVELOPE_ARGV)
        first_s = time.perf_counter() - start
        record = {"import.wallscale_s": seconds,
                  "import.maxrss_mb": usage.ru_maxrss / 1024,
                  "first_envelope_2_30_2000_s": first_s,
                  "first_envelope_2_30_2000.minflt":
                  resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                  - usage.ru_minflt}
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if traced:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            compile(source, str(path), "exec")
            record[f"compile.{path.stem}_peak_mb"] = (
                tracemalloc.get_traced_memory()[1] - before) / 2**20
        else:
            start = time.perf_counter()
            compile(source, str(path), "exec")
            record[f"compile.{path.stem}_s"] = time.perf_counter() - start
    print(json.dumps(record))


def start_records(trees: dict, starts: int) -> dict:
    """metric -> tree -> one value per fresh interpreter: ``starts``
    rounds, each of which starts an untraced and a traced ``startup``
    child per tree, swapping the trees' order on every round.  Each tree's
    package is copied without byte code, and the children write none
    (``PYTHONDONTWRITEBYTECODE``), so every import compiles its source, as
    in a fresh checkout."""
    values: dict = {}
    names = list(trees)
    with tempfile.TemporaryDirectory() as root:
        envs = {}
        for i, (name, src) in enumerate(trees.items()):
            copy = Path(root, str(i), "wallscale")
            copy.mkdir(parents=True)
            for path in Path(src, "wallscale").glob("*.py"):
                shutil.copy(path, copy)
            envs[name] = dict(os.environ, PYTHONPATH=str(copy.parent),
                              PYTHONDONTWRITEBYTECODE="1")
        for start in range(starts):
            for name in names if start % 2 == 0 else names[::-1]:
                for mode in ("untraced", "traced"):
                    proc = subprocess.run(
                        [sys.executable, __file__, "--startup", mode],
                        env=envs[name], capture_output=True, text=True)
                    if proc.returncode != 0:
                        raise SystemExit(f"tree {name}: the start-up child "
                                         f"failed: {proc.stderr}")
                    for metric, value in json.loads(proc.stdout).items():
                        values.setdefault(metric, {}).setdefault(
                            name, []).append(value)
            print(f"start {start + 1}/{starts} done", file=sys.stderr)
    return values


def child(corpus: Path, repeats: int) -> None:
    """Run in the child interpreter: check the fits, print the counts and
    the stage names, then time each stage named on stdin."""
    from wallscale import (analyze_profile, cli, diagnostics, emit_plotdata,
                           fitting, load_profile, profiles, report, scaling,
                           select_intermediate)
    sys.path.append(str(Path(fitting.__file__).parents[2] / "tests"))
    from oracle import exhaustive_broken_line

    def run_cli(*argv):
        run_main(cli, argv)

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

    def column_function(name, libm):
        """The tree's own column function: ``profiles.<name>``, or
        ``libm_column`` of ``libm`` in a tree without it."""
        if hasattr(profiles, name):
            return getattr(profiles, name)
        return functools.partial(profiles.libm_column, libm)

    log_column = column_function("ieee_log", math.log)
    exp_column = column_function("ieee_exp", math.exp)
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
        ln_eta = bundle.profile.ln_eta
        ln_grid = np.linspace(1.0, 10.0, n)
        loglog = (ln_eta, bundle.profile.ln_phi,
                  bundle.fit.region1.ln_phi_at(ln_eta),
                  bundle.fit.region2.ln_phi_at(ln_eta))
        counts.update({f"n{n}.kept": len(inter),
                       f"n{n}.fit_power_law_calls": calls,
                       f"n{n}.single_law.fit_power_law_calls": single_calls})
        stages.update({f"n{n}.{name}": fn for name, fn in {
            "load_profile_s": lambda: load_profile(path),
            "load_profile_comma_s":
                lambda: load_profile(corpus / f"comma-n{n}.dat"),
            "load_profile_tab_s":
                lambda: load_profile(corpus / f"tab-n{n}.dat"),
            "select_intermediate_s": lambda: select_intermediate(profile),
            "fit_broken_line_s": fit,
            "single_law.fit_broken_line_s": single_fit,
            "build_universal_series_s":
                lambda: diagnostics.universal_series(
                    inter.ln_eta[:k], inter.phi[:k], alpha),
            "analyze_profile_s": lambda: analyze_profile(profile),
            "emit_plotdata_s": lambda: emit_plotdata(bundle, new_dir(),
                                                     stem=f"n{n}"),
            "format_columns_s": lambda: profiles.format_columns(
                "ln_eta ln_phi fit_region1 fit_region2", *loglog),
            "log_column_s": lambda: log_column(profile.eta),
            "exp_column_s": lambda: exp_column(ln_grid),
            "cli_analyze_s": lambda: run_cli("analyze", str(path)),
            "cli_batch_s": lambda: run_cli("batch", str(folder),
                                           "--out-dir", new_dir()),
        }.items()})

    for n in SIZES:
        add_size(n)
    _, counts["cli_envelope_2_30_2000.solves"] = counting_calls(
        scaling, "solve_envelope", lambda: run_cli(*ENVELOPE_ARGV))
    curve = scaling.envelope_curve((2.0, 30.0), 2000)
    stages.update({
        "envelope_at_s": lambda: [scaling.envelope_at(x)
                                  for x in ENVELOPE_XS],
        "envelope_table_5_10_50_s": report.envelope_table,
        "envelope_curve_2_30_2000_s":
            lambda: scaling.envelope_curve((2.0, 30.0), 2000),
        "format_envelope_2_30_2000_s": lambda: report.format_envelope(curve),
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
    parser.add_argument("--startup", choices=["untraced", "traced"],
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.child is not None:
        child(args.child, args.repeats)
        return
    if args.startup is not None:
        startup(args.startup == "traced")
        return

    trees = {}
    for spec in args.tree:
        name, _, src = spec.partition("=")
        if not name or not src or name in trees:
            parser.error(f"--tree {spec!r}: expected a new NAME=SRC")
        trees[name] = src
    if args.out is None or not trees:
        parser.error("--out and at least one --tree are required")

    import orjson   # here, not at the top: a start-up child pays its import
    names = list(trees)
    # metric -> tree -> one value per start or visit (a count: one)
    values = start_records(trees, STARTS)
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
        # a module of one tree only has no ratio
        ratios = {name: statistics.median(
            b / v for b, v in zip(rounds[names[0]], rounds[name]))
            for name in names[1:] if names[0] in rounds and name in rounds}
        if ratios:
            metrics[metric]["ratio_median"] = ratios
        print(f"{metric:38s}", *(f"{name} {m:.6g}" for name, m in
                                  medians.items()),
              *(f"{names[0]}/{name} {q:.3f}" for name, q in ratios.items()))

    record = {
        "what": "wallscale pipeline stages and commands, best-of-N "
                "perf_counter seconds per call, one value per visit of "
                "one long-lived child per tree, and counts; start-up "
                "metrics (import., compile., first_envelope), one value "
                "per fresh interpreter",
        "command": " ".join(["python3 benchmarks/run.py",
                             f"--repeats {args.repeats}",
                             *(f"--tree {name}=SRC" for name in names)]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "orjson": orjson.__version__,
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "starts": STARTS,
        "rounds": VISITS,
        "trees": names,
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
