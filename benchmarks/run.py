"""Time every stage of the wallscale pipeline, per source tree.

    python3 benchmarks/run.py --out BENCH_<PR>.json \
        --tree parent=/path/to/parent/src --tree change=src [--repeats 10]

Needs only numpy and the standard library.  The corpus is written once,
with numpy and ``repr`` only, so every tree reads the same bytes: for each
n = 40, 200, 1000 and 4000, a directory of ``PROFILES`` profiles of n
samples over ln eta = 1..10.  Each is a noisy (sigma = 0.01) two-segment
power law, phi = 8.67 eta**0.14 breaking to eta**0.2 at ln eta = 6.5,
whose last 5 samples are set to its maximum, so that the sublayer cut,
the plateau cut and the break are all exercised.

Each ``NAME=SRC`` tree is measured in one child interpreter with
``PYTHONPATH=SRC`` per round.  At every n the child checks that
``fit_broken_line`` on the selected samples equals
``exhaustive_broken_line``, imported from ``tests/oracle.py`` in the
checkout that holds this script (the run fails otherwise), and counts the
``fit_power_law`` calls of that fit.  The reference calls only the
public ``fit_power_law`` and ``BrokenLineFit`` of the tree under
measurement, so one reference checks every tree alike; a tree must still
have every name ``tests/oracle.py`` imports.  The fit and the
universal series are given the selected profile's ``ln_eta`` and
``ln_phi`` columns, as ``analyze_profile`` gives them.  It then takes the
best of ``--repeats`` ``time.perf_counter`` measurements of one call of
``load_profile``, ``select_intermediate``, ``fit_broken_line``,
``build_universal_series`` (on the region-I samples of the selected
profile, at the alpha ``analyze_profile`` uses),
``analyze_profile`` (default options), ``emit_plotdata``,
``cli.main(["analyze", FILE])`` and ``cli.main(["batch", DIR, "--out-dir",
OUT])`` (their stdout and stderr go to buffers).  Each ``emit_plotdata``
and ``batch`` call writes into a new directory, which it creates, as the
passes of the benchmark's ``lab_batch`` workload do, so every tree
creates the same files.  It also times ``scaling.envelope_at``
per call (a sweep over the 50 abscissae ln eta = 5..10, divided by 50),
``report.envelope_table((5, 10), 50)``, ``scaling.envelope_curve((2, 30),
2000)`` and ``cli.main(ENVELOPE_ARGV)``, the 2000-point envelope of the
benchmark's ``envelope_grid`` workload, whose calls of the columnar
``scaling.solve_envelope`` it also counts.  Then ``--repeats``
fresh interpreters run ``import wallscale.cli``: the best wall time and the
smallest peak RSS are kept.

Every interpreter of a tree writes and reads its bytecode under a
``PYTHONPYCACHEPREFIX`` of that tree's own, made fresh in the run's
temporary directory (``PYTHONDONTWRITEBYTECODE`` is dropped for them),
and one untimed ``import wallscale.cli`` per tree fills it before the
first round.  So every tree imports from cached bytecode, whatever
``__pycache__`` directories its checkout holds.

The trees are measured for ``ROUNDS`` rounds, in alternating order, so a
host whose speed drifts favours neither.  The record keeps every round's
value of each metric, each tree's median, and, for each tree after the
first, the median over rounds of the first tree's value divided by its
own (above 1 where that tree's time or memory is smaller).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIZES = (40, 200, 1000, 4000)
PROFILES = 4
ROUNDS = 5
ENVELOPE_XS = np.linspace(5.0, 10.0, 50).tolist()
ENVELOPE_ARGV = ("envelope", "--ln-eta-min", "2", "--ln-eta-max", "30",
                 "--n-points", "2000")


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
            rows = "".join(f"{e!r} {p!r}\n"
                           for e, p in zip(eta.tolist(), phi.tolist()))
            (folder / f"p{i}.dat").write_text(f"label=n{n}-{i}\n" + rows,
                                              encoding="utf-8")


def best_of(fn, repeats):
    """The smallest of ``repeats`` perf_counter timings of ``fn()``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def child(corpus: Path, repeats: int) -> dict:
    """Run in the child interpreter: check the fit, then time each stage."""
    from wallscale import (analyze_profile, cli, diagnostics, emit_plotdata,
                           fitting, load_profile, report, scaling,
                           select_intermediate)
    sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
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

    record = {}
    with tempfile.TemporaryDirectory() as out:
        fresh = itertools.count()

        def new_dir():
            return f"{out}/{next(fresh)}"

        for n in SIZES:
            folder = corpus / f"n{n}"
            path = folder / "p0.dat"
            profile = load_profile(path)
            inter = select_intermediate(profile)

            def fit_selected():
                return fitting.fit_broken_line(inter.eta, inter.phi,
                                               ln_eta=inter.ln_eta,
                                               ln_phi=inter.ln_phi)

            fit, calls = counting_calls(fitting, "fit_power_law",
                                        fit_selected)
            if fit != exhaustive_broken_line(inter.eta, inter.phi):
                raise SystemExit(f"n={n}: fit_broken_line differs from the "
                                 "exhaustive search")
            bundle = analyze_profile(profile)
            k = bundle.fit.split_index
            alpha = scaling.alpha_of_ln_re(bundle.report.ln_re)
            record[f"n{n}.kept"] = len(inter)
            record[f"n{n}.fit_power_law_calls"] = calls
            stages = {
                "load_profile_s": lambda: load_profile(path),
                "select_intermediate_s": lambda: select_intermediate(profile),
                "fit_broken_line_s": fit_selected,
                "build_universal_series_s":
                    lambda: diagnostics.build_universal_series(
                        inter.eta[:k], inter.phi[:k], alpha,
                        ln_eta=inter.ln_eta[:k]),
                "analyze_profile_s": lambda: analyze_profile(profile),
                "emit_plotdata_s": lambda: emit_plotdata(bundle, new_dir(),
                                                         stem=f"n{n}"),
                "cli_analyze_s": lambda: run_cli("analyze", str(path)),
                "cli_batch_s": lambda: run_cli("batch", str(folder),
                                               "--out-dir", new_dir()),
            }
            for name, fn in stages.items():
                record[f"n{n}.{name}"] = best_of(fn, repeats)

    def sweep():
        for x in ENVELOPE_XS:
            scaling.envelope_at(x)

    record["envelope_at_s"] = best_of(sweep, repeats) / len(ENVELOPE_XS)
    record["envelope_table_5_10_50_s"] = best_of(
        lambda: report.envelope_table((5.0, 10.0), 50), repeats)
    record["envelope_curve_2_30_2000_s"] = best_of(
        lambda: scaling.envelope_curve((2.0, 30.0), 2000), repeats)
    _, record["cli_envelope_2_30_2000.solves"] = counting_calls(
        scaling, "solve_envelope", lambda: run_cli(*ENVELOPE_ARGV))
    record["cli_envelope_2_30_2000_s"] = best_of(
        lambda: run_cli(*ENVELOPE_ARGV), repeats)
    return record


def spawn(src, pycache, argv):
    """Run ``python *argv`` with wallscale imported from ``src`` and
    bytecode kept under ``pycache``; return its stdout and its peak RSS in
    MB.  A child that fails ends the run."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen([sys.executable, *argv], env=env, text=True,
                            stdout=subprocess.PIPE)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{argv} failed with exit status {proc.returncode}")
    return out, usage.ru_maxrss / 1024.0


def measure_tree(src, pycache, corpus: Path, repeats: int) -> dict:
    out, _ = spawn(src, pycache, [__file__, "--child", str(corpus),
                                  "--repeats", str(repeats)])
    record = json.loads(out)
    rss = []
    record["import_wallscale_cli.wall_s"] = best_of(
        lambda: rss.append(spawn(src, pycache,
                                 ["-c", "import wallscale.cli"])[1]),
        repeats)
    record["import_wallscale_cli.maxrss_mb"] = min(rss)
    return record


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
        print(json.dumps(child(args.child, args.repeats)))
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
    values = {}     # metric -> tree -> one value per round
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        write_corpus(corpus)
        caches = {name: Path(tmp) / f"pycache{i}"
                  for i, name in enumerate(names)}
        for name in names:
            spawn(trees[name], caches[name], ["-c", "import wallscale.cli"])
        for r in range(ROUNDS):
            for name in names if r % 2 == 0 else names[::-1]:
                record = measure_tree(trees[name], caches[name], corpus,
                                      args.repeats)
                for metric, value in record.items():
                    values.setdefault(metric, {}).setdefault(name, [])
                    values[metric][name].append(value)
                print(f"round {r + 1}/{ROUNDS}: {name} measured",
                      file=sys.stderr)

    metrics = {}
    for metric, rounds in values.items():
        medians = {name: statistics.median(v) for name, v in rounds.items()}
        metrics[metric] = {"rounds": rounds, "median": medians}
        ratios = {name: statistics.median(
            b / v for b, v in zip(rounds[names[0]], rounds[name]))
            for name in names[1:]}
        if ratios:
            metrics[metric]["ratio_median"] = ratios
        print(f"{metric:34s}", *(f"{name} {m:.6g}" for name, m in
                                  medians.items()),
              *(f"{names[0]}/{name} {q:.3f}" for name, q in ratios.items()))

    record = {
        "what": "wallscale pipeline stages and commands, best-of-N "
                "perf_counter seconds per call, counts, and a cold "
                "`import wallscale.cli` (wall seconds, child ru_maxrss MB)",
        "command": " ".join(["python3 benchmarks/run.py",
                             f"--repeats {args.repeats}",
                             *(f"--tree {name}=SRC" for name in names)]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "rounds": ROUNDS,
        "trees": names,
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
