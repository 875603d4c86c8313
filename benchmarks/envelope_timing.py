"""Time the envelope touch point and a cold import of the CLI, per source tree.

    python3 benchmarks/envelope_timing.py --out BENCH_4.json \
        --tree parent=/path/to/parent/src --tree change=src

Each ``NAME=SRC`` tree is measured with ``PYTHONPATH=SRC``:

- in one child interpreter, ``scaling.envelope_at`` per call (a sweep over
  the 50 abscissae ln eta = 5..10, divided by 50) and
  ``report.envelope_table((5, 10), 50)``, each the best of ``--repeats``
  ``time.perf_counter`` measurements;
- ``--repeats`` fresh interpreters running ``import wallscale.cli``: the
  best wall time and the smallest ``ru_maxrss`` of the child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

XS = np.linspace(5.0, 10.0, 50).tolist()


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def in_process(repeats):
    """Run inside the child interpreter: time the envelope calls."""
    from wallscale import report, scaling

    def sweep():
        for x in XS:
            scaling.envelope_at(x)

    return {
        "envelope_at_s": best_of(sweep, repeats) / len(XS),
        "envelope_table_5_10_50_s": best_of(
            lambda: report.envelope_table((5.0, 10.0), 50), repeats),
    }


def cold_start(code, env, repeats):
    """Best wall time and smallest peak RSS of fresh interpreters running
    ``code``."""
    walls, rss_kb = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        walls.append(time.perf_counter() - start)
        if status != 0:
            raise SystemExit(f"{code!r} failed with status {status}")
        rss_kb.append(usage.ru_maxrss)
    return {"wall_s": min(walls), "maxrss_mb": min(rss_kb) / 1024.0}


def measure_tree(src, repeats):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    child = subprocess.run(
        [sys.executable, __file__, "--in-process", "--repeats", str(repeats)],
        env=env, capture_output=True, text=True, check=True)
    record = json.loads(child.stdout)
    record["import_wallscale_cli"] = cold_start("import wallscale.cli", env,
                                                repeats)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tree", action="append", default=[],
                        metavar="NAME=SRC")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.in_process:
        print(json.dumps(in_process(args.repeats)))
        return
    if args.out is None or not args.tree:
        parser.error("--out and at least one --tree are required")

    trees = {}
    for spec in args.tree:
        name, _, src = spec.partition("=")
        trees[name] = measure_tree(src, args.repeats)
        t = trees[name]
        print(f"{name:8s} envelope_at {t['envelope_at_s'] * 1e6:8.2f} us  "
              f"envelope_table {t['envelope_table_5_10_50_s'] * 1e3:7.3f} ms  "
              f"import wallscale.cli "
              f"{t['import_wallscale_cli']['wall_s']:.3f} s "
              f"{t['import_wallscale_cli']['maxrss_mb']:.1f} MB")

    record = {
        "what": "envelope touch point and cold CLI import, best-of-N "
                "perf_counter seconds and child ru_maxrss",
        "command": "python3 benchmarks/envelope_timing.py --tree NAME=SRC ...",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "trees": trees,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
