"""Time profile loading, excision and the whole analysis, per source tree.

    python3 benchmarks/profile_timing.py --out BENCH_5.json \
        --tree parent=/path/to/parent/src --tree change=src

The profiles are written once, with numpy and ``repr`` only, so every tree
reads the same bytes: n = 40, 200, 1000 and 4000 samples of a noisy
(sigma = 0.01) power law over ln eta = 1..10, whose last 5 samples form a
flat plateau, so that both excision steps drop samples.  Each
``NAME=SRC`` tree is measured in one child interpreter with
``PYTHONPATH=SRC``; every number is the best of ``--repeats``
``time.perf_counter`` measurements of one call of ``load_profile``,
``select_intermediate`` or ``analyze_profile`` (default options).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIZES = (40, 200, 1000, 4000)


def write_profiles(directory: Path) -> None:
    for n in SIZES:
        rng = np.random.default_rng(n)
        eta = np.exp(np.linspace(1.0, 10.0, n))
        phi = 8.66 * eta ** 0.14 * np.exp(rng.normal(0.0, 0.01, n))
        phi[-5:] = phi[-6]
        rows = "".join(f"{e!r} {p!r}\n" for e, p in zip(eta.tolist(),
                                                        phi.tolist()))
        (directory / f"n{n}.dat").write_text(f"label=n{n}\n" + rows,
                                             encoding="utf-8")


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def in_process(directory: Path, repeats: int):
    """Run inside the child interpreter: time the three calls per size."""
    from wallscale import analyze_profile, load_profile, select_intermediate

    rows = []
    for n in SIZES:
        path = directory / f"n{n}.dat"
        profile = load_profile(path)
        rows.append({
            "n": n,
            "kept": len(select_intermediate(profile)),
            "load_profile_s": best_of(lambda: load_profile(path), repeats),
            "select_intermediate_s": best_of(
                lambda: select_intermediate(profile), repeats),
            "analyze_profile_s": best_of(lambda: analyze_profile(profile),
                                         repeats),
        })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tree", action="append", default=[],
                        metavar="NAME=SRC")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--in-process", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.in_process is not None:
        print(json.dumps(in_process(args.in_process, args.repeats)))
        return
    if args.out is None or not args.tree:
        parser.error("--out and at least one --tree are required")

    trees = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_profiles(Path(tmp))
        for spec in args.tree:
            name, _, src = spec.partition("=")
            env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
            child = subprocess.run(
                [sys.executable, __file__, "--in-process", tmp,
                 "--repeats", str(args.repeats)],
                env=env, capture_output=True, text=True, check=True)
            trees[name] = json.loads(child.stdout)
            for row in trees[name]:
                print(f"{name:8s} n={row['n']:5d}  "
                      f"load {row['load_profile_s'] * 1e3:8.3f} ms  "
                      f"select {row['select_intermediate_s'] * 1e3:7.3f} ms  "
                      f"analyze {row['analyze_profile_s'] * 1e3:8.3f} ms")

    record = {
        "what": "load_profile, select_intermediate and analyze_profile, "
                "best-of-N perf_counter seconds per call",
        "command": "python3 benchmarks/profile_timing.py --tree NAME=SRC ...",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "trees": trees,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
