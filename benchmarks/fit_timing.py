"""Time fit_broken_line against the exhaustive reference kept in the tests.

    PYTHONPATH=src python3 benchmarks/fit_timing.py --out BENCH_3.json \
        [--traced-parent P.json --traced-change C.json]

Profiles are seeded noisy two-segment power laws (sigma = 0.01) of
n = 40, 200, 1000 and 4000 samples.  Each timing is the best of
``--repeats`` ``time.perf_counter`` measurements of one fit.  The optional
``--traced-*`` arguments are ``result.json`` files of traced
``wsbench/run.py --workload dns_analyze --trace 1`` runs; their
``fitting.fit_power_law.calls_per_fit`` is copied into the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from test_fitting import _exhaustive_broken_line  # noqa: E402
from wallscale import SynthSpec, fit_broken_line, generate  # noqa: E402

SIZES = (40, 200, 1000, 4000)


def best_of(fn, columns, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*columns)
        times.append(time.perf_counter() - start)
    return min(times)


def traced_calls_per_fit(path):
    metrics = json.loads(Path(path).read_text())["metrics"]
    return metrics["fitting.fit_power_law.calls_per_fit"]["value"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--traced-parent", type=Path)
    parser.add_argument("--traced-change", type=Path)
    args = parser.parse_args(argv)

    rows = []
    for n in SIZES:
        profile = generate(SynthSpec(ln_re=12.0, break_ln_eta=7.0,
                                     ln_eta_range=(2.0, 12.0), n_points=n,
                                     noise_sigma=0.01, seed=n))
        columns = (profile.eta, profile.phi)
        if fit_broken_line(*columns) != _exhaustive_broken_line(*columns):
            raise SystemExit(f"n={n}: fit differs from the exhaustive reference")
        # the reference is quadratic: three runs are enough from n = 1000 on
        ref_repeats = args.repeats if n < 1000 else min(args.repeats, 3)
        reference = best_of(_exhaustive_broken_line, columns, ref_repeats)
        prefix_sums = best_of(fit_broken_line, columns, args.repeats)
        rows.append({"n": n, "exhaustive_s": reference,
                     "prefix_sums_s": prefix_sums,
                     "speedup": reference / prefix_sums})
        print(f"n={n:5d}  exhaustive {reference * 1e3:10.3f} ms  "
              f"prefix sums {prefix_sums * 1e3:8.3f} ms  "
              f"x{reference / prefix_sums:.0f}")

    record = {
        "what": "fit_broken_line split search, best-of-N perf_counter seconds",
        "command": "PYTHONPATH=src python3 benchmarks/fit_timing.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "fit_broken_line": rows,
    }
    if args.traced_parent and args.traced_change:
        record["dns_analyze_traced"] = {
            "metric": "fitting.fit_power_law.calls_per_fit",
            "command": "python3 wsbench/run.py --workload dns_analyze "
                       "--seed 7 --seconds 40 --trace 1",
            "parent": traced_calls_per_fit(args.traced_parent),
            "change": traced_calls_per_fit(args.traced_change),
        }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
