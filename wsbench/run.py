"""wallscale benchmark: one workload, one seed, one run.

    python3 wsbench/run.py --workload lab_batch --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run is a closed loop with one client: each CLI pass starts
after the previous one ends, and the fresh interpreters used for set-up
timing run one at a time.  See ``wsbench/README.md`` for the workloads and
the definition of every metric.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record goes to ``.wsbench/<workload>-s<seed>-t<trace>/result.json``.
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported, here and in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import gate  # noqa: E402
import passes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("lab_batch", "dns_analyze", "envelope_grid")
# Timed rounds per run: as many as fit in the time, within these limits.
MIN_ROUNDS = 3
MAX_ROUNDS = 40
IMPORTTIME_CHILDREN = 3
# A warm pass costs no interpreter start-up, so a timed round makes more of
# them than cold passes.
WARM_PASSES_PER_ROUND = 2
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "cold_pass_p90_s": "s",
                    "items_per_s_p10": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    return p.parse_args(argv)


def run_child(cmd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


def rounds(seconds: float):
    """Yield once per round of a closed loop that fills ``seconds``.

    A round starts only if, at the median length of the rounds so far, it
    would end within the time, so that a run does not overshoot by a whole
    round; there are at least MIN_ROUNDS and at most MAX_ROUNDS."""
    start = time.perf_counter()
    lengths = []
    while len(lengths) < MAX_ROUNDS:
        elapsed = time.perf_counter() - start
        if len(lengths) >= MIN_ROUNDS and (
                elapsed + statistics.median(lengths) > seconds):
            return
        yield
        lengths.append(time.perf_counter() - start - elapsed)


def percentile(samples, pct: int) -> float:
    """The ``pct``-th percentile, interpolated between order statistics."""
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def timing_summary(samples) -> dict:
    t = tail(samples)
    return {"median": statistics.median(samples),
            "p90": percentile(samples, 90), "n": len(samples),
            "tail_pct": None if t is None else t[0],
            "tail": None if t is None else t[1], "samples": samples}


def describe(name, unit, summary) -> str:
    t = ("tail n/a (fewer than 11 samples)" if summary["tail"] is None
         else f"p{summary['tail_pct']:.0f} {summary['tail']:.6g} {unit}")
    return (f"{name:<15} median {summary['median']:.6g} {unit}  "
            f"p90 {summary['p90']:.6g} {unit}  {t}  n={summary['n']}")


class Run:
    """State of one benchmark run: its corpus, work directory and the
    correctness tally over every pass it makes."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.work = ROOT / ".wsbench" / f"{workload}-s{seed}-t{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.workload = workload
        corpus_dir = self.work / "corpus"
        self.corpus = {
            "lab_batch": lambda: workloads.make_lab(seed, corpus_dir),
            "dns_analyze": lambda: workloads.make_dns(seed, corpus_dir),
            "envelope_grid": lambda: workloads.make_envelope(seed),
        }[workload]()
        self.attempted = 0
        self.failures = []
        self._outs = 0

    def out_dir(self):
        if self.workload == "dns_analyze":
            return None
        self._outs += 1
        return self.work / "out" / f"pass-{self._outs}"

    def check(self, result) -> None:
        attempted, failures = gate.check(self.corpus, result)
        self.attempted += attempted
        self.failures += failures
        if result.out_dir is not None:
            shutil.rmtree(result.out_dir, ignore_errors=True)

    def child_pass(self):
        """Fresh interpreter: (set-up seconds, cold pass result)."""
        out_dir = self.out_dir()
        corpus_dir = self.corpus.directory
        t_spawn = time.monotonic()
        proc = run_child([sys.executable, str(BENCH_DIR / "child.py"),
                          str(ROOT), repr(t_spawn), self.workload,
                          "-" if corpus_dir is None else str(corpus_dir),
                          "-" if out_dir is None else str(out_dir),
                          *self.corpus.args])
        data = json.loads(proc.stdout.splitlines()[-1])
        return data["setup_s"], passes.PassResult.from_json(data["pass"])

    def one_pass(self, cli):
        out_dir = self.out_dir()
        argvs = passes.pass_argvs(self.workload, self.corpus.directory,
                                  self.corpus.args, out_dir)
        return passes.run_pass(cli, argvs, out_dir)

    def finish(self) -> None:
        shutil.rmtree(self.work / "corpus", ignore_errors=True)
        shutil.rmtree(self.work / "out", ignore_errors=True)


def import_program(run: Run):
    """Import wallscale from ``src/`` and run one unmeasured pass.

    A fresh interpreter imports it first, so that byte-code and file caches
    are warm for every measured import, as they are for a user."""
    run_child([sys.executable, "-c", "import wallscale.cli"])
    sys.path.insert(0, str(SRC))
    import wallscale
    import wallscale.cli
    if Path(wallscale.__file__).resolve().parent != SRC / "wallscale":
        raise RuntimeError(f"imported wallscale from {wallscale.__file__}, "
                           f"not from {SRC}")
    run.check(run.one_pass(wallscale.cli))
    return wallscale


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0],
            "seed": seed}


def timed_run(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, with tracing off.

    Cold passes in fresh interpreters alternate with warm passes in this
    process for ``seconds``, so that both sample the same stretch of a
    shared machine's varying speed.  Pass times are reported at their 90th
    percentile: on a shared host the slow speed recurs in every run, while
    the faster spells come and go (see the README).
    """
    wallscale = import_program(run)
    setup, cold, warm = [], [], []
    for _ in rounds(seconds):
        setup_s, result = run.child_pass()
        setup.append(setup_s)
        cold.append(result.seconds)
        run.check(result)
        for _ in range(WARM_PASSES_PER_ROUND):
            result = run.one_pass(wallscale.cli)
            warm.append(result.seconds)
            run.check(result)
    summaries = {"setup_s": timing_summary(setup),
                 "cold_pass_s": timing_summary(cold),
                 "pass_s": timing_summary(warm)}
    metrics = {
        "setup_s": summaries["setup_s"]["median"],
        "cold_pass_p90_s": summaries["cold_pass_s"]["p90"],
        "items_per_s_p10": percentile([run.corpus.items / t for t in warm],
                                      10),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return metrics, summaries


def traced_run(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from a separate traced run.

    Untraced and traced passes alternate for ``seconds``, so that the
    tracing overhead is measured over the same stretch of machine time.
    """
    wallscale = import_program(run)
    imports = [spans.import_times(run_child(
        [sys.executable, "-X", "importtime", "-c", "import wallscale.cli"]
    ).stderr) for _ in range(IMPORTTIME_CHILDREN)]
    tracer = spans.Tracer(wallscale)
    plain, traced, per_pass, recorded = [], [], [], []
    for _ in rounds(seconds):
        result = run.one_pass(wallscale.cli)
        plain.append(result.seconds)
        run.check(result)
        tracer.install()
        try:
            result = run.one_pass(wallscale.cli)
        finally:
            tracer.uninstall()
        taken = tracer.take()
        recorded.append((len(recorded), taken[0]))
        per_pass.append(spans.pass_metrics(taken, result.seconds))
        traced.append(result.seconds)
        run.check(result)
    spans.write_spans(run.work / "spans.jsonl", recorded)

    metrics = {**spans.median_metrics(imports),
               **spans.median_metrics(per_pass)}
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    summaries = {"pass_s_untraced": timing_summary(plain),
                 "pass_s_traced": timing_summary(traced),
                 "per_pass": per_pass}
    return {k: metrics[k] for k in spans.PER_LAYER}, summaries


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wallscale" / "__init__.py").is_file():
        print(f"error: no wallscale sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    run = Run(args.workload, args.seed, args.trace)
    print(f"# wallscale benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# corpus: items={run.corpus.items} sha256={run.corpus.digest}")

    if args.trace:
        metrics, summaries = traced_run(run, args.seconds)
        units = spans.PER_LAYER
        for name, value in metrics.items():
            print(f"{name:<46} {value:.6g} {units[name]}")
    else:
        metrics, summaries = timed_run(run, args.seconds)
        units = END_TO_END_UNITS
        print(describe("setup_s", "s", summaries["setup_s"]))
        print(describe("cold_pass_s", "s", summaries["cold_pass_s"]))
        print(describe("warm_pass_s", "s", summaries["pass_s"]))
        for name, value in metrics.items():
            print(f"{name:<15} {value:.6g} {units[name]}")
        print(f"# {run.corpus.items} items per pass")
    failed = len(run.failures)
    print(f"{'failed_frac':<15} {failed / run.attempted:.6g} 1  "
          f"({failed} of {run.attempted} items)")
    for message in run.failures[:10]:
        print(f"# failed: {message}")
    run.finish()

    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "corpus": {"items": run.corpus.items,
                         "sha256": run.corpus.digest},
              "metrics": reported, "failed_frac": failed / run.attempted,
              "failures": run.failures[:100], "timings": summaries}
    (run.work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
