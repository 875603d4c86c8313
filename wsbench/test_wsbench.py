"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q wsbench

Each workload runs one pass through the CLI and must pass the correctness
gate; perturbing one reference value must make exactly one item fail.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import gate  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import wallscale  # noqa: E402
import wallscale.cli  # noqa: E402

TINY_ENVELOPE = ("--ln-eta-min", "2", "--ln-eta-max", "30", "--n-points", "40")


def one_pass(corpus, out_dir):
    argvs = passes.pass_argvs(corpus.workload, corpus.directory, corpus.args,
                              out_dir)
    return passes.run_pass(wallscale.cli, argvs, out_dir)


def with_truth(corpus, index, **changes):
    truths = list(corpus.truths)
    truths[index] = dataclasses.replace(truths[index], **changes)
    return dataclasses.replace(corpus, truths=tuple(truths))


@pytest.fixture
def lab(tmp_path):
    corpus = workloads.make_lab(5, tmp_path / "corpus", count=12)
    return corpus, one_pass(corpus, tmp_path / "out")


@pytest.fixture
def dns(tmp_path):
    corpus = workloads.make_dns(5, tmp_path / "corpus", sizes=(150, 200))
    return corpus, one_pass(corpus, None)


@pytest.fixture
def envelope(tmp_path):
    corpus = workloads.make_envelope(5, TINY_ENVELOPE)
    return corpus, one_pass(corpus, tmp_path / "out")


def test_generator_is_seeded(tmp_path):
    a = workloads.make_lab(9, tmp_path / "a", count=6)
    b = workloads.make_lab(9, tmp_path / "b", count=6)
    c = workloads.make_lab(10, tmp_path / "c", count=6)
    assert a.digest == b.digest and a.truths == b.truths
    assert a.digest != c.digest
    assert len({t.label for t in a.truths}) == 6


def test_lab_gate(lab):
    corpus, result = lab
    assert gate.check(corpus, result) == (12, [])
    noiseless = next(i for i, t in enumerate(corpus.truths)
                     if t.noise_sigma == 0.0)
    truth = corpus.truths[noiseless]
    attempted, failures = gate.check(
        with_truth(corpus, noiseless, ln_re=truth.ln_re + 0.01), result)
    assert attempted == 12
    assert len(failures) == 1 and truth.label in failures[0]


def test_lab_gate_catches_a_missing_file(lab):
    corpus, result = lab
    stem = corpus.truths[0].stem
    (result.out_dir / f"{stem}_shift.dat").unlink()
    attempted, failures = gate.check(corpus, result)
    assert len(failures) == 1 and stem in failures[0]


def test_lab_gate_fails_every_profile_of_an_empty_batch(lab, tmp_path):
    corpus, result = lab
    call = dataclasses.replace(result.calls[0], code=13)
    empty = passes.PassResult((call,), tmp_path / "never-made", result.seconds)
    attempted, failures = gate.check(corpus, empty)
    assert attempted == 12 and len(failures) == 12


def test_dns_gate(dns):
    corpus, result = dns
    assert gate.check(corpus, result) == (2, [])
    truth = corpus.truths[1]
    _, failures = gate.check(
        with_truth(corpus, 1, beta=truth.beta + 0.01), result)
    assert len(failures) == 1 and truth.label in failures[0]


def test_envelope_gate(envelope, monkeypatch):
    corpus, result = envelope
    assert gate.check(corpus, result) == (40, [])
    exact = gate.touch_point

    def perturbed(x):
        phi, ln_re = exact(x)
        phi = np.array(phi, copy=True)
        phi[7] *= 1.0 + 1e-6
        return phi, ln_re

    monkeypatch.setattr(gate, "touch_point", perturbed)
    attempted, failures = gate.check(corpus, result)
    assert attempted == 40 and len(failures) == 1


@pytest.mark.parametrize("workload", ["lab_batch", "dns_analyze",
                                      "envelope_grid"])
def test_traced_pass(workload, tmp_path):
    corpus = {
        "lab_batch": lambda: workloads.make_lab(2, tmp_path / "c", count=4),
        "dns_analyze": lambda: workloads.make_dns(2, tmp_path / "c",
                                                  sizes=(120,)),
        "envelope_grid": lambda: workloads.make_envelope(2, TINY_ENVELOPE),
    }[workload]()
    out_dir = None if workload == "dns_analyze" else tmp_path / "out"
    tracer = spans.Tracer(wallscale)
    tracer.install()
    try:
        result = one_pass(corpus, out_dir)
    finally:
        tracer.uninstall()
    assert wallscale.cli.main.__module__ == "wallscale.cli"
    taken = tracer.take()
    m = spans.pass_metrics(taken, result.seconds)
    assert gate.check(corpus, result)[1] == []
    assert 0.0 <= m["trace.unattributed_frac"] <= 0.1
    if workload == "envelope_grid":
        assert m["fitting.fit_broken_line.calls"] == 0
        assert m["scaling.envelope_at.calls"] == 2 * 40
    else:
        n = len(corpus.truths)
        assert m["profiles.load_profile.calls"] == n
        assert m["fitting.fit_broken_line.calls"] == n
        assert m["fitting.fit_power_law.calls_per_fit"] > 2
    if workload == "dns_analyze":
        assert m["scaling.envelope_at.calls"] == 0
    if workload == "lab_batch":
        assert m["report.emit_plotdata.files_written"] == 5 * 4
        assert m["report.envelope_table.distinct_ratio"] == 1 / 4


def test_rounds_stay_within_their_limits():
    assert sum(1 for _ in run.rounds(0.0)) == run.MIN_ROUNDS
    assert sum(1 for _ in run.rounds(1e9)) == run.MAX_ROUNDS


def test_self_time_subtracts_children():
    recorded = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None),
                ("c", 2.0, 3.0, 1, None), ("b", 5.0, 6.0, 0, None)]
    self_s, calls = spans.self_times(recorded)
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_import_times_sum_per_package():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       100 |        100 |   numpy.core\n"
              "import time:       200 |        300 | numpy\n"
              "import time:        50 |         50 |     scipy._lib\n"
              "import time:        70 |        420 | wallscale.cli\n")
    assert spans.import_times(stderr) == pytest.approx(
        {"import.numpy_s": 3e-4, "import.scipy_s": 5e-5,
         "import.wallscale_s": 7e-5})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "wsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "wsbench/run.py", "--workload", "lab_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
