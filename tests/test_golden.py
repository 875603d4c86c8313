"""Byte identity of the CLI's output against a committed record.

A small corpus is built from ``SynthSpec`` in a temporary directory, and
every verb runs on it through ``cli.main``.  The SHA-256 of stdout,
stderr, the exit code and every written file must equal
``tests/golden.json``; on a mismatch the test names the first line that
differs.  The temporary directory's path is replaced by ``<tmp>`` in
stdout and stderr, so the record does not depend on where it ran.

The same cases run again in a child interpreter in which numpy may not
use its AVX512 loops, as on a host without them, and must give the same
bytes; the test is skipped where numpy finds no AVX512 (``X86_V4``) to
turn off.

Only a change that alters output bytes on purpose regenerates the record:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import wallscale
from wallscale import SynthSpec, generate, save_profile
from wallscale.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

BASE = dict(ln_re=10.69, break_ln_eta=6.5, ln_eta_range=(2.0, 9.5),
            n_points=36)

CASES = (
    ("analyze", ["analyze", "{corpus}/noisy.dat"]),
    ("analyze_out_dir", ["analyze", "{corpus}/comma.dat",
                         "--out-dir", "{out}"]),
    ("analyze_raw", ["analyze", "{tmp}/raw.dat", "--format", "raw",
                     "--out-dir", "{out}"]),
    ("analyze_bad", ["analyze", "{corpus}/bad.dat"]),
    ("batch", ["batch", "{corpus}", "--out-dir", "{out}"]),
    ("batch_lnre1", ["batch", "{corpus}", "--alpha-source", "lnRe1",
                     "--lg-eta-min", "1.0", "--out-dir", "{out}"]),
    ("envelope", ["envelope", "--n-points", "20"]),
    ("envelope_out_dir", ["envelope", "--ln-eta-min", "3",
                          "--ln-eta-max", "12", "--out-dir", "{out}"]),
    ("oracle", ["oracle"]),
    ("synth", ["synth", "{tmp}/recipe.spec", "-o", "{out}/synth.dat"]),
)


def _write_rows(path, first, second, sep, head=""):
    rows = "".join(f"{a!r}{sep}{b!r}\n" for a, b in
                   zip(first.tolist(), second.tolist()))
    path.write_text(head + rows, encoding="utf-8")


def build_corpus(tmp: Path) -> None:
    corpus = tmp / "corpus"
    corpus.mkdir()
    for name, extra in (("noiseless", {}),
                        ("noisy", dict(noise_sigma=0.01, seed=3,
                                       n_points=120)),
                        ("shifted", dict(shift=0.4)),
                        ("plateau", dict(plateau_points=5, noise_sigma=0.003,
                                         seed=11))):
        save_profile(generate(SynthSpec(**{**BASE, **extra}, label=name)),
                     corpus / f"{name}.dat")
    comma = generate(SynthSpec(**dict(BASE, ln_re=12.0), beta=0.25))
    _write_rows(corpus / "comma.dat", comma.eta, comma.phi,
                ", ", head="# comma separated\nlabel=comma\nre_theta=5000\n")
    mixed = generate(SynthSpec(**BASE, noise_sigma=0.01, seed=4))
    rows = [f"{e!r}{sep}{p!r}" for e, p, sep in
            zip(mixed.eta.tolist(), mixed.phi.tolist(), ("\t", ",") * 18)]
    rows[10:10] = ["", "  # a comment between rows"]
    (corpus / "mixed.dat").write_text(
        "\n".join(rows) + "\nlabel = mixed\nre_theta=2.5e3\n",
        encoding="utf-8")
    (corpus / "bad.dat").write_text("label=bad\n10.0 20.0\n30.0 x\n",
                                    encoding="utf-8")
    u_star, nu = 0.5, 1.5e-5
    wall = generate(SynthSpec(**BASE, noise_sigma=0.005, seed=7))
    _write_rows(tmp / "raw.dat", wall.eta * nu / u_star, wall.phi * u_star,
                "\t", head=f"label=raw\nu_star={u_star!r}\nnu={nu!r}\n")
    (tmp / "recipe.spec").write_text(
        "ln_re=9.5\nbreak_ln_eta=6.0\nln_eta_min=1.0\nln_eta_max=9.0\n"
        "n_points=60\nnoise_sigma=0.02\nplateau_points=4\nseed=5\n"
        "label=recipe\n", encoding="utf-8")


def run_cases(tmp: Path) -> dict:
    """Build the corpus in ``tmp``, run every case, and return
    ``{case: {"exit": code, output name: text}}``."""
    build_corpus(tmp)
    results = {}
    for name, template in CASES:
        out = tmp / f"out_{name}"
        out.mkdir()
        argv = [a.format(tmp=tmp, corpus=tmp / "corpus", out=out)
                for a in template]
        stdout, stderr = StringIO(), StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        outputs = {"stdout": stdout.getvalue().replace(str(tmp), "<tmp>"),
                   "stderr": stderr.getvalue().replace(str(tmp), "<tmp>")}
        for path in sorted(out.rglob("*")):
            outputs[f"file {path.relative_to(out)}"] = (
                path.read_bytes().decode("utf-8"))
        results[name] = {"exit": code, **outputs}
    return results


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(results: dict) -> dict:
    """The golden form of ``run_cases``' results: each output's SHA-256
    plus a short digest of each of its lines, so that a mismatch can be
    traced to its first differing line."""
    return {case: {key: value if key == "exit" else
                   {"sha256": _digest(value),
                    "lines": " ".join(_digest(line)[:8]
                                      for line in value.splitlines())}
                   for key, value in outputs.items()}
            for case, outputs in results.items()}


def _difference(what: str, text: str, want: dict) -> str:
    lines, digests = text.splitlines(), want["lines"].split()
    for number, (line, digest) in enumerate(zip(lines, digests), 1):
        if _digest(line)[:8] != digest:
            return f"{what}: first difference at line {number}: {line!r}"
    return f"{what}: {len(lines)} lines, expected {len(digests)}"


def check(got: dict) -> None:
    """Assert that ``run_cases``' results match ``tests/golden.json``."""
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    problems = []
    for case, outputs in got.items():
        expected = want[case]
        if outputs["exit"] != expected["exit"]:
            problems.append(f"{case}: exit {outputs['exit']}, "
                            f"expected {expected['exit']}")
        for key in sorted(set(outputs) ^ set(expected)):
            problems.append(f"{case}: {key} only in "
                            f"{'golden' if key in expected else 'this run'}")
        for key in sorted((set(outputs) & set(expected)) - {"exit"}):
            if _digest(outputs[key]) != expected[key]["sha256"]:
                problems.append(_difference(f"{case}: {key}", outputs[key],
                                            expected[key]))
    assert not problems, "\n".join(problems)


def test_output_bytes_match_golden(tmp_path):
    check(run_cases(tmp_path))


def _has_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V4"))


@pytest.mark.skipif(not _has_avx512(),
                    reason="numpy finds no X86_V4 (AVX512) to turn off")
def test_output_bytes_without_avx512(tmp_path):
    env = dict(os.environ,
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(wallscale.__file__).parents[1]),
                   os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, __file__, "--results",
                            str(tmp_path)], env=env, capture_output=True,
                           text=True, check=True)
    out = json.loads(child.stdout)
    assert not out["avx512"]
    check(out["results"])


if __name__ == "__main__" and sys.argv[1:2] == ["--results"]:
    # Whether numpy uses AVX512, and the raw results of every case run in
    # the directory given, as JSON.
    print(json.dumps({"avx512": _has_avx512(),
                      "results": run_cases(Path(sys.argv[2]))}))
elif __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = record(run_cases(Path(tmp)))
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(results)} cases)", file=sys.stderr)
