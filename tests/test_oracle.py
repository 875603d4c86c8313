"""The pipeline against ``oracle.analyze``, and the oracle's import contract.

``analyze_profile`` hands each stage's output to the next as columns
(the selected samples and their logarithms, the split index, the
region-I slice, the alpha of the transform).  ``oracle.analyze`` rebuilds
the report and the plot-data texts from the slow references alone, so
one wrong hand-off, such as a shifted ln eta slice given to the series,
shows up as a field or a byte that differs.
"""

import dataclasses
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wallscale
from wallscale import (AnalyzeOptions, PipelineError, ProfileMetadata,
                       VelocityProfile, analyze_profile, emit_plotdata)

import oracle

KINDS = ("noisy_two_law", "single_law", "plateau_tailed", "sublayer_heavy")


@st.composite
def profiles(draw):
    """A profile on the scaling law at a drawn ln Re, of one of four kinds:
    a noisy two-law profile; a noiseless single law; a two-law profile
    whose last samples are pinned to its maximum; or one starting deep in
    the viscous sublayer (phi = eta below eta = 11), so that the cut drops
    most samples at the default lg_eta_min."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(8, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.floats(0.0, 2.0) if kind == "sublayer_heavy"
              else st.floats(3.5, 5.0))
    span = draw(st.floats(3.0, 9.0))
    gaps = rng.uniform(0.2, 1.0, n) if draw(st.booleans()) else np.ones(n)
    ln_eta = lo + span * np.cumsum(gaps) / gaps.sum()
    ln_re = draw(st.floats(7.0, 14.0))
    alpha = 1.5 / ln_re
    ln_phi = math.log(ln_re / oracle.SQRT3 + 2.5) + alpha * ln_eta
    if kind != "single_law":
        brk = ln_eta[0] + draw(st.floats(0.3, 0.8)) * (ln_eta[-1] - ln_eta[0])
        beta = draw(st.floats(0.15, 0.35))
        ln_phi += np.where(ln_eta < brk, 0.0, (beta - alpha) * (ln_eta - brk))
        sigma = draw(st.sampled_from([1e-3, 1e-2, 0.03]))
        ln_phi += rng.normal(0.0, sigma, n)
    eta = [math.exp(x) for x in ln_eta.tolist()]
    phi = [math.exp(y) for y in ln_phi.tolist()]
    if kind == "plateau_tailed":
        m = draw(st.integers(1, n // 3))
        phi[n - m:] = [max(phi)] * m
    elif kind == "sublayer_heavy":
        phi = [e if e < 11.0 else p for e, p in zip(eta, phi)]
    re_theta = draw(st.none() | st.floats(100.0, 1e5))
    return VelocityProfile(eta, phi, ProfileMetadata(label=kind,
                                                     re_theta=re_theta))


OPTIONS = st.builds(
    AnalyzeOptions,
    lg_eta_min=st.sampled_from([0.5, 1.5, 2.0]),
    phi_plateau_tol=st.sampled_from([0.0, 0.002, 0.05]),
    min_seg=st.integers(3, 6),
    consistency_tol=st.sampled_from([0.0, 0.03, 0.5]),
    shift_tol=st.sampled_from([0.0, 0.1, 1.0]),
    alpha_source=st.sampled_from(["mean", "lnRe1"]))


def pipeline(profile, options):
    """The report fields and the plot-data texts that ``analyze_profile``
    and ``emit_plotdata`` write."""
    bundle = analyze_profile(profile, options)
    with tempfile.TemporaryDirectory() as out:
        emit_plotdata(bundle, out, "p")
        texts = {suffix: Path(out, "p" + suffix).read_text(encoding="utf-8")
                 for suffix in ("_loglog.dat", "_universal.dat",
                                "_shift.dat")}
    return dataclasses.asdict(bundle.report), texts


def exact(fields):
    # repr tells -0.0 from 0.0, and a numpy scalar from a float
    return {name: repr(value) for name, value in fields.items()}


@settings(max_examples=60, deadline=None)
@given(profile=profiles(), options=OPTIONS)
def test_pipeline_equals_oracle(profile, options):
    try:
        fields, texts = oracle.analyze(profile, options)
    except PipelineError as exc:
        with pytest.raises(PipelineError) as info:
            pipeline(profile, options)
        assert (info.value.stage, type(info.value.cause)) == \
            (exc.stage, type(exc.cause))
        return
    got_fields, got_texts = pipeline(profile, options)
    assert exact(got_fields) == exact(fields)
    assert got_texts == texts


def test_oracle_imports_without_pytest_or_hypothesis():
    # benchmarks/run.py imports the module in a child that has neither
    src = Path(wallscale.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(Path(__file__).resolve().parent)]))
    probe = ("import sys, oracle; print(sorted({'pytest', '_pytest', "
             "'hypothesis'} & {m.split('.')[0] for m in sys.modules}))")
    child = subprocess.run([sys.executable, "-c", probe], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout == "[]\n"
