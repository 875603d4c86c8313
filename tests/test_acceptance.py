"""Acceptance gate: one test per shipped claim, each printing a pass/fail
line at its pinned tolerance.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they are produced."""

import contextlib
import math

import numpy as np
import pytest

from wallscale import (AnalyzeOptions, COLLAPSED, SHIFTED_BELOW, SynthSpec,
                       analyze, analyze_profile, build_universal_series,
                       classify_shift, envelope_at, envelope_line_fit,
                       fit_broken_line, generate, load_profile, psi_transform,
                       save_profile, scaling_law_phi)
from wallscale.reference import KNOWN_PRINT_DISCREPANCIES, check_all


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_table_oracle():
    """Every published row is reproduced from (A, alpha) alone at the
    stated tolerances; the six flagged print artifacts must at least be
    feasible as roundoff of unrounded fit values."""
    with criterion(1, "table oracle"):
        checks = check_all()
        strict = [c for c in checks if not c.flagged]
        assert len(strict) >= 40
        for c in strict:
            assert c.d_ln_re1 <= 0.01, c.row.label
            assert c.d_ln_re2 <= 0.015, c.row.label
            assert c.d_ln_re_mean <= 0.01, c.row.label
            assert c.d_ratio <= 0.01, c.row.label
        for c in checks:
            if c.flagged:
                assert c.row.label in KNOWN_PRINT_DISCREPANCIES
                assert c.roundoff_ok, c.row.label


def test_criterion_2_consistency_calibration():
    """Exactly two weak-turbulence rows exceed the 3% relative
    discrepancy between the two Reynolds estimates."""
    with criterion(2, "consistency calibration"):
        over = {c.row.label: c.rel_discrepancy for c in check_all()
                if c.row.group == 1 and c.rel_discrepancy > 0.03}
        assert set(over) == {"Fig.4(a)", "Fig.4(c)"}
        assert over["Fig.4(a)"] == pytest.approx(0.034, abs=0.001)
        assert over["Fig.4(c)"] == pytest.approx(0.031, abs=0.001)


def test_criterion_3_exact_inverse():
    """The universal transform inverts the scaling law to 1e-10 over
    1000 random (eta, ln Re) pairs."""
    with criterion(3, "exact inverse"):
        rng = np.random.default_rng(2024)
        ln_eta = rng.uniform(1e-6, 15.0, 1000)
        ln_re = rng.uniform(4.0, 20.0, 1000)
        for x, L in zip(ln_eta, ln_re):
            phi = scaling_law_phi(math.exp(x), L)
            assert abs(psi_transform(phi, 3.0 / (2.0 * L)) - x) < 1e-10


def test_criterion_4_fit_round_trip():
    """Generator -> fitter recovers the constants exactly when noiseless,
    and statistically under 1% multiplicative noise."""
    with criterion(4, "fit round trip"):
        rng = np.random.default_rng(77)
        for _ in range(20):
            ln_re = rng.uniform(8.0, 15.0)
            lo = rng.uniform(1.0, 3.0)
            hi = rng.uniform(8.5, 12.0)
            brk = rng.uniform(lo + 2.0, hi - 2.0)
            beta = rng.uniform(0.17, 0.24)
            spec = SynthSpec(ln_re=ln_re, break_ln_eta=brk,
                             ln_eta_range=(lo, hi),
                             n_points=int(rng.integers(24, 48)), beta=beta)
            profile = generate(spec)
            fit = fit_broken_line(profile.eta, profile.phi)
            assert fit.region1.prefactor == pytest.approx(spec.prefactor, abs=1e-9)
            assert fit.region1.exponent == pytest.approx(spec.alpha, abs=1e-9)
            assert fit.region2.exponent == pytest.approx(beta, abs=1e-9)
            k_true = int(np.searchsorted(np.log(profile.eta), brk))
            assert fit.split_index == k_true

        # noisy Monte Carlo: 100 seeded runs, sigma = 0.01, 40 points
        base = SynthSpec(ln_re=12.0, break_ln_eta=7.0,
                         ln_eta_range=(2.0, 12.0), n_points=40,
                         beta=0.2, noise_sigma=0.01)
        k_true = int(np.searchsorted(np.linspace(2.0, 12.0, 40), 7.0))
        alpha_hits = split_hits = 0
        for seed in range(100):
            spec = SynthSpec(ln_re=base.ln_re, break_ln_eta=base.break_ln_eta,
                             ln_eta_range=base.ln_eta_range,
                             n_points=base.n_points, beta=base.beta,
                             noise_sigma=base.noise_sigma, seed=seed)
            profile = generate(spec)
            fit = fit_broken_line(profile.eta, profile.phi)
            if abs(fit.region1.exponent - base.alpha) <= 0.005:
                alpha_hits += 1
            if abs(fit.split_index - k_true) <= 2:
                split_hits += 1
        assert alpha_hits >= 95
        assert split_hits >= 95


def test_criterion_5_envelope_vs_log_law():
    """The family envelope over ln eta in [5, 10] behaves like the
    classical log law with kappa = 0.4, C = 5.1."""
    with criterion(5, "envelope vs log law"):
        line = envelope_line_fit((5.0, 10.0), 50)
        assert 0.36 <= line.kappa <= 0.44
        assert 4.6 <= line.c_offset <= 5.6
        for x in np.linspace(5.0, 10.0, 50):
            phi_env = envelope_at(float(x)).phi_env
            log_law = float(x) / 0.4 + 5.1
            assert abs(phi_env - log_law) / log_law < 0.02
        assert envelope_at(5.0).phi_env == pytest.approx(17.5, abs=0.05)
        assert envelope_at(8.0).phi_env == pytest.approx(24.8, abs=0.05)


def test_criterion_6_shift_diagnostics():
    """Injected parallel shifts are recovered exactly and classified.

    Measured on the generator's own region-I samples with the matching
    exponent; the full pipeline's fitted prefactor absorbs part of a
    shift, so its mean_shift is a biased (though same-sign) estimate."""
    with criterion(6, "shift diagnostics"):
        for s in (0.0, 0.3, 1.0):
            spec = SynthSpec(ln_re=10.69, break_ln_eta=6.5,
                             ln_eta_range=(2.0, 9.5), n_points=36, shift=s)
            profile = generate(spec)
            region1 = np.array([math.log(e) < spec.break_ln_eta
                                for e in profile.eta.tolist()])
            series = build_universal_series(profile.eta[region1],
                                            profile.phi[region1], spec.alpha)
            assert series.mean_shift == pytest.approx(s, abs=1e-6)
            expected = COLLAPSED if s == 0.0 else SHIFTED_BELOW
            assert classify_shift(series) == expected


def test_criterion_7_single_region_degradation():
    """When the generator uses beta = alpha there is no second region and
    the report leaves beta absent, like the dashed table entries."""
    with criterion(7, "single-region degradation"):
        options = AnalyzeOptions(lg_eta_min=0.5)
        for ln_re in (9.0, 10.69, 13.0):
            alpha = 3.0 / (2.0 * ln_re)
            spec = SynthSpec(ln_re=ln_re, break_ln_eta=6.0,
                             ln_eta_range=(2.0, 9.5), n_points=36, beta=alpha)
            report = analyze_profile(generate(spec), options).report
            assert report.beta is None
            assert report.b is None


def test_criterion_8_determinism_and_format(tmp_path):
    """Repeated analyses are byte-identical and the profile format
    round-trips exactly."""
    with criterion(8, "determinism and format"):
        from wallscale.report import emit_plotdata, report_to_text

        spec = SynthSpec(ln_re=10.69, break_ln_eta=6.5,
                         ln_eta_range=(2.0, 9.5), n_points=36,
                         noise_sigma=0.012, seed=31, label="det")
        profile = generate(spec)
        path = tmp_path / "det.dat"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert np.array_equal(loaded.eta, profile.eta)
        assert np.array_equal(loaded.phi, profile.phi)
        assert loaded.metadata == profile.metadata

        options = AnalyzeOptions(lg_eta_min=0.5)
        b1 = analyze(path, options)
        b2 = analyze(path, options)
        assert report_to_text(b1.report) == report_to_text(b2.report)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        emit_plotdata(b1, out1, stem="det")
        emit_plotdata(b2, out2, stem="det")
        for p in sorted(out1.iterdir()):
            assert p.read_bytes() == (out2 / p.name).read_bytes()
