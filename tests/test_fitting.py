import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wallscale import (DomainError, FitError, fit_broken_line, fit_power_law,
                       fitting, significant_break)
from wallscale.fitting import fit_log_broken_line
from wallscale.synthetic import SynthSpec, generate

from oracle import exhaustive_broken_line, log_columns


def samples_from(ln_eta, phi):
    """(eta, phi) columns with eta = exp(ln eta) taken sample by sample."""
    return (np.array([math.exp(x) for x in ln_eta], dtype=float),
            np.asarray(phi, dtype=float))


def power_samples(a, alpha, ln_eta):
    phi = a * np.exp(alpha * np.asarray(ln_eta))
    return samples_from(ln_eta, phi)


def columns(spec):
    profile = generate(spec)
    return profile.eta, profile.phi


@st.composite
def broken_line_cases(draw):
    """(eta, phi, min_seg) for noiseless single-line, constant-phi,
    noiseless two-line and noisy two-line profiles."""
    n = draw(st.integers(6, 400))
    min_seg = draw(st.integers(3, n // 2))
    kind = draw(st.sampled_from(["line", "constant", "two_lines", "noisy"]))
    lo = draw(st.floats(-1.0, 15.0))
    span = draw(st.floats(0.5, 10.0))
    ln_a = draw(st.floats(0.0, 4.0))
    # rounding-level slopes leave the exact RSS at its rounding floor
    alpha = draw(st.floats(-0.5, 0.5) | st.sampled_from([1e-16, -1e-15, 1e-14]))
    beta = draw(st.floats(-0.5, 0.5))
    brk = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(0.2, 1.0, n) if draw(st.booleans()) else np.ones(n)
    ln_eta = lo + span * np.cumsum(gaps) / gaps.sum()
    if kind == "constant":
        ln_phi = np.full(n, ln_a)
    elif kind == "line":
        ln_phi = ln_a + alpha * (ln_eta - lo)
    else:
        x_brk = lo + brk * span
        ln_phi = np.where(ln_eta < x_brk, ln_a + alpha * (ln_eta - lo),
                          ln_a + alpha * (x_brk - lo) + beta * (ln_eta - x_brk))
        if kind == "noisy":
            sigma = draw(st.sampled_from([1e-6, 1e-4, 1e-2, 0.1]))
            ln_phi = ln_phi + rng.normal(0.0, sigma, n)
    return (*samples_from(ln_eta, np.exp(ln_phi)), min_seg)


class TestFitPowerLaw:
    def test_exact_recovery(self):
        ln_eta = np.linspace(2.0, 8.0, 15)
        ln_phi = math.log(8.66) + 0.14 * ln_eta
        seg = fit_power_law(ln_eta, ln_phi)
        assert fit_power_law(ln_eta.tolist(), ln_phi.tolist()) == seg
        assert seg.exponent == pytest.approx(0.14, abs=1e-12)
        assert seg.prefactor == pytest.approx(8.66, rel=1e-12)
        assert seg.rss == pytest.approx(0.0, abs=1e-20)
        assert seg.stderr_exponent == pytest.approx(0.0, abs=1e-10)
        assert seg.n_points == 15
        assert seg.ln_eta_range == (2.0, 8.0)

    def test_matches_polyfit_oracle(self):
        rng = np.random.default_rng(5)
        ln_eta = np.linspace(2.0, 8.0, 30)
        phi = 9.1 * np.exp(0.129 * ln_eta) * np.exp(rng.normal(0, 0.02, 30))
        seg = fit_power_law(ln_eta, np.log(phi))
        slope, intercept = np.polyfit(ln_eta, np.log(phi), 1)
        assert seg.exponent == pytest.approx(slope, rel=1e-10)
        assert seg.prefactor == pytest.approx(math.exp(intercept), rel=1e-10)

    def test_stderr_matches_textbook_formula(self):
        rng = np.random.default_rng(9)
        ln_eta = np.linspace(1.0, 6.0, 25)
        phi = 8.0 * np.exp(0.15 * ln_eta) * np.exp(rng.normal(0, 0.03, 25))
        y = np.log(phi)
        seg = fit_power_law(ln_eta, y)
        slope, intercept = np.polyfit(ln_eta, y, 1)
        resid = y - (slope * ln_eta + intercept)
        rss = float(resid @ resid)
        sxx = float(np.sum((ln_eta - ln_eta.mean()) ** 2))
        assert seg.rss == pytest.approx(rss, rel=1e-10)
        assert seg.stderr_exponent == pytest.approx(
            math.sqrt(rss / (25 - 2) / sxx), rel=1e-10)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_power_law([1.0, 2.0], [2.2, 2.3])

    @pytest.mark.parametrize("slope", [-60.0, 60.0])
    def test_prefactor_outside_float_range(self, slope):
        # ln K = ln phi - slope * ln eta is about 842 or -838 at ln eta 14:
        # exp overflows, or underflows to 0.0, whose log the break
        # position of fit_broken_line needs.
        ln_eta = np.array([14.0, 14.01, 14.02])
        with pytest.raises(FitError, match="float range"):
            fit_power_law(ln_eta, 2.0 + slope * (ln_eta - 14.0))

    def test_broken_line_prefactor_outside_float_range(self):
        ln_eta = 14.0 + 0.01 * np.arange(8)
        points = samples_from(ln_eta, np.exp(2.0 + 60.0 * (ln_eta - 14.0)))
        with pytest.raises(FitError, match="float range"):
            fit_broken_line(*points, 3)


class TestFitBrokenLine:
    def test_noiseless_exact(self):
        spec = SynthSpec(ln_re=10.69, break_ln_eta=6.0,
                         ln_eta_range=(2.0, 9.0), n_points=30)
        profile = generate(spec)
        fit = fit_broken_line(profile.eta, profile.phi)
        assert fit.region1.exponent == pytest.approx(spec.alpha, abs=1e-9)
        assert fit.region1.prefactor == pytest.approx(spec.prefactor, rel=1e-9)
        assert fit.region2.exponent == pytest.approx(spec.beta, abs=1e-9)
        assert fit.total_rss == pytest.approx(0.0, abs=1e-18)
        # split falls at the first sample past the break
        ln_eta = np.log(profile.eta)
        assert fit.split_index == int(np.searchsorted(ln_eta, 6.0))
        assert fit.break_ln_eta == pytest.approx(6.0, abs=1e-6)

    def test_matches_exhaustive_oracle(self):
        spec = SynthSpec(ln_re=10.0, break_ln_eta=5.5,
                         ln_eta_range=(2.0, 9.0), n_points=25,
                         noise_sigma=0.02, seed=123)
        points = columns(spec)
        assert fit_broken_line(*points) == exhaustive_broken_line(*points)

    def test_matches_exhaustive_on_criterion_4_ensembles(self):
        # the noiseless and noisy ensembles of acceptance criterion 4
        rng = np.random.default_rng(77)
        specs = []
        for _ in range(20):
            ln_re = rng.uniform(8.0, 15.0)
            lo = rng.uniform(1.0, 3.0)
            hi = rng.uniform(8.5, 12.0)
            brk = rng.uniform(lo + 2.0, hi - 2.0)
            beta = rng.uniform(0.17, 0.24)
            specs.append(SynthSpec(ln_re=ln_re, break_ln_eta=brk,
                                   ln_eta_range=(lo, hi),
                                   n_points=int(rng.integers(24, 48)),
                                   beta=beta))
        specs += [SynthSpec(ln_re=12.0, break_ln_eta=7.0,
                            ln_eta_range=(2.0, 12.0), n_points=40, beta=0.2,
                            noise_sigma=0.01, seed=seed)
                  for seed in range(100)]
        for spec in specs:
            points = columns(spec)
            fit = fit_broken_line(*points)
            ref = exhaustive_broken_line(*points)
            assert fit.split_index == ref.split_index
            assert fit.total_rss == ref.total_rss

    @pytest.mark.parametrize("slope", [1e-16, 3e-16, 1e-15, -2e-15, 1e-14])
    @pytest.mark.parametrize("n", [8, 20, 40])
    def test_rounding_level_slope_matches_exhaustive(self, slope, n):
        # ln phi differs between samples only in its last bits, so every
        # split's exact RSS is rounding noise and the winner depends on it
        points = power_samples(math.e, slope, np.linspace(0.125, 0.11 * n, n))
        assert fit_broken_line(*points) == exhaustive_broken_line(*points)

    @pytest.mark.parametrize("n", [200, 4000])
    def test_single_law_fits_only_the_winner(self, monkeypatch, n):
        # On a noiseless single power law every split's total RSS is
        # rounding noise, far inside the tie band: every split ties, the
        # one nearest the middle wins, and only its two segments are
        # fitted, so the fit stays linear in n.
        points = power_samples(8.66, 0.14, np.linspace(2.0, 9.5, n))
        reference = exhaustive_broken_line(*points)
        real, calls = fitting.fit_power_law, []
        monkeypatch.setattr(fitting, "fit_power_law",
                            lambda *args: calls.append(args) or real(*args))
        fit = fit_broken_line(*points)
        assert fit == reference
        assert len(calls) == 2
        # evenly spaced, so the boundary before sample n/2 is the middle
        assert fit.split_index == n // 2

    @settings(max_examples=60, deadline=None)
    @given(broken_line_cases())
    def test_score_error_within_half_the_band(self, case):
        # the tie band is twice a bound on how far each split's O(n) score
        # lies from the exact total RSS of its two refits
        eta, phi, min_seg = case
        ln_eta, ln_phi = log_columns(eta, phi)
        ks, scores, delta = fitting._split_scores(ln_eta, ln_phi, min_seg)
        exact = [fitting._ols(ln_eta[:k], ln_phi[:k])[2]
                 + fitting._ols(ln_eta[k:], ln_phi[k:])[2] for k in ks]
        assert np.max(np.abs(scores - exact)) <= delta / 2

    @pytest.mark.parametrize("equal, min_seg", [
        (slice(0, 3), 3), (slice(7, 10), 3), (slice(0, 4), 4),
        (slice(6, 10), 4)], ids=["first-3", "last-3", "first-4", "last-4"])
    def test_degenerate_end_segment(self, equal, min_seg):
        ln_eta = np.linspace(1.0, 5.0, 10)
        ln_eta[equal] = ln_eta[equal.start]
        points = samples_from(ln_eta, np.exp(2.0 + 0.14 * ln_eta))
        message = "^degenerate fit: all ln eta values are equal$"
        with pytest.raises(FitError, match=message):
            fit_log_broken_line(*log_columns(*points), min_seg)
        with pytest.raises(FitError, match=message):
            exhaustive_broken_line(*points, min_seg)

    def test_equal_values_short_of_an_end_segment(self):
        # three equal first values are no segment when min_seg is 4
        ln_eta = np.linspace(1.0, 5.0, 10)
        ln_eta[:3] = ln_eta[0]
        points = samples_from(ln_eta, np.exp(2.0 + 0.14 * ln_eta))
        assert (fit_broken_line(*points, min_seg=4)
                == exhaustive_broken_line(*points, min_seg=4))

    @settings(max_examples=60, deadline=None)
    @given(broken_line_cases())
    def test_property_matches_exhaustive(self, case):
        eta, phi, min_seg = case
        try:
            reference = exhaustive_broken_line(eta, phi, min_seg)
        except FitError:
            # a short noisy segment far from ln eta = 0 can have a fitted
            # prefactor beyond the float range, which fit_power_law raises
            # as FitError; the reference then has no answer to compare with
            assume(False)
        assert (dataclasses.asdict(fit_broken_line(eta, phi, min_seg))
                == dataclasses.asdict(reference))
        handed = fit_log_broken_line(*log_columns(eta, phi), min_seg)
        assert dataclasses.asdict(handed) == dataclasses.asdict(reference)

    def test_break_is_line_intersection(self):
        spec = SynthSpec(ln_re=12.0, break_ln_eta=6.5,
                         ln_eta_range=(2.0, 10.0), n_points=40,
                         noise_sigma=0.01, seed=7)
        fit = fit_broken_line(*columns(spec))
        xi = ((math.log(fit.region1.prefactor) - math.log(fit.region2.prefactor))
              / (fit.region2.exponent - fit.region1.exponent))
        assert fit.break_ln_eta == pytest.approx(xi, rel=1e-12)

    def test_min_seg_respected(self):
        spec = SynthSpec(ln_re=10.0, break_ln_eta=5.0,
                         ln_eta_range=(2.0, 9.0), n_points=20,
                         noise_sigma=0.05, seed=1)
        eta, phi = columns(spec)
        for min_seg in (3, 5, 8):
            fit = fit_broken_line(eta, phi, min_seg=min_seg)
            assert min_seg <= fit.split_index <= len(eta) - min_seg

    def test_monte_carlo_split_accuracy(self):
        # exponents 0.15 / 0.20, sigma 0.01: split within +-2 of truth
        # in at least 95 of 100 seeded runs
        spec0 = SynthSpec(ln_re=10.0, break_ln_eta=7.0,
                          ln_eta_range=(1.5, 12.5), n_points=40,
                          beta=0.20, noise_sigma=0.01)
        ln_eta = np.linspace(1.5, 12.5, 40)
        k_true = int(np.searchsorted(ln_eta, 7.0))
        hits = 0
        for seed in range(100):
            profile = generate(SynthSpec(
                ln_re=spec0.ln_re, break_ln_eta=spec0.break_ln_eta,
                ln_eta_range=spec0.ln_eta_range, n_points=spec0.n_points,
                beta=spec0.beta, noise_sigma=spec0.noise_sigma, seed=seed))
            fit = fit_broken_line(profile.eta, profile.phi)
            if abs(fit.split_index - k_true) <= 2:
                hits += 1
        assert hits >= 95

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_broken_line(*power_samples(8.0, 0.14, np.linspace(1, 5, 5)))

    def test_min_seg_floor(self):
        pts = power_samples(8.0, 0.14, np.linspace(1, 5, 10))
        with pytest.raises(FitError):
            fit_broken_line(*pts, min_seg=2)


TEN, NINE = np.arange(1, 11.), np.arange(1, 10.)


@pytest.mark.parametrize("call, message", [
    (lambda: fit_power_law(TEN, NINE),
     "ln_eta and ln_phi differ in length: 10 and 9"),
    (lambda: fit_broken_line(TEN, NINE),
     "eta and phi differ in length: 10 and 9"),
    (lambda: fit_log_broken_line(NINE, TEN),
     "ln_eta and ln_phi differ in length: 9 and 10"),
    (lambda: fit_log_broken_line(TEN, NINE),
     "ln_eta and ln_phi differ in length: 10 and 9"),
], ids=["power_law", "broken_line", "ln_eta", "ln_phi"])
def test_length_mismatch_is_fit_error(call, message):
    with pytest.raises(FitError) as info:
        call()
    assert str(info.value) == message


TEN_WITH = {value: np.where(TEN == 4, value, TEN)
            for value in (np.inf, -np.inf, np.nan)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, error, message", [
    (lambda: fit_broken_line(TEN_WITH[np.inf], TEN), DomainError,
     "eta must be finite, got inf"),
    (lambda: fit_broken_line(TEN, TEN_WITH[np.inf]), DomainError,
     "phi must be finite, got inf"),
    (lambda: fit_power_law(TEN_WITH[-np.inf], TEN), FitError,
     "ln_eta must be finite, got -inf"),
    (lambda: fit_power_law(TEN, TEN_WITH[np.inf]), FitError,
     "ln_phi must be finite, got inf"),
    (lambda: fit_log_broken_line(TEN_WITH[np.nan], TEN), FitError,
     "ln_eta must be finite, got nan"),
    (lambda: fit_log_broken_line(TEN, TEN_WITH[np.nan]), FitError,
     "ln_phi must be finite, got nan"),
    (lambda: fit_log_broken_line(TEN, TEN_WITH[np.inf]), FitError,
     "ln_phi must be finite, got inf"),
], ids=["broken_line.eta", "broken_line.phi", "power_law.ln_eta",
        "power_law.ln_phi", "log_broken_line.ln_eta",
        "log_broken_line.ln_phi", "log_broken_line.ln_phi_inf"])
def test_nonfinite_column_is_named_without_warning(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("eta, phi, message", [
    (TEN - 1, TEN, "eta must be positive, got 0.0"),
    (TEN, TEN - 2, "phi must be positive, got -1.0"),
    (TEN, TEN - 1, "phi must be positive, got 0.0"),
    (np.where(TEN == 4, np.nan, TEN), TEN, "eta must be positive, got nan"),
    # eta is checked before phi
    (TEN - 1, TEN - 2, "eta must be positive, got 0.0"),
], ids=["eta_zero", "phi_negative", "phi_zero", "eta_nan", "eta_first"])
def test_nonpositive_column_is_domain_error(eta, phi, message):
    with pytest.raises(DomainError) as info:
        fit_broken_line(eta, phi)
    assert str(info.value) == message


class TestSignificantBreak:
    def test_clear_break(self):
        spec = SynthSpec(ln_re=10.0, break_ln_eta=6.0,
                         ln_eta_range=(2.0, 10.0), n_points=40,
                         beta=0.5, noise_sigma=0.01, seed=2)
        fit = fit_broken_line(*columns(spec))
        assert significant_break(fit)

    def test_single_power_law_no_break(self):
        # noiseless single power law: exponents agree to machine noise
        pts = power_samples(8.66, 0.14, np.linspace(2.0, 9.0, 30))
        fit = fit_broken_line(*pts)
        assert not significant_break(fit)

    def test_noisy_single_power_law_no_break(self):
        rng = np.random.default_rng(17)
        ln_eta = np.linspace(2.0, 9.0, 40)
        phi = 8.66 * np.exp(0.14 * ln_eta) * np.exp(rng.normal(0, 0.01, 40))
        fit = fit_broken_line(*samples_from(ln_eta, phi))
        assert not significant_break(fit)

    def test_z_parameter(self):
        spec = SynthSpec(ln_re=10.0, break_ln_eta=6.0,
                         ln_eta_range=(2.0, 10.0), n_points=40,
                         beta=0.5, noise_sigma=0.01, seed=2)
        fit = fit_broken_line(*columns(spec))
        assert significant_break(fit, z=2.0)
        assert not significant_break(fit, z=1e9)
