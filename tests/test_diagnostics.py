import math

import numpy as np
import pytest

from wallscale import (COLLAPSED, DomainError, SHIFTED_ABOVE, SHIFTED_BELOW,
                       alpha_of_ln_re, build_universal_series, classify_shift,
                       combine_reynolds, ln_re1_from_prefactor,
                       ln_re2_from_exponent, psi_transform, scaling_law_phi)


class TestReynoldsEstimates:
    def test_ln_re1_published_rows(self):
        assert ln_re1_from_prefactor(9.10) == pytest.approx(11.43, abs=0.01)
        assert ln_re1_from_prefactor(8.66) == pytest.approx(10.67, abs=0.01)

    def test_ln_re2_published_rows(self):
        assert ln_re2_from_exponent(0.129) == pytest.approx(11.63, abs=0.015)
        assert ln_re2_from_exponent(0.140) == pytest.approx(10.71, abs=0.015)

    def test_inverses(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            ln_re = rng.uniform(4.0, 20.0)
            assert ln_re1_from_prefactor(ln_re / math.sqrt(3) + 2.5) == \
                pytest.approx(ln_re, rel=1e-12)
            assert ln_re2_from_exponent(3.0 / (2.0 * ln_re)) == \
                pytest.approx(ln_re, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_re1_from_prefactor(2.5)
        with pytest.raises(DomainError):
            ln_re1_from_prefactor(1.0)
        with pytest.raises(DomainError):
            ln_re2_from_exponent(0.0)


class TestCombineReynolds:
    def test_consistent_row(self):
        diag = combine_reynolds(11.43, 11.63, re_theta=5938)
        assert diag.ln_re_mean == pytest.approx(11.53, abs=1e-12)
        assert diag.rel_discrepancy == pytest.approx(0.2 / 11.53, rel=1e-12)
        assert diag.consistent
        assert diag.re_theta_over_re == pytest.approx(
            5938 / math.exp(11.53), rel=1e-12)

    def test_inconsistent(self):
        diag = combine_reynolds(9.30, 9.62)  # Fig.4(a): 3.4% discrepancy
        assert diag.rel_discrepancy > 0.03
        assert not diag.consistent

    def test_custom_tolerance(self):
        diag = combine_reynolds(9.30, 9.62, tol=0.05)
        assert diag.consistent

    def test_no_re_theta(self):
        assert combine_reynolds(10.0, 10.2).re_theta_over_re is None

    def test_domain(self):
        with pytest.raises(DomainError):
            combine_reynolds(-1.0, 10.0)

    def test_ratio_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="too large"):
            combine_reynolds(730.0, 750.0, re_theta=1000.0)
        # without Re_theta there is no ratio to take
        assert combine_reynolds(730.0, 750.0).ln_re_mean == 740.0


class TestPsiTransform:
    def test_exact_inverse(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            ln_eta = rng.uniform(0.1, 15.0)
            ln_re = rng.uniform(4.0, 20.0)
            alpha = 3.0 / (2.0 * ln_re)
            phi = scaling_law_phi(math.exp(ln_eta), ln_re)
            assert psi_transform(phi, alpha) == pytest.approx(ln_eta, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            psi_transform(0.0, 0.14)
        with pytest.raises(DomainError):
            psi_transform(10.0, -0.1)


def turbulence_shift_x(eta, phi, ln_re):
    """The shift abscissa ln eta - psi at ln Re, as emit_plotdata builds
    its shift column: one universal series at alpha(ln Re)."""
    series = build_universal_series([eta], [phi], alpha_of_ln_re(ln_re))
    ((ln_eta, psi),) = series.points
    return ln_eta - psi


class TestTurbulenceShiftX:
    def test_zero_on_the_law(self):
        for ln_eta in (3.0, 5.0, 8.0):
            phi = scaling_law_phi(math.exp(ln_eta), 10.69)
            assert turbulence_shift_x(math.exp(ln_eta), phi, 10.69) == \
                pytest.approx(0.0, abs=1e-10)

    def test_published_point_fig8a(self):
        # Hancock & Bradshaw low-turbulence case: a scaling-law point at
        # ln eta = 5 sits on the bisectrix within print roundoff
        phi = scaling_law_phi(math.exp(5.0), 10.69)
        x = turbulence_shift_x(math.exp(5.0), phi, 10.7)
        assert abs(x) <= 0.025

    def test_sign_convention(self):
        # lowering phi moves the point below the bisectrix: x > 0
        phi = scaling_law_phi(math.exp(5.0), 10.69)
        assert turbulence_shift_x(math.exp(5.0), 0.9 * phi, 10.69) > 0
        assert turbulence_shift_x(math.exp(5.0), 1.1 * phi, 10.69) < 0

    def test_domain(self):
        with pytest.raises(DomainError):
            turbulence_shift_x(-1.0, 10.0, 10.0)
        with pytest.raises(DomainError):
            turbulence_shift_x(100.0, 10.0, 0.0)


class TestUniversalSeries:
    def make_series(self, shift=0.0, ln_re=10.69, n=12):
        alpha = 3.0 / (2.0 * ln_re)
        eta = np.exp(np.linspace(2.0, 6.0, n))
        phi = scaling_law_phi(eta, ln_re) * math.exp(-alpha * shift)
        return build_universal_series(eta, phi, alpha)

    def test_collapse_on_bisectrix(self):
        series = self.make_series(shift=0.0)
        assert series.mean_shift == pytest.approx(0.0, abs=1e-10)
        assert series.rms_scatter == pytest.approx(0.0, abs=1e-10)
        for ln_eta, psi in series.points:
            assert psi == pytest.approx(ln_eta, abs=1e-10)

    def test_parallel_shift_recovered(self):
        for s in (0.3, 1.0):
            series = self.make_series(shift=s)
            assert series.mean_shift == pytest.approx(s, abs=1e-9)
            assert series.rms_scatter == pytest.approx(0.0, abs=1e-9)

    def test_rms_scatter(self):
        rng = np.random.default_rng(8)
        ln_re = 10.0
        alpha = 3.0 / (2.0 * ln_re)
        eta = np.exp(np.linspace(2.0, 6.0, 200))
        noise = rng.normal(0, 0.05, 200)
        phi = scaling_law_phi(eta, ln_re) * np.exp(alpha * noise)
        series = build_universal_series(eta, phi, alpha)
        # psi picks up the noise directly, so the scatter tracks its std
        assert series.rms_scatter == pytest.approx(noise.std(), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            build_universal_series([], [], 0.14)

    @pytest.mark.parametrize("phi, alpha, message", [
        ([5.0, 0.0, -1.0], 0.14, "phi must be positive, got 0.0"),
        ([5.0, math.nan, 6.0], 0.14, "phi must be positive, got nan"),
        ([5.0, 6.0, 7.0], 0.0, "alpha must be positive"),
        ([5.0, 6.0, 7.0], math.nan, "alpha must be positive"),
    ])
    def test_domain(self, phi, alpha, message):
        with pytest.raises(DomainError, match=message):
            build_universal_series([10.0, 20.0, 30.0], phi, alpha)

    @pytest.mark.parametrize("eta, bad", [([10.0, 0.0, -1.0], "0.0"),
                                          ([10.0, math.nan, 30.0], "nan")])
    def test_eta_domain(self, eta, bad):
        with pytest.raises(DomainError, match=f"eta must be positive, got {bad}"):
            build_universal_series(eta, [5.0, 6.0, 7.0], 0.14)


class TestClassifyShift:
    def test_thresholds(self):
        assert classify_shift(self_series(0.05)) == COLLAPSED
        assert classify_shift(self_series(0.1)) == COLLAPSED  # boundary inclusive
        assert classify_shift(self_series(0.3)) == SHIFTED_BELOW
        assert classify_shift(self_series(-0.3)) == SHIFTED_ABOVE

    def test_custom_tol(self):
        assert classify_shift(self_series(0.3), shift_tol=0.5) == COLLAPSED


def self_series(mean_shift):
    from wallscale import UniversalSeries
    return UniversalSeries(points=((1.0, 1.0 - mean_shift),),
                           mean_shift=mean_shift, rms_scatter=0.0)
