import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wallscale import (DomainError, EnvelopePoint, LogLawParams, alpha_of_ln_re,
                       envelope_at, envelope_line_fit, fit_log_law,
                       ln_re2_from_exponent, log_law_phi, prefactor_of_ln_re,
                       scaling_law_phi)

SQRT3 = math.sqrt(3.0)


def grid_envelope(ln_eta, lo=4.0, hi=60.0, n=100_000):
    """Independent envelope oracle: dense grid over ln Re, take the minimum."""
    grid = np.linspace(lo, hi, n)
    values = (grid / SQRT3 + 2.5) * np.exp(1.5 * ln_eta / grid)
    i = int(np.argmin(values))
    return float(values[i]), float(grid[i])


def family_ln_phi(ln_eta, ln_re):
    """ln of the family member (ln Re/sqrt(3) + 5/2) * eta**(1.5/ln Re),
    finite where the member itself overflows."""
    return math.log(ln_re / SQRT3 + 2.5) + 1.5 * ln_eta / ln_re


# ln eta from 1e-3 to 1e3, log-uniform
LN_ETA = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


class TestAlphaOfLnRe:
    def test_collins_row(self):
        assert alpha_of_ln_re(11.63) == pytest.approx(0.129, abs=0.0005)

    def test_exact(self):
        assert alpha_of_ln_re(1.5) == 1.0

    def test_hancock_row(self):
        assert alpha_of_ln_re(10.71) == pytest.approx(0.140, abs=0.0005)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            alpha_of_ln_re(bad)


class TestScalingLawPhi:
    def test_prefactor_alone(self):
        assert scaling_law_phi(1.0, 11.43) == pytest.approx(9.10, abs=0.005)

    def test_eta_one_is_exact_prefactor(self):
        for ln_re in (1.0, 5.0, 11.53, 40.0):
            assert scaling_law_phi(1.0, ln_re) == ln_re / SQRT3 + 2.5

    def test_derived_value(self):
        # (10/sqrt(3) + 2.5) * e^1.5, cross-checked at high precision
        assert scaling_law_phi(math.exp(10.0), 10.0) == pytest.approx(37.08, abs=0.01)

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ln_re = rng.uniform(2, 40)
            e1, e2 = sorted(rng.uniform(0.5, 1e6, size=2))
            if e1 == e2:
                continue
            assert scaling_law_phi(e1, ln_re) < scaling_law_phi(e2, ln_re)

    def test_exponent_form_self_consistency(self):
        rng = np.random.default_rng(11)
        alphas = np.concatenate([rng.uniform(1e-3, 2.0, 50), [2.0]])
        for alpha in alphas:
            eta = rng.uniform(1.0, 1e6)
            expected = (SQRT3 + 5 * alpha) / (2 * alpha) * eta ** alpha
            got = scaling_law_phi(eta, 3.0 / (2.0 * alpha))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            scaling_law_phi(-1.0, 10.0)
        with pytest.raises(DomainError):
            scaling_law_phi(10.0, 0.0)


class TestParams:
    def test_closed_forms_exact(self):
        for ln_re in (0.5, 1.5, 11.53, 40.0):
            assert alpha_of_ln_re(ln_re) == 3 / (2 * ln_re)
            assert prefactor_of_ln_re(ln_re) == ln_re / SQRT3 + 2.5
            assert scaling_law_phi(1.0, ln_re) == prefactor_of_ln_re(ln_re)
            assert ln_re2_from_exponent(alpha_of_ln_re(ln_re)) == \
                pytest.approx(ln_re, rel=1e-15)

    def test_arrays_match_scalars(self):
        ln_re = np.linspace(0.5, 40.0, 101)
        assert np.array_equal(alpha_of_ln_re(ln_re),
                              [alpha_of_ln_re(x) for x in ln_re.tolist()])
        assert np.array_equal(prefactor_of_ln_re(ln_re),
                              [prefactor_of_ln_re(x) for x in ln_re.tolist()])

    @pytest.mark.parametrize("bad", [math.nan, np.array([1.0, 0.0]),
                                     np.array([math.nan, 2.0])])
    def test_alpha_domain(self, bad):
        with pytest.raises(DomainError):
            alpha_of_ln_re(bad)

    def test_log_law_kappa_positive(self):
        with pytest.raises(DomainError):
            LogLawParams(kappa=0.0, c_offset=5.1)


class TestLogLawPhi:
    def test_values(self):
        params = LogLawParams(kappa=0.4, c_offset=5.1)
        assert log_law_phi(math.exp(8.0), params) == pytest.approx(25.1, abs=1e-9)
        assert log_law_phi(math.exp(5.0), params) == pytest.approx(17.6, abs=1e-9)
        assert log_law_phi(1.0, params) == pytest.approx(5.1, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_law_phi(0.0, LogLawParams(kappa=0.4, c_offset=5.1))


class TestEnvelopeAt:
    def test_against_grid_oracle_ln_eta_8(self):
        point = envelope_at(8.0)
        phi_ref, touch_ref = grid_envelope(8.0)
        assert point.phi_env == pytest.approx(phi_ref, rel=1e-6)
        assert point.ln_re_touch == pytest.approx(touch_ref, abs=0.01)
        assert point.phi_env == pytest.approx(24.8, abs=0.05)
        assert point.ln_re_touch == pytest.approx(15.5, abs=0.2)

    def test_against_grid_oracle_ln_eta_5(self):
        point = envelope_at(5.0)
        phi_ref, touch_ref = grid_envelope(5.0)
        assert point.phi_env == pytest.approx(phi_ref, rel=1e-6)
        assert point.ln_re_touch == pytest.approx(touch_ref, abs=0.01)
        assert point.phi_env == pytest.approx(17.5, abs=0.05)
        assert point.ln_re_touch == pytest.approx(10.5, abs=0.2)

    def test_lower_bound_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ln_eta = rng.uniform(2.5, 12.0)
            ln_re = rng.uniform(4.5, 59.5)
            point = envelope_at(ln_eta)
            assert point.phi_env <= scaling_law_phi(math.exp(ln_eta), ln_re) + 1e-9

    def test_tangency(self):
        for ln_eta in (3.0, 5.0, 8.0, 11.0):
            point = envelope_at(ln_eta)
            h = 1e-5
            eta = math.exp(ln_eta)
            deriv = (scaling_law_phi(eta, point.ln_re_touch + h)
                     - scaling_law_phi(eta, point.ln_re_touch - h)) / (2 * h)
            assert abs(deriv) < 1e-4

    def test_touch_point_consistency(self):
        point = envelope_at(7.0)
        assert point.phi_env == pytest.approx(
            scaling_law_phi(math.exp(7.0), point.ln_re_touch), abs=1e-9)

    @given(LN_ETA)
    def test_property_stationary_at_touch_point(self, ln_eta):
        point = envelope_at(ln_eta)
        touch = point.ln_re_touch
        h = 1e-4 * touch
        deriv = (math.exp(family_ln_phi(ln_eta, touch + h))
                 - math.exp(family_ln_phi(ln_eta, touch - h))) / (2 * h)
        assert abs(deriv) * max(1.0, touch) < 1e-6 * point.phi_env
        assert point.phi_env == pytest.approx(
            math.exp(family_ln_phi(ln_eta, touch)), rel=1e-14)

    @given(LN_ETA, st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e))
    def test_property_lower_bound(self, ln_eta, ln_re):
        point = envelope_at(ln_eta)
        assert math.log(point.phi_env) <= family_ln_phi(ln_eta, ln_re) + 1e-14

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                envelope_at(bad)

    @pytest.mark.parametrize("ln_eta", [1e154, 1e160, 1e300])
    def test_touch_point_overflow(self, ln_eta):
        with pytest.raises(DomainError, match="8.9e153"):
            envelope_at(ln_eta)

    def test_closed_form_unchanged_up_to_1e150(self):
        # the touch point and envelope value, written out as before the
        # overflow check, on a log grid from 1e-3 to 1e150
        for x in np.logspace(-3.0, 150.0, 2001).tolist():
            touch = (1.5 * x + math.sqrt(2.25 * x * x + 15.0 * SQRT3 * x)) / 2.0
            phi = (touch / SQRT3 + 2.5) * math.exp(1.5 * x / touch)
            assert envelope_at(x) == EnvelopePoint(x, phi, touch)


class TestEnvelopeLineFit:
    def test_close_to_classical_log_law(self):
        line = envelope_line_fit((5.0, 10.0), 50)
        assert 0.36 <= line.kappa <= 0.44
        assert 4.6 <= line.c_offset <= 5.6

    def test_exact_line_recovery(self):
        x = np.linspace(5.0, 10.0, 40)
        y = 2.5 * x + 5.1
        line = fit_log_law(x, y)
        assert line.kappa == pytest.approx(0.4, abs=1e-10)
        assert line.c_offset == pytest.approx(5.1, abs=1e-10)

    def test_stability_in_n_points(self):
        a = envelope_line_fit((5.0, 10.0), 50)
        b = envelope_line_fit((5.0, 10.0), 100)
        assert abs(a.kappa - b.kappa) < 1e-3

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            envelope_line_fit((5.0, 10.0), 5)
