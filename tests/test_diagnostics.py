import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallscale import (COLLAPSED, DomainError, SHIFTED_ABOVE, SHIFTED_BELOW,
                       UniversalSeries, alpha_of_ln_re, build_universal_series,
                       classify_shift, combine_reynolds, diagnostics,
                       ln_re1_from_prefactor, ln_re2_from_exponent,
                       psi_transform, scaling_law_phi)


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

    def test_underflowing_argument_is_domain_error(self):
        # 2 alpha phi / (sqrt(3) + 5 alpha) is 0.0 here, and ln 0 has no value
        with pytest.raises(DomainError) as info:
            psi_transform(5e-324, 0.1)
        assert str(info.value) == ("psi has no value at phi=5e-324, "
                                   "alpha=0.1: its log argument is 0.0")

    def test_overflowing_argument_is_domain_error(self):
        # 2 alpha phi overflows to inf, whose log is no value of psi
        with pytest.raises(DomainError) as info:
            psi_transform(1e308, 1.0)
        assert str(info.value) == ("psi has no value at phi=1e+308, "
                                   "alpha=1.0: its log argument is inf")


def turbulence_shift_x(eta, phi, ln_re):
    """The shift abscissa ln eta - psi at ln Re, as emit_plotdata builds
    its shift column: one universal series at alpha(ln Re), whose columns
    hold exactly one row."""
    series = build_universal_series([eta], [phi], alpha_of_ln_re(ln_re))
    assert series.ln_eta.tolist() == [math.log(eta)]
    (x,) = (series.ln_eta - series.psi).tolist()
    return x


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


# Drawn arguments: physical samples, or any positive float from the
# smallest subnormal (eta) or 1e-300 (phi) up, where 2 alpha phi may
# overflow; in about half the examples a few cells and sometimes alpha are
# then replaced by invalid values, or by a phi whose log argument
# underflows.
INVALID = st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.nan, 5e-324])
DRAWN_ETA = st.one_of(st.floats(1.0, 1e6),
                      st.floats(5e-324, 1.7976931348623157e308))
DRAWN_PHI = st.one_of(st.floats(1.0, 60.0),
                      st.floats(1e-300, 1.7976931348623157e308))
DRAWN_ALPHA = st.one_of(st.floats(math.exp(-5.0), math.e), st.floats(1e-3, 1e3))


@st.composite
def drawn_arguments(draw):
    n = draw(st.integers(0, 30))
    rows = draw(st.lists(st.tuples(DRAWN_ETA, DRAWN_PHI), min_size=n,
                         max_size=n))
    columns = [[e for e, _ in rows], [p for _, p in rows]]
    alpha = draw(DRAWN_ALPHA)
    if draw(st.booleans()):
        cells = st.tuples(st.sampled_from((0, 1, 1)),
                          st.integers(0, max(len(rows) - 1, 0)), INVALID)
        for column, i, value in draw(st.lists(cells, max_size=3)):
            if rows:
                columns[column][i] = value
        if draw(st.booleans()):
            alpha = draw(st.sampled_from([0.0, -1.0, -math.inf, math.nan]))
    return columns[0], columns[1], alpha


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
        ln_eta = np.linspace(2.0, 6.0, 12)
        assert series.ln_eta.tolist() == pytest.approx(ln_eta, abs=1e-14)
        assert series.psi.tolist() == pytest.approx(ln_eta, abs=1e-10)

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
        # samples are checked in row order, phi before alpha in each
        ([5.0, 0.0, 7.0], -1.0, "alpha must be positive, got -1.0"),
        ([0.0, 6.0, 7.0], -1.0, "phi must be positive, got 0.0"),
        ([5.0, 5e-324, 0.0], 0.1, "psi has no value at phi=5e-324"),
    ])
    def test_domain(self, phi, alpha, message):
        with pytest.raises(DomainError, match=message):
            build_universal_series([10.0, 20.0, 30.0], phi, alpha)

    def test_overflowing_argument_is_domain_error(self):
        # before, psi was [inf, ...], the mean shift -inf and the rms nan,
        # which classify_shift called shifted_above
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                build_universal_series([1.0, 2.0], [1e308, 1.0], 1.0)
        assert str(info.value) == ("psi has no value at phi=1e+308, "
                                   "alpha=1.0: its log argument is inf")

    def test_handed_ln_eta_is_used_as_given(self):
        eta, phi = [10.0, 20.0, 30.0], [5.0, 6.0, 7.0]
        ln_eta = np.array([math.log(e) for e in eta])
        own = build_universal_series(eta, phi, 0.14)
        handed = build_universal_series(eta, phi, 0.14, ln_eta=ln_eta)
        assert_bit_equal(handed, (own.ln_eta.tolist(), own.psi.tolist(),
                                  own.mean_shift, own.rms_scatter))
        shifted = build_universal_series(eta, phi, 0.14, ln_eta=ln_eta + 1.0)
        assert shifted.mean_shift == pytest.approx(own.mean_shift + 1.0)

    @pytest.mark.parametrize("phi, alpha", [
        ([1e-10, 1e10], 1e-300),    # the rms sum overflows
        ([1.0, 1.0], 1e-310),       # psi = ln(...) / alpha overflows
    ])
    def test_tiny_alpha_overflow_is_domain_error(self, phi, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                build_universal_series([1.0, 2.0], phi, alpha)
        assert str(info.value) == (
            f"alpha={alpha!r} is too small: psi or the rms of ln eta - psi "
            "overflows")

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(DomainError,
                           match="eta and phi differ in length: 3 and 1"):
            build_universal_series([10.0, 20.0, 30.0], [5.0], 0.14)

    @pytest.mark.parametrize("eta, bad", [([10.0, 0.0, -1.0], "0.0"),
                                          ([10.0, math.nan, 30.0], "nan")])
    def test_eta_domain(self, eta, bad):
        with pytest.raises(DomainError, match=f"eta must be positive, got {bad}"):
            build_universal_series(eta, [5.0, 6.0, 7.0], 0.14)

    def test_columns_are_read_only_float64(self):
        series = build_universal_series([10.0, 20.0, 30.0], [5, 6, 7], 0.14)
        for column in (series.ln_eta, series.psi):
            assert column.dtype == np.float64 and column.shape == (3,)
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_no_per_sample_psi_transform(self, monkeypatch):
        calls = []
        monkeypatch.setattr(diagnostics, "psi_transform",
                            lambda *args: calls.append(args))
        self.make_series(n=200)
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @example(arguments=([1e3], [5e-324], 0.1))
    @example(arguments=([10.0, 20.0], [5.0, 0.0], math.nan))
    @example(arguments=([1.0, 2.0], [1e308, 1.0], 1.0))
    @example(arguments=([math.exp(x) for x in range(2, 40)],
                        [8.0 + x for x in range(2, 40)], 0.14))
    @given(arguments=drawn_arguments())
    def test_columns_equal_per_point_reference(self, arguments):
        eta, phi, alpha = arguments
        try:
            expected = per_point_series(eta, phi, alpha)
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                build_warnings_as_errors(eta, phi, alpha)
            assert str(info.value) == str(exc)
            return
        assert_bit_equal(build_warnings_as_errors(eta, phi, alpha), expected)

    @pytest.mark.parametrize("alpha", [math.exp(-5.0), 0.1, 0.14, math.e])
    def test_long_columns_equal_per_point_reference(self, alpha):
        rng = np.random.default_rng(11)
        eta = np.sort(np.exp(rng.uniform(0.0, 12.0, 3000))).tolist()
        phi = rng.uniform(1.0, 60.0, 3000).tolist()
        assert_bit_equal(build_warnings_as_errors(eta, phi, alpha),
                         per_point_series(eta, phi, alpha))


def assert_bit_equal(series, expected):
    ln_eta, psi, mean_shift, rms_scatter = expected
    # float.hex tells every bit apart, -0.0 from 0.0 and nan included
    assert bits(series.ln_eta.tolist()) == bits(ln_eta)
    assert bits(series.psi.tolist()) == bits(psi)
    assert bits([series.mean_shift, series.rms_scatter]) == \
        bits([mean_shift, rms_scatter])


def bits(values):
    return [float.hex(v) for v in values]


def build_warnings_as_errors(eta, phi, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return build_universal_series(np.array(eta), np.array(phi), alpha)


def per_point_series(eta, phi, alpha):
    """The reference for the columnar build: the same checks, then
    ``math.log`` and ``psi_transform`` sample by sample, and Python sums
    in row order."""
    if not eta:
        raise DomainError("cannot build a universal series from no samples")
    for e in eta:
        if not e > 0:
            raise DomainError(f"eta must be positive, got {e!r}")
    ln_eta = [math.log(e) for e in eta]
    psi = [psi_transform(p, alpha) for p in phi]
    deviations = [x - y for x, y in zip(ln_eta, psi)]
    mean = sum(deviations) / len(deviations)
    rms = math.sqrt(sum((d - mean) ** 2 for d in deviations) / len(deviations))
    return ln_eta, psi, mean, rms


class TestClassifyShift:
    def test_thresholds(self):
        assert classify_shift(self_series(0.05)) == COLLAPSED
        assert classify_shift(self_series(0.1)) == COLLAPSED  # boundary inclusive
        assert classify_shift(self_series(0.3)) == SHIFTED_BELOW
        assert classify_shift(self_series(-0.3)) == SHIFTED_ABOVE

    def test_custom_tol(self):
        assert classify_shift(self_series(0.3), shift_tol=0.5) == COLLAPSED


def self_series(mean_shift):
    series = UniversalSeries(ln_eta=[1.0], psi=[1.0 - mean_shift],
                             mean_shift=mean_shift, rms_scatter=0.0)
    assert series.ln_eta.tolist() == [1.0]
    assert series.psi.tolist() == [1.0 - mean_shift]
    assert not series.psi.flags.writeable
    return series
