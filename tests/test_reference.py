import math

import pytest

from wallscale import reference
from wallscale.diagnostics import (combine_reynolds, ln_re1_from_prefactor,
                                   ln_re2_from_exponent)
from wallscale.reference import (KNOWN_PRINT_DISCREPANCIES, REFERENCE_ROWS,
                                 all_checks_pass, check_all, check_row)


def row(label):
    return next(r for r in REFERENCE_ROWS if r.label == label)


class TestTableShape:
    def test_fifty_rows(self):
        assert len(REFERENCE_ROWS) == 50
        assert len({r.label for r in REFERENCE_ROWS}) == 50

    def test_group_sizes(self):
        groups = [r.group for r in REFERENCE_ROWS]
        assert groups.count(1) == 19
        assert groups.count(2) == 7
        assert groups.count(3) == 24

    def test_group1_all_have_beta(self):
        assert all(r.beta is not None for r in REFERENCE_ROWS if r.group == 1)

    def test_group2_turbulence_levels(self):
        g2 = [r for r in REFERENCE_ROWS if r.group == 2]
        assert all(r.turbulence_level is not None for r in g2)
        # region II is revealed only in the two lowest-turbulence cases
        assert [r.label for r in g2 if r.beta is not None] == \
            ["Fig.8(a)", "Fig.8(b)"]


def combined(r):
    """combine_reynolds on the Reynolds estimates of a row's (A, alpha)."""
    return combine_reynolds(ln_re1_from_prefactor(r.prefactor),
                            ln_re2_from_exponent(r.alpha), r.re_theta)


class TestCombineReynolds:
    def test_collins_first_row(self):
        derived = combined(row("Fig.2(a)"))
        assert derived.ln_re1 == pytest.approx(11.43, abs=0.01)
        assert derived.ln_re2 == pytest.approx(11.63, abs=0.015)
        assert derived.ln_re_mean == pytest.approx(11.53, abs=0.01)
        assert derived.re_theta_over_re == pytest.approx(0.06, abs=0.01)

    def test_formulas(self):
        r = row("Fig.8(a)")
        derived = combined(r)
        assert derived.ln_re1 == pytest.approx(
            math.sqrt(3) * (r.prefactor - 2.5), rel=1e-12)
        assert derived.ln_re2 == pytest.approx(3 / (2 * r.alpha), rel=1e-12)


class TestChecks:
    def test_all_pass(self):
        assert all_checks_pass()

    def test_strict_failures_are_exactly_the_flagged_artifacts(self):
        failures = {c.row.label for c in check_all() if not c.strict_ok}
        assert failures == {"Fig.8(b)", "Fig.8(f)", "Fig.9(a)", "Fig.13(f)"}
        assert failures <= set(KNOWN_PRINT_DISCREPANCIES)

    def test_flagged_rows_roundoff_feasible(self):
        for label in KNOWN_PRINT_DISCREPANCIES:
            assert check_row(row(label)).roundoff_ok, label

    def test_typo_row_uses_corrected_alpha(self):
        r = row("Fig.13(e)")
        assert r.alpha == 0.137
        assert r.alpha_printed == 0.37
        assert check_row(r).strict_ok

    def test_swapped_columns_handled(self):
        r = row("Fig.10(b)")
        assert r.columns_swapped
        c = check_row(r)
        assert c.strict_ok
        # without the swap the strict deltas would exceed tolerance
        assert abs(c.ln_re1 - r.ln_re1) > reference.TOL_LN_RE1

    def test_consistency_calibration(self):
        # exactly two weak-turbulence rows exceed the 3% threshold
        over = [c.row.label for c in check_all()
                if c.row.group == 1 and c.rel_discrepancy > 0.03]
        assert over == ["Fig.4(a)", "Fig.4(c)"]
