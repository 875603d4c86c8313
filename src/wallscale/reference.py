"""Published regression results for zero-pressure-gradient boundary layers.

Fifty profiles from the experimental literature, as tabulated in the
original scaling-law analysis: the fitted region-(I) constants (A, alpha),
the two Reynolds estimates derived from them, their mean, the length-scale
ratio Re_theta/Re, and (for the first two groups) the region-(II) exponent
beta and the free-stream turbulence level u'/U.

These rows are the quantitative oracle for the extraction formulas: the
package must reproduce every derived column from (A, alpha) alone.  A few
rows of the printed tables are internally inconsistent; they are flagged
here (never silently corrected) and checked with a roundoff-feasibility
test instead of the strict tolerances.  See KNOWN_PRINT_DISCREPANCIES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagnostics import (combine_reynolds, ln_re1_from_prefactor,
                          ln_re2_from_exponent)

# Strict tolerances for the recomputation checks.
TOL_LN_RE1 = 0.01
TOL_LN_RE2 = 0.015
TOL_LN_RE_MEAN = 0.01
TOL_RATIO = 0.01

# Half-ulp of the printed precision: 3 decimals for alpha, 2 for A and
# the ln Re columns.
_HALF_ULP_ALPHA = 0.0005
_HALF_ULP_2DEC = 0.005


@dataclass(frozen=True)
class ReferenceRow:
    group: int
    source: str
    label: str
    re_theta: float
    alpha: float
    prefactor: float
    ln_re1: float
    ln_re2: float
    ln_re: float
    re_theta_over_re: float
    beta: float | None = None
    turbulence_level: float | None = None
    alpha_printed: float | None = None  # set when the printed alpha is a typo
    columns_swapped: bool = False       # ln Re_1 / ln Re_2 printed swapped


_CCH = "Collins, Coles & Hicks (1978)"
_EJ = "Erm & Joubert (1991)"
_NH = "Naguib (1992); Nagib & Hites (1995)"
_SM = "Smith (1994)"
_KA = "Krogstad & Antonia (1998)"
_HB = "Hancock & Bradshaw (1989)"
_WG = "Winter & Gaudet (1973)"
_PKB = "Purtell, Klebanov & Buckley (1981)"
_ERM = "Erm (1988)"
_PFSB = "Petrie, Fontaine, Sommer & Brungart (1990)"
_BDF = "Bruns, Dengel & Fernholz (1992); Fernholz et al. (1995)"
_DA = "Djenidi & Antonia (1993)"
_WA = "Warnack (1994)"

REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    # Group 1: weak free-stream turbulence, both regions resolved.
    ReferenceRow(1, _CCH, "Fig.2(a)", 5938, 0.129, 9.10, 11.43, 11.63, 11.53, 0.06, beta=0.203),
    ReferenceRow(1, _CCH, "Fig.2(b)", 6800, 0.125, 9.23, 11.66, 12.00, 11.83, 0.05, beta=0.195),
    ReferenceRow(1, _CCH, "Fig.2(c)", 7880, 0.123, 9.41, 11.97, 12.21, 12.09, 0.04, beta=0.202),
    ReferenceRow(1, _EJ, "Fig.3(a)", 697, 0.163, 7.83, 9.23, 9.20, 9.22, 0.07, beta=0.202),
    ReferenceRow(1, _EJ, "Fig.3(b)", 1003, 0.159, 7.96, 9.46, 9.43, 9.45, 0.08, beta=0.192),
    ReferenceRow(1, _EJ, "Fig.3(c)", 1568, 0.156, 7.97, 9.47, 9.62, 9.54, 0.11, beta=0.202),
    ReferenceRow(1, _EJ, "Fig.3(d)", 2226, 0.148, 8.26, 9.98, 10.14, 10.06, 0.10, beta=0.214),
    ReferenceRow(1, _EJ, "Fig.3(e)", 2788, 0.140, 8.66, 10.67, 10.71, 10.69, 0.06, beta=0.206),
    ReferenceRow(1, _NH, "Fig.4(a)", 4550, 0.156, 7.87, 9.30, 9.62, 9.46, 0.36, beta=0.22),
    ReferenceRow(1, _NH, "Fig.4(b)", 6240, 0.148, 8.24, 9.94, 10.14, 10.04, 0.27, beta=0.20),
    ReferenceRow(1, _NH, "Fig.4(c)", 9590, 0.143, 8.37, 10.17, 10.49, 10.33, 0.31, beta=0.206),
    ReferenceRow(1, _NH, "Fig.4(d)", 13800, 0.131, 8.94, 11.15, 11.45, 11.30, 0.17, beta=0.193),
    ReferenceRow(1, _NH, "Fig.4(e)", 21300, 0.138, 8.61, 10.58, 10.87, 10.73, 0.47, beta=0.22),
    ReferenceRow(1, _NH, "Fig.4(f)", 29900, 0.130, 8.99, 11.24, 11.54, 11.39, 0.34, beta=0.204),
    ReferenceRow(1, _NH, "Fig.4(g)", 41800, 0.124, 9.30, 11.78, 12.10, 11.94, 0.27, beta=0.201),
    ReferenceRow(1, _NH, "Fig.4(h)", 48900, 0.124, 9.28, 11.74, 12.10, 11.92, 0.33, beta=0.192),
    ReferenceRow(1, _SM, "Fig.5(a)", 4996, 0.146, 8.36, 10.15, 10.27, 10.21, 0.18, beta=0.20),
    ReferenceRow(1, _SM, "Fig.5(b)", 12990, 0.129, 9.19, 11.59, 11.63, 11.61, 0.12, beta=0.167),
    ReferenceRow(1, _KA, "Fig.6", 12570, 0.146, 8.38, 10.18, 10.27, 10.23, 0.45, beta=0.201),
    # Group 2: grid-turbulized free stream; beta absent where region II
    # is not revealed.
    ReferenceRow(2, _HB, "Fig.8(a)", 4680, 0.140, 8.66, 10.67, 10.71, 10.69, 0.11, beta=0.20, turbulence_level=0.0003),
    ReferenceRow(2, _HB, "Fig.8(b)", 2980, 0.138, 8.77, 10.86, 10.91, 10.88, 0.06, beta=0.18, turbulence_level=0.024),
    ReferenceRow(2, _HB, "Fig.8(c)", 5760, 0.137, 8.80, 10.91, 10.95, 10.93, 0.10, turbulence_level=0.026),
    ReferenceRow(2, _HB, "Fig.8(d)", 4320, 0.150, 8.22, 9.91, 10.00, 9.95, 0.21, turbulence_level=0.041),
    ReferenceRow(2, _HB, "Fig.8(e)", 3710, 0.122, 9.49, 12.11, 12.30, 12.20, 0.02, turbulence_level=0.040),
    ReferenceRow(2, _HB, "Fig.8(f)", 3100, 0.128, 9.13, 11.48, 11.70, 11.59, 0.03, turbulence_level=0.058),
    ReferenceRow(2, _HB, "Fig.8(g)", 3860, 0.129, 9.07, 11.38, 11.63, 11.50, 0.04, turbulence_level=0.058),
    # Group 3: remaining experiments; region II left unquantified.
    ReferenceRow(3, _WG, "Fig.9(a)", 32150, 0.133, 8.86, 11.02, 11.32, 11.17, 0.45),
    ReferenceRow(3, _WG, "Fig.9(b)", 42230, 0.122, 9.37, 11.90, 12.30, 12.10, 0.24),
    ReferenceRow(3, _WG, "Fig.9(c)", 77010, 0.115, 10.30, 13.51, 13.04, 13.27, 0.13),
    ReferenceRow(3, _WG, "Fig.9(d)", 96280, 0.107, 10.56, 13.96, 14.02, 13.99, 0.08),
    ReferenceRow(3, _WG, "Fig.9(e)", 136600, 0.103, 10.83, 14.43, 14.56, 14.50, 0.07),
    ReferenceRow(3, _WG, "Fig.9(f)", 167600, 0.101, 11.20, 15.07, 14.85, 14.96, 0.05),
    ReferenceRow(3, _WG, "Fig.9(g)", 210600, 0.100, 11.15, 14.98, 15.00, 14.99, 0.06),
    ReferenceRow(3, _PKB, "Fig.10(a)", 1002, 0.170, 7.39, 8.47, 8.82, 8.64, 0.18),
    ReferenceRow(3, _PKB, "Fig.10(b)", 1837, 0.164, 7.62, 9.14, 8.87, 9.00, 0.23, columns_swapped=True),
    ReferenceRow(3, _PKB, "Fig.10(c)", 5122, 0.149, 8.11, 9.72, 10.07, 9.89, 0.26),
    ReferenceRow(3, _ERM, "Fig.11(a)", 2244, 0.153, 8.04, 9.60, 9.80, 9.70, 0.14),
    ReferenceRow(3, _ERM, "Fig.11(b)", 2777, 0.154, 8.13, 9.75, 9.74, 9.75, 0.16),
    ReferenceRow(3, _PFSB, "Fig.12", 35530, 0.119, 9.76, 12.57, 12.61, 12.59, 0.12),
    ReferenceRow(3, _BDF, "Fig.13(a)", 2573, 0.151, 8.46, 10.32, 9.93, 10.13, 0.10),
    ReferenceRow(3, _BDF, "Fig.13(b)", 5023, 0.144, 8.85, 11.00, 10.42, 10.70, 0.11),
    ReferenceRow(3, _BDF, "Fig.13(c)", 7139, 0.148, 8.49, 10.37, 10.14, 10.25, 0.25),
    ReferenceRow(3, _BDF, "Fig.13(d)", 16080, 0.142, 8.45, 10.31, 10.56, 10.43, 0.47),
    ReferenceRow(3, _BDF, "Fig.13(e)", 20920, 0.137, 8.51, 10.41, 10.95, 10.68, 0.48, alpha_printed=0.37),
    ReferenceRow(3, _BDF, "Fig.13(f)", 41260, 0.132, 8.63, 10.62, 11.36, 10.98, 0.70),
    ReferenceRow(3, _BDF, "Fig.13(g)", 57720, 0.130, 8.71, 10.76, 11.54, 11.14, 0.84),
    ReferenceRow(3, _DA, "Fig.14(a)", 1033, 0.154, 8.20, 9.87, 9.74, 9.81, 0.06),
    ReferenceRow(3, _DA, "Fig.14(b)", 1320, 0.150, 8.37, 10.17, 10.00, 10.08, 0.06),
    ReferenceRow(3, _WA, "Fig.15(a)", 2552, 0.152, 8.29, 10.03, 9.87, 9.95, 0.12),
    ReferenceRow(3, _WA, "Fig.15(b)", 4736, 0.149, 8.20, 9.87, 10.07, 9.97, 0.22),
)

# Rows whose printed values are internally inconsistent beyond the strict
# tolerances.  Each entry explains the discrepancy; these rows are checked
# with roundoff_feasible() instead.  None of them is corrected silently:
# Fig.13(e) carries the corrected exponent alongside alpha_printed, and
# Fig.10(b) is checked with its two ln Re columns swapped back.
KNOWN_PRINT_DISCREPANCIES: dict[str, str] = {
    "Fig.13(e)": "printed alpha 0.37 is inconsistent with the row's own "
                 "ln Re_2 = 10.95 (3/(2*10.95) = 0.137); read as 0.137",
    "Fig.10(b)": "ln Re_1 and ln Re_2 columns printed swapped: "
                 "sqrt(3)*(A-5/2) = 8.868 matches the printed ln Re_2 and "
                 "3/(2 alpha) = 9.146 matches the printed ln Re_1",
    "Fig.8(b)": "printed ln Re_2 = 10.91 reflects an unrounded exponent "
                "(~0.1375) while alpha prints as 0.138; 3/(2*0.138) = 10.870 "
                "misses the column by 0.040",
    "Fig.8(f)": "printed ln Re_2 = 11.70 off 3/(2*0.128) = 11.719 by 0.019 "
                "and the mean column by 0.011; exponent-rounding artifact",
    "Fig.9(a)": "printed ln Re_2 = 11.32 off 3/(2*0.133) = 11.278 by 0.042; "
                "exponent-rounding artifact, also perturbs Re_theta/Re",
    "Fig.13(f)": "printed ln Re = 10.98 is 0.01 below the half-sum of its "
                 "own printed ln Re columns (10.99); rounding artifact",
}


@dataclass(frozen=True)
class RowCheck:
    row: ReferenceRow
    ln_re1: float
    ln_re2: float
    ln_re_mean: float
    re_theta_over_re: float
    rel_discrepancy: float
    d_ln_re1: float
    d_ln_re2: float
    d_ln_re_mean: float
    d_ratio: float
    strict_ok: bool
    flagged: bool
    roundoff_ok: bool


def _interval_roundoff_feasible(row: ReferenceRow) -> bool:
    """Whether some unrounded (A*, alpha*) within half an ulp of the
    printed values reproduces every printed column within its tolerance.

    Interval propagation: the printed alpha and A each define a half-ulp
    interval; the derived ln Re_1 / ln Re_2 intervals must overlap the
    printed columns' half-ulp intervals, and the resulting mean and ratio
    intervals must overlap the printed mean (within half an ulp plus the
    strict tolerance) and ratio (within the strict tolerance).
    """
    a_lo = row.prefactor - _HALF_ULP_2DEC
    a_hi = row.prefactor + _HALF_ULP_2DEC
    alpha_lo = row.alpha - _HALF_ULP_ALPHA
    alpha_hi = row.alpha + _HALF_ULP_ALPHA

    ln1_col, ln2_col = row.ln_re1, row.ln_re2
    if row.columns_swapped:
        ln1_col, ln2_col = ln2_col, ln1_col

    ln1_lo = max(ln_re1_from_prefactor(a_lo), ln1_col - _HALF_ULP_2DEC)
    ln1_hi = min(ln_re1_from_prefactor(a_hi), ln1_col + _HALF_ULP_2DEC)
    ln2_lo = max(ln_re2_from_exponent(alpha_hi), ln2_col - _HALF_ULP_2DEC)
    ln2_hi = min(ln_re2_from_exponent(alpha_lo), ln2_col + _HALF_ULP_2DEC)
    if ln1_lo > ln1_hi or ln2_lo > ln2_hi:
        return False

    mean_lo = 0.5 * (ln1_lo + ln2_lo)
    mean_hi = 0.5 * (ln1_hi + ln2_hi)
    if (mean_hi < row.ln_re - _HALF_ULP_2DEC - TOL_LN_RE_MEAN
            or mean_lo > row.ln_re + _HALF_ULP_2DEC + TOL_LN_RE_MEAN):
        return False

    ratio_lo = row.re_theta / math.exp(mean_hi)
    ratio_hi = row.re_theta / math.exp(mean_lo)
    if (ratio_hi < row.re_theta_over_re - TOL_RATIO
            or ratio_lo > row.re_theta_over_re + TOL_RATIO):
        return False
    return True


def check_row(row: ReferenceRow) -> RowCheck:
    """Strict recomputation check of one row, with the flag machinery.

    The derived columns are recomputed from (A, alpha) alone, through
    the same combine_reynolds that the analysis uses."""
    derived = combine_reynolds(ln_re1_from_prefactor(row.prefactor),
                               ln_re2_from_exponent(row.alpha), row.re_theta)
    ln1_col, ln2_col = row.ln_re1, row.ln_re2
    if row.columns_swapped:
        ln1_col, ln2_col = ln2_col, ln1_col
    d1 = abs(derived.ln_re1 - ln1_col)
    d2 = abs(derived.ln_re2 - ln2_col)
    dm = abs(derived.ln_re_mean - row.ln_re)
    dr = abs(derived.re_theta_over_re - row.re_theta_over_re)
    strict_ok = (d1 <= TOL_LN_RE1 and d2 <= TOL_LN_RE2
                 and dm <= TOL_LN_RE_MEAN and dr <= TOL_RATIO)
    flagged = row.label in KNOWN_PRINT_DISCREPANCIES
    return RowCheck(
        row=row,
        ln_re1=derived.ln_re1,
        ln_re2=derived.ln_re2,
        ln_re_mean=derived.ln_re_mean,
        re_theta_over_re=derived.re_theta_over_re,
        rel_discrepancy=derived.rel_discrepancy,
        d_ln_re1=d1,
        d_ln_re2=d2,
        d_ln_re_mean=dm,
        d_ratio=dr,
        strict_ok=strict_ok,
        flagged=flagged,
        roundoff_ok=_interval_roundoff_feasible(row),
    )


def check_all() -> list[RowCheck]:
    return [check_row(row) for row in REFERENCE_ROWS]


def all_checks_pass(checks=None) -> bool:
    """True when every non-flagged row passes strictly and every flagged
    row is at least roundoff-feasible."""
    if checks is None:
        checks = check_all()
    return all(c.strict_ok if not c.flagged else c.roundoff_ok for c in checks)
