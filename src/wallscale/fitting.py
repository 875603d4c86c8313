"""Power-law and two-segment broken-line regression in log-log coordinates.

All fits are unweighted ordinary least squares of ln phi against ln eta;
a power law phi = K * eta**p is a straight line there.  The two-segment
fit identifies the inner region (I) and the outer region (II) of a
velocity profile by the split position with the least total residual sum
of squares.  Every split is scored once, in O(n), from running sums of
the centred coordinates, and only the winning split is refitted, so the
fit is linear in n.  The splits whose scores lie within a tie band delta
of the least tie, and the tie nearest the middle of the ln eta span wins
(``fit_log_broken_line`` states the rule, delta and the bound on the
scores' rounding error that delta is twice).  An exhaustive search that
refits both segments at every split and applies the same rule to the
exact totals picks the same split unless one lies within rounding of the
band's edge.  Splits whose exact totals differ by less than delta are ties
by definition: that is the fit's resolution limit.

The fits read log columns: ``fit_log_broken_line`` takes ln eta and
ln phi as ``select_intermediate`` hands them on, and ``fit_broken_line``
takes the libm logarithms of eta and phi and calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, ValidationError
from .profiles import (as_columns, check_count, check_real, check_values,
                       libm_column, real_or_column)

# Absolute floor added to the combined exponent uncertainty so that
# machine-noise-level stderr from noiseless data cannot flag a break.
_SIGNIFICANCE_FLOOR = 1e-9


@dataclass(frozen=True)
class PowerLawSegment:
    """One fitted power law phi = prefactor * eta**exponent.

    ``rss`` and ``stderr_exponent`` are computed in (ln eta, ln phi)
    coordinates with n - 2 degrees of freedom.
    """

    prefactor: float
    exponent: float
    ln_eta_range: tuple[float, float]
    n_points: int
    rss: float
    stderr_exponent: float

    def ln_phi_at(self, ln_eta):
        (ln_eta,) = real_or_column(DomainError, ln_eta=ln_eta)
        with np.errstate(over="ignore"):
            return math.log(self.prefactor) + self.exponent * ln_eta


@dataclass(frozen=True)
class BrokenLineFit:
    """Two power-law segments covering a split of the ordered samples."""

    region1: PowerLawSegment
    region2: PowerLawSegment
    break_ln_eta: float
    total_rss: float
    split_index: int


def _ols(x: np.ndarray, y: np.ndarray):
    """Closed-form OLS line fit; returns (slope, intercept, rss, sxx)."""
    with np.errstate(over="ignore", invalid="ignore"):  # callers check
        xm = x.mean()
        ym = y.mean()
        dx = x - xm
        sxx = float(np.sum(dx * dx))
        if sxx == 0.0:
            raise FitError("degenerate fit: all ln eta values are equal")
        slope = float(np.sum(dx * (y - ym))) / sxx
        intercept = float(ym - slope * xm)
        resid = y - (slope * x + intercept)
        rss = float(np.sum(resid * resid))
    return slope, intercept, rss, sxx


def fit_power_law(ln_eta, ln_phi) -> PowerLawSegment:
    """Fit phi = K * eta**p by OLS of a ln phi against a ln eta column.
    Columns of two lengths, a value that is not finite, or sums that
    overflow (a prefactor outside the float range) are a FitError."""
    ln_eta, ln_phi = as_columns(FitError, ln_eta=ln_eta, ln_phi=ln_phi)
    check_values(FitError, "finite", ln_eta=ln_eta, ln_phi=ln_phi)
    n = len(ln_eta)
    if n < 3:
        raise FitError(f"power-law fit needs at least 3 points, got {n}")
    slope, intercept, rss, sxx = _ols(ln_eta, ln_phi)
    stderr = math.sqrt(max(rss, 0.0) / (n - 2) / sxx)
    try:
        prefactor = math.exp(intercept)
    except OverflowError:
        prefactor = math.inf
    if not 0.0 < prefactor < math.inf:
        raise FitError(f"fitted prefactor exp({intercept!r}) is outside the "
                       "float range")
    return PowerLawSegment(
        prefactor=prefactor,
        exponent=slope,
        ln_eta_range=(float(ln_eta[0]), float(ln_eta[-1])),
        n_points=n,
        rss=rss,
        stderr_exponent=stderr,
    )


def _segment_fit(m, sx, sy, sxx, sxy, syy):
    """RSS, slope and intercept at x = 0 of the OLS line through m points,
    from their raw moment sums."""
    cxx = sxx - sx * sx / m
    cxy = sxy - sx * sy / m
    slope = cxy / cxx
    return syy - sy * sy / m - cxy * cxy / cxx, slope, (sy - slope * sx) / m


def _split_scores(ln_eta: np.ndarray, ln_phi: np.ndarray, min_seg: int):
    """The admissible splits k, each one's approximate total RSS and the
    tie band delta, as ``fit_log_broken_line`` states them."""
    n = len(ln_eta)
    x = ln_eta - ln_eta.mean()
    y = ln_phi - ln_phi.mean()
    terms = np.array([x, y, x * x, x * y, y * y])
    ahead = np.cumsum(terms, axis=1)
    behind = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    ks = np.arange(min_seg, n - min_seg + 1)
    m = np.array([ks, n - ks])
    # sums[0] over the first k samples of each split, sums[1] over the rest
    sums = np.array([ahead[:, min_seg - 1:n - min_seg],
                     behind[:, min_seg:n - min_seg + 1]]).swapaxes(0, 1)
    with np.errstate(all="ignore"):    # a segment of near-equal ln eta
        rss, slope, at = _segment_fit(m, *sums)
        size = (sums[4] + m * at * at + slope * slope * sums[2]).sum(axis=0)
        scale = (np.abs(ln_phi).max()
                 + np.abs(slope).max() * np.abs(ln_eta).max())
        eps = np.finfo(float).eps
        bound = (2 * (n + 4) * eps * size.max()
                 + eps * scale * np.sqrt(n * ahead[4, -1])
                 + n * (n * eps * scale) ** 2)
    return ks, rss[0] + rss[1], 2.0 * bound


DEFAULT_MIN_SEG = 3


def fit_log_broken_line(ln_eta: np.ndarray, ln_phi: np.ndarray,
                        min_seg: int = DEFAULT_MIN_SEG) -> BrokenLineFit:
    """Two-segment broken-line fit of a ln phi against a ln eta column, by
    least total residual sum of squares.

    Every split index k in [min_seg, n - min_seg] is admissible; both parts
    are fitted independently (no continuity constraint).

    Scores.  ln eta and ln phi are centred once (x, y).  Running sums of
    x, y, x**2, x*y and y**2, forward from the first sample for the first
    segment and backward from the last for the second, give each
    segment's RSS as S_yy - S_xy**2 / S_xx, so every split is scored once,
    in O(n).

    Rule.  Every split whose score lies within delta of the least score
    ties with it.  Among the ties the split whose boundary is nearest the
    middle of the ln eta span wins, then the smaller k.  Only the winner's
    segments are fitted, with ``fit_power_law``: two calls on every input.
    A score or delta that is not a number (a segment whose ln eta values
    agree to rounding) makes every split tie.

    Band.  delta = 2 E, where E bounds |score - exact total| at every
    split, the exact total being the sum of the two ``fit_power_law``
    RSS there:

        E = 2 (n + 4) eps M + eps scale sqrt(n S) + n (n eps scale)**2

    with S = sum(y**2); M the largest, over the splits, of the sum over
    both segments of sum(y**2) + m a**2 + b**2 sum(x**2), each taken over
    the segment's m samples, b its slope and a its intercept at x = 0;
    and scale = max|ln phi| + max|b| max|ln eta|.
    - Scores: to first order, errors dS in a segment's moment sums move
      its RSS by dS_yy - 2a dS_y - 2b dS_xy + 2ab dS_x + b**2 dS_xx (the
      derivative of the minimum over the line).  A running sum over m
      samples errs by at most m u times its terms' summed magnitudes
      (u = eps / 2), and the score's own operations add about 4u, so the
      two scores err by at most (n + 4) u sum((|y| + |a| + |b x|)**2)
      <= 3 (n + 4) u M.
    - Exact totals: their summation and the residuals' own size add at
      most (n + 4) u S <= (n + 4) u M; the rounding of each residual r,
      at most u scale, adds 2 u scale sum|r| <= eps scale sqrt(n S); the
      fitted coefficients' errors act only to second order (the normal
      equations cancel the first) and add at most n (n eps scale)**2.
    Measured |score - exact total| stays within 0.4 E on 20000 drawn
    test profiles and within 0.03 E on the benchmark corpora.

    Resolution.  Splits whose exact totals differ by less than delta tie
    by definition, whichever is least.  On a noiseless single power law
    every split ties and the middle one wins.  On a noiseless two-law
    profile of 12677 samples 7 or 8 splits around the break tie, and the
    winner lies 3 or 4 samples from the least exact total.  Noise widens
    delta through the steep slopes of short end segments, but it stays
    far below the gaps between noisy splits' totals.

    ``break_ln_eta`` is the intersection of the two fitted lines when it
    falls inside the data span, else the midpoint of ln eta between the
    two boundary samples.  Columns of two lengths, a value that is not
    finite, or min_seg first or last ln eta values that are all equal are
    a FitError.
    """
    ln_eta, ln_phi = as_columns(FitError, ln_eta=ln_eta, ln_phi=ln_phi)
    check_values(FitError, "finite", ln_eta=ln_eta, ln_phi=ln_phi)
    n = len(ln_eta)
    check_count("min_seg", min_seg, 3, FitError)
    if n < 2 * min_seg:
        raise FitError(
            f"broken-line fit needs at least {2 * min_seg} points, got {n}")
    for end in (ln_eta[:min_seg], ln_eta[-min_seg:]):
        if len(set(end.tolist())) == 1:
            raise FitError("degenerate fit: all ln eta values are equal")

    ks, scores, delta = _split_scores(ln_eta, ln_phi, min_seg)
    ties = ks[~(scores > scores.min() + delta)]   # nan: every split ties
    boundary = 0.5 * (ln_eta[ties - 1] + ln_eta[ties])
    nearest = np.argmin(np.abs(boundary - 0.5 * (ln_eta[0] + ln_eta[-1])))
    k = int(ties[nearest])
    seg1 = fit_power_law(ln_eta[:k], ln_phi[:k])
    seg2 = fit_power_law(ln_eta[k:], ln_phi[k:])
    break_ln_eta = boundary[nearest]
    if seg1.exponent != seg2.exponent:
        xi = ((math.log(seg1.prefactor) - math.log(seg2.prefactor))
              / (seg2.exponent - seg1.exponent))
        if ln_eta[0] <= xi <= ln_eta[-1]:
            break_ln_eta = xi

    return BrokenLineFit(
        region1=seg1,
        region2=seg2,
        break_ln_eta=float(break_ln_eta),
        total_rss=seg1.rss + seg2.rss,
        split_index=k,
    )


def fit_broken_line(eta, phi, min_seg: int = DEFAULT_MIN_SEG) -> BrokenLineFit:
    """``fit_log_broken_line`` of the libm ``math.log`` of two positive
    columns of one length.  Columns of two lengths are a FitError, and a
    value that is not positive (nan included) or not finite a
    DomainError."""
    eta, phi = as_columns(FitError, eta=eta, phi=phi)
    check_values(DomainError, "positive", eta=eta, phi=phi)
    check_values(DomainError, "finite", eta=eta, phi=phi)
    return fit_log_broken_line(libm_column(math.log, eta),
                               libm_column(math.log, phi), min_seg)


def significant_break(fit: BrokenLineFit, z: float = 2.0) -> bool:
    """Whether the two fitted exponents differ by more than z combined
    standard errors (strict inequality).

    Guards against reporting a second region when the outer structure is
    not actually revealed by the data.  A ``z`` that is not >= 0 is a
    ValidationError (an infinite ``z`` is an infinite band).
    """
    check_values(ValidationError, ">= 0", z=check_real("z", z))
    gap = abs(fit.region1.exponent - fit.region2.exponent)
    combined = math.hypot(fit.region1.stderr_exponent,
                          fit.region2.stderr_exponent)
    return gap > z * combined + _SIGNIFICANCE_FLOOR
