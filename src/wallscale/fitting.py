"""Power-law and two-segment broken-line regression in log-log coordinates.

All fits are unweighted ordinary least squares of ln phi against ln eta;
a power law phi = K * eta**p is a straight line there.  The two-segment
fit identifies the inner region (I) and the outer region (II) of a
velocity profile by the split position with the least total residual sum
of squares.  Every split is scored in O(n) from cumulative sums of the
centred coordinates; only the splits within a rounding margin of the best
score are refitted exactly, so the result equals that of an exhaustive
search that refits both segments at every split.

The fits read log columns: ``fit_log_broken_line`` takes ln eta and
ln phi as ``select_intermediate`` hands them on, and ``fit_broken_line``
takes the libm logarithms of eta and phi and calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .profiles import check_count, check_positive, libm_column

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
        return math.log(self.prefactor) + self.exponent * np.asarray(ln_eta, dtype=float)


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
    """Fit phi = K * eta**p by OLS of a ln phi against a ln eta column."""
    n = len(ln_eta)
    if len(ln_phi) != n:
        raise FitError(f"ln_eta and ln_phi differ in length: {n} and "
                       f"{len(ln_phi)}")
    if n < 3:
        raise FitError(f"power-law fit needs at least 3 points, got {n}")
    slope, intercept, rss, sxx = _ols(np.asarray(ln_eta, dtype=float),
                                      np.asarray(ln_phi, dtype=float))
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


def _segment_rss(m, sx, sy, sxx, sxy, syy):
    """RSS of the OLS line through m points from their raw moment sums."""
    cxx = sxx - sx * sx / m
    cxy = sxy - sx * sy / m
    cyy = syy - sy * sy / m
    return cyy - cxy * cxy / cxx


def _flat_runs(x: np.ndarray) -> np.ndarray:
    """flat[i] is True when x[:i + 1] are all equal."""
    return np.maximum.accumulate(x) == np.minimum.accumulate(x)


DEFAULT_MIN_SEG = 3


def fit_log_broken_line(ln_eta: np.ndarray, ln_phi: np.ndarray,
                        min_seg: int = DEFAULT_MIN_SEG) -> BrokenLineFit:
    """Two-segment broken-line fit of a ln phi against a ln eta column, by
    least total residual sum of squares.

    Every split index k in [min_seg, n - min_seg] is admissible; both parts
    are fitted independently (no continuity constraint) and the split with
    the smallest total RSS wins.  Ties are broken toward the split whose
    boundary is nearest the middle of the ln eta span, so the result is
    deterministic regardless of evaluation order.

    All splits are scored in one O(n) pass: ln eta and ln phi are centred
    once (x, y), and cumulative sums of x, y, x**2, x*y and y**2 with a
    leading zero give each segment's RSS as S_yy - S_xy**2 / S_xx from
    differences of those sums.  The differences cancel badly when the true
    RSS is near zero (noiseless or single-region data), and there the
    exact RSS is itself rounding noise that decides the winner.  So every
    split whose approximate total lies within a margin of the smallest,
    1e-9 * sum(y**2) + 1e-12 * |smallest| plus n * (1e-12 * s)**2 with s
    bounding the magnitude of _ols's intermediate values, is re-scored
    exactly with ``fit_power_law`` in order of k, as is every split with
    a segment of equal ln eta values.  The winner therefore comes from the
    same arithmetic as an exhaustive search and every field matches it;
    noisy profiles re-score one to a few splits, a noiseless single power
    law re-scores them all.

    ``break_ln_eta`` is the intersection of the two fitted lines when it
    falls inside the data span, else the midpoint of ln eta between the
    two boundary samples.  Both columns are float64 arrays, as
    ``select_intermediate`` hands them on.
    """
    n = len(ln_eta)
    if len(ln_phi) != n:
        raise FitError(f"ln_eta and ln_phi differ in length: {n} and "
                       f"{len(ln_phi)}")
    check_count("min_seg", min_seg, 3, FitError)
    if n < 2 * min_seg:
        raise FitError(
            f"broken-line fit needs at least {2 * min_seg} points, got {n}")

    mid = 0.5 * (ln_eta[0] + ln_eta[-1])

    x = ln_eta - ln_eta.mean()
    y = ln_phi - ln_phi.mean()
    sums = np.zeros((5, n + 1))
    np.cumsum(np.stack([x, y, x * x, x * y, y * y]), axis=1, out=sums[:, 1:])
    ks = np.arange(min_seg, n - min_seg + 1)
    head = sums[:, ks]
    tail = sums[:, n:] - head
    with np.errstate(divide="ignore", invalid="ignore"):
        approx = _segment_rss(ks, *head) + _segment_rss(n - ks, *tail)
        steepest = np.fmax.reduce(np.abs(np.diff(ln_phi) / np.diff(ln_eta)),
                                  initial=0.0)
    # A segment whose ln eta values are all equal makes _ols raise; keep
    # those splits in the exact pass so the FitError surfaces as before.
    exact = (_flat_runs(x)[ks - 1] | _flat_runs(x[::-1])[::-1][ks]
             | ~np.isfinite(approx))
    best_approx = np.min(approx[~exact], initial=np.inf)
    # Rounding floor of the exact RSS: _ols's residuals carry errors of
    # about eps * (|ln phi| + |slope * ln eta|), and no segment's slope
    # exceeds the steepest step between neighbouring samples.
    scale = np.max(np.abs(ln_phi)) + 2.0 * steepest * np.max(np.abs(ln_eta))
    margin = (1e-9 * sums[4, n] + 1e-12 * abs(best_approx)
              + n * (1e-12 * scale) ** 2)
    candidates = ks[exact | (approx <= best_approx + margin)]

    best = None  # (total_rss, dist_to_mid, k, seg1, seg2)
    for k in candidates.tolist():
        seg1 = fit_power_law(ln_eta[:k], ln_phi[:k])
        seg2 = fit_power_law(ln_eta[k:], ln_phi[k:])
        total = seg1.rss + seg2.rss
        boundary = 0.5 * (ln_eta[k - 1] + ln_eta[k])
        dist = abs(boundary - mid)
        if best is None or total < best[0] or (total == best[0] and dist < best[1]):
            best = (total, dist, k, seg1, seg2)

    total, _, k, seg1, seg2 = best
    break_ln_eta = 0.5 * (ln_eta[k - 1] + ln_eta[k])
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
    value that is not positive (nan included) a DomainError."""
    eta, phi = np.asarray(eta, dtype=float), np.asarray(phi, dtype=float)
    if len(eta) != len(phi):
        raise FitError(
            f"eta and phi differ in length: {len(eta)} and {len(phi)}")
    check_positive("eta", eta, DomainError)
    check_positive("phi", phi, DomainError)
    return fit_log_broken_line(libm_column(math.log, eta),
                               libm_column(math.log, phi), min_seg)


def significant_break(fit: BrokenLineFit, z: float = 2.0) -> bool:
    """Whether the two fitted exponents differ by more than z combined
    standard errors (strict inequality).

    Guards against reporting a second region when the outer structure is
    not actually revealed by the data.
    """
    gap = abs(fit.region1.exponent - fit.region2.exponent)
    combined = math.hypot(fit.region1.stderr_exponent,
                          fit.region2.stderr_exponent)
    return gap > z * combined + _SIGNIFICANCE_FLOOR
