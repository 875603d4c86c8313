"""Effective-Reynolds-number extraction and universal-collapse diagnostics.

A region-(I) power-law fit phi = A * eta**alpha yields two independent
estimates of the effective Reynolds number,

    ln Re_1 = sqrt(3) * (A - 5/2)        (from the prefactor)
    ln Re_2 = 3 / (2 alpha)              (from the exponent)

whose agreement is the consistency test of the scaling law.  The universal
transform

    psi = (1/alpha) * ln(2 alpha phi / (sqrt(3) + 5 alpha))

maps scaling-law data onto the bisectrix psi = ln eta; systematic downward
shifts of the points signal wall roughness or free-stream turbulence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .profiles import (as_columns, check_real, check_values, freeze_columns,
                       libm_column)
from .scaling import SQRT3, alpha_of_ln_re

DEFAULT_CONSISTENCY_TOL = 0.03
DEFAULT_SHIFT_TOL = 0.1

COLLAPSED = "collapsed"
SHIFTED_BELOW = "shifted_below"
SHIFTED_ABOVE = "shifted_above"


@dataclass(frozen=True)
class ReynoldsDiagnostics:
    ln_re1: float
    ln_re2: float
    ln_re_mean: float
    rel_discrepancy: float
    consistent: bool
    re_theta_over_re: float | None = None


@dataclass(frozen=True, eq=False)
class UniversalSeries:
    """The universal collapse as two read-only float64 columns of one
    length, ``ln_eta`` and ``psi``, with bisectrix-deviation statistics.

    ``mean_shift`` is the mean of (ln eta - psi): positive means the
    points lie below the bisectrix.  ``rms_scatter`` is the rms of the
    deviations about the mean shift.
    """

    ln_eta: np.ndarray
    psi: np.ndarray
    mean_shift: float
    rms_scatter: float

    def __post_init__(self):
        freeze_columns(self, "ln_eta", "psi")


def ln_re1_from_prefactor(a: float) -> float:
    """Solve (1/sqrt(3)) ln Re_1 + 5/2 = A for ln Re_1."""
    a = check_real("prefactor", a, DomainError)
    if not a > 2.5:
        raise DomainError(
            f"prefactor {a!r} <= 5/2: region-I fit inconsistent with the scaling law")
    check_values(DomainError, "finite", prefactor=a)
    return SQRT3 * (a - 2.5)


def ln_re2_from_exponent(alpha: float) -> float:
    """Solve 3 / (2 ln Re_2) = alpha for ln Re_2."""
    alpha = check_real("alpha", alpha, DomainError)
    check_values(DomainError, "positive and finite", alpha=alpha)
    return alpha_of_ln_re(alpha)


def combine_reynolds(ln_re1: float, ln_re2: float,
                     re_theta: float | None = None,
                     tol: float = DEFAULT_CONSISTENCY_TOL) -> ReynoldsDiagnostics:
    """Mean Reynolds estimate ln Re = (ln Re_1 + ln Re_2)/2 with a
    consistency verdict on the relative discrepancy |ln Re_1 - ln Re_2| / ln Re.

    Raises DomainError when an estimate is not positive, when ``re_theta``
    is not positive and finite, or when Re = exp(ln Re) overflows and so
    Re_theta/Re has no value, and ValidationError when ``tol`` is not
    >= 0 (an infinite tolerance is an infinite band)."""
    ln_re1 = check_real("ln_re1", ln_re1, DomainError)
    ln_re2 = check_real("ln_re2", ln_re2, DomainError)
    check_values(ValidationError, ">= 0", tol=check_real("tol", tol))
    check_values(DomainError, "positive", ln_re1=ln_re1, ln_re2=ln_re2)
    mean = 0.5 * (ln_re1 + ln_re2)
    rel = abs(ln_re1 - ln_re2) / mean
    ratio = None
    if re_theta is not None:
        re_theta = check_real("re_theta", re_theta, DomainError)
        check_values(DomainError, "positive and finite", re_theta=re_theta)
        try:
            ratio = re_theta / math.exp(mean)
        except OverflowError:
            raise DomainError(f"ln Re = {mean!r} is too large: exp(ln Re) "
                              "overflows, so Re_theta/Re has no value") from None
    return ReynoldsDiagnostics(
        ln_re1=ln_re1,
        ln_re2=ln_re2,
        ln_re_mean=mean,
        rel_discrepancy=rel,
        consistent=rel <= tol,
        re_theta_over_re=ratio,
    )


def psi_transform(phi: float, alpha: float) -> float:
    """Universal coordinate psi = (1/alpha) ln(2 alpha phi / (sqrt(3) + 5 alpha)).

    Exact inverse of the scaling law: feeding phi evaluated from the law
    with the matching alpha returns ln eta.  A log argument that is not
    positive and finite (0 for a tiny phi, inf for a huge one) is a
    DomainError."""
    phi = check_real("phi", phi, DomainError)
    alpha = check_real("alpha", alpha, DomainError)
    check_values(DomainError, "positive", phi=phi, alpha=alpha)
    argument = 2.0 * alpha * phi / (SQRT3 + 5.0 * alpha)
    if not 0 < argument < math.inf:
        raise DomainError(f"psi has no value at phi={phi!r}, alpha={alpha!r}:"
                          f" its log argument is {argument!r}")
    return math.log(argument) / alpha


def universal_series(ln_eta: np.ndarray, phi: np.ndarray,
                     alpha: float) -> UniversalSeries:
    """Map region-(I) samples, given as ln eta and phi columns of one
    nonzero length, to (ln eta, psi) and measure the bisectrix shift.

    ln eta - psi is the turbulence-shift abscissa: 0 for a point on the
    law with this alpha, positive below the bisectrix, which is where
    free-stream turbulence or roughness moves a point.  One columnar pass
    (libm ``math.log``, Python sums in row order, squares as products, not
    libm ``pow``) gives the per-point values bit for bit; the first sample
    ``psi_transform`` rejects raises its error.  No samples, or a tiny
    alpha for which psi or the rms scatter overflows, is a DomainError."""
    ln_eta, phi = as_columns(DomainError, ln_eta=ln_eta, phi=phi)
    alpha = check_real("alpha", alpha, DomainError)
    check_values(DomainError, "finite", ln_eta=ln_eta)
    if not len(phi):
        raise DomainError("cannot build a universal series from no samples")
    with np.errstate(all="ignore"):
        argument = 2.0 * alpha * phi / (SQRT3 + 5.0 * alpha)
        valid = (argument > 0) & (argument < math.inf)
        if not (alpha > 0 and valid.all()):
            # the scalar reference raises the error of the first bad sample
            psi_transform(phi[valid.argmin() if alpha > 0 else 0].item(),
                          alpha)
        psi = libm_column(math.log, argument) / alpha
        deviations = (ln_eta - psi).tolist()
    mean_shift = sum(deviations) / len(deviations)
    rms = math.sqrt(sum((d - mean_shift) * (d - mean_shift)
                        for d in deviations) / len(deviations))
    if rms == math.inf or np.isinf(psi).any():
        raise DomainError(f"alpha={alpha!r} is too small: psi or the rms of "
                          "ln eta - psi overflows")
    return UniversalSeries(ln_eta=ln_eta, psi=psi, mean_shift=mean_shift,
                           rms_scatter=rms)


def build_universal_series(eta, phi, alpha: float) -> UniversalSeries:
    """``universal_series`` of the libm ``math.log`` of eta; no samples,
    columns of two lengths or an eta that is not positive, then one that
    is not finite, is a DomainError."""
    eta, phi = as_columns(DomainError, eta=eta, phi=phi)
    check_values(DomainError, "positive", eta=eta)
    check_values(DomainError, "finite", eta=eta)
    return universal_series(libm_column(math.log, eta), phi, alpha)


def classify_shift(series: UniversalSeries,
                   shift_tol: float = DEFAULT_SHIFT_TOL) -> str:
    """Classify a universal series as collapsed onto the bisectrix, shifted
    below it (the roughness/turbulence signature), or shifted above.
    A ``shift_tol`` that is not >= 0 is a ValidationError (an infinite
    tolerance is an infinite band)."""
    check_values(ValidationError, ">= 0",
                 shift_tol=check_real("shift_tol", shift_tol))
    if abs(series.mean_shift) <= shift_tol:
        return COLLAPSED
    if series.mean_shift > shift_tol:
        return SHIFTED_BELOW
    return SHIFTED_ABOVE
