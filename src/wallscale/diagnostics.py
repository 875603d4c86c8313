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

from .errors import DomainError
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


@dataclass(frozen=True)
class UniversalSeries:
    """(ln eta, psi) pairs with bisectrix-deviation statistics.

    ``mean_shift`` is the mean of (ln eta - psi): positive means the
    points lie below the bisectrix.  ``rms_scatter`` is the rms of the
    deviations about the mean shift.
    """

    points: tuple[tuple[float, float], ...]
    mean_shift: float
    rms_scatter: float


def ln_re1_from_prefactor(a: float) -> float:
    """Solve (1/sqrt(3)) ln Re_1 + 5/2 = A for ln Re_1."""
    if not a > 2.5:
        raise DomainError(
            f"prefactor {a!r} <= 5/2: region-I fit inconsistent with the scaling law")
    return SQRT3 * (a - 2.5)


def ln_re2_from_exponent(alpha: float) -> float:
    """Solve 3 / (2 ln Re_2) = alpha for ln Re_2."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    return alpha_of_ln_re(alpha)


def combine_reynolds(ln_re1: float, ln_re2: float,
                     re_theta: float | None = None,
                     tol: float = DEFAULT_CONSISTENCY_TOL) -> ReynoldsDiagnostics:
    """Mean Reynolds estimate ln Re = (ln Re_1 + ln Re_2)/2 with a
    consistency verdict on the relative discrepancy |ln Re_1 - ln Re_2| / ln Re.

    Raises DomainError when Re = exp(ln Re) overflows and so Re_theta/Re
    has no value."""
    if not (ln_re1 > 0 and ln_re2 > 0):
        raise DomainError("ln_re1 and ln_re2 must be positive")
    mean = 0.5 * (ln_re1 + ln_re2)
    rel = abs(ln_re1 - ln_re2) / mean
    ratio = None
    if re_theta is not None:
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
    with the matching alpha returns ln eta.
    """
    if not phi > 0:
        raise DomainError(f"phi must be positive, got {phi!r}")
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    return math.log(2.0 * alpha * phi / (SQRT3 + 5.0 * alpha)) / alpha


def build_universal_series(eta, phi, alpha: float) -> UniversalSeries:
    """Map region-(I) samples, given as eta and phi columns, to
    (ln eta, psi) and measure the bisectrix shift."""
    if len(eta) == 0:
        raise DomainError("cannot build a universal series from no samples")
    points = tuple((math.log(e), psi_transform(p, alpha))
                   for e, p in zip(np.asarray(eta, dtype=float).tolist(),
                                   np.asarray(phi, dtype=float).tolist()))
    deviations = [ln_eta - psi for ln_eta, psi in points]
    mean_shift = sum(deviations) / len(deviations)
    rms = math.sqrt(sum((d - mean_shift) ** 2 for d in deviations)
                    / len(deviations))
    return UniversalSeries(points=points, mean_shift=mean_shift, rms_scatter=rms)


def turbulence_shift_x(eta: float, phi: float, ln_re: float) -> float:
    """Abscissa x = ln eta - psi at the given effective Reynolds number.

    Exact scaling-law points give x = 0; deviations reflect free-stream
    turbulence (or roughness) raising the effective viscosity.
    """
    if not eta > 0:
        raise DomainError(f"eta must be positive, got {eta!r}")
    return math.log(eta) - psi_transform(phi, alpha_of_ln_re(ln_re))


def classify_shift(series: UniversalSeries,
                   shift_tol: float = DEFAULT_SHIFT_TOL) -> str:
    """Classify a universal series as collapsed onto the bisectrix, shifted
    below it (the roughness/turbulence signature), or shifted above."""
    if abs(series.mean_shift) <= shift_tol:
        return COLLAPSED
    if series.mean_shift > shift_tol:
        return SHIFTED_BELOW
    return SHIFTED_ABOVE
