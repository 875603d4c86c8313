"""Closed-form mean-velocity laws and the envelope of the scaling family.

The inner self-similar region of a wall-bounded turbulent shear flow follows
a Reynolds-number-dependent power law

    phi = (ln Re / sqrt(3) + 5/2) * eta**(3 / (2 ln Re))

in wall units (eta = u_* y / nu, phi = u / u_*).  This module houses that
law, the classical logarithmic law it is often mistaken for, and the
lower envelope of the one-parameter family of scaling curves.  With
L = ln Re and x = ln eta, the envelope touches the family member whose L
solves dphi/dL = 0, i.e. L**2 - 1.5 x L - (15 sqrt(3)/4) x = 0, so it is
known in closed form.  Natural logarithms are used everywhere internally;
base-10 appears only at presentation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, ValidationError
from .fitting import _ols
from .profiles import (as_columns, check_count, check_pair, check_real,
                       check_values, freeze_columns, libm_column,
                       real_or_column)

SQRT3 = math.sqrt(3.0)
EPS = float(np.finfo(float).eps)

# The most points an evenly spaced grid may have.  Their float64 array
# alone takes 2**62 bytes, which no host can allocate; above about 2**60
# numpy refuses a count with a ValueError or an IndexError, depending on
# the count, instead of a MemoryError.
MAX_POINTS = 2**59


@dataclass(frozen=True)
class LogLawParams:
    """Logarithmic law phi = ln(eta)/kappa + c_offset."""

    kappa: float
    c_offset: float

    def __post_init__(self):
        check_values(DomainError, "positive and finite",
                     kappa=check_real("kappa", self.kappa, DomainError))
        check_values(DomainError, "finite", c_offset=check_real(
            "c_offset", self.c_offset, DomainError))


# The classical logarithmic law the envelope is compared with.
CLASSICAL_LOG_LAW = LogLawParams(kappa=0.4, c_offset=5.1)


@dataclass(frozen=True)
class EnvelopePoint:
    """One point of the lower envelope of the scaling-law family.

    ``ln_re_touch`` is the ln Re of the family member the envelope touches
    at this abscissa.
    """

    ln_eta: float
    phi_env: float
    ln_re_touch: float


@dataclass(frozen=True, eq=False)
class EnvelopeCurve:
    """The envelope at many abscissae, as three columns of one length:
    row i is ``envelope_at(ln_eta[i])``.  The constructor stores each
    column as a read-only 1-D float64 array of its own."""

    ln_eta: np.ndarray
    phi_env: np.ndarray
    ln_re_touch: np.ndarray

    def __post_init__(self):
        freeze_columns(self, "ln_eta", "phi_env", "ln_re_touch")


def alpha_of_ln_re(ln_re):
    """Exponent of the scaling law, alpha = 3 / (2 ln Re) = 1.5 / ln Re.

    Accepts a real number or a column.  The map is its own inverse, so it
    also gives ln Re_2 from a fitted exponent.
    """
    (ln_re,) = real_or_column(DomainError, ln_re=ln_re)
    check_values(DomainError, "positive", ln_re=ln_re)
    with np.errstate(over="ignore"):    # a subnormal ln Re: alpha is inf
        return 1.5 / ln_re


def prefactor_of_ln_re(ln_re):
    """Prefactor of the scaling law, A = ln Re / sqrt(3) + 5/2.

    Accepts a real number or a column.  A is finite for every finite ln Re,
    so no domain is checked here: every caller already holds ln Re > 0.
    """
    (ln_re,) = real_or_column(DomainError, ln_re=ln_re)
    return ln_re / SQRT3 + 2.5


def scaling_law_phi(eta, ln_re):
    """Evaluate the scaling law (ln Re/sqrt(3) + 5/2) * eta**(3/(2 ln Re)).

    Accepts real numbers or columns of one length; two numbers return a
    float.  A value of the law that overflows is a DomainError.
    """
    eta, ln_re = real_or_column(DomainError, eta=eta, ln_re=ln_re)
    check_values(DomainError, "positive", eta=eta)
    with np.errstate(over="ignore"):
        out = prefactor_of_ln_re(ln_re) * np.power(eta, alpha_of_ln_re(ln_re))
    if not np.all(out < math.inf):
        raise DomainError("the scaling law overflows")
    return float(out) if np.ndim(out) == 0 else out


def log_law_phi(eta, params: LogLawParams):
    """Evaluate the logarithmic law ln(eta)/kappa + c_offset."""
    (eta,) = real_or_column(DomainError, eta=eta)
    check_values(DomainError, "positive", eta=eta)
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal kappa
        out = libm_column(math.log, eta) / params.kappa + params.c_offset
    return float(out) if np.ndim(out) == 0 else out


def envelope_at(ln_eta: float) -> EnvelopePoint:
    """Lower envelope of the scaling-law family at fixed ln eta.

    For fixed x = ln eta the family member value
    phi(L) = (L/sqrt(3) + 5/2) * exp(1.5 x / L), L = ln Re, grows without
    bound both as L -> 0+ and as L -> infinity, so the envelope is the
    pointwise minimum over L, found by ``solve_envelope``.  A ln eta that
    is not positive and finite, or above about 8.9e153, is a DomainError.
    """
    ln_eta = check_real("ln_eta", ln_eta, DomainError)
    check_values(DomainError, "positive and finite", ln_eta=ln_eta)
    curve = solve_envelope(np.array([ln_eta], dtype=np.float64))
    return EnvelopePoint(ln_eta=curve.ln_eta.item(),
                         phi_env=curve.phi_env.item(),
                         ln_re_touch=curve.ln_re_touch.item())


def solve_envelope(ln_eta: np.ndarray) -> EnvelopeCurve:
    """The envelope at every abscissa of a float64 array of positive,
    finite ln eta, in one pass over the array.

    Setting dphi/dL = 0 gives L**2 - 1.5 x L - (15 sqrt(3)/4) x = 0, whose
    positive root

        L* = (1.5 x + sqrt(2.25 x**2 + 15 sqrt(3) x)) / 2

    is the touch point, and the envelope is (L*/sqrt(3) + 5/2) *
    exp(1.5 x / L*).  Both terms of the sum are positive, so it cannot
    cancel.  numpy's + - * / and sqrt round correctly, as Python's do, and
    exp is ``math.exp`` (libm) per point through ``profiles.libm_column``,
    so every value is the scalar formula's, bit for bit.
    Above ln eta of about 8.9e153 the square overflows: the first such
    abscissa is a DomainError, without a numpy warning first.
    """
    x = ln_eta
    with np.errstate(over="ignore", invalid="ignore"):
        touch = (1.5 * x + np.sqrt(2.25 * x * x + 15.0 * SQRT3 * x)) / 2.0
    overflow = touch == math.inf
    if overflow.any():
        raise DomainError(f"ln_eta must be below about 8.9e153 for a finite "
                          f"envelope touch point, got "
                          f"{x[overflow.argmax()].item()!r}")
    growth = libm_column(math.exp, 1.5 * x / touch)
    return EnvelopeCurve(ln_eta=x, phi_env=prefactor_of_ln_re(touch) * growth,
                         ln_re_touch=touch)


def grid(lo: float, hi: float, n_points: int) -> np.ndarray:
    """``np.linspace(lo, hi, n_points)``.  A count above ``MAX_POINTS``
    is a ValidationError naming n_points before anything is computed, and
    so is a count whose array cannot be allocated.  For ``hi`` near the
    float maximum, linspace's (n - 1) * step may round up to inf before
    it sets the last point to ``hi``; that overflow is not reported.  A
    count that is not an integer >= 0 is a ValidationError too."""
    check_count("n_points", n_points, 0)
    if n_points > MAX_POINTS:
        raise ValidationError(
            f"n_points must be at most 2**59, got {n_points}")
    try:
        with np.errstate(over="ignore"):
            return np.linspace(lo, hi, n_points)
    except MemoryError:
        raise ValidationError(f"n_points {n_points}: not enough memory "
                              f"for that many points") from None


DEFAULT_ENVELOPE_RANGE = (5.0, 10.0)
DEFAULT_ENVELOPE_POINTS = 50


def envelope_curve(ln_eta_range, n_points: int) -> EnvelopeCurve:
    """The envelope at ``n_points`` evenly spaced ln eta over a range, in
    one ``solve_envelope`` pass.

    The range must be a pair of positive, finite real numbers, the first
    below the second, and ``n_points`` an integer of at least 10; anything
    else is a ValidationError, checked before anything is computed.
    """
    lo, hi = check_pair("ln_eta_range", ln_eta_range)
    check_count("n_points", n_points, 10)
    if not lo < hi:
        raise ValidationError(f"invalid ln_eta range {(lo, hi)!r}")
    for ln_eta in (lo, hi):
        check_values(ValidationError, "positive and finite", ln_eta=ln_eta)
    return solve_envelope(grid(lo, hi, n_points))


def fit_log_law(ln_eta, phi) -> LogLawParams:
    """Ordinary least squares of phi against ln eta, as effective log-law
    parameters: kappa = 1/slope, c_offset = intercept.  Sums that
    overflow, as ln eta near the envelope's 8.9e153 limit makes them, are
    a DomainError, without a numpy warning first.  So is an intercept
    ym - slope * xm (the means) whose rounding error, at most about
    4 eps (|ym| + |slope * xm|), may exceed 5e-5, half a unit of the 4th
    decimal the CLI prints: on the envelope, a mean ln eta above 1.2e10.
    Fewer than 2 points are a FitError."""
    x, y = as_columns(FitError, ln_eta=ln_eta, phi=phi)
    check_values(FitError, "finite", ln_eta=x, phi=y)
    if len(x) < 2:
        raise FitError(f"log-law fit needs at least 2 points, got {len(x)}")
    slope, intercept, _, _ = _ols(x, y)
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise DomainError(f"the line fit overflows: slope {slope!r}, "
                          f"intercept {intercept!r}")
    check_values(DomainError, "positive", slope=slope)
    error = 4 * EPS * (abs(float(y.mean())) + abs(slope * float(x.mean())))
    if error > 5e-5:
        raise DomainError(f"the line fit's offset C cancels: its rounding "
                          f"error may reach {error:.3g}, above 5e-05")
    return LogLawParams(kappa=1.0 / slope, c_offset=intercept)


def envelope_line_fit(ln_eta_range=DEFAULT_ENVELOPE_RANGE,
                      n_points: int = DEFAULT_ENVELOPE_POINTS) -> LogLawParams:
    """Fit a straight line to the envelope over an ln eta range.

    Returns the effective logarithmic-law parameters of the envelope:
    the envelope in the (ln eta, phi) plane is close to a straight line
    with kappa near 0.4 and offset near 5.1.  The arguments are checked as
    ``envelope_curve`` checks them.
    """
    curve = envelope_curve(ln_eta_range, n_points)
    return fit_log_law(curve.ln_eta, curve.phi_env)
