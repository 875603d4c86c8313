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

from .errors import DomainError
from .fitting import _ols

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class LogLawParams:
    """Logarithmic law phi = ln(eta)/kappa + c_offset."""

    kappa: float
    c_offset: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise DomainError(f"kappa must be positive, got {self.kappa!r}")


@dataclass(frozen=True)
class EnvelopePoint:
    """One point of the lower envelope of the scaling-law family.

    ``ln_re_touch`` is the ln Re of the family member the envelope touches
    at this abscissa.
    """

    ln_eta: float
    phi_env: float
    ln_re_touch: float


def alpha_of_ln_re(ln_re):
    """Exponent of the scaling law, alpha = 3 / (2 ln Re).

    Accepts a scalar or a numpy array.  The map is its own inverse, so it
    also gives ln Re_2 from a fitted exponent.
    """
    positive = ln_re > 0
    if not (positive if isinstance(positive, bool) else np.all(positive)):
        raise DomainError(f"ln_re must be positive, got {ln_re!r}")
    return 3.0 / (2.0 * ln_re)


def prefactor_of_ln_re(ln_re):
    """Prefactor of the scaling law, A = ln Re / sqrt(3) + 5/2.

    Accepts a scalar or a numpy array.  A is finite for every finite ln Re,
    so no domain is checked here: every caller already holds ln Re > 0.
    """
    return ln_re / SQRT3 + 2.5


def scaling_law_phi(eta, ln_re):
    """Evaluate the scaling law (ln Re/sqrt(3) + 5/2) * eta**(3/(2 ln Re)).

    Accepts scalars or numpy arrays (broadcasting applies); scalar inputs
    return a plain float.
    """
    eta_a = np.asarray(eta, dtype=float)
    ln_re_a = np.asarray(ln_re, dtype=float)
    if not np.all(eta_a > 0):
        raise DomainError("eta must be positive")
    if not np.all(ln_re_a > 0):
        raise DomainError("ln_re must be positive")
    out = prefactor_of_ln_re(ln_re_a) * eta_a ** alpha_of_ln_re(ln_re_a)
    if np.isscalar(eta) and np.isscalar(ln_re):
        return float(out)
    return out


def log_law_phi(eta, params: LogLawParams):
    """Evaluate the logarithmic law ln(eta)/kappa + c_offset."""
    eta_a = np.asarray(eta, dtype=float)
    if not np.all(eta_a > 0):
        raise DomainError("eta must be positive")
    out = np.log(eta_a) / params.kappa + params.c_offset
    return float(out) if np.isscalar(eta) else out


def envelope_at(ln_eta: float) -> EnvelopePoint:
    """Lower envelope of the scaling-law family at fixed ln eta.

    For fixed x = ln eta the family member value
    phi(L) = (L/sqrt(3) + 5/2) * exp(1.5 x / L), L = ln Re, grows without
    bound both as L -> 0+ and as L -> infinity, so the envelope is the
    pointwise minimum over L.  Setting dphi/dL = 0 gives
    L**2 - 1.5 x L - (15 sqrt(3)/4) x = 0, whose positive root

        L* = (1.5 x + sqrt(2.25 x**2 + 15 sqrt(3) x)) / 2

    is the touch point.  Both terms are positive for x > 0, so the sum
    cannot cancel.  Above ln eta of about 8.9e153 the square overflows, and
    such an abscissa is a DomainError.
    """
    if not 0 < ln_eta < math.inf:
        raise DomainError(f"ln_eta must be positive and finite, got {ln_eta!r}")
    x = float(ln_eta)
    ln_re_touch = (1.5 * x + math.sqrt(2.25 * x * x + 15.0 * SQRT3 * x)) / 2.0
    if ln_re_touch == math.inf:
        raise DomainError(f"ln_eta must be below about 8.9e153 for a finite "
                          f"envelope touch point, got {ln_eta!r}")
    phi_env = prefactor_of_ln_re(ln_re_touch) * math.exp(1.5 * x / ln_re_touch)
    return EnvelopePoint(ln_eta=x, phi_env=phi_env, ln_re_touch=ln_re_touch)


def fit_log_law(ln_eta, phi) -> LogLawParams:
    """Ordinary least squares of phi against ln eta, as effective log-law
    parameters: kappa = 1/slope, c_offset = intercept."""
    slope, intercept, _, _ = _ols(np.asarray(ln_eta, dtype=float),
                                  np.asarray(phi, dtype=float))
    if slope <= 0:
        raise DomainError(f"nonpositive slope {slope!r}, no effective kappa")
    return LogLawParams(kappa=1.0 / slope, c_offset=intercept)


def envelope_line_fit(ln_eta_range=(5.0, 10.0),
                      n_points: int = 50) -> LogLawParams:
    """Fit a straight line to the envelope over an ln eta range.

    Returns the effective logarithmic-law parameters of the envelope:
    the envelope in the (ln eta, phi) plane is close to a straight line
    with kappa near 0.4 and offset near 5.1.
    """
    if n_points < 10:
        raise DomainError(f"n_points must be at least 10, got {n_points}")
    lo, hi = float(ln_eta_range[0]), float(ln_eta_range[1])
    if not lo < hi:
        raise DomainError(f"invalid ln_eta range {ln_eta_range!r}")
    xs = np.linspace(lo, hi, n_points)
    ys = np.array([envelope_at(x).phi_env for x in xs])
    return fit_log_law(xs, ys)
