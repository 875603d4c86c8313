"""Synthetic velocity-profile generator.

Builds profiles from the closed-form laws: a two-region broken power law
(continuous at the break), an optional parallel shift in universal
coordinates emulating roughness or free-stream turbulence, multiplicative
lognormal noise, and an optional trailing free-stream plateau.  These
profiles serve as the independent oracle for the fitting and diagnostic
code.

Randomness comes from ``numpy.random.default_rng`` (PCG64); a fixed seed
reproduces the byte-level stream across platforms.  With noise_sigma = 0
no random draw is consumed at all.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .profiles import (ProfileMetadata, VelocityProfile, check_count,
                       check_pair, check_real, check_values, libm_column,
                       parse_value, read_lines, split_key_value)
from .scaling import alpha_of_ln_re, grid, prefactor_of_ln_re

_LN_MAX = math.log(np.finfo(float).max)    # the largest x with a finite exp


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic profile.

    ``ln_re`` fixes the region-I prefactor and exponent through the
    scaling law; ``beta`` is the region-II exponent; the region-II
    prefactor is chosen so the profile is continuous at the break.
    ``shift`` is a downward offset in universal coordinates, injected as
    the factor exp(-alpha * shift) on region-I phi.  ``plateau_points``
    trailing samples are pinned to the last pre-plateau phi.
    """

    ln_re: float
    break_ln_eta: float
    ln_eta_range: tuple[float, float]
    n_points: int
    beta: float = 0.2
    noise_sigma: float = 0.0
    shift: float = 0.0
    plateau_points: int = 0
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        lo, hi = check_pair("ln_eta_range", self.ln_eta_range)
        reals = {name: check_real(name, getattr(self, name))
                 for name in ("ln_re", "break_ln_eta", "beta", "shift")}
        check_values(ValidationError, "finite", ln_eta_min=lo, ln_eta_max=hi,
                     **reals)
        check_values(ValidationError, "finite and >= 0", noise_sigma=(
            check_real("noise_sigma", self.noise_sigma)))
        check_count("seed", self.seed, 0)
        check_values(ValidationError, "positive", ln_re=reals["ln_re"])
        if not lo < hi:
            raise ValidationError(f"invalid ln_eta_range {self.ln_eta_range!r}")
        if not lo < self.break_ln_eta < hi:
            raise ValidationError(
                f"break_ln_eta {self.break_ln_eta!r} outside ln_eta_range")
        check_count("n_points", self.n_points, 8)
        check_count("plateau_points", self.plateau_points, 0)
        if not self.plateau_points <= self.n_points - 4:
            raise ValidationError(
                f"plateau_points must be in [0, n_points - 4], "
                f"got {self.plateau_points}")
        for name, exponent in (
                ("eta = exp(ln_eta_max)", hi),
                ("the continuity factor exp(break_ln_eta * (alpha - beta))",
                 self.break_ln_eta * (self.alpha - self.beta)),
                ("the shift factor exp(-alpha * shift)",
                 -self.alpha * self.shift)):
            try:
                math.exp(exponent)
            except OverflowError:
                raise ValidationError(f"{name} overflows: exponent "
                                      f"{exponent!r} is too large") from None
        ProfileMetadata(label=self.label)   # a label must be one line

    @property
    def alpha(self) -> float:
        return alpha_of_ln_re(self.ln_re)

    @property
    def prefactor(self) -> float:
        return prefactor_of_ln_re(self.ln_re)


def generate(spec: SynthSpec) -> VelocityProfile:
    """Generate one profile; deterministic for a fixed spec."""
    lo, hi = spec.ln_eta_range
    ln_eta = grid(lo, hi, spec.n_points)
    alpha = spec.alpha
    a = spec.prefactor
    # Continuity at the break: B = A * exp(break * (alpha - beta)).
    b = a * math.exp(spec.break_ln_eta * (alpha - spec.beta))
    inner = ln_eta < spec.break_ln_eta
    # A phi that overflows to inf, or is nan as 0 * inf (a prefactor b
    # that underflows to 0 times an exp that overflows), is reported by
    # VelocityProfile's check, without a numpy warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.where(inner, a, b) * _exp(
            np.where(inner, alpha, spec.beta) * ln_eta)
        if spec.shift != 0.0:
            phi = np.where(inner, phi * math.exp(-alpha * spec.shift), phi)
        if spec.noise_sigma > 0.0:
            rng = np.random.default_rng(spec.seed)
            phi = phi * _exp(rng.normal(0.0, spec.noise_sigma,
                                        spec.n_points))
    if spec.plateau_points > 0:
        phi[-spec.plateau_points:] = phi[-spec.plateau_points - 1]

    label = spec.label or (f"synth lnRe={spec.ln_re:g} beta={spec.beta:g} "
                           f"seed={spec.seed}")
    return VelocityProfile(libm_column(math.exp, ln_eta), phi,
                           ProfileMetadata(label=label))


def _exp(x: np.ndarray) -> np.ndarray:
    # math.exp raises OverflowError where exp(x) is inf, and exp(inf) = inf
    return libm_column(math.exp, np.where(x > _LN_MAX, math.inf, x))


def generate_ensemble(spec: SynthSpec, n_realizations: int) -> list[VelocityProfile]:
    """n_realizations profiles with seeds seed, seed+1, ...; deterministic."""
    check_count("n_realizations", n_realizations, 1)
    if n_realizations > sys.maxsize:
        raise ValidationError("n_realizations must be at most sys.maxsize")
    return [generate(replace(spec, seed=spec.seed + i))
            for i in range(n_realizations)]


_SPEC_KEYS = {
    "ln_re": float,
    "beta": float,
    "break_ln_eta": float,
    "ln_eta_min": float,
    "ln_eta_max": float,
    "n_points": int,
    "noise_sigma": float,
    "shift": float,
    "plateau_points": int,
    "seed": int,
    "label": str,
}
_REQUIRED_SPEC_KEYS = ("ln_re", "break_ln_eta", "ln_eta_min", "ln_eta_max",
                       "n_points")


def load_synth_spec(path) -> SynthSpec:
    """Parse a key=value spec file (``#`` comments and blank lines allowed)."""
    path = Path(path)
    raw: dict = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, value = split_key_value(text, _SPEC_KEYS, "spec key", path,
                                     lineno)
        raw[key] = parse_value(_SPEC_KEYS[key], key, value.strip(), path,
                               lineno)
    missing = [k for k in _REQUIRED_SPEC_KEYS if k not in raw]
    if missing:
        raise ValidationError(f"{path}: missing spec keys {missing}")
    lo = raw.pop("ln_eta_min")
    hi = raw.pop("ln_eta_max")
    return SynthSpec(ln_eta_range=(lo, hi), **raw)
