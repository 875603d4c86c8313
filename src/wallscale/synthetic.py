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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .profiles import ProfileMetadata, VelocityProfile, read_lines
from .scaling import alpha_of_ln_re, prefactor_of_ln_re


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
        lo, hi = self.ln_eta_range
        for name, value in (("ln_re", self.ln_re), ("ln_eta_min", lo),
                            ("ln_eta_max", hi),
                            ("break_ln_eta", self.break_ln_eta),
                            ("beta", self.beta),
                            ("noise_sigma", self.noise_sigma),
                            ("shift", self.shift)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not self.ln_re > 0:
            raise ValidationError(f"ln_re must be positive, got {self.ln_re!r}")
        if not lo < hi:
            raise ValidationError(f"invalid ln_eta_range {self.ln_eta_range!r}")
        if not lo < self.break_ln_eta < hi:
            raise ValidationError(
                f"break_ln_eta {self.break_ln_eta!r} outside ln_eta_range")
        if self.n_points < 8:
            raise ValidationError(
                f"n_points must be at least 8, got {self.n_points}")
        if self.noise_sigma < 0:
            raise ValidationError(
                f"noise_sigma must be nonnegative, got {self.noise_sigma!r}")
        if not 0 <= self.plateau_points <= self.n_points - 4:
            raise ValidationError(
                f"plateau_points must be in [0, n_points - 4], "
                f"got {self.plateau_points}")

    @property
    def alpha(self) -> float:
        return alpha_of_ln_re(self.ln_re)

    @property
    def prefactor(self) -> float:
        return prefactor_of_ln_re(self.ln_re)


def generate(spec: SynthSpec) -> VelocityProfile:
    """Generate one profile; deterministic for a fixed spec."""
    lo, hi = spec.ln_eta_range
    ln_eta = np.linspace(lo, hi, spec.n_points)
    alpha = spec.alpha
    a = spec.prefactor
    # Continuity at the break: B = A * exp(break * (alpha - beta)).
    b = a * math.exp(spec.break_ln_eta * (alpha - spec.beta))
    inner = ln_eta < spec.break_ln_eta
    phi = np.where(inner,
                   a * np.exp(alpha * ln_eta),
                   b * np.exp(spec.beta * ln_eta))
    if spec.shift != 0.0:
        phi = np.where(inner, phi * math.exp(-alpha * spec.shift), phi)
    if spec.noise_sigma > 0.0:
        rng = np.random.default_rng(spec.seed)
        phi = phi * np.exp(rng.normal(0.0, spec.noise_sigma, spec.n_points))
    if spec.plateau_points > 0:
        phi[-spec.plateau_points:] = phi[-spec.plateau_points - 1]

    label = spec.label or (f"synth lnRe={spec.ln_re:g} beta={spec.beta:g} "
                           f"seed={spec.seed}")
    metadata = ProfileMetadata(
        label=label,
        re_theta=None,
        turbulence_level=None,
    )
    eta = [math.exp(x) for x in ln_eta.tolist()]
    return VelocityProfile(eta, phi, metadata)


def generate_ensemble(spec: SynthSpec, n_realizations: int) -> list[VelocityProfile]:
    """n_realizations profiles with seeds seed, seed+1, ...; deterministic."""
    if n_realizations < 1:
        raise ValidationError(
            f"n_realizations must be at least 1, got {n_realizations}")
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
        if "=" not in text:
            raise ParseError("expected key=value", path=path, line=lineno)
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SPEC_KEYS:
            raise ParseError(f"unknown spec key {key!r}", path=path, line=lineno)
        caster = _SPEC_KEYS[key]
        try:
            raw[key] = caster(value)
        except ValueError:
            raise ParseError(f"cannot parse {key} value {value!r}",
                             path=path, line=lineno) from None
    missing = [k for k in _REQUIRED_SPEC_KEYS if k not in raw]
    if missing:
        raise ValidationError(f"{path}: missing spec keys {missing}")
    lo = raw.pop("ln_eta_min")
    hi = raw.pop("ln_eta_max")
    return SynthSpec(ln_eta_range=(lo, hi), **raw)
