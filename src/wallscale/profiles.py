"""Velocity-profile loading, wall-unit normalization, and range selection.

Two text formats are supported (see the README for the grammar):

wall_units
    Optional ``#`` comment lines, optional ``key=value`` metadata lines for
    keys {label, re_theta, turbulence_level, U, nu, u_star}, then data rows
    ``eta<sep>phi`` with comma, tab, or whitespace separators.

raw
    Same envelope, data rows ``y<sep>u`` in SI units; requires ``u_star``
    and ``nu`` metadata so the rows can be normalized to wall units.
"""

from __future__ import annotations

import math
import os
import secrets
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError, ValidationError
from .scaling import WallUnits

_METADATA_KEYS = {
    "label": "label",
    "re_theta": "re_theta",
    "turbulence_level": "turbulence_level",
    "U": "free_stream_velocity",
    "nu": "nu",
    "u_star": "u_star",
}
_FIELD_TO_KEY = {v: k for k, v in _METADATA_KEYS.items()}


@dataclass(frozen=True)
class ProfileMetadata:
    """Flow metadata attached to a profile; all numeric fields optional."""

    label: str = ""
    re_theta: float | None = None
    turbulence_level: float | None = None
    free_stream_velocity: float | None = None
    nu: float | None = None
    u_star: float | None = None

    def __post_init__(self):
        for f in fields(self):
            if f.name == "label":
                continue
            value = getattr(self, f.name)
            if value is not None and not value > 0:
                raise ValidationError(
                    f"metadata field {f.name} must be positive, got {value!r}")


@dataclass(frozen=True)
class VelocityProfile:
    """An ordered sequence of wall-unit samples plus flow metadata.

    Invariants: at least 4 samples, eta strictly increasing, all values
    finite and positive (enforced per sample by WallUnits).
    """

    samples: tuple[WallUnits, ...]
    metadata: ProfileMetadata

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if len(self.samples) < 4:
            raise ValidationError(
                f"profile needs at least 4 samples, got {len(self.samples)}")
        for a, b in zip(self.samples, self.samples[1:]):
            if not a.eta < b.eta:
                raise ValidationError(
                    f"eta must be strictly increasing, got {a.eta!r} then {b.eta!r}")

    def eta(self) -> np.ndarray:
        return np.array([s.eta for s in self.samples])

    def phi(self) -> np.ndarray:
        return np.array([s.phi for s in self.samples])

    def __len__(self):
        return len(self.samples)


def normalize_raw(y: float, u: float, u_star: float, nu: float) -> WallUnits:
    """Convert a raw (y, u) measurement to wall units.

    eta = u_star * y / nu, phi = u / u_star.
    """
    for name, value in (("y", y), ("u", u), ("u_star", u_star), ("nu", nu)):
        if not (value > 0 and math.isfinite(value)):
            raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return WallUnits(eta=u_star * y / nu, phi=u / u_star)


def denormalize(sample: WallUnits, u_star: float, nu: float) -> tuple[float, float]:
    """Inverse of normalize_raw: recover (y, u) from wall units."""
    if not u_star > 0 or not nu > 0:
        raise DomainError("u_star and nu must be positive")
    return sample.eta * nu / u_star, sample.phi * u_star


def _parse_number(text: str, key: str, path, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"cannot parse {key} value {text!r}",
                         path=path, line=lineno) from None


def load_profile(path, format: str = "wall_units") -> VelocityProfile:
    """Load and validate a velocity profile from a text file.

    ``format`` is ``"wall_units"`` (rows are eta, phi) or ``"raw"`` (rows
    are y, u in SI units; requires u_star and nu metadata).  Rows must be
    ascending in eta; duplicate or decreasing eta values are rejected.
    """
    if format not in ("wall_units", "raw"):
        raise ValidationError(f"unknown format {format!r}")
    path = Path(path)
    meta_kwargs: dict = {}
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" in text:
                key, _, value = text.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in _METADATA_KEYS:
                    raise ParseError(f"unknown metadata key {key!r}",
                                     path=path, line=lineno)
                field = _METADATA_KEYS[key]
                if field == "label":
                    meta_kwargs[field] = value
                else:
                    meta_kwargs[field] = _parse_number(value, key, path, lineno)
                continue
            parts = text.split(",") if "," in text else text.split()
            if len(parts) != 2:
                raise ParseError(f"expected 2 columns, got {len(parts)}",
                                 path=path, line=lineno)
            a = _parse_number(parts[0].strip(), "column 1", path, lineno)
            b = _parse_number(parts[1].strip(), "column 2", path, lineno)
            rows.append((a, b))

    try:
        metadata = ProfileMetadata(**meta_kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc

    if format == "raw" and (metadata.u_star is None or metadata.nu is None):
        raise ValidationError(
            f"{path}: raw format requires u_star and nu metadata")
    samples = []
    for a, b in rows:
        try:
            if format == "raw":
                samples.append(normalize_raw(a, b, metadata.u_star, metadata.nu))
            else:
                samples.append(WallUnits(eta=a, phi=b))
        except DomainError as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    for a, b in zip(samples, samples[1:]):
        if a.eta == b.eta:
            raise ValidationError(f"{path}: duplicate eta value {a.eta!r}")
        if a.eta > b.eta:
            raise ValidationError(
                f"{path}: eta not ascending ({a.eta!r} before {b.eta!r})")
    return VelocityProfile(samples=tuple(samples), metadata=metadata)


def save_profile(profile: VelocityProfile, path) -> None:
    """Write a profile in the wall_units format.

    Floats are written with repr so that a write/load round trip
    reproduces the samples bit-exactly.  The write is atomic (temp file
    plus rename).
    """
    path = Path(path)
    lines = ["# wall-units velocity profile"]
    meta = profile.metadata
    if meta.label:
        lines.append(f"label={meta.label}")
    for field in ("re_theta", "turbulence_level", "free_stream_velocity",
                  "nu", "u_star"):
        value = getattr(meta, field)
        if value is not None:
            lines.append(f"{_FIELD_TO_KEY[field]}={float(value)!r}")
    for s in profile.samples:
        lines.append(f"{float(s.eta)!r} {float(s.phi)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text: str) -> None:
    """Write UTF-8 text to ``path`` through a temp file and a rename.

    The temp file gets a fresh random name in the target directory and is
    created exclusively, so no existing file is overwritten except ``path``
    itself; it is removed if the write or the rename fails.  A ``path``
    that already holds exactly these bytes is left as it is: a batch
    writes the same envelope table once per profile, and replacing it each
    time would allocate a new file and free the old one for nothing.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if fh.read(len(text) + 1) == text:
                return
    except (OSError, UnicodeDecodeError):
        pass
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def select_intermediate(profile: VelocityProfile,
                        lg_eta_min: float = 1.5,
                        phi_plateau_tol: float = 0.002) -> VelocityProfile:
    """Excise the viscous sublayer and the trailing free-stream plateau.

    Samples with log10(eta) <= lg_eta_min are dropped.  The trailing
    plateau is the maximal suffix whose phi lies within
    phi_plateau_tol * max(phi) of the running maximum with nonpositive
    forward slope in (ln eta, ln phi); those samples corrupt region-II
    fits and are dropped as well.

    Raises ValidationError if fewer than 4 samples survive.
    """
    kept = [s for s in profile.samples if math.log10(s.eta) > lg_eta_min]
    n = len(kept)
    if n >= 2:
        phi = np.array([s.phi for s in kept])
        ln_eta = np.log([s.eta for s in kept])
        ln_phi = np.log(phi)
        running_max = np.maximum.accumulate(phi)
        band = phi_plateau_tol * phi.max()
        drop = 0
        for i in range(n - 1, 0, -1):
            slope = (ln_phi[i] - ln_phi[i - 1]) / (ln_eta[i] - ln_eta[i - 1])
            if slope <= 0 and phi[i] >= running_max[i] - band:
                drop += 1
            else:
                break
        if drop:
            kept = kept[:n - drop]
    if len(kept) < 4:
        raise ValidationError(
            "empty result: fewer than 4 samples survive the sublayer cutoff "
            f"(lg_eta_min={lg_eta_min}) and plateau removal")
    return VelocityProfile(samples=tuple(kept), metadata=profile.metadata)
