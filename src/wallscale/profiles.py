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

import io
import math
import os
import secrets
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

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


@dataclass(frozen=True, eq=False)
class VelocityProfile:
    """Wall-unit samples as two columns, eta and phi, plus flow metadata.

    The constructor stores each column as a read-only 1-D float64 array and
    checks, once and vectorised, that both have the same length, that every
    value is finite and positive, that eta is strictly increasing and that
    there are at least 4 samples; it raises ValidationError otherwise.
    """

    eta: np.ndarray
    phi: np.ndarray
    metadata: ProfileMetadata

    def __post_init__(self):
        for name in ("eta", "phi"):
            try:
                column = np.array(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{name} is not numeric: {exc}") from None
            if column.ndim != 1:
                raise ValidationError(
                    f"{name} must be one-dimensional, got shape {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        eta, phi = self.eta, self.phi
        if len(eta) != len(phi):
            raise ValidationError(
                f"eta and phi differ in length: {len(eta)} and {len(phi)}")
        _require_positive_finite(eta=eta, phi=phi)
        steps = eta[1:] <= eta[:-1]
        if steps.any():
            i = int(steps.argmax())
            a, b = eta[i].item(), eta[i + 1].item()
            if a == b:
                raise ValidationError(f"duplicate eta value {a!r}")
            raise ValidationError(f"eta not ascending ({a!r} before {b!r})")
        if len(eta) < 4:
            raise ValidationError(
                f"profile needs at least 4 samples, got {len(eta)}")

    def __len__(self):
        return len(self.eta)


def _require_positive_finite(**columns) -> None:
    """Raise ValidationError naming the first value, in row order, that is
    not positive and finite."""
    ok = np.logical_and.reduce([np.isfinite(c) & (c > 0)
                                for c in columns.values()])
    if ok.all():
        return
    i = int(ok.argmin())
    for name, column in columns.items():
        value = column[i].item()
        if not 0 < value < math.inf:
            raise ValidationError(
                f"{name} must be positive and finite, got {value!r}")


def read_lines(path):
    """The lines of a UTF-8 text file, read as ``open`` in text mode would
    (universal newlines).  A file that is not UTF-8 is a ParseError that
    names the line holding the first undecodable byte."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x}: "
                         f"{exc.reason})", path=path,
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    return io.StringIO(text, newline=None)


def _parse_number(text: str, key: str, path, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"cannot parse {key} value {text!r}",
                         path=path, line=lineno) from None


def load_profile(path, format: str = "wall_units") -> VelocityProfile:
    """Load and validate a velocity profile from a text file.

    ``format`` is ``"wall_units"`` (rows are eta, phi) or ``"raw"`` (rows
    are y, u in SI units; requires u_star and nu metadata, and each row is
    normalized to eta = u_star * y / nu, phi = u / u_star).  Rows must be
    ascending in eta; duplicate or decreasing eta values are rejected.
    """
    if format not in ("wall_units", "raw"):
        raise ValidationError(f"unknown format {format!r}")
    path = Path(path)
    meta_kwargs: dict = {}
    rows: list[tuple[float, float]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
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
        first, second = np.array(rows, dtype=np.float64).reshape(-1, 2).T
        if format == "raw":
            if metadata.u_star is None or metadata.nu is None:
                raise ValidationError(
                    "raw format requires u_star and nu metadata")
            _require_positive_finite(y=first, u=second)
            first = metadata.u_star * first / metadata.nu
            second = second / metadata.u_star
        return VelocityProfile(first, second, metadata)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


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
    for eta, phi in zip(profile.eta.tolist(), profile.phi.tolist()):
        lines.append(f"{eta!r} {phi!r}")
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
    eta, phi = profile.eta, profile.phi
    above = np.array([math.log10(e) for e in eta.tolist()]) > lg_eta_min
    eta, phi = eta[above], phi[above]
    if len(eta) >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.diff(np.log(phi)) / np.diff(np.log(eta))
        band = phi_plateau_tol * phi.max()
        flat = (slope <= 0) & (phi[1:] >= np.maximum.accumulate(phi)[1:] - band)
        keep = len(eta) - int(np.logical_and.accumulate(flat[::-1]).sum())
        eta, phi = eta[:keep], phi[:keep]
    if len(eta) < 4:
        raise ValidationError(
            "empty result: fewer than 4 samples survive the sublayer cutoff "
            f"(lg_eta_min={lg_eta_min}) and plateau removal")
    return VelocityProfile(eta, phi, profile.metadata)
