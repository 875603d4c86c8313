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
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InputOutputError, ParseError, ValidationError

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
    """Flow metadata attached to a profile; all numeric fields optional.

    Every number given must be positive and finite, and the label must be
    one line: a line break (anything ``str.splitlines`` splits at) would
    break the line-based profile and report formats.
    """

    label: str = ""
    re_theta: float | None = None
    turbulence_level: float | None = None
    free_stream_velocity: float | None = None
    nu: float | None = None
    u_star: float | None = None

    def __post_init__(self):
        if (not isinstance(self.label, str)
                or self.label.splitlines() not in ([], [self.label])):
            raise ValidationError(
                f"label must be one line of text, got {self.label!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value is not None:
                name = f"metadata field {f.name}"
                check_values(ValidationError, "positive and finite",
                             **{name: check_real(name, value)})


@dataclass(frozen=True, eq=False)
class VelocityProfile:
    """Wall-unit samples as two columns, eta and phi, plus flow metadata.

    The constructor stores each column as a read-only 1-D float64 array and
    checks, once and vectorised, that both have the same length, that every
    value is finite and positive, that eta is strictly increasing and that
    there are at least 4 samples; it raises ValidationError otherwise.
    ``ln_eta`` and ``ln_phi`` (from ``select_intermediate``) are stored so
    too, when given, and must have the same length.
    """

    eta: np.ndarray
    phi: np.ndarray
    metadata: ProfileMetadata
    ln_eta: np.ndarray | None = None
    ln_phi: np.ndarray | None = None

    def __post_init__(self):
        logs = [name for name in ("ln_eta", "ln_phi")
                if getattr(self, name) is not None]
        freeze_columns(self, "eta", "phi", *logs)
        eta, phi = self.eta, self.phi
        check_values(ValidationError, "positive and finite", eta=eta, phi=phi)
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


def as_columns(error, **named) -> list:
    """Each named argument as a 1-D float64 array (itself if it is one);
    anything else, or columns of two lengths, is ``error`` naming it."""
    columns = []
    for name, value in named.items():
        try:
            column = np.asarray(value)
        except ValueError:                  # a ragged nested sequence
            column = np.asarray(value, dtype=object)
        if column.ndim != 1 or column.dtype.kind not in "iuf":
            raise error(f"{name} must be a 1-D column of real numbers, got "
                        f"shape {column.shape} of {column.dtype}")
        if columns and len(column) != len(columns[0]):
            raise error(f"{next(iter(named))} and {name} differ in length: "
                        f"{len(columns[0])} and {len(column)}")
        columns.append(column.astype(np.float64, copy=False))
    return columns


def freeze_columns(obj, *names) -> None:
    """Store each named field of the frozen dataclass ``obj`` as a read-only
    copy of its ``as_columns`` column, with ValidationError."""
    columns = as_columns(ValidationError,
                         **{name: getattr(obj, name) for name in names})
    for name, column in zip(names, columns):
        column = column.copy()
        column.flags.writeable = False
        object.__setattr__(obj, name, column)


def check_count(name: str, value, minimum: int, error=ValidationError) -> None:
    """Raise ``error`` unless ``value`` is an integer (a Python or numpy
    integer, not a bool) of at least ``minimum``; every count is checked
    so."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        # no value for an int over 4300 digits: its str raises ValueError
        got = f", got {value}" if value > -10**4000 else ""
        raise error(f"{name} must be at least {minimum}{got}")


def check_real(name: str, value, error=ValidationError) -> float:
    """``value`` as a float; ``error`` unless it is a real number (a Python
    or numpy int or float, not a bool) that a float can hold.  Every real
    argument is checked so."""
    if (not isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(value, bool)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # no repr: that of an int over 4300 digits raises ValueError
        raise error(f"{name} is outside the float range") from None


def real_or_column(error, **named) -> list:
    """Each named argument as its ``as_columns`` column when it is an
    array, a list or a tuple, and as ``check_real``'s float otherwise."""
    columns = {name: value for name, value in named.items()
               if isinstance(value, (np.ndarray, list, tuple))}
    if columns:
        columns = dict(zip(columns, as_columns(error, **columns)))
    return [columns[name] if name in columns
            else check_real(name, value, error)
            for name, value in named.items()]


# Each value rule as a test that takes a float or a float64 column.
_RULES = {
    "finite": lambda v: abs(v) < math.inf,
    ">= 0": lambda v: v >= 0,
    "finite and >= 0": lambda v: (v >= 0) & (v < math.inf),
    "positive": lambda v: v > 0,
    "positive and finite": lambda v: (v > 0) & (v < math.inf),
}


def check_values(error, rule: str, **values) -> None:
    """Raise ``error("{name} must be {rule}, got {value!r}")`` for the
    first value that breaks ``rule`` (a key of ``_RULES``; nan breaks
    every rule).  A value is a number, as ``check_real`` returns it, which
    stands in every row and takes no numpy call, or a float64 column, as
    ``as_columns`` returns it.  The first bad row wins, then the first
    argument in it.  Every sign and finiteness rule is checked so."""
    ok, bad = _RULES[rule], []
    for name, value in values.items():
        good = ok(value)
        if isinstance(good, np.ndarray):
            if not good.all():
                row = int(good.argmin())
                bad.append((row, name, value[row].item()))
        elif not good:
            bad.append((0, name, value))
    if bad:
        _, name, value = min(bad, key=lambda item: item[0])
        raise error(f"{name} must be {rule}, got {value!r}")


def check_pair(name: str, value, error=ValidationError) -> tuple:
    """``value``'s two items as floats; a value that is not a pair of real
    numbers (see ``check_real``) is ``error``."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise error(f"{name} must be a pair, got {value!r}") from None
    return (check_real(f"{name}[0]", first, error),
            check_real(f"{name}[1]", second, error))


def libm_column(fn, column) -> np.ndarray:
    """``fn`` (libm's ``math.log``, ``math.log10`` or ``math.exp``) applied
    to each value of a float64 array.  Every log and exp on the value path
    goes through here: numpy's own pick a SIMD loop by CPU, and some differ
    from libm in the last bit, so output bytes would depend on the host."""
    values = np.asarray(column, dtype=np.float64)
    return np.fromiter(map(fn, values.ravel().tolist()), np.float64,
                       values.size).reshape(values.shape)


def read_lines(path):
    """The lines of a UTF-8 text file, read as ``open`` in text mode would
    (universal newlines).  A file that is not UTF-8 is a ParseError that
    names the line holding the first undecodable byte; a file that cannot
    be read is an InputOutputError."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputOutputError(f"cannot read {path}: "
                               f"{exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x}: "
                         f"{exc.reason})", path=path,
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    return io.StringIO(text, newline=None)


def split_key_value(line: str, keys, what: str, path=None, lineno=None):
    """Split a ``key=value`` line at its first ``=`` and return the key,
    without outer whitespace, and the raw value after the ``=``.  A line
    without ``=`` or whose key is not in ``keys`` is a ParseError; ``what``
    names the kind of key in its message."""
    key, sep, raw = line.partition("=")
    if not sep:
        raise ParseError("expected key=value", path=path, line=lineno)
    key = key.strip()
    if key not in keys:
        raise ParseError(f"unknown {what} {key!r}", path=path, line=lineno)
    return key, raw


def parse_value(kind, key: str, raw: str, path=None, lineno=None):
    """Parse one value as ``kind``: str (``raw`` itself), or, once outer
    whitespace is stripped, bool (``true`` or ``false``), int or float (read
    by ``int`` or ``float``), or ``none`` where ``kind`` admits None.  A
    value that does not parse is a ParseError naming ``key``."""
    if kind is str:
        return raw
    raw = raw.strip()
    options = typing.get_args(kind)
    if type(None) in options:
        if raw == "none":
            return None
        (kind,) = [t for t in options if t is not type(None)]
    if kind is bool:
        if raw in ("true", "false"):
            return raw == "true"
    else:
        try:
            return kind(raw)
        except ValueError:
            pass
    raise ParseError(f"cannot parse {key} value {raw!r}",
                     path=path, line=lineno)


def load_profile(path, format: str = "wall_units") -> VelocityProfile:
    """Load and validate a velocity profile from a text file.

    ``format`` is ``"wall_units"`` (rows are eta, phi) or ``"raw"`` (rows
    are y, u in SI units; requires u_star and nu metadata, and each row is
    normalized to eta = u_star * y / nu, phi = u / u_star).  Rows must be
    ascending in eta; duplicate or decreasing eta values are rejected.

    A blank line or one starting with ``#`` is skipped, a line holding
    ``=`` is metadata, and any other line is a data row of two numbers
    split at commas if it holds one and at whitespace otherwise, each read
    by ``float``.  The first bad line, in line order, is a ParseError that
    names it; a row's checks are spelled out only once it fails to read.
    """
    if format not in ("wall_units", "raw"):
        raise ValidationError(f"unknown format {format!r}")
    path = Path(path)
    meta_kwargs: dict = {}
    values: list[float] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        text = line.strip()
        if not text or text[0] == "#":
            continue
        if "=" in text:
            key, value = split_key_value(text, _METADATA_KEYS, "metadata key",
                                         path, lineno)
            meta_kwargs[_METADATA_KEYS[key]] = parse_value(
                str if key == "label" else float, key, value.strip(),
                path, lineno)
            continue
        parts = text.split(",") if "," in text else text.split()
        try:
            # float strips the whitespace that str.strip does.
            a, b = parts
            values += float(a), float(b)
        except ValueError:
            if len(parts) != 2:
                raise ParseError(f"expected 2 columns, got {len(parts)}",
                                 path=path, line=lineno) from None
            parse_value(float, "column 1", parts[0], path, lineno)
            parse_value(float, "column 2", parts[1], path, lineno)
            raise
    try:
        metadata = ProfileMetadata(**meta_kwargs)
        first, second = np.array(values, dtype=np.float64).reshape(-1, 2).T
        if format == "raw":
            if metadata.u_star is None or metadata.nu is None:
                raise ValidationError(
                    "raw format requires u_star and nu metadata")
            check_values(ValidationError, "positive and finite",
                         y=first, u=second)
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
    atomic_write_text(path, format_columns("\n".join(lines), profile.eta,
                                           profile.phi))


def format_columns(header: str, *columns) -> str:
    """The ``header`` line(s), then one row per index of the equal-length
    1-D float64 ``columns``, of their values' ``repr`` joined by single
    spaces, then one newline: every float-column file wallscale writes.
    A column passed more than once is rendered once."""
    strings = {id(column): map(repr, column.tolist()) for column in columns}
    if len(strings) < len(columns):     # a column passed twice
        strings = {key: list(texts) for key, texts in strings.items()}
    rows = zip(*(strings[id(column)] for column in columns), strict=True)
    return "\n".join([header, *map(" ".join, rows)]) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write UTF-8 text to ``path`` through a temp file and a rename.

    The temp file gets a fresh random name in the target directory and is
    created exclusively, so no existing file is overwritten except ``path``
    itself; it is removed if the write or the rename fails.  A write that
    fails is an InputOutputError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise InputOutputError(f"cannot write {path}: "
                               f"{exc.strerror or exc}") from exc


def make_output_dir(path) -> Path:
    """Create the directory ``path`` and its missing parents, and return
    it as a Path.  An existing directory is kept; a path that cannot be a
    directory, such as a regular file, is an InputOutputError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputOutputError(f"cannot create directory {path}: "
                               f"{exc.strerror or exc}") from exc
    return path


DEFAULT_LG_ETA_MIN = 1.5
DEFAULT_PLATEAU_TOL = 0.002


def select_intermediate(profile: VelocityProfile,
                        lg_eta_min: float = DEFAULT_LG_ETA_MIN,
                        phi_plateau_tol: float = DEFAULT_PLATEAU_TOL
                        ) -> VelocityProfile:
    """Excise the viscous sublayer and the trailing free-stream plateau.

    Samples with log10(eta) <= lg_eta_min are dropped.  The trailing
    plateau is the maximal suffix whose phi lies within
    phi_plateau_tol * max(phi) of the running maximum with nonpositive
    forward slope in (ln eta, ln phi); those samples corrupt region-II
    fits and are dropped as well.

    ln eta and ln phi are taken once, after the sublayer cut (made with
    ``math.log10``: ln eta / ln 10 can move a boundary sample), and handed
    on as the result's ``ln_eta`` and ``ln_phi`` columns.

    Raises ValidationError if fewer than 4 samples survive, or if
    ``lg_eta_min`` is not finite or ``phi_plateau_tol`` is not >= 0 (an
    infinite tolerance is an infinite band).
    """
    check_values(ValidationError, "finite",
                 lg_eta_min=check_real("lg_eta_min", lg_eta_min))
    check_values(ValidationError, ">= 0", phi_plateau_tol=check_real(
        "phi_plateau_tol", phi_plateau_tol))
    eta, phi = profile.eta, profile.phi
    above = libm_column(math.log10, eta) > lg_eta_min
    eta, phi = eta[above], phi[above]
    ln_eta, ln_phi = libm_column(math.log, eta), libm_column(math.log, phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.diff(ln_phi) / np.diff(ln_eta)
    with np.errstate(over="ignore"):    # a huge tolerance is an inf band
        band = phi_plateau_tol * phi.max(initial=0.0)   # the cut may keep none
    flat = (slope <= 0) & (phi[1:] >= np.maximum.accumulate(phi)[1:] - band)
    keep = len(eta) - int(np.logical_and.accumulate(flat[::-1]).sum())
    if keep < 4:
        raise ValidationError(
            "empty result: fewer than 4 samples survive the sublayer cutoff "
            f"(lg_eta_min={lg_eta_min}) and plateau removal")
    return VelocityProfile(eta[:keep], phi[:keep], profile.metadata,
                           ln_eta[:keep], ln_phi[:keep])
