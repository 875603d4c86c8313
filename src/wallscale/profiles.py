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
import orjson

from .errors import InputOutputError, ParseError, ValidationError

_METADATA_KEYS = {
    "label": "label",
    "re_theta": "re_theta",
    "turbulence_level": "turbulence_level",
    "U": "free_stream_velocity",
    "nu": "nu",
    "u_star": "u_star",
}
_METADATA_KINDS = {key: str if key == "label" else float
                   for key in _METADATA_KEYS}


@dataclass(frozen=True)
class ProfileMetadata:
    """Flow metadata attached to a profile; all numeric fields optional.

    Every number given must be positive and finite (it is stored as a
    float), and the label one line of UTF-8 text: a line break (anything
    ``str.splitlines`` splits at) would break the line-based formats, and a
    lone surrogate (a file name's undecodable byte) cannot be written.
    """

    label: str = ""
    re_theta: float | None = None
    turbulence_level: float | None = None
    free_stream_velocity: float | None = None
    nu: float | None = None
    u_star: float | None = None

    def __post_init__(self):
        if (not isinstance(self.label, str)
                or self.label.splitlines() not in ([], [self.label])
                or self.label.encode(errors="replace").decode() != self.label):
            exc = ValidationError(
                f"label must be one line of text, got {self.label!r}")
            exc.field = "label"
            raise exc
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value is not None:
                name = f"metadata field {f.name}"
                try:
                    value = check_real(name, value)
                    check_values(ValidationError, "positive and finite",
                                 **{name: value})
                except ValidationError as exc:
                    exc.field = f.name
                    raise
                object.__setattr__(self, f.name, value)


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
            exc = ValidationError(f"duplicate eta value {a!r}" if a == b else
                                  f"eta not ascending ({a!r} before {b!r})")
            exc.row = i + 1
            raise exc
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
    argument in it; the error's ``row`` is that row (0 for a number).
    Every sign and finiteness rule is checked so."""
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
        row, name, value = min(bad, key=lambda item: item[0])
        exc = error(f"{name} must be {rule}, got {value!r}")
        exc.row = row
        raise exc


def check_pair(name: str, value, error=ValidationError) -> tuple:
    """``value``'s two items as floats; a value that is not a pair of real
    numbers (see ``check_real``) is ``error``."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise error(f"{name} must be a pair, got {value!r}") from None
    return (check_real(f"{name}[0]", first, error),
            check_real(f"{name}[1]", second, error))


# fdlibm's e_log.c and e_exp.c (Sun, 1993): ln 2 split so that k * _LN2_HI
# is exact for every exponent k, and their minimax polynomials.
_LN2_HI = 6.93147180369123816490e-01      # 0x3fe62e42fee00000
_LN2_LO = 1.90821492927058770002e-10      # 0x3dea39ef35793c76
_LG1, _LG2, _LG3, _LG4, _LG5, _LG6, _LG7 = (
    6.666666666666735130e-01, 3.999999999940941908e-01,
    2.857142874366239149e-01, 2.222219843214978396e-01,
    1.818357216161805012e-01, 1.531383769920937332e-01,
    1.479819860511658591e-01)
_P1, _P2, _P3, _P4, _P5 = (
    1.66666666666666019037e-01, -2.77777777770155933842e-03,
    6.61375632143793436117e-05, -1.65339022054652515390e-06,
    4.13813679705723846039e-08)
_INV_LN2 = 1.44269504088896338700e+00     # 0x3ff71547652b82fe
_SQRT_HALF = 0.7071067811865476
# exp(x) is inf above 709.79 and 0 below -745.14; clamped here, x keeps
# its result and k * _LN2_HI stays exact
_EXP_LOW, _EXP_HIGH = -746.0, 710.0


def ieee_log(x):
    """ln x of a positive finite float, or of each value of a float64
    array of them, the same bits on every host.

    fdlibm's ``__ieee754_log`` with one branch: x = 2**k (1 + f), with
    1 + f in [sqrt(1/2), sqrt(2)) by exact ``frexp`` and ``ldexp``,
    s = f / (2 + f), R(s*s) its minimax polynomial, and
    ln x = k ln2_hi - ((f*f/2 - (s (f*f/2 + R) + k ln2_lo)) - f), the
    form fdlibm keeps for its larger |f|, for every f.  A float goes
    through ``math.frexp``/``math.ldexp``, an array through numpy's, and
    then both through the same +, -, * and /, which round the same on
    every CPU (numpy fuses none), so the two give the same bits; numpy's
    own ``log`` and libm's pick a build by the CPU's features.  Within
    1 ulp of libm's ``math.log`` (tested).  Any other x (0, a
    negative, inf, nan) gives an unspecified value: every caller checks
    its values first."""
    if isinstance(x, np.ndarray):
        m, e = np.frexp(x)
        low = m < _SQRT_HALF
        f = np.ldexp(m, low) - 1.0
    else:
        m, e = math.frexp(x)
        low = m < _SQRT_HALF
        f = math.ldexp(m, low) - 1.0
    k = e - low
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = (z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7)))
         + w * (_LG2 + w * (_LG4 + w * _LG6)))
    hfsq = 0.5 * f * f
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)


def ieee_exp(x):
    """e**x of a float, or of each value of a float64 array, the same
    bits on every host.

    fdlibm's ``__ieee754_exp`` with one branch: k = rint(x / ln 2),
    r = (x - k ln2_hi) - k ln2_lo, c = r - r*r P(r*r), and
    e**x = 2**k (1 - ((k ln2_lo - r c / (2 - c)) - (x - k ln2_hi))), the
    power of two applied by an exact ``ldexp`` that rounds once where the
    result is subnormal.  A float goes through ``round`` and
    ``math.ldexp``, an array through numpy's ``rint`` and ``ldexp``, and
    both through the same +, -, * and /, so the two give the same bits.
    Within 1 ulp of libm's ``math.exp`` (tested), and finite exactly
    where it is: inf where it overflows (an array sets numpy's overflow
    flag, as ``np.exp`` does), 0 where it underflows past the
    subnormals, and nan for nan."""
    array = isinstance(x, np.ndarray)
    if array:
        x = np.minimum(np.maximum(x, _EXP_LOW), _EXP_HIGH)     # nan stays
        k = np.rint(np.fmax(x, _EXP_LOW) * _INV_LN2)          # nan: any k
    else:
        x = _EXP_HIGH if x > _EXP_HIGH else _EXP_LOW if x < _EXP_LOW else x
        k = round(x * _INV_LN2) if x == x else 0
    hi = x - k * _LN2_HI
    lo = k * _LN2_LO
    r = hi - lo
    t = r * r
    c = r - t * (_P1 + t * (_P2 + t * (_P3 + t * (_P4 + t * _P5))))
    y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi)
    if array:
        return np.ldexp(y, k.astype(np.int32))
    try:
        return math.ldexp(y, k)
    except OverflowError:       # where np.ldexp gives inf
        return math.inf


def read_lines(path):
    """The lines of a UTF-8 text file, read as ``open`` in text mode would
    (universal newlines).  A file that is not UTF-8 is a ParseError that
    names the line holding the first undecodable byte; a file that cannot
    be read is an InputOutputError.  Neither names the file."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputOutputError(f"cannot read: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x}: "
                         f"{exc.reason})",
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    return io.StringIO(text, newline=None)


def _content_lines(lines):
    """(number from 1, line, stripped line) of each line that is neither
    blank nor a ``#`` comment: the one skip rule of every reader."""
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if text and text[0] != "#":
            yield lineno, line, text


def read_key_value(line: str, kinds, what: str, lineno=None,
                   strip: bool = True):
    """(key, value) of a ``key=value`` line split at its first ``=``: the
    key without outer whitespace, which must be in ``kinds`` (key to type),
    and ``parse_value``'s value, a string losing its outer whitespace only
    if ``strip``.  A line without ``=`` or with an unknown key is a
    ParseError; ``what`` names the kind of key."""
    key, sep, raw = line.partition("=")
    if not sep:
        raise ParseError("expected key=value", lineno)
    key = key.strip()
    if key not in kinds:
        raise ParseError(f"unknown {what} {key!r}", lineno)
    return key, parse_value(kinds[key], key, raw.strip() if strip else raw,
                            lineno)


def read_key_values(lines, kinds, what: str, strip: bool = True) -> dict:
    """``read_key_value`` of each line neither blank nor a ``#`` comment,
    as a dict (a later line of a key wins); with ``strip`` false the lines
    must come without their line ends."""
    return dict(read_key_value(line, kinds, what, lineno, strip)
                for lineno, line, _ in _content_lines(lines))


def format_key_values(header: str, items, strip: bool = True) -> str:
    """The ``header`` line(s), then a ``key=value`` line per (key, value)
    of ``items``: None as ``none``, a bool as ``true`` or ``false``, a
    float by ``repr``, anything else by ``str``.  A value that
    ``read_key_value`` with the same ``strip`` would not give back, one
    holding a line break (anything ``str.splitlines`` splits at) or, if
    ``strip``, outer whitespace, is a ValidationError naming it."""
    lines = [header]
    for key, value in items:
        if value is None or isinstance(value, bool):
            text = {None: "none", True: "true", False: "false"}[value]
        elif isinstance(value, float):
            text = repr(float(value))
        else:
            text = str(value)
        line = f"{key}={text}"
        if line.splitlines() != [line] or strip and text != text.strip():
            raise ValidationError(f"cannot write {key} value {text!r}: "
                                  "it would not read back")
        lines.append(line)
    return "\n".join(lines)


def parse_value(kind, key: str, raw: str, lineno=None):
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
    raise ParseError(f"cannot parse {key} value {raw!r}", lineno)


def block_values(block: str) -> list[float] | None:
    r"""The numbers of ``block``'s data rows, in row order, as orjson's
    compiled parser reads them, or None, which leaves the block to
    ``load_profile``'s per-line loop.  The rows are the pieces between the
    ``"\n"``s of the block (universal-newline text, so no ``"\r"``) once
    its trailing whitespace is dropped; never ``str.splitlines``, which
    also splits at ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85``,
    ``\u2028`` and ``\u2029``.

    The block is read as one JSON array: each ``"\n"`` becomes
    ``",null,"`` (a JSON null ends each row but the last) and, in a block
    without a comma, each space and tab a comma.  Its values count only
    if there are 3n - 1 of them, with a None at every third place (so
    each row holds two, which a total alone would not show), and none of
    the others is zero: orjson reads ``-0`` as the int 0 and ``1e-400``
    as 0.0 (the profile rejects a zero anyway).  A block holding any of
    ``t f n " [ {`` (JSON ``true``, ``false``, ``null``, strings and
    containers; ``inf`` and ``nan`` go with them) is None untried, and so
    is a text that is not JSON (``=``, ``#``, ``|``, ``1e400``, ``1.``,
    ``.5``, ``+1``, ``01``, a blank line, runs of spaces or tabs and
    leading whitespace in a block without a comma, other whitespace).
    The per-line loop reads each row of a block taken as a data row of
    the same two fields and skips each trailing line dropped as blank,
    and orjson rounds each number correctly, as ``float`` does, so the
    values are the ones the lines give.  An integer token below 2**64
    comes back as an int, so each value is made a float in place, in the
    list that ``orjson.loads`` returned; that list is the one returned."""
    rows = block.rstrip()
    n = rows.count("\n") + 1
    # one "in" scan a character: a set's isdisjoint(rows) hashes each one
    if ("t" in rows or "f" in rows or "n" in rows or '"' in rows
            or "[" in rows or "{" in rows):
        return None
    text = rows.replace("\n", ",null,")
    if "," not in rows:
        text = text.replace(" ", ",").replace("\t", ",")
    try:
        values = orjson.loads(f"[{text}]")
    except orjson.JSONDecodeError:
        return None
    if len(values) == 3 * n - 1 and values[2::3] == [None] * (n - 1):
        del values[2::3]
        values[:] = map(float, values)
        if all(values):     # no zero: a falsy float is +-0.0
            return values
    return None


def load_profile(path, format: str = "wall_units") -> VelocityProfile:
    """Load and validate a velocity profile from a text file.

    ``format`` is ``"wall_units"`` (rows are eta, phi) or ``"raw"`` (rows
    are y, u in SI units; requires u_star and nu metadata, and each row is
    normalized to eta = u_star * y / nu, phi = u / u_star).  Rows must be
    ascending in eta; duplicate or decreasing eta values are rejected.

    A blank line or one starting with ``#`` is skipped, a line holding
    ``=`` is metadata, and any other line is a data row of two numbers
    split at commas if it holds one and at whitespace otherwise, each read
    by ``parse_value`` (``float`` once its outer whitespace is stripped).
    The first bad line, in line order, is a ParseError that names it; a
    row that the profile rejects (see ``VelocityProfile``), or in ``raw``
    a y or u that is not positive and finite, is a ValidationError that
    names its line as ``line N: ...``, and so is a metadata value that
    ``ProfileMetadata`` rejects, at the key's last line, which wins.

    From the first data row on, the rest of the file is read as one block
    when orjson reads it (see ``block_values``), which gives the numbers
    the lines would; otherwise the lines are read one by one from that
    row.
    """
    if format not in ("wall_units", "raw"):
        raise ValidationError(f"unknown format {format!r}")
    meta_kwargs: dict = {}
    meta_lines = {}     # the line of each field's last occurrence
    values: list[float] = []
    row_lines = []      # the line of each data row
    lines = read_lines(path)
    for lineno, line, text in _content_lines(lines):
        if "=" in text:
            key, value = read_key_value(text, _METADATA_KINDS, "metadata key",
                                        lineno)
            meta_kwargs[_METADATA_KEYS[key]] = value
            meta_lines[_METADATA_KEYS[key]] = lineno
            continue
        if not values:      # the first data row (each row read adds two)
            mark = lines.tell()
            block = block_values(line + lines.read())
            if block is not None:    # its rows are consecutive lines
                values = block
                row_lines = range(lineno, lineno + len(block) // 2)
                break
            lines.seek(mark)
        parts = text.split(",") if "," in text else text.split()
        if len(parts) != 2:
            raise ParseError(f"expected 2 columns, got {len(parts)}", lineno)
        values += (parse_value(float, "column 1", parts[0], lineno),
                   parse_value(float, "column 2", parts[1], lineno))
        row_lines.append(lineno)
    try:
        metadata = ProfileMetadata(**meta_kwargs)
    except ValidationError as exc:
        raise ValidationError(str(exc), meta_lines[exc.field]) from None
    first, second = np.array(values, dtype=np.float64).reshape(-1, 2).T
    try:
        if format == "raw":
            if metadata.u_star is None or metadata.nu is None:
                raise ValidationError(
                    "raw format requires u_star and nu metadata")
            check_values(ValidationError, "positive and finite",
                         y=first, u=second)
            with np.errstate(over="ignore"):    # the profile rejects inf
                first = metadata.u_star * first / metadata.nu
                second = second / metadata.u_star
        return VelocityProfile(first, second, metadata)
    except ValidationError as exc:
        if exc.row is None:
            raise
        raise ValidationError(str(exc), row_lines[exc.row]) from None


def save_profile(profile: VelocityProfile, path) -> None:
    """Write a profile in the wall_units format.

    Floats are written with repr so that a write/load round trip
    reproduces the samples bit-exactly.  The write is atomic (temp file
    plus rename).
    """
    meta = vars(profile.metadata)
    # an empty label and an absent number are not written
    header = format_key_values("# wall-units velocity profile", [
        (key, meta[field]) for key, field in _METADATA_KEYS.items()
        if meta[field] not in ("", None)])
    atomic_write_text(path, format_columns(header, profile.eta, profile.phi))


def format_columns(header: str, *columns) -> str:
    """The ``header`` line(s), then one row per index of the equal-length
    1-D float64 ``columns``, of their values' ``repr`` joined by single
    spaces, then one newline: every float-column file wallscale writes.

    A table of at least one row whose every value is ±0 or has
    1e-4 <= |v| < 1e16, where ``repr`` writes it positionally, is rendered
    by orjson, whose shortest round-trip digits and layout are ``repr``'s
    there.  It writes the values row after row as one flat list, faster
    than the rows of a 2-D array; the list's brackets go, the comma after
    each row's last value becomes a newline and every other comma a
    space.  Any other table (no rows, nan, ±inf, or a value ``repr``
    writes as d.ddde±XX) goes through ``repr``."""
    table = np.stack(columns, axis=1, dtype=np.float64)
    magnitude = np.abs(table)
    positional = (magnitude >= 1e-4) & (magnitude < 1e16) | (table == 0)
    if len(table) and positional.all():
        text = np.frombuffer(orjson.dumps(
            table.ravel(), option=orjson.OPT_SERIALIZE_NUMPY), np.uint8)
        text = text[1:-1].copy()
        commas = np.flatnonzero(text == ord(","))
        text[commas] = ord(" ")
        text[commas[len(columns) - 1::len(columns)]] = ord("\n")
        return f"{header}\n{text.tobytes().decode()}\n"
    rows = zip(*[list(map(repr, column.tolist())) for column in columns])
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


def write_texts(out_dir, texts: dict) -> list[Path]:
    """Create the directory ``out_dir`` and its missing parents, write each
    ``{name: text}`` of ``texts`` into it with ``atomic_write_text``, in
    order, and return the paths written.  An existing directory is kept; a
    path that cannot be a directory, such as a regular file, or a file that
    cannot be written, is an InputOutputError."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputOutputError(f"cannot create directory {out_dir}: "
                               f"{exc.strerror or exc}") from exc
    for name, text in texts.items():
        atomic_write_text(out_dir / name, text)
    return [out_dir / name for name in texts]


def check_not_input(input, *outputs) -> None:
    """Raise ValidationError if one of the ``outputs`` paths is the file
    or directory ``input`` (``os.path.samefile``); a run calls it before
    it writes anything, so that no run writes over its own input.  A path
    that does not exist is not the input.  The error names neither path."""
    for output in outputs:
        try:
            same = os.path.samefile(input, output)
        except OSError:
            continue
        if same:
            raise ValidationError("an output path is the input")


DEFAULT_LG_ETA_MIN = 1.5
DEFAULT_PLATEAU_TOL = 0.002
_LN10 = ieee_log(10.0)


def select_intermediate(profile: VelocityProfile,
                        lg_eta_min: float = DEFAULT_LG_ETA_MIN,
                        phi_plateau_tol: float = DEFAULT_PLATEAU_TOL
                        ) -> VelocityProfile:
    """Excise the viscous sublayer and the trailing free-stream plateau.

    Samples whose ln eta (``ieee_log``) is at most ``lg_eta_min * ln 10``
    are dropped (a product that overflows to +-inf drops every sample or
    none); within a few ulp of the edge that can differ from comparing
    log10(eta) with lg_eta_min.  The trailing plateau is the maximal
    suffix whose phi lies within phi_plateau_tol * max(phi) of the
    running maximum with nonpositive forward slope in (ln eta, ln phi);
    those samples corrupt region-II fits and are dropped as well.  ln eta
    and ln phi are taken once for every sample, in one ``ieee_log`` call
    over both columns, and the kept ones are handed on as the result's
    ``ln_eta`` and ``ln_phi``.

    Raises ValidationError if fewer than 4 samples survive, or if
    ``lg_eta_min`` is not finite or ``phi_plateau_tol`` is not >= 0 (an
    infinite tolerance is an infinite band).
    """
    check_values(ValidationError, "finite",
                 lg_eta_min=check_real("lg_eta_min", lg_eta_min))
    check_values(ValidationError, ">= 0", phi_plateau_tol=check_real(
        "phi_plateau_tol", phi_plateau_tol))
    ln_eta, ln_phi = ieee_log(np.array((profile.eta, profile.phi)))
    above = ln_eta > lg_eta_min * _LN10
    eta, phi = profile.eta[above], profile.phi[above]
    ln_eta, ln_phi = ln_eta[above], ln_phi[above]
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
