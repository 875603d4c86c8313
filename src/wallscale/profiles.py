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

import functools
import io
import math
import os
import sys
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
            raise ValidationError(
                f"label must be one line of text, got {self.label!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value is not None:
                name = f"metadata field {f.name}"
                value = check_real(name, value)
                check_values(ValidationError, "positive and finite",
                             **{name: value})
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
    r"""The numbers of ``block``'s data rows, in row order, or None unless
    every row is a plain one.  The rows are the pieces between the
    ``"\n"``s of the block (universal-newline text, so no ``"\r"``) once
    its trailing whitespace is dropped; never ``str.splitlines``, which
    also splits at ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, ``\x85``,
    ``\u2028`` and ``\u2029``.  The block must hold no ``=`` and no
    ``#``, and each row must split into exactly two fields, at commas if
    the block holds one and at whitespace otherwise, that ``float`` reads.
    ``load_profile``'s per-line loop then reads each row as a data row of
    the same fields, up to outer whitespace (which ``float`` strips, or
    fails on and leaves to the loop), and skips each trailing line dropped
    as blank.

    The block is split once: each ``"\n"`` becomes a sentinel field ``|``
    (``" | "`` or ``",|,"``, always a field of its own), so n rows of two
    fields give 3n - 1 fields with a sentinel at every third place, and
    no other widths do (a total alone would pass a row of three fields
    and a row of one).  A block holding ``|`` is rejected first; a ``|``
    left among the fields would fail ``float`` anyway."""
    if "=" in block or "#" in block or "|" in block:
        return None
    sep, sentinel = (",", ",|,") if "," in block else (None, " | ")
    block = block.rstrip()
    n = block.count("\n") + 1
    fields = block.replace("\n", sentinel).split(sep)
    if len(fields) != 3 * n - 1 or fields[2::3] != ["|"] * (n - 1):
        return None
    del fields[2::3]
    try:
        return list(map(float, fields))
    except ValueError:
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
    The first bad line, in line order, is a ParseError that names it.

    From the first data row on, the rest of the file is read as one block
    when ``block_values`` takes it, which gives the numbers the lines would;
    otherwise the lines are read one by one from that row.
    """
    if format not in ("wall_units", "raw"):
        raise ValidationError(f"unknown format {format!r}")
    meta_kwargs: dict = {}
    values: list[float] = []
    lines = read_lines(path)
    for lineno, line, text in _content_lines(lines):
        if "=" in text:
            key, value = read_key_value(text, _METADATA_KINDS, "metadata key",
                                        lineno)
            meta_kwargs[_METADATA_KEYS[key]] = value
            continue
        if not values:      # the first data row (each row read adds two)
            mark = lines.tell()
            block = block_values(line + lines.read())
            if block is not None:
                values = block
                break
            lines.seek(mark)
        parts = text.split(",") if "," in text else text.split()
        if len(parts) != 2:
            raise ParseError(f"expected 2 columns, got {len(parts)}", lineno)
        values += (parse_value(float, "column 1", parts[0], lineno),
                   parse_value(float, "column 2", parts[1], lineno))
    metadata = ProfileMetadata(**meta_kwargs)
    first, second = np.array(values, dtype=np.float64).reshape(-1, 2).T
    if format == "raw":
        if metadata.u_star is None or metadata.nu is None:
            raise ValidationError("raw format requires u_star and nu metadata")
        check_values(ValidationError, "positive and finite", y=first, u=second)
        first = metadata.u_star * first / metadata.nu
        second = second / metadata.u_star
    return VelocityProfile(first, second, metadata)


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

    A column passed more than once is rendered once.  A table of at
    least ``_RENDER_MIN_VALUES`` values to render (rows times distinct
    columns) is rendered by ``_render``, which gives each value
    ``repr``'s text without a call per value, in blocks of at most
    ``_RENDER_BLOCK`` values; a smaller one by ``repr`` itself."""
    distinct = {id(column): column for column in columns}
    if len(columns[0]) * len(distinct) >= _RENDER_MIN_VALUES:
        table = np.stack(list(distinct.values()), axis=1, dtype=np.float64)
        where = [list(distinct).index(id(column)) for column in columns]
        rows = max(1, _RENDER_BLOCK // len(distinct))
        out = np.empty((rows, len(columns), _WIDTH + 1), np.uint8)
        out[:, :, _WIDTH] = ord(" ")
        out[:, -1, _WIDTH] = ord("\n")
        body = []
        for i in range(0, len(table), rows):
            block = table[i:i + rows]
            text = _render(block.ravel()).reshape(len(block), -1, _WIDTH)
            out[:len(block), :, :_WIDTH] = text[:, where]
            body.append(out[:len(block)].tobytes().translate(None, b"\0"))
        return header + "\n" + b"".join(body).decode("ascii")
    strings = {key: list(map(repr, column.tolist()))
               for key, column in distinct.items()}
    rows = zip(*(strings[id(column)] for column in columns), strict=True)
    return "\n".join([header, *map(" ".join, rows)]) + "\n"


# Below this many values a table is rendered faster by repr (CHANGES.md
# gives the crossover measured).
_RENDER_MIN_VALUES = 1024
# A block bounds the renderer's temporaries: its character index alone
# takes 200 bytes a value.
_RENDER_BLOCK = 2048

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
# repr writes a value positionally when its first digit stands for 10**e10
# with e10 in this range, as d.ddde±XX otherwise.
_POSITIONAL = range(-4, 16)
# The rows of a block's alphabet: each value's 18 digits, the same with
# NUL for each of its trailing zeros, then its minus sign (or NUL), the
# point, the point after its first digit in d.ddde±XX (or NUL), the 0 of
# a positional integer's .0 (or NUL), e, the exponent's sign, its
# hundreds (or NUL), tens and units, 0 and NUL.
_DIGITS, _KEPT = range(0, 18), range(18, 36)
(_MINUS, _DOT, _E_DOT, _DOT_ZERO, _E, _EXP_SIGN, _EXP_100, _EXP_10, _EXP_1,
 _ZERO, _NUL) = range(36, 47)
_WIDTH = 24     # the longest repr: -1.2345678901234567e-308
_POW10 = np.array([10 ** i for i in range(19)], _U64)


def _template(e10) -> list:
    """The alphabet rows, in order, of ``repr``'s text of a value whose
    first digit stands for ``10 ** e10``, or, for None, of one written
    ``d.ddde±XX``, padded to ``_WIDTH`` characters.  The rows that do not
    apply to a value hold NUL."""
    if e10 is None:
        out = [_MINUS, _KEPT[0], _E_DOT, *_KEPT[1:17], _E, _EXP_SIGN,
               _EXP_100, _EXP_10, _EXP_1]
    elif e10 < 0:
        out = [_MINUS, _ZERO, _DOT, *[_ZERO] * (-e10 - 1), *_KEPT[:17]]
    else:
        out = [_MINUS, *_DIGITS[:e10 + 1], _DOT, *_KEPT[e10 + 1:17],
               _DOT_ZERO]
    return out + [_NUL] * (_WIDTH - len(out))


@functools.cache
def _templates() -> np.ndarray:
    """``_template`` of each e10 of ``_POSITIONAL``, then of None."""
    return np.array([*map(_template, _POSITIONAL), _template(None)])


@functools.cache
def _g(k: int) -> tuple:
    """g(k) = floor(10**-k / 2**r) + 1, with r such that 2**125 <=
    10**-k / 2**r < 2**126, by Python ints, split into its high and low
    63 bits g1 and g0: g1, then the low and high 32 bits of g1 and of
    g0.  Built on first use, for k = -324 to 292."""
    if k <= 0:
        n = 10 ** -k
        r = n.bit_length() - 126
        g = (n >> r if r >= 0 else n << -r) + 1
    else:
        d = 10 ** k
        g = (1 << 125 + d.bit_length()) // d + 1
    g1, g0 = g >> 63, g & (1 << 63) - 1
    return g1, g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32


def _mul_high(a_low, a_high, b_low, b_high):
    """The high 64 bits of the 128-bit products a * b of uint64 arrays
    given as 32-bit halves."""
    ll, lh, hl = a_low * b_low, a_low * b_high, a_high * b_low
    mid = (ll >> _U64(32)) + (lh & _LOW32) + (hl & _LOW32)
    return (a_high * b_high + (lh >> _U64(32)) + (hl >> _U64(32))
            + (mid >> _U64(32)))


def _shortest(bits):
    """(f, k) for the normal float64s whose bits are the uint64 array
    ``bits``: the shortest decimal f * 10**k that reads back as the value,
    of those the nearest, ties to an even f, by Schubfach (R. Giulietti,
    "The Schubfach way to render doubles", 2020), in integer arithmetic.

    A value is c * 2**q with 2**52 <= c < 2**53.  Its rounding interval
    is bounded by (c -+ 1/2) * 2**q, or (c - 1/4) * 2**q below c = 2**52,
    where the spacing of the floats halves; those bounds and the value,
    times 4 * 10**-k, are taken as round-to-odd products with ``_g(k)``
    (``rop`` in the paper).  f has at most 18 digits, k the exponent of
    its last one."""
    exponent = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64)
    fraction = bits & _U64((1 << 52) - 1)
    regular = fraction != 0
    q = exponent - 1075
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) below c = 2**52,
    # and h from floor(log2(10**-k)), by the paper's fixed-point products
    k = (q * 661971961083 - 274743187321 * ~regular) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U64)
    k_min = int(k.min())
    g = np.array([_g(i) for i in range(k_min, int(k.max()) + 1)], _U64)
    g1, g1_low, g1_high, g0_low, g0_high = np.take(
        np.ascontiguousarray(g.T), k - k_min, axis=1)
    cb = (fraction | _U64(1 << 52)) << _U64(2)
    cp = np.stack([cb - _U64(1) - regular, cb, cb + _U64(2)]) << h
    cp_low, cp_high = cp & _LOW32, cp >> _U64(32)
    z = (g1 * cp >> _U64(1)) + _mul_high(g0_low, g0_high, cp_low, cp_high)
    vbl, vb, vbr = (_mul_high(g1_low, g1_high, cp_low, cp_high)
                    + (z >> _U64(63)) | (z << _U64(1) != _U64(0)))
    odd = fraction & _U64(1)
    vbl, vbr = vbl + odd, vbr - odd
    s = vb >> _U64(2)
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = tp10 << _U64(2) <= vbr
    t = s + _U64(1)
    uin = vbl <= s << _U64(2)
    win = t << _U64(2) <= vbr
    rest = vb & _U64(3)
    nearer_s = (rest < _U64(2)) | (rest == _U64(2)) & (s & _U64(1) == 0)
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(uin != win, np.where(uin, s, t),
                          np.where(nearer_s, s, t)))
    return f, k


def _render(values) -> np.ndarray:
    """``repr``'s text of each value of the float64 array ``values``, as
    the rows of an array of ``_WIDTH`` bytes padded with NULs.

    Only integer arithmetic on the values' bits is used, so the text
    cannot depend on how numpy's floating-point loops round on the host;
    ±0, subnormals, inf and nan are rendered by ``repr`` itself.  The
    digits of ``_shortest`` and the characters around them fill each
    value's alphabet, and the template of its layout picks its characters
    from it."""
    n = len(values)
    bits = values.view(_U64)
    exponent = bits >> _U64(52) & _U64(0x7FF)
    special = (exponent == _U64(0)) | (exponent == _U64(0x7FF))
    if special.any():
        bits = np.where(special, _U64(0x3FF0000000000000), bits)   # 1.0
    f, k = _shortest(bits)
    length = np.searchsorted(_POW10, f, side="right")
    # the digits of f as 18, in two halves of 9
    halves = np.stack(divmod(f * _POW10[18 - length], _U64(10 ** 9)))
    halves = halves.astype(np.uint32)
    alphabet = np.empty((_NUL + 1, n), np.uint8)
    digits, kept = alphabet[:18], alphabet[18:36]   # _DIGITS and _KEPT
    for i in range(8, -1, -1):
        halves, digits.reshape(2, 9, n)[:, i] = divmod(halves, np.uint32(10))
    nd = 18 - np.argmax(digits[::-1] != 0, axis=0)
    digits += ord("0")
    np.multiply(digits, np.arange(18)[:, None] < nd, out=kept)
    e10 = k + length - 1
    e = np.abs(e10)
    alphabet[_MINUS] = (bits >> _U64(63)) * ord("-")
    alphabet[_DOT], alphabet[_E] = ord("."), ord("e")
    alphabet[_E_DOT] = (nd > 1) * ord(".")
    alphabet[_DOT_ZERO] = (nd <= e10 + 1) * ord("0")
    alphabet[_EXP_SIGN] = np.where(e10 < 0, ord("-"), ord("+"))
    alphabet[_EXP_100] = (e >= 100) * (e // 100 + ord("0"))
    alphabet[_EXP_10] = e // 10 % 10 + ord("0")
    alphabet[_EXP_1] = e % 10 + ord("0")
    alphabet[_ZERO], alphabet[_NUL] = ord("0"), 0
    start, stop = _POSITIONAL.start, _POSITIONAL.stop
    layout = np.where((e10 >= start) & (e10 < stop), e10 - start,
                      len(_POSITIONAL))
    index = np.take(_templates(), layout, axis=0)   # alphabet row, value
    index *= n
    index += np.arange(n)[:, None]
    text = np.take(alphabet.ravel(), index)
    for i in np.flatnonzero(special).tolist():
        chars = repr(values[i].item()).encode()
        text[i] = 0
        text[i, :len(chars)] = np.frombuffer(chars, np.uint8)
    return text


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


def above_sublayer(eta: np.ndarray, lg_eta_min: float) -> np.ndarray:
    """The mask of the samples of ``eta`` (positive and finite) whose libm
    ``math.log10`` exceeds ``lg_eta_min``, taking that logarithm only near
    the edge ``10.0 ** lg_eta_min``.

    Away from the edge the mask is ``eta > edge``: libm ``log10`` errs by
    at most 2 ulp and ``pow`` by at most 1 ulp, far below log10(1 + 1e-9)
    ~ 4.3e-10, so a sample more than a relative 1e-9 from the edge falls
    on the same side of ``lg_eta_min`` either way.  The samples within it
    take ``math.log10`` (ln eta / ln 10 can move a boundary sample), and so
    does the whole column when the edge is not a normal float: 0 or
    subnormal, where it keeps too few bits, or beyond the float range.
    The mask thus equals the libm one sample for sample.
    """
    try:
        edge = 10.0 ** lg_eta_min
    except OverflowError:
        edge = math.inf
    above = eta > edge
    if sys.float_info.min <= edge < math.inf:
        near = np.abs(eta - edge) <= 1e-9 * edge
    else:
        near = np.ones_like(above)
    above[near] = libm_column(math.log10, eta[near]) > lg_eta_min
    return above


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

    The sublayer cut is ``above_sublayer``'s.  ln eta and ln phi are
    taken once, after it, and handed on as the result's ``ln_eta`` and
    ``ln_phi`` columns.

    Raises ValidationError if fewer than 4 samples survive, or if
    ``lg_eta_min`` is not finite or ``phi_plateau_tol`` is not >= 0 (an
    infinite tolerance is an infinite band).
    """
    check_values(ValidationError, "finite",
                 lg_eta_min=check_real("lg_eta_min", lg_eta_min))
    check_values(ValidationError, ">= 0", phi_plateau_tol=check_real(
        "phi_plateau_tol", phi_plateau_tol))
    eta, phi = profile.eta, profile.phi
    above = above_sublayer(eta, lg_eta_min)
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
