import math
import os
import tempfile
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wallscale import (DomainError, FitError, ParseError, ProfileMetadata,
                       ValidationError, VelocityProfile, load_profile,
                       profiles, save_profile, select_intermediate)
from wallscale.profiles import (as_columns, atomic_write_text, check_real,
                                check_values, format_columns, ieee_exp,
                                ieee_log, real_or_column)

import oracle
from odd_values import INVALID, LABEL
from oracle import _rows, log, select_reference


def make_profile(eta, phi, **meta):
    return VelocityProfile(eta, phi, ProfileMetadata(**meta))


def write_raw(path, rows, u_star=0.05, nu=1.5e-5):
    path.write_text(f"u_star={u_star!r}\nnu={nu!r}\n"
                    + "".join(f"{y!r} {u!r}\n" for y, u in rows))
    return path


def power_profile(ln_eta_lo=1.0, ln_eta_hi=8.0, n=20, a=8.66, alpha=0.14):
    ln_eta = np.linspace(ln_eta_lo, ln_eta_hi, n)
    eta = np.exp(ln_eta)
    return make_profile(eta, a * eta ** alpha)


class TestNormalize:
    def test_round_trip(self, tmp_path):
        u_star, nu = 0.05, 1.5e-5
        rows = [(0.001 * 1.7 ** i, 0.4 + 0.1 * i) for i in range(6)]
        profile = load_profile(write_raw(tmp_path / "raw.dat", rows, u_star,
                                         nu), format="raw")
        for (y, u), eta, phi in zip(rows, profile.eta.tolist(),
                                    profile.phi.tolist()):
            assert eta == u_star * y / nu
            assert phi == u / u_star
            assert eta * nu / u_star == pytest.approx(y, rel=1e-12)
            assert phi * u_star == pytest.approx(u, rel=1e-12)

    @pytest.mark.parametrize("y,u,us,nu", [
        (0.0, 1.0, 0.05, 1.5e-5),
        (0.01, -1.0, 0.05, 1.5e-5),
        (0.01, 1.0, 0.0, 1.5e-5),
        (0.01, 1.0, 0.05, 0.0),
        (math.inf, 1.0, 0.05, 1.5e-5),
    ])
    def test_domain(self, tmp_path, y, u, us, nu):
        rows = [(0.001, 0.5), (0.002, 0.6), (y, u), (1.0, 0.9)]
        with pytest.raises(ValidationError, match="positive"):
            load_profile(write_raw(tmp_path / "raw.dat", rows, us, nu),
                         format="raw")


class TestInvariants:
    def test_values_positive_and_finite(self):
        for eta, phi, message in [
            ([1.0, -1.0, 3.0, 4.0], [5, 6, 7, 8], "eta must be positive and "
                                                  "finite, got -1.0"),
            ([1, 2, 3, 4], [5.0, 0.0, 7.0, 8.0], "phi must be positive and "
                                                 "finite, got 0.0"),
            ([1, 2, math.nan, 4], [5, 6, 7, 8], "eta must .* got nan"),
            ([1, 2, 3, 4], [5, 6, 7, math.inf], "phi must .* got inf"),
            # the first bad row is named, eta before phi within a row
            ([1, 2, -3, 4], [5, -6, 7, 8], "phi must .* got -6"),
            ([1, -2, 3, 4], [5, -6, 7, 8], "eta must .* got -2"),
        ]:
            with pytest.raises(ValidationError, match=message):
                make_profile(eta, phi)

    def test_columns_are_read_only_float64_copies(self):
        eta = np.array([1, 2, 3, 4])
        phi = [5.0, 6.0, 7.0, 8.0]
        profile = make_profile(eta, phi)
        for column in (profile.eta, profile.phi):
            assert column.dtype == np.float64 and column.ndim == 1
            with pytest.raises(ValueError):
                column[0] = 9.0
        eta[0] = 0  # the caller's array is not the profile's
        assert profile.eta[0] == 1.0
        assert len(profile) == 4

    def test_log_columns(self):
        profile = make_profile([1, 2, 3, 4], [5.0, 6.0, 7.0, 8.0])
        assert profile.ln_eta is None and profile.ln_phi is None
        profile = VelocityProfile([1, 2, 3, 4], [5, 6, 7, 8],
                                  ProfileMetadata(), [0, 0.5, 1, 1.5],
                                  [1, 2, 3, 4])
        for column in (profile.ln_eta, profile.ln_phi):
            assert column.dtype == np.float64 and column.ndim == 1
            with pytest.raises(ValueError):
                column[0] = 9.0
        with pytest.raises(ValidationError,
                           match="eta and ln_phi differ in length: 4 and 3"):
            VelocityProfile([1, 2, 3, 4], [5, 6, 7, 8], ProfileMetadata(),
                            ln_phi=[1, 2, 3])

    @pytest.mark.parametrize("eta, phi", [
        ([1, 2, 3, 4], [5, 6, 7]),
        ([[1, 2], [3, 4]], [[5, 6], [7, 8]]),
        (["a", 2, 3, 4], [5, 6, 7, 8]),
    ])
    def test_columns_shape_and_type(self, eta, phi):
        with pytest.raises(ValidationError):
            make_profile(eta, phi)

    def test_min_samples(self):
        with pytest.raises(ValidationError):
            make_profile([1, 2, 3], [5, 6, 7])

    def test_strictly_increasing(self):
        with pytest.raises(ValidationError, match="duplicate eta value 2.0"):
            make_profile([1, 2, 2, 3], [5, 6, 7, 8])
        with pytest.raises(ValidationError,
                           match=r"eta not ascending \(3.0 before 2.0\)"):
            make_profile([1, 3, 2, 4], [5, 6, 7, 8])

    def test_metadata_positive(self):
        with pytest.raises(ValidationError):
            ProfileMetadata(re_theta=-5.0)

    @pytest.mark.parametrize("field", ["re_theta", "turbulence_level",
                                       "free_stream_velocity", "nu",
                                       "u_star"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_metadata_finite(self, field, value):
        with pytest.raises(ValidationError, match="positive and finite"):
            ProfileMetadata(**{field: value})

    @pytest.mark.parametrize("field", ["re_theta", "turbulence_level",
                                       "free_stream_velocity", "nu",
                                       "u_star"])
    @pytest.mark.parametrize("value, message", [
        ("5", "must be a real number, got '5'"),
        (True, "must be a real number, got True"),
        (10**400, "is outside the float range"),
    ], ids=["text", "bool", "10**400"])
    def test_metadata_numbers_are_real(self, field, value, message):
        for good in (5, 5.0, np.float64(5.0)):
            stored = getattr(ProfileMetadata(**{field: good}), field)
            assert type(stored) is float and stored == 5
        with pytest.raises(ValidationError) as info:
            ProfileMetadata(**{field: value})
        assert str(info.value) == f"metadata field {field} {message}"

    @pytest.mark.parametrize("label", ["a\nb", "a\r", "\n", "a\x0bb",
                                       "a\u2028b", None, "x\udcff"])
    def test_label_is_one_line_of_text(self, label):
        with pytest.raises(ValidationError, match="one line"):
            ProfileMetadata(label=label)


class TestColumnContract:
    def test_float64_column_is_not_copied(self):
        column = np.linspace(1.0, 2.0, 10)
        view = column[::2]      # strided
        head = column[:5]
        first, second = as_columns(ValidationError, a=head, b=view)
        assert first is head and second is view

    @pytest.mark.parametrize("value", [[1, 2, 3], (1.0, 2.0, 3.0),
                                       np.arange(1, 4),
                                       np.float32([1.0, 2.0, 3.0])])
    def test_other_columns_become_float64(self, value):
        (column,) = as_columns(ValidationError, x=value)
        assert column.dtype == np.float64 and column.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("value, got", [
        ("1 2 3", "shape () of <U5"), (5.0, "shape () of float64"),
        (None, "shape () of object"), ([[1.0, 2.0]], "shape (1, 2) of float64"),
        ([[1.0], [1.0, 2.0]], "shape (2,) of object"),
        (["1", "2"], "shape (2,) of <U1"), ([1.0, None], "shape (2,) of object"),
        (np.array([1j]), "shape (1,) of complex128"),
        (np.array([True]), "shape (1,) of bool"),
        ([1.0, 10**400], "shape (2,) of object")])
    def test_not_a_column_is_the_given_error(self, value, got):
        for error in (ValidationError, ParseError):
            with pytest.raises(error) as info:
                as_columns(error, first=[1.0], x=value)
            assert str(info.value) == (
                f"x must be a 1-D column of real numbers, got {got}")

    def test_lengths_are_named(self):
        with pytest.raises(ValidationError) as info:
            as_columns(ValidationError, a=[1.0], b=[1.0], c=[1.0, 2.0])
        assert str(info.value) == "a and c differ in length: 1 and 2"

    def test_real_or_column(self):
        column = np.ones(3)
        assert real_or_column(ValidationError, a=np.int64(2), b=column,
                              c=[1, 2, 3]) [:2] == [2.0, column]
        with pytest.raises(ValidationError, match="a and b differ"):
            real_or_column(ValidationError, x=1.0, a=[1.0], b=(1.0, 2.0))
        with pytest.raises(ValidationError, match="must be a real number"):
            real_or_column(ValidationError, x="1.0")

    @pytest.mark.parametrize("value", [Fraction(1, 3), Decimal("1.5"),
                                       np.complex128(1.0), np.bool_(True),
                                       True, "1.0", None])
    def test_check_real_takes_ints_and_floats_only(self, value):
        with pytest.raises(ValidationError, match="must be a real number"):
            check_real("x", value)

    def test_check_real_returns_a_float(self):
        for value in (3, np.int64(3), np.float32(3.0), 3.0):
            assert type(check_real("x", value)) is float


# rule -> (values that keep it, values that break it)
VALUE_RULES = {
    "finite": ([-1e308, -0.0, 5e-324, 1e308], [math.inf, -math.inf, math.nan]),
    ">= 0": ([0.0, -0.0, 5e-324, math.inf], [-5e-324, -math.inf, math.nan]),
    "finite and >= 0": ([0.0, -0.0, 1e308], [-1.0, math.inf, math.nan]),
    "positive": ([5e-324, 1.0, math.inf], [0.0, -0.0, -1.0, math.nan]),
    "positive and finite": ([5e-324, 1e308], [0.0, -1.0, math.inf, math.nan]),
}


def _value_rule_cases():
    """(rule, named values, the message or None) for each rule on numbers
    and on columns, then the order of the rows and the arguments."""
    for rule, (good, bad) in VALUE_RULES.items():
        yield rule, dict(x=good[0], y=np.array(good)), None
        for value in bad:
            message = f"y must be {rule}, got {value!r}"
            yield rule, dict(x=good[-1], y=value), message
            yield rule, dict(x=np.array(good), y=np.array(
                [*good[:2], value, good[0], value])), message
    # the first bad row wins, then the first argument in it; a number
    # stands in every row
    yield "positive", dict(a=[1.0, 1.0, -1.0], b=[1.0, -2.0, 1.0]), \
        "b must be positive, got -2.0"
    yield "positive", dict(a=[1.0, -1.0], b=[1.0, -2.0]), \
        "a must be positive, got -1.0"
    yield "positive", dict(a=[1.0, -1.0], b=-2.0), \
        "b must be positive, got -2.0"
    yield "positive", dict(a=[-1.0, 1.0], b=-2.0), \
        "a must be positive, got -1.0"
    yield "finite", dict(a=[math.nan], b=[math.inf]), \
        "a must be finite, got nan"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("error", [ValidationError, DomainError, FitError])
@pytest.mark.parametrize("rule, values, message", list(_value_rule_cases()))
def test_check_values(rule, values, message, error):
    values = {name: np.array(value) if isinstance(value, list) else value
              for name, value in values.items()}
    if message is None:
        assert check_values(error, rule, **values) is None
        return
    with pytest.raises(error) as info:
        check_values(error, rule, **values)
    assert type(info.value) is error
    assert str(info.value) == message


class TestLoadProfile:
    def test_wall_units_with_metadata(self, tmp_path):
        path = tmp_path / "p.dat"
        path.write_text("# a comment\n"
                        "label=case A\n"
                        "re_theta=4680\n"
                        "turbulence_level=0.024\n"
                        "40 9.8\n"
                        "80, 10.9\n"
                        "160\t12.1\n"
                        "320 13.4\n")
        profile = load_profile(path)
        assert len(profile) == 4
        assert profile.metadata.label == "case A"
        assert profile.metadata.re_theta == 4680
        assert profile.metadata.turbulence_level == 0.024
        assert profile.eta.tolist() == [40.0, 80.0, 160.0, 320.0]
        assert profile.phi.tolist() == [9.8, 10.9, 12.1, 13.4]

    def test_raw_format(self, tmp_path):
        path = tmp_path / "raw.dat"
        path.write_text("u_star=0.05\nnu=1.5e-5\n"
                        "0.001 0.5\n0.002 0.6\n0.004 0.7\n0.008 0.8\n")
        profile = load_profile(path, format="raw")
        assert profile.eta[0] == pytest.approx(0.05 * 0.001 / 1.5e-5)
        assert profile.phi[0] == pytest.approx(0.5 / 0.05)

    def test_raw_requires_scales(self, tmp_path):
        path = tmp_path / "raw.dat"
        path.write_text("0.001 0.5\n0.002 0.6\n0.004 0.7\n0.008 0.8\n")
        with pytest.raises(ValidationError):
            load_profile(path, format="raw")

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("40 9.8\n80 oops\n")
        with pytest.raises(ParseError) as err:
            load_profile(path)
        assert err.value.line == 2

    def test_unknown_metadata_key(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("bogus=1\n40 9.8\n")
        with pytest.raises(ParseError):
            load_profile(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("40 9.8 extra\n")
        with pytest.raises(ParseError):
            load_profile(path)

    def test_decreasing_eta_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("40 9.8\n80 10.9\n60 10.2\n160 12.1\n")
        # the CLI's error line names the file (test_cli's
        # test_error_line_names_the_input_once), the error names the line
        # of the row that holds the second value
        with pytest.raises(ValidationError, match=(
                r"^line 3: eta not ascending \(80\.0 before 60\.0\)$")):
            load_profile(path)

    def test_too_few_samples_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("40 9.8\n80 10.9\n160 12.1\n")
        with pytest.raises(ValidationError,
                           match="^profile needs at least 4 samples, got 3$"
                           ) as err:
            load_profile(path)
        assert err.value.line is None

    @pytest.mark.parametrize("fmt", ["wall_units", "raw"])
    def test_not_utf8_is_parse_error(self, tmp_path, fmt):
        path = tmp_path / "bad.dat"
        path.write_bytes(b"u_star=0.05\nnu=1.5e-5\n40 9.8\n80 10.9\xff\n")
        with pytest.raises(ParseError) as err:
            load_profile(path, fmt)
        assert str(err.value) == (
            "line 4: not UTF-8 text (byte 0xff: invalid start byte)")
        assert err.value.line == 4
        assert not hasattr(err.value, "path")

    def test_nonpositive_value_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("40 9.8\n80 -10.9\n160 12.1\n320 13.4\n")
        with pytest.raises(ValidationError):
            load_profile(path)

    def test_unknown_format(self, tmp_path):
        for bogus in ("csv", "bogus"):
            with pytest.raises(ValidationError):
                load_profile(tmp_path / "x.dat", format=bogus)


class TestSaveProfile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        eta = np.sort(rng.uniform(10.0, 1e5, 30))
        phi = rng.uniform(5.0, 30.0, 30)
        profile = make_profile(eta, phi, label="rt", re_theta=1234.5,
                               u_star=0.0412, nu=1.51e-5)
        path = tmp_path / "out.dat"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert np.array_equal(loaded.eta, profile.eta)
        assert np.array_equal(loaded.phi, profile.phi)
        assert loaded.metadata == profile.metadata

    @pytest.mark.parametrize("label", [" a b ", "a ", "\ta", "a\x1f"])
    def test_label_with_outer_whitespace_is_refused(self, tmp_path, label):
        # load_profile strips a value, so the label would come back changed
        path, plain = tmp_path / "out.dat", power_profile()
        with pytest.raises(ValidationError) as err:
            save_profile(make_profile(plain.eta, plain.phi, label=label),
                         path)
        assert str(err.value) == (f"cannot write label value {label!r}: "
                                  "it would not read back")
        assert list(tmp_path.iterdir()) == []

    def test_numbers_are_written_as_floats(self, tmp_path):
        path, plain = tmp_path / "out.dat", power_profile()
        save_profile(make_profile(plain.eta, plain.phi, re_theta=5,
                                  nu=np.float64(1.5e-5)), path)
        assert path.read_text().splitlines()[1:3] == ["re_theta=5.0",
                                                      "nu=1.5e-05"]
        assert load_profile(path).metadata == ProfileMetadata(
            re_theta=5.0, nu=1.5e-5)

    def test_repeated_save_identical(self, tmp_path):
        profile = power_profile()
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        save_profile(profile, a)
        save_profile(profile, b)
        assert a.read_bytes() == b.read_bytes()


# A metadata number: positive and finite, or one the metadata refuses.
METADATA_NUMBER = st.one_of(
    st.none(), st.floats(0.0, exclude_min=True, allow_infinity=False),
    st.integers(1, 10**30), INVALID)


@st.composite
def profile_columns(draw):
    """Strictly ascending positive eta and positive phi, n = 4..30."""
    positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
    eta = sorted(draw(st.lists(positive, min_size=4, max_size=30,
                               unique=True)))
    return eta, draw(st.lists(positive, min_size=len(eta),
                              max_size=len(eta)))


@settings(max_examples=200, deadline=None)
@given(label=LABEL, numbers=st.lists(METADATA_NUMBER, min_size=5,
                                     max_size=5),
       columns=profile_columns())
def test_save_load_round_trip(label, numbers, columns):
    # a saved profile loads back equal, bit for bit, or is refused with a
    # ValidationError before anything is written
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.dat"
        try:
            profile = VelocityProfile(*columns,
                                      ProfileMetadata(label, *numbers))
            save_profile(profile, path)
        except ValidationError:
            assert not path.exists()
            return
        loaded = load_profile(path)
    assert loaded.metadata == profile.metadata
    for column in ("eta", "phi"):
        assert (getattr(loaded, column).view(np.uint64).tolist()
                == getattr(profile, column).view(np.uint64).tolist())


EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
# The bits of 1e-4 and of 1e16, the ends of the magnitudes repr writes
# positionally (1e16 itself is not), and the sign bit.
POSITIONAL_BITS = (int(np.float64(1e-4).view(np.uint64)),
                   int(np.float64(1e16).view(np.uint64)))
SIGN_BIT = 1 << 63


def positional(value: float) -> bool:
    """Whether ``repr`` writes ``value`` positionally, not as
    d.ddde±XX, nan or inf."""
    return math.isfinite(value) and "e" not in repr(value)


def rendered(header, *columns):
    """``format_columns``'s text, and whether it went through orjson."""
    with mock.patch.object(orjson, "dumps", wraps=orjson.dumps) as dumps:
        text = format_columns(header, *columns)
    return text, dumps.called


POSITIONAL_FLOAT = st.builds(
    lambda bits, sign: float(np.uint64(bits | sign).view(np.float64)),
    st.integers(*POSITIONAL_BITS).filter(
        lambda bits: bits < POSITIONAL_BITS[1]),
    st.sampled_from([0, SIGN_BIT])) | st.sampled_from([0.0, -0.0])


@st.composite
def float_columns(draw):
    """1 to 4 columns of 0 to 40 rows of any floats, or only of floats
    that repr writes positionally."""
    n, width = draw(st.integers(0, 40)), draw(st.integers(1, 4))
    values = draw(st.sampled_from([
        st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64)),
        POSITIONAL_FLOAT]))
    return [draw(hnp.arrays(np.float64, n, elements=values))
            for _ in range(width)]


TWICE = np.array([-0.0, 5e-324, 1.5, -1.7976931348623157e308])
POSITIONAL_TWICE = TWICE[::2]       # -0.0 and 1.5, which orjson renders


@settings(max_examples=200, deadline=None)
@example(header="x x", columns=[TWICE, TWICE])   # one column passed twice
@example(header="x x", columns=[TWICE[2:], TWICE[2:]])
@example(header="x y x", columns=[POSITIONAL_TWICE, POSITIONAL_TWICE[::-1],
                                  POSITIONAL_TWICE])
@example(header="h", columns=[np.empty(0)])      # a table of no rows
@example(header="h", columns=[np.empty(0), np.empty(0)])
@given(header=st.lists(st.text("abc #=_", min_size=1), min_size=1,
                       max_size=3).map("\n".join),
       columns=float_columns())
def test_format_columns_contract(header, columns):
    # orjson renders a table of rows that repr writes positionally, and
    # repr any other; either gives repr's text of each value
    text, through_orjson = rendered(header, *columns)
    assert text.startswith(header + "\n")
    assert text.endswith("\n") and not text.endswith("\n\n")
    rows = text[len(header) + 1:].splitlines()
    assert len(rows) == len(columns[0])
    for i, row in enumerate(rows):
        assert row.split(" ") == [repr(float(column[i]))
                                  for column in columns]
    values = np.concatenate(columns).tolist()
    assert through_orjson == (len(values) > 0
                              and all(map(positional, values)))


def edge_values():
    """±0, subnormals, inf, nan and every power of two and of ten that a
    float64 holds, each with its two neighbours, of both signs."""
    powers = ([2.0 ** e for e in range(-1074, 1024)]
              + [float(f"1e{e}") for e in range(-323, 309)])
    values = np.array([0.0, 2.2250738585072014e-308 / 3, math.inf, math.nan]
                      + powers)
    values = np.concatenate([values, np.nextafter(values, 0.0),
                             np.nextafter(values, math.inf)])
    return np.concatenate([values, -values])


def test_format_columns_through_orjson_at_edges():
    # every power of two and of ten in [1e-4, 1e16) with both neighbours
    # and both signs, and the lower neighbour of 1e16, but not of 1e-4
    values = edge_values()
    values = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]
    assert len(values) == 522 and all(map(positional, values.tolist()))
    assert rendered("v", values) == (_rows("v", values), True)


def test_format_columns_through_orjson_on_random_bits():
    # 200,000 values drawn uniformly over the bit patterns that repr
    # writes positionally, as one column and as a table of 4
    rng = np.random.default_rng(35)
    bits = rng.integers(*POSITIONAL_BITS, 200_000, dtype=np.uint64)
    bits |= rng.integers(0, 2, 200_000, dtype=np.uint64) << np.uint64(63)
    values = bits.view(np.float64)
    assert rendered("v", values) == (_rows("v", values), True)
    columns = list(values.reshape(4, -1))
    assert rendered("a b c d", *columns) == (_rows("a b c d", *columns),
                                             True)


def test_format_columns_through_repr_at_edges():
    values = edge_values()
    assert rendered("v", values) == (_rows("v", values), False)


def test_format_columns_through_repr_on_random_bits():
    bits = np.random.default_rng(26).integers(
        0, 2 ** 64 - 1, 200_000, dtype=np.uint64, endpoint=True)
    values = bits.view(np.float64)
    assert rendered("v", values) == (_rows("v", values), False)


# A value at or just past each end of the positional range, and the
# special values, each in one row of an otherwise positional table.
@pytest.mark.parametrize("value, through_orjson", [
    (1e-4, True), (np.nextafter(1e-4, 0.0), False),
    (np.nextafter(1e16, 0.0), True), (1e16, False),
    (-1e-4, True), (-1e16, False), (0.0, True), (-0.0, True),
    (5e-324, False), (math.inf, False), (-math.inf, False),
    (math.nan, False)])
def test_format_columns_takes_orjson_where_repr_is_positional(
        value, through_orjson):
    column = np.array([1.5, 2.0, value, 3.25])
    columns = (np.arange(1.0, 5.0), column, column)
    assert rendered("a b c", *columns) == (_rows("a b c", *columns),
                                           through_orjson)


class TestAtomicWrite:
    def test_same_bytes_and_mode_as_plain_write(self, tmp_path):
        text = "ln_eta phi\n1.0 2.0\n\u03b7\n"
        plain, atomic = tmp_path / "plain.dat", tmp_path / "atomic.dat"
        plain.write_text(text, encoding="utf-8")
        atomic_write_text(atomic, "old contents\n")
        atomic_write_text(atomic, text)
        assert atomic.read_bytes() == plain.read_bytes()
        assert atomic.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "atomic.dat", "plain.dat"]

    def test_rewrite_with_the_old_bytes_as_a_prefix(self, tmp_path):
        # the old bytes as a prefix of the new, and the reverse
        target = tmp_path / "out.dat"
        atomic_write_text(target, "same\n")
        atomic_write_text(target, "same\nmore\n")
        assert target.read_text() == "same\nmore\n"
        atomic_write_text(target, "same\n")
        assert target.read_text() == "same\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.dat"]

    def test_existing_tmp_file_survives(self, tmp_path):
        stray = tmp_path / "out.dat.tmp"
        stray.write_text("keep me\n")
        save_profile(power_profile(), tmp_path / "out.dat")
        assert stray.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.dat", "out.dat.tmp"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.dat"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(target, "new\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.dat"]


class TestSelectIntermediate:
    def test_sublayer_cutoff(self):
        # samples at lg eta = 1.0, 1.5 dropped; the strict > keeps 1.6+
        eta = [10 ** x for x in (1.0, 1.5, 1.6, 2.0, 3.0, 4.0)]
        phi = [8.66 * e ** 0.14 for e in eta]
        kept = select_intermediate(make_profile(eta, phi))
        assert len(kept) == 4
        assert kept.eta[0] == pytest.approx(10 ** 1.6)

    def test_monotone_profile_keeps_tail(self):
        profile = power_profile(ln_eta_lo=4.0, ln_eta_hi=9.0, n=15)
        kept = select_intermediate(profile)
        assert len(kept) == 15

    def test_plateau_dropped(self):
        ln_eta = np.linspace(4.0, 9.0, 20)
        eta = np.exp(ln_eta)
        phi = 8.66 * eta ** 0.14
        phi[-5:] = phi[-6]  # pinned free-stream plateau
        kept = select_intermediate(make_profile(eta, phi))
        assert len(kept) == 15
        assert kept.eta[-1] == pytest.approx(eta[14])

    def test_too_few_survivors(self):
        eta = [5.0, 10.0, 20.0, 30.0]  # all at or below lg eta 1.5
        phi = [7.0, 8.0, 9.0, 10.0]
        with pytest.raises(ValidationError, match="empty result"):
            select_intermediate(make_profile(eta, phi))

    # lg eta = 1 and 1.3 are cut; 40, 80 and 160 survive, and 320 a fourth
    FLOOR_ETA = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
    FLOOR_PHI = [5.0, 6.0, 8.0, 9.0, 10.0, 11.0]

    def test_three_survivors_are_refused(self):
        profile = make_profile(self.FLOOR_ETA[:5], self.FLOOR_PHI[:5])
        with pytest.raises(ValidationError) as info:
            select_intermediate(profile)
        assert str(info.value) == (
            "empty result: fewer than 4 samples survive the sublayer "
            "cutoff (lg_eta_min=1.5) and plateau removal")

    def test_four_survivors_are_kept(self):
        profile = make_profile(self.FLOOR_ETA, self.FLOOR_PHI)
        assert (select_intermediate(profile).eta.tolist()
                == self.FLOOR_ETA[2:])

    def test_custom_cutoff(self):
        profile = power_profile(ln_eta_lo=1.0, ln_eta_hi=8.0, n=20)
        loose = select_intermediate(profile, lg_eta_min=0.3)
        strict = select_intermediate(profile, lg_eta_min=2.0)
        assert len(loose) > len(strict)

    def test_huge_tolerance_is_an_infinite_band(self):
        eta = np.exp(np.linspace(4.0, 9.0, 20))
        phi = 8.66 * eta ** 0.14
        phi[-5:] = phi[-6] * np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        profile = make_profile(eta, phi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # tol * max(phi) overflows
            huge = select_intermediate(profile, 1.5, 1e308)
            infinite = select_intermediate(profile, 1.5, math.inf)
        assert len(infinite) == 15            # the falling tail is cut
        for column in ("eta", "phi", "ln_eta", "ln_phi"):
            assert (getattr(huge, column).tolist()
                    == getattr(infinite, column).tolist())

    def test_metadata_preserved(self):
        eta = [10 ** x for x in (2.0, 2.5, 3.0, 3.5, 4.0)]
        phi = [8.0 * e ** 0.14 for e in eta]
        profile = make_profile(eta, phi, label="keepme", re_theta=999.0)
        kept = select_intermediate(profile)
        assert kept.metadata == profile.metadata


@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 60), seed=st.integers(0, 2**32 - 1),
       plateau=st.integers(0, 20), lg_eta_min=st.floats(-1.0, 3.0),
       tol=st.sampled_from([0.0, 0.002, 0.05]),
       sigma=st.sampled_from([0.0, 1e-4, 0.01]))
def test_select_intermediate_matches_reference(n, seed, plateau, lg_eta_min,
                                               tol, sigma):
    rng = np.random.default_rng(seed)
    eta = np.cumsum(rng.uniform(0.1, 50.0, n))
    phi = 8.0 * eta ** 0.14 * np.exp(rng.normal(0.0, sigma, n))
    phi[n - min(plateau, n - 1):] = phi[n - min(plateau, n - 1) - 1]
    expected = select_reference(eta.tolist(), phi.tolist(), lg_eta_min, tol)
    try:
        kept = select_intermediate(make_profile(eta, phi), lg_eta_min, tol)
    except ValidationError:
        assert len(expected) < 4
        return
    assert list(zip(kept.eta.tolist(), kept.phi.tolist())) == expected
    # the logarithms handed on are the reference's, bit for bit
    assert kept.ln_eta.tolist() == [log(e) for e, _ in expected]
    assert kept.ln_phi.tolist() == [log(p) for _, p in expected]


def _edge(lg_eta_min):
    try:
        return 10.0 ** lg_eta_min
    except OverflowError:
        return math.inf


def _steps(x, k):
    """``x`` moved ``k`` floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


@st.composite
def edge_samples(draw):
    """``lg_eta_min`` in [-400, 400], so that the edge ``10.0 **
    lg_eta_min`` is 0, subnormal, normal or beyond the float range, and
    positive finite eta at the edge's float neighbours, at the neighbours
    of edge * (1 +- 1e-9), among the subnormals and anywhere."""
    lg_eta_min = draw(st.floats(-400.0, 400.0) | st.floats(-330.0, -300.0)
                      | st.floats(300.0, 310.0)
                      | st.integers(-400, 400).map(float))
    edge = min(max(_edge(lg_eta_min), 5e-324), 1.7976931348623157e308)
    centres = [edge, edge * (1 - 1e-9), edge * (1 + 1e-9)]
    near = [_steps(draw(st.sampled_from(centres)), draw(st.integers(-4, 4)))
            for _ in range(draw(st.integers(0, 8)))]
    subnormal = [5e-324 * m for m in
                 draw(st.lists(st.integers(1, 2**52 - 1), max_size=4))]
    anywhere = draw(st.lists(st.floats(5e-324, 1.7976931348623157e308),
                             max_size=4))
    eta = np.array([e for e in near + subnormal + anywhere
                    if 0.0 < e < math.inf])
    return lg_eta_min, eta


@settings(max_examples=300, deadline=None)
@given(case=edge_samples())
@example(case=(0.5, np.array([_steps(_edge(0.5), k) for k in range(-3, 4)])))
# log10(eta) > 0.5 here, but ln eta is not above 0.5 * ln 10: dropped
@example(case=(0.5, np.array([3.16227766016838])))
@example(case=(-323.5, np.array([5e-324, 1e-323, 1e-310])))     # subnormal
@example(case=(-400.0, np.array([5e-324, 1.0])))                # edge 0
@example(case=(308.3, np.array([1e308, 1.7976931348623157e308])))   # inf
@example(case=(1e308, np.array([1.0])))         # lg_eta_min * ln 10 is inf
@example(case=(-1e308, np.array([5e-324])))     # and -inf
def test_sublayer_cut_compares_ln_eta_with_lg_eta_min_ln10(case):
    # The four largest floats join the drawn eta, so that most cases keep
    # the 4 samples a selection needs; phi rises, so no plateau is cut.
    lg_eta_min, eta = case
    top = [_steps(1.7976931348623157e308, -k) for k in range(4)]
    eta = np.unique(np.concatenate([eta, top]))
    profile = make_profile(eta, np.arange(1.0, len(eta) + 1))
    edge = lg_eta_min * log(10.0)       # +-inf when it overflows
    expected = [e for e in eta.tolist() if log(e) > edge]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if len(expected) < 4:
            with pytest.raises(ValidationError, match="^empty result"):
                select_intermediate(profile, lg_eta_min)
            return
        kept = select_intermediate(profile, lg_eta_min)
    assert kept.eta.tolist() == expected
    assert kept.ln_eta.tolist() == [log(e) for e in expected]


# --- ieee_log and ieee_exp --------------------------------------------------

MAX = 1.7976931348623157e308
POSITIVE = st.floats(5e-324, MAX)       # subnormals included
# every float, and more of them where exp is neither 1, 0 nor inf
ANY = st.floats() | st.floats(-746.0, 710.0) | st.floats(-1e-8, 1e-8)


def _order(x: float) -> int:
    """An integer that counts floats: neighbours differ by 1."""
    bits = oracle._bits(x)
    return bits if bits >> 63 == 0 else -(bits & (2**63 - 1))


def _same(got, want: float) -> bool:
    """Whether a float is ``want`` bit for bit, or both are nan."""
    return (oracle._bits(got) == oracle._bits(want)
            or math.isnan(got) and math.isnan(want))


def _libm_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


LOG_EDGES = [5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
             0.5, 1.0, 2.0, 10.0, MAX, *[_steps(0.7071067811865476, k)
                                         for k in (-1, 0, 1)],
             *[_steps(1.4142135623730951, k) for k in (-1, 0, 1)],
             *[_steps(1.0, k) for k in (-2, -1, 1, 2)]]
EXP_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e-300,
             *[_steps(oracle.O_THRESHOLD, k) for k in (-1, 0, 1)],
             *[-_steps(-oracle.U_THRESHOLD, k) for k in (-1, 0, 1)],
             -708.4, -709.1, -744.0, -745.2, 709.0, 710.0, -746.0, 1e308,
             -1e308, 0.5 * math.log(2.0), 1.5 * math.log(2.0)]


class TestIeeeLogExp:
    """``ieee_log`` and ``ieee_exp`` on a float and on each value of an
    array, bit for bit against ``oracle.log`` and ``oracle.exp``, fdlibm
    transliterated a value at a time from its bits, and within 1 ulp of
    libm."""

    @settings(max_examples=1000, deadline=None)
    @given(x=POSITIVE)
    def test_log_float_is_the_reference(self, x):
        got = ieee_log(x)
        assert type(got) is float and _same(got, log(x))

    @pytest.mark.parametrize("x", LOG_EDGES)
    def test_log_edges_are_the_reference(self, x):
        assert _same(ieee_log(x), log(x))
        assert _same(ieee_log(np.array([x])).item(), log(x))

    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                      max_side=30),
                        elements=POSITIVE))
    def test_log_array_is_the_reference(self, x):
        got = ieee_log(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert all(map(_same, got.ravel().tolist(), map(log, x.ravel())))

    @settings(max_examples=1000, deadline=None)
    @given(x=POSITIVE | st.floats(0.5, 2.0))
    def test_log_within_one_ulp_of_libm(self, x):
        assert abs(_order(ieee_log(x)) - _order(math.log(x))) <= 1

    @settings(max_examples=1000, deadline=None)
    @given(x=ANY)
    def test_exp_float_is_the_reference(self, x):
        got = ieee_exp(x)
        assert type(got) is float and _same(got, oracle.exp(x))

    @pytest.mark.parametrize("x", EXP_EDGES)
    def test_exp_edges_are_the_reference(self, x):
        assert _same(ieee_exp(x), oracle.exp(x))
        with np.errstate(over="ignore"):
            assert _same(ieee_exp(np.array([x])).item(), oracle.exp(x))

    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                      max_side=30),
                        elements=ANY))
    def test_exp_array_is_the_reference(self, x):
        with np.errstate(over="ignore"):
            got = ieee_exp(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert all(map(_same, got.ravel().tolist(),
                       map(oracle.exp, x.ravel().tolist())))

    @settings(max_examples=1000, deadline=None)
    @given(x=ANY.filter(lambda x: not math.isnan(x)))
    def test_exp_within_one_ulp_of_libm_and_finite_where_it_is(self, x):
        got, want = ieee_exp(x), _libm_exp(x)
        assert math.isfinite(got) == math.isfinite(want)
        if math.isfinite(want):
            assert abs(_order(got) - _order(want)) <= 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_columns_are_the_reference(self, seed):
        # thousands of ordinary values a draw, where the drawn floats
        # above are mostly edge values: positive bit patterns, ln-uniform
        # over the whole range and uniform over [1/2, 2] for log; bit
        # patterns, uniform over the finite range and near 0 for exp
        rng = np.random.default_rng(seed)
        positive = np.concatenate([
            rng.integers(1, 0x7FF0000000000000, 1000).view(np.float64),
            np.exp(rng.uniform(-744.0, 709.0, 1000)),
            rng.uniform(0.5, 2.0, 1000)])
        ln = ieee_log(positive)
        assert all(map(_same, ln.tolist(), map(log, positive.tolist())))
        assert all(abs(_order(a) - _order(math.log(x))) <= 1
                   for a, x in zip(ln.tolist(), positive.tolist()))
        every = np.concatenate([
            rng.integers(0, 2**64, 1000, dtype=np.uint64).view(np.float64),
            rng.uniform(-750.0, 715.0, 1000), rng.normal(0.0, 1.0, 1000)])
        with np.errstate(over="ignore", invalid="ignore"):
            e = ieee_exp(every)
        assert all(map(_same, e.tolist(), map(oracle.exp, every.tolist())))
        for a, x in zip(e.tolist(), every.tolist()):
            if not math.isnan(x):
                want = _libm_exp(x)
                assert math.isfinite(a) == math.isfinite(want)
                assert not math.isfinite(a) or abs(_order(a)
                                                   - _order(want)) <= 1

    def test_exp_is_finite_exactly_where_libm_is(self):
        # the floats around the overflow threshold, where exp(x) passes
        # the largest float
        x = _steps(oracle.O_THRESHOLD, -200)
        for _ in range(400):
            assert math.isfinite(ieee_exp(x)) == math.isfinite(_libm_exp(x))
            x = math.nextafter(x, math.inf)

    def test_exp_overflow_sets_numpys_flag(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert ieee_exp(np.array([1.0, 710.0])).tolist() == [
                oracle.exp(1.0), math.inf]
