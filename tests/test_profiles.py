import math
import os
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wallscale import (DomainError, FitError, ParseError, ProfileMetadata,
                       ValidationError, VelocityProfile, load_profile,
                       save_profile, select_intermediate)
from wallscale.profiles import (as_columns, atomic_write_text, check_real,
                                check_values, format_columns, real_or_column)

from oracle import select_reference


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
            assert getattr(ProfileMetadata(**{field: good}), field) == 5
        with pytest.raises(ValidationError) as info:
            ProfileMetadata(**{field: value})
        assert str(info.value) == f"metadata field {field} {message}"

    @pytest.mark.parametrize("label", ["a\nb", "a\r", "\n", "a\x0bb",
                                       "a\u2028b", None])
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
        with pytest.raises(ValidationError, match=f"^{path}: eta not ascend"):
            load_profile(path)

    def test_too_few_samples_names_the_file(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("40 9.8\n80 10.9\n160 12.1\n")
        with pytest.raises(ValidationError, match=f"^{path}: .* got 3$"):
            load_profile(path)

    @pytest.mark.parametrize("fmt", ["wall_units", "raw"])
    def test_not_utf8_is_parse_error(self, tmp_path, fmt):
        path = tmp_path / "bad.dat"
        path.write_bytes(b"u_star=0.05\nnu=1.5e-5\n40 9.8\n80 10.9\xff\n")
        with pytest.raises(ParseError, match="not UTF-8") as err:
            load_profile(path, fmt)
        assert err.value.path == path
        assert err.value.line == 4

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

    def test_repeated_save_identical(self, tmp_path):
        profile = power_profile()
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        save_profile(profile, a)
        save_profile(profile, b)
        assert a.read_bytes() == b.read_bytes()


EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def float_columns(draw):
    n, width = draw(st.integers(0, 40)), draw(st.integers(1, 4))
    values = st.one_of(st.sampled_from(EDGE_FLOATS),
                       st.floats(allow_nan=False, width=64))
    return [draw(hnp.arrays(np.float64, n, elements=values))
            for _ in range(width)]


TWICE = np.array([-0.0, 5e-324, 1.5, -1.7976931348623157e308])


@settings(max_examples=100, deadline=None)
@example(header="x x", columns=[TWICE, TWICE])   # one column passed twice
@given(header=st.lists(st.text("abc #=_", min_size=1), min_size=1,
                       max_size=3).map("\n".join),
       columns=float_columns())
def test_format_columns_contract(header, columns):
    text = format_columns(header, *columns)
    assert text.startswith(header + "\n")
    assert text.endswith("\n") and not text.endswith("\n\n")
    rows = text[len(header) + 1:].splitlines()
    assert len(rows) == len(columns[0])
    for i, row in enumerate(rows):
        tokens = row.split(" ")
        assert len(tokens) == len(columns)
        back = np.array([float(token) for token in tokens])
        expected = np.array([column[i] for column in columns])
        assert back.view(np.uint64).tolist() == \
            expected.view(np.uint64).tolist()


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
    # the logarithms handed on are libm's, bit for bit
    assert kept.ln_eta.tolist() == [math.log(e) for e, _ in expected]
    assert kept.ln_phi.tolist() == [math.log(p) for _, p in expected]
