import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallscale import (ParseError, ProfileMetadata, ValidationError,
                       VelocityProfile, load_profile, save_profile,
                       select_intermediate)
from wallscale.profiles import atomic_write_text


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

    def test_unchanged_file_is_left_alone(self, tmp_path):
        target = tmp_path / "out.dat"
        atomic_write_text(target, "same\n")
        inode = target.stat().st_ino
        atomic_write_text(target, "same\n")
        assert target.stat().st_ino == inode
        # the old bytes as a prefix of the new, and the reverse, are changes
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

    def test_metadata_preserved(self):
        eta = [10 ** x for x in (2.0, 2.5, 3.0, 3.5, 4.0)]
        phi = [8.0 * e ** 0.14 for e in eta]
        profile = make_profile(eta, phi, label="keepme", re_theta=999.0)
        kept = select_intermediate(profile)
        assert kept.metadata == profile.metadata


def _select_reference(eta, phi, lg_eta_min, tol):
    """select_intermediate written sample by sample, as a reference."""
    kept = [(e, p) for e, p in zip(eta, phi) if math.log10(e) > lg_eta_min]
    n = len(kept)
    if n >= 2:
        ke = np.array([e for e, _ in kept])
        kp = np.array([p for _, p in kept])
        ln_eta, ln_phi = np.log(ke), np.log(kp)
        running_max = np.maximum.accumulate(kp)
        band = tol * kp.max()
        drop = 0
        for i in range(n - 1, 0, -1):
            slope = (ln_phi[i] - ln_phi[i - 1]) / (ln_eta[i] - ln_eta[i - 1])
            if slope <= 0 and kp[i] >= running_max[i] - band:
                drop += 1
            else:
                break
        kept = kept[:n - drop]
    return kept


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
    expected = _select_reference(eta.tolist(), phi.tolist(), lg_eta_min, tol)
    try:
        kept = select_intermediate(make_profile(eta, phi), lg_eta_min, tol)
    except ValidationError:
        assert len(expected) < 4
        return
    assert list(zip(kept.eta.tolist(), kept.phi.tolist())) == expected
