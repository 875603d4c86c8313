import contextlib
import dataclasses
import functools
import io
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wallscale
from wallscale import (AnalyzeOptions, SynthSpec, generate, report,
                       save_profile, scaling)
from wallscale.cli import (EXIT_FIT, EXIT_IO, EXIT_OK, EXIT_PARSE,
                           EXIT_PARTIAL, EXIT_VALIDATION, VERBS, build_parser,
                           main)
from wallscale.report import envelope_table


def write_profile(path, **overrides):
    kwargs = dict(ln_re=10.69, break_ln_eta=6.5, ln_eta_range=(2.0, 9.5),
                  n_points=36, label=path.stem)
    kwargs.update(overrides)
    save_profile(generate(SynthSpec(**kwargs)), path)


def write_specfile(path, **overrides):
    kwargs = dict(ln_re=10.69, break_ln_eta=6.5, ln_eta_min=2.0,
                  ln_eta_max=9.5, n_points=36)
    kwargs.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in kwargs.items()))


def write_unlabeled_profile(path):
    write_profile(path, label="dropped")
    path.write_text("".join(
        line for line in path.read_text().splitlines(keepends=True)
        if not line.startswith("label=")))


def write_tiny_tail_profile(path):
    """A valid profile whose three trailing samples have phi = 5e-324: the
    analysis succeeds, but in the shift column's series
    2 alpha phi / (sqrt(3) + 5 alpha) underflows to 0, whose log has no
    value."""
    write_profile(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3] + [
        f"{line.split()[0]} 5e-324\n" for line in lines[-3:]]))


def write_overflowing_profile(path):
    eta = [math.exp(2.0 + 0.2 * i) for i in range(30)]
    path.write_text("re_theta=1000\n" + "".join(
        f"{e!r} {420.0 * e ** 0.002!r}\n" for e in eta))


class TestAnalyze:
    def test_success_and_table(self, tmp_path, capsys):
        path = tmp_path / "case.dat"
        write_profile(path)
        code = main(["analyze", str(path), "--lg-eta-min", "0.5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("label")
        assert "case" in out
        assert "collapsed" in out

    def test_out_dir(self, tmp_path, capsys):
        path = tmp_path / "case.dat"
        write_profile(path)
        out_dir = tmp_path / "plots"
        code = main(["analyze", str(path), "--lg-eta-min", "0.5",
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        for name in ("case_loglog.dat", "case_universal.dat",
                     "case_shift.dat", "envelope.dat", "case_report.txt"):
            assert (out_dir / name).is_file()

    def test_out_dir_takes_each_logarithm_once(self, tmp_path, capsys,
                                               monkeypatch):
        # Every log and exp goes through profiles.libm_column.  The loaded
        # eta takes one log10 pass for the sublayer cut, the selected
        # eta and phi are logged once each, the psi argument once per
        # universal series (region I, then the shift column), and the
        # envelope table takes one exp pass; the fit takes no logarithm.
        path = tmp_path / "case.dat"
        write_profile(path)     # noiseless: no plateau to cut
        bundle = report.analyze(path, AnalyzeOptions(lg_eta_min=0.5))
        n, k = len(bundle.profile), bundle.fit.split_index
        loaded = len(wallscale.load_profile(path))
        real, calls = wallscale.profiles.libm_column, []

        def counting(fn, column):
            calls.append((fn.__name__, len(column)))
            return real(fn, column)

        for module in (wallscale.profiles, wallscale.fitting,
                       wallscale.diagnostics, wallscale.report,
                       wallscale.scaling, wallscale.synthetic):
            if getattr(module, "libm_column", None) is real:
                monkeypatch.setattr(module, "libm_column", counting)
        code = main(["analyze", str(path), "--lg-eta-min", "0.5",
                     "--out-dir", str(tmp_path / "plots")])
        assert code == EXIT_OK
        assert calls == [("log10", loaded), ("log", n), ("log", n),
                         ("log", k), ("log", n), ("exp", 50)]
        calls.clear()
        selected = bundle.profile
        wallscale.fitting.fit_broken_line(selected.eta, selected.phi,
                                          ln_eta=selected.ln_eta,
                                          ln_phi=selected.ln_phi)
        assert calls == []

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.dat"
        path.write_text("1 2 3\n")
        code = main(["analyze", str(path)])
        assert code == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    def test_validation_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.dat"
        path.write_text("40 9.8\n30 9.0\n160 12.1\n320 13.4\n")
        assert main(["analyze", str(path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("row", ["-0.001 0.5", "0.001 nan", "0 0.5"])
    def test_raw_domain_error_is_validation(self, tmp_path, capsys, row):
        path = tmp_path / "raw.dat"
        path.write_text("u_star=0.05\nnu=1.5e-5\n0.0005 0.4\n" + row + "\n")
        code = main(["analyze", str(path), "--format", "raw"])
        assert code == EXIT_VALIDATION
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--min-seg", "1"), ("--lg-eta-min", "nan"), ("--plateau-tol", "-1"),
        ("--consistency-tol", "inf"), ("--shift-tol", "nan"),
    ])
    def test_bad_option_exit_code(self, tmp_path, capsys, flag, value):
        path = tmp_path / "case.dat"
        write_profile(path)
        for verb, target in (("analyze", path), ("batch", tmp_path)):
            assert main([verb, str(target), flag, value]) == EXIT_VALIDATION

    def test_not_utf8_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.dat"
        path.write_bytes(b"40 9.8\n80 10.9\xff\n")
        assert main(["analyze", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"{path}:2: not UTF-8" in err
        assert "Traceback" not in err

    def test_reynolds_overflow_is_domain_error(self, tmp_path, capsys):
        # A = 420 gives ln Re of about 740, and exp(ln Re) overflows
        path = tmp_path / "huge.dat"
        write_overflowing_profile(path)
        assert main(["analyze", str(path)]) == EXIT_FIT
        assert "reynolds_extraction: ln Re = 7" in capsys.readouterr().err

    def test_psi_argument_underflow_is_domain_error(self, tmp_path, capsys):
        # the row is not printed and the output directory is not created
        path, plots = tmp_path / "tiny.dat", tmp_path / "plots"
        write_tiny_tail_profile(path)
        code = main(["analyze", str(path), "--out-dir", str(plots)])
        captured = capsys.readouterr()
        assert code == EXIT_FIT
        assert captured.out == ""
        assert captured.err.startswith(
            "error: shift_series: psi has no value at phi=5e-324")
        assert "its log argument is 0.0" in captured.err
        assert "Traceback" not in captured.err
        assert not plots.exists()

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "nonexistent.dat"
        assert main(["analyze", str(path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"cannot read {path}: No such file or directory" in err
        assert "Traceback" not in err

    def test_infinite_metadata_is_validation(self, tmp_path, capsys):
        path = tmp_path / "case.dat"
        write_profile(path)
        path.write_text("re_theta=inf\n" + path.read_text())
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "re_theta must be positive and finite, got inf" in err

    def test_out_dir_that_is_a_file_is_io_error(self, tmp_path, capsys):
        path, taken = tmp_path / "case.dat", tmp_path / "taken"
        write_profile(path)
        taken.write_text("a file\n")
        code = main(["analyze", str(path), "--out-dir", str(taken)])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert f"cannot create directory {taken}: File exists" in err
        assert "Traceback" not in err

    def test_stem_label_must_be_one_line(self, tmp_path, capsys):
        # an unlabeled profile takes its file's stem as the label
        path = tmp_path / "c\nd.dat"
        write_unlabeled_profile(path)
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "label must be one line of text, got 'c\\nd'" in captured.err
        write_profile(tmp_path / "good.dat")
        assert main(["batch", str(tmp_path)]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2      # header, good
        assert captured.err.count("error:") == 1

    def test_fit_error_exit_code(self, tmp_path, capsys):
        # too few intermediate points for the two-segment fit
        path = tmp_path / "short.dat"
        path.write_text("100 10.0\n200 11.0\n400 12.0\n800 13.0\n"
                        "1600 14.0\n")
        assert main(["analyze", str(path), "--lg-eta-min", "0.5"]) == EXIT_FIT


class TestBatch:
    def test_partial_failure(self, tmp_path, capsys):
        write_profile(tmp_path / "a.dat", seed=1, noise_sigma=0.01)
        write_profile(tmp_path / "b.dat", seed=2, noise_sigma=0.01)
        (tmp_path / "broken.dat").write_text("nope\n")
        code = main(["batch", str(tmp_path), "--lg-eta-min", "0.5"])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert "a" in captured.out and "b" in captured.out
        assert "broken.dat" in captured.err

    @pytest.mark.parametrize("write_bad", [
        lambda path: path.write_bytes(b"40 9.8\n\xff\n"),
        lambda path: write_overflowing_profile(path),
    ], ids=["not_utf8", "reynolds_overflow"])
    def test_one_bad_file_is_one_failure(self, tmp_path, capsys, write_bad):
        write_profile(tmp_path / "good.dat")
        write_bad(tmp_path / "bad.dat")
        code = main(["batch", str(tmp_path), "--lg-eta-min", "0.5"])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert "good" in captured.out
        assert "bad.dat" in captured.err

    @pytest.mark.parametrize("name", ["nonexistent_dir", "file.dat"])
    def test_unlistable_dir_is_io_error(self, tmp_path, capsys, name):
        (tmp_path / "file.dat").write_text("40 9.8\n")
        assert main(["batch", str(tmp_path / name)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"cannot list {tmp_path / name}" in err
        assert "Traceback" not in err

    def test_unreadable_file_is_one_failure(self, tmp_path, capsys,
                                            monkeypatch):
        write_profile(tmp_path / "good.dat")
        write_profile(tmp_path / "locked.dat")
        read_bytes = Path.read_bytes

        def refuse_locked(path):
            if path.name == "locked.dat":
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", refuse_locked)
        code = main(["batch", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert "good" in captured.out
        assert "locked.dat: Permission denied" in captured.err

    def test_out_dir_that_is_a_file_is_io_error(self, tmp_path, capsys):
        in_dir, taken = tmp_path / "in", tmp_path / "taken"
        in_dir.mkdir()
        write_profile(in_dir / "a.dat")
        taken.write_text("a file\n")
        code = main(["batch", str(in_dir), "--out-dir", str(taken)])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert f"cannot create directory {taken}: File exists" in err
        assert "Traceback" not in err

    def test_plot_data_failure_is_one_failure(self, tmp_path, capsys):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        write_profile(in_dir / "a.dat", seed=1, noise_sigma=0.01)
        write_tiny_tail_profile(in_dir / "b.dat")
        write_profile(in_dir / "c.dat", seed=2, noise_sigma=0.01)
        code = main(["batch", str(in_dir), "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert [row.split()[0] for row in captured.out.splitlines()] == [
            "label", "a", "c"]
        assert captured.err.startswith(
            f"error: {in_dir / 'b.dat'}: shift_series: "
            "psi has no value at phi=5e-324")
        assert captured.err.count("\n") == 1
        suffixes = ("_loglog.dat", "_universal.dat", "_shift.dat",
                    "_report.txt")
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["envelope.dat"] + [s + f for s in "ac" for f in suffixes])

    def test_every_plot_data_failing_creates_no_out_dir(self, tmp_path,
                                                        capsys):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        write_tiny_tail_profile(in_dir / "b.dat")
        code = main(["batch", str(in_dir), "--out-dir", str(out_dir)])
        assert code == EXIT_PARTIAL
        assert capsys.readouterr().out.splitlines()[1:] == []
        assert not out_dir.exists()

    def test_all_good(self, tmp_path, capsys):
        write_profile(tmp_path / "a.dat")
        assert main(["batch", str(tmp_path), "--lg-eta-min", "0.5"]) == EXIT_OK

    def test_empty_dir(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path)]) == EXIT_VALIDATION

    def test_out_dir_named_by_file_stem(self, tmp_path, capsys):
        # two inputs with the same label= get one file set each
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        write_profile(in_dir / "x.dat", label="same", seed=1, noise_sigma=0.01)
        write_profile(in_dir / "y.dat", label="same", seed=2, noise_sigma=0.01)
        code = main(["batch", str(in_dir), "--lg-eta-min", "0.5",
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        suffixes = ("_loglog.dat", "_universal.dat", "_shift.dat",
                    "_report.txt")
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["envelope.dat"] + [s + f for s in "xy" for f in suffixes])
        reports = {(out_dir / f"{s}_report.txt").read_text() for s in "xy"}
        assert len(reports) == 2
        assert all("label=same\n" in r for r in reports)

    def test_shared_stem_is_a_failure(self, tmp_path, capsys):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        write_profile(in_dir / "a.dat", label="first")
        write_profile(in_dir / "a.txt", label="second")
        code = main(["batch", str(in_dir), "--lg-eta-min", "0.5",
                     "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert "first" in captured.out and "second" not in captured.out
        assert "a.txt" in captured.err and "a.dat" in captured.err
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "a_loglog.dat", "a_report.txt", "a_shift.dat", "a_universal.dat",
            "envelope.dat"]
        assert "label=first\n" in (out_dir / "a_report.txt").read_text()

    def test_every_file_failing_creates_no_out_dir(self, tmp_path, capsys):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        (in_dir / "a.dat").write_text("1 2 3\n")
        (in_dir / "b.dat").write_bytes(b"40 9.8\xff\n")
        code = main(["batch", str(in_dir), "--out-dir", str(out_dir)])
        assert code == EXIT_PARTIAL
        assert not out_dir.exists()


@functools.cache
def valid_profile_bytes():
    """The bytes of a synthetic profile that analyzes cleanly."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "p.dat"
        write_profile(path, label="valid")
        return path.read_bytes()


class TestOutDirFuzz:
    """``analyze`` and ``batch`` with ``--out-dir``, on drawn inputs and
    drawn output directories, exit with a documented code and never raise
    or warn; where a profile was analyzed, ``envelope.dat`` is the
    envelope table."""

    @settings(max_examples=120, deadline=None)
    @given(verb=st.sampled_from(["analyze", "batch"]),
           contents=st.lists(st.one_of(
               st.just("valid"),
               st.binary(max_size=80),
               st.text(st.sampled_from("0123456789.e-+ ,=#\nlabel"),
                       max_size=80).map(str.encode),
               st.just(b"label=x\n40 9.8\n80 10.9\xff\n")),
               min_size=1, max_size=3),
           out_dir=st.sampled_from(["fresh", "stale", "missing/nested",
                                    "file", "envelope_is_dir"]))
    def test_drawn_inputs_and_out_dirs(self, verb, contents, out_dir):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            in_dir, target = root / "in", root / out_dir
            in_dir.mkdir()
            for i, data in enumerate(contents):
                (in_dir / f"p{i}.dat").write_bytes(
                    valid_profile_bytes() if data == "valid" else data)
            if out_dir == "stale":
                target.mkdir()
                (target / "envelope.dat").write_text("stale\n")
                (target / "p0_report.txt").write_text("stale\n")
            elif out_dir == "file":
                target.write_text("a file\n")
            elif out_dir == "envelope_is_dir":
                (target / "envelope.dat").mkdir(parents=True)
            argv = [verb, str(in_dir / "p0.dat" if verb == "analyze"
                              else in_dir),
                    "--lg-eta-min", "0.5", "--out-dir", str(target)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")    # a warning escapes
                code = main(argv)
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_FIT,
                            EXIT_PARTIAL, EXIT_IO)
            assert "Traceback" not in err.getvalue()
            # the table has a row for each analyzed profile
            analyzed = len(out.getvalue().splitlines()) > 1
            if code in (EXIT_OK, EXIT_PARTIAL) and analyzed:
                assert ((target / "envelope.dat").read_text()
                        == envelope_table())
            elif out_dir in ("fresh", "missing/nested"):
                assert not target.exists()


class TestSynth:
    def test_generate_then_analyze(self, tmp_path, capsys):
        specfile = tmp_path / "s.spec"
        write_specfile(specfile, noise_sigma=0.01, seed=3, label="roundtrip")
        out = tmp_path / "prof.dat"
        assert main(["synth", str(specfile), "-o", str(out)]) == EXIT_OK
        assert "wrote 36 samples" in capsys.readouterr().out
        assert main(["analyze", str(out), "--lg-eta-min", "0.5"]) == EXIT_OK
        assert "roundtrip" in capsys.readouterr().out

    def test_bad_spec(self, tmp_path, capsys):
        specfile = tmp_path / "s.spec"
        specfile.write_text("bogus=1\n")
        out = tmp_path / "prof.dat"
        assert main(["synth", str(specfile), "-o", str(out)]) == EXIT_PARSE

    @pytest.mark.parametrize("overrides", [
        dict(noise_sigma=0.01, seed=-1), dict(noise_sigma=math.nan),
        dict(beta=math.inf),
    ])
    def test_bad_spec_value_is_validation(self, tmp_path, capsys, overrides):
        specfile = tmp_path / "s.spec"
        write_specfile(specfile, **overrides)
        out = tmp_path / "prof.dat"
        assert main(["synth", str(specfile), "-o", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        (dict(ln_eta_max=800), "eta = exp(ln_eta_max) overflows"),
        (dict(ln_re=0.001), "continuity factor"),
        (dict(ln_re=10.0, shift=-6000.0), "shift factor"),
        (dict(n_points=10**20), "n_points must be at most 2**59"),
    ])
    def test_overflowing_spec_is_validation(self, tmp_path, capsys,
                                            overrides, message):
        specfile = tmp_path / "s.spec"
        write_specfile(specfile, **overrides)
        code = main(["synth", str(specfile), "-o", str(tmp_path / "o.dat")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert message in err and "Traceback" not in err

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        specfile, out = tmp_path / "s.spec", tmp_path / "missing" / "x.dat"
        write_specfile(specfile)
        code = main(["synth", str(specfile), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert f"cannot write {out}: No such file or directory" in err
        assert "Traceback" not in err

    def test_missing_spec_is_io_error(self, tmp_path, capsys):
        code = main(["synth", str(tmp_path / "none.spec"), "-o",
                     str(tmp_path / "o.dat")])
        assert code == EXIT_IO

    def test_synth_deterministic(self, tmp_path, capsys):
        specfile = tmp_path / "s.spec"
        write_specfile(specfile, noise_sigma=0.02, seed=8)
        out1, out2 = tmp_path / "p1.dat", tmp_path / "p2.dat"
        main(["synth", str(specfile), "-o", str(out1)])
        main(["synth", str(specfile), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


VALID_SPEC = dict(ln_re="10.69", break_ln_eta="6.5", ln_eta_min="2.0",
                  ln_eta_max="9.5", n_points="36", noise_sigma="0.01",
                  shift="0.5", plateau_points="3", seed="7", beta="0.2")
# Values at and beyond the limits of exp, of float64 and of the spec's
# own checks.  No count between 10**5 and 2**59 is drawn: the generator
# would allocate it.
FLOAT_NEAR_LIMITS = st.sampled_from([
    "709.78", "709.79", "710", "-745.2", "-746", "1e308", "-1e308",
    "1.7976931348623157e308", "5e-324", "-5e-324", "2.2e-308", "0", "-0.0",
    "1e-300", "inf", "-inf", "nan", "1e999"])
INT_NEAR_LIMITS = st.sampled_from([
    "-1", "0", "4", "7", "8", "32", "33", "100000", str(2**59 + 1),
    str(10**20), str(2**63), str(2**64), str(10**30)])


@st.composite
def spec_bytes(draw):
    """The bytes of a synth spec file: valid, with keys near their limits,
    random, or a valid spec holding one byte that is not UTF-8."""
    kind = draw(st.sampled_from(["valid", "limits", "random", "not_utf8"]))
    if kind == "random":
        return draw(st.binary(max_size=120))
    spec = dict(VALID_SPEC)
    if kind == "valid":
        spec.update(noise_sigma=repr(draw(st.floats(0.0, 0.5))),
                    shift=repr(draw(st.floats(-3.0, 3.0))),
                    seed=str(draw(st.integers(0, 2**64))))
    elif kind == "limits":
        for key in draw(st.lists(st.sampled_from(sorted(spec)), min_size=1,
                                 max_size=3, unique=True)):
            ints = key in ("n_points", "plateau_points", "seed")
            spec[key] = draw(INT_NEAR_LIMITS if ints else FLOAT_NEAR_LIMITS)
    data = "".join(f"{k}={v}\n" for k, v in spec.items()).encode()
    if kind == "not_utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestSynthFuzz:
    """``synth`` on drawn spec files and drawn ``-o`` targets exits with a
    documented code and never raises or warns; on success the output is
    a profile that loads back."""

    @settings(max_examples=200, deadline=None)
    @example(data=b"ln_re=10.69\nbreak_ln_eta=6.5\nln_eta_min=2.0\n"
                  b"ln_eta_max=9.5\nn_points=36\n", target="fresh")
    # what this test found: a numpy warning from 0 * inf in the generator
    @example(data=b"ln_re=10.69\nbreak_ln_eta=6.5\nln_eta_min=2.0\n"
                  b"ln_eta_max=9.5\nn_points=36\nbeta=709.78\n",
             target="fresh")
    @given(data=spec_bytes(),
           target=st.sampled_from(["fresh", "missing/nested", "dir"]))
    def test_drawn_specs_and_targets(self, data, target):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            specfile, output = root / "s.spec", root / target / "p.dat"
            specfile.write_bytes(data)
            if target == "fresh":
                output.parent.mkdir()
            elif target == "dir":
                output.mkdir(parents=True)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")    # a warning escapes
                code = main(["synth", str(specfile), "-o", str(output)])
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_FIT,
                            EXIT_IO)
            assert "Traceback" not in err.getvalue()
            if code == EXIT_OK:
                assert target == "fresh"
                assert len(wallscale.load_profile(output)) >= 8
            elif target == "dir":
                assert output.is_dir()
            else:
                assert not output.exists()


class TestEnvelope:
    def test_prints_table_and_line(self, capsys):
        assert main(["envelope", "--n-points", "12"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == \
            "ln_eta phi_env ln_re_touch log_law"
        assert "kappa=" in captured.err

    def test_out_dir(self, tmp_path, capsys):
        code = main(["envelope", "--n-points", "12",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "envelope.dat").is_file()

    def test_out_dir_write_is_atomic(self, tmp_path, capsys):
        # a file with the old fixed temp name is neither used nor removed
        stray = tmp_path / "envelope.dat.tmp"
        stray.write_text("keep me\n")
        assert main(["envelope", "--n-points", "12",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        assert stray.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "envelope.dat", "envelope.dat.tmp"]
        assert ((tmp_path / "envelope.dat").read_text()
                == envelope_table((5.0, 10.0), 12))

    def test_out_dir_that_is_a_file_is_io_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        code = main(["envelope", "--out-dir", str(taken)])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert f"cannot create directory {taken}: File exists" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("args, message", [
        ("--n-points -1", "n_points must be at least 10, got -1"),
        ("--n-points 5", "n_points must be at least 10, got 5"),
        ("--ln-eta-min 10 --ln-eta-max 5", "invalid ln_eta range (10.0, 5.0)"),
        ("--ln-eta-min 0", "ln_eta must be positive and finite, got 0.0"),
        ("--ln-eta-max inf", "ln_eta must be positive and finite, got inf"),
        # numpy refuses this count before it allocates anything
        ("--n-points 100000000000000000000",
         "n_points must be at most 2**59, got 100000000000000000000"),
    ])
    def test_bad_argument_is_validation(self, capsys, args, message):
        assert main(["envelope", *args.split()]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_one_columnar_solve(self, monkeypatch, capsys):
        solves, points = [], []
        solve = scaling.solve_envelope
        monkeypatch.setattr(scaling, "solve_envelope",
                            lambda x: solves.append(len(x)) or solve(x))
        monkeypatch.setattr(scaling, "envelope_at", points.append)
        assert main(["envelope", "--ln-eta-min", "2", "--ln-eta-max", "30",
                     "--n-points", "2000"]) == EXIT_OK
        assert solves == [2000]
        assert points == []

    @pytest.mark.parametrize("lo, hi, n", [(5.0, 10.0, 12), (0.5, 2.0, 10),
                                           (2.0, 30.0, 2000)])
    def test_table_and_line_equal_the_library_calls(self, monkeypatch, capsys,
                                                    lo, hi, n):
        fits = []
        fit = scaling.fit_log_law
        monkeypatch.setattr(scaling, "fit_log_law",
                            lambda *a: fits.append(fit(*a)) or fits[-1])
        assert main(["envelope", f"--ln-eta-min={lo!r}",
                     f"--ln-eta-max={hi!r}", f"--n-points={n}"]) == EXIT_OK
        captured = capsys.readouterr()
        line = scaling.envelope_line_fit((lo, hi), n)
        assert fits[0] == line
        assert captured.out == envelope_table((lo, hi), n)
        assert captured.err == (f"effective log law: kappa={line.kappa:.4f} "
                                f"C={line.c_offset:.4f}\n")

    def test_small_ln_eta(self, capsys):
        # the closed-form touch point holds for every ln eta > 0, here
        # also where it lies below ln Re = 4
        code = main(["envelope", "--ln-eta-min", "0.5", "--ln-eta-max", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        rows = [line.split() for line in captured.out.splitlines()[1:]]
        assert len(rows) == 50
        assert float(rows[0][2]) < 4.0

    def test_touch_point_overflow(self, capsys):
        # pytest records warnings itself, so none would reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["envelope", "--ln-eta-min", "1e160",
                         "--ln-eta-max", "2e160"])
        assert code == EXIT_FIT
        err = capsys.readouterr().err
        assert err.startswith("error: ln_eta must be below about 8.9e153")

    @pytest.mark.parametrize("hi, n, message", [
        ("1e154", "10", "ln_eta must be below about 8.9e153 for a finite "
         "envelope touch point, got 1e+154\n"),
        ("8.9e153", "50", "the line fit overflows: "),
    ])
    def test_overflow_near_the_limit(self, capsys, hi, n, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["envelope", "--ln-eta-min", "1", "--ln-eta-max", hi,
                         "--n-points", n])
        assert code == EXIT_FIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("lo, hi, n, line", [
        ("2", "30", "2000", "kappa=0.4184 C=5.6203"),
        ("1e9", "1e10", "50", "kappa=0.4248 C=6.7957"),
        # C = mean(phi) - slope * mean(ln eta) cancels: these printed
        # C=6.5000, C=0.0000 and a 136-digit number
        ("1e14", "1e15", "50", None),
        ("1e90", "1e91", "50", None),
        ("1e150", "1e151", "3000", None),
    ])
    def test_offset_that_cancels_is_a_domain_error(self, capsys, lo, hi, n,
                                                   line):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["envelope", "--ln-eta-min", lo, "--ln-eta-max", hi,
                         "--n-points", n])
        err = capsys.readouterr().err
        if line is None:
            assert code == EXIT_FIT
            assert err.startswith("error: the line fit's offset C cancels")
        else:
            assert code == EXIT_OK
            assert err == f"effective log law: {line}\n"

    @settings(max_examples=200, deadline=None)
    # what this test found: numpy's refusal of the count, a line fit
    # whose sums overflow, and linspace's overflow before its last point
    @example(ends=[2.0, 30.0], n=10**20, out_dir=None)
    @example(ends=[1.0, 8.9e153], n=50, out_dir="dir")
    @example(ends=[5e-324, 1.7976931348623157e308], n=10, out_dir=None)
    @given(ends=st.lists(st.one_of(
               st.floats(),
               st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-310, 1e154,
                                8.9e153, 1e308, math.nan, math.inf,
                                -math.inf]),
               st.floats(0.01, 60.0)), min_size=2, max_size=2),
           n=st.one_of(st.integers(-5, 3000), st.just(10**20)),
           out_dir=st.sampled_from([None, "dir", "missing/nested", "file"]))
    def test_drawn_arguments_fail_typed(self, ends, n, out_dir):
        argv = ["envelope", f"--ln-eta-min={ends[0]!r}",
                f"--ln-eta-max={ends[1]!r}", f"--n-points={n}"]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as root:
            if out_dir is not None:
                (Path(root) / "dir").mkdir()
                (Path(root) / "file").write_text("a file\n")
                argv += ["--out-dir", str(Path(root) / out_dir)]
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")    # a warning escapes
                code = main(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_FIT, EXIT_IO)
        assert code == EXIT_OK or out.getvalue() == ""
        assert "Traceback" not in err.getvalue()

    def test_cli_import_leaves_scipy_out(self):
        src = str(Path(wallscale.__file__).resolve().parents[1])
        code = ("import sys, wallscale.cli; "
                "print('scipy' in sys.modules)")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": src}, check=True)
        assert result.stdout.strip() == "False"


class TestOracle:
    def test_pass(self, capsys):
        assert main(["oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle suite: PASS" in out
        assert "50 rows checked" in out
        assert "Fig.13(e)" in out


def _parse(parser, argv):
    """What ``parser`` makes of ``argv``: the namespace, or the exit code
    and everything printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["analyze", "f.dat"],
        ["analyze", "f.dat", "--format", "raw", "--lg-eta-min", "2",
         "--out-dir", "o", "--alpha-source", "lnRe1"],
        ["analyze", "f.dat", "--form", "raw", "--min", "4"],
        ["analyze"], ["analyze", "--help"], ["analyze", "f.dat", "-h"],
        ["analyze", "f.dat", "--bogus"], ["analyze", "f.dat", "--min-seg", "x"],
        ["analyze", "f.dat", "--alpha-source", "bad"],
        ["analyze", "a.dat", "b.dat"], ["analyze", "--", "-f.dat"],
        ["batch", "d"], ["batch", "d", "--shift-tol", "0.2"], ["batch", "-h"],
        ["batch"], ["synth", "s.spec"], ["synth", "s.spec", "-o", "x.dat"],
        ["synth", "s.spec", "--out", "x.dat"], ["synth", "--help"],
        ["envelope"], ["envelope", "--n-points", "5", "--ln-eta-max", "9"],
        ["envelope", "extra"], ["envelope", "-h"],
        ["oracle"], ["oracle", "x"], ["oracle", "--help"],
        ["batch", "d", "--bogus"], ["synth", "s", "-o", "x", "extra"],
        ["envelope", "--bogus"], ["analyze", "f.dat", "--he"],
    ], ids=" ".join)
    def test_one_verb_parser_reads_argv_as_full_parser(self, argv):
        assert argv[0] in VERBS
        assert _parse(build_parser(argv[0]), argv) == _parse(build_parser(),
                                                             argv)

    @settings(max_examples=150, deadline=None)
    @given(verb=st.sampled_from(list(VERBS)), words=st.lists(st.sampled_from([
        "f.dat", "x", "-", "--", "-h", "--help", "--he", "-o", "--out",
        "--output", "--format", "raw", "--min-seg", "4", "--n-points", "5",
        "--ln-eta", "--ln-eta-min", "-1e3", "--alpha-source", "lnRe1",
        "--out-dir", "analyze", "--bogus", "-x", "=", "--min-seg=x"]),
        max_size=6))
    def test_one_verb_parser_on_drawn_argv(self, verb, words):
        argv = [verb, *words]
        assert _parse(build_parser(verb), argv) == _parse(build_parser(),
                                                          argv)

    def test_analysis_defaults_come_from_analyze_options(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class Other(AnalyzeOptions):
            lg_eta_min: float = 2.5
            phi_plateau_tol: float = 0.01
            min_seg: int = 4
            consistency_tol: float = 0.05
            shift_tol: float = 0.2
            alpha_source: str = "lnRe1"

        monkeypatch.setattr(report, "AnalyzeOptions", Other)
        for verb in ("analyze", "batch"):
            args = build_parser(verb).parse_args([verb, "x"])
            assert (args.lg_eta_min, args.plateau_tol, args.min_seg,
                    args.consistency_tol, args.shift_tol,
                    args.alpha_source) == (2.5, 0.01, 4, 0.05, 0.2, "lnRe1")

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["analyz"],
                                      ["--version"]], ids=repr)
    def test_argv_without_a_verb_gets_the_full_parser(self, argv, capsys):
        want = _parse(build_parser(), argv)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert (exc.value.code, *capsys.readouterr()) == want
