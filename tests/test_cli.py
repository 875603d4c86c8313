import contextlib
import dataclasses
import errno
import functools
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wallscale
from wallscale import (AnalyzeOptions, SynthSpec, generate, report,
                       save_profile, scaling)
from wallscale.cli import (EXIT_FIT, EXIT_IO, EXIT_OK, EXIT_ORACLE_FAIL,
                           EXIT_PARSE, EXIT_PARTIAL, EXIT_VALIDATION, PARSER,
                           build_parser, main)
from wallscale.report import envelope_table

from odd_values import (ENVELOPE_ENDS, FLOAT_NEAR_LIMITS, INT_NEAR_LIMITS,
                        OPTION_VALUES)


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


def write_tiny_tail_profile(path, **overrides):
    """A valid profile whose three trailing samples have phi = 5e-324: the
    analysis succeeds, but in the shift column's series
    2 alpha phi / (sqrt(3) + 5 alpha) underflows to 0, whose log has no
    value."""
    write_profile(path, **overrides)
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

    def test_output_that_is_the_input_is_refused(self, tmp_path, capsys):
        # the envelope table would replace an input named envelope.dat
        path = tmp_path / "envelope.dat"
        write_profile(path)
        before = path.read_bytes()
        code = main(["analyze", str(path), "--lg-eta-min", "0.5",
                     "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION and captured.out == ""
        assert captured.err == f"error: {path}: an output path is the input\n"
        assert [p.name for p in tmp_path.iterdir()] == ["envelope.dat"]
        assert path.read_bytes() == before

    def test_out_dir_takes_each_logarithm_once(self, tmp_path, capsys,
                                               monkeypatch):
        # Every log and exp goes through profiles.ieee_log and ieee_exp.
        # The sublayer cut reads ln eta and ln phi of all 36 samples in one
        # call over both columns, which the selected ones keep; the psi
        # argument is logged once per universal series (region I, then the
        # shift column), and the envelope table takes one exp pass.  The
        # fit takes no column logarithm: only its two prefactors' exp, the
        # break's two logs and the two fitted lines' logs, one float each.
        path = tmp_path / "case.dat"
        write_profile(path)     # noiseless: no plateau to cut
        lg_eta_min = math.log10(wallscale.load_profile(path).eta[3])
        bundle = report.analyze(path, AnalyzeOptions(lg_eta_min=lg_eta_min))
        n, k = len(bundle.profile), bundle.fit.split_index
        calls = []
        for name in ("ieee_log", "ieee_exp"):
            real = getattr(wallscale.profiles, name)

            def counting(x, real=real, kind=name[5:]):
                calls.append((kind, getattr(x, "shape", float)))
                return real(x)

            for module in (wallscale.profiles, wallscale.fitting,
                           wallscale.diagnostics, wallscale.report,
                           wallscale.scaling, wallscale.synthetic):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        code = main(["analyze", str(path), "--lg-eta-min", repr(lg_eta_min),
                     "--out-dir", str(tmp_path / "plots")])
        assert code == EXIT_OK
        assert n in (32, 33)    # the fourth sample is on either side
        assert calls == [("log", (2, 36)), ("exp", float), ("exp", float),
                         ("log", float), ("log", float), ("log", (k,)),
                         ("log", (n,)), ("log", float), ("log", float),
                         ("exp", (50,))]
        calls.clear()
        selected = bundle.profile
        wallscale.fitting.fit_log_broken_line(selected.ln_eta, selected.ln_phi)
        assert calls == [("exp", float), ("exp", float),
                         ("log", float), ("log", float)]
        calls.clear()
        wallscale.diagnostics.universal_series(selected.ln_eta, selected.phi,
                                               bundle.report.alpha)
        assert calls == [("log", (n,))]     # the psi argument only

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

    @pytest.mark.parametrize("rows, code, message", [
        # 3 samples past the cut: select_intermediate refuses them
        (5, EXIT_VALIDATION, "select_intermediate: empty result: fewer than "
         "4 samples survive the sublayer cutoff (lg_eta_min=1.5) and "
         "plateau removal"),
        # 4: selection keeps them, and the fit refuses them
        (6, EXIT_FIT, "fit_broken_line: broken-line fit needs at least 6 "
         "points, got 4"),
    ], ids=["three_survivors", "four_survivors"])
    def test_survivor_floor(self, tmp_path, capsys, rows, code, message):
        path = tmp_path / "few.dat"
        lines = ["10 5", "20 6", "40 8", "80 9", "160 10", "320 11"]
        path.write_text("".join(f"{line}\n" for line in lines[:rows]))
        assert main(["analyze", str(path)]) == code
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

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
        assert capsys.readouterr().err == (
            f"error: {path}: load_profile: line 2: not UTF-8 text "
            "(byte 0xff: invalid start byte)\n")

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
            f"error: {path}: shift_series: psi has no value at phi=5e-324")
        assert "its log argument is 0.0" in captured.err
        assert "Traceback" not in captured.err
        assert not plots.exists()

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "nonexistent.dat"
        assert main(["analyze", str(path)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: {path}: load_profile: cannot read: "
            "No such file or directory\n")

    @pytest.mark.parametrize("text, failure", [
        ("40 9.8\n80 10.9\n60 10.2\n160 12.1\n",
         "line 3: eta not ascending (80.0 before 60.0)"),
        ("40 9.8\n80 10.9\n160 12.1\n",
         "profile needs at least 4 samples, got 3"),
        ("re_theta=-1\n40 9.8\n80 10.9\n160 12.1\n320 13.4\n",
         "line 1: metadata field re_theta must be positive and finite, "
         "got -1.0"),
    ], ids=["decreasing_eta", "too_few_samples", "negative_re_theta"])
    def test_error_line_names_the_input_once(self, tmp_path, capsys, text,
                                             failure):
        # the error line, not the error, names the file: once, in analyze
        # and in batch alike
        path = tmp_path / "bad.dat"
        path.write_text(text)
        want = f"error: {path}: load_profile: {failure}\n"
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == want
        assert main(["batch", str(tmp_path)]) == EXIT_PARTIAL
        assert capsys.readouterr().err == want

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

    def test_stem_label_must_be_utf8_text(self, tmp_path):
        # a file name's undecodable byte becomes a lone surrogate, which no
        # report file can hold: one failure, nothing written for it (the
        # error line names the path, so it is read where a surrogate can be)
        write_unlabeled_profile(tmp_path / os.fsdecode(b"c\xff.dat"))
        write_profile(tmp_path / "good.dat")
        out, stdout, stderr = tmp_path / "out", io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["batch", str(tmp_path), "--out-dir", str(out)])
        assert code == EXIT_PARTIAL
        assert len(stdout.getvalue().splitlines()) == 2     # header, good
        assert stderr.getvalue().count("error:") == 1
        assert ("label must be one line of text, got 'c\\udcff'"
                in stderr.getvalue())
        assert sorted(p.name for p in out.iterdir()) == [
            "envelope.dat", "good_loglog.dat", "good_report.txt",
            "good_shift.dat", "good_universal.dat"]

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
        reason = {"nonexistent_dir": "No such file or directory",
                  "file.dat": "Not a directory"}[name]
        assert capsys.readouterr().err == (
            f"error: {tmp_path / name}: cannot list: {reason}\n")

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
        assert captured.err == (
            f"error: {tmp_path / 'locked.dat'}: load_profile: cannot read: "
            "Permission denied\n")

    def test_out_dir_that_is_a_file_is_io_error(self, tmp_path, capsys):
        # each profile's write is one failure of the batch
        in_dir, taken = tmp_path / "in", tmp_path / "taken"
        in_dir.mkdir()
        write_profile(in_dir / "a.dat")
        write_profile(in_dir / "b.dat")
        taken.write_text("a file\n")
        code = main(["batch", str(in_dir), "--out-dir", str(taken)])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert captured.out.splitlines()[1:] == []
        assert captured.err == "".join(
            f"error: {in_dir / name}: cannot create directory {taken}: "
            "File exists\n" for name in ("a.dat", "b.dat"))
        assert taken.read_text() == "a file\n"

    def test_write_failure_is_one_failure(self, tmp_path, capsys):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        for i in range(3):
            write_profile(in_dir / f"p{i}.dat", seed=i, noise_sigma=0.01)
        (out_dir / "p1_shift.dat").mkdir(parents=True)
        code = main(["batch", str(in_dir), "--lg-eta-min", "0.5",
                     "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == EXIT_PARTIAL
        assert [row.split()[0] for row in captured.out.splitlines()] == [
            "label", "p0", "p2"]
        assert captured.err == (
            f"error: {in_dir / 'p1.dat'}: cannot write "
            f"{out_dir / 'p1_shift.dat'}: Is a directory\n")
        # p1 keeps the files written before the failure, and no report
        suffixes = ("_loglog.dat", "_universal.dat", "_shift.dat",
                    "_report.txt")
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["envelope.dat", "p1_loglog.dat", "p1_universal.dat",
             "p1_shift.dat"] + [s + f for s in ("p0", "p2") for f in suffixes])
        assert (out_dir / "p1_shift.dat").is_dir()
        assert (out_dir / "envelope.dat").read_text() == envelope_table()

    @staticmethod
    def batch_peak(in_dir, code, *flags):
        """The traced peak of ``main``'s batch over ``in_dir``, which must
        exit with ``code``."""
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(["batch", str(in_dir), *flags]) == code
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def corpora(root, write):
        """Directories of 4 and 40 profiles of n = 1000 made by ``write``."""
        in_dirs = []
        for count in (4, 40):
            in_dirs.append(root / f"in{count}")
            in_dirs[-1].mkdir()
            for i in range(count):
                write(in_dirs[-1] / f"p{i:02d}.dat", n_points=1000, seed=i,
                      noise_sigma=0.01)
        return in_dirs

    def test_peak_memory_is_flat_in_the_number_of_files(self, tmp_path):
        # Only a profile's report, about 1.4 KB, outlives its turn of the
        # batch loop.  Keeping every bundle made the traced peak over 40
        # files of n = 1000 2.3 times (with --out-dir) and 3.5 times
        # (without) that over 4.
        in_dirs = self.corpora(tmp_path, write_profile)
        # fills the caches of the number renderer
        self.batch_peak(in_dirs[0], EXIT_OK, "--out-dir", str(tmp_path / "w"))
        for out_dir in (False, True):
            small, large = (
                self.batch_peak(in_dir, EXIT_OK,
                                *(["--out-dir", f"{in_dir}_out"]
                                  if out_dir else []))
                for in_dir in in_dirs)
            assert large <= 1.25 * small, (out_dir, small, large)

    def test_peak_memory_is_flat_in_the_number_of_failures(self, tmp_path):
        # A failure keeps its exception but no traceback in its chain: the
        # frames of analyze and emit_plotdata hold the profile, its fit and
        # its series.  Keeping them made the traced peak over 40 files
        # that fail in shift_series 4.3 times that over 4.
        in_dirs = self.corpora(tmp_path, write_tiny_tail_profile)
        small, large = (
            self.batch_peak(in_dir, EXIT_PARTIAL, "--out-dir",
                            str(tmp_path / "out"))
            for in_dir in in_dirs)
        assert large <= 1.25 * small, (small, large)

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

    @pytest.mark.parametrize("out", ["in", "link"])
    def test_out_dir_that_is_the_input_dir_is_refused(self, tmp_path, capsys,
                                                      out):
        # a.dat's report would replace a_report.txt, itself a profile
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        (tmp_path / "link").symlink_to(in_dir)
        write_profile(in_dir / "a.dat")
        write_profile(in_dir / "a_report.txt")
        before = {p.name: p.read_bytes() for p in in_dir.iterdir()}
        code = main(["batch", str(in_dir), "--lg-eta-min", "0.5",
                     "--out-dir", str(tmp_path / out)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION and captured.out == ""
        assert captured.err == (f"error: {in_dir}: an output path is the "
                                "input\n")
        assert {p.name: p.read_bytes() for p in in_dir.iterdir()} == before

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


def _flag_words(flag, value):
    # "-inf" alone reads as an option, so it is joined to its flag
    return [flag + value] if value.startswith("=") else [flag, value]


ANALYSIS_FLAGS = st.lists(st.one_of(
    st.builds(_flag_words,
              st.sampled_from(["--plateau-tol", "--min-seg",
                               "--consistency-tol", "--shift-tol",
                               "--lg-eta-min"]),
              OPTION_VALUES),
    st.just(["--alpha-source", "lnRe1"]),
    st.just(["--format", "raw"])), max_size=4).map(
        lambda groups: [word for group in groups for word in group])


class TestOutDirFuzz:
    """``analyze`` and ``batch`` with ``--out-dir`` and drawn analysis
    flags, on drawn inputs and drawn output directories, exit with a
    documented code (2 is argparse's usage error) and never raise or
    warn; where a profile was analyzed, ``envelope.dat`` is the envelope
    table."""

    @settings(max_examples=120, deadline=None)
    @example(verb="analyze", contents=["valid"], out_dir="fresh",
             flags=["--plateau-tol", "1e308"])
    @given(verb=st.sampled_from(["analyze", "batch"]),
           contents=st.lists(st.one_of(
               st.just("valid"),
               st.binary(max_size=80),
               st.text(st.sampled_from("0123456789.e-+ ,=#\nlabel"),
                       max_size=80).map(str.encode),
               st.just(b"label=x\n40 9.8\n80 10.9\xff\n")),
               min_size=1, max_size=3),
           out_dir=st.sampled_from(["fresh", "stale", "missing/nested",
                                    "file", "envelope_is_dir"]),
           flags=ANALYSIS_FLAGS)
    def test_drawn_inputs_and_out_dirs(self, verb, contents, out_dir, flags):
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
                    "--lg-eta-min", "0.5", "--out-dir", str(target), *flags]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")    # a warning escapes
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (EXIT_OK, 2, EXIT_PARSE, EXIT_VALIDATION,
                            EXIT_FIT, EXIT_PARTIAL, EXIT_IO)
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

    def test_output_that_is_the_spec_is_refused(self, tmp_path, capsys):
        specfile = tmp_path / "s.spec"
        write_specfile(specfile)
        before = specfile.read_bytes()
        code = main(["synth", str(specfile), "-o", str(specfile)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION and captured.out == ""
        assert captured.err == (f"error: {specfile}: an output path is the "
                                "input\n")
        assert specfile.read_bytes() == before

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
                == report.format_envelope(
                    scaling.envelope_curve((5.0, 10.0), 12)))

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

    def test_failed_fit_renders_no_table(self, monkeypatch, capsys):
        rendered = []
        render = report.format_envelope
        monkeypatch.setattr(report, "format_envelope",
                            lambda curve: rendered.append(curve) or
                            render(curve))
        assert main(["envelope", "--ln-eta-min", "1e100", "--ln-eta-max",
                     "1e150", "--n-points", "2000"]) == EXIT_FIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the line fit's offset C cancels: its rounding error may "
            "reach 2.09e+135, above 5e-05\n")
        assert rendered == []

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
        assert captured.out == report.format_envelope(
            scaling.envelope_curve((lo, hi), n))
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
               st.sampled_from(ENVELOPE_ENDS),
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

    @staticmethod
    def loaded_by_cli_import(module):
        """Whether a fresh interpreter holds ``module`` once it has
        imported ``wallscale.cli``."""
        src = str(Path(wallscale.__file__).resolve().parents[1])
        code = ("import sys, wallscale.cli; "
                f"print({module!r} in sys.modules)")
        result = subprocess.run(     # -B: leave no byte code in the tree
            [sys.executable, "-B", "-c", code], capture_output=True,
            text=True, env={"PYTHONPATH": src}, check=True)
        return result.stdout.strip() == "True"

    def test_cli_import_leaves_scipy_out(self):
        assert not self.loaded_by_cli_import("scipy")

    def test_cli_import_leaves_reference_out(self):
        # only the oracle verb needs it, and each fresh process would
        # compile it
        assert not self.loaded_by_cli_import("wallscale.reference")


class TestOracle:
    def test_pass(self, capsys):
        assert main(["oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle suite: PASS" in out
        assert "50 rows checked" in out
        assert "Fig.13(e)" in out


class FailingStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` (``method``) raises
    ``error``."""

    def __init__(self, method, error):
        super().__init__()
        self.method, self.error = method, error

    def write(self, text):
        if self.method == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.error


# Each verb's argv, run in a directory that write_verb_inputs fills.
VERB_ARGVS = {
    "analyze": ["analyze", "f.dat"],
    "batch": ["batch", "x", "--out-dir", "out"],
    "synth": ["synth", "spec.txt", "-o", "made.dat"],
    "envelope": ["envelope", "--n-points", "20"],
    "oracle": ["oracle"],
}
STDOUT_ERRORS = {"ENOSPC": OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                 "EPIPE": BrokenPipeError(errno.EPIPE,
                                          os.strerror(errno.EPIPE))}


def write_verb_inputs(root):
    write_profile(root / "f.dat")
    (root / "x").mkdir()
    write_profile(root / "x" / "good.dat")
    write_specfile(root / "spec.txt")


def assert_one_stdout_error(err, strerror):
    """``err`` holds no traceback and one ``error:`` line, its last, which
    names standard output and ``strerror``."""
    want = f"error: cannot write standard output: {strerror}"
    lines = err.splitlines()
    assert "Traceback" not in err and "Exception ignored" not in err
    assert [line for line in lines if line.startswith("error:")] == [want]
    assert lines[-1] == want


class TestStdoutFailure:
    """A write to stdout that fails, in ``print`` or in the flush after
    the verb, is exit 14 with one ``error:`` line that names no input; a
    broken pipe is no exception.  What was written before stays."""

    @pytest.mark.parametrize("error", sorted(STDOUT_ERRORS))
    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("verb", sorted(VERB_ARGVS))
    def test_in_process(self, tmp_path, verb, method, error):
        write_verb_inputs(tmp_path)
        err = io.StringIO()
        with contextlib.chdir(tmp_path), contextlib.redirect_stdout(
                FailingStdout(method, STDOUT_ERRORS[error])), \
                contextlib.redirect_stderr(err):
            code = main(VERB_ARGVS[verb])
        assert code == EXIT_IO
        assert_one_stdout_error(err.getvalue(),
                                STDOUT_ERRORS[error].strerror)
        if verb == "batch":     # the profile's files were written first
            assert (tmp_path / "out" / "good_report.txt").is_file()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("verb", sorted(VERB_ARGVS))
    def test_dev_full(self, tmp_path, verb, unbuffered):
        # Unbuffered, print fails; buffered, a small output fails only when
        # flushed, which the interpreter would do at exit (exit 120).
        write_verb_inputs(tmp_path)
        src = str(Path(wallscale.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "w") as full:
            result = subprocess.run(    # -B: leave no byte code in the tree
                [sys.executable, "-B", "-m", "wallscale", *VERB_ARGVS[verb]],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                cwd=tmp_path)
        assert result.returncode == EXIT_IO
        assert_one_stdout_error(result.stderr, os.strerror(errno.ENOSPC))

    @staticmethod
    def run_with_stdout_closed(cwd, argv):
        """``python -m wallscale argv`` in ``cwd``, started with fd 1
        closed (``>&-``), which leaves its ``sys.stdout`` None."""
        src = str(Path(wallscale.__file__).resolve().parents[1])
        return subprocess.run(      # -B: leave no byte code in the tree
            ["sh", "-c", 'exec "$@" >&-', "sh",
             sys.executable, "-B", "-m", "wallscale", *argv],
            stderr=subprocess.PIPE, text=True, cwd=cwd,
            env=dict(os.environ, PYTHONPATH=src))

    @pytest.mark.parametrize("verb", sorted(VERB_ARGVS))
    def test_closed_stdout(self, tmp_path, verb):
        # print to a None stdout writes nothing and raises nothing
        write_verb_inputs(tmp_path)
        result = self.run_with_stdout_closed(tmp_path, VERB_ARGVS[verb])
        assert result.returncode == EXIT_IO
        assert_one_stdout_error(result.stderr, os.strerror(errno.EBADF))

    def test_closed_stdout_unused(self, tmp_path):
        # envelope --out-dir writes its table to a file, its line to stderr
        result = self.run_with_stdout_closed(
            tmp_path, ["envelope", "--n-points", "20", "--out-dir", "out"])
        assert result.returncode == EXIT_OK
        assert result.stderr.startswith("effective log law: ")
        assert (tmp_path / "out" / "envelope.dat").is_file()


def _parse(parser, argv):
    """What ``parser`` makes of ``argv``: the namespace, or the exit code
    and everything printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


PARSER_ARGVS = [
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
]

DRAWN_ARGV = st.builds(
    lambda verb, words: [verb, *words],
    st.sampled_from(["analyze", "batch", "synth", "envelope", "oracle"]),
    st.lists(st.sampled_from([
        "f.dat", "x", "-", "--", "-h", "--help", "--he", "-o", "--out",
        "--output", "--format", "raw", "--min-seg", "4", "--n-points", "5",
        "--ln-eta", "--ln-eta-min", "-1e3", "--alpha-source", "lnRe1",
        "--out-dir", "analyze", "--bogus", "-x", "=", "--min-seg=x"]),
        max_size=6))


class TestParser:
    """main reads every argv with one parser, built at import; what it
    made of the argvs before must not show in any later result."""

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_shared_parser_reads_argv_as_a_fresh_one(self, argv):
        assert _parse(PARSER, argv) == _parse(build_parser(), argv)

    @settings(max_examples=150, deadline=None)
    @given(argvs=st.lists(st.one_of(
        st.sampled_from([*PARSER_ARGVS, [], ["-h"], ["bogus"]]), DRAWN_ARGV),
        min_size=1, max_size=8))
    def test_shared_parser_reads_drawn_argv_sequences(self, argvs):
        for argv in argvs:
            assert _parse(PARSER, argv) == _parse(build_parser(), argv)

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
            args = build_parser().parse_args([verb, "x"])
            assert (args.lg_eta_min, args.phi_plateau_tol, args.min_seg,
                    args.consistency_tol, args.shift_tol,
                    args.alpha_source) == (2.5, 0.01, 4, 0.05, 0.2, "lnRe1")

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["analyz"],
                                      ["--version"]], ids=repr)
    def test_argv_without_a_verb_gets_the_full_parser(self, argv, capsys):
        want = _parse(build_parser(), argv)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert (exc.value.code, *capsys.readouterr()) == want


def rendered(text):
    """``text`` as an error line shows it: each character at which
    ``str.splitlines`` breaks as its ``repr`` escape."""
    return "".join(c if ("a" + c).splitlines() == ["a" + c] else repr(c)[1:-1]
                   for c in str(text))


def run_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, with warnings as
    errors; argparse's exits give their code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")    # a warning escapes
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Each kind of bad file: how it is written, and the exit code of analyze.
# An "unreadable" file is refused by Path.read_bytes, as a file without
# read permission would be (a test run as root could read it).
BAD_FILES = {
    "parse": (lambda path: path.write_text("40 9.8\n80 x\n"), EXIT_PARSE),
    "validation": (lambda path: path.write_text(
        "40 9.8\n80 10.9\n60 10.2\n160 12.1\n"), EXIT_VALIDATION),
    "fit": (write_overflowing_profile, EXIT_FIT),
    "unreadable": (lambda path: path.write_text("40 9.8\n"), EXIT_IO),
}

# What a file name may hold: every character str.splitlines breaks at, an
# undecodable byte (a lone surrogate once decoded), non-ASCII text, spaces
NAME_CHARS = st.sampled_from([*"\n\r\x0b\x0c\x1c\x1d\x1e\x85  ",
                              os.fsdecode(b"\xff"), "é", "σ", " ", "a", "1"])


class TestErrorLineFuzz:
    """Bad files under drawn names: each failure is one ``error:`` line that
    names its input once, in ``batch`` and in ``analyze``."""

    @settings(max_examples=200, deadline=None)
    @example(files=[("a\nb", "validation"), ("c\udcff", "unreadable")])
    @given(files=st.lists(
        st.tuples(st.text(NAME_CHARS, min_size=1, max_size=6),
                  st.sampled_from(sorted(BAD_FILES))),
        min_size=1, max_size=4, unique_by=lambda file: file[0]))
    def test_each_failure_is_one_line_naming_its_input_once(self, files):
        with tempfile.TemporaryDirectory() as root:
            in_dir = Path(root)
            kinds = {}
            for stem, kind in files:
                path = in_dir / f"{stem}.dat"
                BAD_FILES[kind][0](path)
                kinds[path] = kind
            read_bytes = Path.read_bytes

            def refuse_unreadable(path):
                if kinds.get(path) == "unreadable":
                    raise PermissionError(13, "Permission denied", str(path))
                return read_bytes(path)

            with mock.patch.object(Path, "read_bytes", refuse_unreadable):
                code, out, err = run_main(["batch", str(in_dir)])
                assert code == EXIT_PARTIAL
                assert out.splitlines()[1:] == []
                # one line per failure, in name order
                lines = err.split("\n")
                assert lines.pop() == ""
                assert len(lines) == len(kinds)
                for line, path in zip(lines, sorted(kinds)):
                    assert line.startswith(f"error: {rendered(path)}: ")
                    assert line.count(rendered(path)) == 1
                for path, kind in kinds.items():
                    code, out, err = run_main(["analyze", str(path)])
                    assert code == BAD_FILES[kind][1]
                    assert out == ""
                    assert err.count("\n") == 1 and err.endswith("\n")
                    assert err.startswith(f"error: {rendered(path)}: ")
                    assert err.count(rendered(path)) == 1


class TestCliFuzz:
    """``main`` on a drawn verb with drawn flags and words (the argvs of
    ``TestParser``), run in a directory that holds a profile ``f.dat`` and a
    directory ``x`` of a good profile and a bad one whose name holds a line
    break: it exits with a documented code, lets no traceback or warning
    escape, and each failure is one ``error:`` line."""

    @settings(max_examples=200, deadline=None)
    @example(argv=["batch", "x"])
    @example(argv=["batch", "x", "--format", "raw"])
    @example(argv=["synth", "f.dat", "-o", "x"])
    @given(argv=DRAWN_ARGV)
    def test_drawn_argv(self, argv):
        with tempfile.TemporaryDirectory() as root, contextlib.chdir(root):
            Path("f.dat").write_bytes(valid_profile_bytes())
            Path("x").mkdir()
            Path("x", "good.dat").write_bytes(valid_profile_bytes())
            Path("x", "b\nad.dat").write_text("40 9.8\n80 x\n")
            code, out, err = run_main(argv)
        assert code in (EXIT_ORACLE_FAIL, EXIT_OK, 2, EXIT_PARSE,
                        EXIT_VALIDATION, EXIT_FIT, EXIT_PARTIAL, EXIT_IO)
        assert "Traceback" not in err
        lines = err.splitlines()
        if code in (EXIT_OK, EXIT_ORACLE_FAIL):
            assert not any(line.startswith("error:") for line in lines)
        elif code != 2:     # argparse's usage error has its own format
            assert lines and all(line.startswith("error: ")
                                 for line in lines)
