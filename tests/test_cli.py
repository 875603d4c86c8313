import contextlib
import io
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wallscale
from wallscale import AnalyzeOptions, SynthSpec, generate, save_profile
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
    ])
    def test_overflowing_spec_is_validation(self, tmp_path, capsys,
                                            overrides, message):
        specfile = tmp_path / "s.spec"
        write_specfile(specfile, **overrides)
        code = main(["synth", str(specfile), "-o", str(tmp_path / "o.dat")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert message in err and "Traceback" not in err

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
        code = main(["envelope", "--ln-eta-min", "1e160",
                     "--ln-eta-max", "2e160"])
        assert code == EXIT_FIT
        err = capsys.readouterr().err
        assert err.startswith("error: ln_eta must be below about 8.9e153")
        assert "Warning" not in err

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

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["analyz"],
                                      ["--version"]], ids=repr)
    def test_argv_without_a_verb_gets_the_full_parser(self, argv, capsys):
        want = _parse(build_parser(), argv)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert (exc.value.code, *capsys.readouterr()) == want
