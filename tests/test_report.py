import math
from dataclasses import replace

import numpy as np
import pytest

from wallscale import (AnalyzeOptions, COLLAPSED, ParseError, PipelineError,
                       ProfileMetadata, SHIFTED_BELOW, SynthSpec,
                       ValidationError, VelocityProfile, alpha_of_ln_re,
                       analyze, analyze_profile, batch, emit_plotdata,
                       generate, profiles, psi_transform, report,
                       save_profile)
from wallscale.cli import main
from wallscale.report import (envelope_table, format_table, report_from_text,
                              report_to_text)

OPTIONS = AnalyzeOptions(lg_eta_min=0.5)


def clean_spec(**overrides):
    kwargs = dict(ln_re=10.69, break_ln_eta=6.5,
                  ln_eta_range=(2.0, 9.5), n_points=36, label="clean")
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


class TestAnalyzeProfile:
    def test_noiseless_round_trip(self):
        spec = clean_spec()
        bundle = analyze_profile(generate(spec), OPTIONS)
        r = bundle.report
        assert r.alpha == pytest.approx(spec.alpha, abs=1e-9)
        assert r.a == pytest.approx(spec.prefactor, rel=1e-9)
        assert r.beta == pytest.approx(spec.beta, abs=1e-9)
        assert r.ln_re == pytest.approx(spec.ln_re, abs=1e-7)
        assert r.consistent
        assert r.mean_shift == pytest.approx(0.0, abs=1e-9)
        assert r.shift_class == COLLAPSED
        assert r.label == "clean"

    def test_shifted_profile(self):
        # the fitted prefactor absorbs part of a parallel shift, so the
        # pipeline estimate is biased low but stays clearly positive
        spec = clean_spec(shift=1.0)
        r = analyze_profile(generate(spec), OPTIONS).report
        assert 0.5 < r.mean_shift < 1.0
        assert r.shift_class == SHIFTED_BELOW

    def test_no_second_region_leaves_beta_absent(self):
        spec = clean_spec(beta=clean_spec().alpha)
        r = analyze_profile(generate(spec), OPTIONS).report
        assert r.beta is None
        assert r.b is None

    def test_alpha_source_option(self):
        profile = generate(clean_spec(noise_sigma=0.01, seed=3))
        mean = analyze_profile(profile, OPTIONS).report
        ln1 = analyze_profile(
            profile, AnalyzeOptions(lg_eta_min=0.5, alpha_source="lnRe1")).report
        assert mean.mean_shift != ln1.mean_shift
        assert ln1.alpha_source == "lnRe1"

    def test_bad_alpha_source(self):
        with pytest.raises(ValidationError):
            AnalyzeOptions(alpha_source="median")

    @pytest.mark.parametrize("field, value", [
        ("min_seg", 2), ("min_seg", 3.0), ("min_seg", True),
        ("lg_eta_min", math.nan), ("lg_eta_min", -math.inf),
        ("phi_plateau_tol", -0.001), ("phi_plateau_tol", math.nan),
        ("consistency_tol", math.inf), ("consistency_tol", "0.03"),
        ("shift_tol", math.nan), ("shift_tol", -0.1),
    ])
    def test_bad_option_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            AnalyzeOptions(**{field: value})

    def test_pipeline_error_names_stage(self):
        # sublayer cutoff removes everything: failure in select_intermediate
        spec = clean_spec()
        with pytest.raises(PipelineError) as err:
            analyze_profile(generate(spec), AnalyzeOptions(lg_eta_min=9.0))
        assert err.value.stage == "select_intermediate"
        assert isinstance(err.value.cause, ValidationError)


class TestAnalyzeFile:
    def test_label_falls_back_to_stem(self, tmp_path):
        profile = generate(clean_spec())
        # blank out the label through the file itself
        path = tmp_path / "case7.dat"
        save_profile(profile, path)
        text = "\n".join(line for line in path.read_text().splitlines()
                         if not line.startswith("label="))
        path.write_text(text + "\n")
        bundle = analyze(path, OPTIONS)
        assert bundle.report.label == "case7"

    def test_deterministic_reports(self, tmp_path):
        path = tmp_path / "p.dat"
        save_profile(generate(clean_spec(noise_sigma=0.01, seed=9)), path)
        r1 = report_to_text(analyze(path, OPTIONS).report)
        r2 = report_to_text(analyze(path, OPTIONS).report)
        assert r1 == r2


class TestBatch:
    def test_sorted_and_partial(self, tmp_path):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        save_profile(generate(clean_spec(label="b-case", seed=1,
                                         noise_sigma=0.01)),
                     in_dir / "x.dat")
        save_profile(generate(clean_spec(label="a-case", seed=2,
                                         noise_sigma=0.01)),
                     in_dir / "y.dat")
        (in_dir / "broken.dat").write_text("1 2 3\n")
        (in_dir / "z.dat").write_text("nope\n")
        for kwargs in ({}, {"out_dir": out_dir}):
            reports, failures = batch(in_dir, OPTIONS, **kwargs)
            assert [r.label for r in reports] == ["a-case", "b-case"]
            assert reports == [analyze(in_dir / name, OPTIONS).report
                               for name in ("y.dat", "x.dat")]
            # failures come in name order
            assert [path.name for path, _ in failures] == [
                "broken.dat", "z.dat"]
            assert all(isinstance(exc, PipelineError)
                       and isinstance(exc.cause, ParseError)
                       for _, exc in failures)
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            s + f for s in "xy" for f in ("_loglog.dat", "_universal.dat",
                                           "_shift.dat", "_report.txt"))
        assert report_from_text((out_dir / "x_report.txt").read_text()) == (
            reports[1])

    def test_empty_dir(self, tmp_path):
        with pytest.raises(ValidationError):
            batch(tmp_path)

    def test_shared_stem_second_fails(self, tmp_path):
        in_dir, out_dir = tmp_path / "in", tmp_path / "out"
        in_dir.mkdir()
        for name, label in (("p.dat", "first"), ("p.txt", "second")):
            save_profile(generate(clean_spec(label=label)), in_dir / name)
        reports, failures = batch(in_dir, OPTIONS, out_dir=out_dir)
        assert [r.label for r in reports] == ["first"]
        assert "label=first\n" in (out_dir / "p_report.txt").read_text()
        [(path, exc)] = failures
        assert path.name == "p.txt"
        assert isinstance(exc, ValidationError)


class TestReportSerialization:
    def test_exact_round_trip(self):
        r = analyze_profile(generate(clean_spec(noise_sigma=0.013, seed=4)),
                            OPTIONS).report
        assert report_from_text(report_to_text(r)) == r

    def test_round_trip_with_none_fields(self):
        spec = clean_spec(beta=clean_spec().alpha)
        r = analyze_profile(generate(spec), OPTIONS).report
        assert r.beta is None and r.re_theta is None
        assert report_from_text(report_to_text(r)) == r

    @pytest.mark.parametrize("label", ["a\nb", "a\r", "a\u2028b"])
    def test_line_break_in_a_text_field_is_refused(self, label):
        # the reader would stop the field at the break
        r = analyze_profile(generate(clean_spec()), OPTIONS).report
        with pytest.raises(ValidationError) as err:
            report_to_text(replace(r, label=label))
        assert str(err.value) == (f"cannot write label value {label!r}: "
                                  "it would not read back")

    def test_numpy_metadata_number_round_trips(self):
        # a numpy float is stored as a float, so its repr reads back
        profile = generate(clean_spec())
        profile = VelocityProfile(profile.eta, profile.phi, ProfileMetadata(
            label="np", re_theta=np.float64(5000.0)))
        r = analyze_profile(profile, OPTIONS).report
        assert "\nre_theta=5000.0\n" in report_to_text(r)
        assert report_from_text(report_to_text(r)) == r

    @pytest.mark.parametrize("line", ["split_index=abc", "min_seg=none",
                                      "alpha=fast", "alpha=none",
                                      "split_index=3.0", "consistent=yes",
                                      "consistent=True", "consistent="])
    def test_bad_number_is_parse_error(self, line):
        r = analyze_profile(generate(clean_spec()), OPTIONS).report
        text = report_to_text(r).replace(f"{line.split('=')[0]}=",
                                         "dropped=", 1)
        lines = [ln for ln in text.splitlines() if not ln.startswith("dropped=")]
        with pytest.raises(ParseError) as err:
            report_from_text("\n".join(lines + [line]) + "\n")
        assert err.value.line == len(lines) + 1

    def test_table_formatting(self):
        r = analyze_profile(generate(clean_spec()), OPTIONS).report
        table = format_table([r])
        lines = table.splitlines()
        assert lines[0].startswith("label")
        assert "clean" in lines[1]
        assert f"{r.alpha:.3f}" in lines[1]
        # absent columns show as --
        assert "--" in lines[1]


class TestPlotData:
    def test_files_written_and_stable(self, tmp_path):
        bundle = analyze_profile(generate(clean_spec(noise_sigma=0.01, seed=6)),
                                 OPTIONS)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        written = emit_plotdata(bundle, out1, stem="case")
        names = sorted(p.name for p in written)
        assert names == sorted(["case_loglog.dat", "case_universal.dat",
                                "case_shift.dat", "case_report.txt"])
        assert sorted(p.name for p in out1.iterdir()) == names
        emit_plotdata(bundle, out2, stem="case")
        for p in written:
            assert p.read_bytes() == (out2 / p.name).read_bytes()

    def test_shift_file_is_x_of_every_sample(self, tmp_path):
        # x = ln eta - psi(phi, alpha(ln Re)) row by row, bit for bit
        bundle = analyze_profile(generate(clean_spec(noise_sigma=0.02,
                                                     shift=0.3, seed=4)),
                                 OPTIONS)
        emit_plotdata(bundle, tmp_path, stem="s")
        lines = (tmp_path / "s_shift.dat").read_text().splitlines()
        alpha = alpha_of_ln_re(bundle.report.ln_re)
        assert lines[0] == "x phi"
        assert lines[1:] == [
            f"{math.log(eta) - psi_transform(phi, alpha)!r} {phi!r}"
            for eta, phi in zip(bundle.profile.eta.tolist(),
                                bundle.profile.phi.tolist())]

    def test_cli_writes_the_envelope_once(self, tmp_path, monkeypatch):
        # every write, through cli and through report, is counted
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        for name in "abc":
            save_profile(generate(clean_spec(label=name)),
                         in_dir / f"{name}.dat")
        writes = []
        write = profiles.atomic_write_text

        def counted(path, text):
            writes.append((path, text))
            write(path, text)

        monkeypatch.setattr(profiles, "atomic_write_text", counted)
        for verb, target, files in (("analyze", in_dir / "a.dat", 5),
                                    ("batch", in_dir, 13)):
            writes.clear()
            out_dir = tmp_path / verb
            assert main([verb, str(target), "--lg-eta-min", "0.5",
                         "--out-dir", str(out_dir)]) == 0
            assert len(writes) == files
            assert [w for w in writes if w[0].name == "envelope.dat"] == [
                (out_dir / "envelope.dat", envelope_table())]
            assert ((out_dir / "envelope.dat").read_text()
                    == envelope_table())

    def test_batch_builds_the_envelope_once(self, tmp_path, monkeypatch):
        for name in "abc":
            save_profile(generate(clean_spec(label=name)),
                         tmp_path / f"{name}.dat")
        calls = []

        def counted(*args):
            calls.append(args)
            return envelope_table(*args)

        monkeypatch.setattr(report, "envelope_table", counted)
        code = main(["batch", str(tmp_path), "--lg-eta-min", "0.5",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert calls == [()]
        assert ((tmp_path / "out" / "envelope.dat").read_text()
                == envelope_table())

    def test_universal_file_bisectrix(self, tmp_path):
        bundle = analyze_profile(generate(clean_spec()), OPTIONS)
        emit_plotdata(bundle, tmp_path, stem="c")
        lines = (tmp_path / "c_universal.dat").read_text().splitlines()
        assert lines[0] == "ln_eta psi bisectrix"
        for line in lines[1:]:
            x, psi, bis = map(float, line.split())
            assert bis == x
            assert psi == pytest.approx(x, abs=1e-8)  # collapsed case


class TestEnvelopeTable:
    def test_columns_and_agreement(self):
        lines = envelope_table().splitlines()
        assert lines[0] == "ln_eta phi_env ln_re_touch log_law"
        assert len(lines) == 51
        assert [float(lines[i].split()[0]) for i in (1, -1)] == [5.0, 10.0]
        for line in lines[1:]:
            ln_eta, phi_env, touch, log_law = map(float, line.split())
            assert log_law == pytest.approx(ln_eta / 0.4 + 5.1, rel=1e-12)
            assert abs(phi_env - log_law) / log_law < 0.02
