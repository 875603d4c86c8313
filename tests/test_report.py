import math

import numpy as np
import pytest

from wallscale import (AnalyzeOptions, COLLAPSED, ParseError, PipelineError,
                       SHIFTED_BELOW, SynthSpec, ValidationError, analyze,
                       analyze_profile, batch, emit_plotdata, generate,
                       save_profile)
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
        profile = generate(clean_spec(label=" "))
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
        save_profile(generate(clean_spec(label="b-case", seed=1,
                                         noise_sigma=0.01)),
                     tmp_path / "x.dat")
        save_profile(generate(clean_spec(label="a-case", seed=2,
                                         noise_sigma=0.01)),
                     tmp_path / "y.dat")
        (tmp_path / "broken.dat").write_text("1 2 3\n")
        bundles, failures = batch(tmp_path, OPTIONS)
        assert [b.report.label for b in bundles] == ["a-case", "b-case"]
        assert len(failures) == 1
        assert failures[0][0].name == "broken.dat"

    def test_empty_dir(self, tmp_path):
        with pytest.raises(ValidationError):
            batch(tmp_path)

    def test_shared_stem_second_fails(self, tmp_path):
        for name, label in (("p.dat", "first"), ("p.txt", "second")):
            save_profile(generate(clean_spec(label=label)), tmp_path / name)
        bundles, failures = batch(tmp_path, OPTIONS)
        assert [b.report.label for b in bundles] == ["first"]
        assert bundles[0].source == tmp_path / "p.dat"
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
                                "case_shift.dat", "envelope.dat",
                                "case_report.txt"])
        emit_plotdata(bundle, out2, stem="case")
        for p in written:
            assert p.read_bytes() == (out2 / p.name).read_bytes()

    def test_shared_envelope_written_once(self, tmp_path):
        bundle = analyze_profile(generate(clean_spec()), OPTIONS)
        emit_plotdata(bundle, tmp_path, stem="a")
        envelope = tmp_path / "envelope.dat"
        inode = envelope.stat().st_ino
        written = emit_plotdata(bundle, tmp_path, stem="b")
        assert envelope in written
        assert envelope.stat().st_ino == inode
        assert len(list(tmp_path.iterdir())) == 9

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
        lines = envelope_table((5.0, 10.0), 20).splitlines()
        assert lines[0] == "ln_eta phi_env ln_re_touch log_law"
        assert len(lines) == 21
        for line in lines[1:]:
            ln_eta, phi_env, touch, log_law = map(float, line.split())
            assert log_law == pytest.approx(ln_eta / 0.4 + 5.1, rel=1e-12)
            assert abs(phi_env - log_law) / log_law < 0.02
