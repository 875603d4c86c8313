"""The library's input contract: every number and every column an exported
name takes is checked, so a call on odd numbers and columns returns or
raises a WallscaleError, with no bare Python or numpy error and no numpy
warning.  An argument of the wrong class (a ``str`` where a
``VelocityProfile`` is expected) is outside the contract by design.

``CALLS`` holds one call per name that ``wallscale`` exports, with a
valid value and a strategy of odd ones for each argument; each example
replaces up to three arguments by odd values (a valid column also by
itself with a few odd cells).  ``EXEMPT`` names each export the
fuzz leaves out, with the reason.  A new export must be added to one of
the two, or ``test_table_covers_every_export`` fails.
"""

import dataclasses
import math
import pathlib
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wallscale
from wallscale import (AnalysisReport, AnalyzeOptions, DomainError,
                       EnvelopeCurve, FitError, LogLawParams, ProfileMetadata,
                       SynthSpec, UniversalSeries, ValidationError,
                       VelocityProfile, WallscaleError, alpha_of_ln_re,
                       analyze_profile, build_universal_series, classify_shift,
                       combine_reynolds, envelope_at, envelope_curve,
                       envelope_line_fit, fit_broken_line, fit_log_law,
                       fit_power_law, format_table, generate,
                       generate_ensemble, ln_re1_from_prefactor,
                       ln_re2_from_exponent, log_law_phi, prefactor_of_ln_re,
                       psi_transform, report_from_text, report_to_text,
                       scaling_law_phi, select_intermediate, significant_break)
from wallscale.diagnostics import universal_series

from odd_values import (COLUMN, COUNT, FLOAT_NEAR_LIMITS, INT_NEAR_LIMITS,
                        NUMBER, NUMBER_OR_COLUMN, OPTION_VALUES, PAIR, TEXT,
                        odd_cells)

SPEC = SynthSpec(ln_re=10.0, break_ln_eta=6.0, ln_eta_range=(2.0, 9.0),
                 n_points=24, noise_sigma=0.01)
PROFILE = generate(SPEC)
ETA, PHI = PROFILE.eta, PROFILE.phi
FIT = fit_broken_line(ETA, PHI)
SERIES = build_universal_series(ETA, PHI, 0.14)
CURVE = envelope_curve((5.0, 10.0), 10)
REPORT = report_to_text(analyze_profile(PROFILE).report)


def _profile(eta, phi):
    return VelocityProfile(eta, phi, ProfileMetadata())


def _report(eta, phi):
    return analyze_profile(_profile(eta, phi)).report


# Lines appended to a valid report's text: a later line sets its field.
REPORT_LINES = st.lists(st.tuples(
    st.sampled_from([f.name for f in dataclasses.fields(AnalysisReport)]),
    st.one_of(FLOAT_NEAR_LIMITS, INT_NEAR_LIMITS, OPTION_VALUES, TEXT)).map(
        "=".join), max_size=4).map(lambda lines: REPORT + "\n".join(lines))
_SPEC_ARGUMENTS = [(10.0, NUMBER), (6.0, NUMBER), ((2.0, 9.0), PAIR),
                   (36, COUNT), (0.2, NUMBER), (0.01, NUMBER), (0.5, NUMBER),
                   (3, COUNT), (7, COUNT), ("", TEXT)]

# name -> (call, (a valid value, the strategy of odd ones) per argument)
CALLS = {
    # diagnostics
    "UniversalSeries": (UniversalSeries, [
        (SERIES.ln_eta, COLUMN), (SERIES.psi, COLUMN), (0.1, NUMBER),
        (0.0, NUMBER)]),
    "build_universal_series": (build_universal_series, [
        (ETA, COLUMN), (PHI, COLUMN), (0.14, NUMBER)]),
    "classify_shift": (lambda tol: classify_shift(SERIES, tol), [
        (0.1, NUMBER)]),
    "combine_reynolds": (combine_reynolds, [
        (10.0, NUMBER), (10.5, NUMBER), (5000.0, st.one_of(st.none(), NUMBER)),
        (0.03, NUMBER)]),
    "ln_re1_from_prefactor": (ln_re1_from_prefactor, [(8.0, NUMBER)]),
    "ln_re2_from_exponent": (ln_re2_from_exponent, [(0.14, NUMBER)]),
    "psi_transform": (psi_transform, [(20.0, NUMBER), (0.14, NUMBER)]),
    # fitting; a PowerLawSegment is a fit's result, so its method is drawn
    "PowerLawSegment": (FIT.region1.ln_phi_at, [
        (SERIES.ln_eta, NUMBER_OR_COLUMN)]),
    "fit_broken_line": (fit_broken_line, [
        (ETA, COLUMN), (PHI, COLUMN), (3, COUNT)]),
    "fit_power_law": (fit_power_law, [
        (SERIES.ln_eta, COLUMN), (SERIES.psi, COLUMN)]),
    "significant_break": (lambda z: significant_break(FIT, z), [
        (2.0, NUMBER)]),
    # profiles
    "ProfileMetadata": (ProfileMetadata, [
        ("p", st.one_of(TEXT, NUMBER)), (5000.0, NUMBER), (0.01, NUMBER),
        (10.0, NUMBER), (1.5e-5, NUMBER), (0.4, NUMBER)]),
    "VelocityProfile": (lambda eta, phi, ln_eta, ln_phi: VelocityProfile(
        eta, phi, ProfileMetadata(), ln_eta, ln_phi), [
        (ETA, COLUMN), (PHI, COLUMN), (None, COLUMN), (None, COLUMN)]),
    "select_intermediate": (lambda eta, phi, cut, tol: select_intermediate(
        _profile(eta, phi), cut, tol), [
        (ETA, COLUMN), (PHI, COLUMN), (1.5, NUMBER), (0.002, NUMBER)]),
    # report
    "AnalyzeOptions": (AnalyzeOptions, [
        (1.5, NUMBER), (0.002, NUMBER), (3, COUNT), (0.03, NUMBER),
        (0.1, NUMBER), ("mean", TEXT)]),
    "analyze_profile": (lambda eta, phi, min_seg: analyze_profile(
        _profile(eta, phi), AnalyzeOptions(min_seg=min_seg)), [
        (ETA, COLUMN), (PHI, COLUMN), (3, COUNT)]),
    "format_table": (lambda eta, phi: format_table([_report(eta, phi)]), [
        (ETA, COLUMN), (PHI, COLUMN)]),
    "report_to_text": (lambda eta, phi: report_to_text(_report(eta, phi)), [
        (ETA, COLUMN), (PHI, COLUMN)]),
    "report_from_text": (report_from_text, [(REPORT, REPORT_LINES)]),
    # scaling
    "EnvelopeCurve": (EnvelopeCurve, [
        (CURVE.ln_eta, COLUMN), (CURVE.phi_env, COLUMN),
        (CURVE.ln_re_touch, COLUMN)]),
    "LogLawParams": (LogLawParams, [(0.4, NUMBER), (5.1, NUMBER)]),
    "alpha_of_ln_re": (alpha_of_ln_re, [(10.0, NUMBER_OR_COLUMN)]),
    "envelope_at": (envelope_at, [(8.0, NUMBER)]),
    "envelope_curve": (envelope_curve, [((5.0, 10.0), PAIR), (50, COUNT)]),
    "envelope_line_fit": (envelope_line_fit, [
        ((5.0, 10.0), PAIR), (50, COUNT)]),
    "fit_log_law": (fit_log_law, [
        (CURVE.ln_eta, COLUMN), (CURVE.phi_env, COLUMN)]),
    "log_law_phi": (lambda eta, kappa, offset: log_law_phi(
        eta, LogLawParams(kappa, offset)), [
        (ETA, NUMBER_OR_COLUMN), (0.4, NUMBER), (5.1, NUMBER)]),
    "prefactor_of_ln_re": (prefactor_of_ln_re, [(10.0, NUMBER_OR_COLUMN)]),
    "scaling_law_phi": (scaling_law_phi, [
        (ETA, NUMBER_OR_COLUMN), (10.0, NUMBER_OR_COLUMN)]),
    # synthetic
    "SynthSpec": (SynthSpec, _SPEC_ARGUMENTS),
    "generate": (lambda *spec: generate(SynthSpec(*spec)), _SPEC_ARGUMENTS),
    "generate_ensemble": (lambda n: generate_ensemble(SPEC, n), [
        (3, COUNT)]),
}

_RECORD = "a result record: the library fills it from checked values"
_FILE = "takes a path, not a number or a column"
EXEMPT = {
    **{name: "an exception class" for name in (
        "DomainError", "FitError", "InputOutputError", "ParseError",
        "PipelineError", "ValidationError", "WallscaleError")},
    **{name: "a constant string" for name in (
        "COLLAPSED", "SHIFTED_ABOVE", "SHIFTED_BELOW", "__version__")},
    **{name: _RECORD for name in (
        "AnalysisBundle", "AnalysisReport", "BrokenLineFit", "EnvelopePoint",
        "ReynoldsDiagnostics")},
    "load_profile": f"{_FILE}; test_loader.py draws its files",
    "load_synth_spec": f"{_FILE}; TestSynthFuzz draws its files",
    "analyze": f"{_FILE}; TestOutDirFuzz draws its files and flags",
    "batch": f"{_FILE}; TestOutDirFuzz draws its files and flags",
    "save_profile": f"{_FILE} and a checked VelocityProfile",
    "emit_plotdata": f"{_FILE} and a bundle; TestOutDirFuzz writes it",
}


def test_table_covers_every_export():
    exported = {name for name, value in vars(wallscale).items()
                if (not name.startswith("__") or name == "__version__")
                and not isinstance(value, types.ModuleType)}
    assert not set(CALLS) & set(EXEMPT)
    assert set(CALLS) | set(EXEMPT) == exported


def _odd(valid, strategy):
    """An argument's odd values; a valid column may also keep its length
    and take a few odd cells."""
    if isinstance(valid, np.ndarray):
        return st.one_of(strategy, odd_cells(valid))
    return strategy


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exported_names_fail_typed(name, data):
    call, arguments = CALLS[name]
    odd = data.draw(st.sets(st.integers(0, len(arguments) - 1), max_size=3))
    args = [data.draw(_odd(valid, strategy)) if i in odd else valid
            for i, (valid, strategy) in enumerate(arguments)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except WallscaleError:
            pass


def test_huge_ln_re_is_the_prefactor():
    # 2 ln Re would overflow; 1.5 / ln Re does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scaling_law_phi(100, 1e308) == prefactor_of_ln_re(1e308)
        assert alpha_of_ln_re(np.array([1e308])).tolist() == [1.5e-308]


@pytest.mark.parametrize("call, error", [
    (lambda: scaling_law_phi(100, 5e-324), DomainError),
    (lambda: fit_log_law([], []), FitError),
    (lambda: generate_ensemble(SPEC, 10**400), ValidationError),
    (lambda: generate_ensemble(SPEC, sys.maxsize + 1), ValidationError),
    (lambda: generate_ensemble(SPEC, -(10**5000)), ValidationError),
    *[(lambda bad=bad, fn=fn: fn(bad), DomainError)
      for fn in (alpha_of_ln_re, prefactor_of_ln_re, envelope_at,
                 ln_re1_from_prefactor, ln_re2_from_exponent)
      for bad in (10**400, "text", None, [[1.0, 2.0]])],
    *[(lambda bad=bad, fn=fn: fn(bad), DomainError)
      for fn in (envelope_at, ln_re1_from_prefactor, ln_re2_from_exponent)
      for bad in ([1.0], np.ones(2))],
    *[(lambda bad=bad: psi_transform(5.0, bad), DomainError)
      for bad in (10**400, "text", None, [1.0])],
    *[(lambda bad=bad: combine_reynolds(10.0, bad), DomainError)
      for bad in (10**400, "text", None, [1.0])],
    *[(lambda bad=bad: build_universal_series([1.0, 2.0], [5.0, 6.0], bad),
       DomainError) for bad in (10**400, "text", None, [1.0])],
    *[(lambda bad=bad: universal_series(np.ones(2), np.ones(2), bad),
       DomainError) for bad in (10**400, "text", None, [1.0])],
    *[(lambda bad=bad, fn=fn: fn(bad, [1.0, 2.0]), error)
      for fn, error in ((fit_power_law, FitError), (fit_log_law, FitError),
                        (fit_broken_line, FitError),
                        (lambda e, p: build_universal_series(e, p, 0.1),
                         DomainError))
      for bad in ("text", None, 5.0, [[1.0, 2.0]], [1.0, 2.0, 3.0])],
    *[(lambda bad=bad, fn=fn: fn(bad), DomainError)
      for fn in (lambda x: scaling_law_phi(x, 10.0),
                 lambda x: log_law_phi(x, LogLawParams(0.4, 5.1)),
                 FIT.region1.ln_phi_at)
      for bad in (10**400, "text", None, [[1.0, 2.0]])],
])
def test_probe_escapes_fail_typed(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


NAN, INF = math.nan, math.inf


# Calls that returned nan, inf or an ln Re that is not positive, and the
# message each now raises.
@pytest.mark.parametrize("call, error, message", [
    *[(lambda bad=bad: combine_reynolds(10.0, 10.0, re_theta=bad),
       DomainError, f"re_theta must be positive and finite, got {bad!r}")
      for bad in (-5.0, NAN, 0.0, INF)],
    (lambda: ln_re1_from_prefactor(INF), DomainError,
     "prefactor must be finite, got inf"),
    (lambda: ln_re2_from_exponent(INF), DomainError,
     "alpha must be positive and finite, got inf"),
    (lambda: build_universal_series([1, INF, 3], [8, 9, 10], 0.15),
     DomainError, "eta must be finite, got inf"),
    (lambda: universal_series(np.array([1.0, NAN, 3.0]), np.ones(3), 0.15),
     DomainError, "ln_eta must be finite, got nan"),
    (lambda: fit_log_law([1, NAN, 3], [1, 2, 3]), FitError,
     "ln_eta must be finite, got nan"),
    (lambda: fit_log_law([1, 2, 3], [1, INF, 3]), FitError,
     "phi must be finite, got inf"),
    (lambda: LogLawParams(kappa=INF, c_offset=5.1), DomainError,
     "kappa must be positive and finite, got inf"),
    (lambda: LogLawParams(0.4, NAN), DomainError,
     "c_offset must be finite, got nan"),
])
def test_silent_non_answers_fail_typed(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_value_rules_have_one_owner():
    # every sign and finiteness message comes from profiles.check_values
    source = pathlib.Path(wallscale.__file__).parent
    spelled = [f"{path.name}: {phrase}" for path in sorted(source.glob("*.py"))
               if path.name != "profiles.py"
               for phrase in ("must be positive", "must be finite",
                              "must be >= 0")
               if phrase in path.read_text(encoding="utf-8")]
    assert spelled == []
