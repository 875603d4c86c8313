"""Property tests: every input fails in a typed way, and the report text
round-trips.

Random bytes or lines fed to the two file loaders raise only ParseError or
ValidationError; a random valid SynthSpec run through the generator and
the pipeline gives a report or a PipelineError; and any report survives
report_to_text followed by report_from_text unchanged, unless a text field
holds a line break, which report_to_text refuses by name.  Every count
argument of the library takes a Python or numpy integer and nothing else,
and every real-valued one a Python or numpy number that is not a bool and
that a float can hold.  ``fit_broken_line`` and ``build_universal_series``
equal the log-column functions they wrap, given the same logarithms.
"""

import dataclasses
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wallscale import (AnalysisReport, AnalyzeOptions, FitError, ParseError,
                       PipelineError, SynthSpec, UniversalSeries,
                       ValidationError, WallscaleError, analyze_profile,
                       build_universal_series, classify_shift,
                       combine_reynolds, envelope_curve, envelope_line_fit,
                       fit_broken_line, generate, generate_ensemble,
                       load_profile, load_synth_spec, select_intermediate,
                       significant_break)
from wallscale.diagnostics import universal_series
from wallscale.fitting import fit_log_broken_line
from wallscale.report import format_envelope, report_from_text, report_to_text
from wallscale.scaling import grid

from odd_values import LABEL, LINE_BREAKS
from oracle import log_columns

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", "x", "1e999", "-0", "0x10", "1_0", "nan", "+inf"]),
)
PROFILE_LINE = st.one_of(
    st.tuples(NUMBER, st.sampled_from([" ", ",", "\t", ", "]), NUMBER)
    .map("".join),
    st.tuples(st.sampled_from(["label", "re_theta", "turbulence_level", "U",
                               "nu", "u_star", "bogus", ""]),
              NUMBER).map("=".join),
    st.sampled_from(["", "# comment", "1 2 3", "="]),
    st.text(max_size=20),
)
SPEC_LINE = st.one_of(
    st.tuples(st.sampled_from(["ln_re", "beta", "break_ln_eta", "ln_eta_min",
                               "ln_eta_max", "n_points", "noise_sigma",
                               "shift", "plateau_points", "seed", "label",
                               "bogus", ""]),
              NUMBER).map("=".join),
    st.sampled_from(["", "# comment", "no equals sign"]),
    st.text(max_size=20),
)


def _lines_to_bytes(lines):
    return "\n".join(lines).encode("utf-8", "surrogatepass")


PROFILE_BYTES = st.binary(max_size=200) | st.lists(
    PROFILE_LINE, max_size=12).map(_lines_to_bytes)
SPEC_BYTES = st.binary(max_size=200) | st.lists(
    SPEC_LINE, max_size=14).map(_lines_to_bytes)


@SETTINGS
@given(data=PROFILE_BYTES, fmt=st.sampled_from(["wall_units", "raw"]))
def test_load_profile_fails_only_typed(tmp_path, data, fmt):
    path = tmp_path / "p.dat"
    path.write_bytes(data)
    try:
        profile = load_profile(path, fmt)
    except (ParseError, ValidationError):
        return
    assert len(profile) >= 4


@SETTINGS
@given(data=SPEC_BYTES)
def test_load_synth_spec_fails_only_typed(tmp_path, data):
    path = tmp_path / "s.spec"
    path.write_bytes(data)
    try:
        spec = load_synth_spec(path)
    except (ParseError, ValidationError):
        return
    assert isinstance(spec, SynthSpec)


@st.composite
def synth_specs(draw):
    n = draw(st.integers(8, 300))
    lo = draw(st.floats(-5.0, 12.0))
    hi = lo + draw(st.floats(0.5, 15.0))
    return SynthSpec(
        ln_re=draw(st.floats(0.5, 60.0)),
        break_ln_eta=lo + (hi - lo) * draw(st.floats(0.01, 0.99)),
        ln_eta_range=(lo, hi),
        n_points=n,
        beta=draw(st.floats(-2.0, 2.0)),
        noise_sigma=draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.01, 0.1, 0.5])),
        shift=draw(st.floats(-3.0, 3.0)),
        plateau_points=draw(st.integers(0, n - 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(spec=synth_specs(),
       lg_eta_min=st.floats(-1.0, 3.0),
       min_seg=st.integers(3, 6),
       alpha_source=st.sampled_from(["mean", "lnRe1"]))
def test_generate_then_analyze_fails_only_typed(spec, lg_eta_min, min_seg,
                                               alpha_source):
    profile = generate(spec)
    options = AnalyzeOptions(lg_eta_min=lg_eta_min, min_seg=min_seg,
                             alpha_source=alpha_source)
    try:
        bundle = analyze_profile(profile, options)
    except PipelineError:
        return
    assert isinstance(bundle.report, AnalysisReport)


_FLOAT = st.floats(allow_nan=False)


def _field_strategy(tp):
    if typing.get_origin(tp) in (typing.Union, type(int | None)):
        (inner,) = [a for a in typing.get_args(tp) if a is not type(None)]
        return st.none() | _field_strategy(inner)
    return {str: LABEL, bool: st.booleans(), int: st.integers(),
            float: _FLOAT}[tp]


REPORTS = st.builds(AnalysisReport, **{
    name: _field_strategy(tp)
    for name, tp in typing.get_type_hints(AnalysisReport).items()})


@settings(max_examples=300, deadline=None)
@given(REPORTS)
def test_report_text_round_trip(report):
    # the report has one field per line and writes text fields as they
    # are, so a text field holding a line break is refused, by name
    broken = [(name, value) for name, value in vars(report).items()
              if isinstance(value, str)
              and any(c in LINE_BREAKS for c in value)]
    try:
        text = report_to_text(report)
    except ValidationError as exc:
        name, value = broken[0]
        assert str(exc) == (f"cannot write {name} value {value!r}: "
                            "it would not read back")
        return
    assert not broken
    assert report_from_text(text) == report


SPEC = dict(ln_re=10.0, break_ln_eta=6.0, ln_eta_range=(2.0, 9.0),
            n_points=20)
ETA = np.exp(np.linspace(1.0, 3.0, 20))


@pytest.mark.parametrize("call, valid, error", [
    (lambda c: fit_broken_line(ETA, ETA, c), 3, FitError),
    (lambda c: envelope_curve((1.0, 2.0), c), 10, ValidationError),
    (lambda c: envelope_line_fit((1.0, 2.0), c), 10, ValidationError),
    (lambda c: format_envelope(envelope_curve((1.0, 2.0), c)), 10,
     ValidationError),
    (lambda c: grid(1.0, 2.0, c), 10, ValidationError),
    (lambda c: generate(SynthSpec(**{**SPEC, "n_points": c})), 20,
     ValidationError),
    (lambda c: generate(SynthSpec(**SPEC, seed=c)), 1, ValidationError),
    (lambda c: generate(SynthSpec(**SPEC, plateau_points=c)), 2,
     ValidationError),
    (lambda c: generate_ensemble(SynthSpec(**SPEC), c), 2, ValidationError),
    (lambda c: analyze_profile(generate(SynthSpec(**SPEC)),
                               AnalyzeOptions(min_seg=c)), 3,
     ValidationError),
], ids=["fit_broken_line.min_seg", "envelope_curve", "envelope_line_fit",
        "format_envelope", "grid", "SynthSpec.n_points", "SynthSpec.seed",
        "SynthSpec.plateau_points", "generate_ensemble",
        "AnalyzeOptions.min_seg"])
@pytest.mark.parametrize("bad", [10.5, True, "10", None])
def test_counts_are_integers(call, valid, error, bad):
    call(np.int64(valid))
    with pytest.raises(error, match="must be an integer, got"):
        call(bad)


def _spec(**overrides):
    return SynthSpec(**{**SPEC, **overrides})


_REAL_ARGUMENTS = {
    "SynthSpec.ln_re": (lambda r: _spec(ln_re=r), 10.0),
    "SynthSpec.break_ln_eta": (lambda r: _spec(break_ln_eta=r), 6.0),
    "SynthSpec.ln_eta_range[0]": (lambda r: _spec(ln_eta_range=(r, 9.0)), 2.0),
    "SynthSpec.ln_eta_range[1]": (lambda r: _spec(ln_eta_range=(2.0, r)), 9.0),
    "SynthSpec.beta": (lambda r: _spec(beta=r), 0.2),
    "SynthSpec.noise_sigma": (lambda r: _spec(noise_sigma=r), 0.0),
    "SynthSpec.shift": (lambda r: _spec(shift=r), 0.0),
    "envelope_curve[0]": (lambda r: envelope_curve((r, 2.0), 10), 1.0),
    "envelope_curve[1]": (lambda r: envelope_curve((1.0, r), 10), 2.0),
    **{f"AnalyzeOptions.{name}":
       (lambda r, name=name: AnalyzeOptions(**{name: r}), 0.5)
       for name in ("lg_eta_min", "phi_plateau_tol", "consistency_tol",
                    "shift_tol")},
}
PROFILE = generate(SynthSpec(**SPEC))
FIT = fit_broken_line(PROFILE.eta, PROFILE.phi)
SERIES = build_universal_series(PROFILE.eta, PROFILE.phi, 0.14)
# the library calls that take an analysis option, one entry per option
_OPTION_ARGUMENTS = {
    "select_intermediate.lg_eta_min":
        (lambda r: select_intermediate(PROFILE, r), 0.5),
    "select_intermediate.phi_plateau_tol":
        (lambda r: select_intermediate(PROFILE, 1.5, r), 0.5),
    "significant_break.z": (lambda r: significant_break(FIT, r), 2.0),
    "classify_shift.shift_tol": (lambda r: classify_shift(SERIES, r), 0.5),
    "combine_reynolds.tol":
        (lambda r: combine_reynolds(10.0, 10.0, tol=r), 0.5),
}
_REAL_ARGUMENTS.update(_OPTION_ARGUMENTS)
# AnalyzeOptions' rule and messages: a cutoff is finite and a tolerance
# >= 0; a library call takes an infinite tolerance as an infinite band
_OPTION_RULES = {
    f"{name}-{bad!r}": (*_OPTION_ARGUMENTS[name], bad, message)
    for name, bad, message in [
        ("select_intermediate.lg_eta_min", float("nan"),
         "^lg_eta_min must be finite, got nan$"),
        ("select_intermediate.lg_eta_min", float("inf"),
         "^lg_eta_min must be finite, got inf$"),
        *[(name, bad, f"^{name.partition('.')[2]} must be >= 0, got {bad!r}$")
          for name in list(_OPTION_ARGUMENTS)[1:]
          for bad in (float("nan"), -1.0)],
    ]}
_NOT_REAL = ("10", True, None, 1j)
# ints a float cannot hold; the repr of the second raises ValueError
_HUGE = {"10**400": 10**400, "10**5000": 10**5000}


@pytest.mark.parametrize("call, valid, bad, message", [
    *[(call, valid, bad, "must be a real number, got")
      for call, valid in _REAL_ARGUMENTS.values()
      for bad in _NOT_REAL],
    (lambda r: _spec(ln_eta_range=r), (2, 9), (2, 9, 3), "must be a pair"),
    (lambda r: _spec(ln_eta_range=r), (2, 9), 5, "must be a pair"),
    (lambda r: envelope_curve(r, 10), (1, 2), (1, 2, 3), "must be a pair"),
    (lambda r: envelope_curve(r, 10), (1, 2), 5, "must be a pair"),
    (lambda r: envelope_curve(r, 10), (1, 2), ("a", 2), "a real number"),
    *[(call, valid, bad, "is outside the float range")
      for call, valid in _REAL_ARGUMENTS.values()
      for bad in _HUGE.values()],
    *_OPTION_RULES.values(),
], ids=[*(f"{name}-{bad!r}" for name in _REAL_ARGUMENTS
          for bad in _NOT_REAL),
        "SynthSpec.triple", "SynthSpec.scalar", "envelope_curve.triple",
        "envelope_curve.scalar", "envelope_curve.text",
        *(f"{name}-{huge}" for name in _REAL_ARGUMENTS for huge in _HUGE),
        *_OPTION_RULES])
def test_real_arguments_fail_typed(call, valid, bad, message):
    call(valid)
    call(np.float64(valid) if np.ndim(valid) == 0 else np.asarray(valid))
    with pytest.raises(ValidationError, match=message):
        call(bad)


@pytest.mark.parametrize("call", [call for call, _ in
                                  list(_OPTION_ARGUMENTS.values())[1:]],
                         ids=list(_OPTION_ARGUMENTS)[1:])
def test_library_tolerance_may_be_infinite(call):
    call(float("inf"))


def _outcome(fn, *args):
    """A fit as its fields, a universal series as the bits of its columns
    and statistics, an error as its type and message."""
    try:
        result = fn(*args)
    except WallscaleError as exc:
        return type(exc), str(exc)
    if isinstance(result, UniversalSeries):
        return [float.hex(v) for v in (*result.ln_eta.tolist(),
                                       *result.psi.tolist(),
                                       result.mean_shift, result.rms_scatter)]
    return dataclasses.asdict(result)


_POSITIVE = st.floats(1e-3, 1e6)


@SETTINGS
@given(columns=st.integers(6, 40).flatmap(lambda n: st.tuples(
           st.lists(_POSITIVE, min_size=n, max_size=n),
           st.lists(_POSITIVE, min_size=n, max_size=n),
           st.integers(3, n // 2))),
       alpha=st.floats(1e-3, 10.0))
def test_wrappers_equal_their_log_column_functions(columns, alpha):
    eta, phi, min_seg = columns
    ln_eta, ln_phi = log_columns(eta, phi)
    assert (_outcome(fit_broken_line, eta, phi, min_seg)
            == _outcome(fit_log_broken_line, ln_eta, ln_phi, min_seg))
    assert (_outcome(build_universal_series, eta, phi, alpha)
            == _outcome(universal_series, ln_eta, np.array(phi), alpha))
