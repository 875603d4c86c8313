"""Property tests: every input fails in a typed way, and the report text
round-trips.

Random bytes or lines fed to the two file loaders raise only ParseError or
ValidationError; a random valid SynthSpec run through the generator and
the pipeline gives a report or a PipelineError; and any report survives
report_to_text followed by report_from_text unchanged.
"""

import typing

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wallscale import (AnalysisReport, AnalyzeOptions, ParseError,
                       PipelineError, SynthSpec, ValidationError,
                       analyze_profile, generate, load_profile,
                       load_synth_spec)
from wallscale.report import report_from_text, report_to_text

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


# Any text but the line breaks str.splitlines knows: the report has one
# field per line and writes text fields as they are.
_TEXT = st.text(st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    max_size=20)
_FLOAT = st.floats(allow_nan=False)


def _field_strategy(tp):
    if typing.get_origin(tp) in (typing.Union, type(int | None)):
        (inner,) = [a for a in typing.get_args(tp) if a is not type(None)]
        return st.none() | _field_strategy(inner)
    return {str: _TEXT, bool: st.booleans(), int: st.integers(),
            float: _FLOAT}[tp]


REPORTS = st.builds(AnalysisReport, **{
    name: _field_strategy(tp)
    for name, tp in typing.get_type_hints(AnalysisReport).items()})


@settings(max_examples=300, deadline=None)
@given(REPORTS)
def test_report_text_round_trip(report):
    assert report_from_text(report_to_text(report)) == report
