"""The ``key=value`` grammar that profile metadata, synth specs and the
machine-readable report share.

Each case puts one line into a valid profile (as its line 1), a valid
spec (line 1) or a valid report (appended as line 25) and expects either
the value read or the exact ParseError, which names the line but not
the file (the CLI's error line does that).  Profile and spec values lose
their outer whitespace; a report string keeps every character after the
``=``, so text with outer spaces round-trips.
"""

import pytest

from wallscale import (ParseError, SynthSpec, analyze_profile, generate,
                       load_profile, load_synth_spec)
from wallscale.report import report_from_text, report_to_text

PROFILE_ROWS = "".join(f"{10.0 * 2 ** i!r} {5.0 + i!r}\n" for i in range(6))
SPEC_LINES = ("ln_re=10.69\nbreak_ln_eta=6.5\nln_eta_min=2.0\n"
              "ln_eta_max=9.5\nn_points=36\n")
REPORT = report_to_text(analyze_profile(generate(SynthSpec(
    ln_re=10.69, break_ln_eta=6.5, ln_eta_range=(2.0, 9.5),
    n_points=36))).report)

# (reader, line, field, value) or (reader, line, ParseError, message)
CASES = [
    # a line without "=" (a profile reads it as a data row)
    ("profile", "label", ParseError, "line 1: expected 2 columns, got 1"),
    ("spec", "label", ParseError, "line 1: expected key=value"),
    ("report", "label", ParseError, "line 25: expected key=value"),
    # a key that is not known
    ("profile", "bogus=1", ParseError,
     "line 1: unknown metadata key 'bogus'"),
    ("spec", "bogus=1", ParseError, "line 1: unknown spec key 'bogus'"),
    ("report", "bogus=1", ParseError,
     "line 25: unknown report field 'bogus'"),
    # outer spaces around the key and the value
    ("profile", " label = a b ", "label", "a b"),
    ("spec", " label = a b ", "label", "a b"),
    ("report", " label = a b ", "label", " a b "),
    ("profile", " re_theta = 5 ", "re_theta", 5.0),
    ("spec", " seed = 5 ", "seed", 5),
    ("report", " min_seg = 5 ", "min_seg", 5),
    ("report", "consistent= false ", "consistent", False),
    # "=" inside the value
    ("profile", "label=a=b", "label", "a=b"),
    ("spec", "label=a=b", "label", "a=b"),
    ("report", "label=a=b", "label", "a=b"),
    # text that float or int cannot read
    ("profile", "re_theta= x ", ParseError,
     "line 1: cannot parse re_theta value 'x'"),
    ("profile", "re_theta=", ParseError,
     "line 1: cannot parse re_theta value ''"),
    ("spec", "noise_sigma=x", ParseError,
     "line 1: cannot parse noise_sigma value 'x'"),
    ("spec", "seed=1.5", ParseError, "line 1: cannot parse seed value '1.5'"),
    ("report", "re_theta=x", ParseError,
     "line 25: cannot parse re_theta value 'x'"),
    ("report", "min_seg=1.5", ParseError,
     "line 25: cannot parse min_seg value '1.5'"),
    # an underscore between digits, which float and int read
    ("profile", "re_theta=1_0", "re_theta", 10.0),
    ("spec", "noise_sigma=1_0", "noise_sigma", 10.0),
    ("spec", "seed=1_0", "seed", 10),
    ("report", "re_theta=1_0", "re_theta", 10.0),
    ("report", "min_seg=1_0", "min_seg", 10),
    # none, only where the field admits None
    ("profile", "re_theta=none", ParseError,
     "line 1: cannot parse re_theta value 'none'"),
    ("spec", "noise_sigma=none", ParseError,
     "line 1: cannot parse noise_sigma value 'none'"),
    ("spec", "label=none", "label", "none"),
    ("report", "re_theta=none", "re_theta", None),
    ("report", "min_seg=none", ParseError,
     "line 25: cannot parse min_seg value 'none'"),
    # true and false, only for a bool field
    ("report", "consistent=true", "consistent", True),
    ("report", "consistent=false", "consistent", False),
    ("report", "consistent=yes", ParseError,
     "line 25: cannot parse consistent value 'yes'"),
    ("report", "re_theta=true", ParseError,
     "line 25: cannot parse re_theta value 'true'"),
    ("profile", "re_theta=true", ParseError,
     "line 1: cannot parse re_theta value 'true'"),
    ("spec", "seed=false", ParseError,
     "line 1: cannot parse seed value 'false'"),
    ("spec", "label=true", "label", "true"),
]


def read(reader, line, path):
    """What ``reader`` makes of a valid input holding ``line``."""
    if reader == "report":
        return report_from_text(REPORT + line + "\n")
    if reader == "profile":
        path.write_text(line + "\n" + PROFILE_ROWS, encoding="utf-8")
        return load_profile(path).metadata
    path.write_text(line + "\n" + SPEC_LINES, encoding="utf-8")
    return load_synth_spec(path)


@pytest.mark.parametrize("reader, line, field, expected", CASES)
def test_key_value_line(tmp_path, reader, line, field, expected):
    path = tmp_path / f"{reader}.txt"
    if field is ParseError:
        with pytest.raises(ParseError) as info:
            read(reader, line, path)
        assert type(info.value) is ParseError
        assert str(info.value) == expected
    else:
        value = getattr(read(reader, line, path), field)
        assert type(value) is type(expected) and value == expected
