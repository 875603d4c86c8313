"""``load_profile`` reads every file exactly as a plain per-line parser.

``load_profile`` reads each data row with one unpacking and two ``float``
calls and works out why a row is bad only once it fails.  The reference,
``oracle.reference_load``, is the loader as it was before that: one line
at a time, every check spelled out in order.  These tests draw profile
files from a grammar that mixes valid rows with every kind of trouble
(separators, trailing comments, empty fields, numbers only ``float``
reads, wrong widths, metadata after the rows, line endings) and require
bit-equal columns and equal metadata, or the same exception type and
message.
"""

import re
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wallscale import load_profile

from oracle import reference_load


SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

FORMS = ("{!r}", "{:.6g}", "{:.17e}")
ODD_NUMBER = st.sampled_from([
    "", "1_0", "1_000.5", "nan", "-nan", "inf", "+inf", "-inf", "Infinity",
    "1e999", "1e-999", "0", "-3", "0x10", "x", "1.5.2", "\u0661\u0662",
    "1e", ".5", "5.", "7\x00"])
SEPARATOR = st.sampled_from([" ", "\t", ",", ", ", " ,", "  \t ", "\u3000",
                             "\x0b", "\x1c", ",,", ""])
COMMENT = st.sampled_from([" # text", "#", "\t#1 2"])


@st.composite
def clean_rows(draw):
    """4 to 20 ascending positive rows in one number form with one
    separator, as a writer produces them.  The values are drawn uniformly
    over the bit patterns of positive finite doubles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n = draw(st.integers(4, 20))
    eta, phi = rng.integers(1, 0x7FF0000000000000, size=(2, n),
                            dtype=np.uint64).view(np.float64).tolist()
    form = draw(st.sampled_from(FORMS))
    sep = draw(st.sampled_from([" ", "\t", ",", ", ", "  "]))
    return [form.format(e) + sep + form.format(p)
            for e, p in zip(sorted(eta), phi)]


@st.composite
def odd_rows(draw):
    """One to three numbers, some only ``float`` reads or none does,
    joined by any separators, with trailing text."""
    numbers = draw(st.lists(st.floats(1e-3, 1e6).map(repr) | ODD_NUMBER,
                            min_size=1, max_size=3))
    row = numbers[0]
    for number in numbers[1:]:
        row += draw(SEPARATOR) + number
    return row + draw(st.sampled_from(["", "", "  ", "\t,"]) | COMMENT)


METADATA = st.sampled_from([
    "label=case A", "label = x, y", "re_theta=4680", "U = 12.5",
    "nu=1.5e-5", "u_star=0.05", "turbulence_level=1_0"])
ODD_LINE = st.sampled_from([
    "", "   ", "# comment", "  # indented = 3", "\x85", "re_theta=inf",
    "u_star=-1", "bogus=1", "=", "nu=x", "label=a\x0bb"])


CLEAN = clean_rows()
ODD = {"odd rows": odd_rows(), "odd lines": ODD_LINE | METADATA}
EDITS = ("none", "none", "odd rows", "odd lines", "mixed separators",
         "underscore", "comment", "width")


@st.composite
def profile_files(draw):
    """Metadata and clean rows, often edited by putting one or two odd
    rows, or odd or metadata lines, anywhere (after the rows too), by
    drawing each row's separator anew, by an underscore in one number
    (``1_0`` reads as 10 with ``float``), by a trailing comment on one
    row, or by giving every row one or three columns."""
    rows = draw(CLEAN)
    edit = draw(st.sampled_from(EDITS))
    if edit == "mixed separators":
        rows = [draw(SEPARATOR).join(re.split(r"[ \t,]+", row))
                for row in rows]
    elif edit in ("underscore", "comment"):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = (re.sub(r"(\d)(\d)", r"\1_\2", rows[i], count=1)
                   if edit == "underscore" else rows[i] + draw(COMMENT))
    elif edit == "width":
        cut = draw(st.booleans())
        rows = [re.split(r"[ \t,]+", row)[0] if cut else
                row + re.findall(r"[ \t,]+", row)[0] + "1.0" for row in rows]
    lines = draw(st.lists(METADATA, max_size=3)) + rows
    if edit in ODD:
        for line in draw(st.lists(ODD[edit], min_size=1, max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), line)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + "\n"


def _outcome(fn):
    """("ok", result) or ("error", exception type, message); a warning
    counts as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", fn()
        except Exception as exc:
            return "error", type(exc), str(exc)


@SETTINGS
@given(text=profile_files(), fmt=st.sampled_from(["wall_units", "raw"]))
def test_load_profile_matches_per_line_parser(tmp_path, text, fmt):
    path = tmp_path / "p.dat"
    path.write_text(text, encoding="utf-8", newline="")
    got = _outcome(lambda: load_profile(path, fmt))
    want = _outcome(lambda: reference_load(path, fmt))
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
    else:
        assert got[1].metadata == want[1].metadata
        for name in ("eta", "phi"):
            assert (getattr(got[1], name).view(np.uint64)
                    == getattr(want[1], name).view(np.uint64)).all()
