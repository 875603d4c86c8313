"""``load_profile`` reads every file exactly as a plain per-line parser.

``load_profile`` reads the rows from the first data row on as one block
when orjson reads them (``profiles.block_values``), and otherwise one
line at a time, each data row with one unpacking and two ``float``
calls, working out why a row is bad only once it fails.  The reference,
``oracle.reference_load``, is the loader as it was before both: one line
at a time, every check spelled out in order.  These tests draw profile
files from a grammar that mixes valid rows with every kind of trouble
(separators, whitespace that ``str.splitlines`` would split at, trailing
comments, empty fields, numbers only ``float`` reads, a bad number deep
in the rows, wrong widths, widths that keep the total, ``|``, commas in
some rows only, blank lines among comma rows, metadata or comments after
the rows, line endings, trailing blank lines, no final newline) and
require bit-equal columns and equal metadata, or the same exception type
and message; and they require the grammar to draw files that each path
reads.  Rows that ``float`` reads but JSON refuses (aligned columns,
leading whitespace, ``1.``, ``.5``, ``+1``, ``01``, ``1e400``, ``inf``,
``nan``, ``0``) must each be read by the per-line loop, as the reference
reads them.

``block_values`` itself has one number reader, orjson's parser, and
gives None for every block that it refuses, or whose values hold a zero;
the per-line loop reads each of those.  Blocks of numbers in every form
that orjson and ``float`` might read apart (random bit patterns, long
decimals, exact midpoints, integers, ``-0``, tokens that overflow or
underflow, JSON literals, separators that JSON refuses) must give None
or ``oracle.split_block_values``'s values bit for bit, each a ``float``
and in the list that ``orjson.loads`` returned; blocks of rows that JSON
takes, each number nonzero and finite, must give values; and a spy on
``orjson.loads`` shows that blocks are drawn that orjson reads and
``block_values`` takes or refuses.
"""

import math
import re
import struct
import tempfile
import warnings
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import (HealthCheck, Phase, example, find, given,
                        settings)
from hypothesis import strategies as st

from wallscale import (ProfileMetadata, ValidationError, VelocityProfile,
                       WallscaleError, load_profile, profiles, report,
                       synthetic)

from oracle import reference_load, split_block_values


SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

FORMS = ("{!r}", "{:.6g}", "{:.17e}")
ODD_NUMBER = st.sampled_from([
    "", "1_0", "1_000.5", "nan", "-nan", "inf", "+inf", "-inf", "Infinity",
    "1e999", "1e-999", "0", "-3", "0x10", "x", "1.5.2", "\u0661\u0662",
    "1e", ".5", "5.", "7\x00"])
# whitespace that str.splitlines, but not a universal-newline read, ends a
# line at
LINE_BREAKING_SPACE = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
SEPARATOR = st.sampled_from([" ", "\t", ",", ", ", " ,", "  \t ", "\u3000",
                             *LINE_BREAKING_SPACE, ",,", ""])
BAD_NUMBER = st.sampled_from(["x", "1.5.2", "1e", "0x10", "--1", "\u0661x"])
COMMENT = st.sampled_from([" # text", "#", "\t#1 2"])
PIPE = st.sampled_from(["|", " | ", "|,", " |"])
BLANK = st.sampled_from(["", " ", "\t", " \x0c ", "\x85"])


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
         "underscore", "comment", "width", "odd whitespace", "some commas",
         "after the rows", "bad number", "joined rows",
         "compensating widths", "pipe", "blank between commas")
# What makes a row one that the profile rejects; about one file in six
# draws one (see profile_files).
REJECTED = ("swapped", "duplicated", "non-positive", "overflowing")
# The message that reference_load gives, in raw, for such a row.
REJECTED_ROW = re.compile(r"line \d+: (eta not ascending|duplicate eta value|"
                          r"(eta|phi|y|u) must be positive and finite)")
# True in about one draw in six, not one in four: hypothesis favours the
# first values it samples (12-22% in the counts that
# test_grammar_draws_rejected_rows and
# test_number_blocks_draw_rows_of_three take).
NOW_AND_THEN = st.sampled_from([False, False, False, True])
NON_POSITIVE = st.sampled_from(["0", "-0.0", "-1.5", "-1e-300"])
# Metadata values that ProfileMetadata rejects; about one file in four
# draws one.
REJECTED_METADATA = st.sampled_from([
    "re_theta=-1", "u_star=0", "nu=inf", "U=nan", "turbulence_level=-0.0",
    "label=a\u2028b"])
ENDINGS = {"newline": "\n", "no final newline": "",
           "trailing blank line": "\n\n", "trailing spaces": "\n \x85 \n"}


@st.composite
def profile_files(draw):
    r"""A file's text and the edit and ending drawn for it.  Metadata and
    clean rows, often edited by putting one or two odd rows, or odd or
    metadata lines, anywhere (after the rows too), by drawing each row's
    separator anew, by an underscore in one number (``1_0`` reads as 10
    with ``float``), by a trailing comment on one row, by giving every row
    one or three columns, by putting whitespace that ``str.splitlines``
    splits at around some rows and their separators (``float`` strips no
    ``\x1c``), by a comma where one row had whitespace or whitespace where
    it had a comma, by a metadata or comment line after one of the rows,
    by a number ``float`` rejects in the second half of the rows, by
    joining two rows into one line at a whitespace that ``str.splitlines``
    splits at, by giving one row a third field and another only its first
    (the total stays two a row), by a ``|`` as one row's separator or
    anywhere in it, or by a blank or whitespace-only line between the rows
    of a comma file.  The file ends in one newline, none, or a blank
    line.

    About one file in six (``NOW_AND_THEN``) gets, before its edit, a row
    that the profile rejects (``REJECTED``): two rows swapped, a row
    written twice, a number that is not positive, or a first number of
    1e308, which overflows to an infinite eta in ``raw``; such a file's
    metadata gives ``u_star`` and ``nu``, so that ``raw`` reads its rows
    too.  Drawn
    apart, one file in three (about one in four as hypothesis draws) gets
    as its last line before the rows a metadata value that
    ``ProfileMetadata`` rejects (``REJECTED_METADATA``)."""
    rows = draw(CLEAN)
    rejected = None
    if draw(NOW_AND_THEN):
        rejected = draw(st.sampled_from(REJECTED))
        i = draw(st.integers(0, len(rows) - 2))
        if rejected == "swapped":
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
        elif rejected == "duplicated":
            rows.insert(i + 1, rows[i])
        elif rejected == "non-positive":
            field = draw(st.sampled_from([r"^[^ \t,]+", r"[^ \t,]+$"]))
            rows[i + 1] = re.sub(field, draw(NON_POSITIVE), rows[i + 1])
        else:
            rows[i + 1] = re.sub(r"^[^ \t,]+", "1e308", rows[i + 1])
    edit = draw(st.sampled_from(EDITS))
    index = st.integers(0, len(rows) - 1)
    if edit == "mixed separators":
        rows = [draw(SEPARATOR).join(re.split(r"[ \t,]+", row))
                for row in rows]
    elif edit in ("underscore", "comment"):
        i = draw(index)
        rows[i] = (re.sub(r"(\d)(\d)", r"\1_\2", rows[i], count=1)
                   if edit == "underscore" else rows[i] + draw(COMMENT))
    elif edit == "width":
        cut = draw(st.booleans())
        rows = [re.split(r"[ \t,]+", row)[0] if cut else
                row + re.findall(r"[ \t,]+", row)[0] + "1.0" for row in rows]
    elif edit == "odd whitespace":
        pad = st.sampled_from(["", *LINE_BREAKING_SPACE])
        for i in draw(st.lists(index, min_size=1, max_size=3)):
            rows[i] = re.sub(r"[ \t,]+", draw(pad) + r"\g<0>" + draw(pad),
                             draw(pad) + rows[i] + draw(pad), count=1)
    elif edit == "some commas":
        i = draw(index)
        rows[i] = re.sub(r"[ \t,]+", " " if "," in rows[i] else ",",
                         rows[i], count=1)
    elif edit == "joined rows":
        i = draw(st.integers(0, len(rows) - 2))
        rows[i] += draw(st.sampled_from(LINE_BREAKING_SPACE)) + rows.pop(i + 1)
    elif edit == "compensating widths":
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        rows[i] += re.findall(r"[ \t,]+", rows[i])[0] + "1.0"
        rows[j] = re.split(r"[ \t,]+", rows[j])[0]
    elif edit == "pipe":
        i = draw(index)
        k = draw(st.integers(0, len(rows[i])))
        rows[i] = (re.sub(r"[ \t,]+", draw(PIPE), rows[i], count=1)
                   if draw(st.booleans()) else
                   rows[i][:k] + draw(PIPE) + rows[i][k:])
    elif edit == "blank between commas":
        rows = [re.sub(r"[ \t,]+", ",", row) for row in rows]
        rows.insert(draw(st.integers(1, len(rows) - 1)), draw(BLANK))
    elif edit == "bad number":
        i = draw(st.integers(len(rows) // 2, len(rows) - 1))
        rows[i] = re.sub(r"[^ \t,]+$", draw(BAD_NUMBER), rows[i])
    lines = draw(st.lists(METADATA, max_size=3))
    if rejected:
        lines += ["u_star=0.05", "nu=1.5e-5"]
    if draw(st.sampled_from([False, False, True])):
        lines.append(draw(REJECTED_METADATA))
    if edit == "after the rows":
        rows.insert(draw(st.integers(1, len(rows))),
                    draw(METADATA | st.sampled_from(["# comment", "#"])))
    lines += rows
    if edit in ODD:
        for line in draw(st.lists(ODD[edit], min_size=1, max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), line)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ending = draw(st.sampled_from(sorted(ENDINGS)))
    text = newline.join(lines) + ENDINGS[ending].replace("\n", newline)
    return text, edit, ending


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
@given(case=profile_files(), fmt=st.sampled_from(["wall_units", "raw"]))
@example(case=("1\x1c,2\n2 ,\x1c3\n3,4\n4,5\n", "odd whitespace", "newline"),
         fmt="wall_units")
@example(case=("1 2\n3 4\x0c5 6\n7 8\n9 10\n", "joined rows", "newline"),
         fmt="wall_units")
@example(case=("1 2 3\n4\n5 6\n7 8\n", "compensating widths", "newline"),
         fmt="wall_units")
# a row the profile rejects, on line 5, read as a block and line by line
@example(case=("u_star=0.05\nnu=1.5e-5\n1 2\n3 4\n2 5\n6 7\n", "none",
               "newline"), fmt="wall_units")
@example(case=("u_star=0.05\nnu=1.5e-5\n1 2\n3 4\n2 5\n# c\n6 7\n",
               "after the rows", "newline"), fmt="raw")
def test_load_profile_matches_per_line_parser(tmp_path, case, fmt):
    text = case[0]
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


def _path_taken(text):
    """"block" or "lines" as ``load_profile`` reads ``text``'s rows from
    the first data row on, or None if it stops before that row."""
    taken, real = [], profiles.block_values

    def spy(block):
        values = real(block)
        taken.append("lines" if values is None else "block")
        return values

    with tempfile.TemporaryDirectory() as root, \
            mock.patch.object(profiles, "block_values", spy):
        path = Path(root) / "p.dat"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            load_profile(path)
        except WallscaleError:
            pass
    return taken[0] if taken else None


@pytest.mark.parametrize("edit, ending, path", [
    ("none", "newline", "block"),
    ("none", "no final newline", "block"),
    ("none", "trailing blank line", "block"),
    ("none", "trailing spaces", "block"),
    ("odd whitespace", None, "lines"),
    ("some commas", None, "lines"),
    ("after the rows", None, "lines"),
    ("bad number", None, "lines"),
    ("joined rows", None, "lines"),
    ("compensating widths", None, "lines"),
    ("pipe", None, "lines"),
    ("blank between commas", None, "lines"),
])
def test_grammar_draws_both_paths(edit, ending, path):
    def drawn(case):
        return (case[1] == edit and ending in (None, case[2])
                and _path_taken(case[0]) == path)

    find(profile_files(), drawn,    # no shrinking: one such file will do
         settings=settings(max_examples=2000, database=None, deadline=None,
                           phases=[Phase.generate]))


def test_grammar_draws_rejected_metadata():
    # the fuzz reaches ProfileMetadata's rules: of the 200 files drawn,
    # 13 parse and are refused for a metadata value (none without
    # REJECTED_METADATA); at least 5 must be
    refused = []

    @settings(max_examples=200, deadline=None, derandomize=True,
              phases=[Phase.generate])
    @given(case=profile_files())
    def draw(case):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "p.dat"
            path.write_text(case[0], encoding="utf-8", newline="")
            outcome = _outcome(lambda: reference_load(path, "wall_units"))
        refused.append(outcome[0] == "error" and re.match(
            r"line \d+: (metadata field|label must)", outcome[2]) is not None)

    draw()
    assert len(refused) == 200 and sum(refused) >= 5


def test_grammar_draws_rejected_rows():
    # NOW_AND_THEN's rate, as profile_files draws it: of the 200 files
    # drawn, 27 are refused in raw for a row that the profile rejects (a
    # file drawn with one may fail first for another fault, so this is a
    # floor of the draws); one in six would give about 33
    refused = []

    @settings(max_examples=200, deadline=None, derandomize=True,
              phases=[Phase.generate])
    @given(case=profile_files())
    def draw(case):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "p.dat"
            path.write_text(case[0], encoding="utf-8", newline="")
            outcome = _outcome(lambda: reference_load(path, "raw"))
        refused.append(outcome[0] == "error"
                       and REJECTED_ROW.match(outcome[2]) is not None)

    draw()
    assert len(refused) == 200 and 12 <= sum(refused) <= 60


# rows that float reads but JSON refuses, so no block is taken
REFUSED_ROWS = {
    "aligned columns": ["10  1.5", "20  2.5", "40  3.5", "80  4.5"],
    "runs of tabs": ["10\t\t1.5", "20\t\t2.5", "40\t\t3.5", "80\t\t4.5"],
    "leading whitespace": [" 10 1.5", " 20 2.5", "\t40 3.5", " 80 4.5"],
    "trailing point": ["10. 1.5", "20. 2.5", "40. 3.5", "80. 4."],
    "leading point": ["10 .5", "20 .75", "40 1.5", "80 2.5"],
    "plus sign": ["+10 1.5", "20 +2.5", "40 3.5", "80 4.5"],
    "leading zero": ["010 1.5", "20 02.5", "40 3.5", "80 4.5"],
    "overflow": ["10 1.5", "20 2.5", "1e400 3.5", "80 4.5"],
    "infinity": ["10 1.5", "20 2.5", "40 inf", "80 4.5"],
    "nan": ["10 1.5", "20 2.5", "40 nan", "80 4.5"],
    "zero": ["10 1.5", "20 2.5", "40 0", "80 4.5"],
}


@pytest.mark.parametrize("kind", sorted(REFUSED_ROWS))
def test_refused_block_is_read_line_by_line(tmp_path, kind):
    # the per-line loop reads the rows: the reference's columns, or its
    # error naming the bad row's line
    text = "label=x\n" + "\n".join(REFUSED_ROWS[kind]) + "\n"
    assert _path_taken(text) == "lines"
    path = tmp_path / "p.dat"
    path.write_text(text, encoding="utf-8")
    got = _outcome(lambda: load_profile(path))
    want = _outcome(lambda: reference_load(path, "wall_units"))
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
        assert got[2].startswith("line 4: ")
    else:
        assert got[1].metadata == want[1].metadata
        for name in ("eta", "phi"):
            assert (getattr(got[1], name).view(np.uint64)
                    == getattr(want[1], name).view(np.uint64)).all()


@st.composite
def one_bad_row(draw):
    """A profile file of good rows but one, which the profile rejects
    (eta not ascending, a duplicate eta, or in ``raw`` an eta that
    overflows to inf) or which holds a value that is not positive and
    finite; the path that reads its rows, the format, the bad row's line
    and the start of its message.  The rows are read as one block unless
    a comment line is drawn among or after them, or the bad value is a
    zero, an infinity or a NaN, which ``block_values`` leaves to the
    per-line loop."""
    fmt = draw(st.sampled_from(["wall_units", "raw"]))
    n = draw(st.integers(4, 12))
    rows = [[10.0 * (i + 1), 1.0 + i] for i in range(n)]
    fault = draw(st.sampled_from(["not ascending", "duplicate", "value"]
                                 + ["overflow"] * (fmt == "raw")))
    i = draw(st.integers(fault in ("not ascending", "duplicate"), n - 1))
    if fault == "not ascending":
        rows[i][0] = rows[i - 1][0] - draw(st.sampled_from([0.5, 5.0, 9.5]))
        want = "eta not ascending"
    elif fault == "duplicate":
        rows[i][0] = rows[i - 1][0]
        want = "duplicate eta value"
    elif fault == "overflow":
        rows[i][0] = 1e308                  # u_star * y / nu is inf
        want = "eta must be positive and finite, got inf"
    else:
        column = draw(st.integers(0, 1))
        value = draw(st.sampled_from(
            [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]))
        rows[i][column] = value
        name = (("y", "u") if fmt == "raw" else ("eta", "phi"))[column]
        want = f"{name} must be positive and finite"
    sep = draw(st.sampled_from([" ", "\t", ",", ", "]))
    body = [f"{a!r}{sep}{b!r}" for a, b in rows]
    head = draw(st.lists(st.sampled_from(["# comment", "", "label=x"]),
                         max_size=4))
    if fmt == "raw":
        head += ["u_star=0.05", "nu=1.5e-5"]
    path = draw(st.sampled_from(["block", "lines"]))
    if path == "lines":
        body.insert(draw(st.integers(1, n)), "# among the rows")
    elif fault == "value" and value != -1.0:
        path = "lines"
    lines = head + body
    bad_line = len(head) + body.index(f"{rows[i][0]!r}{sep}{rows[i][1]!r}")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline, path, fmt, bad_line + 1, want


@SETTINGS
@given(case=one_bad_row())
def test_rejected_row_names_its_line(tmp_path, case):
    text, path, fmt, line, want = case
    assert _path_taken(text) == path
    file = tmp_path / "p.dat"
    file.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings(), pytest.raises(ValidationError) as info:
        warnings.simplefilter("error")
        load_profile(file, fmt)
    assert str(info.value).startswith(f"line {line}: {want}")
    assert info.value.line == line


@SETTINGS
@given(values=st.lists(st.sampled_from(["12.5", "-1", "inf", "0"]),
                       min_size=1, max_size=4),
       key=st.sampled_from(["re_theta", "U", "nu"]),
       before=st.lists(st.sampled_from(["# c", "", "label=x"]), max_size=3))
def test_rejected_metadata_names_its_last_line(tmp_path, values, key,
                                               before):
    # a later line of a key wins: only its last value is checked
    lines = []
    for value in values:
        lines += [*before, f"{key}={value}"]
    last = len(lines)
    file = tmp_path / "p.dat"
    file.write_text("\n".join([*lines, "40 9.8", "80 10.9", "160 12.1",
                               "320 13.4"]) + "\n", encoding="utf-8")
    if values[-1] == "12.5":
        load_profile(file)
        return
    field = profiles._METADATA_KEYS[key]
    with pytest.raises(ValidationError) as info:
        load_profile(file)
    assert str(info.value) == (
        f"line {last}: metadata field {field} must be positive and finite, "
        f"got {float(values[-1])!r}")
    assert info.value.line == last


@st.composite
def synthetic_profiles(draw):
    """A synthetic two-law profile of 30 to 200 samples, noiseless or
    with lognormal noise of 1e-3 or 1e-2, sometimes with a plateau."""
    return synthetic.generate(synthetic.SynthSpec(
        ln_re=draw(st.floats(8.0, 14.0)),
        break_ln_eta=draw(st.floats(5.0, 7.0)),
        ln_eta_range=(1.0, draw(st.floats(8.5, 10.0))),
        n_points=draw(st.integers(30, 200)),
        noise_sigma=draw(st.sampled_from([0.0, 1e-3, 1e-2])),
        plateau_points=draw(st.integers(0, 5)),
        seed=draw(st.integers(0, 2**16))))


def _report_text(path, fmt):
    """The report of ``analyze`` on a file, as text, or its error."""
    outcome = _outcome(lambda: report.analyze(path, format=fmt).report)
    if outcome[0] == "ok":
        return report.report_to_text(outcome[1])
    return outcome


@settings(max_examples=100, deadline=None)
@given(profile=synthetic_profiles(),
       newline=st.sampled_from(["\n", "\r\n"]),
       sep=st.sampled_from([" ", ",", "\t", ", ", " \t "]),
       comments=st.booleans(),
       scale=st.none() | st.tuples(st.integers(-20, 20),
                                   st.integers(-20, 20)))
def test_report_is_invariant_under_the_file_layout(profile, newline, sep,
                                                   comments, scale):
    # Written without a label, every file takes its stem, p, as its label.
    # A comment after each row sends the file to the per-line loop.  In
    # raw, u_star = 2**a and nu = 2**b: y = eta * 2**(b - a) and
    # u = phi * 2**a, and every product and quotient of the loader's
    # conversion is exact, so eta and phi come back bit for bit.
    eta, phi = profile.eta.tolist(), profile.phi.tolist()
    header, fmt = [], "wall_units"
    if scale is not None:
        (a, b), fmt = scale, "raw"
        header = [f"u_star={2.0 ** a!r}", f"nu={2.0 ** b!r}"]
        eta = [e * 2.0 ** (b - a) for e in eta]
        phi = [p * 2.0 ** a for p in phi]
    after = ["# c", ""] if comments else []
    lines = header + [line for e, p in zip(eta, phi)
                      for line in [f"{e!r}{sep}{p!r}", *after]]
    with tempfile.TemporaryDirectory() as root:
        plain, changed = Path(root, "plain"), Path(root, "changed")
        plain.mkdir(), changed.mkdir()
        profiles.save_profile(VelocityProfile(profile.eta, profile.phi,
                                              ProfileMetadata()),
                              plain / "p.dat")
        (changed / "p.dat").write_text(newline.join(lines) + newline,
                                       encoding="utf-8", newline="")
        want = _report_text(plain / "p.dat", "wall_units")
        assert isinstance(want, str)
        assert _report_text(changed / "p.dat", fmt) == want


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _midpoint(bits):
    """The exact decimal halfway between the positive double of ``bits``
    and the next one up."""
    with localcontext() as context:
        context.prec = 1200     # the halves of subnormals have 767 digits
        return str((Decimal(_double(bits)) + Decimal(_double(bits + 1))) / 2)


SIGN = st.sampled_from(["", "-"])
# the repr of a finite double drawn over its bits, subnormals included
BITS_REPR = st.builds(
    lambda sign, bits: repr(_double(bits | sign << 63)), st.integers(0, 1),
    st.integers(0, 0x7FEFFFFFFFFFFFFF) | st.integers(0, 2**52 - 1))
# 18 to 31 significant digits, with or without a point, as e-320 to e300
LONG_DECIMAL = st.builds(
    lambda sign, digits, point, exp: (
        f"{sign}{str(digits)[0]}.{str(digits)[1:]}e{exp}" if point else
        f"{sign}{digits}e{exp}"),
    SIGN, st.integers(10**17, 10**31 - 1), st.booleans(),
    st.integers(-320, 300))
MIDPOINT = st.builds(lambda sign, bits: sign + _midpoint(bits), SIGN,
                     st.integers(0, 0x7FEFFFFFFFFFFFFE))
INTEGER = (st.sampled_from(["0", "-0", "1", "-1"])
           | st.integers(-2**70, 2**70).map(str)
           | st.integers(2**64 - 2**12, 2**64 + 2**12).map(str)
           # up to just past the halfway point to 2**1024, which is inf
           | st.integers(10**300, 2**1024 - 2**970 + 1).map(str))
NUMBER = BITS_REPR | LONG_DECIMAL | MIDPOINT | INTEGER
# tokens on which JSON and float disagree or that overflow or underflow
ODD_TOKEN = st.sampled_from([
    "1e400", "-1e400", "1e-400", "-1e-400", "inf", "-inf", "nan", "1.",
    ".5", "+1", "01", "1E5", "true", "false", "null", '"1"', "[1]", "{}"])
BLOCK_SEP = st.sampled_from([" ", "\t", ",", ", ", "  ", "   "])


@st.composite
def number_blocks(draw):
    """1 to 12 rows of two numbers, but in about one block in six
    (``NOW_AND_THEN``) a row of three and, in half of those, a row of one
    (another row keeps the total); one separator for the block, or in
    about one block in six one per field; in about one block in five one
    ``ODD_TOKEN`` replaces a number (with one separator that JSON takes),
    and in about one in four every field may be one (hypothesis favours
    the first of "none", "none", "one", "any"); the block ends in nothing,
    a newline or trailing whitespace."""
    odd = draw(st.sampled_from(["none", "none", "one", "any"]))
    tokens = NUMBER | ODD_TOKEN if odd == "any" else NUMBER
    sep = None if draw(NOW_AND_THEN) else draw(BLOCK_SEP)
    if odd == "one":    # a separator JSON takes, so the token decides
        sep = draw(st.sampled_from([" ", "\t", ",", ", "]))
    widths = [2] * draw(st.integers(1, 12))
    row = st.integers(0, len(widths) - 1)
    if draw(NOW_AND_THEN):
        widths[draw(row)] = 3
        if draw(st.booleans()):
            widths[draw(row)] = 1
    cells = [[draw(tokens) for _ in range(width)] for width in widths]
    if odd == "one":
        fields = cells[draw(row)]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(ODD_TOKEN)
    rows = []
    for fields in cells:
        rows.append(fields[0] + "".join((sep or draw(BLOCK_SEP)) + field
                                        for field in fields[1:]))
    return "\n".join(rows) + draw(st.sampled_from(["", "\n", " \n\t"]))


def _branch(block):
    """``block_values(block)`` and what gave it: "orjson" when it is the
    list that ``orjson.loads`` returned, "refused" when it is None though
    orjson read the block, and None otherwise."""
    parsed, real = [], orjson.loads

    def loads(text):
        parsed.append(real(text))
        return parsed[-1]

    with mock.patch.object(orjson, "loads", loads):
        values = profiles.block_values(block)
    if values is None:
        return None, "refused" if parsed else None
    return values, "orjson" if parsed and values is parsed[0] else None


def _bits(values):
    return np.array(values).view(np.uint64).tolist()


@settings(max_examples=500, deadline=None)
@given(block=number_blocks())
@example(block="-0 1\n2 3\n")         # orjson's int 0 has no sign
@example(block="1 1e-400\n2 3")        # orjson and float both give 0.0
@example(block="1\ttrue\n2\t3")        # JSON literals parse
@example(block="1, null\n2, 3")
@example(block='1 "2"\n3 4')
@example(block="[1] 2\n3 4")           # so do JSON containers
@example(block="1 2\n3 {}")
@example(block="1e400 2\n3 4")         # orjson refuses what float makes inf
@example(block="18446744073709551617 1\n2 3")
@example(block="1 2 3\n4")             # 3n - 1 values, a sentinel misplaced
def test_block_values_matches_the_split(block):
    # None, or orjson's list holding the split's values, each a float
    values, branch = _branch(block)
    if values is not None:
        want = split_block_values(block)
        assert branch == "orjson"
        assert want is not None
        assert [type(v) for v in values] == [float] * len(want)
        assert _bits(values) == _bits(want)


# a number that JSON takes and float reads as nonzero and finite
JSON_NUMBER = NUMBER.filter(lambda token: 0 < abs(float(token)) < math.inf)


@st.composite
def json_blocks(draw):
    """1 to 12 rows of two ``JSON_NUMBER``s, with one separator that JSON
    takes for the block, ending in nothing, a newline or trailing
    whitespace."""
    sep = draw(st.sampled_from([" ", "\t", ",", ", "]))
    rows = [draw(JSON_NUMBER) + sep + draw(JSON_NUMBER)
            for _ in range(draw(st.integers(1, 12)))]
    return "\n".join(rows) + draw(st.sampled_from(["", "\n", " \n\t"]))


@settings(max_examples=200, deadline=None)
@given(block=json_blocks())
@example(block="18446744073709551617 1\n2 3")   # past 2**64: a float
@example(block="1e-320, 2E+300\n-5, 6\n \n")
def test_block_values_takes_every_json_block(block):
    values, branch = _branch(block)
    assert branch == "orjson"
    assert [type(v) for v in values] == [float] * len(values)
    assert _bits(values) == _bits(split_block_values(block))


def test_number_blocks_draw_rows_of_three():
    # NOW_AND_THEN's rate, as number_blocks draws it: of the 500 blocks
    # drawn, 58 to 108 hold a row of three fields (hypothesis draws other
    # blocks after other tests in the same process, even derandomized);
    # one in six would give about 83
    threes = []

    @settings(max_examples=500, deadline=None, derandomize=True,
              phases=[Phase.generate])
    @given(block=number_blocks())
    def draw(block):
        threes.append(any(len(re.split(r"[ \t,]+", row.strip())) == 3
                          for row in block.split("\n")))

    draw()
    assert len(threes) == 500 and 40 <= sum(threes) <= 150


@pytest.mark.parametrize("branch", ["orjson", "refused"])
def test_number_blocks_draw_every_branch(branch):
    find(number_blocks(), lambda block: _branch(block)[1] == branch,
         settings=settings(max_examples=2000, database=None, deadline=None,
                           phases=[Phase.generate]))
