"""Odd values for the fuzz tests, in one place: numbers at and beyond the
limits of exp, of float64 and of the package's own checks, as a spec file
or a command line holds them (text) and as the library takes them (Python
and numpy objects), and columns built from them.

The fuzzes in ``test_cli.py`` and ``test_diagnostics.py`` draw the text
and the float values; the exported-name fuzz in ``test_contract.py``
draws them all.  The key=value round trips in ``test_properties.py`` and
``test_profiles.py`` draw the labels.
"""

import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

# --- text, as a spec file or a command line holds it ----------------------

# Spec-file values.  No count between 10**5 and 2**59 is drawn: the
# generator would allocate it.
FLOAT_TEXTS = [
    "709.78", "709.79", "710", "-745.2", "-746", "1e308", "-1e308",
    "1.7976931348623157e308", "5e-324", "-5e-324", "2.2e-308", "0", "-0.0",
    "1e-300", "inf", "-inf", "nan", "1e999"]
INT_TEXTS = [
    "-1", "0", "4", "7", "8", "32", "33", "100000", str(2**59 + 1),
    str(10**20), str(2**63), str(2**64), str(10**30)]
FLOAT_NEAR_LIMITS = st.sampled_from(FLOAT_TEXTS)
INT_NEAR_LIMITS = st.sampled_from(INT_TEXTS)

# Values of the analysis flags; "-inf" alone reads as an option, so the
# CLI fuzz joins a value that starts with "=" to its flag.
OPTION_TEXTS = ["nan", "inf", "=-inf", "-1", "0", "1e308", str(10**22)]
OPTION_VALUES = st.one_of(st.sampled_from(OPTION_TEXTS), st.text(max_size=6))

# --- floats ---------------------------------------------------------------

# Ends of an ln eta range: zero, subnormals, the envelope's 8.9e153 limit
# and the float range's.
ENVELOPE_ENDS = [0.0, -0.0, -1.0, 5e-324, 1e-310, 1e154, 8.9e153, 1e308,
                 math.nan, math.inf, -math.inf]
# Values that are not positive, or the smallest subnormal.
INVALID_VALUES = [0.0, -0.0, -1.0, -math.inf, math.nan, 5e-324]
INVALID = st.sampled_from(INVALID_VALUES)

# --- library arguments ----------------------------------------------------

# Every float and int above, ints no float can hold, and a few ordinary
# values so that a call gets past its first argument.
ODD_REALS = list({(type(x), repr(x)): x for x in [
    *map(float, FLOAT_TEXTS), *map(int, INT_TEXTS),
    *(float(text.lstrip("=")) for text in OPTION_TEXTS), *ENVELOPE_ENDS,
    *INVALID_VALUES, 10**22, 10**400, -(10**400), sys.maxsize + 1, 0.14,
    1.0, 2.5, 6.0, 10.0]}.values())
# Arguments that are not real numbers, or not a float's kind of number.
NOT_REALS = ["10", "text", "", b"1", True, False, None, 1j, (1.0,),
             Fraction(1, 3), np.float32(1.5), np.int64(-3), np.float64("nan"),
             np.bool_(True)]

NUMBER = st.one_of(st.sampled_from(ODD_REALS), st.floats(),
                   st.integers(-10**30, 10**30), st.sampled_from(NOT_REALS))

# Counts: every odd int above that allocates at most a few hundred
# profiles, ints beyond sys.maxsize, and what is not an int.
COUNT = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 3, 4, 7, 8, 32, 33, 2**63, 2**64, 10**20,
                     10**30, 10**400, sys.maxsize + 1, -(10**400),
                     -(10**5000)]),
    st.sampled_from(NOT_REALS), st.just(3.0))

ODD_FLOATS = [x for x in ODD_REALS if isinstance(x, float)]
_CELL = st.one_of(st.sampled_from(ODD_REALS), st.floats(0.5, 60.0),
                  st.floats())


def odd_cells(column):
    """A copy of a float64 array with one to three cells replaced by odd
    floats."""
    def replaced(cells):
        copy = column.copy()
        for i, value in cells:
            copy[i] = value
        return copy
    return st.lists(st.tuples(st.integers(0, len(column) - 1),
                              st.one_of(st.sampled_from(ODD_FLOATS),
                                        st.floats())),
                    min_size=1, max_size=3).map(replaced)


@st.composite
def profile_like(draw):
    """Ascending positive eta or a plausible phi, n = 0..40, with a few
    cells replaced by an odd value, as a list or a float64 array."""
    n = draw(st.integers(0, 40))
    lo = draw(st.floats(-2.0, 12.0))
    column = np.exp(np.linspace(lo, lo + draw(st.floats(0.0, 10.0)), n))
    for i, value in draw(st.lists(st.tuples(st.integers(0, 39), _CELL),
                                  max_size=2)):
        if i < n:
            column[i] = value if isinstance(value, float) else math.nan
    return column if draw(st.booleans()) else column.tolist()


# Columns: drawn values as a list or an array, profile-like columns, and
# arguments that are not a column of numbers (text, a scalar, 2-D,
# ragged, complex, bool, object arrays).
COLUMN = st.one_of(
    st.lists(_CELL, max_size=12),
    st.lists(_CELL, max_size=12).map(np.array),
    profile_like(),
    st.lists(st.one_of(_CELL, st.sampled_from(NOT_REALS)), min_size=1,
             max_size=4),
    st.sampled_from([
        "1 2 3", "12", 5.0, None, [[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0, 2.0]],
        np.ones((2, 3)), np.array([1j, 2.0]), np.array([True, False]),
        np.array([1, 10**400], dtype=object), np.float32([1.5, 2.5, 3.5]),
        np.arange(1, 9), np.array(7.0), [10**400, 1.0]]),
)
NUMBER_OR_COLUMN = st.one_of(NUMBER, COLUMN)
PAIR = st.one_of(st.tuples(NUMBER, NUMBER), NUMBER,
                 st.lists(NUMBER, max_size=3), COLUMN)
TEXT = st.one_of(st.text(max_size=12), st.sampled_from(["a\nb", "x\x85y"]))

# Labels and other text values of a key=value line: "=", "#", outer
# whitespace, every line break ``str.splitlines`` knows (and \x1f, which
# ``str.strip`` strips but no reader splits at), non-ASCII text, and a lone
# surrogate, as a file name's undecodable byte becomes.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
LABEL = st.one_of(
    st.text(max_size=12),
    st.text(st.sampled_from(
        f" \t=#,|\x1fa1\u00e9\u03b7\U0001f600{LINE_BREAKS}"), max_size=8),
    st.sampled_from([" a b ", "a=b", "=", "#a", "a # b", "a\nb", "none",
                     "true", "\u03b7 \u00e9\u2014", "x\udcff"]))
