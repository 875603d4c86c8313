"""The shortest-digit float renderer of ``profiles.format_columns``:
``repr``'s text of each value of a float64 array, without a call per value.
"""

import functools

import numpy as np

# A block bounds the renderer's temporaries: its character index alone
# takes 200 bytes a value.
_RENDER_BLOCK = 2048

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
# repr writes a value positionally when its first digit stands for 10**e10
# with e10 in this range, as d.ddde±XX otherwise.
_POSITIONAL = range(-4, 16)
# The rows of a block's alphabet: each value's 18 digits, the same with
# NUL for each of its trailing zeros, then its minus sign (or NUL), the
# point, the point after its first digit in d.ddde±XX (or NUL), the 0 of
# a positional integer's .0 (or NUL), e, the exponent's sign, its
# hundreds (or NUL), tens and units, 0 and NUL.
_DIGITS, _KEPT = range(0, 18), range(18, 36)
(_MINUS, _DOT, _E_DOT, _DOT_ZERO, _E, _EXP_SIGN, _EXP_100, _EXP_10, _EXP_1,
 _ZERO, _NUL) = range(36, 47)
_WIDTH = 24     # the longest repr: -1.2345678901234567e-308
_POW10 = np.array([10 ** i for i in range(19)], _U64)


def _template(e10) -> list:
    """The alphabet rows, in order, of ``repr``'s text of a value whose
    first digit stands for ``10 ** e10``, or, for None, of one written
    ``d.ddde±XX``, padded to ``_WIDTH`` characters.  The rows that do not
    apply to a value hold NUL."""
    if e10 is None:
        out = [_MINUS, _KEPT[0], _E_DOT, *_KEPT[1:17], _E, _EXP_SIGN,
               _EXP_100, _EXP_10, _EXP_1]
    elif e10 < 0:
        out = [_MINUS, _ZERO, _DOT, *[_ZERO] * (-e10 - 1), *_KEPT[:17]]
    else:
        out = [_MINUS, *_DIGITS[:e10 + 1], _DOT, *_KEPT[e10 + 1:17],
               _DOT_ZERO]
    return out + [_NUL] * (_WIDTH - len(out))


@functools.cache
def _templates() -> np.ndarray:
    """``_template`` of each e10 of ``_POSITIONAL``, then of None."""
    return np.array([*map(_template, _POSITIONAL), _template(None)])


@functools.cache
def _g(k: int) -> tuple:
    """g(k) = floor(10**-k / 2**r) + 1, with r such that 2**125 <=
    10**-k / 2**r < 2**126, by Python ints, split into its high and low
    63 bits g1 and g0: g1, then the low and high 32 bits of g1 and of
    g0.  Built on first use, for k = -324 to 292."""
    if k <= 0:
        n = 10 ** -k
        r = n.bit_length() - 126
        g = (n >> r if r >= 0 else n << -r) + 1
    else:
        d = 10 ** k
        g = (1 << 125 + d.bit_length()) // d + 1
    g1, g0 = g >> 63, g & (1 << 63) - 1
    return g1, g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32


def _mul_high(a_low, a_high, b_low, b_high):
    """The high 64 bits of the 128-bit products a * b of uint64 arrays
    given as 32-bit halves."""
    ll, lh, hl = a_low * b_low, a_low * b_high, a_high * b_low
    mid = (ll >> _U64(32)) + (lh & _LOW32) + (hl & _LOW32)
    return (a_high * b_high + (lh >> _U64(32)) + (hl >> _U64(32))
            + (mid >> _U64(32)))


def _shortest(bits):
    """(f, k) for the normal float64s whose bits are the uint64 array
    ``bits``: the shortest decimal f * 10**k that reads back as the value,
    of those the nearest, ties to an even f, by Schubfach (R. Giulietti,
    "The Schubfach way to render doubles", 2020), in integer arithmetic.

    A value is c * 2**q with 2**52 <= c < 2**53.  Its rounding interval
    is bounded by (c -+ 1/2) * 2**q, or (c - 1/4) * 2**q below c = 2**52,
    where the spacing of the floats halves; those bounds and the value,
    times 4 * 10**-k, are taken as round-to-odd products with ``_g(k)``
    (``rop`` in the paper).  f has at most 18 digits, k the exponent of
    its last one."""
    exponent = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64)
    fraction = bits & _U64((1 << 52) - 1)
    regular = fraction != 0
    q = exponent - 1075
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) below c = 2**52,
    # and h from floor(log2(10**-k)), by the paper's fixed-point products
    k = (q * 661971961083 - 274743187321 * ~regular) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U64)
    k_min = int(k.min())
    g = np.array([_g(i) for i in range(k_min, int(k.max()) + 1)], _U64)
    g1, g1_low, g1_high, g0_low, g0_high = np.take(
        np.ascontiguousarray(g.T), k - k_min, axis=1)
    cb = (fraction | _U64(1 << 52)) << _U64(2)
    cp = np.stack([cb - _U64(1) - regular, cb, cb + _U64(2)]) << h
    cp_low, cp_high = cp & _LOW32, cp >> _U64(32)
    z = (g1 * cp >> _U64(1)) + _mul_high(g0_low, g0_high, cp_low, cp_high)
    vbl, vb, vbr = (_mul_high(g1_low, g1_high, cp_low, cp_high)
                    + (z >> _U64(63)) | (z << _U64(1) != _U64(0)))
    odd = fraction & _U64(1)
    vbl, vbr = vbl + odd, vbr - odd
    s = vb >> _U64(2)
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = tp10 << _U64(2) <= vbr
    t = s + _U64(1)
    uin = vbl <= s << _U64(2)
    win = t << _U64(2) <= vbr
    rest = vb & _U64(3)
    nearer_s = (rest < _U64(2)) | (rest == _U64(2)) & (s & _U64(1) == 0)
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(uin != win, np.where(uin, s, t),
                          np.where(nearer_s, s, t)))
    return f, k


def _render(values) -> np.ndarray:
    """``repr``'s text of each value of the float64 array ``values``, as
    the rows of an array of ``_WIDTH`` bytes padded with NULs.

    Only integer arithmetic on the values' bits is used, so the text
    cannot depend on how numpy's floating-point loops round on the host;
    ±0, subnormals, inf and nan are rendered by ``repr`` itself.  The
    digits of ``_shortest`` and the characters around them fill each
    value's alphabet, and the template of its layout picks its characters
    from it."""
    n = len(values)
    bits = values.view(_U64)
    exponent = bits >> _U64(52) & _U64(0x7FF)
    special = (exponent == _U64(0)) | (exponent == _U64(0x7FF))
    if special.any():
        bits = np.where(special, _U64(0x3FF0000000000000), bits)   # 1.0
    f, k = _shortest(bits)
    length = np.searchsorted(_POW10, f, side="right")
    # the digits of f as 18, in two halves of 9
    halves = np.stack(divmod(f * _POW10[18 - length], _U64(10 ** 9)))
    halves = halves.astype(np.uint32)
    alphabet = np.empty((_NUL + 1, n), np.uint8)
    digits, kept = alphabet[:18], alphabet[18:36]   # _DIGITS and _KEPT
    for i in range(8, -1, -1):
        halves, digits.reshape(2, 9, n)[:, i] = divmod(halves, np.uint32(10))
    nd = 18 - np.argmax(digits[::-1] != 0, axis=0)
    digits += ord("0")
    np.multiply(digits, np.arange(18)[:, None] < nd, out=kept)
    e10 = k + length - 1
    e = np.abs(e10)
    alphabet[_MINUS] = (bits >> _U64(63)) * ord("-")
    alphabet[_DOT], alphabet[_E] = ord("."), ord("e")
    alphabet[_E_DOT] = (nd > 1) * ord(".")
    alphabet[_DOT_ZERO] = (nd <= e10 + 1) * ord("0")
    alphabet[_EXP_SIGN] = np.where(e10 < 0, ord("-"), ord("+"))
    alphabet[_EXP_100] = (e >= 100) * (e // 100 + ord("0"))
    alphabet[_EXP_10] = e // 10 % 10 + ord("0")
    alphabet[_EXP_1] = e % 10 + ord("0")
    alphabet[_ZERO], alphabet[_NUL] = ord("0"), 0
    start, stop = _POSITIONAL.start, _POSITIONAL.stop
    layout = np.where((e10 >= start) & (e10 < stop), e10 - start,
                      len(_POSITIONAL))
    index = np.take(_templates(), layout, axis=0)   # alphabet row, value
    index *= n
    index += np.arange(n)[:, None]
    text = np.take(alphabet.ravel(), index)
    for i in np.flatnonzero(special).tolist():
        chars = repr(values[i].item()).encode()
        text[i] = 0
        text[i, :len(chars)] = np.frombuffer(chars, np.uint8)
    return text
