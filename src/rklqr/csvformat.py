"""CSV lines of float arrays, byte for byte those of ``"%.17g" % v``, made by numpy.

For a double v with 1e-28 <= |v| < 1e16, ``%.17g`` prints its correctly
rounded 17 significant digits D = round-half-even(|v| 10^q), 10^16 <= D <
10^17, at the decimal exponent X = 16 - q, in one of three layouts:
``[-]ddd[.ddd]`` for 0 <= X <= 15, ``[-]0.000ddd`` for -4 <= X < 0 and
``[-]d[.ddd]e-XX`` below, with the trailing zeros of the fraction dropped.
``format_rows`` finds D and X for whole arrays:

- X comes from log2 |v| log10(2), which misjudges it beside powers of ten,
  so a value whose D is at most 10^16 or at least 10^17 is left to ``%``:
  5-9 values of a bench trajectory table, all of them powers of ten.
- |v| 10^q is formed exactly as four doubles.  10^q is a sum of two doubles
  for q <= 46, and the product of |v| with the larger is exact as Dekker's
  product (Numer. Math. 18, 1971), two doubles from Veltkamp halves.  Only
  |v| times the smaller part rounds, so the remainder beside the integer is
  within 3e-15 of its true value.  D is taken only where that remainder is at
  least 1e-12 from a half, so it is the rounding of the exact value, as in
  CPython's correctly rounded dtoa.

D stays in doubles, split into 1, 8 and 8 digits.  Its digits come from a
table of 4-digit ASCII words and are laid out with the sign, dot, prefix and
exponent in one 32-byte field per value, whose zero bytes one compaction
drops.  Zeros print as ``0`` and ``-0``.  Non-finite and subnormal values,
values outside the range, those left by the first bullet and any whose
rounding is not certain are formatted by ``%`` one by one into their fields.
"""

from __future__ import annotations

import numpy as np


def format_rows(block) -> bytes:
    """A 2-D float block as CSV lines of ``"%.17g" % v`` values, one line per row."""
    block = np.asarray(block, dtype=float)
    rows, cols = block.shape
    v = block.reshape(-1)
    n = v.size
    zero = v == 0
    q, lead, eights, by_percent = _decimal(v)
    by_percent &= ~zero
    words = _digit_indexes(eights)
    del eights
    # field word w of every value in row w: the first digit at byte 7, the
    # other sixteen as four table words at bytes 8-23
    fields = np.zeros((4, n), "<u8")
    np.take(_LEAD_DIGIT, lead.astype(np.intp), out=fields[0], mode="clip")
    del lead
    np.take(_DIGIT_TABLE, words, out=fields[1:3].view("<u4").reshape(2, n, 2), mode="clip")
    del words
    # the digits after the dot move one byte on: keep ? word : word << 8; the
    # last always moves, as the dot fix below clears byte 24 when it is unused
    fields[3] = fields[2] >> 56
    shifted = fields[1:3] << 8
    carry = fields[:2] >> 56
    shifted |= carry
    keep = np.take(_KEEP, q, axis=1, out=carry, mode="clip")  # into carry's memory
    fields[1:3] ^= shifted
    fields[1:3] &= keep
    fields[1:3] ^= shifted
    del shifted, carry, keep
    fields |= np.take(_TEXT, q + len(_X) * np.signbit(v), axis=1, mode="clip")
    seps = fields[3].reshape(rows, cols)
    seps |= _field_words([[(_SEP_BYTE, b",")]] * (cols - 1) + [[(_SEP_BYTE, b"\n")]])[3]
    del seps
    chars = np.ascontiguousarray(fields.T).view(np.uint8)  # (n, 32)
    del fields
    dot = np.take(_DOT_BYTE, q)
    del q
    dot += np.arange(0, 32 * n, 32)
    flat = chars.reshape(-1)
    flat[dot] = np.minimum(flat[dot + 1], ord("."))  # a dot before a digit, none before NUL
    del dot
    if zero.any():
        chars[zero, 7] = ord("0")
    if by_percent.any():
        chars[by_percent, :_SEP_BYTE] = 0
        text = np.array(["%.17g" % x for x in v[by_percent].tolist()], "S24")
        chars[by_percent, :24] = text.view(np.uint8).reshape(-1, 24)
    data = chars.tobytes()
    del chars, flat
    return data.translate(None, b"\0")


def _veltkamp(a):
    """Split doubles a into heads of 26 bits and tails, a = head + tail exactly."""
    c = a * 134217729.0  # 2^27 + 1
    head = c - (c - a)
    return head, a - head


# 10^q = _POW10_HI[q] + _POW10_LO[q] exactly, q = 0..46
_POW10_HI = np.array([float(10**q) for q in range(47)])
_POW10_LO = np.array([float(10**q - int(float(10**q))) for q in range(47)])
_POW10_HEAD, _POW10_TAIL = _veltkamp(_POW10_HI)


def _decimal(v):
    """(q, lead, eights, unsure): D = round(|v| 10^q) = lead 10^16 + e[0] 10^8 + e[1].

    10^16 < D < 10^17 where not unsure, and the parts are doubles holding
    integers: lead one digit, e = eights[..., 1] eight each; eights is
    (2, n, 2), its other half free for ``_digit_indexes``.  unsure marks
    values outside 1e-28 <= |v| < 1e16 (zeros included), those whose
    rounding is not certain and those whose D at the estimated X is at most
    10^16 or at least 10^17; their q (0..46) and parts are arbitrary.
    """
    a = np.abs(v)
    unsure = ~((a >= 1e-28) & (a < 1e16))
    a[unsure] = 2.0
    q = np.log2(a)  # not log10, whose numpy code the solvers leave unmapped
    q *= -0.30102999566398120  # log10(2)
    q += 16.0
    q = np.ceil(q, out=q).astype(np.intp)
    p, t, certain = _significand(a, *_veltkamp(a), q)
    del a
    unsure |= ~certain
    # X may be misjudged where D <= 10^16 or D >= 10^17; each difference is exact near its bound
    below = 1e16 - p
    below -= t
    unsure |= below >= 0
    above = p - 1e17
    above += t
    unsure |= above >= 0
    del certain, below, above
    # D = p + t as 1, 8 and 8 digits, exactly: p / 1e8 rounds, so its floor
    # may be one off, and the carry out of the low part mends it
    eights = np.empty((2, len(p), 2))
    e = eights[..., 1]
    nine = p / 1e8
    np.floor(nine, out=nine)
    np.multiply(nine, 1e8, out=e[1])
    np.subtract(p, e[1], out=e[1])
    e[1] += t
    del p, t
    carry = e[1] / 1e8
    np.floor(carry, out=carry)
    nine += carry
    carry *= 1e8
    e[1] -= carry
    lead = np.floor(nine / 1e8, out=carry)
    np.multiply(lead, 1e8, out=e[0])
    np.subtract(nine, e[0], out=e[0])
    return q, lead, eights, unsure


def _significand(a, a_head, a_tail, q):
    """(p, t, certain): p + t = round(a 10^q) for a = a_head + a_tail, and where that is certain.

    p and t are doubles holding integers.  a 10^q = p + e + a lo exactly,
    with p = fl(a hi) and e its error by Dekker's product; p is an integer
    once a 10^q >= 2^53, and t rounds e + fl(a lo).
    """
    p = np.take(_POW10_HI, q)
    p *= a
    t = np.take(_POW10_HEAD, q)
    r = a_head * t
    r -= p
    t *= a_tail
    r += t
    np.take(_POW10_TAIL, q, out=t)
    t *= a_head
    r += t
    np.take(_POW10_TAIL, q, out=t)
    t *= a_tail
    r += t
    np.take(_POW10_LO, q, out=t)
    t *= a
    r += t
    np.rint(r, out=t)
    r -= t
    certain = np.abs(r, out=r) < 0.5 - 1e-12
    return p, t, certain


def _digit_table():
    """Words of 4 ASCII bytes, 0000..9999, then the same with trailing zeros NUL.

    Built in doubles and int64 sums, whose numpy code every solve maps.
    """
    w = np.arange(1e4)
    words = np.zeros((2, 10**4), "<i8")
    for j, scale in enumerate((1000.0, 100.0, 10.0, 1.0)):
        digit = np.floor(w / scale)
        digit -= np.floor(digit / 10.0) * 10.0
        digit += ord("0")
        words[0] += digit.astype("<i8") * 256**j
        digit *= w - np.floor(w / (10.0 * scale)) * (10.0 * scale) != 0  # this digit or a later one
        words[1] += digit.astype("<i8") * 256**j
    return np.ascontiguousarray(words.view("<u4")[:, ::2]).reshape(-1)  # the low halves


_DIGIT_TABLE = _digit_table()


def _digit_indexes(eights):
    """Digit-table indexes (2, n, 2) of the 4-digit words of the 8-digit eights[..., 1].

    A word with only zeros after it indexes its entry with trailing zeros NUL.
    """
    top, low = eights[..., 0], eights[..., 1]
    low_zero = low[1] == 0
    np.divide(low, 1e4, out=top)
    np.floor(top, out=top)
    low -= top * 1e4
    mid_zero = low[0] == 0
    top[1] += (low[1] == 0) * 1e4
    low[0] += low_zero * 1e4
    low_zero &= mid_zero
    top[0] += low_zero * 1e4
    low[1] += 1e4
    return eights.astype(np.intp)


def _field_words(placements):
    """(4, len(placements)) words of 32-byte fields holding the given (byte, text) placements."""
    out = bytearray(32 * len(placements))
    for i, row in enumerate(placements):
        for at, text in row:
            out[32 * i + at:32 * i + at + len(text)] = text
    return np.frombuffer(bytes(out), "<u8").reshape(-1, 4).T.copy()


# A value's 32-byte field: the sign at byte 0, the prefix "0." and zeros
# ending at byte 6 (-4 <= X < 0), the first digit at byte 7 and the other
# sixteen at bytes 8-23, except that those after the dot sit one byte on,
# "e-XX" at bytes 25-28 (X < -4) and the separator at _SEP_BYTE.  Per q:
# _DOT_BYTE the dot's byte (24, past the digits, when there is none), _KEEP
# the unmoved digit bytes of field words 1-2, _TEXT[:, q + 47 sign] the
# fixed characters.
_X = [16 - q for q in range(47)]
_DOT_BYTE = np.array([8 + x if x >= 0 else (8 if x < -4 else 24) for x in _X])
_SEP_BYTE = 29
_KEEP = _field_words([[(7, b"\xff" * (dot - 7))] for dot in _DOT_BYTE.tolist()])[1:3]
_LEAD_DIGIT = _field_words([[(7, b"%d" % d)] for d in range(10)])[0]
_TEXT = _field_words([[(0, sign), (8, b"0" * max(x, 0))]  # integer digits stay, zeros too
                      + ([(6 + x, b"0." + b"0" * (-x - 1))] if -4 <= x < 0 else [])
                      + ([(25, b"e-%02d" % -x)] if x < -4 else []) for sign in (b"", b"-") for x in _X])
