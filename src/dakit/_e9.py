"""The "%.9e" rendering of a float table, vectorized.

The Touchstone and CSV writers of dakit.cli format every field this way.
The kernel lives in its own module, loaded by the writers when they run,
so that the commands that write no sweep do not compile it.

A field's decimal exponent is estimated from its binary exponent and
raised by one where the field reaches the float nearest the next power of
ten; the field is then scaled to its 10-digit mantissa once. Zeros and
infinities are written directly. A near-tie, a NaN and a field whose
scaled mantissa falls outside [1e9, 1e10), as every other field outside
1e-13 <= |x| < 1e32 does, are rendered by "%.9e" itself.

Each field is built as a packed 17-byte record: a sign byte, "-" or NUL,
then two little-endian 64-bit words. The first holds "d.dddddd" and the
second "ddde+xx" and the separator, so that a field's text is its record
without its NULs. Each word is the OR of two words looked up in tables of
spelled-out digits: the first four digits and the point in a table of
10000, the next three and the last three in tables of 1000, and the
exponent in one of 46. The records of the whole table then lose their
NULs in one bytes.translate over their bytes.
"""

from __future__ import annotations

import functools


def e9_rows(table, sep: str) -> str:
    """The rows of a (rows, fields) float64 array as text, byte for byte
    sep.join("%.9e" % field for field in row) + "\n" for each row.

    The digits follow the fast path of Loitsch's "Printing floating-point
    numbers quickly and accurately" (PLDI 2010) at a fixed 10 significant
    digits. The decimal exponent is estimated from the binary one, as
    there: with |x| = f*2**b (1/2 <= f < 1), e = floor((b - 1)*log10(2))
    is floor(log10|x|) or one less. One comparison steps e up where |x|
    reaches the float nearest 10**(e + 1). q = |x|*10**(9 - e) then takes
    one correctly rounded multiply or divide by an exact power of ten
    (|9 - e| <= 22), so q is within half an ulp, 9.5e-7, of the exact
    product. Unless q is within 1e-5 of a tie, rint(q) is then the
    correctly rounded 10-digit mantissa, and a carry to 1e10 moves e up by
    one. Zeros (with their sign) and infinities are written here too. A
    value near a tie, a NaN and one whose q falls outside [1e9, 1e10), as
    it does for every e outside -13..31, take "%.9e" itself: its record
    holds a marker byte, 1, which the text is split at.
    """
    import numpy as np

    lead, middle, last, exponent, up, down, k_of, ten, record_type = _tables()
    x = np.asarray(table, dtype=np.float64)
    rows, fields = x.shape
    x = x.ravel()
    a = np.abs(x)
    # NaN and the infinities run through as NaN and inf, and cast to
    # meaningless digits, which their own records replace
    with np.errstate(invalid="ignore"):
        # k = 32 - e indexes the tables, first for the estimate from the
        # biased binary exponent; a zero's is 0, which gives k = 32, e = 0
        # and, with q = 0, the digits of 0.000000000e+00
        k = k_of.take(a.view(np.int64) >> 52)
        k -= a >= ten.take(k)
        q = a * up.take(k) / down.take(k)
        r = np.rint(q)
        fast = np.abs(q - r) < 0.49999
        fast &= q >= 1e9
        fast &= q < 1e10
        carry = np.flatnonzero(r == 1e10)
        r[carry] = 1e9
        k[carry] -= 1
        m = r.astype(np.int64)
    # m = d0d1d2d3 * 10**6 + d4d5d6 * 10**3 + d7d8d9; "clip" keeps the
    # meaningless digits of the fallbacks in the tables' range
    high = m // 1000000
    m -= high * 1000000
    mid = m // 1000
    m -= mid * 1000
    w0 = lead.take(high, mode="clip") | middle.take(mid, mode="clip")
    w1 = last.take(m, mode="clip") | (exponent | np.uint64(ord(sep) << 56)).take(k)
    w1.reshape(rows, fields)[:, -1] ^= np.uint64((ord(sep) ^ ord("\n")) << 56)
    sign = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    others = np.flatnonzero(~fast)
    # zeros keep the digits they have; infinities and fallbacks keep only
    # their separator
    magnitude = a[others]
    inf = others[magnitude == np.inf]
    slow = others[(magnitude != 0.0) & (magnitude != np.inf)]
    separator = np.uint64(0xFF << 56)
    w0[inf] = int.from_bytes(b"inf", "little")
    w1[inf] &= separator
    sign[slow] = 1
    w0[slow] = 0
    w1[slow] &= separator
    record = np.empty(x.size, record_type)
    record["sign"] = sign
    record["w0"] = w0
    record["w1"] = w1
    text = record.tobytes().translate(None, b"\0")
    if slow.size:
        parts = text.split(b"\1")
        text = parts[0] + b"".join(b"%.9e" % v + p for v, p in zip(x[slow].tolist(), parts[1:]))
    return text.decode("ascii")


@functools.cache
def _tables():
    """The lookup tables of e9_rows, built on its first call, each word as
    its eight bytes, all read-only.

    lead[n] holds "d.ddd" for the four digits of n < 10000, last[n] the
    three digits of n < 1000 at bytes 0..2 and middle[n] at bytes 5..7.
    For k = 32 - e, 0 <= k <= 45, exponent[k] holds "e+xx" at bytes 3..6,
    and |x|*up[k]/down[k] is q: both factors are exact, one of them 1.0,
    so that q takes one rounding, and up[0] is NaN, so that e = 32 and
    above take the fallback. k_of[E] is k of e's estimate for the biased
    binary exponent E, clipped to 1..45 as e is to -13..31, and 32 for a
    zero. ten[k] is the float nearest 10**(e + 1). record_type is the
    packed 17-byte field.
    """
    import numpy as np

    def spelled(count, at):
        """A row of eight bytes for each n < 10**count: n's digits, first
        digit first, at the bytes at, and NULs."""
        rows = np.zeros((10,) * count + (8,), np.uint8)
        for place, byte in enumerate(at):
            shape = [1] * count
            shape[place] = 10
            rows[..., byte] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(shape)
        return rows.reshape(-1, 8)

    lead = spelled(4, (0, 2, 3, 4))
    lead[:, 1] = ord(".")
    middle = spelled(3, (5, 6, 7))
    last = spelled(3, (0, 1, 2))
    e = 32 - np.arange(46)
    exponent = spelled(2, (5, 6))[np.abs(e)]
    exponent[:, 3] = ord("e")
    exponent[:, 4] = np.where(e < 0, ord("-"), ord("+"))
    tens = [float(10**i) for i in range(23)]
    up = np.array([np.nan] + [1.0] * 23 + tens[1:])
    down = np.array([1.0] + tens[::-1] + [1.0] * 22)
    estimate = np.floor((np.arange(2048) - 1023) * 0.3010299956639812)
    k_of = np.clip(32 - estimate, 1, 45).astype(np.intp)
    k_of[0] = 32
    ten = np.array([float(10**n) if n >= 0 else 1 / 10**-n for n in range(33, -13, -1)])
    record_type = np.dtype(
        {"names": ["sign", "w0", "w1"], "formats": ["u1", "<u8", "<u8"],
         "offsets": [0, 1, 9], "itemsize": 17}
    )
    words = [table.view("<u8").ravel() for table in (lead, middle, last, exponent)]
    tables = *words, up, down, k_of, ten
    for table in tables:
        table.flags.writeable = False
    return *tables, record_type
