"""The "%.9e" rendering of a float table, vectorized.

The Touchstone and CSV writers of dakit.cli format every field this way.
The kernel lives in its own module, loaded by the writers when they run,
so that the commands that write no sweep do not compile it.
"""

from __future__ import annotations


def e9_rows(table, sep: str) -> str:
    """The rows of a (rows, fields) float64 array as text, byte for byte
    sep.join("%.9e" % field for field in row) + "\n" for each row.

    The digits follow the fast path of Loitsch's "Printing floating-point
    numbers quickly and accurately" (PLDI 2010) at a fixed 10 significant
    digits. The decimal exponent is estimated from the binary one, as
    there: with |x| = f*2**b (1/2 <= f < 1), e = floor((b - 1)*log10(2))
    is floor(log10|x|) or one less. q = |x|*10**(9 - e) takes one
    correctly rounded multiply or divide by an exact power of ten
    (|9 - e| <= 22), so q is within half an ulp, 9.5e-7, of the exact
    product; if q > 1e10, e was one short and q is formed again. Unless q
    is within 1e-5 of a tie, rint(q) is then the correctly rounded
    10-digit mantissa, and a carry to 1e10 moves e up by one. Zeros (with
    their sign) and infinities are written here too. A value near a tie,
    one whose e is outside -13..31 and a NaN take "%.9e" itself.
    """
    import numpy as np

    x = np.asarray(table, dtype=np.float64)
    rows, fields = x.shape
    x = x.ravel()
    a = np.abs(x)
    inf = a == np.inf
    special = inf | (a == 0.0)
    # finite and nonzero; the rest are scaled as 1.0 and written apart
    regular = ~special & (a == a)
    a[~regular] = 1.0
    # j = 9 - e + 22 picks the factors 10**max(9 - e, 0) and 10**max(e - 9, 0),
    # both exact and one of them 1.0, so that q takes one rounding; a j
    # clipped at 0 or 44 leaves q outside [1e9, 1e10]
    tens = [float(10**i) for i in range(23)]
    up = np.array([1.0] * 22 + tens)
    down = np.array(tens[:0:-1] + [1.0] * 23)
    e = np.floor((np.frexp(a)[1] - 1) * 0.3010299956639812)
    j = np.clip(31.0 - e, 0.0, 44.0).astype(np.int64)
    q = a * up.take(j) / down.take(j)
    j -= q > 1e10
    q = a * up.take(j, mode="clip") / down.take(j, mode="clip")
    fast = regular & (q >= 1e9) & (q <= 1e10) & (np.abs(q - np.floor(q) - 0.5) > 1e-5)
    m = np.where(fast, np.rint(q), 0.0)
    carry = m == 1e10
    m[carry] = 1e9
    m = m.astype(np.int64)
    e = np.where(fast, 31 - j, 0) + carry

    # each field is 18 bytes: sign, d0, ".", d1 .. d9, "e", the exponent's
    # sign and two digits, a filler and the separator (one character); the
    # NUL bytes of an unused sign or filler drop out at the end. Digit
    # pairs come from a table of "00" .. "99", d2 .. d9 and the exponent's
    # as 2-byte words at even offsets of the field
    def split(v, d):
        high = v // d
        return high, v - high * d

    pairs = np.empty((100, 2), np.uint8)
    for column, digit in enumerate(split(np.arange(100), 10)):
        pairs[:, column] = digit + ord("0")
    pair_words = pairs.view(np.uint16).ravel()
    out = np.empty((x.size, 18), np.uint8)
    words = out.view(np.uint16)
    top, rest = split(m, 10**8)
    out[:, 0] = np.signbit(x) * ord("-")
    out[:, 1:4:2] = pairs[top]
    out[:, 2] = ord(".")
    for word, v in zip((2, 4), split(rest, 10**4)):
        high, low = split(v, 100)
        words[:, word] = pair_words[high]
        words[:, word + 1] = pair_words[low]
    out[:, 12] = ord("e")
    out[:, 13] = np.where(e < 0, ord("-"), ord("+"))
    words[:, 7] = pair_words[np.abs(e)]
    out[:, 16] = 0
    out[:, 17] = ord(sep)
    out.reshape(rows, fields, 18)[:, -1, 17] = ord("\n")
    out[inf, 1:17] = np.frombuffer(b"inf".ljust(16, b"\0"), np.uint8)
    for i in np.flatnonzero(~(fast | special)):
        text = b"%.9e" % x[i]
        out[i, :17] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out[out != 0].tobytes().decode("ascii")
