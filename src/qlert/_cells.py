"""Exact decimal text of numpy arrays, as fixed-width byte cells.

One kernel formats every number qlert writes in bulk: the CSV cells of
``cli`` (``str`` of each integer, ``repr`` of each float) and the pixel
coordinates of ``render``'s mesh views (``"%.6g" % x``). For ``repr`` a
float64 is scaled by a double-double power of ten with an error-free
product (``_scaled``) and its digits are read from the 17-digit integer
part; for ``%.6g`` it is scaled to six integer digits by an exact power
of ten, and a rounding that lands on a half-way point is settled by the
product's exact error (``_product_error``). Whole-array table lookups
lay the digits out into rows of bytes padded with ``_PAD``; a block of
rows becomes text by removing every copy of that byte once. The few
values the filters cannot certify (zeros, non-finite values,
magnitudes outside the tables, and for ``repr`` the values within
``_MARGIN`` of a rounding decision) go to ``repr`` or to ``%`` itself,
so every cell equals what the per-value formatter prints.

The tables are built on first use and kept for the process.
"""

import functools
from types import SimpleNamespace

import numpy as np

#: CSV rows formatted per block; bounds the transient byte matrices.
_CSV_BLOCK = 2048

#: Pads every cell to its column's fixed width. UTF-8 text never holds
#: this byte, so each block is written with every copy removed.
_PAD = 0xFF
_PAD_BYTE = bytes([_PAD])

# The float filter takes 10**j <= |x| < 10**(j+1) for _J_LO <= j < _J_HI,
# the widest range in which none of its products or Veltkamp splits
# overflows and every tail of a power of ten stays normal.
_J_LO, _J_HI = -283, 299
#: Bytes per ``_g6_cells`` cell.
_G6_WIDTH = 24
#: Veltkamp's splitter for float64: 2**27 + 1.
_SPLIT = 134217729.0
#: Half-width of the band around a rounding tie or an interval bound in
#: which a filter's own arithmetic decides nothing. Its error is below
#: 1e-13 on the scale of the 17th digit of ``_scaled``.
_MARGIN = 2.0 ** -30


def _pow10_table(lo, hi):
    """10**n for lo <= n <= hi as two doubles each: the nearest double
    and the nearest double to what it misses."""
    head, tail = [], []
    for n in range(lo, hi + 1):
        if n >= 0:
            exact = 10 ** n
            h = float(exact)
            t = float(exact - int(h))
        else:
            den = 10 ** -n
            h = 1 / den
            num, two = h.as_integer_ratio()
            t = (two - num * den) / (two * den)
        head.append(h)
        tail.append(t)
    return np.array(head), np.array(tail)


def _words(rows):
    """Rows of 8 bytes as one uint64 each."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint64)[:, 0]


@functools.cache
def _tables():
    """The lookup tables of the cell formatters, built on first use."""
    # row v: the four digits of v
    digits = 48 + np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()
    trailing = np.zeros(10_000, np.uint8)  # trailing zeros of the four
    for step in (10, 100, 1000, 10_000):
        trailing[::step] += 1
    # Float cell bytes 8-23 hold digits 2-17; row keep pads the digits
    # from keep + 1 on.
    cut = np.where(np.arange(2, 18) > np.arange(18)[:, None], _PAD, 0)
    # A point among digits 2-17: row point lays out the 16 digits and a
    # point after digit point (column 16 of the source) in 17 bytes.
    place = np.arange(17) - (np.arange(17) >= np.arange(17)[:, None] - 1)
    place[np.arange(2, 17), np.arange(1, 16)] = 16
    # Float cell bytes 0-7, row ((minus * 5 + zeros) * 10 + d) * 2 + dot:
    # the sign, "0." and zeros - 1 zeros when zeros > 0, the first digit
    # d, and the point after it when dot. Its rows at d = 0 without the
    # dot, byte 6 padded, are the %.6g cell's bytes 0-7, row minus * 5 +
    # zeros.
    minus, zeros, d, dot = np.unravel_index(np.arange(200), (2, 5, 10, 2))
    head = np.full((200, 8), _PAD, np.uint8)
    head[minus == 1, 0] = 45
    head[:, 1:6] = np.where(zeros[:, None] > (0, 0, 1, 2, 3),
                            (48, 46, 48, 48, 48), _PAD)
    head[:, 6] = 48 + d
    head[dot == 1, 7] = 46
    prefix = head[(d == 0) & (dot == 0)].copy()
    prefix[:, 6] = _PAD
    # Float cell bytes 24-31 and %.6g cell bytes 16-23, row exponent +
    # 400: "e-05", "e+100"; the last row is all pads.
    power = np.abs(np.arange(-400, 400))
    tail = np.full((801, 8), _PAD, np.uint8)
    tail[:-1, :2] = (101, 45)
    tail[400:-1, 1] = 43
    tail[:-1, 2:5] = digits[power, 1:]
    tail[:-1, 2][power < 100] = _PAD
    # %.6g cell bytes 8-15 hold its six digits, with a point after digit
    # point when point > 0: row point * 1000 + v of `upper` places the
    # digits of v as digits 1-3, of `lower` as digits 4-6, and row
    # point * 7 + keep of `blank` adds the point and pads the bytes of
    # the digits from keep + 1 on and the unused ones.
    at = np.arange(6) + (np.arange(6) >= np.arange(6)[:, None])
    at[0] = np.arange(6)
    upper = np.zeros((6, 1000, 8), np.uint8)
    lower = np.zeros((6, 1000, 8), np.uint8)
    blank = np.full((6, 7, 8), _PAD, np.uint8)
    for point in range(6):
        upper[point][:, at[point, :3]] = digits[:1000, 1:]
        lower[point][:, at[point, 3:]] = digits[:1000, 1:]
        for keep in range(7):
            blank[point, keep, at[point, :keep]] = 0
        if point:
            blank[point, :, point] = 46
    # digits of a %.6g value 1000 * hi + lo left by its trailing zeros:
    # the greater of the two lookups
    shown = 3 - trailing[:1000].astype(np.int8)  # of hi, 100 <= hi < 1000
    shown_lo = np.where(np.arange(1000) > 0, 3 + shown, 0).astype(np.int8)
    # the first and last power of ten needed: 10**(16 - j) scales |x| and
    # 10**(j+1) bounds its decade
    lo, hi = min(16 - _J_HI, _J_LO + 1), max(16 - _J_LO, _J_HI)
    p10, p10_tail = _pow10_table(lo, hi)
    return SimpleNamespace(
        digits=digits.view(np.uint32)[:, 0], trailing_zeros=trailing,
        cut=cut.astype(np.uint8).view(np.uint64), place=place,
        head=_words(head), tail=_words(tail), prefix=_words(prefix),
        upper=_words(upper.reshape(-1, 8)),
        lower=_words(lower.reshape(-1, 8)),
        blank=_words(blank.reshape(-1, 8)), shown_hi=shown,
        shown_lo=shown_lo,
        # integer cell digit slots by digit count: pads before the first
        int_pads=np.where(np.arange(20) < 20 - np.arange(21)[:, None],
                          _PAD, 0).astype(np.uint8),
        pow10_u64=np.array([10 ** n for n in range(1, 20)], np.uint64),
        # rows of 10**n from n = lowest: the nearest double, its tail, and
        # the least double >= 10**n, so that a double x >= 10**n exactly
        # when x >= ceil
        lowest=lo, p10=p10, p10_tail=p10_tail,
        ceil=np.where(p10_tail > 0, np.nextafter(p10, np.inf), p10))


def _repr_float(value):
    """The exact fallback of ``_float_cells``."""
    return repr(float(value))


def _percent_g(value):
    """The exact fallback of ``_g6_cells``."""
    return "%.6g" % float(value)


def _decades(tab, x):
    """|x|, frexp's significand and exponent of it, j with 10**j <= |x|
    < 10**(j+1), and whether |x| is normal, finite and in the tables;
    the rows that are not hold 1.5, so that every lookup stays inside."""
    a = np.abs(x)
    mant, e = np.frexp(a)
    j = (e - 1).astype(np.int64)
    j *= 78913
    j >>= 18  # floor(log10(2**(e-1))), exact for |e| < 1200
    fast = (a >= 2.0 ** -1022) & (a < np.inf)
    fast &= (j >= _J_LO) & (j < _J_HI)
    if not fast.all():
        a[~fast], e[~fast], j[~fast] = 1.5, 1, 0
    j += a >= tab.ceil[j + 1 - tab.lowest]  # now 10**j <= a < 10**(j+1)
    return a, mant, e, j, fast


def _product_error(a, b, p):
    """a * b - p exactly, for p the rounded product a * b: Dekker's
    TwoProduct over Veltkamp splits, exact while nothing overflows and
    no partial product is subnormal."""
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    bh = b * _SPLIT
    bh -= bh - b
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled(tab, a, j):
    """y = a * 10**(16 - j) as big + r, big an int64 and r in [0, 1),
    and the double-double 10**(16 - j) it used.

    10**j <= a < 10**(j+1), so y lies in [1e16, 1e17). The product with
    the double-double power of ten is error-free up to its tail, and
    y >= 1e16 > 2**53 makes its rounded part an integer."""
    i = 16 - tab.lowest - j
    ph, pl = tab.p10[i], tab.p10_tail[i]
    p = a * ph
    t = _product_error(a, ph, p)
    t += a * pl
    f = np.floor(t)
    t -= f
    big = p.astype(np.int64)
    big += f.astype(np.int64)
    return big, t, ph, pl


def _nearest(rem, r, s, half_hi, half_lo):
    """Round y = q * s + rem + r to a multiple of s: whether it rounds
    up, whether that is a tie, and whether the rounded value lies inside
    or outside a's rounding interval. A decision within ``_MARGIN`` of
    its boundary is a tie, or neither inside nor outside."""
    d = (rem - s / 2) + r
    up = d > 0
    g = np.abs((rem - s * up) + r)
    g -= half_hi
    g -= half_lo
    return up, np.abs(d) <= _MARGIN, g < -_MARGIN, g > _MARGIN


def _shortest(big, r, half_hi, half_lo):
    """The shortest digits of y = big + r that read back as a, as repr
    picks them: y rounded to 15, 16 or 17 digits as the 17-digit integer
    v, its digit count when 16 or 17, whether it is the 15-digit
    rounding, and the rows the filter leaves undecided.

    Only one 15-digit decimal fits in a's rounding interval, so it is
    the nearest if any is. Of the 16-digit ones inside, repr takes the
    nearest, and the nearest 17-digit one is always inside."""
    rem100 = big % 100
    rem10 = rem100 % 10
    up15, _, in15, out15 = _nearest(rem100, r, 100, half_hi, half_lo)
    up16, tie16, in16, out16 = _nearest(rem10, r, 10, half_hi, half_lo)
    use16 = out15 & in16
    use17 = out15 & out16
    unsure = ~(in15 | out15) | out15 & (tie16 | ~(in16 | out16))
    unsure |= use17 & (np.abs(r - 0.5) <= _MARGIN)
    v = big - in15 * (rem100 - 100 * up15)
    v -= use16 * (rem10 - 10 * up16)
    v += use17 & (r > 0.5)
    return v, 15 + out15 + use17, in15, unsure


def _fallback(cells, x, rows, fmt):
    """Rows ``rows`` of ``cells`` as ``fmt`` of each value of x."""
    if len(rows):
        width = cells.shape[1]
        text = b"".join(fmt(v).encode().ljust(width, _PAD_BYTE)
                        for v in x[rows].tolist())
        cells[rows] = np.frombuffer(text, np.uint8).reshape(-1, width)


def _float_cells(x):
    """``repr`` of each value of float64 array x, as (len(x), 32) bytes
    padded with ``_PAD``; byte 31 is left for a separator.

    ``_scaled`` and ``_shortest`` find the digits, and whole-array table
    lookups lay them out as repr does: positional when the rounded
    magnitude lies in [1e-4, 1e16), else scientific. Digits 2-17 take
    bytes 8-23 in a row, and only a value whose point falls after one of
    them shifts the rest one byte right into its empty exponent bytes.
    Zero, subnormals, non-finite values, power-of-two significands
    (whose rounding interval is lopsided), magnitudes outside the table
    and the rows the filter leaves undecided take ``_repr_float``."""
    tab = _tables()
    m = len(x)
    a, mant, e, j, fast = _decades(tab, x)
    fast &= mant != 0.5
    big, r, ph, pl = _scaled(tab, a, j)
    e -= 54  # half an ulp of a on the scale of y
    v, ndig, in15, unsure = _shortest(big, r, np.ldexp(ph, e),
                                      np.ldexp(pl, e))
    over = v == 10 ** 17  # rounded up to the next power of ten
    v -= over * (9 * 10 ** 16)
    point = j + 1 + over  # a = 0.d1d2... * 10**point
    hi = v // 10 ** 8
    lo = (v - hi * 10 ** 8).astype(np.int32)
    hi = hi.astype(np.int32)
    d1 = hi // 10 ** 8  # the first digit
    hi -= d1 * 10 ** 8
    groups = np.empty((m, 4), np.intp)  # digits 2-5, 6-9, 10-13, 14-17
    groups[:, 0] = hi // 10 ** 4
    groups[:, 1] = hi % 10 ** 4
    groups[:, 2] = lo // 10 ** 4
    groups[:, 3] = lo % 10 ** 4
    rows = np.flatnonzero(in15)  # only a 15-digit pick has trailing zeros
    if len(rows):
        g = groups[rows]
        z = tab.trailing_zeros[g]
        tz = z[:, 3] + (g[:, 3] == 0) * (z[:, 2] + (g[:, 2] == 0) * (
            z[:, 1] + (g[:, 1] == 0) * z[:, 0]))
        ndig[rows] = 17 - tz
    sci = (point <= -4) | (point > 16)
    below = ~sci & (point <= 0)  # "0." and -point zeros before the digits
    inside = ~sci & (point > 0)  # the point after digit `point`
    # digits shown: an integer part's zeros and one after the point
    keep = ndig + inside * np.maximum(point + 1 - ndig, 0)
    head = d1 * 2
    head += sci & (ndig > 1) | inside & (point == 1)
    head += below * (20 - 20 * point)
    head += (x < 0) * 100
    words = np.empty((m, 4), np.uint64)
    words[:, 0] = tab.head[head]
    np.bitwise_or(tab.digits[groups].view(np.uint64), tab.cut[keep],
                  out=words[:, 1:3])
    words[:, 3] = tab.tail[sci * (point - 401) + 800]
    cells = words.view(np.uint8)
    rows = np.flatnonzero(inside & (point > 1))
    if len(rows):
        moved = np.empty((len(rows), 17), np.uint8)
        moved[:, :16] = cells[rows, 8:24]
        moved[:, 16] = 46
        cells[rows, 8:25] = np.take_along_axis(
            moved, tab.place[point[rows]], axis=1)
    _fallback(cells, x, np.flatnonzero(~fast | unsure), _repr_float)
    return cells


def _g6_cells(x):
    """``"%.6g" % v`` of each value v of float64 array x, as (len(x),
    ``_G6_WIDTH``) bytes padded with ``_PAD``; the last byte is left for
    a separator.

    With 10**j <= |v| < 10**(j+1), y = |v| * 10**(5 - j) lies in
    [1e5, 1e6], and where -17 <= j <= 5 the power of ten is a double, so
    y is the exact product rounded once. As that rounding is monotone
    and every q + 0.5 is a double, y's fraction lies on the side of 0.5
    that the exact product's does unless it is 0.5; a fraction within
    ``_MARGIN`` of 0.5 is decided by the product's exact rounding error
    (``_product_error``), and an exact tie goes to the even digit, as
    ``%`` rounds it. y rounded to an integer gives the six digits, which
    lose their trailing zeros and are laid out as %g does: positional
    when the rounded value's exponent lies in [-4, 6), else scientific.
    Bytes 0-7 hold the sign and the "0.000" before a positional value
    below 1, bytes 8-15 the digits and the point, bytes 16-23 the
    exponent. Zero, subnormals, non-finite values and magnitudes outside
    [1e-17, 1e6) take ``_percent_g``."""
    tab = _tables()
    a, _, _, j, fast = _decades(tab, x)
    fast &= (j >= -17) & (j <= 5)
    if not fast.all():
        a[~fast], j[~fast] = 1.5, 0
    p = tab.p10[5 - tab.lowest - j]
    y = a * p
    six = np.floor(y)
    half = y - six  # exact: the fraction of y
    half -= 0.5
    up = half > 0
    near = np.flatnonzero(np.abs(half) < _MARGIN)
    if len(near):
        d = half[near] + _product_error(a[near], p[near], y[near])
        up[near] = (d > 0) | (d == 0) & (six[near] % 2 == 1)
    six = six.astype(np.int64)
    six += up
    over = six == 10 ** 6  # rounded up to the next power of ten
    six -= over * (9 * 10 ** 5)
    exp = j + over
    hi = six // 1000
    lo = six - 1000 * hi
    shown = np.maximum(tab.shown_hi[hi], tab.shown_lo[lo])
    sci = (exp < -4) | (exp > 5)
    lead = np.where(sci, 1, exp + 1)  # digits before the point
    point = np.where(shown > lead, lead, 0)
    point *= lead > 0
    words = np.empty((len(x), _G6_WIDTH // 8), np.uint64)
    words[:, 0] = tab.prefix[(x < 0) * 5 + np.maximum(1 - lead, 0)]
    np.bitwise_or(tab.upper[point * 1000 + hi], tab.lower[point * 1000 + lo],
                  out=words[:, 1])
    # a positional value keeps the zeros of its integer part
    words[:, 1] |= tab.blank[point * 7 + np.maximum(shown, lead)]
    words[:, 2] = tab.tail[np.where(sci, exp + 400, 800)]
    cells = words.view(np.uint8)
    _fallback(cells, x, np.flatnonzero(~fast), _percent_g)
    return cells


def _int_cells(column):
    """``str`` of each integer as (n, 22) bytes: the sign, 20 digit
    slots padded before the first digit, and a separator slot."""
    tab = _tables()
    mag = column.astype(np.uint64)
    neg = column < 0
    np.negative(mag, out=mag, where=neg)
    count = np.searchsorted(tab.pow10_u64, mag, side="right")
    groups = np.empty((len(mag), 5), np.intp)
    for col in range(4, 0, -1):
        mag, groups[:, col] = np.divmod(mag, 10_000)
    groups[:, 0] = mag
    cells = np.full((len(mag), 22), _PAD, np.uint8)
    cells[neg, 0] = 45
    cells[:, 1:21] = tab.digits[groups].view(np.uint8)
    cells[:, 1:21] |= tab.int_pads.take(count + 1, axis=0)
    return cells


def _str_cells(column):
    """Each string's UTF-8 bytes, padded to the longest plus a
    separator slot."""
    text = [s.encode() for s in column.tolist()]
    width = max(map(len, text)) + 1
    return np.frombuffer(b"".join(t.ljust(width, _PAD_BYTE) for t in text),
                         np.uint8).reshape(len(text), width)


def _csv_block(columns):
    """The bytes of one block of CSV rows. Every cell is formatted into
    a fixed-width byte matrix, the floats of all columns by one
    ``_float_cells`` call; the separators go into each cell's last
    byte, and the padding is removed once."""
    floats = [c for c in columns if c.dtype.kind == "f"]
    if floats:
        text = _float_cells(np.concatenate(floats, dtype=np.float64))
        floats = iter(np.split(text, len(floats)))
    cells = [next(floats) if c.dtype.kind == "f"
             else _int_cells(c) if c.dtype.kind in "iu" else _str_cells(c)
             for c in columns]
    out = np.concatenate(cells, axis=1)
    out[:, np.cumsum([c.shape[1] for c in cells]) - 1] = 44
    out[:, -1] = 10
    return out.tobytes().translate(None, _PAD_BYTE)
