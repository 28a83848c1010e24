"""The one CSV format of coalsim's output: a header line, then lines of
float64 values, each cell byte for byte Python's "%.17g" of its value.  The
kernel dump's lines print their counts and exact zeros from constant words
and send only the other values down _slots's 17-digit path."""

import functools

import numpy as np


# %.17g of a float64 table in numpy.  Each cell is a slot of six 8-byte words,
# NUL where it holds nothing, and dropping the NULs leaves the CSV:
#   word 0     the sign, "0.000" (for -4 <= e < 0), the lead digit and a '.' slot
#   words 1-4  the other 16 digits, each followed by a '.' slot
#   word 5     "e+XX" or "e-XXX" in exponential notation, and ',' or '\n' last
_E_LO, _E_HI = -281, 281  # floor(log10|x|) for 1e-280 <= |x| < 1e280, give or take one
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves
_CHUNK_START = np.array([1, 5, 9, 13])  # the first digit of each chunk of words 1-4
_BLOCK_CELLS = 2048  # cells per _slots call (under 0.5 MB); dump rows group by start line // it


def _split(a):
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


def _pow10(s: int) -> tuple[float, float]:
    """10**s as hi + lo: hi correctly rounded, lo the exact rest correctly rounded."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    hi = num / den
    hnum, hden = hi.as_integer_ratio()
    return hi, (num * hden - hnum * den) / (den * hden)


def _words(texts) -> np.ndarray:
    """Each byte string NUL-padded to 8 bytes, as one uint64 word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)


@functools.cache  # on first use: a command that writes no table does not build them
def _g17_tables() -> tuple:
    es = range(_E_LO, _E_HI)
    hi, lo = np.array([_pow10(16 - e) for e in es]).T
    e = np.arange(_E_LO, _E_HI)
    fixed = (e >= -4) & (e <= 16)
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = np.zeros((10_000, 8), np.uint8)
    quads[:, ::2] = digits + ord("0")
    return (
        hi, *_split(hi), lo,
        _words(b"\0" + b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in es),
        _words((b"" if -4 <= x <= 16 else b"e%+03d" % x).ljust(7, b"\0") + b"," for x in es),
        np.where(fixed, np.where(e >= 0, e, 17), 0),  # the digit a '.' may follow
        np.where(fixed & (e >= 0), e + 1, 1),  # digits kept even when zero
        quads.view(np.uint64).ravel(),
        # a chunk's digits up to its last nonzero one; a chunk of zeros counts for none
        np.where(digits.any(axis=1), 4 - np.argmax(digits[:, ::-1] > 0, axis=1), -99),
        _words(b"\0" * 6 + b"%d" % d for d in range(10)),
        # by chunk and digits kept: the mask of the chunk's digits that print
        _words(b"\xff\xff" * r for r in range(5))[
            np.clip(np.arange(18) - _CHUNK_START[:, None], 0, 4)
        ],
        _words([b"", b"-"]),
    )


def _slots(x: np.ndarray) -> np.ndarray:
    """The six words of each value's slot in a 1-D float64 array, ',' last.

    For 1e-280 <= |x| < 1e280, e = floor(log10|x|) and the 17 digits are
    y = |x| * 10**(16 - e) rounded to an integer, with y a double-double from
    Dekker's product of |x| and 10**(16 - e) = hi + lo.  Its error is below
    1e-13, so the digits are sure when frac(y) is more than 1e-6 from 1/2,
    floor(y) >= 10**16 and y rounds below 10**17; that also catches a log10
    one off.  Zeros print directly; every other value goes through "%.17g"."""
    hi, hi_h, hi_l, lo, pre, post, dot_after, min_keep, quads, last, lead, masks, sign = (
        _g17_tables()
    )
    a = np.abs(x)
    ok = (a >= 1e-280) & (a < 1e280)
    a = np.where(ok, a, 1.0)  # the layout of e = 0, which a zero takes
    i = np.floor(np.log10(a)).astype(np.intp) - _E_LO
    p = a * hi[i]
    ah, al = _split(a)
    bh, bl = hi_h[i], hi_l[i]
    t = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo[i]
    frac = t - np.floor(t)
    # p is whole when the digits are sure: p ~ y >= 10**16 > 2**53
    y = p.astype(np.int64) + np.floor(t).astype(np.int64)
    d = y + (frac > 0.5)
    zero = x == 0.0
    sure = ok & (np.abs(frac - 0.5) > 1e-6) & (y >= 10**16) & (d < 10**17) | zero
    d[zero | ~sure] = 0  # a zero's digits are 0; the others are printed by %
    first, rest = np.divmod(d, 10**16)
    high, low = np.divmod(rest, 10**8)
    chunks = np.stack([*np.divmod(high, 10**4), *np.divmod(low, 10**4)])
    nd = np.maximum((last[chunks] + _CHUNK_START[:, None]).max(axis=0), 1)
    keep = np.maximum(nd, min_keep[i])
    words = np.empty((x.size, 6), np.uint64)
    words[:, 0] = pre[i] | lead[first] | sign[np.signbit(x).view(np.uint8)]
    words[:, 1:5] = (quads[chunks] & np.take(masks, keep, axis=1)).T
    words[:, 5] = post[i]
    text = words.view(np.uint8)
    dot = dot_after[i]
    cell = np.flatnonzero(nd > dot + 1)
    text.ravel()[cell * 48 + 7 + 2 * dot[cell]] = ord(".")
    for c in np.flatnonzero(~sure).tolist():
        s = b"%.17g" % x[c]
        text[c, :47] = 0
        text[c, : len(s)] = np.frombuffer(s, np.uint8)
    return words


def _g17(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float64 block, byte for byte those of "%.17g"."""
    cols = block.shape[1]
    text = _slots(block.ravel()).view(np.uint8)
    text[cols - 1 :: cols, 47] = ord("\n")
    return text.tobytes().translate(None, b"\0")  # 5x faster than a != 0 mask


# the word of "%d," for 0..size-1, which is "%.17g" of a whole float: counts below 10**7
_count_words = functools.cache(lambda size: _words(b"%d," % c for c in range(size)))


def write_csv(path, header: list[str], blocks) -> None:
    """Write a header line, then the lines of each 2-D float64 block in turn,
    formatted by _g17 at most about _BLOCK_CELLS cells at a time."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            step = max(_BLOCK_CELLS // block.shape[1], 1)
            for start in range(0, len(block), step):
                fh.write(_g17(block[start : start + step]))


def write_triangle(path, header: list[str], bands) -> None:
    """Write a header line, then the lines "k,b,v" of b = 1..k for k = 1..n,
    where row k's band in the list bands is (lo, band): v = band[b - lo] inside
    it, 0 outside.  Rows go in groups, by the _BLOCK_CELLS lines they start in,
    of eight words a line: those of k and b, then "0\n" and five NULs for an
    exact 0.0 or v's slot, so only nonzero band values take _slots's path."""
    counts = _count_words(1 << len(bands).bit_length())
    k = np.arange(1, len(bands) + 1)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for ks in np.split(k, np.flatnonzero(np.diff(k * (k - 1) // 2 // _BLOCK_CELLS)) + 1):
            starts = np.cumsum(ks) - ks
            lines = np.zeros((starts[-1] + ks[-1], 8), np.uint64)
            lines[:, 0] = np.repeat(counts[ks], ks)
            lines[:, 1] = counts[np.arange(1, len(lines) + 1) - np.repeat(starts, ks)]
            lines[:, 2] = _words([b"0\n"])[0]
            column = np.zeros(len(lines))
            for start, (lo, band) in zip(starts.tolist(), bands[ks[0] - 1 : ks[-1]]):
                first = max(lo, 1)  # count 0 is not written
                column[start + first - 1 : start + lo + band.size - 1] = band[first - lo :]
            at = np.flatnonzero(column.view(np.uint64))  # all but +0.0: -0.0 prints as -0
            for j in range(0, at.size, _BLOCK_CELLS):
                lines[at[j : j + _BLOCK_CELLS], 2:] = _slots(column[at[j : j + _BLOCK_CELLS]])
            lines.view(np.uint8)[at, 63] = ord("\n")
            fh.write(lines.tobytes().translate(None, b"\0"))
