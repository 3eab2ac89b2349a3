"""Shortest round-trip text of float64 blocks, byte-identical to ``repr``.

`format_rows` writes a 2-D float64 block as text rows, each value exactly
as ``repr(float(v))`` writes it, in one pass of numpy array operations per
chunk of values instead of one ``repr`` call per value. It has three steps.

**Digits.** For each normal value v = c * 2**q, Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020) picks the shortest decimal
f * 10**k that reads back as v, the nearer of two such, ties to the even
one: the same digits as CPython's shortest repr. This is a port of Java's
``DoubleToDecimal.toDecimal``, including its truncated round-to-odd product
``rop`` of a 126-bit power of ten g with c * 2**h: rounding that product
exactly to odd instead picks other digits than ``repr`` for about 5 in
10 000 random doubles. numpy has no 128-bit integer, so each
64 x 64-bit product is built from 32-bit limbs, and the products for the
rounding interval's bounds add g * 2**s to the product for v instead of
multiplying again. Java's integer fast path and its ``10 * c`` subnormal
branch are not ported: the first only saves time, the second writes two
digits where ``repr`` writes one (``4.9e-324`` for ``5e-324``). f is scaled
to 17 digits, and SWAR (SIMD within a register: the digits of an 8-digit
number split inside one 64-bit word by multiply and shift) turns it into
ASCII.

**Layout.** CPython's repr writes the digits d1...dn of v = 0.d1...dn *
10**decpt as ``d1.d2...dne-XX`` or ``d1.d2...dne+XX`` when decpt <= -4 or
decpt > 16, as ``0.00d1...dn`` when decpt <= 0, and otherwise with the point
after digit decpt, padding with zeros and writing ``.0`` after an integer;
a sign goes first. Each value's text and separator fill one run of bytes in
a 32-byte cell of four little-endian words, every other byte 0: the 17
digits at bytes 6-22 with the point inserted, the prefix (sign, ``0.`` and
zeros) right before them, the exponent and separator right after. Which
bytes of the digits stay, where the point goes, the prefix and the
separator come from one table row per (decpt class, significant digits,
sign), per separator; in scientific notation the exponent, from a table by
decpt, is placed after the digits with the separator behind it.

**Output.** One boolean compress of the cells' nonzero bytes concatenates
every cell's run in order, which is the chunk's text.

Subnormal and non-finite values, which tables rarely or never hold, are
written by ``repr`` into their cells. The lookup tables are built at import,
and each separator's layout once, at its first use. Working memory is one
chunk of at most CHUNK values, whatever the block; `format_chunks` hands out
the text one chunk at a time, so a writer holds no more of it than that.

Every report CSV goes through `write_csv`: named 1-D columns, written by
``csv.writer`` with rows ended by ``\\r\\n``.
"""

from __future__ import annotations

import csv
import functools
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

# values formatted per pass of array operations: bounds working memory
# (a few dozen arrays of CHUNK words), and keeps them in cache
CHUNK = 8192

_U = np.uint64
M32 = (1 << 32) - 1
M63 = (1 << 63) - 1
C_MIN = 1 << 52
P8, P16 = 10 ** 8, 10 ** 16
TEN = np.uint64(10)
ASCII0 = 0x3030303030303030


def _flog10pow2(e: int) -> int:
    """floor(log10(2**e)), as Java's MathUtils computes it."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e: int) -> int:
    """floor(log10(3/4 * 2**e))."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e: int) -> int:
    """floor(log2(10**e))."""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    """Schubfach's g for 10**-k: with 10**-k = beta * 2**r and
    2**125 <= beta < 2**126, g = floor(beta) + 1."""
    r = _flog2pow10(-k) - 125
    if k <= 0:
        beta = 10 ** -k >> r if r >= 0 else 10 ** -k << -r
    else:
        beta = (1 << -r) // 10 ** k
    return beta + 1


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Per-exponent constants, indexed by the biased exponent field, plus
    2048 when the significand field is 0: the decimal exponent k, the shift
    h + 2 that turns c into 4c * 2**h, the shift of the lower bound's offset
    (h + 1, or h for the narrower gap below a power of 2) and the 32-bit
    limbs of g = g1 * 2**63 + g0. As in Java's DoubleToDecimal, v = c * 2**q
    with c < 2**53, and the one irregular gap is at c = 2**52 above the
    least exponent."""
    rows = []
    for zero_t in (0, 1):
        for bq in range(2048):
            bq_ = bq if 0 < bq < 2047 else 1023  # zeros and non-finite: unused
            q = bq_ - 1075
            irregular = zero_t and bq_ > 1
            k = _flog10_three_quarters_pow2(q) if irregular else _flog10pow2(q)
            h = q + _flog2pow10(-k) + 2
            g = _g(k)
            g1, g0 = g >> 63, g & M63
            rows.append((k, h + 2, h + 1 - irregular, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32))
    cols = list(zip(*rows))
    return (np.array(cols[0], np.int64),) + tuple(np.array(c, _U) for c in cols[1:])


K_OF, CP_SHIFT, LO_SHIFT, G1H, G1L, G0H, G0L = _exponent_tables()
G1, G0 = (G1H << 32) | G1L, (G0H << 32) | G0L


def _word(text: str, at: int = 0) -> int:
    """Text's bytes in a little-endian integer, from byte `at` on."""
    return int.from_bytes(text.encode("ascii"), "little") << 8 * at


def _ones(lo: int, hi: int) -> int:
    """0xFF at bytes lo..hi-1 of a little-endian integer."""
    return (1 << 8 * hi) - (1 << 8 * lo)


def _split(value: int, n: int) -> list[int]:
    """value's n little-endian 64-bit words."""
    return [(value >> 64 * i) & ((1 << 64) - 1) for i in range(n)]


BODY_AT = 6  # cell byte of the first digit; the prefix ends right before it
CD_MIN, CD_MAX = -4, 17  # decpt clipped: every scientific-notation decpt acts alike


def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """By (clipped decpt, significant digits, sign): ten words, namely the
    bytes of cell words 0-2 taken from the digits as placed, those taken
    from the digits one byte further up (past the point), and cell words
    0-3 holding the prefix and point; the cell byte where the digits end;
    and whether the row is scientific notation."""
    rows, ends, sci_rows = [], [], []
    for cd in range(CD_MIN, CD_MAX + 1):
        for n in range(18):
            for neg in (0, 1):
                sci = cd <= -4 or cd > 16
                small = not sci and cd <= 0
                # the point goes before digit p; blen bytes of digits and point
                if sci:
                    p, blen = 1, n + (n > 1)
                elif small:
                    p, blen = 17, n
                else:
                    p, blen = cd, max(n, cd + 1) + 1
                prefix = ("-" if neg else "") + ("0." + "0" * -cd if small else "")
                lo = _ones(BODY_AT, BODY_AT + min(p, blen))
                hi = _ones(BODY_AT + p + 1, BODY_AT + blen) if blen > p + 1 else 0
                fixed = _word(prefix, BODY_AT - len(prefix))
                if p < blen:
                    fixed |= _word(".", BODY_AT + p)
                rows.append(_split(lo, 3) + _split(hi, 3) + _split(fixed, 4))
                ends.append(BODY_AT + blen)
                sci_rows.append(sci)
    return np.array(rows, _U), np.array(ends, np.int64), np.array(sci_rows)


LAYOUT, BODY_END, SCI_ROW = _layout_tables()


def _separated(sep: bytes) -> np.ndarray:
    """LAYOUT with sep's bytes where the digits end, on every row but the
    scientific ones, whose exponent comes first."""
    lay = LAYOUT.copy()
    rows = np.flatnonzero(~SCI_ROW)
    end = BODY_END[rows]
    shift = ((end & 7) << 3).view(_U)
    word = _U(int.from_bytes(sep, "little"))
    lay[rows, 6 + (end >> 3)] |= word << shift
    spill = (end & 7) != 0  # a second byte may cross into the next word
    lay[rows[spill], 7 + (end[spill] >> 3)] |= word >> (64 - shift[spill])
    return lay


# scientific notation's exponent by decpt, "e-05", "e+16", ..., and its width
# in bits
DECPT_MIN, DECPT_MAX = -310, 312  # decimal point positions of normal values
_EXPS = ["e%+03d" % (d - 1) for d in range(DECPT_MIN, DECPT_MAX + 1)]
EXP_WORD = np.array([_word(e) for e in _EXPS], _U)
EXP_BITS = np.array([8 * len(e) for e in _EXPS], _U)


def _mul_hi(ah, al, bh, bl):
    """The high 64-bit word of the product of a and b, given as 32-bit limbs."""
    p01 = al * bh
    p10 = ah * bl
    mid = al * bl
    mid >>= 32
    hi = ah * bh
    hi += p01 >> 32
    hi += p10 >> 32
    p01 &= M32
    p10 &= M32
    mid += p01
    mid += p10
    mid >>= 32
    hi += mid
    return hi


def _rop(x1, y0, y1):
    """Java's truncated round-to-odd: g * cp / 2**127 with a sticky low bit,
    from x1 = hi64(g0 * cp) and y1:y0 = g1 * cp. Takes x1 and y1 over."""
    z = y0 >> 1
    z += x1
    y1 += z >> 63
    z &= M63
    z += M63
    z >>= 63
    y1 |= z
    return y1


def _digits(bits):
    """(f, k) with v = f * 10**k the shortest decimal that reads back as the
    normal value v of each bit pattern, f of 16 or 17 digits (Schubfach)."""
    t = bits & (C_MIN - 1)
    i = ((bits >> 52) & 0x7FF).view(np.int64)
    i += (t == 0) << 11
    k = np.take(K_OF, i)
    cps, ls = np.take(CP_SHIFT, i), np.take(LO_SHIFT, i)
    g1, g0 = np.take(G1, i), np.take(G0, i)
    g1h, g1l, g0h, g0l = np.take(G1H, i), np.take(G1L, i), np.take(G0H, i), np.take(G0L, i)

    cp = t | C_MIN
    cp <<= cps  # 4c * 2**h
    cph, cpl = cp >> 32, cp & M32
    x0, x1 = g0 * cp, _mul_hi(g0h, g0l, cph, cpl)
    y0, y1 = g1 * cp, _mul_hi(g1h, g1l, cph, cpl)
    # the bounds (4c + 2) * 2**h and (4c - 2) * 2**h, or (4c - 1) * 2**h for
    # an irregular gap: g times them is g * cp plus or minus g * 2**s
    cps -= 1
    d0, d1 = g0 << cps, g0 >> (64 - cps)
    xr = x1 + d1
    d0 += x0
    xr += d0 < x0
    d0, d1 = g1 << cps, g1 >> (64 - cps)
    yr = y0 + d0
    d1 += y1
    d1 += yr < y0
    vbr = _rop(xr, yr, d1)
    d0, d1 = g0 << ls, g0 >> (64 - ls)
    xl = x1 - d1
    xl -= x0 < d0
    d0, d1 = g1 << ls, g1 >> (64 - ls)
    yl = y0 - d0
    d1 = y1 - d1
    d1 -= y0 < d0
    vbl = _rop(xl, yl, d1)
    vb = _rop(x1, y0, y1)

    # u is in the rounding interval iff lower <= 4u, w iff 4w <= upper; an
    # odd c leaves the bounds out
    out = t & 1
    vbl += out
    vbr -= out
    sv = vb >> 2
    s4 = sv << 2
    # one digit fewer: at most one of u' = 10 (s // 10) and w' = u' + 10 is in
    sp10 = sv // TEN
    sp10 *= TEN
    sp40 = sp10 << 2
    upin = vbl <= sp40
    sp40 += 40
    wpin = sp40 <= vbr
    uin = vbl <= s4
    s4 += 4
    win = s4 <= vbr
    # both or neither of s and t = s + 1: the nearer to v, ties to even s
    s4 -= 2
    nearer_s = vb < s4
    nearer_s |= (vb == s4) & ((sv & 1) == 0)
    one = uin ^ win
    win &= one
    one |= nearer_s
    win |= ~one
    sv += win  # s, or t when only w is in, or when both or neither and t is nearer
    sp10 += wpin * TEN
    sp10 -= sv
    sp10 *= upin ^ wpin
    sv += sp10
    return sv, k


def _swar8(x):
    """Eight decimal digit bytes (0..9, first digit in the lowest byte) of
    each x < 10**8, by multiply-and-shift inside the word."""
    hi = x // 10000
    v = hi | ((x - hi * 10000) << 32)  # two 4-digit lanes
    q = ((v * 5243) >> 19) & 0x0000007F0000007F  # each lane // 100
    v = q | ((v - q * 100) << 16)  # four 2-digit lanes
    q = ((v * 103) >> 10) & 0x000F000F000F000F  # each lane // 10
    return q | ((v - q * 10) << 8)


def _exponent_field(w):
    """The biased float64 exponent of each digit word w: 0 for w = 0, else
    1023 + floor(log2(w)), give or take the conversion's rounding, which
    never reaches the next byte because each byte is at most 9."""
    return w.astype(np.float64).view(np.int64) >> 52


def _format_chunk(x: np.ndarray, seps: list[bytes], sep_word: np.ndarray,
                  layout: np.ndarray) -> bytes:
    """Text of the float64 rows x, each value followed by its column's
    separator (seps, and as little-endian words). `layout` stacks the
    `_separated` tables of the inner separator and of the last column's."""
    n, cols = x.size, len(seps)
    bits = x.reshape(-1).view(_U)
    exp_bits = bits & (0x7FF << 52)
    normal = (exp_bits != 0) & (exp_bits != (0x7FF << 52))
    zero = (bits << 1) == 0
    neg = (bits >> 63).view(np.int64)
    all_normal = normal.all()
    if not all_normal:
        bits = np.where(normal, bits, _U(0x3FF0000000000000))  # 1.0
    f, k = _digits(bits)

    # 17 digits: v = f * 10**(decpt - 17)
    short = f < P16
    f += (f * 9) * short
    decpt = k + 17 - short
    if not all_normal and zero.any():
        f[zero] = 0  # "0.0": the digit 0 with the point after it
        decpt[zero] = 1
    top = f // P16
    rest = f - top * P16
    a = rest // P8
    da, db = _swar8(a), _swar8(rest - a * P8)
    # significant digits: the last nonzero byte of db, else of da, else 1
    n_sig = np.maximum(np.maximum((_exponent_field(db) - 943) >> 3,
                                  (_exponent_field(da) - 1007) >> 3), 1)

    top += 0x30
    da += ASCII0
    db += ASCII0
    row = (np.clip(decpt, CD_MIN, CD_MAX) * 36 + (n_sig * 2 + neg)) - CD_MIN * 36
    row.reshape(-1, cols)[:, -1] += len(LAYOUT)
    lay = np.take(layout, row, axis=0)
    # one spare word: the last cell's exponent and separator may carry 0 past it
    flat = np.empty(4 * n + 1, _U)
    cell = flat[:-1].reshape(n, 4)
    # the digits from byte 6 on, and one byte further up: top, da, db
    cell[:, 0] = (((top << 48) | (da << 56)) & lay[:, 0]) | ((top << 56) & lay[:, 3]) | lay[:, 6]
    cell[:, 1] = (((da >> 8) | (db << 56)) & lay[:, 1]) | (da & lay[:, 4]) | lay[:, 7]
    cell[:, 2] = ((db >> 8) & lay[:, 2]) | (db & lay[:, 5]) | lay[:, 8]
    cell[:, 3] = lay[:, 9]
    flat[-1] = 0
    # scientific notation: the exponent and separator where the digits end
    # (byte 7..24), across two words
    sci = np.flatnonzero((decpt < -3) | (decpt > 16))
    if sci.size:
        d = decpt[sci] - DECPT_MIN
        tail = np.take(EXP_WORD, d) | (sep_word[sci % cols] << np.take(EXP_BITS, d))
        end = np.take(BODY_END, row[sci] % len(LAYOUT))
        shift = ((end & 7) << 3).view(_U)
        at = 4 * sci + (end >> 3)
        flat[at] |= tail << shift
        flat[at + 1] |= tail >> (64 - shift)

    cb = cell.view(np.uint8)
    if not all_normal:
        for i in np.flatnonzero(~normal & ~zero).tolist():
            text = repr(float(x.flat[i])).encode("ascii") + seps[i % cols]
            cb[i] = 0
            cb[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cb[cb != 0].tobytes()


@functools.lru_cache(maxsize=8)
def _layout(inner: bytes) -> np.ndarray:
    """The `_separated` tables of the inner separator and of the newline,
    stacked as `_format_chunk` takes them; built once per separator (the
    package writes two) and read-only, since every call shares it."""
    layout = np.concatenate([_separated(inner), _separated(b"\n")])
    layout.setflags(write=False)
    return layout


def format_chunks(block: np.ndarray, sep: str) -> Iterator[tuple[int, bytes]]:
    """`format_rows(block, sep)` chunk by chunk: (first row, text) of
    consecutive runs of whole rows, at most CHUNK values each, so a caller
    can write the text with no more of it in memory than one chunk. The
    separator is checked at the call."""
    inner = sep.encode("ascii")
    if not (0 < len(inner) <= 2 and b"\0" not in inner):
        raise ValueError(f"a separator must be 1 or 2 characters other than NUL: {sep!r}")
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = block.shape
    seps = [inner] * (cols - 1) + [b"\n"]
    sep_word = np.array([int.from_bytes(s, "little") for s in seps], _U)
    layout = _layout(inner)
    step = max(1, CHUNK // cols)
    return ((s, _format_chunk(block[s:s + step], seps, sep_word, layout))
            for s in range(0, rows, step))


def format_rows(block: np.ndarray, sep: str) -> bytes:
    """The rows of a 2-D float64 block as ASCII text: each row's values as
    ``repr`` writes them, joined by sep (one or two ASCII characters other
    than NUL), and each row ended by a newline."""
    return b"".join(text for _, text in format_chunks(block, sep))


def write_csv(path: Path | str, columns: dict[str, Sequence]) -> None:
    """Write a report: a header of the column names, then row i of every 1-D
    column, each float as ``repr`` writes it (``csv.writer`` does so), each
    integer as ``str`` does. Raises ValueError before writing unless the
    columns are 1-D and of one length."""
    arrays = [np.asarray(c) for c in columns.values()]
    if len({a.shape for a in arrays}) > 1 or any(a.ndim != 1 for a in arrays):
        raise ValueError("report columns must be 1-D and of one length: "
                         f"{[a.shape for a in arrays]}")
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(zip(*(a.tolist() for a in arrays)))
