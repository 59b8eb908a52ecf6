"""Rows of a float table as CSV text, each value as '%.17g' writes it, from
whole-array arithmetic.

A block of values is scaled to its 17-digit integers by a double-double
product (Dekker, Numer. Math. 18, 1971), whose error certifies each rounding;
the digits are laid out under %g's rules.  A value whose rounding is not
certified is formatted alone, so the text is that of format(x, '.17g').

The formatter is a module of its own because a module is compiled whole:
where no bytecode cache is written, compiling it inside cli would raise the
memory peak of every start by about 0.5 MB.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# values formatted and written per block, and per slice of a block's byte
# gather: the whole table's text is never built, a block's arrays stay near
# 300 kB (the gather's index costs 200 bytes a value), and each numpy call of
# _format_block is spread over enough values to cost little per value
BLOCK_VALUES = 2048
_GATHER_VALUES = 256
# |x| in this range takes the vector path: 10^(16 - k), its Dekker halves
# and every partial product of _scaled stay normal and finite there
_VECTOR_RANGE = (1e-200, 1e200)
# a 17-digit rounding is certified when the fraction of the scaled value lies
# this far from 1/2; the double-double's error there is below 1e-14
_TIE_MARGIN = 1e-9
# the longest '%.17g' text (-1.2345678901234567e-308) and its separator
_FIELD = 25
# the source bytes of one value (see _format_block), as little-endian words
_WORD = np.dtype("<u4")


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


@functools.cache
def _format_tables():
    """(pow10, by_exponent, digits4, zeros4, layout), built on first use.

    Row e + 201 of pow10 and by_exponent serves the decimal exponent e of a
    value in _VECTOR_RANGE, or one beyond: pow10 holds 10^(16 - e) as a
    double-double (hi, lo) and hi's Dekker halves; by_exponent the mode of
    e's field, its count of digits before the dot, and the words 'e+' or
    'e-' and of e's digits.  A mode is e + 4 for fixed notation (-4 <= e <
    17), 21 and 22 for d.ddde+XX with 2 and 3 exponent digits, and 23 for
    inf and nan.  digits4[v] is v's four ASCII digits as one word and
    zeros4[v] its trailing zeros; layout[18 mode + keep] lists the source
    byte (see _format_block) of each byte of a field that keeps keep digits."""
    hi, lo, by_exponent = [], [], []
    for e in range(-201, 203):
        if e <= 16:
            exact = 10 ** (16 - e)
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:  # 1/10^m - num/den, rounded once by int true division
            hi.append(1 / 10 ** (e - 16))
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10 ** (e - 16)) / (10 ** (e - 16) * den))
        mode = e + 4 if -4 <= e <= 16 else 21 + (abs(e) >= 100)
        by_exponent.append((mode, max(e + 1, 0) if mode < 21 else 1,
                            _word(b"e-" if e < 0 else b"e+"), _word(b"%04d" % abs(e))))
    hi = np.array(hi)
    digits4 = np.empty((10,) * 4 + (4,), np.uint8)  # digits4[a, b, c, d] = abcd
    is_zero = (np.arange(10) == 0).astype(np.int64)
    zeros4 = is_zero  # zeros4[a, b, c, d] = [d == 0] (1 + zeros4[a, b, c])
    for j in range(4):
        digits4[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
        zeros4 = is_zero * (1 + zeros4[..., None]) if j else zeros4
    layout = np.zeros((24, 18, _FIELD), np.int8)
    # (mode, digits before the dot) of fixed notation, e = -4..16, then the rest
    for (mode, before, *_), keep in itertools.product(by_exponent[197:218] + [
            (21, 1), (22, 1), (23, 1)], range(18)):
        dot = [3] if keep > before else []  # only with digits kept past it
        digits = [*range(7, 7 + before), *dot, *range(7 + before, 7 + keep)]
        if mode < 4:  # 0.000ddd
            digits = [2, 3, *[2] * (3 - mode), *range(7, 7 + keep)]
        elif mode == 23:  # inf or nan
            digits = [28, 29, 30]
        exponent = {21: [24, 25, 30, 31], 22: [24, 25, 29, 30, 31]}.get(mode, [])
        cols = [1, *digits, *exponent, 32]
        layout[mode, keep, : len(cols)] = cols
    return (np.array([hi, lo, *_split(hi)]), np.array(by_exponent),
            digits4.view(_WORD).ravel(), zeros4.ravel(), layout.reshape(-1, _FIELD))


def _split(a):
    """Dekker's split of a into halves of 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _scaled(a, row, pow10):
    """(p, q) with p + q = a 10^(16 - e), e = row - 201, within about 1e-31
    relative: p is the rounded product a*hi, q its exact error (TwoProduct)
    plus a*lo."""
    hi, lo, hh, hl = np.take(pow10, row, axis=1)
    ah, al = _split(a)
    p = a * hi
    return p, (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo


def _off_decade(p, q):
    """(up, down): where p + q >= 1e17 and where p + q < 1e16; p is a double
    at most an ulp from p + q, so q decides only when p is on the bound."""
    return (p > 1e17) | ((p == 1e17) & (q >= 0)), (p < 1e16) | ((p == 1e16) & (q < 0))


def _per_value(x: float) -> bytes:
    """One value the vector path does not certify, formatted alone."""
    return b"%.17g" % x


def _rounded(x, pow10):
    """(n, row, certified): |x| rounded to 17 significant digits as the
    integer n in [1e16, 1e17], the row of pow10 of the decimal exponent of
    its first digit, and where that rounding is certified; n is 1e16 and the
    exponent 0 where |x| lies outside _VECTOR_RANGE."""
    a = np.abs(x)
    certified = (a >= _VECTOR_RANGE[0]) & (a <= _VECTOR_RANGE[1])
    a[~certified] = 1.0
    # k: the decade of the exact value, which log10's rounding may miss
    # within an ulp of a power of ten
    k = np.floor(np.log10(a))
    k += 201
    p, q = _scaled(a, k.astype(np.intp), pow10)
    up, down = _off_decade(p, q)
    if up.any() or down.any():
        k += up
        k -= down
        p, q = _scaled(a, k.astype(np.intp), pow10)
        up, down = _off_decade(p, q)
        certified &= ~(up | down)
    whole = np.floor(q)
    frac = q - whole
    certified &= np.abs(frac - 0.5) > _TIE_MARGIN
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    top = n == 10**17  # rounded up into the next decade
    n[top] = 10**16
    k += top
    return n, k.astype(np.intp), certified


def _digits(n, digits4, zeros4):
    """(words, sig): the 17 digits of each n as five words of four ASCII
    digits (the first word holds one digit), and the count of digits up to
    the last nonzero one."""
    groups = np.empty((n.size, 5), np.int64)
    for j in range(4, 0, -1):
        rest = n // 10000
        groups[:, j] = n - rest * 10000
        n = rest
    groups[:, 0] = n
    # trailing zeros summed over the groups from the last while each is all zeros
    zeros = np.take(zeros4, groups)
    trailing = zeros[:, 0]
    for j in range(1, 5):
        trailing = zeros[:, j] + (zeros[:, j] == 4) * trailing
    return np.take(digits4, groups), 17 - trailing


def _format_block(block: np.ndarray, seps: np.ndarray) -> str:
    """The text of block's rows, each value as '%.17g' writes it and followed
    by its column's separator seps[j], a word holding ',' or a newline."""
    pow10, by_exponent, digits4, zeros4, layout = _format_tables()
    x = block.ravel()
    n, row, fast = _rounded(x, pow10)
    zero, special = x == 0, ~np.isfinite(x)
    n[zero] = 0

    # source bytes: 0 NUL, 1 sign, 2 '0', 3 '.', 4..23 the digit groups (digit
    # i at 7 + i), 24 'e', 25 the exponent's sign, 28..31 its four digits or
    # inf/nan, 32 the separator; NULs are dropped
    src = np.empty((*block.shape, 9), _WORD)
    src[:, :, 8] = seps
    src = src.reshape(-1, 9)
    src[:, 0] = np.where(np.signbit(x) & ~np.isnan(x), _word(b"\0-0."), _word(b"\0\x000."))
    src[:, 1:6], sig = _digits(n, digits4, zeros4)
    mode, lead, src[:, 6], src[:, 7] = np.take(by_exponent, row, axis=0).T
    src[special, 7] = np.where(np.isnan(x[special]), _word(b"nan\0"), _word(b"inf\0"))
    mode[special] = 23
    code = 18 * mode + np.where(sig > lead, sig, lead)  # fixed notation keeps its integer digits
    fields = np.empty((x.size, _FIELD), np.uint8)
    for start in range(0, x.size, _GATHER_VALUES):
        stop = min(x.size, start + _GATHER_VALUES)
        index = np.add(np.take(layout, code[start:stop], axis=0),
                       np.arange(36 * start, 36 * stop, 36)[:, None])
        np.take(src.view(np.uint8), index, out=fields[start:stop])
    for i in np.flatnonzero(~(fast | zero | special)):
        text = _per_value(float(x[i])) + bytes([src[i, 8]])
        fields[i] = 0
        fields[i, : len(text)] = np.frombuffer(text, np.uint8)
    return fields.tobytes().translate(None, b"\0").decode("ascii")


def write_rows(fh, table: np.ndarray) -> None:
    """Write table's rows to the text file fh, comma-separated, one line
    each, in blocks of about BLOCK_VALUES values."""
    seps = np.array([_word(b",")] * (table.shape[1] - 1) + [_word(b"\n")], _WORD)
    rows = max(1, BLOCK_VALUES // table.shape[1])
    for start in range(0, len(table), rows):
        fh.write(_format_block(table[start : start + rows], seps))
