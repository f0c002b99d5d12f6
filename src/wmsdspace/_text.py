"""Row text formatted from arrays: the CLI's tables and SVG elements.

:func:`rows` returns ``template % row`` for every row of equal-length
columns, joined.  Numbers are written with integer digit arithmetic into
a ``uint8`` grid padded with ``_PAD``, which is compressed and decoded
once per block of ``_CHUNK_ROWS`` rows.  ``'%.Nf' % x`` is correctly
rounded (half-even on the binary value), so the grid matches it byte for
byte: ``rint(|x|·10^N)`` is that rounding unless the product is exactly
halfway between integers, where the sign of its rounding error, which
Dekker's two-product gives exactly, decides.  A value that is not finite
or whose product is at least 2^52 is formatted by Python's ``%``, one at
a time.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from typing import Sequence

import numpy as np

# Rows per block, so the transient grids and string lists stay bounded.
_CHUNK_ROWS = 4096

# Neither byte occurs in UTF-8 text: _PAD fills grid cells that hold no
# text, _MARK holds the place of a string field, and after decoding with
# surrogateescape it reads as _SPLIT.
_PAD, _MARK, _SPLIT = 0xFF, 0xFE, "\udcfe"
_CONVERSION = re.compile(r"%(%|s|r|d|02x|\.(\d)f)")
_LIMB = 10_000


def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte tables: four zero-padded digits of 0-9999 and the same without
    leading zeros (``_PAD`` instead; all ``_PAD`` for 0), each as one
    uint32 per value, and two hex digits of 0-255."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        digits[..., place] = ascii_digits.reshape(
            (1,) * place + (10,) + (1,) * (3 - place))
    head = digits.copy()
    head[0, ..., 0] = head[0, 0, ..., 1] = head[0, 0, 0, :, 2] = _PAD
    head[0, 0, 0, 0, 3] = _PAD
    hex_digits = np.frombuffer(b"0123456789abcdef", np.uint8)
    return (digits.view(np.uint32).ravel(), head.view(np.uint32).ravel(),
            np.column_stack([np.repeat(hex_digits, 16),
                             np.tile(hex_digits, 16)]))


_DIGITS4, _HEAD4, _HEX = _tables()


def rows(template: str, columns: Sequence) -> str:
    """``template % row`` for every row of equal-length columns, joined.

    A column is a sequence or a numpy array; a 2-D array gives one column
    per array column.  Conversions: ``%s`` (strings), ``%r`` (floats as
    ``repr(round(x, 6))``, the JSON number text), ``%d`` (integers),
    ``%02x`` (integers 0-255) and ``%.Nf`` (N from 0 to 9); ``%%`` is a
    literal ``%``.
    """
    literals, conversions = [], []
    pos, text = 0, ""
    for match in _CONVERSION.finditer(template):
        text += template[pos:match.start()]
        pos = match.end()
        if match[1] == "%":
            text += "%"
            continue
        literals.append(text)
        conversions.append(match[1] if match[2] is None else int(match[2]))
        text = ""
    literals.append(text + template[pos:])
    if "%" in _CONVERSION.sub("", template):
        raise ValueError(f"unsupported conversion in {template!r}")
    cols = []
    for col in columns:
        cols += list(col.T) if getattr(col, "ndim", 1) == 2 else [col]
    if len(cols) != len(conversions):
        raise TypeError(f"{len(conversions)} conversions, {len(cols)} columns")
    m = len(cols[0]) if cols else 0
    return "".join(_block(literals, conversions,
                          [c[a:a + _CHUNK_ROWS] for c in cols])
                   for a in range(0, m, _CHUNK_ROWS))


def _block(literals: list[str], conversions: list[str | int],
           parts: list) -> str:
    """The text of one block of rows."""
    k = len(parts[0])
    strings = [_strings(part, conv == "r")
               for conv, part in zip(conversions, parts) if conv in ("s", "r")]
    if len(strings) == len(conversions):
        # No numbers: the text around the strings is fixed, so % places
        # them without a grid.
        return (("%s".join(t.replace("%", "%%") for t in literals) * k)
                % tuple(chain.from_iterable(zip(*strings))))
    grid = [_literal(literals[0], k)]
    for conv, part, lit in zip(conversions, parts, literals[1:]):
        if conv in ("s", "r"):
            grid.append(np.full((k, 1), _MARK, np.uint8))
        elif conv == "02x":
            grid.append(_HEX[np.asarray(part)])
        else:
            grid += _number_pieces(part, None if conv == "d" else conv)
        grid.append(_literal(lit, k))
    cells = np.concatenate(grid, axis=1)
    data = cells[cells != _PAD].tobytes()
    if not strings:
        return data.decode()
    pieces = data.decode("utf-8", "surrogateescape").split(_SPLIT)
    return "".join(chain.from_iterable(
        zip(pieces, chain.from_iterable(zip(*strings))))) + pieces[-1]


def _literal(text: str, k: int) -> np.ndarray:
    """``k`` rows of the UTF-8 bytes of ``text``."""
    data = np.frombuffer(text.encode(), np.uint8)
    return np.broadcast_to(data, (k, data.size))


def _strings(part, json_floats: bool) -> list[str]:
    """The texts of a ``%s`` column, or of a ``%r`` one (``json_floats``)."""
    part = part.tolist() if isinstance(part, np.ndarray) else list(part)
    return list(map(repr, map(round, part, repeat(6)))) if json_floats \
        else part


def _limbs(k: np.ndarray, count: int) -> list[np.ndarray]:
    """Base-10^4 digits of non-negative ``k``, most significant first."""
    out = []
    for _ in range(count - 1):
        q = k // _LIMB
        out.append(k - q * _LIMB)
        k = q
    return [k] + out[::-1]


def _product_error(a: np.ndarray, b: float, p: np.ndarray) -> np.ndarray:
    """The exact ``a * b - p`` for ``p`` the rounded product and ``b`` a
    float of at most 26 significant bits, as 10^N (N <= 9) is: Dekker's
    two-product, where only ``a`` needs Veltkamp's split.  Products must
    neither overflow nor underflow."""
    c = 134217729.0 * a  # 2^27 + 1
    a_hi = c - (c - a)
    return (a_hi * b - p) + (a - a_hi) * b


def _percent(values: list, decimals: int | None) -> list[bytes]:
    """Python's ``'%.Nf' % x`` (N = ``decimals``), or ``'%d' % x``, of
    each value: the text of values the digit arithmetic does not cover."""
    if decimals is None:
        return [("%d" % x).encode() for x in values]
    return [("%.*f" % (decimals, x)).encode() for x in values]


def _number_pieces(part, decimals: int | None) -> list[np.ndarray]:
    """``'%.Nf' % x`` (N = ``decimals``), or ``'%d' % i`` when ``decimals``
    is None, of each value: one row per value across the returned
    ``_PAD``-padded grids."""
    n = decimals or 0
    if decimals is None:
        v = np.asarray(part, dtype=np.int64)
        neg = v < 0
        k = np.abs(v)
        slow = k < 0  # abs of the most negative int64 wraps
        k[slow] = 0
    else:
        v = np.asarray(part, dtype=float)
        neg = np.signbit(v)
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.abs(v)
            s = a * 10.0 ** n
            slow = ~(s < 2.0 ** 52)  # not finite, or past exact integers
            k = np.rint(s)
            tie = np.flatnonzero(s - np.floor(s) == 0.5)
        # The exact product s + err, |err| <= ulp(s)/2, cannot cross a
        # half-integer other than s, so rint(s) is correctly rounded
        # unless s is one: then the sign of err decides, and err = 0 is
        # a true tie, which rint rounds to even as '%.Nf' does.
        if tie.size:
            err = _product_error(a[tie], 10.0 ** n, s[tie])
            k[tie] = np.where(err == 0, k[tie], s[tie] + 0.5 * np.sign(err))
        k[slow] = 0
        k = k.astype(np.int64)
    rows = k.size
    pieces = []
    if slow.any():
        texts = _percent(v[slow].tolist(), decimals)
        fallback = np.full((rows, max(map(len, texts))), _PAD, np.uint8)
        for i, t in zip(np.flatnonzero(slow).tolist(), texts):
            fallback[i, :len(t)] = np.frombuffer(t, np.uint8)
        pieces.append(fallback)
        neg = neg & ~slow
    if neg.any():
        pieces.append(np.where(neg, ord("-"), _PAD).astype(np.uint8)[:, None])
    # Every row shows the last n + 1 digits of k; the digits above them
    # (the head) appear without leading zeros.
    tail_mod = 10 ** (n + 1)
    head = k // tail_mod
    top = int(head.max(initial=0))
    if top:
        width = len(str(top))
        limbs = _limbs(head, -(-width // 4))
        words = [_HEAD4[limbs[0]]]
        above = limbs[0] > 0
        for limb in limbs[1:]:
            words.append(np.where(above, _DIGITS4[limb], _HEAD4[limb]))
            above |= limb > 0
        pieces.append(np.column_stack(words).view(np.uint8)[:, -width:])
    tail = k - head * tail_mod
    tail = np.column_stack(
        [_DIGITS4[x] for x in _limbs(tail, -(-(n + 1) // 4))]
    ).view(np.uint8)[:, -(n + 1):]
    if slow.any():
        tail[slow] = _PAD
    if not n:
        return pieces + [tail]
    point = np.full((rows, 1), ord("."), np.uint8)
    point[slow] = _PAD
    return pieces + [tail[:, :1], point, tail[:, 1:]]
