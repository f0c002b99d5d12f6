"""Row text formatted from arrays: the CLI's tables and SVG elements.

:func:`pieces` yields the UTF-8 bytes of ``template % row`` for every row
of equal-length columns.  Numbers are written with integer digit
arithmetic, and strings as their UTF-8 bytes, into a ``uint8`` grid
padded with ``_PAD``; the pads, when there are any, are compressed out,
and each block of rows, sized by ``model._BLOCK_BYTES`` for 16 bytes a
column, is one piece.  ``'%.Nf' % x`` is correctly rounded (half-even on
the binary value), so the grid matches it byte for byte:
``rint(|x|·10^N)`` is that rounding unless the product is exactly halfway
between integers, where the sign of its rounding error, which Dekker's
two-product gives exactly, decides.  A value that is not finite or whose
product is at least 2^52 is formatted by Python's ``%``, one at a time.
Below that, ``repr(round(x, 6))`` is the ``%.6f`` text less the zeros that
end its decimals (one kept), as no shorter text reads back as the same
float; ``repr`` writes the values below 1e-4, which have an exponent.
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence

import numpy as np

from .model import _block_rows

# Never a byte of UTF-8 text: it fills grid cells that hold no text.
_PAD = 0xFF
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
    return b"".join(pieces(template, columns)).decode()


def pieces(template: str, columns: Sequence) -> Iterator[bytes]:
    """:func:`rows` as UTF-8 pieces of whole rows, each made when it is
    reached; the template and columns are checked before this returns."""
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
    step = _block_rows(16 * len(cols))  # a number's text and separator
    return (piece for a in range(0, m, step) for piece in _block(
        literals, conversions, [c[a:a + step] for c in cols]))


def _block(literals: list[str], conversions: list[str | int],
           parts: list) -> list[bytes]:
    """The bytes of one block of rows, in one or more pieces.  A block
    whose padded strings would take more than the budget is written as
    two halves, so one long string cannot widen every row of its block."""
    k = len(parts[0])
    encoded = {i: _utf8(p.tolist() if isinstance(p, np.ndarray) else list(p))
               for i, (conv, p) in enumerate(zip(conversions, parts))
               if conv == "s"}
    width = sum(int(sizes.max()) for _, sizes in encoded.values())
    if k > _block_rows(width):
        del encoded  # each half encodes its own strings
        half = k // 2
        return (_block(literals, conversions, [p[:half] for p in parts])
                + _block(literals, conversions, [p[half:] for p in parts]))
    cells = np.concatenate(_grid(literals, conversions, parts, encoded),
                           axis=1)
    del encoded  # the grid holds its own copy of the bytes
    # A block without pads, such as one of fixed-width numbers, needs no
    # compress pass, which costs several times the copy out.
    if cells.max(initial=0) < _PAD:
        return [cells.tobytes()]
    return [cells[cells != _PAD].tobytes()]


def _grid(literals: list[str], conversions: list[str | int], parts: list,
          encoded: dict) -> list[np.ndarray]:
    """The grids of one block, left to right; ``encoded`` holds the
    :func:`_utf8` bytes of each string column, by column index."""
    k = len(parts[0])
    grid = [_literal(literals[0], k)]
    i = 0
    while i < len(conversions):
        conv, j = conversions[i], i + 1
        if i in encoded:
            grid.append(_padded(*encoded[i]))
        else:
            # Adjacent columns of one conversion with one literal between
            # them are formatted together, as a k x (j - i) table.
            while (j < len(conversions) and conversions[j] == conv
                   and literals[j] == literals[i + 1]):
                j += 1
            grid.append(_run(conv, parts[i:j], literals[i + 1], k))
        grid.append(_literal(literals[j], k))
        i = j
    return grid


def _run(conv: str | int, parts: list, sep: str, k: int) -> np.ndarray:
    """The grid of ``len(parts)`` columns of conversion ``conv`` with
    ``sep`` between them: the values are formatted as one column of
    ``k * len(parts)`` rows, each followed by ``sep``, and every
    ``len(parts)`` of those rows are laid side by side, less the last
    ``sep``."""
    dtype = {"d": np.int64, "02x": None}.get(conv, float)
    values = np.array([np.asarray(p, dtype) for p in parts]).T.ravel()
    if conv == "02x":
        pieces = [_HEX[values]]
    else:
        pieces = _number_pieces(values, None if conv == "d" else conv)
    pieces.append(_literal(sep, values.size))
    cells = np.concatenate(pieces, axis=1).reshape(k, -1)
    return cells[:, :cells.shape[1] - len(sep.encode())]


def _literal(text: str, k: int) -> np.ndarray:
    """``k`` rows of the UTF-8 bytes of ``text``."""
    data = text.encode()
    return np.frombuffer(data * k, np.uint8).reshape(k, len(data))


def _utf8(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of the texts, joined, and the byte size of each."""
    joined = "".join(texts)
    data = np.frombuffer(joined.encode(), np.uint8)
    if data.size != len(joined):  # not ASCII: sizes in bytes, not characters
        texts = list(map(str.encode, texts))
    return data, np.fromiter(map(len, texts), np.intp, len(texts))


def _padded(data: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """One row per text of :func:`_utf8`'s bytes, padded with ``_PAD``."""
    k, width = sizes.size, sizes.max()
    # Row i is its sizes[i] bytes, then width - sizes[i] pads.
    counts = np.empty(2 * k, np.intp)
    counts[::2], counts[1::2] = sizes, width - sizes
    filled = np.repeat(np.arange(2 * k) % 2 == 0, counts)
    cells = np.full(k * width, _PAD, np.uint8)
    cells[filled] = data
    return cells.reshape(k, width)


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


def _percent(values: list, decimals: int | str | None) -> list[bytes]:
    """Python's ``'%.Nf' % x`` (N = ``decimals``), ``'%d' % x`` (None) or
    ``repr(round(x, 6))`` ("r") of each value the grid does not cover."""
    if decimals is None:
        return [("%d" % x).encode() for x in values]
    if decimals == "r":
        return [repr(round(x, 6)).encode() for x in values]
    return [("%.*f" % (decimals, x)).encode() for x in values]


def _number_pieces(part, decimals: int | str | None) -> list[np.ndarray]:
    """``'%.Nf' % x`` (N = ``decimals``), ``'%d' % i`` (None) or
    ``repr(round(x, 6))`` ("r") of each value: one row per value across
    the returned ``_PAD``-padded grids."""
    n = 6 if decimals == "r" else decimals or 0
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
        if decimals == "r":  # repr writes these with an exponent
            slow |= (k > 0) & (k < 100)
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
    if decimals == "r":  # the zeros after the first decimal that end a row
        zeros = np.logical_and.accumulate(tail[:, :1:-1] == ord("0"), axis=1)
        tail[:, 2:][zeros[:, ::-1]] = _PAD
    return pieces + [tail[:, :1], point, tail[:, 1:]]
