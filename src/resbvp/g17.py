"""``solution.csv``: t, x and the derivative trace as ``'%.17g' % v`` text, computed in numpy.

Python's ``%`` takes about 0.5 us a value at 17 digits, more than dtoa's
fast path handles; ``write_solution`` writes the same bytes two to three
times faster.  Each cell is byte for byte ``'%.17g' % v``:

- A finite v with 1e-6 < |v| < 1e16 has a decimal exponent X in
  [-6, 15] (the double 1e-6 lies below 10^-6).  The scale 10^(16-X) is
  an exact double, and Dekker's product of the Veltkamp-split factors
  gives p + e = |v| 10^(16-X) exactly (Numer. Math. 18 (1971) 224-242).
- p >= 1e16 > 2^53 is an even integer, so D = p + rint(e) is the
  product rounded half-even to an integer: the 17 digits of ``%.17g``.
- X starts as floor(log10 |v|), off by at most one.  Where D falls
  outside (10^16, 10^17), X is corrected by comparing the pair (p, e)
  exactly against 1e16 and 1e17, and only those values are multiplied
  again.  With X right, D never rounds up to 10^17: the largest double
  below each power of ten from 10^-5 to 10^16 lies 8 or more units of
  the 17th digit below it.
- The text follows C's %g at precision 17: fixed notation when
  -4 <= X < 17, else the exponent form ``e-05``/``e-06``; trailing
  zeros are dropped, and so is a bare ``.``.
- Every other value (+-0.0, |v| <= 1e-6, |v| >= 1e16, inf and nan) is
  formatted by ``'%.17g' % v``.

Each cell is laid out in fixed-width words with NUL bytes where its text
is shorter, and one ``bytearray.translate`` deletes the NULs of a block.

The CLI imports this module when it writes ``solution.csv``, not at
start-up: its tables and byte-compiling it would otherwise add about
0.5 MB to the peak RSS of every flow (perfbench cold flows, 2 vCPUs).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# The CLI is the only caller; nothing here is package API.
__all__: list[str] = []

# The most values formatted at once.  The writer's traced peak is about
# 200 bytes a value: 0.38 MB on solve-affine (1025 x 13 values), 0.44 MB
# on section4 k=4 (4097 x 3); 4096 gives no clear gain.
_BLOCK_VALUES = 2048

_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves


def _scale_table() -> np.ndarray:
    """10^(16-X) for the fast path's decimal exponents X = -6..15 (column
    X + 6): 10^1..10^22, each an exact double, and its Veltkamp halves."""
    s = np.array([float(10 ** (16 - x)) for x in range(-6, 16)])
    hi = _SPLITTER * s - (_SPLITTER * s - s)
    return np.stack((s, hi, s - hi))


_SCALES = _scale_table()


def _digit_group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per 4-digit group g = 0..9999: its four digits with a NUL after each,
    as one word; and at k * 10000 + g, for the k-th group after the leading
    digit (digits 4k+1..4k+4), the index of its last nonzero digit, 0 for
    g = 0."""
    # int16 and uint8 keep the transient memory of the build near 0.2 MB.
    g = np.arange(10000, dtype=np.int16)
    text = np.zeros((10000, 8), np.uint8)
    zeros = np.zeros(10000, np.uint8)
    for i in range(4):
        text[:, 2 * i] = g // 10 ** (3 - i) % 10 + ord("0")
        zeros += g % 10 ** (i + 1) == 0
    last = np.zeros((4, 10000), np.uint8)
    for k in range(4):
        np.subtract(4 * k + 4, zeros, out=last[k], where=g > 0)
    return text.view(np.uint64).ravel(), last.ravel()


_GROUP_TEXT, _GROUP_LAST = _digit_group_tables()


def _cell_templates() -> np.ndarray:
    """Everything of a cell's text but its digits, for each (sign, X, last).

    A cell is six 8-byte words with a NUL wherever it has no character:
    byte 0 the sign; 1-5 the "0.", "0.0", "0.00" or "0.000" of X in
    [-4, -1]; 6 + 2k digit k; 7 + 2k the slot after digit k, which holds
    the '.' after the last integer digit X (after digit 0 in exponent
    form) when a nonzero digit follows; 40-43 "e-05" or "e-06".  The
    template also holds '0' at each digit after ``last``, the last
    significant one, so that xor with the digits leaves NUL there.
    Entry sign * 374 + (X + 6) * 17 + last of row w is the entry's word w.
    """
    t = np.zeros((2, 22, 17, 48), np.uint8)
    t[1, ..., 0] = ord("-")
    for x in range(-4, 0):
        lead = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
        t[:, x + 6, :, 6 - lead.size : 6] = lead
    for x in (-6, -5):
        t[:, x + 6, 1:, 7] = ord(".")
        t[:, x + 6, :, 40:44] = np.frombuffer(b"e-%02d" % -x, np.uint8)
    for x in range(16):
        t[:, x + 6, x + 1 :, 7 + 2 * x] = ord(".")
    k = np.arange(17)
    t[..., 6:40:2] |= np.where(k > k[:, None], ord("0"), 0).astype(np.uint8)
    return t.reshape(-1, 48).view(np.uint64).T.copy()


_CELL_TEMPLATE = _cell_templates()


def _times_scale(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p + e == a * 10^(16-X) exactly, X = x - 6."""
    s, s_hi, s_lo = _SCALES.take(x, axis=1)
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * s
    e = a_hi * s_hi - p
    e += a_hi * s_lo
    e += a_lo * s_hi
    e += a_lo * s_lo
    return p, e


def _rounded_digits(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The 17 digits D of each a, as an integer; X = x - 6 is corrected in place."""
    p, e = _times_scale(a, x)
    digits = p.astype(np.int64)
    digits += np.rint(e).astype(np.int64)
    edge = np.flatnonzero((digits <= 10**16) | (digits >= 10**17))
    if edge.size:
        p, e, xe = p[edge], e[edge], x[edge]
        xe -= (p - 1e16) + e < 0
        xe += (p - 1e17) + e >= 0
        p, e = _times_scale(a[edge], xe)
        digits[edge] = p.astype(np.int64) + np.rint(e).astype(np.int64)
        x[edge] = xe
    return digits


def write_solution(path: str | Path, t: np.ndarray, x: np.ndarray, d: np.ndarray) -> None:
    """Write the nodes t, the values x and the derivative trace d, one row a
    node, as ``%.17g`` text under the header t, x_1.., dtrace_1...

    A column that holds only +0.0 is the literal ``0`` in each row, the
    text ``%.17g`` gives it, so only the other columns are formatted; a
    column with any -0.0 is formatted, since ``%.17g`` writes ``-0``.
    """
    header = ",".join(["t"] + [f"{name}_{i + 1}" for name in ("x", "dtrace") for i in range(x.shape[1])])
    # +0.0 is the one double whose bits are all zero.
    x_live, d_live = x.view(np.int64).any(axis=0), d.view(np.int64).any(axis=0)
    row = ",".join("%" if live else "0" for live in [True, *x_live, *d_live]) + "\n"
    # Words 5.. of each formatted column's cells: the exponent's 4 NULs, then
    # the text up to the next formatted cell (a separator and zero columns).
    after = [b"\0" * 4 + s.encode() for s in row.split("%")[1:]]
    words = (max(map(len, after)) + 7) // 8
    tails = np.stack([np.frombuffer(s.ljust(8 * words, b"\0"), np.uint64) for s in after])
    step = max(1, _BLOCK_VALUES // len(after))
    with Path(path).open("wb") as f:
        f.write((header + "\n").encode())
        for j in range(0, t.shape[0], step):
            rows = slice(j, j + step)
            block = np.column_stack((t[rows], x[rows, x_live], d[rows, d_live]))
            buf = bytearray(8 * block.size * (5 + words))
            cells = np.frombuffer(buf, np.uint64).reshape(block.shape[0], len(after), -1)
            cells[:, :, 5:] = tails
            _write_cells(block.ravel(), cells.reshape(block.size, -1))
            del cells  # buf cannot change size while a view holds it
            f.write(buf.translate(None, b"\0"))


def _write_cells(v: np.ndarray, cells: np.ndarray) -> None:
    """Words 0-4 of each value's cell, and its exponent into word 5."""
    a = np.abs(v)
    fast = (a > 1e-6) & (a < 1e16)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    x += 6
    np.minimum(np.maximum(x, 0, out=x), 21, out=x)
    digits = _rounded_digits(a, x)
    high = digits // 10**8
    digits -= high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    groups = [high // 10**4, None, digits // 10**4, None]
    groups[1] = high - groups[0] * 10**4
    groups[3] = digits - groups[2] * 10**4
    last = x - 6
    for k in range(4):
        np.maximum(last, _GROUP_LAST.take(groups[k] + 10000 * k), out=last)
    ident = x * 17
    ident += last
    ident += np.signbit(v) * 374
    lead += ord("0")
    np.bitwise_xor(_CELL_TEMPLATE[0].take(ident), lead.astype(np.uint64) << 48, out=cells[:, 0])
    for k in range(4):
        np.bitwise_xor(_CELL_TEMPLATE[k + 1].take(ident), _GROUP_TEXT.take(groups[k]), out=cells[:, k + 1])
    cells[:, 5] |= _CELL_TEMPLATE[5].take(ident)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.17g" % u for u in v[slow].tolist()]
        cells[slow, :5] = np.array(text, dtype="S40").view(np.uint64).reshape(-1, 5)
