"""Dense finite-dimensional operator algebra.

Matrices are plain float ndarrays; truncation levels of interest are
small (tens of rows), so everything is dense and SVD-based.  The
generalized inverse is characterized by the four Penrose identities

    X M X = X,   M X M = M,   (M X)^T = M X,   (X M)^T = X M,

and ``check_penrose`` turns that characterization into a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fracops import _freeze

__all__ = [
    "PinvResult",
    "PenroseCheck",
    "pinv",
    "check_penrose",
    "operator_norm",
    "text_lines",
    "load_matrix_csv",
    "save_matrix_csv",
]


def _check_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class PinvResult:
    """Moore-Penrose pseudoinverse, its projectors and null spaces, from one SVD.

    With M = U S V^T and r = ``rank``: ``range_proj`` = M M^+ projects
    onto the range of M, ``corange_proj`` = M^+ M onto the range of M^T;
    ``kernel`` = V[:, r:] and ``cokernel`` = U[:, r:] are orthonormal
    bases of ker M and ker M^T.  The arrays are kept and marked read-only.
    """

    pinv: np.ndarray
    rank: int
    tol_used: float
    range_proj: np.ndarray
    corange_proj: np.ndarray
    singular_values: np.ndarray
    kernel: np.ndarray
    cokernel: np.ndarray

    def __post_init__(self) -> None:
        for name in ("pinv", "range_proj", "corange_proj", "singular_values", "kernel", "cokernel"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def pinv(m: np.ndarray, tol: float = 0.0) -> PinvResult:
    """Pseudoinverse via SVD, zeroing singular values at or below tol.

    tol = 0 selects the standard rank-revealing default
    eps * max(n_rows, n_cols) * sigma_max.  The full SVD also yields the
    null-space bases, n_cols - rank and n_rows - rank columns wide.
    """
    a = _check_matrix(m)
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    u, s, vt = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    tol_used = tol if tol > 0 else np.finfo(float).eps * max(a.shape) * smax
    rank = int(np.sum(s > tol_used))
    ur = u[:, :rank]
    vr = vt[:rank].T
    x = (vr / s[:rank]) @ ur.T if rank else np.zeros((a.shape[1], a.shape[0]))
    return PinvResult(
        pinv=x,
        rank=rank,
        tol_used=float(tol_used),
        range_proj=ur @ ur.T,
        corange_proj=vr @ vr.T,
        singular_values=s,
        kernel=vt[rank:].T.copy(),
        cokernel=u[:, rank:],
    )


@dataclass(frozen=True)
class PenroseCheck:
    """Residual norms of the four Penrose identities and a verdict."""

    xmx: float
    mxm: float
    mx_sym: float
    xm_sym: float
    tol: float

    @property
    def residuals(self) -> tuple[float, float, float, float]:
        return (self.xmx, self.mxm, self.mx_sym, self.xm_sym)

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals)


def check_penrose(m: np.ndarray, x: np.ndarray, tol: float) -> PenroseCheck:
    """Evaluate || XMX - X ||, || MXM - M ||, || (MX)^T - MX ||, || (XM)^T - XM ||."""
    a = _check_matrix(m, "m")
    b = _check_matrix(x, "x")
    if a.shape != b.T.shape:
        raise ValueError(f"shape mismatch: m is {a.shape}, x is {b.shape}")
    mx = a @ b
    xm = b @ a
    return PenroseCheck(
        xmx=float(np.linalg.norm(b @ mx - b, 2)),
        mxm=float(np.linalg.norm(mx @ a - a, 2)),
        mx_sym=float(np.linalg.norm(mx.T - mx, 2)),
        xm_sym=float(np.linalg.norm(xm.T - xm, 2)),
        tol=tol,
    )


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    a = _check_matrix(m)
    return float(np.linalg.norm(a, 2))


def text_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line of a UTF-8 file.

    Lines end at LF, CRLF or CR, as in text mode, and each is decoded on
    its own: a byte that is not UTF-8 is reported by its line.  One
    leading UTF-8 byte-order mark is dropped.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    lines = []
    for i, raw in enumerate(data.splitlines(), start=1):
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            column = exc.start + 1
            raise ValueError(f"{path}:{i}: not UTF-8 text (byte 0x{raw[exc.start]:02x} at column {column})") from None
        if text:
            lines.append((i, text))
    return lines


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix from plain-text CSV with a "rows,cols" header line."""
    lines = text_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    head_no, head_text = lines[0]
    head = head_text.split(",")
    if len(head) != 2:
        raise ValueError(f"{path}:{head_no}: header must be 'rows,cols'")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"{path}:{head_no}: header must be 'rows,cols'") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}:{head_no}: header must give positive 'rows,cols', got {rows},{cols}")
    if len(lines) - 1 != rows:
        raise ValueError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    data = np.empty((rows, cols))
    for row, (i, ln) in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != cols:
            raise ValueError(f"{path}:{i}: expected {cols} entries, found {len(parts)}")
        try:
            data[row] = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: non-numeric entry") from exc
        if not np.all(np.isfinite(data[row])):
            raise ValueError(f"{path}:{i}: non-finite entry")
    return data


def save_matrix_csv(path, m: np.ndarray) -> None:
    """Write a matrix in the same header + row-major CSV format."""
    a = _check_matrix(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{a.shape[0]},{a.shape[1]}\n")
        for row in a:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
