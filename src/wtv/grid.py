"""Weighted first-order difference operators on square grids.

Images are (n, n) float64 arrays in C (row-major) order, so flattening maps
pixel (i, j) to linear index k = i*n + j.  A weight field carries one positive
multiplier per pixel and per direction; the weighted gradient applies forward
differences scaled by those multipliers, with the difference at the last
column (x) and last row (y) set to zero, i.e. replicate boundary handling.
grad_w and div_w run on that flattened layout, where the x and y
neighbours of pixel k sit at k+1 and k+n, so each term is one contiguous
slice.  Each takes an optional out= array to fill instead of allocating
its result; it must be C-contiguous with the result's shape and dtype.

div_w is the exact transpose of grad_w, so <grad_w(u), (gx, gy)> equals
<u, div_w(gx, gy)> for every input.  The weighted Laplacian is the five-point
operator -(grad_x^T grad_x + grad_y^T grad_y) = -div_w(grad_w(u)), with the
neighbour coefficients of _stencil_coeffs.  Each of its rows sums
absolutely to twice the total of those coefficients, which
laplacian_inf_norm returns as the exact infinity norm.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "WeightField",
    "unit_weights",
    "grad_w",
    "div_w",
    "laplacian_inf_norm",
    "weighted_tv",
    "write_grid",
    "read_grid",
    "write_pgm",
]


def _require_square(u: np.ndarray, name: str = "image") -> None:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {u.shape}")


def _require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


@dataclass(frozen=True)
class WeightField:
    """Per-pixel positive weights for the x and y difference directions."""

    wx: np.ndarray
    wy: np.ndarray

    def __post_init__(self):
        _require_square(self.wx, "wx")
        _require_same_shape(self.wx, self.wy)
        if not (np.all(np.isfinite(self.wx)) and np.all(np.isfinite(self.wy))):
            raise ValueError("weights must be finite")
        if not (np.all(self.wx > 0) and np.all(self.wy > 0)):
            raise ValueError("weights must be strictly positive")

    @property
    def n(self) -> int:
        return self.wx.shape[0]


def unit_weights(n: int) -> WeightField:
    """Weight field of all ones (plain anisotropic TV)."""
    return WeightField(np.ones((n, n)), np.ones((n, n)))


def _require_out(out, shape, dtype) -> np.ndarray:
    """out, or a new array; a given out must be C-contiguous of shape and dtype.

    The operators write through out.ravel(), which copies any other layout,
    so a strided out would silently keep its old values.
    """
    if out is None:
        return np.empty(shape, dtype)
    if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {dtype} array of shape {shape}")
    return out


def grad_w(u: np.ndarray, w: WeightField, out=None) -> np.ndarray:
    """Weighted forward differences of u, stacked in one (2, n, n) array.

    g[0, i, j] = wx[i, j] * (u[i, j+1] - u[i, j]) with zero in the last
    column; g[1] analogously along rows with zero in the last row.  So
    `gx, gy = grad_w(u, w)` unpacks the two fields.  Both differences run
    on the flattened image as contiguous shifts by 1 and n; the shift by 1
    also pairs each row's last pixel with the next row's first, and those
    entries are overwritten with the boundary zeros.  The result is written
    into out when given (see _require_out) and returned.
    """
    _require_same_shape(u, w.wx)
    n = u.shape[0]
    g = _require_out(out, (2, n, n), np.result_type(u, w.wx))
    f, gx, gy = u.ravel(), g[0].ravel(), g[1].ravel()
    np.subtract(f[1:], f[:-1], out=gx[:-1])
    gx[n - 1 :: n] = 0.0
    gx *= w.wx.ravel()
    np.subtract(f[n:], f[:-n], out=gy[:-n])
    gy[-n:] = 0.0
    gy *= w.wy.ravel()
    return g


def div_w(gx: np.ndarray, gy: np.ndarray, w: WeightField, out=None) -> np.ndarray:
    """Transpose of grad_w applied to a pair of difference fields.

    The last column of gx and last row of gy are ignored, matching the
    zeroed boundary differences of grad_w; with that convention the
    adjoint identity holds for arbitrary inputs.  On the flattened image
    the result is -h + (h shifted by 1) for h = wx*gx, then the same for
    wy*gy and a shift by n.  The shift by 1 adds each row's ignored last
    entry to the next row's first; that entry is -0.0 by then, which
    leaves every sum, signed zeros included, as the unshifted 2-D
    formula gives it.  The result is written into out when given (see
    _require_out) and returned; one scratch array is allocated per call.
    """
    _require_same_shape(gx, gy)
    _require_same_shape(gx, w.wx)
    n = gx.shape[0]
    o = _require_out(out, (n, n), np.result_type(gx, gy, w.wx))
    flat, t = o.ravel(), np.multiply(w.wx.ravel(), gx.ravel())
    t[n - 1 :: n] = 0.0
    np.negative(t, out=flat)
    t[n - 1 :: n] = -0.0
    flat[1:] += t[:-1]
    np.multiply(w.wy.ravel(), gy.ravel(), out=t)
    t[-n:] = 0.0
    flat -= t
    flat[n:] += t[:-n]
    return o


def _stencil_coeffs(w: WeightField):
    """Squared neighbour coefficients (east, west, south, north) per pixel.

    Boundary coefficients that would reach across the grid edge are zero,
    consistent with the zeroed boundary differences in grad_w.
    """
    ce = w.wx * w.wx
    ce[:, -1] = 0.0
    cw = np.zeros_like(ce)
    cw[:, 1:] = ce[:, :-1]
    cs = w.wy * w.wy
    cs[-1, :] = 0.0
    cn = np.zeros_like(cs)
    cn[1:, :] = cs[:-1, :]
    return ce, cw, cs, cn


def laplacian_inf_norm(w: WeightField) -> float:
    """Exact infinity norm of the weighted Laplacian.

    Each row sums absolutely to twice the total of its four neighbour
    coefficients, so the norm is the maximum of that quantity over pixels.
    """
    ce, cw, cs, cn = _stencil_coeffs(w)
    return float(2.0 * (ce + cw + cs + cn).max())


def weighted_tv(u: np.ndarray, w: WeightField) -> float:
    """Anisotropic weighted total variation: l1 norm of both difference fields."""
    gx, gy = grad_w(u, w)
    return float(np.abs(gx).sum() + np.abs(gy).sum())


# ---------------------------------------------------------------------------
# Grid file format: 8-byte magic "WTVGRID1", little-endian u32 side length,
# u8 kind (0 = real float64, 1 = complex128 stored as interleaved re/im
# float64 pairs), then the row-major payload.
# ---------------------------------------------------------------------------

_MAGIC = b"WTVGRID1"


def write_grid(path, arr: np.ndarray) -> None:
    """Write a square real or complex grid to the binary grid format."""
    _require_square(arr, "grid")
    n = arr.shape[0]
    if np.iscomplexobj(arr):
        kind = 1
        payload = np.ascontiguousarray(arr, dtype="<c16").tobytes()
    else:
        kind = 0
        payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IB", n, kind))
        fh.write(payload)


def read_grid(path) -> np.ndarray:
    """Read a grid written by write_grid; validates magic, kind and size."""
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
        if head != _MAGIC:
            raise ConfigError(f"{path}: not a grid file (bad magic {head!r})")
        header = fh.read(5)
        if len(header) < 5:
            raise ConfigError(f"{path}: file ends inside the grid header")
        n, kind = struct.unpack("<IB", header)
        if kind not in (0, 1):
            raise ConfigError(f"{path}: unknown payload kind {kind}")
        dtype = "<f8" if kind == 0 else "<c16"
        itemsize = 8 if kind == 0 else 16
        payload = fh.read()
    if len(payload) != n * n * itemsize:
        raise ConfigError(
            f"{path}: payload holds {len(payload)} bytes, expected {n * n * itemsize}"
        )
    return np.frombuffer(payload, dtype=dtype).astype(
        np.float64 if kind == 0 else np.complex128
    ).reshape(n, n)


def write_pgm(path, img: np.ndarray) -> None:
    """Write a real image as 16-bit binary PGM, clipping to [0, 1]."""
    _require_square(img, "image")
    samples = np.round(np.clip(img, 0.0, 1.0) * 65535.0).astype(">u2")
    n = img.shape[0]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n65535\n".encode("ascii"))
        fh.write(samples.tobytes())
