"""Reference implementations that the tests compare the library against.

The dense assembly materialises (n^2, n^2) matrices and is deliberately
written with explicit loops, so it shares no code path with the vectorised
operators in wtv.grid.  Assembly is gated to n <= 32; beyond that the
matrices stop being a sensible debugging tool.  grad_w_2d and div_w_2d
are the weighted difference operators written on the (n, n) image with
2-D slices, the formulas the flat operators in wtv.grid must reproduce
bit for bit.  laplacian_w evaluates the five-point stencil directly,
objective_backward is the backward subproblem's objective, normal_matrix
assembles a forward model's normal operator, and read_grid reads the
binary grid files that wtv.grid.write_grid writes.
"""

import struct

import numpy as np

from wtv.errors import ConfigError
from wtv.grid import WeightField, _stencil_coeffs, weighted_tv

MAX_DENSE_N = 32


def _check_gate(n: int) -> None:
    if n > MAX_DENSE_N:
        raise ConfigError(f"dense assembly is limited to n <= {MAX_DENSE_N}, got {n}")


def grad_matrices(w: WeightField):
    """Dense matrices of the weighted forward differences, row-major pixels."""
    n = w.n
    _check_gate(n)
    nn = n * n
    gx = np.zeros((nn, nn))
    gy = np.zeros((nn, nn))
    for i in range(n):
        for j in range(n):
            k = i * n + j
            if j < n - 1:
                gx[k, k + 1] += w.wx[i, j]
                gx[k, k] -= w.wx[i, j]
            if i < n - 1:
                gy[k, k + n] += w.wy[i, j]
                gy[k, k] -= w.wy[i, j]
    return gx, gy


def laplacian_matrix(w: WeightField) -> np.ndarray:
    """Dense weighted Laplacian -(Gx^T Gx + Gy^T Gy)."""
    gx, gy = grad_matrices(w)
    return -(gx.T @ gx + gy.T @ gy)


def system_matrix(w: WeightField, beta: float, theta: float) -> np.ndarray:
    """Dense backward-step system I - beta*theta*Laplacian."""
    lap = laplacian_matrix(w)
    return np.eye(lap.shape[0]) - beta * theta * lap


def direct_solve(c: np.ndarray, system) -> np.ndarray:
    """Dense factorisation solve of (I - beta*theta*Lap_w) X = c.

    w and beta*theta are those a prepared FwsbSystem or GaussSeidelSystem
    holds.
    """
    lap = laplacian_matrix(system.w)
    a = np.eye(lap.shape[0]) - system.bt * lap
    return np.linalg.solve(a, c.ravel()).reshape(c.shape)


def normal_matrix(model) -> np.ndarray:
    """Dense adjoint(apply(.)) of a forward model, one column per pixel."""
    n = model.n
    _check_gate(n)
    out = np.zeros((n * n, n * n))
    for k in range(n * n):
        e = np.zeros(n * n)
        e[k] = 1.0
        out[:, k] = model.adjoint(model.apply(e.reshape(n, n))).ravel()
    return out


def grad_w_2d(u: np.ndarray, w: WeightField) -> np.ndarray:
    """Weighted forward differences, stacked (2, n, n), zero at the far edges."""
    g = np.zeros((2, *u.shape), u.dtype)
    g[0, :, :-1] = w.wx[:, :-1] * (u[:, 1:] - u[:, :-1])
    g[1, :-1, :] = w.wy[:-1, :] * (u[1:, :] - u[:-1, :])
    return g


def div_w_2d(gx: np.ndarray, gy: np.ndarray, w: WeightField) -> np.ndarray:
    """Transpose of grad_w_2d; ignores gx's last column and gy's last row."""
    hx = w.wx * gx
    hx[:, -1] = 0.0
    hy = w.wy * gy
    hy[-1, :] = 0.0
    out = -hx
    out[:, 1:] += hx[:, :-1]
    out -= hy
    out[1:, :] += hy[:-1, :]
    return out


def laplacian_w(u: np.ndarray, w: WeightField) -> np.ndarray:
    """Weighted five-point Laplacian, evaluated directly from its stencil."""
    ce, cw, cs, cn = _stencil_coeffs(w)
    out = -(ce + cw + cs + cn) * u
    out[:, :-1] += ce[:, :-1] * u[:, 1:]
    out[:, 1:] += cw[:, 1:] * u[:, :-1]
    out[:-1, :] += cs[:-1, :] * u[1:, :]
    out[1:, :] += cn[1:, :] * u[:-1, :]
    return out


def objective_backward(
    u: np.ndarray, v: np.ndarray, w: WeightField, lam: float, beta: float
) -> float:
    """Backward subproblem objective lam*WTV(u) + ||u - v||^2 / (2 beta)."""
    quad = float(np.linalg.norm(u - v)) ** 2 / (2.0 * beta)
    return lam * weighted_tv(u, w) + quad


def read_grid(path) -> np.ndarray:
    """Read a grid written by wtv.grid.write_grid; validates magic, kind and size.

    The format: 8-byte magic "WTVGRID1", little-endian u32 side length, u8
    kind (0 = real float64, 1 = complex128 as interleaved re/im float64
    pairs), then the row-major payload.  A malformed file raises ConfigError.
    """
    magic = b"WTVGRID1"
    with open(path, "rb") as fh:
        head = fh.read(len(magic))
        if head != magic:
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


def record_changes(system) -> list:
    """Norms of X_{m+1} - X_m, one per iteration of every later solve on system.

    Wraps the instance's iterates(v, r, x0, g), the FwsbSystem protocol.
    For the relaxed fixed-point splitting the change X_{m+1} - X_m equals
    omega times the residual c - A X_m, with c = v + beta*theta*div_w(r),
    so its ratios follow the relaxed step's contraction.
    """
    changes = []
    iterates = system.iterates

    def recording_iterates(v, r, x0, g):
        prev = x0.ravel()
        for x in iterates(v, r, x0, g):
            changes.append(float(np.linalg.norm(x - prev)))
            prev = x
            yield x

    system.iterates = recording_iterates
    return changes
