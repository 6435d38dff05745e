"""Reference implementations that the tests compare the library against.

The dense assembly materialises (n^2, n^2) matrices and is deliberately
written with explicit loops, so it shares no code path with the vectorised
operators in wtv.grid.  Assembly is gated to n <= 32; beyond that the
matrices stop being a sensible debugging tool.  grad_w_2d and div_w_2d
are the weighted difference operators written on the (n, n) image with
2-D slices, the formulas the flat operators in wtv.grid must reproduce
bit for bit.  laplacian_w evaluates the five-point stencil directly, and
objective_backward is the backward subproblem's objective.
"""

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


def direct_solve(c: np.ndarray, w: WeightField, p) -> np.ndarray:
    """Dense factorisation solve of (I - p.beta*p.theta*Lap_w) X = c."""
    a = system_matrix(w, p.beta, p.theta)
    return np.linalg.solve(a, c.ravel()).reshape(c.shape)


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


def record_changes(system) -> list:
    """Norms of X_{m+1} - X_m, one per iteration of every later solve on system.

    Wraps the instance's FwsbSystem.apply.  For the fixed-point splitting
    the change X_{m+1} - X_m equals the residual c - A X_m.
    """
    changes = []
    apply = system.apply

    def recording_apply(c, x, out, tmp):
        apply(c, x, out, tmp)
        changes.append(float(np.linalg.norm(out - x)))

    system.apply = recording_apply
    return changes
