"""Reference implementations that the tests compare the library against.

The dense assembly materialises (n^2, n^2) matrices and is deliberately
written with explicit loops, so it shares no code path with the vectorised
operators in wtv.grid.  Assembly is gated to n <= 32; beyond that the
matrices stop being a sensible debugging tool.  grad_w_2d and div_w_2d
are the weighted difference operators written on the (n, n) image with
2-D slices, the formulas the flat operators in wtv.grid must reproduce
bit for bit.  laplacian_w evaluates the five-point stencil directly,
objective_backward is the backward subproblem's objective, normal_matrix
assembles a forward model's normal operator, gauss_seidel_step is one
dense lexicographic Gauss-Seidel sweep, residual_form_wsb is the
split-Bregman loop in its textbook residual form on dense matrices,
read_grid reads the binary grid files that wtv.grid.write_grid writes,
and benchmark_literal reads a constant of the benchmark's own files.
"""

import ast
import struct
from pathlib import Path

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


def gauss_seidel_step(a: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One lexicographic Gauss-Seidel sweep on the dense system a X = c from x.

    Solves tril(a) X = c - (a - tril(a)) x by a dense factorisation, so it
    shares neither the order of a sweep nor its arithmetic.
    """
    lower = np.tril(a)
    return np.linalg.solve(lower, c - (a - lower) @ x)


def residual_form_wsb(v: np.ndarray, system, cfg, relaxed: bool):
    """The split-Bregman loop as the textbook writes it, on dense matrices.

    Carries U, the Bregman field e and the residual r = d - e of the
    auxiliary field d.  Each sweep solves A X = v + beta*theta*G^T r, with
    G the stacked weighted differences and A = I + beta*theta*G^T G, from
    the previous U: relaxed Richardson steps X <- X + omega*(c - A X) when
    relaxed (omega the FwsbSystem's), lexicographic Gauss-Seidel sweeps
    otherwise, each stopped by the linear solvers' rule.  Then it shrinks
    z = G X + e: d = soft(z), e = cut(z), r = d - e, and stops by
    wsb_solve's rule.  w, theta and beta*theta are the prepared system's;
    cfg gives lam, tau and the caps.  Returns (U, total inner iterations,
    sweeps).  Gated to n <= 32 like the other dense matrices.
    """
    gx, gy = grad_matrices(system.w)
    g = np.vstack((gx, gy))
    a = np.eye(g.shape[1]) + system.bt * (g.T @ g)
    lvl = cfg.lam / system.theta

    def done(diff, ref):
        diff, ref = np.linalg.norm(diff), np.linalg.norm(ref)
        return (diff <= cfg.tau * ref) if ref >= 1e-14 else (diff <= cfg.tau)

    u = v.ravel().copy()
    e = r = np.zeros(g.shape[0])
    total = 0
    for sweep in range(1, cfg.max_outer + 1):
        c = v.ravel() + system.bt * (g.T @ r)
        x = u
        for m in range(1, cfg.max_inner + 1):
            if relaxed:
                x_new = x + system.omega * (c - a @ x)
            else:
                x_new = gauss_seidel_step(a, c, x)
            stop = done(x_new - x, x)
            x = x_new
            if stop:
                break
        total += m
        z = g @ x + e
        d = np.sign(z) * np.maximum(np.abs(z) - lvl, 0.0)
        e = np.clip(z, -lvl, lvl)
        r = d - e
        stop = sweep > 1 and done(x - u, u)
        u = x
        if stop:
            break
    return u.reshape(v.shape), total, sweep


def grad_w_2d(u: np.ndarray, w: WeightField) -> np.ndarray:
    """Weighted forward differences, stacked (2, n, n), zero at the far edges."""
    g = np.zeros((2, *u.shape), u.dtype)
    g[0, :, :-1] = w.wx[:, :-1] * (u[:, 1:] - u[:, :-1])
    g[1, :-1, :] = w.wy[:-1, :] * (u[1:, :] - u[:-1, :])
    return g


def div_w_2d(g: np.ndarray, w: WeightField) -> np.ndarray:
    """Transpose of grad_w_2d on a stacked (2, n, n) field; ignores the
    last column of g[0] and the last row of g[1]."""
    hx = w.wx * g[0]
    hx[:, -1] = 0.0
    hy = w.wy * g[1]
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


def benchmark_literal(filename: str, name: str):
    """The literal assigned to name at the top level of perfbench/filename.

    The file is parsed, not imported, so nothing of the benchmark runs.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / filename
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == [name]
    )


def record_changes(system) -> list:
    """Norms of X_{m+1} - X_m, one per iteration of every later solve on system.

    Wraps the instance's iterates(v, s, u), the protocol of both prepared
    systems.  For the relaxed fixed-point splitting the change
    X_{m+1} - X_m equals omega times the residual c - A X_m, with
    c = v + s + beta*theta*div_w(grad_w(u)), so its ratios follow the
    relaxed step's contraction.
    """
    changes = []
    iterates = system.iterates

    def recording_iterates(v, s, u):
        prev = u
        for x in iterates(v, s, u):
            changes.append(float(np.linalg.norm(x - prev)))
            prev = x
            yield x

    system.iterates = recording_iterates
    return changes
