"""Weighted split-Bregman solver for the backward (proximal) subproblem.

The subproblem is

    argmin_u  lam * (||gx_w u||_1 + ||gy_w u||_1) + 1/(2 beta) ||u - v||^2,

handled by splitting the weighted differences into auxiliary fields with
Bregman variables.  Each outer sweep solves the linear system

    (I - beta*theta*Lap_w) U = c,  c = v + beta*theta*(div of auxiliary residuals)

then shrinks.  wsb_solve builds c once per sweep from the two fields it
carries, each stacked as one (2, n, n) array: the Bregman field e and
the residual d - e of the auxiliary field d.  Since d = soft(z) =
z - cut(z), one cut per sweep updates both, and d itself is never
formed.  The fields, c and the step U_new - U live in buffers allocated
once per call: div_w, grad_w and cut write into them through their out=
arguments, so a sweep allocates nothing beyond div_w's one scratch array
and the linear solve's own.  Each linear solver takes c and a start
iterate and runs on a prepared system, built once per weight field,
that holds the beta*theta-scaled five-point stencil.  Two
interchangeable linear solvers are provided:

* fwsb_linear_solve: fixed-point iteration X <- c + beta*theta*Lap_w X
  from the identity splitting of the system matrix, with c the right-hand
  side.  Each update applies the precomputed stencil (FwsbSystem) in a few
  contiguous numpy calls; it contracts exactly when beta*theta stays below
  1/||Lap_w||_inf, which FwsbSystem checks against theta_bound.
* gauss_seidel_solve: classic forward Gauss-Seidel sweeps in lexicographic
  pixel order.  The system is strictly diagonally dominant for any
  theta > 0, so the sweeps always converge.  Within a sweep pixel (i, j)
  reads only its west and north neighbours from the current sweep, so all
  pixels on one anti-diagonal i + j = d can be updated at once (the
  hyperplane or wavefront method, Lamport 1974).  A sweep runs one
  anti-diagonal at a time, applying the per-pixel arithmetic in the same
  order, so its iterates and sweep counts equal the per-pixel loop's bit
  for bit.

wsb_solve picks the solver from the type of the prepared system it is
given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError
from .grid import WeightField, _stencil_coeffs, div_w, grad_w, laplacian_inf_norm

__all__ = [
    "BregmanParams",
    "FwsbSystem",
    "GaussSeidelSystem",
    "soft",
    "cut",
    "theta_bound",
    "fwsb_linear_solve",
    "gauss_seidel_solve",
    "wsb_solve",
    "INNER_SOLVERS",
]


def soft(z, threshold):
    """Soft-shrinkage: sign(z) * max(|z| - threshold, 0).

    wsb_solve does not call it: it forms soft(z) as z - cut(z).
    """
    return np.sign(z) * np.maximum(np.abs(z) - threshold, 0.0)


def cut(z, threshold, out=None):
    """Complement of soft-shrinkage: clamps z to [-threshold, threshold].

    Writes into out when given, as np.clip does.
    """
    return np.clip(z, -threshold, threshold, out=out)


def theta_bound(w: WeightField, beta: float) -> float:
    """Largest admissible penalty for the fixed-point solver: 1/(beta*||Lap_w||_inf)."""
    if not beta > 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    return 1.0 / (beta * laplacian_inf_norm(w))


@dataclass(frozen=True)
class BregmanParams:
    """Penalty, step and tolerance settings shared by both linear solvers.

    theta == 0 is admissible only with lam == 0 (identity system), an edge
    used to exercise the Gauss-Seidel sweep in isolation.
    """

    lam: float
    theta: float
    beta: float
    tau: float = 1e-4
    max_outer: int = 30
    max_inner: int = 50

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        if not (np.isfinite(self.theta) and self.theta >= 0):
            raise ConfigError(f"theta must be finite and >= 0, got {self.theta}")
        if self.theta == 0 and self.lam != 0:
            raise ConfigError("theta == 0 requires lam == 0")
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ConfigError("iteration caps must be at least 1")

    @property
    def shrink_threshold(self) -> float:
        """Shrinkage level lam/theta."""
        return self.lam / self.theta if self.theta > 0 else 0.0


def _rel_change_done(diff_norm: float, ref_norm: float, tau: float) -> bool:
    # Relative stopping rule with an absolute fallback once the reference
    # norm is effectively zero.
    if ref_norm < 1e-14:
        return diff_norm <= tau
    return diff_norm <= tau * ref_norm


class FwsbSystem:
    """Five-point system data reused across fast-splitting solves.

    Holds the beta*theta-scaled neighbour coefficients (east, west, south,
    north) and the scaled diagonal sum of one weight field, on the
    flattened image.  There the neighbours of pixel k sit at k+1, k-1, k+n
    and k-n, so every stencil term is one contiguous product; a term that
    would wrap across a row end has a zero coefficient.  Building it checks
    theta < theta_bound(w, beta), which makes the fixed-point iteration a
    contraction, and raises ConfigError otherwise.
    """

    def __init__(self, w: WeightField, beta: float, theta: float):
        bound = theta_bound(w, beta)
        if not theta < bound:
            raise ConfigError(
                f"theta={theta:.6g} is not below the contraction bound {bound:.6g}"
            )
        n = w.n
        bt = beta * theta
        ce, cw, cs, cn = (bt * c.ravel() for c in _stencil_coeffs(w))
        self.diag = ce + cw + cs + cn
        # (coefficient, pixels updated, neighbours read) per direction
        self.neighbours = (
            (ce[:-1], slice(None, -1), slice(1, None)),
            (cw[1:], slice(1, None), slice(None, -1)),
            (cs[:-n], slice(None, -n), slice(n, None)),
            (cn[n:], slice(n, None), slice(None, -n)),
        )

    def apply(self, c: np.ndarray, x: np.ndarray, out: np.ndarray, tmp: np.ndarray):
        """out <- c + beta*theta*Lap_w x on flattened arrays; tmp is scratch."""
        np.multiply(self.diag, x, out=out)
        np.subtract(c, out, out=out)
        for coef, dst, src in self.neighbours:
            t = tmp[dst]
            np.multiply(coef, x[src], out=t)
            out[dst] += t


def fwsb_linear_solve(c: np.ndarray, x0: np.ndarray, p: BregmanParams, system: FwsbSystem):
    """Fixed-point solve of (I - beta*theta*Lap_w) X = c, fully vectorised.

    Splitting the system matrix across the identity turns the solve into
    X <- c + beta*theta*Lap_w X, warm-started from x0.  Each iteration
    applies the precomputed stencil of system, the FwsbSystem of the
    weights, p.beta and p.theta.  Building it checked
    theta < theta_bound(w, beta), which makes the iteration map a
    contraction.  For this splitting the change X_{m+1} - X_m literally
    equals c - A X_m, so the stopping rule reads residual norms.  Returns
    (solution, iterations).
    """
    flat_c = c.ravel()
    x = x0.flatten()
    x_new, tmp = np.empty_like(x), np.empty_like(x)
    for m in range(1, p.max_inner + 1):
        system.apply(flat_c, x, x_new, tmp)
        np.subtract(x_new, x, out=tmp)
        diff = float(np.linalg.norm(tmp))
        x_norm = float(np.linalg.norm(x))
        x, x_new = x_new, x
        if _rel_change_done(diff, x_norm, p.tau):
            return x.reshape(c.shape), m
    return x.reshape(c.shape), p.max_inner


def _sheared_image(plane: np.ndarray) -> np.ndarray:
    """The (n, n) image view of a sheared plane: pixel (i, j) is plane[i+j+1, i+1]."""
    s0, s1 = plane.strides
    n = plane.shape[1] - 2
    return as_strided(plane[1:, 1:], shape=(n, n), strides=(s0 + s1, s0))


class GaussSeidelSystem:
    """Five-point system data reused across Gauss-Seidel solves.

    Holds the beta*theta-scaled neighbour coefficients and the inverted
    diagonal for one weight field in sheared (2n+1, n+2) planes whose row
    d+1 holds anti-diagonal d contiguously, with zero padding for the
    neighbours beyond the boundary.  The west and north neighbours of a
    diagonal then sit in the row before it, the east and south ones in the
    row after, so a diagonal updates in four numpy calls through views made
    here once.

    The iterate and right-hand-side buffers live in the system too, so one
    system serves one solve at a time: starting a second sweep generator
    overwrites the first one's iterate.
    """

    def __init__(self, w: WeightField, beta: float, theta: float):
        n = w.n
        bt = beta * theta
        ce, cw, cs, cn = _stencil_coeffs(w)
        diag = 1.0 + bt * (ce + cw + cs + cn)
        rows, cols = 2 * n + 1, n + 2
        coef = np.zeros((rows, 5, cols))
        for q, c in enumerate((bt * cn, bt * cw, bt * ce, bt * cs, 1.0 / diag)):
            _sheared_image(coef[:, q, :])[...] = c
        # per pixel b, cw*xW, ce*xE, cn*xN, cs*xS: the order in which the
        # update adds them.  An axis-0 reduction over this strided block adds
        # them one after another with numpy 2.x, also on the one-pixel corner
        # diagonals; numpy does not promise that order, so
        # test_gauss_seidel_bitwise_equals_reference_loop guards it.
        terms = np.zeros((rows, 5, cols))
        x = np.zeros((rows, cols))
        # pairs[c, :, r] = (x[c, r], x[c, r + 1]): (north, west) of the
        # pixel at x[c + 1, r + 1], (east, south) of the one at x[c - 1, r]
        pairs = as_strided(
            x, shape=(rows, 2, cols - 1), strides=(x.strides[0],) + 2 * (x.strides[1],)
        )
        self._b = _sheared_image(terms[:, 0, :])
        self._x = _sheared_image(x)
        self._diagonals = []
        for d in range(2 * n - 1):
            c, r = d + 1, slice(max(0, d - n + 1) + 1, min(d, n - 1) + 2)
            coef_d, terms_d = coef[c, :, r], terms[c, :, r]
            north_west = pairs[c - 1, :, r.start - 1 : r.stop - 1]
            east_south = pairs[c + 1, :, r]
            self._diagonals.append((
                coef_d[0:2], north_west, terms_d[3::-2],
                coef_d[2:4], east_south, terms_d[2::2],
                terms_d, x[c, r], coef_d[4],
            ))

    def sweeps(self, b: np.ndarray, x0: np.ndarray):
        """Endless generator of the flattened iterate after each forward sweep from x0.

        Each sweep runs the lexicographic per-pixel sweep one anti-diagonal
        at a time, with the per-pixel arithmetic in its order, so the
        iterates equal that loop's bit for bit.
        """
        self._b[...] = b
        self._x[...] = x0
        multiply, sum_rows = np.multiply, np.add.reduce
        while True:
            for cnw, xnw, tnw, ces, xes, tes, t, xd, inv_diag in self._diagonals:
                multiply(cnw, xnw, out=tnw)
                multiply(ces, xes, out=tes)
                sum_rows(t, axis=0, out=xd)
                multiply(xd, inv_diag, out=xd)
            yield self._x.flatten()


def gauss_seidel_solve(
    c: np.ndarray, x0: np.ndarray, p: BregmanParams, system: GaussSeidelSystem
):
    """Forward Gauss-Seidel sweeps on the same system, lexicographic order.

    Solves (I - beta*theta*Lap_w) X = c from x0 with the stopping rule of
    fwsb_linear_solve; valid for any theta >= 0 thanks to strict diagonal
    dominance.  system is the GaussSeidelSystem of the weights, p.beta and
    p.theta; it holds the sweep's buffers, so it must serve one solve at a
    time.  Returns (solution, sweeps).
    """
    prev = x0.ravel()
    for m, cur in zip(range(1, p.max_inner + 1), system.sweeps(c, x0)):
        diff = float(np.linalg.norm(cur - prev))
        ref = float(np.linalg.norm(prev))
        prev = cur
        if _rel_change_done(diff, ref, p.tau):
            return cur.reshape(x0.shape), m
    return prev.reshape(x0.shape), p.max_inner


# Names only: wsb_solve and forward_backward._prepare_backward call each
# solver and system by its module-global name, so that a wrapper bound to
# that name (a tracer, say) sees every call.
INNER_SOLVERS = ("fwsb", "gauss_seidel")


def wsb_solve(
    v: np.ndarray,
    w: WeightField,
    p: BregmanParams,
    system: FwsbSystem | GaussSeidelSystem,
):
    """Split-Bregman loop for the backward subproblem.

    Carries U, the Bregman field e and the residual r = d - e of the
    auxiliary field d, each difference field stacked as one (2, n, n)
    array; d itself is never formed.  Starts from U = v with e = r = 0.
    Each sweep builds c = v + beta*theta*div_w(r), solves for U from the
    previous U, and shrinks the shifted differences z = grad_w(U) + e:
    e = cut(z) and d = soft(z) = z - cut(z), so r = (z - e) - e, which
    equals soft(z) - cut(z) bit for bit wherever it is nonzero.  e, r, c
    and U's change are buffers allocated once per call, which div_w,
    grad_w and cut fill in place; the loop looks those three up as
    module-global names, once per sweep each, so a wrapper bound to a
    name (a tracer, say) sees every call.  It stops
    once U's relative change falls below tau (or max_outer is hit).
    system is the inner solver's prepared system for w, p.beta and p.theta,
    and its type picks the linear solver: fwsb_linear_solve for an
    FwsbSystem, gauss_seidel_solve for a GaussSeidelSystem.  Returns (U,
    total inner iterations, outer sweeps).
    """
    solve = fwsb_linear_solve if isinstance(system, FwsbSystem) else gauss_seidel_solve
    bt, lvl = p.beta * p.theta, p.shrink_threshold
    u = v
    e, r = np.zeros((2, 2, *v.shape))
    c, step = np.empty((2, *v.shape))
    total_inner = 0
    for outer in range(1, p.max_outer + 1):
        div_w(r[0], r[1], w, out=c)
        c *= bt
        c += v
        x, m = solve(c, u, p, system)
        total_inner += m
        # z = grad_w(U) + e in r, then e = cut(z) and r = (z - e) - e
        grad_w(x, w, out=r)
        r += e
        cut(r, lvl, out=e)
        r -= e
        r -= e
        diff = float(np.linalg.norm(np.subtract(x, u, out=step)))
        ref = float(np.linalg.norm(u))
        u = x
        if _rel_change_done(diff, ref, p.tau):
            break
    return u, total_inner, outer
