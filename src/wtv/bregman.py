"""Weighted split-Bregman solver for the backward (proximal) subproblem.

The subproblem is

    argmin_u  lam * (||gx_w u||_1 + ||gy_w u||_1) + 1/(2 beta) ||u - v||^2,

handled by splitting the weighted differences into auxiliary fields with
Bregman variables.  Each outer sweep takes a linear solve of

    (I - beta*theta*Lap_w) X = v + beta*theta*div_w(r),  Lap_w = -div_w(grad_w(.)),

for the residual r = d - e of the auxiliary field d and the Bregman field
e, then shrinks.  wsb_solve carries neither r nor d.  It carries U, e and
h = r - grad_w(U), each difference field one stacked (2, n, n) array,
the form grad_w returns and div_w takes.
Since d = soft(z) = z - cut(z) for z = grad_w(U) + e_prev, the shrink's
e = cut(z) gives h = e_prev - 2e: grad_w(U) enters only through cut.  The
two fields live in two buffers allocated once per call and updated in
place: grad_w writes z into h's buffer, cut turns it into the new e there,
two subtractions turn the old e's buffer into the new h, and the names
swap.

A linear solve takes (v, h, U).  Since (I - beta*theta*Lap_w) U =
U + beta*theta*div_w(grad_w(U)), the change delta = X - U solves the same
system with the right-hand side b = (v - U) + beta*theta*div_w(h), and
both linear solvers solve for it from delta = 0 (the correction form).
Each prepared system, built once per weight field, holds the weights w,
theta and beta*theta, forms every right-hand side it needs by one
method, _change_rhs(v, h, U) = (v - U) + beta*theta*div_w(h), and offers
one method to the solvers, iterates(v, h, U): an endless generator of
the iterate U + delta, an (n, n) image, after each step.  theta must be
positive, so the shrink level lam/theta always exists.
The loop's own settings, lam, tau and the iteration caps, are fields of
the run's forward_backward.SolverConfig, the one settings object of a
solve; this module reads no other field of it.  Two interchangeable
linear solvers are provided:

* fwsb_linear_solve: relaxed fixed-point iteration
  delta <- delta + omega*(b - delta - beta*theta*div_w(grad_w delta))
  from the identity splitting of the system matrix, written with the
  sweep's own two operators; no stencil is kept.  Each step adds omega
  times the residual _change_rhs(v, h - grad_w(delta), X).  From
  delta = 0 that residual is b, so the first step,
  X = U + omega*(v + beta*theta*div_w(h) - U), takes no grad_w, and a
  one-step solve runs one div_w: the linearised Bregman, or split inexact
  Uzawa, form of the sweep (Zhang, Burger & Osher, J. Sci. Comput. 2011).
  omega is Richardson's optimal relaxation for the Gershgorin interval
  [1, 1 + theta/bound] of the system matrix, 2/(2 + theta/bound) with
  bound = theta_bound(w, beta): it shrinks the largest error factor per
  step from theta/bound (the unit step's slowest mode, which flips sign
  every step) to (theta/bound)/(2 + theta/bound), so a solve cut off
  after any number of steps, one included, hands the Bregman loop no
  wrong-signed error to feed back.  The relaxed step contracts for any
  theta > 0, so FwsbSystem does not hold theta to theta_bound, the
  paper's condition beta*theta < 1/||Lap_w||_inf for the unit step.
* gauss_seidel_solve: classic forward Gauss-Seidel sweeps in lexicographic
  pixel order on b from 0.  The system is strictly diagonally dominant for
  any theta > 0, so the sweeps always converge.  Each row is divided by
  its diagonal (Jacobi scaling): with c' = beta*theta*c/diag for the
  neighbour coefficients c, pixel (i, j) takes
  (((b/diag + ce'*xE) + cs'*xS) + cw'*xW) + cn'*xN, east and south from
  the previous sweep, west and north from this one; the first sweep,
  whose previous iterate is 0, starts from b/diag alone.  Pixel (i, j)
  reads only its west and north neighbours from the current sweep, so all
  pixels on one anti-diagonal i + j = d can be updated at once (the
  hyperplane or wavefront method, Lamport 1974).  A sweep after the first
  forms the east and south part of every pixel in four numpy calls; each
  sweep then runs one anti-diagonal at a time, four elementwise calls
  each, for the west and north part.

In exact arithmetic both solvers' iterates equal those of the same solver
started from U on the full right-hand side.  Both are one call to _solve,
which draws a system's iterates until the relative change falls below tau
or max_inner is reached, and skips that test on the last allowed
iteration, where it cannot change what is returned.  wsb_solve applies
the same rule to U from its second sweep on.  Each norm of these tests is
one dot product.  wsb_solve picks the solver from the type of the
prepared system it is given.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError
from .grid import WeightField, _stencil_coeffs, div_w, grad_w, laplacian_inf_norm

__all__ = [
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

    wsb_solve does not call it: its sweep needs only cut(z) = z - soft(z).
    """
    return np.sign(z) * np.maximum(np.abs(z) - threshold, 0.0)


def cut(z, threshold, out=None):
    """Complement of soft-shrinkage: clamps z to [-threshold, threshold].

    Writes into out when given, as np.clip does.
    """
    return np.clip(z, -threshold, threshold, out=out)


def theta_bound(w: WeightField, beta: float) -> float:
    """The paper's bound on the penalty for the unit fixed-point step: 1/(beta*||Lap_w||_inf).

    Raises ConfigError when the weighted Laplacian is zero, as on a 1x1
    grid, where no pixel has a neighbour and no bound exists, and when
    beta is so small (subnormal, say) that the bound overflows.

    beta > 0 is checked here and again by each prepared system: a caller
    of theta_bound alone never builds a system, and GaussSeidelSystem
    never calls theta_bound.
    """
    if not beta > 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    norm = laplacian_inf_norm(w)
    if norm == 0:
        raise ConfigError("the weighted Laplacian is zero (no pixel has a weighted "
                          "neighbour, as on a 1x1 grid), so theta has no bound")
    bound = 1.0 / (beta * norm) if beta * norm > 0 else np.inf
    if not np.isfinite(bound):
        raise ConfigError(f"beta={beta!r} is too small: the bound on theta, "
                          "1/(beta*||Lap_w||_inf), overflows")
    return bound


def _rel_change_done(diff_norm: float, ref_norm: float, tau: float) -> bool:
    # Relative stopping rule with an absolute fallback once the reference
    # norm is effectively zero.
    if ref_norm < 1e-14:
        return diff_norm <= tau
    return diff_norm <= tau * ref_norm


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of x as one dot product: np.linalg.norm's value, bit for bit."""
    x = x.ravel()
    return math.sqrt(x.dot(x))


class _System:
    """The weights w, theta and bt = beta*theta of one system I - bt*Lap_w.

    Checks beta > 0 and theta finite and > 0, and raises ConfigError
    otherwise: wsb_solve shrinks at the level lam/theta.
    """

    def __init__(self, w: WeightField, beta: float, theta: float):
        if not beta > 0:
            raise ConfigError(f"beta must be positive, got {beta}")
        if not (np.isfinite(theta) and theta > 0):
            raise ConfigError(f"theta must be finite and > 0, got {theta}")
        self.w, self.theta, self.bt = w, theta, beta * theta

    def _change_rhs(self, v: np.ndarray, h: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(v - U) + beta*theta*div_w(h) in a new array, evaluated as
        beta*theta*div_w(h) + v, then minus U: one div_w.

        With the carried h it is the right-hand side b of the change X - U.
        """
        b = div_w(h, self.w)
        b *= self.bt
        b += v
        b -= u
        return b


class FwsbSystem(_System):
    """The system I - beta*theta*Lap_w for fast-splitting solves.

    Besides w, theta and beta*theta (see _System), holds the relaxation
    factor omega = 2/(2 + theta/theta_bound(w, beta)); theta_bound gives
    the Gershgorin interval [1, 1 + theta/bound] from which omega is
    derived.  The error factor per step is then at most
    (theta/bound)/(2 + theta/bound) < 1 for any theta > 0, so theta is not
    held below bound.  It holds no per-pixel array of its own: each step
    after the first applies grad_w and div_w.
    """

    def __init__(self, w: WeightField, beta: float, theta: float):
        super().__init__(w, beta, theta)
        bound = theta_bound(w, beta)
        # Richardson's optimum for the eigenvalues of I - bt*Lap_w, which
        # Gershgorin's discs place in [1, 1 + theta/bound]
        self.omega = 2.0 / (2.0 + theta / bound)

    def iterates(self, v: np.ndarray, h: np.ndarray, u: np.ndarray):
        """Endless generator of the (n, n) iterate after each relaxed step from U.

        Solves for the change X - U from 0, whose right-hand side is
        b = (v - U) + beta*theta*div_w(h), with h stacked (2, n, n).  Each
        step adds omega times that equation's residual at the current X,
        X <- X + omega*_change_rhs(v, h - grad_w(X - U), X), evaluated in
        that order.  From X = U the residual is b itself, so the first step
        is U + omega*(v + beta*theta*div_w(h) - U) and takes no grad_w; m
        steps run m div_w and m - 1 grad_w.  Each iterate is a new array.
        """
        x, d = u, h
        while True:
            x_new = self._change_rhs(v, d, x)
            x_new *= self.omega
            x_new += x
            x = x_new
            yield x
            d = grad_w(x - u, self.w)
            np.subtract(h, d, out=d)


def _solve(iterates, x0: np.ndarray, cfg):
    """The stopping rule of both linear solvers.

    Draws from iterates, a system's generator of (n, n) images started
    from x0, until the iterate's relative change falls below cfg.tau or
    cfg.max_inner is reached, cfg being the run's SolverConfig.  The test
    is skipped on the last allowed iteration, where it cannot change what
    is returned.  Returns (solution, iterations), the solution being the
    last iterate drawn.
    """
    prev = x0
    for m, x in enumerate(iterates, 1):
        if m == cfg.max_inner or _rel_change_done(_norm(x - prev), _norm(prev), cfg.tau):
            return x, m
        prev = x


def fwsb_linear_solve(v, h, u, cfg, system: FwsbSystem):
    """Relaxed fixed-point solve of (I - beta*theta*Lap_w) X = v + beta*theta*div_w(h + grad_w U).

    Splitting the system matrix across the identity and relaxing the step
    by omega turns the solve for the change delta = X - U into
    delta <- delta + omega*(b - delta - beta*theta*div_w(grad_w delta))
    from delta = 0, with b = (v - U) + beta*theta*div_w(h); system, the
    FwsbSystem that holds the weights, beta, theta and omega, yields the
    iterates U + delta.  h is the stacked (2, n, n) field that wsb_solve
    carries.  Each step shrinks the error by a factor of at most
    (theta/bound)/(2 + theta/bound) < 1, with bound = theta_bound(w, beta).
    Stops by the shared rule of _solve, reading only tau and max_inner
    from cfg, the run's SolverConfig.  Returns (solution, iterations).
    """
    return _solve(system.iterates(v, h, u), u, cfg)


def _sheared_image(plane: np.ndarray) -> np.ndarray:
    """The (n, n) image view of a sheared plane: pixel (i, j) is plane[i+j+1, i+1]."""
    s0, s1 = plane.strides
    n = plane.shape[1] - 2
    return as_strided(plane[1:, 1:], shape=(n, n), strides=(s0 + s1, s0))


class GaussSeidelSystem(_System):
    """Five-point system data reused across Gauss-Seidel solves.

    Besides w, theta and beta*theta (see _System), holds the diagonal
    diag = 1 + beta*theta*(ce + cw + cs + cn) of one weight field and the
    Jacobi-scaled neighbour coefficients beta*theta*c/diag, each in a
    sheared (2n+1, n+2) plane whose row d+1 holds anti-diagonal d
    contiguously, with zero padding for the neighbours beyond the
    boundary.  The west and north neighbours of a diagonal then sit in the
    row before it, the east and south ones in the row after.  A sweep
    after the first forms every pixel's east and south part in four
    one-dimensional numpy calls over whole planes, since those neighbours
    still hold the previous iterate when their diagonal is reached; each
    diagonal then adds its west and north products in four
    one-dimensional calls.  All are views made here once.

    The iterate, partial-sum and product buffers, three sweep planes, live
    in the system too, so one system serves one solve at a time: starting
    a second iterates generator overwrites the first one's iterate.
    """

    def __init__(self, w: WeightField, beta: float, theta: float):
        super().__init__(w, beta, theta)
        n, bt = w.n, self.bt
        ce, cw, cs, cn = _stencil_coeffs(w)
        self._diag = 1.0 + bt * (ce + cw + cs + cn)
        rows, cols = 2 * n + 1, n + 2
        coef = np.zeros((4, rows, cols))
        for plane, c in zip(coef, (ce, cs, cw, cn)):
            _sheared_image(plane)[...] = bt * c / self._diag
        ce, cs, cw, cn = coef
        pre, tmp, x = np.zeros((3, rows, cols))
        self._pre, self._x = _sheared_image(pre), _sheared_image(x)
        # the pixel at flat index k of a plane has its east neighbour at
        # k + cols and its south one at k + cols + 1, so the east and south
        # part is taken over one contiguous run of every plane, rows 1 to
        # 2n-1; where that run wraps from one row to the next it lands in a
        # padding column, whose coefficients are zero and whose pre no
        # diagonal reads
        def run(plane, shift=0):
            return plane.ravel()[cols + shift : (rows - 1) * cols - 1 + shift]

        self._east_south = (
            run(ce), run(x, cols), run(cs), run(x, cols + 1), run(pre), run(tmp)
        )
        self._diagonals = []
        for c in range(1, 2 * n):
            lo, hi = max(1, c - n + 1), min(c, n) + 1
            self._diagonals.append((
                cw[c, lo:hi], x[c - 1, lo:hi], cn[c, lo:hi], x[c - 1, lo - 1 : hi - 1],
                pre[c, lo:hi], x[c, lo:hi],
            ))

    def iterates(self, v: np.ndarray, h: np.ndarray, u: np.ndarray):
        """Endless generator of the (n, n) image U + delta after each forward sweep.

        Sweeps (I - beta*theta*Lap_w) delta = b for the change delta = X - U
        from 0, with b = _change_rhs(v, h, U), each row divided by its
        diagonal: with c' = beta*theta*c/diag, pixel (i, j) takes
        (((b/diag + ce'*xE) + cs'*xS) + cw'*xW) + cn'*xN, east and south
        from the previous sweep, west and north from this one.  The first
        sweep's previous iterate is 0, so it starts from b/diag alone, which
        goes straight into the partial-sum plane; a later sweep forms b/diag
        there again and adds every pixel's east and south part.  Each
        anti-diagonal then takes its west and north products and sums in
        four elementwise calls.  The first sweep writes every pixel of the
        iterate before it reads it, and no sweep writes the iterate's zero
        padding, so nothing a previous solve left in the system is read.
        """
        b = self._change_rhs(v, h, u)
        divide, multiply, add = np.divide, np.multiply, np.add
        ce, xe, cs, xs, pre, tmp = self._east_south
        divide(b, self._diag, out=self._pre)
        while True:
            # once added, a diagonal's part in pre is spent, and its row of
            # pre takes the north product
            for cw, xw, cn, xn, p, xd in self._diagonals:
                multiply(cw, xw, xd)
                add(p, xd, xd)
                multiply(cn, xn, p)
                add(xd, p, xd)
            yield u + self._x
            divide(b, self._diag, out=self._pre)
            multiply(ce, xe, tmp)
            add(pre, tmp, pre)
            multiply(cs, xs, tmp)
            add(pre, tmp, pre)


def gauss_seidel_solve(v, h, u, cfg, system: GaussSeidelSystem):
    """Forward Gauss-Seidel sweeps on the same system, lexicographic order.

    Solves (I - beta*theta*Lap_w) X = v + beta*theta*div_w(h + grad_w U)
    for the change X - U from 0, on b = (v - U) + beta*theta*div_w(h),
    each row divided by its diagonal; valid for any theta > 0 thanks to
    strict diagonal dominance.  The first sweep starts from b/diag, later
    ones add the previous sweep's east and south neighbours to it.  system,
    the GaussSeidelSystem that holds the weights, beta and theta, yields
    the iterates U + delta; it holds the sweeps' buffers too, so it must
    serve one solve at a time.  Stops by the shared rule of _solve,
    reading only tau and max_inner from cfg, the run's SolverConfig.
    Returns (solution, sweeps).
    """
    return _solve(system.iterates(v, h, u), u, cfg)


# Names only: wsb_solve and forward_backward._build_system call each
# solver and system by its module-global name, so that a wrapper bound to
# that name (a tracer, say) sees every call.
INNER_SOLVERS = ("fwsb", "gauss_seidel")


def wsb_solve(v: np.ndarray, cfg, system: FwsbSystem | GaussSeidelSystem):
    """Split-Bregman loop for the backward subproblem.

    Carries U, the Bregman field e and h = r - grad_w(U), r = d - e the
    residual of the auxiliary field d, each difference field stacked as one
    (2, n, n) array; neither d nor r is formed.  Starts from U = v with
    e = r = 0, so h = -grad_w(v).  Each sweep solves for U from the
    previous U, handing (v, h, U) to the linear solve, and shrinks the
    shifted differences z = grad_w(U) + e at the level lam/theta: the new
    e is cut(z), and h = r - grad_w(U) = (z - 2e) - (z - e_prev) =
    (e_prev - e) - e.  e and h are two buffers allocated once per call and
    updated in place.  Once the solve has returned, h is spent: its first
    plane takes U's change for the stopping test, then grad_w writes into
    its buffer, which takes z and the new e; the old e's buffer becomes
    the new h; the names swap.
    system is the inner solver's prepared system, which holds the weights
    w, theta and beta*theta, and its type picks the linear solver,
    fwsb_linear_solve or gauss_seidel_solve, whatever cfg.inner says; both
    take the same arguments.  The loop looks up the solver, grad_w and
    cut, and _change_rhs looks up div_w, as module-global names, so a wrapper
    bound to a name (a tracer, say) sees every call: per sweep one linear
    solve, one div_w (in the solve's right-hand side), one cut and one
    grad_w, plus one grad_w(v) per call.  It stops once U's relative change falls
    below tau (or max_outer is hit), testing from the second sweep on: the
    first, with e = r = 0, only smooths v toward the quadratic penalty's
    solution, and when the linear solve stops after one step its change
    can fall below tau before any shrinkage has entered U.  cfg is the
    run's forward_backward.SolverConfig, of which wsb_solve and the linear
    solves read only lam, tau, max_outer and max_inner.  Returns (U, total
    inner iterations, outer sweeps).
    """
    w = system.w
    lvl = cfg.lam / system.theta
    solve = fwsb_linear_solve if isinstance(system, FwsbSystem) else gauss_seidel_solve
    e = np.zeros((2, *v.shape))
    h = grad_w(v, w)
    np.negative(h, out=h)
    u = v
    total_inner = 0
    for outer in range(1, cfg.max_outer + 1):
        x, m = solve(v, h, u, cfg, system)
        total_inner += m
        # h is spent: its first plane takes U's change for the test, then
        # z = grad_w(U) + e and the new e = cut(z) fill its buffer; the old
        # e's buffer turns into h = (e_old - e) - e
        done = outer > 1 and _rel_change_done(
            _norm(np.subtract(x, u, out=h[0])), _norm(u), cfg.tau
        )
        grad_w(x, w, out=h)
        h += e
        cut(h, lvl, out=h)
        e -= h
        e -= h
        e, h = h, e
        u = x
        if done:
            break
    return u, total_inner, outer
