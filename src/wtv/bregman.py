"""Weighted split-Bregman solver for the backward (proximal) subproblem.

The subproblem is

    argmin_u  lam * (||gx_w u||_1 + ||gy_w u||_1) + 1/(2 beta) ||u - v||^2,

handled by splitting the weighted differences into auxiliary fields with
Bregman variables.  Each outer sweep takes a linear solve of

    (I - beta*theta*Lap_w) X = v + beta*theta*div_w(r),  Lap_w = -div_w(grad_w(.)),

for the residual r = d - e of the auxiliary field d and the Bregman field
e, then shrinks.  wsb_solve carries neither r nor d.  It carries U, e,
stacked as one (2, n, n) array, the form grad_w returns and div_w takes,
and its divergence q = div_w(e), one (n, n) image.
Since d = soft(z) = z - cut(z) for z = grad_w(U) + e_prev, the shrink's
e = cut(z) gives r - grad_w(U) = e_prev - 2e: grad_w(U) enters only
through cut.  So the divergence term that the correction form below
needs, s = beta*theta*div_w(r - grad_w(U)), is the image
beta*theta*((q_prev - q) - q), and the one div_w of a sweep, that of the
new e, serves this sweep's q and the next one's q_prev.  e and a gradient
buffer are allocated once per call: grad_w writes into the buffer, e
absorbs it and cut clamps e in place, and the spent buffer's first plane
takes s.  This is the state of the sweep's primal-dual form (Esser, Zhang
& Chan, SIAM J. Imaging Sci. 2010): the dual field is theta*e, and its
divergence theta*q.

A linear solve takes (v, s, U).  Since (I - beta*theta*Lap_w) U =
U + beta*theta*div_w(grad_w(U)), the change delta = X - U solves the same
system with the right-hand side b = (s + v) - U, and both linear solvers
solve for it from delta = 0 (the correction form).
Each prepared system is built once per weight field from the run's
kappa.  It holds the weights w, bound = theta_bound(w, beta), computed
once, theta = kappa*bound and beta*theta; it forms every right-hand side
it needs by one method, _change_rhs(v, s, U) = (s + v) - U, which applies
no operator, and offers one method to the solvers, iterates(v, s, U): an
endless generator of the iterate U + delta, an (n, n) image, after each
step.  theta must be finite and positive, so the shrink level
lam/theta always exists.
The loop's own settings, lam, tau and the iteration caps, are fields of
the run's forward_backward.SolverConfig, the one settings object of a
solve; this module reads no other field of it.  Two interchangeable
linear solvers are provided:

* fwsb_linear_solve: relaxed fixed-point iteration
  delta <- delta + omega*(b - delta - beta*theta*div_w(grad_w delta))
  from the identity splitting of the system matrix, written with the
  sweep's own two operators; no stencil is kept.  Each step adds omega
  times the residual _change_rhs(v, s - beta*theta*div_w(grad_w(delta)),
  X).  From delta = 0 that residual is b, so the first step,
  X = U + omega*((s + v) - U), applies no operator, and a one-step solve
  runs neither grad_w nor div_w: the linearised Bregman, or split inexact
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
  each, for the west and north part.  A solve applies neither grad_w nor
  div_w.

In exact arithmetic both solvers' iterates equal those of the same solver
started from U on the full right-hand side.  Both are one call to _solve,
which draws a system's iterates until the relative change falls below tau
or max_inner is reached, and skips that test on the last allowed
iteration, where it cannot change what is returned.  wsb_solve applies
the same rule to U from its second sweep on, and returns without
shrinking after its last sweep, whose shrink could not reach U.  Each
norm of these tests is one dot product.  wsb_solve picks the solver from
the type of the prepared system it is given.
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

    Each prepared system calls it once, so this is where beta > 0 is
    checked for a system too.
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
    """The weights w, bound, theta and bt = beta*theta of one system I - bt*Lap_w.

    Its one right-hand side, _change_rhs(v, s, U) = (s + v) - U, takes
    wsb_solve's divergence term s as an (n, n) image.

    Built from the run's kappa: theta = kappa*bound, with bound =
    theta_bound(w, beta) computed here once per weight field (theta_bound
    checks beta).  Raises ConfigError unless theta is finite and > 0, which
    rejects a kappa <= 0, NaN or inf and a kappa*bound that overflows or
    underflows: wsb_solve shrinks at the level lam/theta.
    """

    def __init__(self, w: WeightField, beta: float, kappa: float):
        self.bound = theta_bound(w, beta)
        self.theta = kappa * self.bound
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise ConfigError(f"theta = {kappa!r}*theta_bound = {self.theta} is not finite and > 0")
        self.w, self.bt = w, beta * self.theta

    def _change_rhs(self, v: np.ndarray, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(s + v) - U in a new array; it applies no operator.

        With wsb_solve's divergence term s it is the right-hand side b of
        the change X - U.
        """
        b = np.add(s, v)
        return np.subtract(b, u, out=b)


class FwsbSystem(_System):
    """The system I - beta*theta*Lap_w for fast-splitting solves.

    Besides w, theta, beta*theta and bound (see _System), holds the
    relaxation factor omega = 2/(2 + theta/bound), derived from the
    Gershgorin interval [1, 1 + theta/bound].  The error factor per step
    is then at most (theta/bound)/(2 + theta/bound) < 1 for any kappa > 0,
    so theta is not held below bound.  It holds no per-pixel array of its
    own: each step after the first applies grad_w and div_w.
    """

    def __init__(self, w: WeightField, beta: float, kappa: float):
        super().__init__(w, beta, kappa)
        # Richardson's optimum for the eigenvalues of I - bt*Lap_w, which
        # Gershgorin's discs place in [1, 1 + theta/bound]
        self.omega = 2.0 / (2.0 + self.theta / self.bound)

    def iterates(self, v: np.ndarray, s: np.ndarray, u: np.ndarray):
        """Endless generator of the (n, n) iterate after each relaxed step from U.

        Solves for the change X - U from 0, whose right-hand side is
        b = (s + v) - U, with s the (n, n) divergence term.  Each step adds
        omega times that equation's residual at the current X,
        X <- X + omega*_change_rhs(v, t, X) with
        t = s - beta*theta*div_w(grad_w(X - U)), evaluated in that order.
        From X = U the residual is b itself, so the first step is
        U + omega*((s + v) - U) and applies no operator; m steps run m - 1
        grad_w and m - 1 div_w.  Each iterate is a new array.
        """
        x, t = u, s
        while True:
            x_new = self._change_rhs(v, t, x)
            x_new *= self.omega
            x_new += x
            x = x_new
            yield x
            t = div_w(grad_w(x - u, self.w), self.w)
            t *= self.bt
            np.subtract(s, t, out=t)


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


def fwsb_linear_solve(v, s, u, cfg, system: FwsbSystem):
    """Relaxed fixed-point solve of (I - beta*theta*Lap_w) X = v + s + beta*theta*div_w(grad_w U).

    Splitting the system matrix across the identity and relaxing the step
    by omega turns the solve for the change delta = X - U into
    delta <- delta + omega*(b - delta - beta*theta*div_w(grad_w delta))
    from delta = 0, with b = (s + v) - U; system, the FwsbSystem that
    holds the weights, beta, theta and omega, yields the iterates
    U + delta.  s is the (n, n) divergence term that wsb_solve hands
    over.  Each step shrinks the error by a factor of at most
    (theta/bound)/(2 + theta/bound) < 1, with bound = theta_bound(w, beta).
    Stops by the shared rule of _solve, reading only tau and max_inner
    from cfg, the run's SolverConfig.  Returns (solution, iterations).
    """
    return _solve(system.iterates(v, s, u), u, cfg)


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

    def __init__(self, w: WeightField, beta: float, kappa: float):
        super().__init__(w, beta, kappa)
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

    def iterates(self, v: np.ndarray, s: np.ndarray, u: np.ndarray):
        """Endless generator of the (n, n) image U + delta after each forward sweep.

        Sweeps (I - beta*theta*Lap_w) delta = b for the change delta = X - U
        from 0, with b = _change_rhs(v, s, U), each row divided by its
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
        b = self._change_rhs(v, s, u)
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


def gauss_seidel_solve(v, s, u, cfg, system: GaussSeidelSystem):
    """Forward Gauss-Seidel sweeps on the same system, lexicographic order.

    Solves (I - beta*theta*Lap_w) X = v + s + beta*theta*div_w(grad_w U)
    for the change X - U from 0, on b = (s + v) - U, with s the (n, n)
    divergence term that wsb_solve hands over, each row divided by its
    diagonal and applying neither grad_w nor div_w; valid for any
    theta > 0 thanks to strict diagonal dominance.  The first sweep starts from b/diag, later
    ones add the previous sweep's east and south neighbours to it.  system,
    the GaussSeidelSystem that holds the weights, beta and theta, yields
    the iterates U + delta; it holds the sweeps' buffers too, so it must
    serve one solve at a time.  Stops by the shared rule of _solve,
    reading only tau and max_inner from cfg, the run's SolverConfig.
    Returns (solution, sweeps).
    """
    return _solve(system.iterates(v, s, u), u, cfg)


# Names only: wsb_solve and forward_backward._build_system call each
# solver and system by its module-global name, so that a wrapper bound to
# that name (a tracer, say) sees every call.
INNER_SOLVERS = ("fwsb", "gauss_seidel")


def wsb_solve(v: np.ndarray, cfg, system: FwsbSystem | GaussSeidelSystem):
    """Split-Bregman loop for the backward subproblem.

    Carries U, the Bregman field e, stacked as one (2, n, n) array, and its
    divergence q = div_w(e), one (n, n) image; neither the auxiliary field
    d nor the residual r = d - e is formed.  Each sweep hands the linear
    solve (v, s, U) with the divergence term s = beta*theta*div_w(r -
    grad_w(U)), an (n, n) image, and shrinks the shifted differences
    z = grad_w(U) + e at the level lam/theta: the new e is cut(z), so
    r - grad_w(U) = (z - 2e) - (z - e_prev) = e_prev - 2e, and the next
    s is beta*theta*((q_prev - q) - q).  Starts from U = v with
    e = r = 0, so q = 0 and s = -beta*theta*div_w(grad_w(v)).  e and the
    gradient buffer are allocated once per call and updated in place:
    once the solve has returned, the buffer is spent; its second plane
    takes U's change for the stopping test, grad_w(U) fills it, e absorbs
    it and cut clamps e, and the new s goes into its first plane.
    system is the inner solver's prepared system, which holds the weights
    w, theta and beta*theta, and its type picks the linear solver,
    fwsb_linear_solve or gauss_seidel_solve, whatever cfg.inner says; both
    take the same arguments.  The loop looks up the solver, grad_w, div_w
    and cut as module-global names, so a wrapper bound to a name (a
    tracer, say) sees every call.  A call of k sweeps runs k linear
    solves, k grad_w and k div_w, counting the grad_w(v) and div_w of the
    cold start, and k - 1 cut: the last sweep returns before it shrinks,
    since its shrink could not reach U.  It stops once U's relative change
    falls below tau (or max_outer is hit), testing from the second sweep
    on: the first, with e = r = 0, only smooths v toward the quadratic
    penalty's solution, and when the linear solve stops after one step its
    change can fall below tau before any shrinkage has entered U.  cfg is
    the run's forward_backward.SolverConfig, of which wsb_solve and the
    linear solves read only lam, tau, max_outer and max_inner.  Returns
    (U, total inner iterations, outer sweeps).
    """
    w, bt = system.w, system.bt
    lvl = cfg.lam / system.theta
    solve = fwsb_linear_solve if isinstance(system, FwsbSystem) else gauss_seidel_solve
    e = np.zeros((2, *v.shape))
    q = 0.0  # div_w(e) of e = 0
    g = grad_w(v, w)
    s = -bt * div_w(g, w)
    u = v
    total_inner = 0
    for outer in range(1, cfg.max_outer + 1):
        x, m = solve(v, s, u, cfg, system)
        total_inner += m
        # g is spent: its second plane takes U's change for the test
        if outer == cfg.max_outer or (outer > 1 and _rel_change_done(
                _norm(np.subtract(x, u, out=g[1])), _norm(u), cfg.tau)):
            return x, total_inner, outer
        u = x
        grad_w(x, w, out=g)
        e += g
        cut(e, lvl, out=e)
        q_new = div_w(e, w)
        s = np.subtract(q, q_new, out=g[0])
        s -= q_new
        s *= bt
        q = q_new
