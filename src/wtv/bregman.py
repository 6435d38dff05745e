"""Weighted split-Bregman solver for the backward (proximal) subproblem.

The subproblem is

    argmin_u  lam * (||gx_w u||_1 + ||gy_w u||_1) + 1/(2 beta) ||u - v||^2,

handled by splitting the weighted differences into auxiliary fields with
Bregman variables.  Each outer sweep takes a linear solve of

    (I - beta*theta*Lap_w) U = v + beta*theta*div_w(d - e),  Lap_w = -div_w(grad_w(.)),

then shrinks.  wsb_solve carries the two fields of that right-hand side,
each stacked as one (2, n, n) array: the Bregman field e and the
residual r = d - e of the auxiliary field d.  Since d = soft(z) =
z - cut(z), one cut per sweep updates both, and d itself is never
formed.  The fields, grad_w(U) and the step U_new - U live in buffers
allocated once per call, which grad_w and cut fill through their out=
arguments.  Each linear solve runs on a prepared system, built once per
weight field, that holds the weights w, theta and beta*theta.  Both
kinds of system offer one method, iterates: an endless generator of the
flattened iterate after each step from x0.  The loop's own settings,
lam, tau and the iteration caps, are fields of the run's
forward_backward.SolverConfig, the one settings object of a solve; this
module reads no other field of it.  Two interchangeable linear solvers
are provided:

* fwsb_linear_solve: relaxed fixed-point iteration
  X <- X + omega*(v + beta*theta*div_w(r - grad_w X) - X) from the
  identity splitting of the system matrix, written with the sweep's own
  two operators; no stencil is kept.  omega is Richardson's optimal
  relaxation for the Gershgorin interval [1, 1 + theta/bound] of the
  system matrix, 2/(2 + theta/bound) with bound = theta_bound(w, beta):
  it shrinks the largest error factor per step from theta/bound (the unit
  step's slowest mode, which flips sign every step) to
  (theta/bound)/(2 + theta/bound), so a solve cut off after any number of
  steps, one included, hands the Bregman loop no wrong-signed error to
  feed back.  A solve starts from U with grad_w(U) handed in: the
  previous sweep's shrink has computed it (grad_w(v) once per call for
  the first sweep), so at one step per sweep a sweep runs one div_w, one
  grad_w and one cut and forms no right-hand side.  That is the
  linearised Bregman, or split inexact Uzawa, form of the sweep (Zhang,
  Burger & Osher, J. Sci. Comput. 2011).  The relaxed step contracts for
  any theta; FwsbSystem still requires beta*theta < 1/||Lap_w||_inf
  (theta below theta_bound), the paper's condition for the unit step,
  which keeps the factor per step below 1/3.
* gauss_seidel_solve: classic forward Gauss-Seidel sweeps in lexicographic
  pixel order on c = v + beta*theta*div_w(r), which wsb_solve builds once
  per sweep.  The system is strictly diagonally dominant for any
  theta > 0, so the sweeps always converge.  Within a sweep pixel (i, j)
  reads only its west and north neighbours from the current sweep, so all
  pixels on one anti-diagonal i + j = d can be updated at once (the
  hyperplane or wavefront method, Lamport 1974).  A sweep solves
  (D - L) x_new = c + U x_old: it forms the east and south products
  (the U half, which reads only the previous iterate) in one numpy call,
  then runs one anti-diagonal at a time for the west and north half,
  applying the per-pixel arithmetic in the same order, so its iterates
  and sweep counts equal the per-pixel loop's bit for bit.

Both solvers are one call to _solve, which draws a system's iterates
until the relative change falls below tau or max_inner is reached, and
skips that test on the last allowed iteration, where it cannot change
what is returned.  wsb_solve applies the same rule to U from its second
sweep on.  wsb_solve picks the solver from the type of the
prepared system it is given.
"""

from __future__ import annotations

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

    wsb_solve does not call it: it forms soft(z) as z - cut(z).
    """
    return np.sign(z) * np.maximum(np.abs(z) - threshold, 0.0)


def cut(z, threshold, out=None):
    """Complement of soft-shrinkage: clamps z to [-threshold, threshold].

    Writes into out when given, as np.clip does.
    """
    return np.clip(z, -threshold, threshold, out=out)


def theta_bound(w: WeightField, beta: float) -> float:
    """Largest admissible penalty for the fixed-point solver: 1/(beta*||Lap_w||_inf).

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


class _System:
    """The weights w, theta and bt = beta*theta of one system I - bt*Lap_w.

    Checks beta > 0 and theta finite and >= 0, and raises ConfigError
    otherwise.  theta == 0 is the identity system.
    """

    def __init__(self, w: WeightField, beta: float, theta: float):
        if not beta > 0:
            raise ConfigError(f"beta must be positive, got {beta}")
        if not (np.isfinite(theta) and theta >= 0):
            raise ConfigError(f"theta must be finite and >= 0, got {theta}")
        self.w, self.theta, self.bt = w, theta, beta * theta


class FwsbSystem(_System):
    """The system I - beta*theta*Lap_w for fast-splitting solves.

    Besides w, theta and beta*theta (see _System), holds the relaxation
    factor omega = 2/(2 + theta/theta_bound(w, beta)); theta_bound gives
    the Gershgorin interval [1, 1 + theta/bound] from which omega is
    derived.  Building it checks theta < theta_bound(w, beta), which keeps
    theta inside the range the interval is derived for, and raises
    ConfigError otherwise; the error factor per step is then at most
    (theta/bound)/(2 + theta/bound) < 1/3.  It holds no per-pixel array of
    its own: each step applies grad_w and div_w.
    """

    def __init__(self, w: WeightField, beta: float, theta: float):
        super().__init__(w, beta, theta)
        bound = theta_bound(w, beta)
        if not theta < bound:
            raise ConfigError(
                f"theta={theta:.6g} is not below the admissible bound "
                f"theta_bound(w, beta) = {bound:.6g}"
            )
        # Richardson's optimum for the eigenvalues of I - bt*Lap_w, which
        # Gershgorin's discs place in [1, 1 + theta/bound]
        self.omega = 2.0 / (2.0 + theta / bound)

    def iterates(self, v: np.ndarray, r: np.ndarray, x0: np.ndarray, g: np.ndarray):
        """Endless generator of the flattened iterate after each relaxed step from x0.

        Each step is x <- x + omega*(v + beta*theta*div_w(r - grad_w(x)) - x),
        evaluated in that order, with r stacked (2, n, n).  g must hold
        grad_w(x0) and is overwritten: it takes r - grad_w(x) for div_w,
        then grad_w of the new iterate, which is computed only when the
        step after it is drawn.  So m steps run m div_w and m - 1 grad_w.
        Each iterate is a new array.
        """
        x = x0
        while True:
            np.subtract(r, g, out=g)
            x_new = div_w(g[0], g[1], self.w)
            x_new *= self.bt
            x_new += v
            x_new -= x
            x_new *= self.omega
            x_new += x
            x = x_new
            yield x.ravel()
            grad_w(x, self.w, out=g)


def _solve(iterates, x0: np.ndarray, cfg):
    """The stopping rule of both linear solvers.

    Draws from iterates, a system's generator started from x0, until the
    iterate's relative change falls below cfg.tau or cfg.max_inner is
    reached, cfg being the run's SolverConfig.  The test is skipped on the
    last allowed iteration, where it cannot change what is returned.
    Returns (solution, iterations).
    """
    prev = x0.ravel()
    for m, x in enumerate(iterates, 1):
        if m == cfg.max_inner or _rel_change_done(
            float(np.linalg.norm(x - prev)), float(np.linalg.norm(prev)), cfg.tau
        ):
            return x.reshape(x0.shape), m
        prev = x


def fwsb_linear_solve(v, r, x0, g, cfg, system: FwsbSystem):
    """Relaxed fixed-point solve of (I - beta*theta*Lap_w) X = v + beta*theta*div_w(r).

    Splitting the system matrix across the identity and relaxing the step
    by omega turns the solve into
    X <- X + omega*(v + beta*theta*div_w(r - grad_w X) - X), warm-started
    from x0; system, the FwsbSystem that holds the weights, beta, theta
    and omega, yields the iterates.  r is the stacked (2, n, n) field of
    the right-hand side, and g must hold grad_w(x0): wsb_solve has it from
    its shrink.  g is overwritten: the solve uses it as scratch.
    Each step shrinks the error by a factor of at most
    (theta/bound)/(2 + theta/bound), with bound = theta_bound(w, beta),
    which is below 1/3 since building the system checked theta < bound.
    Stops by the shared rule of _solve, reading only tau and max_inner
    from cfg, the run's SolverConfig.  Returns (solution, iterations).
    """
    return _solve(system.iterates(v, r, x0, g), x0, cfg)


def _sheared_image(plane: np.ndarray) -> np.ndarray:
    """The (n, n) image view of a sheared plane: pixel (i, j) is plane[i+j+1, i+1]."""
    s0, s1 = plane.strides
    n = plane.shape[1] - 2
    return as_strided(plane[1:, 1:], shape=(n, n), strides=(s0 + s1, s0))


class GaussSeidelSystem(_System):
    """Five-point system data reused across Gauss-Seidel solves.

    Besides w, theta and beta*theta (see _System), holds the
    beta*theta-scaled neighbour coefficients and the inverted diagonal of
    one weight field in sheared (2n+1, n+2) planes whose row
    d+1 holds anti-diagonal d contiguously, with zero padding for the
    neighbours beyond the boundary.  The west and north neighbours of a
    diagonal then sit in the row before it, the east and south ones in the
    row after.  A sweep forms every east and south product in one numpy
    call, since those neighbours still hold the previous iterate when
    their diagonal is reached; each diagonal then takes its west and north
    products, the sum and the scale by the inverted diagonal, in four
    numpy calls (three of them one-dimensional) through views made here
    once.

    The iterate and right-hand-side buffers live in the system too, so one
    system serves one solve at a time: starting a second iterates
    generator overwrites the first one's iterate.
    """

    def __init__(self, w: WeightField, beta: float, theta: float):
        super().__init__(w, beta, theta)
        n, bt = w.n, self.bt
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
        # test_gauss_seidel_bitwise_equals_reference_loop guards it.  Unless
        # given an initial value the reduction starts from +0.0; -0.0 leaves
        # every b unchanged, so five -0.0 terms sum to -0.0 as in the loop.
        terms = np.zeros((rows, 5, cols))
        x = np.zeros((rows, cols))
        # pairs[c, :, r] = (x[c, r], x[c, r + 1]): the east and south
        # neighbours of the pixel at x[c - 1, r]
        pairs = as_strided(
            x, shape=(rows, 2, cols - 1), strides=(x.strides[0],) + 2 * (x.strides[1],)
        )
        self._east_south = (coef[1:-1, 2:4, :-1], pairs[2:], terms[1:-1, 2::2, :-1])
        self._b = _sheared_image(terms[:, 0, :])
        self._x = _sheared_image(x)
        self._diagonals = []
        for c in range(1, 2 * n):
            lo, hi = max(1, c - n + 1), min(c, n) + 1
            self._diagonals.append((
                coef[c, 0, lo:hi], x[c - 1, lo - 1 : hi - 1], terms[c, 3, lo:hi],
                coef[c, 1, lo:hi], x[c - 1, lo:hi], terms[c, 1, lo:hi],
                terms[c, :, lo:hi], x[c, lo:hi], coef[c, 4, lo:hi],
            ))

    def iterates(self, c: np.ndarray, x0: np.ndarray):
        """Endless generator of the flattened iterate after each forward sweep from x0.

        Each sweep runs the lexicographic per-pixel sweep one anti-diagonal
        at a time, with the per-pixel arithmetic in its order, so the
        iterates equal that loop's bit for bit.  The east and south
        products are taken for all diagonals before the first is updated.
        """
        self._b[...] = c
        self._x[...] = x0
        multiply, sum_rows = np.multiply, np.add.reduce
        while True:
            multiply(*self._east_south)
            for cn, xn, tn, cw, xw, tw, t, xd, inv_diag in self._diagonals:
                multiply(cn, xn, tn)
                multiply(cw, xw, tw)
                sum_rows(t, 0, None, xd, initial=-0.0)
                multiply(xd, inv_diag, xd)
            yield self._x.flatten()


def gauss_seidel_solve(c: np.ndarray, x0: np.ndarray, cfg, system: GaussSeidelSystem):
    """Forward Gauss-Seidel sweeps on the same system, lexicographic order.

    Solves (I - beta*theta*Lap_w) X = c from x0; valid for any theta >= 0
    thanks to strict diagonal dominance.  system, the GaussSeidelSystem
    that holds the weights, beta and theta, yields the sweeps; it holds
    their buffers too, so it must serve one solve at a time.  Stops by the
    shared rule of _solve, reading only tau and max_inner from cfg, the
    run's SolverConfig.  Returns (solution, sweeps).
    """
    return _solve(system.iterates(c, x0), x0, cfg)


# Names only: wsb_solve and forward_backward._build_system call each
# solver and system by its module-global name, so that a wrapper bound to
# that name (a tracer, say) sees every call.
INNER_SOLVERS = ("fwsb", "gauss_seidel")


def wsb_solve(v: np.ndarray, cfg, system: FwsbSystem | GaussSeidelSystem):
    """Split-Bregman loop for the backward subproblem.

    Carries U, the Bregman field e and the residual r = d - e of the
    auxiliary field d, each difference field stacked as one (2, n, n)
    array; d itself is never formed.  Starts from U = v with e = r = 0.
    Each sweep solves for U from the previous U with the right-hand side
    v + beta*theta*div_w(r), and shrinks the shifted differences
    z = grad_w(U) + e at the level lam/theta: e = cut(z) and
    d = soft(z) = z - cut(z), so r = (z - e) - e, which equals
    soft(z) - cut(z) bit for bit wherever it is nonzero.  e, r, grad_w(U)
    and U's change are buffers allocated once per call, which grad_w and
    cut fill in place.
    system is the inner solver's prepared system, which holds the weights
    w, theta and beta*theta, and its type picks the linear solver, whatever
    cfg.inner says.  For an FwsbSystem the sweep hands v, r, U and
    grad_w(U), which the previous shrink left in its buffer, to
    fwsb_linear_solve, whose first step uses them as they are; grad_w(v)
    is taken once for the first sweep.  For a GaussSeidelSystem it builds
    c = v + beta*theta*div_w(r) and calls gauss_seidel_solve.  The loop
    looks the solver, div_w, grad_w and cut up as module-global names, so
    a wrapper bound to a name (a tracer, say) sees every call: per sweep
    one linear solve, one cut, one grad_w for the shrink and one div_w,
    which a one-step fast-splitting solve runs itself.  It stops once U's
    relative change falls below tau (or max_outer is hit), testing from
    the second sweep on: the first, with e = r = 0, only smooths v toward
    the quadratic penalty's solution, and when the linear solve stops
    after one step its change can fall below tau before any shrinkage
    has entered U.  cfg is the run's forward_backward.SolverConfig, of
    which wsb_solve and the linear solves read only lam, tau, max_outer
    and max_inner.  theta == 0 (the identity system) leaves the shrink
    level undefined, so it raises ConfigError unless lam == 0.  Returns
    (U, total inner iterations, outer sweeps).
    """
    if system.theta == 0 and cfg.lam != 0:
        raise ConfigError("theta == 0 requires lam == 0")
    w, bt = system.w, system.bt
    lvl = cfg.lam / system.theta if system.theta > 0 else 0.0
    u = v
    e, r, g = np.zeros((3, 2, *v.shape))
    c, step = np.empty((2, *v.shape))
    fwsb = isinstance(system, FwsbSystem)
    if fwsb:
        grad_w(v, w, out=g)
    total_inner = 0
    for outer in range(1, cfg.max_outer + 1):
        if fwsb:
            x, m = fwsb_linear_solve(v, r, u, g, cfg, system)
        else:
            div_w(r[0], r[1], w, out=c)
            c *= bt
            c += v
            x, m = gauss_seidel_solve(c, u, cfg, system)
        total_inner += m
        # z = grad_w(U) + e in r, then e = cut(z) and r = (z - e) - e; g
        # keeps grad_w(U) for the next fast-splitting step
        grad_w(x, w, out=g)
        np.add(g, e, out=r)
        cut(r, lvl, out=e)
        r -= e
        r -= e
        done = outer > 1 and _rel_change_done(
            float(np.linalg.norm(np.subtract(x, u, out=step))), float(np.linalg.norm(u)), cfg.tau
        )
        u = x
        if done:
            break
    return u, total_inner, outer
