"""Shrinkage operators, the inner linear solvers, and the split Bregman loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    direct_solve,
    gauss_seidel_step,
    laplacian_matrix,
    objective_backward,
    record_changes,
    residual_form_wsb,
    system_matrix,
)
import wtv.bregman
from wtv.bregman import (
    FwsbSystem,
    GaussSeidelSystem,
    cut,
    fwsb_linear_solve,
    gauss_seidel_solve,
    soft,
    theta_bound,
    wsb_solve,
)
from wtv.errors import ConfigError
from wtv.forward_backward import SolverConfig
from wtv.grid import WeightField, _stencil_coeffs, div_w, grad_w, unit_weights, weighted_tv


class TestSoftCut:
    def test_soft_examples(self):
        assert soft(2.5, 1.0) == 1.5
        assert soft(-0.5, 1.0) == 0.0
        assert soft(-2.5, 1.0) == -1.5

    def test_soft_zero_threshold_identity(self, rng):
        z = rng.normal(size=64)
        assert np.array_equal(soft(z, 0.0), z)

    def test_cut_examples(self):
        assert cut(2.5, 1.0) == 1.0
        assert cut(0.5, 1.0) == 0.5
        assert cut(-2.5, 1.0) == -1.0

    def test_cut_into_out(self, rng):
        z = rng.normal(size=(2, 5, 5))
        out = np.full_like(z, np.nan)
        assert cut(z, 0.5, out=out) is out
        assert out.tobytes() == cut(z, 0.5).tobytes()
        assert cut(z, 0.5, out=z) is z  # in place
        assert z.tobytes() == out.tobytes()

    def test_identity_random_pairs(self, rng):
        for _ in range(1000):
            z = rng.normal() * 10.0 ** rng.integers(-3, 4)
            lam = abs(rng.normal()) * 10.0 ** rng.integers(-3, 4)
            total = soft(z, lam) + cut(z, lam)
            assert total == z or abs(total - z) <= np.spacing(abs(z))

    @given(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_identity_property(self, z, lam):
        total = soft(z, lam) + cut(z, lam)
        assert abs(total - z) <= np.spacing(max(abs(z), 1e-300))


class TestThetaBound:
    def test_unit_weights(self):
        w = unit_weights(8)
        assert theta_bound(w, 1.0) == pytest.approx(1.0 / 8.0, rel=1e-15)
        assert theta_bound(w, 0.5) == pytest.approx(1.0 / 4.0, rel=1e-15)

    def test_definition_identity(self, random_weights):
        from wtv.grid import laplacian_inf_norm

        w = random_weights(16)
        beta = 0.7
        assert theta_bound(w, beta) * beta * laplacian_inf_norm(w) == pytest.approx(1.0, rel=1e-14)

    def test_one_pixel_grid_has_no_bound(self):
        # no neighbours, so the weighted Laplacian is zero
        with pytest.raises(ConfigError, match="Laplacian is zero"):
            theta_bound(unit_weights(1), 0.9)

    @pytest.mark.parametrize("scale", [1.0, 1e-10], ids=["overflows", "underflows"])
    def test_subnormal_beta_is_named(self, scale):
        # 1/(beta*||Lap_w||_inf) overflows, or beta*||Lap_w||_inf underflows
        # to 0 where the weights are small too: the error names beta, not
        # the theta derived from the bound
        w = WeightField(np.full((8, 8), scale), np.full((8, 8), scale))
        with pytest.raises(ConfigError, match="beta=1e-320 is too small"):
            theta_bound(w, 1e-320)


@pytest.mark.parametrize("system_type", [FwsbSystem, GaussSeidelSystem])
class TestSystemValidation:
    # theta = kappa*theta_bound(w, beta); theta = 0 would leave wsb_solve's
    # shrink level lam/theta undefined.  At beta = 0.9 the bound is below
    # 0.5, so kappa = 5e-324 underflows theta to 0; at beta = 1e-3 it is
    # above 2, so kappa = 1e308 overflows theta to inf
    @pytest.mark.parametrize("beta, kappa, named", [
        (0.0, 0.9, "beta"), (-0.9, 0.9, "beta"), (0.9, -1.0, "theta"), (0.9, 0.0, "theta"),
        (0.9, np.nan, "theta"), (0.9, np.inf, "theta"), (0.9, 5e-324, "theta"),
        (1e-3, 1e308, "theta"),
    ], ids=["beta_zero", "beta_negative", "theta_negative", "theta_zero", "theta_nan",
            "theta_inf", "theta_underflows", "theta_overflows"])
    def test_rejects_bad_beta_and_theta(self, random_weights, system_type, beta, kappa, named):
        w = random_weights(8)
        if named == "theta":
            assert not 0.5 < theta_bound(w, beta) < 2.0
        with pytest.raises(ConfigError, match=named):
            system_type(w, beta, kappa)

    def test_theta_is_kappa_times_bound(self, random_weights, system_type):
        w = random_weights(8)
        system = system_type(w, 0.7, 0.9)
        assert system.bound == theta_bound(w, 0.7)
        assert system.theta == 0.9 * theta_bound(w, 0.7)
        assert system.bt == 0.7 * system.theta


def _random_system(rng, system):
    """Right-hand side and start x0 of a linear solve on system from random fields.

    Draws the start, the auxiliary fields dx, dy, the Bregman fields ex, ey
    and then v.  The right-hand side is v + beta*theta*div_w(r), r = d - e,
    with the system's w and beta*theta; c is its value, for the dense
    solve.  The linear solvers take it as v and the (n, n) divergence term
    s = beta*theta*div_w(r - grad_w(x0)) that wsb_solve hands over.
    Returns (c, x0, v, s).
    """
    w, bt = system.w, system.bt
    x0, dx, dy, ex, ey, v = (rng.normal(size=(w.n, w.n)) for _ in range(6))
    r = np.stack((dx - ex, dy - ey))
    return v + bt * div_w(r, w), x0, v, bt * div_w(r - grad_w(x0, w), w)


def _solve(linear_solve, instance, p, system):
    """linear_solve on an instance of _random_system."""
    _, x0, v, s = instance
    return linear_solve(v, s, x0, p, system)


def _reference_rhs(v, s, u):
    """(s + v) - u, the right-hand side of the change X - u, in the
    prepared systems' order of operations."""
    return s + v - u


def _reference_rule(iterates, u, p):
    """The linear solvers' stopping rule over iterates drawn from u: the
    relative change against tau, with an absolute fallback, or max_inner."""
    prev = u
    for m, x in enumerate(iterates, 1):
        diff, ref = np.linalg.norm(x - prev), np.linalg.norm(prev)
        if m == p.max_inner or ((diff <= p.tau * ref) if ref >= 1e-14 else (diff <= p.tau)):
            return x, m
        prev = x


def _reference_fwsb(v, s, u, system, omega):
    """Iterates of the fixed-point iteration relaxed by omega, from u.

    X <- X + omega*(s - beta*theta*div_w(grad_w(X - u)) + v - X) through
    grad_w and div_w, with the system's w and beta*theta: the relaxed step
    on the change X - u, whose right-hand side is (s + v) - u.  omega = 1
    is the paper's unit step.
    """
    w, bt = system.w, system.bt
    x, t = u, s
    while True:
        x = x + omega * (t + v - x)
        yield x
        t = s - bt * div_w(grad_w(x - u, w), w)


def _reference_gauss_seidel(v, s, u, system, rhs=_reference_rhs):
    """Iterates of lexicographic Gauss-Seidel in correction form, from u.

    Each step forms the residual r = rhs(v, t, X), (t + v) - X with
    t = s - beta*theta*div_w(grad_w(X - u)) through grad_w and div_w on
    system's w and beta*theta, solves (D + L) y = r by forward
    substitution one pixel at a time from y = 0, each row divided by its
    diagonal: pixel (i, j) takes (r/diag + cw'*yW) + cn'*yN with
    c' = beta*theta*c/diag, and steps to X + y.
    """
    w, n, bt = system.w, u.shape[0], system.bt
    ce, cw, cs, cn = _stencil_coeffs(w)
    diag = 1.0 + bt * (ce + cw + cs + cn)
    cw, cn = (bt * c / diag for c in (cw, cn))
    x, t = u, s
    while True:
        r = rhs(v, t, x) / diag
        y = np.zeros((n + 2, n + 2))  # zero ring: reads beyond the grid
        for i, j in np.ndindex(n, n):
            y[i + 1, j + 1] = r[i, j] + cw[i, j] * y[i + 1, j] + cn[i, j] * y[i, j + 1]
        x = x + y[1:-1, 1:-1]
        yield x
        t = s - bt * div_w(grad_w(x - u, w), w)


def _reference_wsb(v, system, p, linear_solve):
    """The split-Bregman loop written out with cut around linear_solve(v, s, x0).

    linear_solve solves for v + s + beta*theta*div_w(grad_w(x0)), with the
    divergence term s = beta*theta*div_w(r - grad_w(U)), on system's w,
    theta and beta*theta.  The Bregman field is kept as (ex, ey) and its
    divergence as q.  s starts at -beta*theta*div_w(grad_w(v)) and after
    each shrink is beta*theta*((q_prev - q) - q).  Every sweep shrinks,
    the last one too.
    """
    w, bt, lvl = system.w, system.bt, p.lam / system.theta
    u = v.copy()
    ex = ey = q = np.zeros_like(v)
    s = -bt * div_w(grad_w(v, w), w)
    total = 0
    for sweep in range(1, p.max_outer + 1):
        x, m = linear_solve(v, s, u)
        total += m
        gx, gy = grad_w(x, w)
        ex, ey = cut(ex + gx, lvl), cut(ey + gy, lvl)
        q_new = div_w(np.stack((ex, ey)), w)
        s = bt * ((q - q_new) - q_new)
        q = q_new
        diff, ref = np.linalg.norm(x - u), np.linalg.norm(u)
        u = x
        if sweep > 1 and ((diff <= p.tau * ref) if ref >= 1e-14 else (diff <= p.tau)):
            break
    return u, total, sweep


def _relaxed_contraction(rng, w, beta, factor):
    """(gmean, rho, omega) of a relaxed solve at kappa = factor.

    gmean is the geometric mean of the residual ratios of one
    fwsb_linear_solve run to tau = 1e-13 on a _random_system instance, rho
    the spectral radius of the unit step's iteration matrix
    beta*theta*Lap_w, from the dense matrix, and omega the system's own
    relaxation factor.
    """
    system = FwsbSystem(w, beta, factor)
    rho = beta * system.theta * float(np.max(np.abs(np.linalg.eigvalsh(laplacian_matrix(w)))))
    instance = _random_system(rng, system)
    residuals = record_changes(system)
    _solve(fwsb_linear_solve, instance, SolverConfig(lam=0.1, tau=1e-13, max_inner=200), system)
    ratios = [b / a for a, b in zip(residuals, residuals[1:]) if a > 1e-13]
    return float(np.exp(np.mean(np.log(ratios)))), rho, system.omega


# (prepared system, linear solver) of each inner solver
SOLVERS = [(FwsbSystem, fwsb_linear_solve), (GaussSeidelSystem, gauss_seidel_solve)]
SOLVER_IDS = ["fwsb", "gauss_seidel"]


class TestInnerSolvers:
    def test_near_identity_limit(self, rng, random_weights):
        # beta*theta -> 0 makes the system matrix approach I, so X -> b = v,
        # under both solvers; beta*theta = kappa/||Lap_w||_inf
        w = random_weights(8)
        v = rng.normal(size=(8, 8))
        p = SolverConfig(lam=0.1, tau=1e-13, max_inner=50)
        for system_type, linear_solve in SOLVERS:
            system = system_type(w, 1e-3, 1e-14)
            # r = 0, so s = beta*theta*div_w(r - grad_w(v))
            s = -system.bt * div_w(grad_w(v, w), w)
            x, m = linear_solve(v, s, v, p, system)
            assert np.allclose(x, v, atol=1e-10)

    @pytest.mark.parametrize("system_type, linear_solve", SOLVERS, ids=SOLVER_IDS)
    def test_matches_dense_direct(self, rng, random_weights, system_type, linear_solve):
        w = random_weights(16)
        beta = 0.5
        p = SolverConfig(lam=0.1, tau=1e-12, max_inner=500)
        system = system_type(w, beta, 0.9)
        instance = _random_system(rng, system)
        ref = direct_solve(instance[0], system)
        x, m = _solve(linear_solve, instance, p, system)
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)
        assert 0 < m <= 500

    def test_solvers_agree_with_each_other(self, rng, random_weights):
        w = random_weights(12)
        beta = 0.9
        p = SolverConfig(lam=0.2, tau=1e-11, max_inner=500)
        system = FwsbSystem(w, beta, 0.5)
        instance = _random_system(rng, system)
        xf, _ = _solve(fwsb_linear_solve, instance, p, system)
        xg, _ = _solve(gauss_seidel_solve, instance, p, GaussSeidelSystem(w, beta, 0.5))
        assert np.allclose(xf, xg, atol=1e-8)

    @pytest.mark.parametrize("factor", [2.0, 5.0])
    def test_fwsb_contracts_beyond_unit_step_bound(self, rng, random_weights, factor):
        # at kappa = factor, theta = factor * theta_bound, the unit step's
        # iteration matrix beta*theta*Lap_w has spectral radius rho above
        # 1, so the unit step
        # diverges, yet the relaxed step still contracts within its radius
        gmean, rho, omega = _relaxed_contraction(rng, random_weights(16), 0.5, factor)
        assert rho > 1.0
        assert gmean <= max(1 - omega, abs(1 - omega - omega * rho)) + 0.05

    @pytest.mark.parametrize("n", [5, 16, 47])
    @pytest.mark.parametrize("tau, max_inner", [(1e-8, 500), (1e-14, 3)])
    def test_fwsb_matches_reference_loop(self, rng, random_weights, n, tau, max_inner):
        # the step applies grad_w and div_w in the reference's order, so
        # iterate and count agree bit for bit
        w = random_weights(n)
        beta = 0.9
        p = SolverConfig(lam=0.1, tau=tau, max_inner=max_inner)
        system = FwsbSystem(w, beta, 0.9)
        _, x0, v, s = _random_system(rng, system)
        x, m = fwsb_linear_solve(v, s, x0, p, system)
        x_ref, m_ref = _reference_rule(_reference_fwsb(v, s, x0, system, system.omega), x0, p)
        assert m == m_ref
        assert (m < max_inner) == (max_inner == 500)
        assert np.array_equal(x.view(np.int64), x_ref.view(np.int64))

    def test_fwsb_residual_contraction(self, rng, random_weights):
        # residual ratios stay at or below the relaxed step's spectral
        # radius, max(1 - omega, |1 - omega - omega*rho|), with rho that of
        # the unit step's iteration matrix beta*theta*Lap_w
        gmean, rho, omega = _relaxed_contraction(rng, random_weights(16), 0.5, 0.9)
        assert rho < 1.0
        assert gmean <= max(1 - omega, abs(1 - omega - omega * rho)) + 0.05

    @pytest.mark.parametrize("n", [2, 3, 5, 40, 47])
    @pytest.mark.parametrize("tau, max_inner", [(1e-8, 500), (1e-14, 3)])
    def test_gauss_seidel_bitwise_equals_reference_loop(
        self, rng, random_weights, n, tau, max_inner
    ):
        # the anti-diagonal sweep must reproduce the pixel-by-pixel loop
        # exactly, iterate and count, down to the one-pixel corner diagonals
        w = random_weights(n)
        beta = 0.9
        p = SolverConfig(lam=0.1, tau=tau, max_inner=max_inner)
        system = GaussSeidelSystem(w, beta, 0.7)
        _, x0, v, s = _random_system(rng, system)
        x, m = gauss_seidel_solve(v, s, x0, p, system)
        x_ref, m_ref = _reference_rule(_reference_gauss_seidel(v, s, x0, system), x0, p)
        assert m == m_ref
        assert (m < max_inner) == (max_inner == 500)
        assert np.array_equal(x.view(np.int64), x_ref.view(np.int64))

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 32])
    def test_gauss_seidel_sweeps_match_dense_step(self, rng, random_weights, n):
        # the per-pixel reference above is written in the sweep's own
        # scaled order, so a mistake in that order would pass it; the dense
        # lexicographic step shares neither order nor arithmetic.  The
        # first three sweeps from delta = 0 agree with it to rounding, down
        # to the one-pixel corner diagonals.  U = 0, so each iterate is
        # delta itself, and the right-hand side is v + s
        w = random_weights(n)
        beta = 0.9
        system = GaussSeidelSystem(w, beta, 0.7)
        _, _, v, s = _random_system(rng, system)
        c = (v + s).ravel()
        a = system_matrix(w, beta, system.theta)
        delta = np.zeros(n * n)
        for _, x in zip(range(3), system.iterates(v, s, np.zeros((n, n)))):
            delta = gauss_seidel_step(a, c, delta)
            assert np.linalg.norm(x.ravel() - delta) <= 1e-13 * np.linalg.norm(delta)

    @pytest.mark.parametrize("system_type", [FwsbSystem, GaussSeidelSystem])
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 32])
    def test_steps_from_nonzero_start_match_dense_step(self, rng, random_weights, system_type, n):
        # from U = 0 the test above never checks a later step's residual
        # s - beta*theta*div_w(grad_w(X - U)) + v - X.  From a random U,
        # the first three steps of both solvers (max_inner = 3) agree to
        # rounding with the dense step X + M^-1 (c - A X) on the full
        # right-hand side c, which shares neither the correction form nor
        # the operators: M = tril(A) for Gauss-Seidel, M^-1 = omega*I for
        # the relaxed splitting.  The changes X - U are compared
        w = random_weights(n)
        beta = 0.9
        system = system_type(w, beta, 0.7)
        c, x0, v, s = _random_system(rng, system)
        a = system_matrix(w, beta, system.theta)
        precondition = {
            GaussSeidelSystem: lambda r: np.linalg.solve(np.tril(a), r),
            FwsbSystem: lambda r: system.omega * r,
        }[system_type]
        x_dense = x0.ravel()
        for _, x in zip(range(3), system.iterates(v, s, x0)):
            x_dense = x_dense + precondition(c.ravel() - a @ x_dense)
            delta = x_dense - x0.ravel()
            assert np.linalg.norm((x - x0).ravel() - delta) <= 1e-13 * np.linalg.norm(delta)

    @pytest.mark.parametrize("n, zero", [(3, -0.0), (8, -0.0), (3, 0.0), (8, 0.0)],
                             ids=["underflow-3", "underflow-8", "underflow-plus-zero-3",
                                  "underflow-plus-zero-8"])
    def test_gauss_seidel_signed_zeros_equal_reference_loop(self, random_weights, n, zero):
        # U = -0.0 adds nothing to any correction y, signed zeros included.
        # The residual r alternates the smallest negative subnormal with a
        # zero, so products underflow to -0.0.  With -0.0, a pixel whose
        # west and north terms are -0.0 keeps a -0.0 sum only if the sum
        # starts from r/diag itself, not from a +0.0 that r/diag is added
        # to.  With +0.0, an interior pixel's sum is +0.0 only if its
        # r/diag stays +0.0, since its other terms are all -0.0.  A
        # residual of random +-0.0 adds no check to these: the zero padding
        # makes every boundary sum +0.0, and the +0.0 spreads to every
        # pixel.
        # The iterates are drawn from the system directly: the stopping
        # rule would end at the first, whose change is below any tau.  The
        # residual of every step is substituted, on both sides: (t + v) - X
        # with X = -0.0 adds +0.0, so none formed from (v, t, X) holds a
        # -0.0 pattern.  v and s are real arrays, so each step after the
        # first still forms t through grad_w and div_w
        w = random_weights(n)
        beta = 0.9
        system = GaussSeidelSystem(w, beta, 0.7)
        u, v, s = np.full((n, n), -0.0), np.zeros((n, n)), np.zeros((n, n))
        i, j = np.indices((n, n))
        b = np.where((i + j) % 2, -5e-324, zero)

        def rhs(v, t, x):
            return b

        system._change_rhs = rhs
        pairs = zip(system.iterates(v, s, u), _reference_gauss_seidel(v, s, u, system, rhs))
        for _, (x, x_ref) in zip(range(3), pairs):
            assert np.array_equal(x.view(np.int64), x_ref.view(np.int64))

    @pytest.mark.parametrize("system_type, linear_solve", SOLVERS, ids=SOLVER_IDS)
    @pytest.mark.parametrize("tau, max_inner", [(1e-10, 300), (1e-8, 5)])
    def test_system_serves_consecutive_solves(
        self, rng, random_weights, system_type, linear_solve, tau, max_inner
    ):
        # nothing a solve leaves in the system may reach the next solve
        n = 9
        w = random_weights(n)
        beta = 0.9
        p = SolverConfig(lam=0.1, tau=tau, max_inner=max_inner)
        shared = system_type(w, beta, 0.7)
        for _ in range(3):
            instance = _random_system(rng, shared)
            x, m = _solve(linear_solve, instance, p, shared)
            x_new, m_new = _solve(linear_solve, instance, p, system_type(w, beta, 0.7))
            assert m == m_new
            assert np.array_equal(x.view(np.int64), x_new.view(np.int64))

    def test_direct_solve_gate(self, random_weights):
        system = GaussSeidelSystem(random_weights(33), 0.9, 0.9)
        v = np.zeros((33, 33))
        with pytest.raises(ConfigError):
            direct_solve(v, system)

    def test_warm_start_zero_iterations_needed(self, rng, random_weights):
        # starting exactly at the solution stops after one cheap pass
        w = random_weights(12)
        beta = 0.5
        p = SolverConfig(lam=0.1, tau=1e-10, max_inner=300)
        system = FwsbSystem(w, beta, 0.9)
        c, x0, v, s = _random_system(rng, system)
        x1, m1 = fwsb_linear_solve(v, s, x0, p, system)
        # the same right-hand side from x1: s + beta*theta*div_w(grad_w(x0))
        # is beta*theta*div_w(r)
        s1 = s + system.bt * div_w(grad_w(x0 - x1, w), w)
        x2, m2 = fwsb_linear_solve(v, s1, x1, p, system)
        assert m2 <= 2
        assert np.allclose(x2, x1, atol=1e-8)


class TestDiagonalDominance:
    def test_assembled_small_instances(self, random_weights):
        for theta in (0.01, 0.05, 0.2):
            w = random_weights(8)
            a = system_matrix(w, beta=0.9, theta=theta)
            diag = np.abs(np.diag(a))
            off = np.sum(np.abs(a), axis=1) - diag
            assert np.all(off < diag)


class TestWsbSolve:
    def test_lambda_zero_returns_v(self, rng, random_weights):
        w = random_weights(12)
        beta = 0.9
        tau = 1e-6
        p = SolverConfig(lam=0.0, tau=tau, max_outer=200, max_inner=200)
        v = rng.normal(size=(12, 12))
        u, total_inner, outer = wsb_solve(v, p, FwsbSystem(w, beta, 0.5))
        assert np.linalg.norm(u - v) <= 10 * tau * np.linalg.norm(v)

    def test_zero_input_zero_output(self, random_weights):
        w = random_weights(8)
        system = FwsbSystem(w, 0.9, 0.5)
        u, _, _ = wsb_solve(np.zeros((8, 8)), SolverConfig(lam=0.3, max_inner=50), system)
        assert np.all(u == 0)

    def test_objective_not_above_start(self, rng, random_weights):
        for seed in range(5):
            local = np.random.default_rng(seed)
            w = random_weights(12)
            beta = 0.9
            p = SolverConfig(lam=0.15, tau=1e-6, max_outer=100, max_inner=100)
            v = local.normal(size=(12, 12))
            u, _, _ = wsb_solve(v, p, FwsbSystem(w, beta, 0.5))
            assert objective_backward(u, v, w, 0.15, beta) <= objective_backward(
                v, v, w, 0.15, beta
            )

    def test_ramp_flattens_under_strong_penalty(self, rng):
        # TV shrinkage pulls a smooth ramp toward piecewise constancy
        n = 16
        w = unit_weights(n)
        ramp = np.tile(np.linspace(0.0, 1.0, n), (n, 1))
        beta = 0.9
        p = SolverConfig(lam=2.0, tau=1e-8, max_outer=200, max_inner=200)
        u, _, _ = wsb_solve(ramp, p, FwsbSystem(w, beta, 0.5))
        assert weighted_tv(u, w) < 0.6 * weighted_tv(ramp, w)
        assert objective_backward(u, ramp, w, 2.0, beta) <= objective_backward(
            ramp, ramp, w, 2.0, beta
        )

    @pytest.mark.parametrize("system_type", [GaussSeidelSystem, FwsbSystem])
    @pytest.mark.parametrize("tau, max_outer", [(1e-12, 4), (1e-4, 300)])
    def test_loop_bitwise_equals_reference(
        self, rng, random_weights, tau, max_outer, system_type
    ):
        # pins the loop's bookkeeping against a reference loop that shares
        # no code with it: which fields enter the right-hand side, in which
        # order, and what each sweep and solve counts.  At this lam about a
        # third of the differences end above the shrink level, so both
        # sides of cut run
        w = random_weights(8)
        beta = 0.9
        p = SolverConfig(lam=0.03, tau=tau, max_outer=max_outer, max_inner=100)
        v = rng.normal(size=(8, 8))
        system = system_type(w, beta, 0.5)
        u, total_inner, sweeps = wsb_solve(v, p, system)
        iterates = {
            GaussSeidelSystem: lambda v, s, x0: _reference_gauss_seidel(v, s, x0, system),
            FwsbSystem: lambda v, s, x0: _reference_fwsb(v, s, x0, system, system.omega),
        }[system_type]

        def linear_solve(v, s, x0):
            return _reference_rule(iterates(v, s, x0), x0, p)

        u_ref, total_ref, sweeps_ref = _reference_wsb(v, system, p, linear_solve)
        assert (sweeps == max_outer) == (max_outer == 4)
        assert (sweeps, total_inner) == (sweeps_ref, total_ref)
        assert np.array_equal(u.view(np.int64), u_ref.view(np.int64))

    @pytest.mark.parametrize("system_type", [FwsbSystem, GaussSeidelSystem])
    @pytest.mark.parametrize("tau, max_outer", [(1e-4, 300), (1e-12, 4)],
                             ids=["tau_stop", "max_outer_stop"])
    def test_last_sweep_skips_the_shrink(
        self, monkeypatch, rng, random_weights, tau, max_outer, system_type
    ):
        # the shrink after the last sweep could not reach the returned U,
        # so a call of k sweeps runs cut k - 1 times, however it stops
        calls = []

        def counting_cut(*args, **kwargs):
            calls.append(1)
            return cut(*args, **kwargs)

        monkeypatch.setattr(wtv.bregman, "cut", counting_cut)
        p = SolverConfig(lam=0.03, tau=tau, max_outer=max_outer, max_inner=100)
        system = system_type(random_weights(8), 0.9, 0.5)
        _, _, sweeps = wsb_solve(rng.normal(size=(8, 8)), p, system)
        assert (sweeps == max_outer) == (max_outer == 4)
        assert sweeps > 1
        assert len(calls) == sweeps - 1

    def test_inner_choices_converge_to_same_point(self, rng, random_weights):
        w = random_weights(12)
        beta = 0.9
        tau = 1e-8
        p = SolverConfig(lam=0.1, tau=tau, max_outer=300, max_inner=300)
        v = rng.normal(size=(12, 12))
        u_f, _, _ = wsb_solve(v, p, FwsbSystem(w, beta, 0.5))
        u_g, _, _ = wsb_solve(v, p, GaussSeidelSystem(w, beta, 0.5))
        assert np.linalg.norm(u_f - u_g) <= 10 * tau * np.linalg.norm(u_g)

    @pytest.mark.parametrize("system_type", [FwsbSystem, GaussSeidelSystem])
    @pytest.mark.parametrize("max_inner", [1, 3, 50])
    def test_matches_residual_form_oracle(self, rng, random_weights, system_type, max_inner):
        # the carried q = div_w(e) and the correction-form solves give
        # the textbook residual-form loop's iterates up to rounding: the
        # same sweeps and inner iterations, and U to 1e-12 relative
        w = random_weights(8)
        beta = 0.9
        system = system_type(w, beta, 0.5)
        p = SolverConfig(lam=0.03, tau=1e-6, max_outer=300, max_inner=max_inner)
        v = rng.normal(size=(8, 8))
        u, total_inner, sweeps = wsb_solve(v, p, system)
        u_ref, total_ref, sweeps_ref = residual_form_wsb(
            v, system, p, relaxed=system_type is FwsbSystem
        )
        assert sweeps < p.max_outer
        assert (sweeps, total_inner) == (sweeps_ref, total_ref)
        assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)

    def test_working_set_of_one_backward_step(self, rng, random_weights):
        # a default call at 64x64 peaks at 9.5 image-sized arrays above its
        # start at most (measured: 8.07): U, the solve's iterate and
        # right-hand side, the stacked e and gradient buffer, q and the new
        # div_w(e) with div_w's scratch, and passing temporaries.
        # tracemalloc sees numpy's buffers, so the count is exact and
        # noise-free
        n = 64
        w = random_weights(n)
        system = FwsbSystem(w, 0.9, 0.9)
        p = SolverConfig(lam=0.03)
        v = rng.normal(size=(n, n))
        wsb_solve(v, p, system)  # numpy's own first-call allocations
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            wsb_solve(v, p, system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - start) / v.nbytes <= 9.5


class TestObjectiveBackward:
    def test_constant_at_v_zero(self, random_weights):
        w = random_weights(8)
        v = np.full((8, 8), 1.3)
        assert objective_backward(v, v, w, 0.5, 0.9) == 0.0

    def test_zero_u(self, rng, random_weights):
        w = random_weights(8)
        v = rng.normal(size=(8, 8))
        beta = 0.7
        expect = float(np.sum(v * v)) / (2.0 * beta)
        assert objective_backward(np.zeros((8, 8)), v, w, 0.5, beta) == pytest.approx(
            expect, rel=1e-14
        )
