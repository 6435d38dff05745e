"""Shrinkage operators, the inner linear solvers, and the split Bregman loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    direct_solve,
    laplacian_w,
    objective_backward,
    record_changes,
    system_matrix,
)
from wtv.bregman import (
    BregmanParams,
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
from wtv.grid import _stencil_coeffs, div_w, grad_w, unit_weights, weighted_tv
from wtv.operators import estimate_spectral_norm


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


class TestBregmanParams:
    def test_threshold_is_ratio(self):
        p = BregmanParams(lam=0.3, theta=0.06, beta=0.9)
        assert p.shrink_threshold == 0.3 / 0.06

    def test_validation(self):
        with pytest.raises(ValueError):
            BregmanParams(lam=-1.0, theta=0.1, beta=0.9)
        with pytest.raises(ValueError):
            BregmanParams(lam=0.1, theta=0.1, beta=0.0)
        with pytest.raises(ValueError):
            BregmanParams(lam=0.1, theta=0.0, beta=0.9)  # threshold undefined
        with pytest.raises(ValueError):
            BregmanParams(lam=0.1, theta=0.1, beta=0.9, tau=0.0)
        with pytest.raises(ValueError):
            BregmanParams(lam=0.1, theta=0.1, beta=0.9, tau=float("inf"))


def _random_system(rng, n, w, p):
    """Right-hand side c and start x0 of a linear solve from random fields.

    Draws the start, the auxiliary fields dx, dy, the Bregman fields ex, ey
    and then v, and builds c = v + beta*theta*div_w(dx - ex, dy - ey) as
    wsb_solve does.  Returns (c, x0, v, rx, ry) with r = d - e.
    """
    x0, dx, dy, ex, ey, v = (rng.normal(size=(n, n)) for _ in range(6))
    rx, ry = dx - ex, dy - ey
    return v + p.beta * p.theta * div_w(rx, ry, w), x0, v, rx, ry


def _reference_fwsb(v, rx, ry, x0, w, p):
    """The fixed-point iteration through grad_w and div_w, with the solver's stopping rule."""
    bt = p.beta * p.theta
    x = x0.copy()
    for m in range(1, p.max_inner + 1):
        gx, gy = grad_w(x, w)
        x_new = v + bt * div_w(rx - gx, ry - gy, w)
        diff, ref = np.linalg.norm(x_new - x), np.linalg.norm(x)
        x = x_new
        if (diff <= p.tau * ref) if ref >= 1e-14 else (diff <= p.tau):
            break
    return x, m


def _reference_gauss_seidel(b, x0, w, p):
    """Lexicographic Gauss-Seidel one pixel at a time, with the solver's stopping rule."""
    n, bt = b.shape[0], p.beta * p.theta
    ce, cw, cs, cn = _stencil_coeffs(w)
    inv_diag = 1.0 / (1.0 + bt * (ce + cw + cs + cn))
    x = np.zeros((n + 2, n + 2))  # zero ring: reads beyond the grid
    x[1:-1, 1:-1] = x0
    for m in range(1, p.max_inner + 1):
        prev = x[1:-1, 1:-1].copy()
        for i, j in np.ndindex(n, n):
            x[i + 1, j + 1] = (
                b[i, j] + bt * cw[i, j] * x[i + 1, j] + bt * ce[i, j] * x[i + 1, j + 2]
                + bt * cn[i, j] * x[i, j + 1] + bt * cs[i, j] * x[i + 2, j + 1]
            ) * inv_diag[i, j]
        diff, ref = np.linalg.norm(x[1:-1, 1:-1] - prev), np.linalg.norm(prev)
        if (diff <= p.tau * ref) if ref >= 1e-14 else (diff <= p.tau):
            break
    return x[1:-1, 1:-1].copy(), m


def _reference_wsb(v, w, p, linear_solve):
    """The split-Bregman loop written out with soft and cut around linear_solve(c, x0)."""
    bt, lvl = p.beta * p.theta, p.lam / p.theta
    u = v.copy()
    dx = dy = ex = ey = np.zeros_like(v)
    total = 0
    for sweep in range(1, p.max_outer + 1):
        x, m = linear_solve(v + bt * div_w(dx - ex, dy - ey, w), u)
        total += m
        gx, gy = grad_w(x, w)
        dx, dy, ex, ey = (
            soft(gx + ex, lvl), soft(gy + ey, lvl), cut(gx + ex, lvl), cut(gy + ey, lvl)
        )
        diff, ref = np.linalg.norm(x - u), np.linalg.norm(u)
        u = x
        if (diff <= p.tau * ref) if ref >= 1e-14 else (diff <= p.tau):
            break
    return u, total, sweep


class TestInnerSolvers:
    def test_near_identity_limit(self, rng, random_weights):
        # beta*theta -> 0 makes the system matrix approach I, so X -> b = v
        w = random_weights(8)
        v = rng.normal(size=(8, 8))
        p = BregmanParams(lam=0.1, theta=1e-12, beta=1e-3, tau=1e-13, max_inner=50)
        x, m = fwsb_linear_solve(v, v, p, FwsbSystem(w, 1e-3, 1e-12))
        assert np.allclose(x, v, atol=1e-10)

    def test_fwsb_matches_dense_direct(self, rng, random_weights):
        w = random_weights(16)
        beta = 0.5
        theta = 0.9 * theta_bound(w, beta)
        p = BregmanParams(lam=0.1, theta=theta, beta=beta, tau=1e-12, max_inner=500)
        c, x0, *_ = _random_system(rng, 16, w, p)
        ref = direct_solve(c, w, p)
        x, m = fwsb_linear_solve(c, x0, p, FwsbSystem(w, beta, theta))
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)
        assert 0 < m <= 500

    def test_gauss_seidel_matches_dense_direct(self, rng, random_weights):
        w = random_weights(16)
        beta = 0.5
        theta = 0.9 * theta_bound(w, beta)
        p = BregmanParams(lam=0.1, theta=theta, beta=beta, tau=1e-12, max_inner=500)
        c, x0, *_ = _random_system(rng, 16, w, p)
        ref = direct_solve(c, w, p)
        system = GaussSeidelSystem(w, beta, theta)
        x, m = gauss_seidel_solve(c, x0, p, system)
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_solvers_agree_with_each_other(self, rng, random_weights):
        w = random_weights(12)
        beta = 0.9
        theta = 0.5 * theta_bound(w, beta)
        p = BregmanParams(lam=0.2, theta=theta, beta=beta, tau=1e-11, max_inner=500)
        c, x0, *_ = _random_system(rng, 12, w, p)
        xf, _ = fwsb_linear_solve(c, x0, p, FwsbSystem(w, beta, theta))
        xg, _ = gauss_seidel_solve(c, x0, p, GaussSeidelSystem(w, beta, theta))
        assert np.allclose(xf, xg, atol=1e-8)

    def test_fwsb_refuses_theta_out_of_bound(self, random_weights):
        w = random_weights(8)
        beta = 0.9
        p = BregmanParams(lam=0.1, theta=1.01 * theta_bound(w, beta), beta=beta)
        with pytest.raises(ConfigError):
            fwsb_linear_solve(
                np.zeros((8, 8)), np.zeros((8, 8)), p, FwsbSystem(w, beta, p.theta)
            )
        for factor in (1.0, 1.01):
            with pytest.raises(ConfigError):
                FwsbSystem(w, beta, factor * theta_bound(w, beta))

    @pytest.mark.parametrize("n", [5, 16, 47])
    @pytest.mark.parametrize("tau, max_inner", [(1e-8, 500), (1e-14, 3)])
    def test_fwsb_matches_reference_loop(self, rng, random_weights, n, tau, max_inner):
        # the precomputed stencil reassociates the update, so iterates agree
        # to rounding and the iteration count exactly
        w = random_weights(n)
        beta = 0.9
        theta = 0.9 * theta_bound(w, beta)
        p = BregmanParams(lam=0.1, theta=theta, beta=beta, tau=tau, max_inner=max_inner)
        c, x0, v, rx, ry = _random_system(rng, n, w, p)
        x, m = fwsb_linear_solve(c, x0, p, FwsbSystem(w, beta, theta))
        x_ref, m_ref = _reference_fwsb(v, rx, ry, x0, w, p)
        assert m == m_ref
        assert (m < max_inner) == (max_inner == 500)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_fwsb_system_serves_consecutive_solves(self, rng, random_weights):
        w = random_weights(16)
        beta = 0.9
        theta = 0.9 * theta_bound(w, beta)
        p = BregmanParams(lam=0.1, theta=theta, beta=beta, tau=1e-10, max_inner=300)
        system = FwsbSystem(w, beta, theta)
        for _ in range(3):
            c, x0, *_ = _random_system(rng, 16, w, p)
            x, m = fwsb_linear_solve(c, x0, p, system)
            x_fresh, m_fresh = fwsb_linear_solve(c, x0, p, FwsbSystem(w, beta, theta))
            assert m == m_fresh
            assert np.array_equal(x, x_fresh)

    def test_fwsb_residual_contraction(self, rng, random_weights):
        # residual ratios stay at or below the spectral radius estimate
        w = random_weights(16)
        beta = 0.5
        theta = 0.9 * theta_bound(w, beta)

        # rho(beta*theta*Lap) via power iteration on the squared operator
        s = beta * theta
        rho = float(
            np.sqrt(
                estimate_spectral_norm(
                    lambda u: s * laplacian_w(s * laplacian_w(u, w), w), 16,
                    tol=1e-12, max_iter=20000,
                )
            )
        )
        assert rho < 1.0

        p = BregmanParams(lam=0.1, theta=theta, beta=beta, tau=1e-13, max_inner=200)
        c, x0, *_ = _random_system(rng, 16, w, p)
        system = FwsbSystem(w, beta, theta)
        residuals = record_changes(system)
        fwsb_linear_solve(c, x0, p, system)
        ratios = [b / a for a, b in zip(residuals, residuals[1:]) if a > 1e-13]
        # geometric-mean contraction factor against the bound
        gmean = float(np.exp(np.mean(np.log(ratios))))
        assert gmean <= rho + 0.05

    def test_gs_one_sweep_identity_system(self, rng, random_weights):
        # theta = 0 turns the system into the identity; the first sweep
        # already lands exactly on b = v (the second only detects it)
        w = random_weights(8)
        p = BregmanParams(lam=0.0, theta=0.0, beta=0.9, tau=1e-10)
        v = rng.normal(size=(8, 8))
        x, m = gauss_seidel_solve(v, np.zeros((8, 8)), p, GaussSeidelSystem(w, 0.9, 0.0))
        assert m <= 2
        assert np.array_equal(x, v)

    @pytest.mark.parametrize("n", [2, 5, 47])
    @pytest.mark.parametrize("tau, max_inner", [(1e-8, 500), (1e-14, 3)])
    def test_gauss_seidel_bitwise_equals_reference_loop(
        self, rng, random_weights, n, tau, max_inner
    ):
        # the anti-diagonal sweep must reproduce the pixel-by-pixel loop
        # exactly, iterate and count, down to the one-pixel corner diagonals
        w = random_weights(n)
        beta = 0.9
        theta = 0.7 * theta_bound(w, beta)
        p = BregmanParams(lam=0.1, theta=theta, beta=beta, tau=tau, max_inner=max_inner)
        c, x0, *_ = _random_system(rng, n, w, p)
        system = GaussSeidelSystem(w, beta, theta)
        x, m = gauss_seidel_solve(c, x0, p, system)
        x_ref, m_ref = _reference_gauss_seidel(c, x0, w, p)
        assert m == m_ref
        assert (m < max_inner) == (max_inner == 500)
        assert np.array_equal(x.view(np.int64), x_ref.view(np.int64))

    def test_direct_solve_gate(self, random_weights):
        w = random_weights(33)
        p = BregmanParams(lam=0.1, theta=0.01, beta=0.9)
        v = np.zeros((33, 33))
        with pytest.raises(ConfigError):
            direct_solve(v, w, p)

    def test_warm_start_zero_iterations_needed(self, rng, random_weights):
        # starting exactly at the solution stops after one cheap pass
        w = random_weights(12)
        beta = 0.5
        theta = 0.9 * theta_bound(w, beta)
        p = BregmanParams(lam=0.1, theta=theta, beta=beta, tau=1e-10, max_inner=300)
        c, x0, *_ = _random_system(rng, 12, w, p)
        system = FwsbSystem(w, beta, theta)
        x1, m1 = fwsb_linear_solve(c, x0, p, system)
        x2, m2 = fwsb_linear_solve(c, x1, p, system)
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
        theta = 0.5 * theta_bound(w, beta)
        tau = 1e-6
        p = BregmanParams(lam=0.0, theta=theta, beta=beta, tau=tau, max_outer=200, max_inner=200)
        v = rng.normal(size=(12, 12))
        u, total_inner, outer = wsb_solve(v, w, p, FwsbSystem(w, beta, theta))
        assert np.linalg.norm(u - v) <= 10 * tau * np.linalg.norm(v)

    def test_zero_input_zero_output(self, random_weights):
        w = random_weights(8)
        p = BregmanParams(lam=0.3, theta=0.5 * theta_bound(w, 0.9), beta=0.9)
        u, _, _ = wsb_solve(np.zeros((8, 8)), w, p, FwsbSystem(w, p.beta, p.theta))
        assert np.all(u == 0)

    def test_objective_not_above_start(self, rng, random_weights):
        for seed in range(5):
            local = np.random.default_rng(seed)
            w = random_weights(12)
            beta = 0.9
            p = BregmanParams(
                lam=0.15, theta=0.5 * theta_bound(w, beta), beta=beta, tau=1e-6,
                max_outer=100, max_inner=100,
            )
            v = local.normal(size=(12, 12))
            u, _, _ = wsb_solve(v, w, p, FwsbSystem(w, beta, p.theta))
            assert objective_backward(u, v, w, 0.15, beta) <= objective_backward(
                v, v, w, 0.15, beta
            )

    def test_ramp_flattens_under_strong_penalty(self, rng):
        # TV shrinkage pulls a smooth ramp toward piecewise constancy
        n = 16
        w = unit_weights(n)
        ramp = np.tile(np.linspace(0.0, 1.0, n), (n, 1))
        beta = 0.9
        p = BregmanParams(
            lam=2.0, theta=0.5 * theta_bound(w, beta), beta=beta, tau=1e-8,
            max_outer=200, max_inner=200,
        )
        u, _, _ = wsb_solve(ramp, w, p, FwsbSystem(w, beta, p.theta))
        assert weighted_tv(u, w) < 0.6 * weighted_tv(ramp, w)
        assert objective_backward(u, ramp, w, 2.0, beta) <= objective_backward(
            ramp, ramp, w, 2.0, beta
        )

    @pytest.mark.parametrize("system_type", [GaussSeidelSystem, FwsbSystem])
    @pytest.mark.parametrize("tau, max_outer", [(1e-12, 4), (1e-4, 300)])
    def test_loop_bitwise_equals_reference(
        self, rng, random_weights, tau, max_outer, system_type
    ):
        # pins the loop's bookkeeping: which fields enter the right-hand
        # side, in which order, and what each sweep and solve counts.  At
        # this lam about a third of the differences end above the shrink
        # level, so both sides of cut run and r = (z - e) - e must keep its
        # rounding: z - 2*e differs in the last bit there and fails
        w = random_weights(8)
        beta = 0.9
        theta = 0.5 * theta_bound(w, beta)
        p = BregmanParams(
            lam=0.03, theta=theta, beta=beta, tau=tau, max_outer=max_outer, max_inner=100
        )
        v = rng.normal(size=(8, 8))
        system = system_type(w, beta, theta)
        u, total_inner, sweeps = wsb_solve(v, w, p, system)
        linear_solve = {
            GaussSeidelSystem: lambda c, x0: _reference_gauss_seidel(c, x0, w, p),
            FwsbSystem: lambda c, x0: fwsb_linear_solve(c, x0, p, system),
        }[system_type]
        u_ref, total_ref, sweeps_ref = _reference_wsb(v, w, p, linear_solve)
        assert (sweeps == max_outer) == (max_outer == 4)
        assert (sweeps, total_inner) == (sweeps_ref, total_ref)
        assert np.array_equal(u.view(np.int64), u_ref.view(np.int64))

    def test_inner_choices_converge_to_same_point(self, rng, random_weights):
        w = random_weights(12)
        beta = 0.9
        theta = 0.5 * theta_bound(w, beta)
        tau = 1e-8
        p = BregmanParams(lam=0.1, theta=theta, beta=beta, tau=tau, max_outer=300, max_inner=300)
        v = rng.normal(size=(12, 12))
        u_f, _, _ = wsb_solve(v, w, p, FwsbSystem(w, beta, theta))
        u_g, _, _ = wsb_solve(v, w, p, GaussSeidelSystem(w, beta, theta))
        assert np.linalg.norm(u_f - u_g) <= 10 * tau * np.linalg.norm(u_g)

    def test_table_form_rhs_identity(self, rng):
        # d - e equals (z - e) - e for z = grad(U) + e and e = cut(z): the
        # textbook right-hand side and wsb_solve's agree bit for bit
        # wherever they are nonzero (where both vanish, zeros may differ
        # in sign), over magnitudes 1e-8 to 1e8 and at |z| == lvl
        for lvl in (1e-8, 1e-3, 3.0, 1e4, 1e8):
            z = rng.normal(size=(16, 16)) * 10.0 ** rng.integers(-8, 9, size=(16, 16))
            z[0, :4] = lvl, -lvl, np.nextafter(lvl, np.inf), -np.nextafter(lvl, 0.0)
            e = cut(z, lvl)
            textbook, carried = soft(z, lvl) - e, (z - e) - e
            nonzero = (textbook != 0) | (carried != 0)
            assert nonzero.any()
            assert np.array_equal(textbook[nonzero].view(np.int64), carried[nonzero].view(np.int64))


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
