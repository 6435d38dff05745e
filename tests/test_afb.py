"""Accelerated forward-backward driver: steps, schedule, trace, stopping."""

import importlib
import time
from dataclasses import replace

import numpy as np
import pytest

import wtv.bregman
import wtv.forward_backward
from wtv.bregman import INNER_SOLVERS
from wtv.errors import ConfigError, DivergenceError
from wtv.forward_backward import (
    SolverConfig,
    afb_solve,
    fista_alpha,
    forward_step,
    objective_composite,
)
from wtv.grid import unit_weights
from wtv.metrics import psnr
from wtv.operators import ForwardModel, FourierMaskModel, GaussianBlurModel, radial_mask
from wtv.testdata import NoiseSpec, add_gaussian_noise, piecewise_test_image, shepp_logan

from oracles import benchmark_literal


def small_cs_problem(n=32, lines=4):
    truth = shepp_logan(n)
    mask, _ = radial_mask(n, lines)
    model = FourierMaskModel(mask)
    return truth, model, model.apply(truth)


class TestForwardStep:
    def test_exact_solution_fixed_point(self, rng):
        model = GaussianBlurModel(16, sigma=1.0, size=5)
        u = rng.normal(size=(16, 16))
        z = model.apply(u)
        assert np.allclose(forward_step(u, model, model.adjoint(z), 0.9), u, atol=1e-13)

    def test_beta_zero_identity(self, rng):
        model = GaussianBlurModel(16, sigma=1.0, size=5)
        u = rng.normal(size=(16, 16))
        z = model.apply(u) + 0.1
        assert np.array_equal(forward_step(u, model, model.adjoint(z), 0.0), u)

    def test_quadratic_descent(self, rng):
        # a gradient step with admissible beta never increases the data term
        model = GaussianBlurModel(16, sigma=1.0, size=5)
        for _ in range(20):
            u = rng.normal(size=(16, 16))
            z = model.apply(rng.normal(size=(16, 16)))
            before = 0.5 * np.sum((model.apply(u) - z) ** 2)
            u2 = forward_step(u, model, model.adjoint(z), 0.9)
            after = 0.5 * np.sum((model.apply(u2) - z) ** 2)
            assert after <= before + 1e-12


class TestFistaAlpha:
    def test_first_value(self):
        assert fista_alpha(1, 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_approaches_one(self):
        assert fista_alpha(10**6, 2.0) == pytest.approx(1.0, abs=1e-5)
        assert fista_alpha(10**6, 2.0) < 1.0

    def test_range_over_full_span(self):
        # vectorized scan of the whole admissible index range
        n = np.arange(1, 10**6 + 1, dtype=np.float64)
        a = 2.0
        t_prev = (n + a) / a
        t_cur = (n + a + 1) / a
        alpha = (t_prev - 1.0) / t_cur
        assert np.all(alpha >= 0.0)
        assert np.all(alpha < 1.0)
        assert np.all(np.diff(alpha) > 0)
        # spot-check the scalar implementation against the vector form
        for k in (1, 2, 17, 10**3, 10**6):
            assert fista_alpha(k, a) == pytest.approx(alpha[k - 1], rel=1e-15)

    @pytest.mark.parametrize("a", [2.0, 3.0, 1e-308, 1e-310])
    def test_zero_at_restart_and_below_one(self, a):
        # a restart sets k = 0; the t-form (t_{k-1} - 1)/t_k gives inf/inf
        # from k = 1 on at a subnormal a, the closed form stays in [0, 1)
        assert fista_alpha(0, a) == 0.0
        alphas = [fista_alpha(k, a) for k in range(1, 201)]
        assert all(0.0 < alpha < 1.0 for alpha in alphas)


class TestSolverConfig:
    def test_requires_lam_or_r0(self):
        with pytest.raises(ConfigError):
            SolverConfig()

    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(lam=0.1, beta=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(lam=0.1, epsilon=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(lam=0.1, weight_mode="magic")
        for name in ("jacobi", "direct"):
            with pytest.raises(ConfigError):
                SolverConfig(lam=0.1, inner=name)
        with pytest.raises(ConfigError):
            SolverConfig(lam=-0.1)
        for bad in ({"tau": 0.0}, {"tau": -1.0}, {"tau": float("inf")}, {"max_outer": 0},
                    {"max_inner": 0}):
            with pytest.raises(ConfigError):
                SolverConfig(lam=0.1, **bad)
        for a in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="a must be positive and finite"):
                SolverConfig(lam=0.1, a=a)
        # however small a is, k/(k + a + 1) stays in [0, 1)
        for a in (1e-300, 1e-308, 1e-310):
            assert SolverConfig(lam=0.1, a=a).a == a


class TestAfbSolve:
    def test_zero_data_zero_image(self):
        truth, model, _ = small_cs_problem()
        z = np.zeros_like(model.apply(truth))
        cfg = SolverConfig(lam=1e-3, max_fb=10)
        u, trace = afb_solve(model, z, cfg)
        assert np.all(u == 0)

    def test_noiseless_residual_decreases(self):
        # blur adjoint is not data-consistent, so the residual has room to drop
        truth = piecewise_test_image(32)
        model = GaussianBlurModel(32, sigma=1.5, size=9)
        z = model.apply(truth)
        cfg = SolverConfig(lam=1e-5, weight_mode="uniform", max_fb=60)
        u, trace = afb_solve(model, z, cfg)
        r_final = np.linalg.norm(model.apply(u) - z)
        r_start = np.linalg.norm(model.apply(model.adjoint(z)) - z)
        assert r_final < r_start

    def test_stopping_honors_epsilon(self):
        truth, model, z = small_cs_problem()
        cfg = SolverConfig(lam=1e-3, weight_mode="uniform", epsilon=1e-3, max_fb=500)
        u, trace = afb_solve(model, z, cfg)
        assert trace.rel_change[-1] < 1e-3
        assert trace.iterations[-1] < 500

    def test_trace_monotonicity(self):
        truth, model, z = small_cs_problem()
        cfg = SolverConfig(lam=1e-3, max_fb=15)
        _, trace = afb_solve(model, z, cfg, reference=truth)
        n = np.array(trace.iterations)
        t = np.array(trace.cum_seconds)
        assert np.all(np.diff(n) == 1)
        assert n[0] == 0
        assert np.all(np.diff(t) >= 0)

    def test_trace_row_zero_is_start_point(self):
        truth, model, z = small_cs_problem()
        cfg = SolverConfig(lam=1e-3, max_fb=5)
        _, trace = afb_solve(model, z, cfg, reference=truth)
        u0 = model.adjoint(z)
        assert trace.psnr[0] == pytest.approx(psnr(u0, truth), rel=1e-12)
        assert np.isnan(trace.rel_change[0])
        assert trace.inner_iters[0] == 0

    def test_final_psnr_not_below_start(self):
        truth = piecewise_test_image(32)
        model = GaussianBlurModel(32, sigma=1.5, size=9)
        z = model.apply(truth)
        cfg = SolverConfig(lam=5e-4, weight_mode="uniform", max_fb=80)
        _, trace = afb_solve(model, z, cfg, reference=truth)
        assert trace.psnr[-1] >= trace.psnr[0]

    def test_objective_final_below_initial(self):
        truth, model, z = small_cs_problem()
        cfg = SolverConfig(lam=1e-3, weight_mode="uniform", max_fb=40)
        _, trace = afb_solve(model, z, cfg)
        assert trace.objective[-1] < trace.objective[0]

    def test_small_inner_caps_match_tau_stopped_objective(self):
        # criterion 8's settings at 64x64: with the unit fast-splitting
        # step an odd cap left the slowest, sign-flipping error mode of
        # every linear solve in place, and a cap of 1 ended 60 steps at an
        # objective of 187 against 15.4.  The relaxed step must make any
        # small cap land where solving each system to tau does
        truth = piecewise_test_image(64)
        model = GaussianBlurModel(64, sigma=1.5, size=9)
        z = add_gaussian_noise(model.apply(truth), NoiseSpec(0.5e-2, 0))
        base = dict(lam=5e-3, weight_mode="fixed", mu_scale=7.5e-5, max_fb=60)
        _, solved = afb_solve(model, z, SolverConfig(max_inner=50, **base))
        for cap in (1, 2, 3):
            _, trace = afb_solve(model, z, SolverConfig(max_inner=cap, **base))
            assert trace.objective[-1] == pytest.approx(solved.objective[-1], rel=1e-2)

    def test_default_backward_steps_shrink_before_stopping(self):
        # the first Bregman sweep of a backward step only smooths v.  Cut
        # off after one relaxed step, its change here is 7.4e-5 relative,
        # below tau; a stop test on it ended the first backward step, and
        # with it the whole run, after one sweep at an objective of 7.78e-3.
        # Solving every system to tau with the unit step reached 4.67e-3
        truth, model, z = small_cs_problem(n=16)
        cfg = SolverConfig(lam=1e-3, weight_mode="adaptive", mu_scale=7.5e-5, max_fb=5)
        _, trace = afb_solve(model, z, cfg)
        assert len(trace) - 1 == cfg.max_fb
        # one inner step per sweep, so at least two sweeps per backward step
        assert min(trace.inner_iters[1:]) >= 2
        assert trace.objective[-1] == pytest.approx(4.67e-3, rel=0.05)

    def test_beta_bound_enforced(self):
        truth, model, z = small_cs_problem()
        with pytest.raises(ConfigError):
            afb_solve(model, z, SolverConfig(lam=1e-3, beta=1.5))

    def test_beta_bound_enforced_without_dc_sample(self, monkeypatch):
        # the constant image is the normal operator's DC eigenvector; with
        # DC unsampled its eigenvalue is 0, while every other sampled
        # frequency still has eigenvalue 1.  Bounded by the DC eigenvalue,
        # beta = 1.9 was accepted and |u| reached 2.85e6 in 30 steps
        truth, _, _ = small_cs_problem()
        mask, _ = radial_mask(32, 8)
        mask[0, 0] = 0.0
        model = FourierMaskModel(mask)
        z = model.apply(truth)

        def no_step(*args):
            raise AssertionError("forward step taken")

        monkeypatch.setattr(wtv.forward_backward, "forward_step", no_step)
        with pytest.raises(ConfigError, match="beta"):
            afb_solve(model, z, SolverConfig(lam=1e-3, beta=1.9, max_fb=30))

    def test_data_shape_checked(self):
        truth, model, z = small_cs_problem()
        with pytest.raises(ValueError):
            afb_solve(model, z[:-1], SolverConfig(lam=1e-3))

    def test_extrapolation_relation_first_iteration(self):
        # after one iteration the accelerated iterate is the plain backward
        # output pushed along its own displacement by the first momentum 0.25
        truth, model, z = small_cs_problem()
        base = dict(lam=1e-3, weight_mode="uniform", max_fb=1, tau=1e-10, max_outer=60)
        u_plain, _ = afb_solve(model, z, SolverConfig(no_accel=True, **base))
        u_accel, _ = afb_solve(model, z, SolverConfig(**base))
        u0 = model.adjoint(z)
        expect = u_plain + 0.25 * (u_plain - u0)
        assert np.allclose(u_accel, expect, atol=1e-12)

    def test_no_accel_reduces_to_plain_fb(self):
        # manual forward/backward recursion must match afb_solve exactly
        from wtv.bregman import FwsbSystem, wsb_solve
        from wtv.forward_backward import KAPPA

        truth, model, z = small_cs_problem()
        cfg = SolverConfig(lam=1e-3, weight_mode="uniform", max_fb=6, no_accel=True)
        u_solver, trace = afb_solve(model, z, cfg)

        w = unit_weights(truth.shape[0])
        system = FwsbSystem(w, cfg.beta, KAPPA)
        u = atz = model.adjoint(z)
        for _ in range(6):
            v = forward_step(u, model, atz, cfg.beta)
            u, _, _ = wsb_solve(v, cfg, system)
        assert np.array_equal(u_solver, u)

    def test_fixed_weights_restart_matches_manual_recursion(self):
        # gradient restart: alpha = 0 when (u - u_tilde) . (u_tilde -
        # u_tilde_prev) > 0, and the schedule counts again from that step
        from wtv.bregman import FwsbSystem, wsb_solve
        from wtv.forward_backward import KAPPA
        from wtv.potential import LogExpParams, compute_weights, default_mu

        truth = piecewise_test_image(32)
        model = GaussianBlurModel(32, sigma=1.5, size=9)
        z = add_gaussian_noise(model.apply(truth), NoiseSpec(0.5e-2, 0))
        cfg = SolverConfig(lam=5e-3, weight_mode="fixed", mu_scale=1e-2,
                           epsilon=1e-12, max_fb=45)
        u_solver, trace = afb_solve(model, z, cfg)

        u = atz = model.adjoint(z)
        w = compute_weights(u, LogExpParams(cfg.mu_scale * default_mu(u)))
        system = FwsbSystem(w, cfg.beta, KAPPA)
        u_tilde_prev, k, alphas, sweeps = u, 0, [0.0], [0]
        for _ in range(cfg.max_fb):
            v = forward_step(u, model, atz, cfg.beta)
            u_tilde, _, m = wsb_solve(v, cfg, system)
            k += 1
            if np.vdot(u - u_tilde, u_tilde - u_tilde_prev) > 0:
                k = 0
            alphas.append(fista_alpha(k, cfg.a))
            sweeps.append(m)
            u = u_tilde + alphas[-1] * (u_tilde - u_tilde_prev)
            u_tilde_prev = u_tilde
        restarts = [n for n, alpha in enumerate(alphas) if n and alpha == 0.0]
        # it fires mid-run, so later steps use the restarted schedule
        assert restarts and restarts[0] < cfg.max_fb - 1
        assert np.array_equal(u_solver, u)
        assert trace.alpha == alphas
        assert trace.sweeps == sweeps

    def test_adaptive_weights_never_restart(self):
        # each weight rebuild changes the objective, so the momentum keeps
        # its schedule; restarted, this run would reset at step 6
        truth, model, z = small_cs_problem(n=16)
        cfg = SolverConfig(lam=1e-3, weight_mode="adaptive", mu_scale=7.5e-5, max_fb=10)
        _, trace = afb_solve(model, z, cfg)
        assert len(trace) - 1 == cfg.max_fb
        assert trace.alpha == [fista_alpha(n, cfg.a) for n in range(len(trace))]

    @pytest.mark.parametrize("a", [1e-310, 1e-308])
    def test_subnormal_a_runs(self, a):
        # no t_n is formed, so nothing overflows however small a is
        truth, model, z = small_cs_problem()
        cfg = SolverConfig(lam=1e-3, a=a, weight_mode="uniform", max_fb=8)
        u, trace = afb_solve(model, z, cfg)
        assert np.all(np.isfinite(u))
        assert all(0.0 <= alpha < 1.0 for alpha in trace.alpha)
        assert max(trace.alpha) > 0.0

    def test_cum_seconds_leaves_out_logging(self, monkeypatch):
        # each trace row evaluates the objective; slowed by 50 ms a call,
        # the logging alone outlasts the whole solve many times over
        delay = 0.05

        def slow_objective(*args):
            time.sleep(delay)
            return objective_composite(*args)

        monkeypatch.setattr(wtv.forward_backward, "objective_composite", slow_objective)
        truth, model, z = small_cs_problem()
        cfg = SolverConfig(lam=1e-3, weight_mode="uniform", epsilon=1e-12, max_fb=5)
        _, trace = afb_solve(model, z, cfg)
        assert len(trace) == cfg.max_fb + 1
        assert trace.cum_seconds[-1] < 0.5 * delay * len(trace)

    def test_no_accel_alpha_column_is_zero(self):
        truth, model, z = small_cs_problem()
        cfg = SolverConfig(lam=1e-3, weight_mode="fixed", mu_scale=7.5e-5, max_fb=6,
                           no_accel=True)
        _, trace = afb_solve(model, z, cfg)
        assert len(trace) == cfg.max_fb + 1
        assert trace.alpha == [0.0] * len(trace)

    def test_divergence_reported_with_iteration(self):
        class _Explodes(ForwardModel):
            # the identity, whose Gram multiplier turns NaN after a few reads
            def __init__(self, n):
                self.n = n
                self.reads = 0

            @property
            def gram(self):
                self.reads += 1
                out = np.ones((self.n, self.n // 2 + 1))
                if self.reads > 3:
                    out[0, 0] = np.nan
                return out

            def apply(self, u):
                return u.copy()

            def adjoint(self, data):
                return data.copy()

        model = _Explodes(16)
        # not a fixed point, so the run lasts until the NaN arrives: read 1
        # is the step-size bound, read k + 1 the forward step of FB step k
        z = np.random.default_rng(0).normal(size=(16, 16))
        with pytest.raises(DivergenceError) as info:
            afb_solve(model, z, SolverConfig(lam=1e-3, weight_mode="uniform", max_fb=50))
        assert info.value.iteration == 3

    def test_deterministic_traces(self):
        truth, model, z = small_cs_problem()
        cfg = SolverConfig(lam=1e-3, weight_mode="fixed", mu_scale=7.5e-5, max_fb=12)
        _, t1 = afb_solve(model, z, cfg, reference=truth)
        _, t2 = afb_solve(model, z, cfg, reference=truth)
        assert t1.iterations == t2.iterations
        assert t1.psnr == t2.psnr
        assert t1.objective == t2.objective
        assert t1.rel_change[1:] == t2.rel_change[1:]
        assert t1.inner_iters == t2.inner_iters

    def test_r0_initializer_sets_lambda(self):
        truth, model, z = small_cs_problem()
        u0 = model.adjoint(z)
        r0 = 1e-6
        lam = r0 * float(np.sum(np.abs(u0)))
        cfg_a = SolverConfig(r0=r0, weight_mode="uniform", max_fb=4)
        cfg_b = SolverConfig(lam=lam, weight_mode="uniform", max_fb=4)
        u_a, _ = afb_solve(model, z, cfg_a)
        u_b, _ = afb_solve(model, z, cfg_b)
        assert np.array_equal(u_a, u_b)



class TestModuleGlobalLookup:
    """afb_solve and wsb_solve reach forward_step, power_method, the inner
    solvers, GaussSeidelSystem, theta_bound and the sweep's operators
    grad_w, div_w and cut through their module-global names, so a wrapper
    bound to a name (the benchmark tracer's, say) sees every call."""

    @pytest.mark.parametrize("inner, max_inner", [
        *(pytest.param(inner, 1, id=inner) for inner in INNER_SOLVERS),
        *(pytest.param(inner, 3, id=f"{inner}-max_inner3") for inner in INNER_SOLVERS),
    ])
    def test_wrappers_see_every_call(self, monkeypatch, inner, max_inner):
        counts = {"iters": 0, "gs_builds": 0, "weight_updates": 0, "sweeps": 0,
                  "grad_w": 0, "div_w": 0, "cut": 0, "forward_step": 0,
                  "power_method": 0, "theta_bound": 0}
        # the SolverConfig arguments of each linear-solve (wsb_solve) call:
        # the tracer reads max_inner_hits (max_outer_hits) from that argument
        configs = {"iters": [], "sweeps": []}

        def wrap(module, name, key, amount=lambda out: 1):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                counts[key] += amount(out)
                if key in configs:
                    values = (*args, *kwargs.values())
                    configs[key].append([a for a in values if isinstance(a, SolverConfig)])
                return out

            monkeypatch.setattr(module, name, wrapper)

        for name in ("fwsb_linear_solve", "gauss_seidel_solve"):
            wrap(wtv.bregman, name, "iters", amount=lambda out: out[1])
        wrap(wtv.forward_backward, "GaussSeidelSystem", "gs_builds")
        wrap(wtv.forward_backward, "compute_weights", "weight_updates")
        wrap(wtv.forward_backward, "wsb_solve", "sweeps", amount=lambda out: out[2])
        for name in ("forward_step", "power_method"):
            wrap(wtv.forward_backward, name, name)
        for name in ("grad_w", "div_w", "cut"):
            wrap(wtv.bregman, name, name)
        # the tracer sums theta_bound over both modules
        for module in (wtv.forward_backward, wtv.bregman):
            wrap(module, "theta_bound", "theta_bound")

        truth, model, z = small_cs_problem(n=16)
        cfg = SolverConfig(r0=3e-5, weight_mode="adaptive", mu_scale=7.5e-5, max_fb=5,
                           inner=inner, max_inner=max_inner)
        _, trace = afb_solve(model, z, cfg)
        assert counts["iters"] == sum(trace.inner_iters) > 0
        # one forward step per FB step, one step-size bound per run
        assert counts["forward_step"] == len(trace) - 1
        assert counts["power_method"] == 1
        assert len(configs["iters"]) == counts["sweeps"]
        assert len(configs["sweeps"]) == len(trace) - 1
        # every call gets one SolverConfig: the run's, with lam resolved
        # from r0 once and tau and the caps as given
        resolved = replace(cfg, lam=cfg.r0 * float(np.abs(model.adjoint(z)).sum()))
        calls = configs["iters"] + configs["sweeps"]
        assert all(len(call) == 1 and call[0] == resolved for call in calls)
        assert len({id(call[0]) for call in calls}) == 1
        assert counts["weight_updates"] == len(trace) - 1
        # one system per run, refreshed in place at each later weight update
        assert counts["gs_builds"] == (1 if inner == "gauss_seidel" else 0)
        # the build and each refresh take one bound, whichever the inner solver
        assert counts["theta_bound"] == counts["weight_updates"]
        # one grad_w and one div_w per Bregman sweep, each one layer of the
        # benchmark: the first sweep's are those of the cold start, which
        # a one-step solve needs none of.  Each step of a linear solve
        # after its first runs one more of each, under either solver.  A
        # backward step's last sweep returns before its shrink, so each
        # step runs one cut fewer
        assert counts["sweeps"] > len(trace) - 1
        later_steps = counts["iters"] - len(configs["iters"])
        assert (later_steps > 0) == (max_inner > 1)
        assert counts["grad_w"] == counts["div_w"] == counts["sweeps"] + later_steps
        assert counts["cut"] == counts["sweeps"] - (len(trace) - 1)

    def test_tracer_hooks_exist(self):
        # perfbench/tracer.py wraps the names in its HOOKS; a name that is
        # gone leaves its benchmark metrics absent
        for modname, names in benchmark_literal("tracer.py", "HOOKS").items():
            module = importlib.import_module(modname)
            assert [name for name in names if not hasattr(module, name)] == []


class TestObjectiveComposite:
    def test_zero_everything(self):
        truth, model, z = small_cs_problem()
        w = unit_weights(truth.shape[0])
        zero = np.zeros_like(truth)
        val = objective_composite(zero, model, np.zeros_like(z), w, 0.5)
        assert val == 0.0

    def test_data_term_only_for_constant(self, rng):
        model = GaussianBlurModel(16, sigma=1.0, size=5)
        u = np.full((16, 16), 0.4)
        z = model.apply(u) + 0.1
        w = unit_weights(16)
        val = objective_composite(u, model, z, w, 3.0)
        expect = 0.5 * np.sum((model.apply(u) - z) ** 2)
        assert val == pytest.approx(expect, rel=1e-12)
