"""End-to-end acceptance checks, one per scenario, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they complete.  All ten took 17-21 s on 2 vCPUs (three runs, as pytest
reports them).  The two 256x256 restoration scenarios dominate that time,
the larger share in the Gauss-Seidel arms, whose sweeps run one
anti-diagonal at a time; everything else finishes in seconds.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from oracles import direct_solve, laplacian_matrix, objective_backward, record_changes
from wtv.bregman import (
    FwsbSystem,
    GaussSeidelSystem,
    cut,
    fwsb_linear_solve,
    gauss_seidel_solve,
    soft,
    wsb_solve,
)
from wtv.cli import build_problem, load_config
from wtv.forward_backward import SolverConfig, afb_solve, fista_alpha
from wtv.grid import WeightField, div_w, grad_w, unit_weights
from wtv.metrics import psnr
from wtv.operators import FourierMaskModel, GaussianBlurModel, radial_mask
from wtv.potential import LogExpParams, compute_weights, default_mu, phi, phi_prime
from wtv.testdata import NoiseSpec, add_gaussian_noise, piecewise_test_image, shepp_logan

# the two 256x256 restoration scenarios are the presets of criteria 7 and 8
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {verdict} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _random_instance(rng, beta, n=16):
    """One linear-solve instance: an FwsbSystem, right-hand side and start.

    The system holds random weights and is built at kappa = 0.9, so its
    theta is 0.9 times the bound.  The right-hand side is the Bregman
    loop's, v + beta*theta*div_w(r) with r = (dx - ex, dy - ey), from a
    random target v and warm auxiliary fields; x0 is random too.  It is
    returned both as its value c, for the dense solve, and as v with the
    (n, n) divergence term s = beta*theta*div_w(r - grad_w(x0)), which
    both linear solvers take.
    """
    wx = rng.uniform(0.2, 2.0, size=(n, n))
    wy = rng.uniform(0.2, 2.0, size=(n, n))
    w = WeightField(wx, wy)
    v, x0, dx, dy, ex, ey = (rng.normal(size=(n, n)) for _ in range(6))
    system = FwsbSystem(w, beta, 0.9)
    r = np.stack((dx - ex, dy - ey))
    c = v + system.bt * div_w(r, w)
    return system, c, x0, v, system.bt * div_w(r - grad_w(x0, w), w)


def test_criterion_01_inner_solvers_match_dense_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(20):
        beta = 0.5
        system, c, x0, v, s = _random_instance(rng, beta)
        p = SolverConfig(lam=0.1, tau=1e-12, max_inner=2000)
        systems = system, GaussSeidelSystem(system.w, beta, 0.9)
        exact = direct_solve(c, systems[0])
        ref = np.linalg.norm(exact)
        solves = (
            fwsb_linear_solve(v, s, x0, p, systems[0]),
            gauss_seidel_solve(v, s, x0, p, systems[1]),
        )
        for x, _ in solves:
            worst = max(worst, float(np.linalg.norm(x - exact)) / ref)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 1.0
    _report(
        1,
        ok,
        f"both inner solvers vs dense on 20 random 16x16 systems: "
        f"worst rel err {worst:.3e} (<= 1e-8) in {elapsed:.2f} s (<= 1 s)",
    )


def test_criterion_02_splitting_contracts_below_spectral_radius():
    rng = np.random.default_rng(101)  # same instances as criterion 1
    worst_rho = worst_relaxed = 0.0
    worst_margin = -np.inf
    for _ in range(20):
        beta = 0.5
        system, _, x0, v, s = _random_instance(rng, beta)
        w, theta, omega = system.w, system.theta, system.omega
        # the spectral radius of beta*theta*Lap_w, from the dense matrix
        rho = beta * theta * float(np.max(np.abs(np.linalg.eigvalsh(laplacian_matrix(w)))))
        assert rho < 1.0
        # the relaxed step's iteration matrix (1 - omega)*I + omega*s*Lap_w
        # has its spectrum in [1 - omega - omega*rho, 1 - omega]
        relaxed = max(1 - omega, abs(1 - omega - omega * rho))
        p = SolverConfig(lam=0.1, tau=1e-13, max_inner=400)
        residuals = record_changes(system)
        fwsb_linear_solve(v, s, x0, p, system)
        ratios = [b / a for a, b in zip(residuals, residuals[1:]) if a > 1e-13]
        gmean = float(np.exp(np.mean(np.log(ratios))))
        worst_rho = max(worst_rho, rho)
        worst_relaxed = max(worst_relaxed, relaxed)
        worst_margin = max(worst_margin, gmean - relaxed)
    ok = worst_rho < 1.0 and worst_margin <= 0.05
    _report(
        2,
        ok,
        f"splitting radius < 1 (max {worst_rho:.4f}), relaxed step radius "
        f"max {worst_relaxed:.4f}, and empirical contraction within "
        f"{worst_margin:+.4f} of it (<= +0.05)",
    )


def test_criterion_03_shrinkage_complement_identity():
    rng = np.random.default_rng(303)
    m = 10**6
    z = rng.normal(size=m) * 10.0 ** rng.uniform(-8.0, 8.0, size=m)
    lvl = 10.0 ** rng.uniform(-8.0, 8.0, size=m)
    err = np.abs(soft(z, lvl) + cut(z, lvl) - z)
    cap = np.spacing(np.abs(z))
    worst = float(np.max(err / np.maximum(cap, 5e-324)))
    ok = bool(np.all(err <= cap))
    _report(
        3,
        ok,
        f"soft + cut reassembles z over 10^6 pairs, worst {worst:.2f} ulp (<= 1)",
    )


def test_criterion_04_forward_model_adjoints():
    rng = np.random.default_rng(404)
    n = 64
    mask, _ = radial_mask(n, 6)
    models = {
        "blur": GaussianBlurModel(n, 1.5, 9),
        "fourier": FourierMaskModel(mask),
    }
    worst = 0.0
    for name, model in models.items():
        for _ in range(100):
            x = rng.normal(size=(n, n))
            ax = model.apply(x)
            y = rng.normal(size=ax.shape)
            if np.iscomplexobj(ax):
                y = y + 1j * rng.normal(size=ax.shape)
            lhs = float(np.vdot(y, ax).real)
            rhs = float(np.vdot(model.adjoint(y), x).real)
            scale = float(
                np.linalg.norm(ax) * np.linalg.norm(y)
                + np.linalg.norm(x) * np.linalg.norm(model.adjoint(y))
            )
            worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-10
    _report(
        4,
        ok,
        f"apply/adjoint pairing for both models, 100 trials each at n=64: "
        f"worst rel err {worst:.3e} (<= 1e-10)",
    )


def test_criterion_05_weight_derivative_gradient_check():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        # stay where the potential has curvature; far past mu it saturates
        # exponentially and centered differences lose every digit
        mu = rng.uniform(0.2, 3.0)
        t = mu * rng.uniform(0.05, 6.0)
        p = LogExpParams(mu=mu)
        h = 1e-6 * max(1.0, abs(t))
        fd = (phi(t + h, p) - phi(t - h, p)) / (2 * h)
        worst = max(worst, abs(phi_prime(t, p) - fd) / abs(fd))
    ok = worst <= 1e-6
    _report(
        5,
        ok,
        f"phi_prime vs centered differences at 100 points: "
        f"worst rel err {worst:.3e} (<= 1e-6)",
    )


def test_criterion_06_backward_step_never_worse_than_input():
    rng = np.random.default_rng(606)

    def random_w(n):
        return WeightField(
            rng.uniform(0.2, 2.0, size=(n, n)), rng.uniform(0.2, 2.0, size=(n, n))
        )

    cartoon = piecewise_test_image(32)
    head = shepp_logan(32)
    fixtures = [
        (rng.normal(size=(16, 16)), random_w(16), 0.2),
        (rng.normal(size=(24, 24)), random_w(24), 0.05),
        (np.linspace(0, 1, 16)[None, :].repeat(16, axis=0), unit_weights(16), 0.5),
        (cartoon + 0.05 * rng.normal(size=(32, 32)),
         compute_weights(cartoon, LogExpParams(default_mu(cartoon))), 0.01),
        (head + 0.05 * rng.normal(size=(32, 32)), unit_weights(32), 0.02),
    ]
    beta = 0.9
    worst_gain = -np.inf
    for v, w, lam in fixtures:
        p = SolverConfig(lam=lam, tau=1e-8, max_outer=60, max_inner=200)
        u, _, _ = wsb_solve(v, p, FwsbSystem(w, beta, 0.9))
        before = objective_backward(v, v, w, lam, beta)
        after = objective_backward(u, v, w, lam, beta)
        worst_gain = max(worst_gain, (after - before) / max(before, 1e-300))
    # lam = 0 leg: the subproblem degenerates to the identity map
    tau = 1e-6
    w = random_w(12)
    v = rng.normal(size=(12, 12))
    p0 = SolverConfig(lam=0.0, tau=tau, max_outer=200, max_inner=200)
    u0, _, _ = wsb_solve(v, p0, FwsbSystem(w, beta, 0.5))
    drift = float(np.linalg.norm(u0 - v)) / float(np.linalg.norm(v))
    ok = worst_gain <= 1e-12 and drift <= 10 * tau
    _report(
        6,
        ok,
        f"backward objective never above its value at v (worst gain "
        f"{worst_gain:+.2e}) and lam=0 returns v (drift {drift:.2e} <= {10 * tau:g})",
    )


def test_criterion_07_undersampled_fourier_restoration():
    cfg = load_config(CONFIG_DIR / "cs256_lines10.cfg")
    truth, model, data, pct = build_problem(cfg)
    base = cfg.solver
    start = time.perf_counter()
    u_f, trace_f = afb_solve(model, data, replace(base, inner="fwsb"), reference=truth)
    t_fwsb = time.perf_counter() - start
    start = time.perf_counter()
    u_g, trace_g = afb_solve(
        model, data, replace(base, inner="gauss_seidel"), reference=truth
    )
    t_gs = time.perf_counter() - start
    zero_filled = trace_f.psnr[0]
    p_f, p_g = trace_f.psnr[-1], trace_g.psnr[-1]
    total = t_fwsb + t_gs
    ok = (
        p_f >= zero_filled + 5.0
        and p_f >= p_g - 0.1
        and t_fwsb < t_gs
        and total <= 120.0
    )
    _report(
        7,
        ok,
        f"256x256, 10 radial lines ({pct:.2f}% sampled): fast splitting "
        f"{p_f:.2f} dB vs zero-filled {zero_filled:.2f}+5 dB, gauss_seidel "
        f"{p_g:.2f} dB, times {t_fwsb:.1f} s < {t_gs:.1f} s, total {total:.1f} s "
        f"(<= 120 s)",
    )


def test_criterion_08_blurred_noisy_restoration():
    cfg = load_config(CONFIG_DIR / "deblur256.cfg")
    truth, model, data, _ = build_problem(cfg)
    observed = psnr(data, truth)
    base = cfg.solver
    results = {}
    for name in ("fwsb", "gauss_seidel"):
        _, trace = afb_solve(model, data, replace(base, inner=name), reference=truth)
        results[name] = (
            trace.psnr[-1],
            trace.rel_change[-1],
            trace.iterations[-1],
        )
    ok = all(
        p > observed and rel < base.epsilon and iters <= base.max_fb
        for p, rel, iters in results.values()
    )
    p_f, rel_f, it_f = results["fwsb"]
    p_g, rel_g, it_g = results["gauss_seidel"]
    _report(
        8,
        ok,
        f"256x256 deblur: observation {observed:.2f} dB, restored "
        f"fwsb {p_f:.2f} dB ({it_f} steps, rel {rel_f:.1e}), "
        f"gauss_seidel {p_g:.2f} dB ({it_g} steps, rel {rel_g:.1e}), "
        f"both below eps={base.epsilon:g} within {base.max_fb} steps",
    )


def test_criterion_09_reruns_reproduce_traces():
    truth = piecewise_test_image(32)
    model = GaussianBlurModel(32, 1.2, 5)
    checked = []
    for name in ("fwsb", "gauss_seidel"):
        traces = []
        for _ in range(2):
            data = add_gaussian_noise(model.apply(truth), NoiseSpec(1e-4, 7))
            cfg = SolverConfig(lam=1e-3, beta=0.9, max_fb=8, inner=name)
            _, trace = afb_solve(model, data, cfg, reference=truth)
            traces.append(trace)
        a, b = traces
        same = (
            a.iterations == b.iterations
            and a.inner_iters == b.inner_iters
            and a.alpha == b.alpha
            and a.sweeps == b.sweeps
            and np.array_equal(a.psnr, b.psnr)
            and np.array_equal(a.objective, b.objective)
            and np.array_equal(a.rel_change, b.rel_change, equal_nan=True)
        )
        checked.append(same)
    ok = all(checked)
    _report(
        9,
        ok,
        "identical config and seed reproduce every trace column except "
        "wall time (both solvers, bitwise)",
    )


def test_criterion_10_extrapolation_schedule():
    first = fista_alpha(1, 2.0)
    ns = np.arange(1, 10**6 + 1, dtype=np.float64)
    a = 2.0
    alphas = ((ns + a) / a - 1.0) / ((ns + a + 1.0) / a)
    rng = np.random.default_rng(1010)
    spots = np.concatenate([[1, 2, 3, 10**6], rng.integers(1, 10**6, size=200)])
    spot_ok = all(fista_alpha(int(n), a) == alphas[int(n) - 1] for n in spots)
    in_range = bool(np.all(alphas >= 0.0) and np.all(alphas < 1.0))
    ok = first == 0.25 and spot_ok and in_range
    _report(
        10,
        ok,
        f"first extrapolation weight {first} == 0.25 and alpha in [0, 1) "
        f"across n = 1..10^6 (max {alphas.max():.8f})",
    )
