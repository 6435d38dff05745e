"""Accelerated forward-backward driver for weighted-TV restoration.

Minimises 1/2 ||A u - z||^2 + lam * WTV_w(u) by alternating an explicit
gradient step on the data term with the split-Bregman proximal solve of the
weighted-TV term, plus momentum extrapolation by alpha_k = k/(k + a + 1),
the weight of the schedule t_n = (n + a + 1)/a, restarted by a gradient test
under fixed weights.
The gradient step size beta must stay below 1/lambda_max(A^T A),
validated at entry against the largest Gram multiplier of the forward
model, which is exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bregman import (
    INNER_SOLVERS,
    FwsbSystem,
    GaussSeidelSystem,
    theta_bound,  # noqa: F401  not called here; see below
    wsb_solve,
)
from .errors import ConfigError, DivergenceError
from .grid import WeightField, unit_weights, weighted_tv
from .metrics import psnr
from .operators import ForwardModel, power_method
from .potential import MIN_MU, LogExpParams, compute_weights, default_mu

__all__ = [
    "SolverConfig",
    "RunTrace",
    "forward_step",
    "fista_alpha",
    "objective_composite",
    "afb_solve",
    "WEIGHT_MODES",
]

WEIGHT_MODES = ("uniform", "fixed", "adaptive")

# The run's kappa = theta/theta_bound(w, beta): each prepared system sets
# theta = KAPPA*bound, which fixes the fast-splitting relaxation
# omega = 2/(2 + kappa) and the shrink level lam/theta (the choice of kappa
# is ROADMAP item 5).  The systems call theta_bound themselves; it stays
# importable from this module only because perfbench/tracer.py hooks the
# name here, and a missing hook fails the benchmark's selftest.
KAPPA = 0.9


@dataclass(frozen=True)
class SolverConfig:
    """Settings for one restoration run.

    lam may be left unset when r0 is given, in which case the coupling
    lam = r0 * ||adjoint(z)||_1 fixes it at startup.  The splitting
    parameter theta is not a setting: each weight update builds a system
    that sets it to KAPPA times the bound theta_bound computed from the
    weights.

    max_inner caps the iterations of each linear solve inside a Bregman
    sweep.  Its default of 1 makes every sweep one inner step: one relaxed
    fast-splitting step for fwsb, one forward Gauss-Seidel sweep for
    gauss_seidel.  The Bregman loop carries what one step leaves unsolved
    into its next sweep, so solving every system to tau is not needed
    (Goldstein & Osher, SIAM J. Imaging Sci. 2009).  The same object
    carries lam, tau, max_outer and max_inner into bregman.wsb_solve and
    its linear solves, which read no other field; a direct caller that
    wants each system solved to tau passes a larger max_inner.

    With weight_mode fixed or uniform the momentum restarts (the gradient
    test of O'Donoghue & Candes, FoCM 2015): a step whose backward output
    u_tilde satisfies (u - u_tilde) . (u_tilde - u_tilde_prev) > 0, with u
    the point its forward step started from, sets k = 0, so it applies
    alpha = 0 and later steps count the schedule from there.  Adaptive
    weights keep the plain schedule, since each weight rebuild changes the
    objective.  no_accel sets k = 0 on every step.  Any positive finite a
    is accepted: the weight k/(k + a + 1) stays in [0, 1) however small a
    is.
    """

    lam: float | None = None
    beta: float = 0.9
    a: float = 2.0
    epsilon: float = 1e-4
    max_fb: int = 200
    weight_mode: str = "fixed"
    mu_scale: float = 1.0
    inner: str = "fwsb"
    r0: float | None = None
    no_accel: bool = False
    tau: float = 1e-4
    max_outer: int = 30
    max_inner: int = 1

    def __post_init__(self):
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.inner not in INNER_SOLVERS:
            raise ConfigError(f"inner must be one of {INNER_SOLVERS}")
        if self.lam is None and self.r0 is None:
            raise ConfigError("either lam or r0 must be set")
        if self.lam is not None and not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        if self.r0 is not None and not (math.isfinite(self.r0) and self.r0 > 0):
            raise ConfigError(f"r0 must be positive and finite, got {self.r0}")
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ConfigError(f"a must be positive and finite, got {self.a}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_fb < 1:
            raise ConfigError(f"max_fb must be at least 1, got {self.max_fb}")
        if not (math.isfinite(self.mu_scale) and self.mu_scale > 0):
            raise ConfigError(f"mu_scale must be positive and finite, got {self.mu_scale}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.max_outer < 1:
            raise ConfigError(f"max_outer must be at least 1, got {self.max_outer}")
        if self.max_inner < 1:
            raise ConfigError(f"max_inner must be at least 1, got {self.max_inner}")


@dataclass
class RunTrace:
    """Per-iteration log of one solver run.

    Row n = 0 describes the starting point adjoint(z); rel_change is NaN
    there, and alpha, inner_iters and sweeps are 0 (append's defaults for
    the last two).  alpha is the momentum weight a step applied, sweeps its
    Bregman sweep count.  cum_seconds accumulates the wall time of setup
    and of each step, without the logging of any row, and is the only
    column that may differ between reruns of the same configuration.
    """

    iterations: list = field(default_factory=list)
    psnr: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    rel_change: list = field(default_factory=list)
    cum_seconds: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    alpha: list = field(default_factory=list)
    sweeps: list = field(default_factory=list)

    def append(self, n, psnr_val, obj, rel, seconds, inner, alpha=0.0, sweeps=0):
        self.iterations.append(n)
        self.psnr.append(psnr_val)
        self.objective.append(obj)
        self.rel_change.append(rel)
        self.cum_seconds.append(seconds)
        self.inner_iters.append(inner)
        self.alpha.append(alpha)
        self.sweeps.append(sweeps)

    def __len__(self) -> int:
        return len(self.iterations)


def forward_step(
    u: np.ndarray, model: ForwardModel, atz: np.ndarray, beta: float
) -> np.ndarray:
    """Explicit gradient step u + beta * adjoint(z - apply(u)), atz = adjoint(z).

    The normal operator adjoint(apply(u)) is applied as the model's Gram
    multiplier, one real FFT pair.
    """
    normal = np.fft.irfft2(model.gram * np.fft.rfft2(u), s=u.shape)
    return u + beta * (atz - normal)


def fista_alpha(k: int, a: float) -> float:
    """Extrapolation weight k/(k + a + 1) = (t_{k-1} - 1)/t_k, t_n = (n + a + 1)/a.

    The closed form of the schedule's weight (Chambolle & Dossal, JOTA
    2015): 0 at k = 0, below 1 for every k, and equal to the t-form bit for
    bit at the default a = 2.  Takes k >= 0 and a > 0 unchecked:
    SolverConfig has checked a.
    """
    return k / (k + a + 1.0)


def objective_composite(
    u: np.ndarray,
    model: ForwardModel,
    z: np.ndarray,
    w: WeightField,
    lam: float,
) -> float:
    """Full problem objective 1/2 ||apply(u) - z||^2 + lam * WTV_w(u)."""
    r = model.apply(u) - z
    return 0.5 * float(np.vdot(r, r).real) + lam * weighted_tv(u, w)


def _build_weights(u: np.ndarray, cfg: SolverConfig, mu: float | None):
    if cfg.weight_mode == "uniform":
        return unit_weights(u.shape[0]), None
    if mu is None:
        width = default_mu(u)
        mu = cfg.mu_scale * width
        if mu > 0 and not MIN_MU <= mu < math.inf:
            raise ConfigError(f"mu_scale={cfg.mu_scale!r} times the automatic width "
                              f"{width!r} gives mu={mu!r}, outside [{MIN_MU:g}, inf)")
    if mu <= 0:
        # perfectly flat start image: no edges to adapt to
        return unit_weights(u.shape[0]), mu
    w = compute_weights(u, LogExpParams(mu))
    return w, mu


def _build_system(w: WeightField, cfg: SolverConfig):
    """The cfg.inner solver's system for w, at theta = KAPPA times w's bound.

    Its type, FwsbSystem or GaussSeidelSystem, picks the linear solver in
    wsb_solve.
    """
    return (FwsbSystem if cfg.inner == "fwsb" else GaussSeidelSystem)(w, cfg.beta, KAPPA)


def afb_solve(
    model: ForwardModel,
    z: np.ndarray,
    cfg: SolverConfig,
    reference: np.ndarray | None = None,
):
    """Run the accelerated forward-backward loop; returns (u, RunTrace).

    Starts from adjoint(z), stops when the iterate's relative change drops
    below cfg.epsilon or after cfg.max_fb steps.  Step n extrapolates by
    alpha = fista_alpha(k, cfg.a), k the steps since the last momentum
    restart (see SolverConfig; k = n with adaptive weights); a restart step
    and every step under no_accel set k = 0, so they apply alpha = 0.  On
    the 128x128 and 256x256 deblur runs measured the restart fired once, on
    the step where the run then stopped, so it cut the momentum's overshoot
    tail and left every earlier iterate as it was.  The trace's cum_seconds
    sums time.perf_counter spans over setup and over each step, leaving out
    the logging of every row.  A non-finite iterate raises DivergenceError
    naming the iteration; a beta at or above 1/lambda_max(A^T A), or an r0
    whose lam overflows, raises ConfigError before the first step.  When
    lam is unset it is resolved from r0 once, into a copy of cfg that every
    backward step then reads.
    """
    if z.shape != (model.n, model.n):
        raise ConfigError(f"data shape {z.shape} != model ({model.n}, {model.n})")
    lam_max = power_method(model)
    # a model that measures nothing (lam_max = 0) admits any beta
    if lam_max > 0 and not cfg.beta * lam_max < 1.0:
        raise ConfigError(
            f"beta={cfg.beta:.6g} must stay below 1/lambda_max = {1.0 / lam_max:.6g}"
        )

    start = time.perf_counter()
    atz = u = model.adjoint(z)
    if cfg.lam is None:
        norm = float(np.abs(u).sum())
        lam = cfg.r0 * norm
        if not math.isfinite(lam):
            raise ConfigError(f"r0={cfg.r0!r} times ||adjoint(z)||_1 = {norm!r} "
                              f"gives lam={lam!r}, which is not finite")
        cfg = replace(cfg, lam=lam)
    w, mu = _build_weights(u, cfg, None)
    system = _build_system(w, cfg)
    u_tilde_prev = u
    seconds = time.perf_counter() - start

    trace = RunTrace()

    def log(n, image, obj_image, rel, inner, alpha=0.0, sweeps=0):
        val = psnr(image, reference) if reference is not None else float("nan")
        trace.append(
            n,
            val,
            objective_composite(obj_image, model, z, w, cfg.lam),
            rel,
            seconds,
            inner,
            alpha,
            sweeps,
        )

    log(0, u, u, float("nan"), 0)

    # a gradient restart, and every step under no_accel, sets k = 0; each
    # weight rebuild changes the objective, so adaptive weights never restart
    restarts = cfg.weight_mode != "adaptive"
    k = 0  # steps since the momentum last restarted
    for it in range(1, cfg.max_fb + 1):
        start = time.perf_counter()
        if cfg.weight_mode == "adaptive" and it > 1:
            w, mu = _build_weights(u, cfg, mu)
            system = _build_system(w, cfg)
        v = forward_step(u, model, atz, cfg.beta)
        u_tilde, m_inner, sweeps = wsb_solve(v, cfg, system)
        step = u_tilde - u_tilde_prev
        k = 0 if cfg.no_accel or restarts and np.vdot(u - u_tilde, step) > 0 else k + 1
        alpha = fista_alpha(k, cfg.a)
        u_new = u_tilde + alpha * step
        if not np.all(np.isfinite(u_new)):
            raise DivergenceError(
                f"iterate became non-finite at forward-backward step {it}", it
            )
        new_norm = float(np.linalg.norm(u_new))
        diff_norm = float(np.linalg.norm(u_new - u))
        rel = diff_norm / new_norm if new_norm >= 1e-14 else diff_norm
        u = u_new
        u_tilde_prev = u_tilde
        seconds += time.perf_counter() - start
        log(it, u, u_tilde, rel, m_inner, alpha, sweeps)
        if rel < cfg.epsilon:
            break
    return u, trace
