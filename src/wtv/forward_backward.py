"""Accelerated forward-backward driver for weighted-TV restoration.

Minimises 1/2 ||A u - z||^2 + lam * WTV_w(u) by alternating an explicit
gradient step on the data term with the split-Bregman proximal solve of the
weighted-TV term, plus momentum extrapolation on a t-sequence
t_n = (n + a + 1)/a.  The gradient step size beta must stay below
1/lambda_max(A^T A), validated by power iteration at entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bregman import (
    INNER_SOLVERS,
    BregmanParams,
    FwsbSystem,
    GaussSeidelSystem,
    theta_bound,
    wsb_solve,
)
from .errors import ConfigError, DivergenceError
from .grid import WeightField, unit_weights, weighted_tv
from .metrics import Stopwatch, psnr
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

# Fraction of the admissible contraction bound used as theta: safely inside
# the open interval, close enough to the edge to keep the shrink threshold
# lam/theta meaningful.
THETA_SAFETY = 0.9


@dataclass(frozen=True)
class SolverConfig:
    """Settings for one restoration run.

    lam may be left unset when r0 is given, in which case the coupling
    lam = r0 * ||adjoint(z)||_1 fixes it at startup.  The splitting
    parameter theta is not a setting: each weight update sets it to
    THETA_SAFETY times the admissible bound computed from the weights.
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
    max_inner: int = 50

    def __post_init__(self):
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.inner not in INNER_SOLVERS:
            raise ConfigError(f"inner must be one of {INNER_SOLVERS}")
        if self.lam is None and self.r0 is None:
            raise ConfigError("either lam or r0 must be set")
        if self.lam is not None and not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        if self.r0 is not None and not self.r0 > 0:
            raise ConfigError(f"r0 must be positive, got {self.r0}")
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ConfigError(f"a must be positive and finite, got {self.a}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_fb < 1:
            raise ConfigError("max_fb must be at least 1")
        if not (math.isfinite(self.mu_scale) and self.mu_scale > 0):
            raise ConfigError(f"mu_scale must be positive and finite, got {self.mu_scale}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ConfigError("iteration caps must be at least 1")


@dataclass
class RunTrace:
    """Per-iteration log of one solver run.

    Row n = 0 describes the starting point adjoint(z); rel_change is NaN
    there.  cum_seconds accumulates wall time and is the only column that
    may differ between reruns of the same configuration.
    """

    iterations: list = field(default_factory=list)
    psnr: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    rel_change: list = field(default_factory=list)
    cum_seconds: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)

    def append(self, n, psnr_val, obj, rel, seconds, inner):
        self.iterations.append(n)
        self.psnr.append(psnr_val)
        self.objective.append(obj)
        self.rel_change.append(rel)
        self.cum_seconds.append(seconds)
        self.inner_iters.append(inner)

    def __len__(self) -> int:
        return len(self.iterations)


def forward_step(
    u: np.ndarray, model: ForwardModel, z: np.ndarray, beta: float
) -> np.ndarray:
    """Explicit gradient step u + beta * adjoint(z - apply(u))."""
    return u + beta * model.adjoint(z - model.apply(u))


def fista_alpha(n: int, a: float) -> float:
    """Extrapolation coefficient (t_{n-1} - 1) / t_n with t_n = (n + a + 1)/a."""
    if n < 1:
        raise ConfigError(f"iteration index must be >= 1, got {n}")
    if not a > 0:
        raise ConfigError(f"a must be positive, got {a}")
    t_prev = (n + a) / a
    t_cur = (n + a + 1) / a
    return (t_prev - 1.0) / t_cur


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


def _prepare_backward(w: WeightField, cfg: SolverConfig, lam: float):
    """Bregman settings and the inner solver's system for one weight field.

    theta is THETA_SAFETY times the bound for w.  The system is the
    FwsbSystem or GaussSeidelSystem of cfg.inner; its type picks the
    linear solver in wsb_solve.
    """
    theta = THETA_SAFETY * theta_bound(w, cfg.beta)
    p = BregmanParams(
        lam=lam,
        theta=theta,
        beta=cfg.beta,
        tau=cfg.tau,
        max_outer=cfg.max_outer,
        max_inner=cfg.max_inner,
    )
    return p, (FwsbSystem if cfg.inner == "fwsb" else GaussSeidelSystem)(w, cfg.beta, theta)


def afb_solve(
    model: ForwardModel,
    z: np.ndarray,
    cfg: SolverConfig,
    reference: np.ndarray | None = None,
):
    """Run the accelerated forward-backward loop; returns (u, RunTrace).

    Starts from adjoint(z), stops when the iterate's relative change drops
    below cfg.epsilon or after cfg.max_fb steps.  A non-finite iterate
    raises DivergenceError naming the iteration.
    """
    if z.shape != model.data_shape:
        raise ConfigError(f"data shape {z.shape} != model {model.data_shape}")
    lam_max = power_method(model)
    if lam_max > 0 and not cfg.beta * lam_max < 1.0:
        raise ConfigError(
            f"beta={cfg.beta:.6g} must stay below 1/lambda_max = {1.0 / lam_max:.6g}"
        )

    sw = Stopwatch()
    with sw.scope():
        u = model.adjoint(z)
        lam = cfg.lam if cfg.lam is not None else cfg.r0 * float(np.abs(u).sum())
        w, mu = _build_weights(u, cfg, None)
        params, system = _prepare_backward(w, cfg, lam)
        u_tilde_prev = u

    trace = RunTrace()

    def log(n, image, obj_image, rel, inner):
        val = psnr(image, reference) if reference is not None else float("nan")
        trace.append(
            n,
            val,
            objective_composite(obj_image, model, z, w, lam),
            rel,
            sw.elapsed,
            inner,
        )

    log(0, u, u, float("nan"), 0)

    for it in range(1, cfg.max_fb + 1):
        with sw.scope():
            if cfg.weight_mode == "adaptive" and it > 1:
                w, mu = _build_weights(u, cfg, mu)
                params, system = _prepare_backward(w, cfg, lam)
            v = forward_step(u, model, z, cfg.beta)
            u_tilde, m_inner, _ = wsb_solve(v, w, params, system)
            alpha = 0.0 if cfg.no_accel else fista_alpha(it, cfg.a)
            u_new = u_tilde + alpha * (u_tilde - u_tilde_prev)
            if not np.all(np.isfinite(u_new)):
                raise DivergenceError(
                    f"iterate became non-finite at forward-backward step {it}", it
                )
            new_norm = float(np.linalg.norm(u_new))
            diff_norm = float(np.linalg.norm(u_new - u))
            rel = diff_norm / new_norm if new_norm >= 1e-14 else diff_norm
            u = u_new
            u_tilde_prev = u_tilde
        log(it, u, u_tilde, rel, m_inner)
        if rel < cfg.epsilon:
            break
    return u, trace
