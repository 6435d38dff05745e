"""Log-exp edge-stopping potential and the diffusion weights it induces.

The potential is phi(t) = log2(2 / (1 + exp(-|t|/mu))): zero at the origin,
concave in |t|, saturating at one.  Its derivative with respect to |t|,

    phi'(t) = 1 / (mu * ln 2) * 1 / (1 + exp(|t|/mu)),

is what weights the difference operators: it is largest (1 / (2 mu ln 2)) on
flat regions and decays to zero across strong edges, so regularisation is
relaxed exactly where the current image has structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import WeightField, grad_w, unit_weights, weighted_tv

__all__ = ["LogExpParams", "MIN_MU", "phi", "phi_prime", "compute_weights", "default_mu"]

_LN2 = float(np.log(2.0))

# phi_prime underflows to exactly 0.0 for |t|/mu beyond ~745; weights must stay
# strictly positive (and survive squaring in the five-point stencil), so they
# are floored here.
_WEIGHT_FLOOR = 1e-150

# The largest weight is phi_prime(0) = 1 / (2 mu ln 2).  With mu >= MIN_MU it
# stays below 1e150, so the stencil's squared weights, eight to a row, stay
# finite too.
MIN_MU = 1e-150


@dataclass(frozen=True)
class LogExpParams:
    """Scale parameter of the potential."""

    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu >= MIN_MU):
            raise ConfigError(f"mu must be finite and >= {MIN_MU:g}, got {self.mu}")


def phi(t, p: LogExpParams):
    """Potential value; accepts scalars or arrays, even in t."""
    s = np.abs(t) / p.mu
    return 1.0 - np.log1p(np.exp(-s)) / _LN2


def phi_prime(t, p: LogExpParams, out=None):
    """Derivative of phi with respect to |t|; positive, even, overflow-safe.

    Written into out when given, which may be t itself.
    """
    s = np.divide(np.abs(t, out=out), p.mu, out=out)
    e = np.exp(np.negative(s, out=out), out=out)
    return np.divide(e, (1.0 + e) * (p.mu * _LN2), out=out)


def compute_weights(u: np.ndarray, p: LogExpParams) -> WeightField:
    """Weight field phi'(|forward differences of u|), floored to stay positive.

    Evaluated in place on the stacked differences, so that a weight update
    holds few image-sized temporaries beside the run's solver workspace.
    """
    t = grad_w(u, unit_weights(u.shape[0]))
    wx, wy = np.maximum(phi_prime(t, p, out=t), _WEIGHT_FLOOR, out=t)
    return WeightField(wx, wy)


def default_mu(u0: np.ndarray) -> float:
    """l1 norm of the unweighted forward differences of u0.

    Grows roughly with n^2 for natural images, so callers normally rescale
    it before building LogExpParams.
    """
    return weighted_tv(u0, unit_weights(u0.shape[0]))
