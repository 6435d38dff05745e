"""Deterministic test images and seeded Gaussian noise.

The phantom is the standard ten-ellipse head phantom with the usual
modified intensity table, so values land in [0, 1] with unit peak.  The
cartoon target is piecewise constant with both axis-aligned and curved
edges.  Noise comes from numpy's default_rng (PCG64), fully determined by
the seed; complex noise splits the variance evenly between components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["NoiseSpec", "shepp_logan", "piecewise_test_image", "add_gaussian_noise"]

# (value, x semi-axis, y semi-axis, x centre, y centre, rotation degrees)
HEAD_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.605, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def shepp_logan(n: int) -> np.ndarray:
    """Ten-ellipse head phantom on an n x n grid, values in [0, 1]."""
    if n < 2:
        raise ConfigError(f"side length must be at least 2, got {n}")
    x = np.linspace(-1.0, 1.0, n)[None, :]
    y = np.linspace(1.0, -1.0, n)[:, None]
    img = np.zeros((n, n))
    for value, a, b, x0, y0, deg in HEAD_ELLIPSES:
        t = np.deg2rad(deg)
        ct, st = np.cos(t), np.sin(t)
        xr = (x - x0) * ct + (y - y0) * st
        yr = -(x - x0) * st + (y - y0) * ct
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
    # additive table cancels to 0.2 - 0.2 inside the skull; scrub the
    # resulting -1e-17 float dust so the range contract holds exactly
    return np.maximum(img, 0.0)


def piecewise_test_image(n: int) -> np.ndarray:
    """Piecewise-constant cartoon with straight and curved edges, peak 1."""
    if n < 32:
        raise ConfigError(f"side length must be at least 32, got {n}")
    y, x = np.meshgrid(
        np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n), indexing="ij"
    )
    img = np.full((n, n), 0.15)
    img[(y >= 0.08) & (y < 0.92) & (x >= 0.06) & (x < 0.40)] = 0.45
    img[(y >= 0.62) & (y < 0.88) & (x >= 0.52) & (x < 0.90)] = 0.70
    img[(y >= 0.20) & (y < 0.34) & (x >= 0.12) & (x < 0.26)] = 0.05
    img[(y >= 0.46) & (y < 0.54) & (x >= 0.50) & (x < 0.95)] = 0.30
    img[(y - 0.26) ** 2 + (x - 0.70) ** 2 < 0.15**2] = 1.00
    return img


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise of a given variance, drawn from a seeded PCG64 stream."""

    variance: float
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.variance) and self.variance >= 0):
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")


def add_gaussian_noise(x: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Add white Gaussian noise; complex inputs get variance/2 per component."""
    if spec.variance == 0.0:
        return x.copy()
    rng = np.random.default_rng(spec.seed)
    if np.iscomplexobj(x):
        scale = np.sqrt(spec.variance / 2.0)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        return x + scale * noise
    return x + np.sqrt(spec.variance) * rng.standard_normal(x.shape)
