"""Reconstruction quality measures: RMSE and PSNR against a reference image."""

from __future__ import annotations

import numpy as np

__all__ = ["rmse", "psnr"]


def rmse(u: np.ndarray, x: np.ndarray) -> float:
    """Root mean squared error sqrt(sum((u - x)^2) / N^2)."""
    if u.shape != x.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {x.shape}")
    d = u - x
    return float(np.sqrt(np.mean(d * d)))


def psnr(u: np.ndarray, x: np.ndarray) -> float:
    """Peak signal-to-noise ratio 20*log10(max(x) / rmse(u, x)), in dB.

    The peak is taken over the reference x only, so the measure is not
    symmetric in its arguments.  Returns +inf when u equals x exactly.
    """
    peak = float(x.max())
    if peak <= 0:
        raise ValueError(f"reference peak must be positive, got {peak}")
    err = rmse(u, x)
    if err == 0.0:
        return float("inf")
    return float(20.0 * np.log10(peak / err))

