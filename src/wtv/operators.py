"""Forward models: circular Gaussian blur and undersampled Fourier sampling.

Both models expose apply/adjoint pairs that are exact adjoints under the
standard inner products (real on the image side, complex on Fourier data,
paired through the real part).  Step-size bounds for gradient descent come
from a deterministic power iteration on adjoint(apply(.)).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import ConfigError

__all__ = [
    "ForwardModel",
    "GaussianBlurModel",
    "FourierMaskModel",
    "gaussian_kernel",
    "radial_mask",
    "power_method",
    "estimate_spectral_norm",
]


class ForwardModel(ABC):
    """Linear measurement operator on (n, n) real images."""

    n: int

    @abstractmethod
    def apply(self, u: np.ndarray) -> np.ndarray:
        """Forward measurement of an image."""

    @abstractmethod
    def adjoint(self, data: np.ndarray) -> np.ndarray:
        """Adjoint of apply; always returns a real image."""

    @property
    def data_shape(self) -> tuple:
        """Shape of the measurement array; (n, n) unless a model overrides it."""
        return (self.n, self.n)

    def _check_image(self, u: np.ndarray) -> None:
        if u.shape != (self.n, self.n):
            raise ValueError(f"expected ({self.n}, {self.n}) image, got {u.shape}")


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Sampled Gaussian on a size x size grid, normalised to unit sum.

    Matches the classic 'fspecial' construction: exp(-(x^2+y^2)/(2 sigma^2))
    evaluated at integer offsets from the centre, then divided by the total.
    Size must be odd so the kernel has a centre sample.
    """
    if size % 2 == 0 or size < 1:
        raise ConfigError(f"kernel size must be odd and positive, got {size}")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    k = np.exp(-(xx * xx + yy * yy) / (2.0 * sigma * sigma))
    return k / k.sum()


class GaussianBlurModel(ForwardModel):
    """Circular convolution with a sampled Gaussian kernel, via FFT.

    The kernel is symmetric, so its transfer function is real and the model
    is self-adjoint; the stored transfer drops the O(eps) imaginary FFT
    residue, making apply and adjoint literally the same computation.
    """

    def __init__(self, n: int, sigma: float, size: int):
        if n < size:
            raise ConfigError(f"grid side {n} smaller than kernel size {size}")
        self.n = n
        self.kernel = gaussian_kernel(size, sigma)
        embedded = np.zeros((n, n))
        embedded[:size, :size] = self.kernel
        half = (size - 1) // 2
        embedded = np.roll(embedded, (-half, -half), axis=(0, 1))
        self.transfer = np.fft.fft2(embedded).real

    def apply(self, u: np.ndarray) -> np.ndarray:
        self._check_image(u)
        return np.fft.ifft2(np.fft.fft2(u) * self.transfer).real

    adjoint = apply


class FourierMaskModel(ForwardModel):
    """Binary-masked unitary 2-D Fourier sampling.

    apply returns the full (n, n) complex spectrum with unsampled entries
    zeroed; adjoint re-masks, inverts with the same unitary normalisation
    and takes the real part.
    """

    def __init__(self, mask: np.ndarray):
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ConfigError(f"mask must be square, got shape {mask.shape}")
        self.n = mask.shape[0]
        self.mask = np.asarray(mask, dtype=np.float64)
        if not np.all((self.mask == 0.0) | (self.mask == 1.0)):
            raise ConfigError("mask entries must be 0 or 1")

    def apply(self, u: np.ndarray) -> np.ndarray:
        self._check_image(u)
        return self.mask * np.fft.fft2(u, norm="ortho")

    def adjoint(self, data: np.ndarray) -> np.ndarray:
        self._check_image(data)
        return np.fft.ifft2(self.mask * data, norm="ortho").real


def radial_mask(n: int, lines: int):
    """Binary spectral mask of radial lines through DC.

    Each line runs at angle i*pi/lines through the centre of the shifted
    grid and every frequency sample the continuous line crosses is marked
    (the line is marched at sub-pixel resolution, so diagonal segments mark
    both straddled cells rather than one per major-axis step).  Samples are
    marked in point-reflected pairs about the centre, the DC sample is
    forced on, and the result is shifted to the unshifted FFT layout where
    DC sits at [0, 0].  Returns (mask, sampling percentage).
    """
    if n < 16:
        raise ConfigError(f"mask side must be at least 16, got {n}")
    if lines < 1:
        raise ConfigError(f"need at least one line, got {lines}")
    c = n // 2
    shifted = np.zeros((n, n))

    def mark(r: int, col: int) -> None:
        if 0 <= r < n and 0 <= col < n:
            shifted[r, col] = 1.0

    # eighth-pixel parametric march; fine enough that no crossed cell is
    # skipped, cheap enough not to matter
    substep = 0.125
    reach = int(math.ceil(c * math.sqrt(2.0) / substep)) + 1
    for i in range(lines):
        ang = math.pi * i / lines
        dc_, dr_ = math.cos(ang), math.sin(ang)
        for s in range(reach + 1):
            t = s * substep
            dcol = int(math.floor(dc_ * t + 0.5))
            drow = int(math.floor(dr_ * t + 0.5))
            if max(abs(dcol), abs(drow)) > c:
                break
            mark(c + drow, c + dcol)
            mark(c - drow, c - dcol)
    shifted[c, c] = 1.0
    mask = np.fft.ifftshift(shifted)
    return mask, float(100.0 * mask.sum() / mask.size)


def estimate_spectral_norm(op, n: int, tol: float = 1e-8, max_iter: int = 5000) -> float:
    """Largest eigenvalue of a symmetric PSD operator by power iteration.

    op maps (n, n) arrays to (n, n) arrays.  Starts from the normalised
    all-ones image (deterministic) and stops when the Rayleigh quotient's
    relative change drops below tol.  Estimates approach the true value
    from below.
    """
    x = np.full((n, n), 1.0 / n)
    lam = 0.0
    for _ in range(max_iter):
        y = op(x)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        lam_new = float(np.vdot(x, y).real)
        x = y / norm
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    return lam


def power_method(model: ForwardModel, tol: float = 1e-8, max_iter: int = 5000) -> float:
    """Largest eigenvalue of adjoint(apply(.)) for a forward model."""
    return estimate_spectral_norm(
        lambda x: model.adjoint(model.apply(x)), model.n, tol, max_iter
    )
