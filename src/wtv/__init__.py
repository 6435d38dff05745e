"""Weighted total-variation image restoration.

Accelerated forward-backward driver with a split-Bregman proximal solve,
edge-adaptive diffusion weights from a log-exp potential, and two forward
models (circular Gaussian blur, undersampled Fourier sampling).
"""

__version__ = "0.1.0"
