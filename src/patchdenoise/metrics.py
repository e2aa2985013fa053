"""Image quality metrics: PSNR and mean local SSIM, in numpy alone (SSIM's
Gaussian window is separable: its means are two 11-tap passes)."""

from __future__ import annotations

import numpy as np

from .imaging import as_image

__all__ = ["psnr", "ssim"]

# Standard SSIM constants (Wang et al.): 11x11 Gaussian window, std 1.5,
# K1 = 0.01, K2 = 0.03 on a dynamic range of L = 255.
_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2

# The normalized 1-D Gaussian; the window is the outer product of these taps.
_TAPS = np.exp(-(np.arange(_SSIM_WINDOW) - _SSIM_WINDOW // 2) ** 2
               / (2.0 * _SSIM_SIGMA**2))
_TAPS /= _TAPS.sum()


def _check_pair(ref, test) -> tuple[np.ndarray, np.ndarray]:
    ref = as_image(ref)
    test = as_image(test)
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    return ref, test


def _check_ssim_shape(shape) -> None:
    """Raise ValueError unless an image of this shape has an SSIM window."""
    if min(shape) < _SSIM_WINDOW:
        raise ValueError(f"images must have min side >= {_SSIM_WINDOW}, got {shape}")


def psnr(ref, test) -> float:
    """Peak signal-to-noise ratio in dB for peak 255; +inf when identical."""
    ref, test = _check_pair(ref, test)
    mse = float(np.mean((ref - test) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


def _local_mean(img: np.ndarray) -> np.ndarray:
    """Gaussian-weighted mean of every valid 11x11 window of img."""
    for _ in range(2):  # along rows, then along the columns of the transpose
        n = img.shape[1] - _SSIM_WINDOW + 1
        img = sum(_TAPS[t] * img[:, t : t + n] for t in range(_SSIM_WINDOW)).T
    return img


def ssim(ref, test) -> float:
    """Mean local SSIM over valid 11x11 Gaussian windows.

    Requires both images to share dimensions with min side >= 11.
    """
    ref, test = _check_pair(ref, test)
    _check_ssim_shape(ref.shape)
    mu1 = _local_mean(ref)
    mu2 = _local_mean(test)
    mu1_sq = mu1 * mu1
    mu2_sq = mu2 * mu2
    mu1_mu2 = mu1 * mu2
    var1 = _local_mean(ref * ref) - mu1_sq
    var2 = _local_mean(test * test) - mu2_sq
    cov = _local_mean(ref * test) - mu1_mu2
    numerator = (2.0 * mu1_mu2 + _C1) * (2.0 * cov + _C2)
    denominator = (mu1_sq + mu2_sq + _C1) * (var1 + var2 + _C2)
    return float(np.mean(numerator / denominator))
