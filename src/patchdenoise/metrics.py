"""Image quality metrics: PSNR and mean local SSIM."""

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


def _check_pair(ref, test) -> tuple[np.ndarray, np.ndarray]:
    ref = as_image(ref)
    test = as_image(test)
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")
    return ref, test


def psnr(ref, test) -> float:
    """Peak signal-to-noise ratio in dB for peak 255; +inf when identical."""
    ref, test = _check_pair(ref, test)
    mse = float(np.mean((ref - test) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


def _gaussian_window() -> np.ndarray:
    half = _SSIM_WINDOW // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(coords**2) / (2.0 * _SSIM_SIGMA**2))
    window = np.outer(g, g)
    return window / window.sum()


def _local_mean(img: np.ndarray, window: np.ndarray) -> np.ndarray:
    # Imported here, not at the top: scipy.signal costs about 38 MB and
    # 0.8 s, and only SSIM needs it. Importing patchdenoise, or denoising
    # without a clean image, never loads it.
    from scipy.signal import convolve2d

    # Symmetric window, so convolution equals correlation.
    return convolve2d(img, window, mode="valid")


def ssim(ref, test) -> float:
    """Mean local SSIM over valid 11x11 Gaussian windows.

    Requires both images to share dimensions with min side >= 11.
    """
    ref, test = _check_pair(ref, test)
    if min(ref.shape) < _SSIM_WINDOW:
        raise ValueError(
            f"images must have min side >= {_SSIM_WINDOW}, got {ref.shape}"
        )
    window = _gaussian_window()
    mu1 = _local_mean(ref, window)
    mu2 = _local_mean(test, window)
    mu1_sq = mu1 * mu1
    mu2_sq = mu2 * mu2
    mu1_mu2 = mu1 * mu2
    var1 = _local_mean(ref * ref, window) - mu1_sq
    var2 = _local_mean(test * test, window) - mu2_sq
    cov = _local_mean(ref * test, window) - mu1_mu2
    numerator = (2.0 * mu1_mu2 + _C1) * (2.0 * cov + _C2)
    denominator = (mu1_sq + mu2_sq + _C1) * (var1 + var2 + _C2)
    return float(np.mean(numerator / denominator))
