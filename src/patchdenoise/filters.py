"""Spectral denoising filters learned from weighted patch ensembles.

The filter is U diag(lambda) U^T: an orthonormal basis U obtained from the
eigendecomposition of the weighted second-moment matrix P W P^T of the
selected reference patches, and per-coordinate shrinkage factors lambda
chosen by one of several rules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchEnsemble",
    "group_sparse_basis",
    "spectrum_oracle",
    "spectrum_bayes",
    "spectrum_penalized",
    "spectrum_bm3d_pilot",
    "spectrum_lpg",
    "apply_filter",
]


@dataclass(frozen=True)
class PatchEnsemble:
    """A d x k matrix of selected patches with normalized similarity weights.

    P: (d, k) float64, columns are the selected reference patches.
    weights: (k,) nonnegative, summing to 1.
    """

    P: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.P.ndim != 2 or self.P.shape[1] < 1:
            raise ValueError("P must be a (d, k) matrix with k >= 1")
        if self.weights.shape != (self.P.shape[1],):
            raise ValueError("weights must have one entry per patch column")
        # np.isclose(sum, 1.0)'s default tolerances, without its per-call
        # overhead; a NaN sum fails the comparison.
        w = self.weights
        if w.min() < 0 or not abs(w.sum() - 1.0) <= 1e-8 + 1e-5:
            raise ValueError("weights must be nonnegative and sum to 1")


def group_sparse_basis(ens: PatchEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Basis minimizing the l12 norm of the projected patch matrix.

    Eigendecomposes the symmetrized weighted second moment M = P W P^T.
    Returns (U, s) with eigenvalues sorted descending and clamped at zero.

    Each eigenvector's sign is fixed so its largest-magnitude component is
    positive; the filter U diag(lam) U^T is invariant to this choice.

    The eigendecomposition is memoized on the exact bytes (and dtype) of M,
    keeping the 8 most recent: patches in a flat region select the same
    references with the same weights, so they build a byte-identical M.
    One-thread eigh is a deterministic function of those bytes, so a hit
    returns exactly what a fresh call would; a -0.0/0.0 difference is just
    a miss. U and s are shared between calls, so they are read-only: copy
    them before writing. U keeps the layout the descending sort gives it
    (Fortran order); apply_filter's U.T @ q sums in another order on a
    C-ordered copy, so its last bits would differ.
    """
    M = (ens.P * ens.weights[None, :]) @ ens.P.T
    M = 0.5 * (M + M.T)  # kill floating-point asymmetry
    return _eigh_basis(M.tobytes(), M.dtype)


@functools.lru_cache(maxsize=8)
def _eigh_basis(key: bytes, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    M = np.frombuffer(key, dtype=dtype)
    d = math.isqrt(M.size)
    vals, vecs = np.linalg.eigh(M.reshape(d, d))
    order = np.argsort(vals, kind="stable")[::-1]
    s = np.maximum(vals[order], 0.0)
    U = vecs[:, order]
    anchors = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[anchors, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    U = U * signs[None, :]
    U.flags.writeable = False
    s.flags.writeable = False
    return U, s


# ---------------------------------------------------------------------------
# Shrinkage rules
# ---------------------------------------------------------------------------


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # 0/0 (zero signal at sigma = 0) resolves to 0: the direction carries
    # no signal, so passing it through would only keep noise.
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def spectrum_oracle(U, p_true, sigma: float) -> np.ndarray:
    """Ground-truth shrinkage: lam_i = a_i^2 / (a_i^2 + sigma^2), a = U^T p."""
    a2 = (np.asarray(U).T @ np.asarray(p_true, dtype=np.float64)) ** 2
    return _safe_ratio(a2, a2 + sigma**2)


def spectrum_bayes(s, sigma: float) -> np.ndarray:
    """Bayes-optimal shrinkage for the ensemble prior: lam = s / (s + sigma^2)."""
    s = np.asarray(s, dtype=np.float64)
    return _safe_ratio(s, s + sigma**2)


def _check_gamma(gamma: float) -> None:
    if not 0 <= gamma < np.inf:  # NaN fails too
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")


def spectrum_penalized(s, sigma: float, gamma: float, alpha: int) -> np.ndarray:
    """Sparsity-penalized shrinkage; gamma = 0 reduces to spectrum_bayes.

    alpha = 1 soft-thresholds: lam = max((s - gamma/2) / (s + sigma^2), 0).
    alpha = 0 hard-thresholds: lam = s / (s + sigma^2) when
    s^2 / (s + sigma^2) > gamma, else 0.
    """
    _check_gamma(gamma)
    s = np.asarray(s, dtype=np.float64)
    den = s + sigma**2
    if alpha == 1:
        return np.maximum(_safe_ratio(s - gamma / 2.0, den), 0.0)
    if alpha == 0:
        keep = _safe_ratio(s * s, den) > gamma
        return np.where(keep, _safe_ratio(s, den), 0.0)
    raise ValueError(f"alpha must be 0 or 1, got {alpha}")


def spectrum_bm3d_pilot(U, pbar, sigma: float) -> np.ndarray:
    """Pilot-estimate shrinkage: the oracle rule evaluated at pbar."""
    return spectrum_oracle(U, pbar, sigma)


def spectrum_lpg(U, q, sigma: float) -> np.ndarray:
    """Noisy-coefficient shrinkage lam = (t - sigma^2) / t, t = (U^T q)^2.

    The raw value is negative when t < sigma^2; it is clamped to [0, 1]
    since any lam outside that range only increases the expected MSE.
    """
    t = (np.asarray(U).T @ np.asarray(q, dtype=np.float64)) ** 2
    return np.clip(_safe_ratio(t - sigma**2, t), 0.0, 1.0)


def apply_filter(U, lam, q) -> np.ndarray:
    """Apply U diag(lam) U^T to the patch q."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (U.shape[0],):
        raise ValueError(f"patch shape {q.shape} does not match basis {U.shape}")
    return U @ (lam * (U.T @ q))
