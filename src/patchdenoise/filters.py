"""Spectral denoising filters learned from weighted patch ensembles.

The filter is U diag(lambda) U^T: an orthonormal basis U of eigenvectors
of the weighted second moment P W P^T of the selected reference patches,
and per-coordinate shrinkage factors lambda chosen by one of several rules.
Every rule takes group_sparse_basis, that matrix's range, off which every
reference projects to zero; the oracle adds the true patch's residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchEnsemble",
    "group_sparse_basis",
    "oracle_basis",
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
        # Checked here: the basis would find no direction in NaN or inf.
        if not np.isfinite(self.P).all():
            raise ValueError("P must be finite")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        # np.isclose(sum, 1.0)'s default tolerances, without its per-call
        # overhead; a NaN sum fails the comparison.
        w = self.weights
        if w.min() < 0 or not abs(w.sum() - 1.0) <= 1e-8 + 1e-5:
            raise ValueError("weights must be nonnegative and sum to 1")


def group_sparse_basis(ens: PatchEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Range basis of the weighted second moment M = P W P^T, for every rule.

    Returns (U, s): U is d x r with orthonormal columns spanning M's
    numerical range, s holds M's r eigenvalues on it, descending and
    positive. Of all orthonormal bases, M's eigenbasis projects the patches
    most group-sparsely (least l12 norm), and along M's null space every
    patch projects to zero, so U carries every nonzero projection. A full
    d x d eigh would add d - r directions that LAPACK picks arbitrarily,
    along which bm3d_pilot and lpg would read noise.

    Pivoted Gram-Schmidt runs on Y = P diag(sqrt(w)), M = Y Y^T, in float64
    and scaled by a power of two (exactly) so that its longest column has a
    squared norm in [1/4, 1): no square below then overflows, and none
    large enough to reach a threshold underflows. Each step takes the
    column whose residual most exceeds its threshold tau_j (the lowest
    index on ties), re-orthogonalises that residual once against the
    pivots and adds it to them as the next unit vector, then forms every
    column's residual afresh from Y against all the pivots. It stops when
    every residual's squared norm rho_j is at most tau_j. With the r pivots
    as the columns of Q, B = Q^T Y is r x k, and the eigh of B B^T (r x r)
    gives U = Q V and s; an eigenvalue computed <= 0 is dropped, as no
    reference projects measurably on it. Each column's largest-magnitude
    component (the first on ties) is made positive; no filter depends on
    the sign.

    tau_j = max((d eps)^2 n_j, (eps n0 / k)^2 / n_j), with eps the machine
    epsilon (2**-52 in float64), n_j = ||Y_j||^2 and n0 the largest n_j.
    When the loop stops, Y = Q B + R with R orthogonal to Q, and U, s are
    the eigenpairs of Q B B^T Q^T. M differs from it by the sum over
    columns of Q B_j R_j^T + R_j B_j^T Q^T + R_j R_j^T, whose Frobenius norm
    is at most sum_j 3 sqrt(n_j rho_j), as ||B_j||, ||R_j|| <= ||Y_j||. The
    threshold makes each term at most 3 eps max(d n_j, n0 / k), so the
    range basis is exact for a matrix within 3 (d + 1) eps T of M, with
    T = tr(M) = sum_j n_j, no further than a full eigh's own backward
    error (oracles.range_filter_tolerance compares the two). The two limbs
    of tau_j:
      - relative: rounding leaves a column that lies in the span of the
        pivots (a repeat, a multiple, a zero) a residual of about eps
        ||Y_j||, d times below the limb, so such a column never adds a
        direction (should rounding ever exceed the limb, the extra pivot
        only adds an s near 0);
      - absolute: a column with n_j <= eps n0 / k, such as a reference of
        negligible weight, is dropped whatever its direction.
    One threshold for every column would not do: the cross terms are of
    first order in ||R_j||, so a heavy column whose residual is just under
    a fixed tau moves M by sqrt(tau n_j).

    An all-zero ensemble has r = 0: U is d x 0 and s is empty, and
    apply_filter returns zeros. An ensemble whose eigenvalues could
    overflow (k n0 >= 2**1020, before scaling) raises ValueError.
    """
    # Y^T, C-ordered whatever P's layout, which would set the sums' order.
    Yt = np.ascontiguousarray(ens.P.T) * np.sqrt(ens.weights, dtype=np.float64)[:, None]
    k, d = Yt.shape
    n0 = float(np.vecdot(Yt, Yt).max())
    if not k * n0 < 2.0**1020:  # so that no eigenvalue overflows
        raise ValueError("the ensemble's second moment overflows float64")
    e = math.frexp(math.sqrt(n0))[1]
    Yt *= 2.0**-e  # exact; now n0 lies in [1/4, 1)
    n = np.vecdot(Yt, Yt)
    eps = 2.0**-52
    small = (eps * n.max() / k) ** 2
    # A zero or subnormal column gets a tau_j far above any rho_j <= 1.
    tau = np.maximum((d * eps) ** 2 * n, small / np.maximum(n, 2.0**-1022))
    Qt = np.empty((min(d, k), d))  # Q^T: one row per pivot
    Bt = Yt[:, :0]  # Y^T Q, k x r
    r, R, rho = 0, Yt, n
    while r < len(Qt):
        j = (rho - tau).argmax()
        if not rho[j] > tau[j]:
            break
        v = R[j] / math.sqrt(rho[j])
        if r:
            v -= (Qt[:r] @ v) @ Qt[:r]
            v /= math.sqrt(v @ v)
        Qt[r] = v
        r += 1
        Bt = Yt @ Qt[:r].T
        R = Yt - Bt @ Qt[:r]
        rho = np.vecdot(R, R)
    s, V = np.linalg.eigh(Bt.T @ Bt)
    s, V = s[::-1], V[:, ::-1]  # eigh's ascending order, reversed
    keep = np.count_nonzero(s > 0)
    U = Qt[:r].T @ V[:, :keep]
    U *= np.copysign(1.0, U[np.abs(U).argmax(axis=0), np.arange(keep)])
    return U, s[:keep] * 4.0**e


def oracle_basis(U, p_true) -> np.ndarray:
    """U plus the unit residual r/||r||, r = (I - U U^T) p_true, projected
    out twice to stay orthogonal to U: on it the oracle's coefficients carry
    all of p_true, so its expected error is no larger than on U alone. U is
    returned as it is when square, or when ||r|| <= d eps ||p_true|| (eps =
    2**-52), what rounding leaves of a p_true in U's span; that costs ||r||^2.
    """
    p = np.asarray(p_true, dtype=np.float64)
    res = p - U @ (U.T @ p)
    res -= U @ (U.T @ res)
    norm = math.sqrt(res @ res)
    if U.shape[1] >= len(p) or not norm > len(p) * 2.0**-52 * math.sqrt(p @ p):
        return U
    return np.column_stack([U, res / norm])


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
    """Pilot-estimate shrinkage: the oracle rule evaluated at pbar.

    Inside a repeated nonzero eigenvalue of P W P^T any rotation of the
    eigenvectors is an eigenbasis, and lam depends on the one LAPACK picks.
    """
    return spectrum_oracle(U, pbar, sigma)


def spectrum_lpg(U, q, sigma: float) -> np.ndarray:
    """Noisy-coefficient shrinkage lam = (t - sigma^2) / t, t = (U^T q)^2.

    The raw value is negative when t < sigma^2; it is clamped to [0, 1]
    since any lam outside that range only increases the expected MSE. As
    for spectrum_bm3d_pilot, lam depends on LAPACK's pick of eigenvectors
    inside a repeated nonzero eigenvalue.
    """
    t = (np.asarray(U).T @ np.asarray(q, dtype=np.float64)) ** 2
    return np.clip(_safe_ratio(t - sigma**2, t), 0.0, 1.0)


def apply_filter(U, lam, q) -> np.ndarray:
    """Apply U diag(lam) U^T to the patch q."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (U.shape[0],):
        raise ValueError(f"patch shape {q.shape} does not match basis {U.shape}")
    return U @ (lam * (U.T @ q))
