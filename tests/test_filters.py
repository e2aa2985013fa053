"""Filter core: basis learning, priors, and every shrinkage rule.

Each closed-form rule is validated against an independent route: random
rotation sweeps for the basis, per-coordinate grid searches and Monte Carlo
risk estimates for the shrinkage formulas, and exact algebraic identities
for the fitted prior.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchdenoise import filters
from patchdenoise.filters import (
    PatchEnsemble,
    apply_filter,
    group_sparse_basis,
    oracle_basis,
    spectrum_bayes,
    spectrum_bm3d_pilot,
    spectrum_lpg,
    spectrum_oracle,
    spectrum_penalized,
)
from patchdenoise.oracles import (
    grid_min_shrinkage,
    l12_norm,
    local_prior,
    random_orthonormal,
    range_filter_tolerance,
    spectral_lipschitz,
)

EPS = 2.0**-52
GAMMA = 0.02


def _ensemble(rng, d=8, k=20, scale=10.0, uniform=True):
    P = scale * rng.standard_normal((d, k))
    if uniform:
        w = np.full(k, 1.0 / k)
    else:
        w = rng.random(k) + 0.05
        w /= w.sum()
    return PatchEnsemble(P=P, weights=w)


class TestL12Norm:
    def test_identity_matrix(self):
        assert l12_norm(np.eye(2)) == 2.0

    def test_zero_matrix(self):
        assert l12_norm(np.zeros((5, 7))) == 0.0

    def test_single_row_3_4_5(self):
        assert l12_norm(np.array([[3.0, 4.0]])) == 5.0


class TestGroupSparseBasis:
    def test_rank_one_single_patch(self, rng):
        p = rng.standard_normal(8)
        ens = PatchEnsemble(P=p[:, None], weights=np.array([1.0]))
        U, s = group_sparse_basis(ens)
        assert U.shape == (8, 1) and s.shape == (1,)
        assert s[0] == pytest.approx(np.linalg.norm(p) ** 2, rel=1e-12)
        direction = p / np.linalg.norm(p)
        assert abs(abs(U[:, 0] @ direction) - 1.0) < 1e-12

    def test_orthogonal_columns_diagonal_case(self):
        a, b = 6.0, 2.0
        P = np.zeros((5, 2))
        P[0, 0], P[1, 1] = a, b
        ens = PatchEnsemble(P=P, weights=np.array([0.5, 0.5]))
        _, s = group_sparse_basis(ens)
        np.testing.assert_allclose(s, [a**2 / 2, b**2 / 2], rtol=1e-12)

    def test_orthonormal_descending_nonnegative(self, rng):
        for _ in range(10):
            U, s = group_sparse_basis(_ensemble(rng, uniform=False))
            np.testing.assert_allclose(U.T @ U, np.eye(8), atol=1e-9)
            assert np.all(np.diff(s) <= 1e-12)
            assert np.all(s >= 0)

    def test_no_rotation_beats_projection_sparsity(self, rng):
        ens = _ensemble(rng)
        U, _ = group_sparse_basis(ens)
        ours = l12_norm(U.T @ ens.P)
        for trial in range(1000):
            R = random_orthonormal(8, trial)
            assert ours <= l12_norm(R.T @ ens.P) + 1e-9

    def test_weighted_form_optimal_for_weighted_projection(self, rng):
        ens = _ensemble(rng, uniform=False)
        U, _ = group_sparse_basis(ens)
        scaled = ens.P * np.sqrt(ens.weights)[None, :]
        ours = l12_norm(U.T @ scaled)
        for trial in range(500):
            R = random_orthonormal(8, trial)
            assert ours <= l12_norm(R.T @ scaled) + 1e-9

    def test_sign_convention_deterministic(self, rng):
        ens = _ensemble(rng)
        U1, _ = group_sparse_basis(ens)
        U2, _ = group_sparse_basis(ens)
        np.testing.assert_array_equal(U1, U2)
        anchors = np.argmax(np.abs(U1), axis=0)
        assert np.all(U1[anchors, np.arange(8)] > 0)

    def test_all_zero_ensemble_has_an_empty_basis_and_a_zero_patch(self, rng):
        ens = PatchEnsemble(P=np.zeros((8, 5)), weights=np.full(5, 0.2))
        U, s = group_sparse_basis(ens)
        assert U.shape == (8, 0) and s.shape == (0,)
        q = rng.standard_normal(8)
        lam = spectrum_bayes(s, 3.0)
        np.testing.assert_array_equal(apply_filter(U, lam, q), 0.0)

    def test_overflowing_second_moment_rejected(self):
        ens = PatchEnsemble(P=np.full((4, 2), 1e200), weights=np.full(2, 0.5))
        # numpy's overflow warning is not the point here; the error is.
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="second moment overflows"):
            group_sparse_basis(ens)


_SPECTRAL_RULES = {
    "bayes": lambda s, sigma, gamma: spectrum_bayes(s, sigma),
    "bayes_l1": lambda s, sigma, gamma: spectrum_penalized(s, sigma, gamma, 1),
    "bayes_l0": lambda s, sigma, gamma: spectrum_penalized(s, sigma, gamma, 0),
}


def _full_eigh(ens):
    """(U, s) from a full d x d eigh of M = P W P^T, formed here, as
    oracles._check_range_filter forms it."""
    M = (ens.P * ens.weights) @ ens.P.T
    s, U = np.linalg.eigh(0.5 * (M + M.T))
    return U, np.maximum(s, 0.0)


def _spectral_filter(basis, rule, sigma, gamma):
    U, s = basis
    return (U * _SPECTRAL_RULES[rule](s, sigma, gamma)) @ U.T


@st.composite
def _rank_deficient_ensembles(draw):
    """Repeats of up to four columns, each random, flat, zero or a random
    one nudged by a relative 1e-4 to 1e-14, with weights spread over 15
    decades, and a reordering of the references."""
    d = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "flat", "zero", "nudged"]),
                          min_size=1, max_size=4))
    flat = draw(st.floats(-255.0, 255.0))
    nudge = 10.0 ** -draw(st.floats(4.0, 14.0))
    anchor = 255.0 * rng.random(d)
    base = [255.0 * rng.random(d) if kind == "random" else
            anchor + nudge * 255.0 * rng.random(d) if kind == "nudged" else
            np.full(d, flat if kind == "flat" else 0.0) for kind in kinds]
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=40))
    decades = draw(st.lists(st.floats(0.0, 15.0), min_size=len(picks),
                            max_size=len(picks)))
    w = 10.0 ** -np.array(decades)
    # Flat columns are all multiples of one direction; on d = 1 every column is.
    directions = len({i for i in picks if kinds[i] in ("random", "nudged")})
    directions += any(kinds[i] == "flat" for i in picks) and flat != 0.0
    order = np.array(draw(st.permutations(range(len(picks)))))
    sigma = draw(st.sampled_from([5.0, 20.0, 50.0]))
    gamma = draw(st.sampled_from([0.0, 0.02, 5.0]))
    P = np.column_stack([base[i] for i in picks])
    return P, w / w.sum(), min(d, directions), order, sigma, gamma


class TestRangeBasis:
    """group_sparse_basis against a full eigh of M, within the bound
    oracles.range_filter_tolerance derives."""

    @settings(max_examples=500, deadline=None)
    @given(_rank_deficient_ensembles())
    def test_range_filter_is_the_full_filter(self, case):
        P, w, directions, order, sigma, gamma = case
        ens = PatchEnsemble(P=P, weights=w)
        d, k = P.shape
        T = float(np.einsum("ij,ij->j", P, P) @ w)
        U, s = group_sparse_basis(ens)
        r = U.shape[1]
        assert U.shape == (d, r) and s.shape == (r,) and r <= directions
        assert np.all(s > 0) and np.all(np.diff(s) <= 0)
        np.testing.assert_allclose(U.T @ U, np.eye(r), rtol=0,
                                   atol=2 * (d + k) * EPS)
        M = (P * w) @ P.T
        # Each of the (d + k)^2 roundings may also lose up to 2**-1075 to
        # gradual underflow where squares of tiny entries are subnormal.
        np.testing.assert_allclose(M @ U, U * s, rtol=0,
                                   atol=range_filter_tolerance(d, k, T, 1.0)
                                   + (d + k) ** 2 * 2.0**-1074)

        full = _full_eigh(ens)
        shuffled = group_sparse_basis(PatchEnsemble(P=P[:, order], weights=w[order]))
        jump = (gamma + np.sqrt(gamma**2 + 4 * gamma * sigma**2)) / 2
        for rule in _SPECTRAL_RULES:
            if rule == "bayes_l0" and np.any(
                    np.abs(full[1] - jump) <= 2 * (4 * d + 3 * k + 3) * EPS * T):
                continue  # the hard threshold may fall either way
            tol = range_filter_tolerance(d, k, T,
                                         spectral_lipschitz(rule, sigma, gamma))
            ours = _spectral_filter((U, s), rule, sigma, gamma)
            for other in (full, shuffled):
                other = _spectral_filter(other, rule, sigma, gamma)
                assert np.abs(ours - other).max() <= tol


# Few distinct values, signed zeros and repeated columns and weights, so
# examples often rebuild a second moment seen before, or one that differs
# from it only in the sign of a zero.
_REPEAT_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1 / 3, -7.0])


@st.composite
def _repeating_ensembles(draw):
    d = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(_REPEAT_VALUES, min_size=d, max_size=d),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=8))
    raw = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=len(picks),
                        max_size=len(picks)))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    P = np.array([base[i] for i in picks], dtype=dtype).T
    w = np.array(raw, dtype=dtype)
    return P, w / w.sum()


class TestBasisDeterminism:
    """The range basis is a function of the ensemble's bytes: copies of an
    ensemble get the same bits, in any thread, and its filter is a full
    eigh's within the derived bound."""

    @settings(max_examples=300, deadline=None)
    @given(_repeating_ensembles())
    def test_copies_get_the_same_bytes_and_the_full_filter(self, case):
        P, w = case
        ens = PatchEnsemble(P=P, weights=w)
        U, s = group_sparse_basis(ens)
        again = group_sparse_basis(PatchEnsemble(P=P.copy(), weights=w.copy()))
        for got, want in zip(again, (U, s)):
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

        d, k = P.shape
        P64, w64 = P.astype(np.float64), w.astype(np.float64)
        T = float(np.einsum("ij,ij->j", P64, P64) @ w64)
        tol = range_filter_tolerance(d, k, T, spectral_lipschitz("bayes", 5.0, 0.0))
        full = _full_eigh(PatchEnsemble(P=P64, weights=w64))
        ours = _spectral_filter((U, s), "bayes", 5.0, 0.0)
        assert np.abs(ours - _spectral_filter(full, "bayes", 5.0, 0.0)).max() <= tol

    def test_threads_get_the_one_thread_basis(self, rng):
        ensembles = [_ensemble(rng) for _ in range(12)]
        want = [group_sparse_basis(ens) for ens in ensembles]

        def work(start):
            return [(j % 12, group_sparse_basis(ensembles[j % 12]))
                    for j in range(start, start + 200)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, start) for start in range(8)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for j, (U, s) in (item for part in results for item in part):
            assert U.tobytes() == want[j][0].tobytes()
            assert s.tobytes() == want[j][1].tobytes()


@st.composite
def _separated_ensembles(draw):
    """An ensemble whose second moment is U0 diag(s) U0^T by construction:
    r orthonormal directions, eigenvalues at least a factor of 2 apart and
    the smallest above 2**-12 of the largest, k >= r references with
    weights within two decades, and a reordering and sign flip of the
    references; a true patch, a pilot and a query, and a noise level."""
    d = draw(st.integers(1, 16))
    r = draw(st.integers(1, min(d, 4)))
    k = draw(st.integers(r, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.lists(st.integers(0, 12), min_size=r, max_size=r,
                           unique=True))
    s = d * 255.0**2 * 2.0 ** -np.sort(np.array(levels, dtype=float))
    U0 = random_orthonormal(d, int(rng.integers(2**32)))[:, :r]
    G = random_orthonormal(k, int(rng.integers(2**32)))[:r]  # G G^T = I
    w = 10.0 ** -rng.uniform(0.0, 2.0, k)
    w /= w.sum()
    P = U0 @ (np.sqrt(s)[:, None] * G / np.sqrt(w))  # P W P^T = U0 diag(s) U0^T
    order = np.array(draw(st.permutations(range(k))))
    signs = rng.choice([1.0, -1.0], size=k)
    p, pilot, q = 255.0 * rng.standard_normal((3, d))
    sigma = draw(st.sampled_from([5.0, 20.0, 50.0]))
    return P, w, s, order, signs, (p, pilot, q), sigma


def _coefficient_lipschitz(s, d, v_norm, sigma):
    """Lipschitz constant in M, near M, of the filter of bm3d_pilot, lpg and
    oracle (on oracle_basis) that reads the coefficients of a vector of norm
    v_norm, when M's nonzero eigenvalues s are simple.

    By Davis-Kahan, a perturbation E of M moves the unit eigenvector of s_i
    by at most 2 sqrt(2) ||E|| / g_i, g_i the distance from s_i to the rest
    of M's spectrum (0 included when r < d). A direction u moving by delta
    moves lam u u^T by at most (2 + 2 v_norm / sigma) delta, as the three
    rules have |dlam / da| <= 2 / sigma in the coefficient a = u^T v. The
    oracle's unit residual moves by at most 2 v_norm / ||r|| times the
    movement of U U^T, at most 2 sum delta_i, with lam <= ||r||^2 / sigma^2,
    and its coefficient ||r|| by at most v_norm times it: 12 v_norm / sigma
    sum delta_i more in all. Two perturbed bases are compared, so twice.
    """
    others = [np.delete(np.append(s, 0.0) if len(s) < d else s, i)
              for i in range(len(s))]
    gaps = np.array([np.abs(o - s_i).min() if len(o) else np.inf
                     for s_i, o in zip(s, others)])
    return 2 * (2 + 14 * v_norm / sigma) * 2 * np.sqrt(2) * np.sum(1 / gaps)


class TestFilterInvariance:
    """On the range there is no null-space basis left to pick: every rule's
    filter is invariant to the order of the references and to each one's
    sign, within oracles.range_filter_tolerance."""

    @settings(max_examples=300, deadline=None)
    @given(_separated_ensembles())
    def test_every_rule_ignores_reference_order_and_sign(self, case):
        P, w, s, order, signs, (p, pilot, q), sigma = case
        d, k = P.shape
        T = float(s.sum())

        def filters_of(ens):
            U, s_ens = group_sparse_basis(ens)
            assert U.shape == (d, len(s))
            Uo = oracle_basis(U, p)
            pairs = {"oracle": (Uo, spectrum_oracle(Uo, p, sigma)),
                     "bm3d_pilot": (U, spectrum_bm3d_pilot(U, pilot, sigma)),
                     "lpg": (U, spectrum_lpg(U, q, sigma))}
            pairs.update((rule, (U, lam(s_ens, sigma, GAMMA)))
                         for rule, lam in _SPECTRAL_RULES.items())
            return {rule: (U * lam) @ U.T for rule, (U, lam) in pairs.items()}

        ours = filters_of(PatchEnsemble(P=P, weights=w))
        theirs = filters_of(PatchEnsemble(P=P[:, order] * signs[order],
                                          weights=w[order]))
        vectors = {"oracle": p, "bm3d_pilot": pilot, "lpg": q}
        jump = (GAMMA + np.sqrt(GAMMA**2 + 4 * GAMMA * sigma**2)) / 2
        for rule, F in ours.items():
            if rule in vectors:
                L = _coefficient_lipschitz(s, d, np.linalg.norm(vectors[rule]),
                                           sigma)
            elif rule == "bayes_l0" and np.any(
                    np.abs(s - jump) <= 4 * (4 * d + 3 * k + 3) * EPS * T):
                continue  # the hard threshold may fall either way
            else:
                L = 2 * spectral_lipschitz(rule, sigma, GAMMA)
            tol = range_filter_tolerance(d, k, T, L)
            assert np.abs(F - theirs[rule]).max() <= tol, rule


class TestOracleBasis:
    def test_residual_completes_the_true_patch(self, rng):
        U = random_orthonormal(8, 41)[:, :3]
        p = 50.0 * rng.standard_normal(8)
        Uo = oracle_basis(U, p)
        assert Uo.shape == (8, 4)
        np.testing.assert_array_equal(Uo[:, :3], U)
        np.testing.assert_allclose(Uo.T @ Uo, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(Uo @ (Uo.T @ p), p, rtol=1e-14)

    def test_patch_in_the_span_adds_no_direction(self, rng):
        U = random_orthonormal(8, 42)[:, :3]
        for p in (U @ (50.0 * rng.standard_normal(3)), np.zeros(8)):
            assert oracle_basis(U, p) is U
        square = random_orthonormal(8, 43)
        assert oracle_basis(square, rng.standard_normal(8)) is square

    def test_empty_range_takes_the_patch_direction(self, rng):
        p = rng.standard_normal(8)
        Uo = oracle_basis(np.zeros((8, 0)), p)
        np.testing.assert_allclose(Uo[:, 0], p / np.linalg.norm(p), rtol=1e-15)


class TestLocalPrior:
    def test_single_patch(self, rng):
        p = rng.standard_normal(8)
        ens = PatchEnsemble(P=p[:, None], weights=np.array([1.0]))
        prior = local_prior(ens)
        np.testing.assert_array_equal(prior.mu, p)
        np.testing.assert_allclose(prior.Sigma, 0.0, atol=1e-15)

    def test_identical_patches_zero_covariance(self, rng):
        p = rng.standard_normal(8)
        ens = PatchEnsemble(P=np.tile(p[:, None], (1, 6)), weights=np.full(6, 1 / 6))
        np.testing.assert_allclose(local_prior(ens).Sigma, 0.0, atol=1e-12)

    def test_second_moment_identity(self, rng):
        for _ in range(25):
            ens = _ensemble(rng, uniform=False, scale=rng.uniform(1, 200))
            prior = local_prior(ens)
            lhs = np.outer(prior.mu, prior.mu) + prior.Sigma
            rhs = (ens.P * ens.weights[None, :]) @ ens.P.T
            err = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
            assert err <= 1e-10

    def test_covariance_psd(self, rng):
        ens = _ensemble(rng, uniform=False)
        eigvals = np.linalg.eigvalsh(local_prior(ens).Sigma)
        assert eigvals.min() >= -1e-9


class TestOracleSpectrum:
    def test_aligned_first_direction(self, rng):
        p = rng.standard_normal(8)
        U = random_orthonormal(8, 3)
        U[:, 0] = p / np.linalg.norm(p)
        # re-orthogonalize remaining columns against the first
        Q, _ = np.linalg.qr(U)
        Q[:, 0] *= np.sign(Q[:, 0] @ p)
        sigma = 5.0
        lam = spectrum_oracle(Q, p, sigma)
        n2 = np.linalg.norm(p) ** 2
        assert lam[0] == pytest.approx(n2 / (n2 + sigma**2), rel=1e-12)
        np.testing.assert_allclose(lam[1:], 0.0, atol=1e-12)

    def test_zero_noise_gives_ones(self, rng):
        U = random_orthonormal(8, 5)
        p = rng.standard_normal(8)
        lam = spectrum_oracle(U, p, 0.0)
        np.testing.assert_allclose(lam[(U.T @ p) != 0], 1.0)

    def test_zero_signal_zero_noise_gives_zero(self):
        U = np.eye(4)
        lam = spectrum_oracle(U, np.zeros(4), 0.0)
        np.testing.assert_array_equal(lam, 0.0)

    def test_matches_per_coordinate_grid_search(self, rng):
        for _ in range(10):
            U = random_orthonormal(8, int(rng.integers(2**32)))
            p = 30.0 * rng.standard_normal(8)
            sigma = float(rng.uniform(1, 60))
            lam = spectrum_oracle(U, p, sigma)
            a2 = (U.T @ p) ** 2
            for i in range(8):
                assert abs(lam[i] - grid_min_shrinkage(a2[i], sigma, 0.0, 1)) <= 1e-4


class TestBayesSpectrum:
    def test_zero_noise_gives_ones(self):
        np.testing.assert_array_equal(spectrum_bayes(np.array([4.0, 1.0]), 0.0), 1.0)

    def test_half_at_equal_signal_noise(self):
        assert spectrum_bayes(np.array([25.0]), 5.0)[0] == 0.5

    def test_degenerate_zero_over_zero(self):
        assert spectrum_bayes(np.array([0.0]), 0.0)[0] == 0.0

    def test_monte_carlo_risk_minimized_at_closed_form(self, rng):
        """Sampled prior-averaged risk over a shrinkage grid bottoms out at
        the closed-form coefficient, coordinate by coordinate."""
        d, k, sigma, draws = 6, 40, 2.0, 40000
        ens = _ensemble(rng, d=d, k=k, scale=4.0, uniform=False)
        U, s = group_sparse_basis(ens)
        lam_closed = spectrum_bayes(s, sigma)
        prior = local_prior(ens)
        # sample patches from the fitted prior, common noise for all grid points
        L = np.linalg.cholesky(prior.Sigma + 1e-9 * np.eye(d))
        p_draws = prior.mu[None, :] + rng.standard_normal((draws, d)) @ L.T
        eta = sigma * rng.standard_normal((draws, d))
        a_p = p_draws @ U  # coefficients of p in the basis
        a_q = (p_draws + eta) @ U
        grid = np.linspace(0.0, 1.0, 41)
        for i in (0, 1, d - 1):
            risks = [np.mean((lam * a_q[:, i] - a_p[:, i]) ** 2) for lam in grid]
            best = grid[int(np.argmin(risks))]
            assert abs(best - lam_closed[i]) <= 0.05

    def test_matches_grid_search_across_scales(self, rng):
        for _ in range(50):
            s = float(rng.uniform(0, 200)) ** 2
            sigma = float(rng.uniform(1, 100))
            lam = spectrum_bayes(np.array([s]), sigma)[0]
            assert abs(lam - grid_min_shrinkage(s, sigma, 0.0, 1)) <= 1e-4


class TestPenalizedSpectrum:
    def test_gamma_zero_reduces_to_bayes(self, rng):
        s = rng.uniform(0, 100, size=8)
        for alpha in (0, 1):
            np.testing.assert_array_equal(
                spectrum_penalized(s, 7.0, 0.0, alpha), spectrum_bayes(s, 7.0)
            )

    def test_soft_rule_zero_at_threshold(self):
        gamma = 6.0
        lam = spectrum_penalized(np.array([gamma / 2]), 3.0, gamma, 1)
        assert lam[0] == 0.0

    def test_hard_rule_strict_threshold(self):
        s, sigma = 3.0, 2.0
        edge = s * s / (s + sigma**2)
        assert spectrum_penalized(np.array([s]), sigma, edge + 1e-9, 0)[0] == 0.0
        assert spectrum_penalized(np.array([s]), sigma, edge - 1e-9, 0)[0] > 0.0

    def test_matches_grid_search(self, rng):
        for _ in range(100):
            s = float(rng.uniform(0, 50))
            sigma = float(rng.uniform(0.5, 10))
            gamma = float(rng.uniform(0, 5))
            alpha = int(rng.integers(2))
            lam = spectrum_penalized(np.array([s]), sigma, gamma, alpha)[0]
            assert abs(lam - grid_min_shrinkage(s, sigma, gamma, alpha)) <= 1e-4

    def test_never_exceeds_bayes(self, rng):
        for _ in range(20):
            s = rng.uniform(0, 100, size=8)
            sigma = float(rng.uniform(0.5, 50))
            gamma = float(rng.uniform(0, 10))
            for alpha in (0, 1):
                pen = spectrum_penalized(s, sigma, gamma, alpha)
                assert np.all(pen <= spectrum_bayes(s, sigma) + 1e-15)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            spectrum_penalized(np.array([1.0]), 1.0, -0.1, 1)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("alpha", [0, 1])
    def test_non_finite_gamma_rejected(self, gamma, alpha):
        with pytest.raises(ValueError, match="gamma must be >= 0 and finite"):
            spectrum_penalized(np.array([1.0]), 1.0, gamma, alpha)


class TestPilotSpectrum:
    def test_equals_oracle_at_true_patch(self, rng):
        U = random_orthonormal(8, 11)
        p = rng.standard_normal(8)
        np.testing.assert_array_equal(
            spectrum_bm3d_pilot(U, p, 3.0), spectrum_oracle(U, p, 3.0)
        )

    def test_zero_pilot_gives_zero(self):
        U = random_orthonormal(8, 12)
        np.testing.assert_array_equal(spectrum_bm3d_pilot(U, np.zeros(8), 2.0), 0.0)


class TestLpgSpectrum:
    def test_zero_noise_gives_ones(self, rng):
        U = random_orthonormal(8, 13)
        q = rng.standard_normal(8) + 0.1
        lam = spectrum_lpg(U, q, 0.0)
        np.testing.assert_allclose(lam[(U.T @ q) != 0], 1.0)

    def test_zero_at_noise_floor(self):
        U = np.eye(2)
        q = np.array([3.0, 0.0])
        lam = spectrum_lpg(U, q, 3.0)  # (u^T q)^2 == sigma^2
        assert lam[0] == 0.0

    def test_negative_raw_value_clamped(self):
        U = np.eye(1)
        sigma = 2.0
        q = np.array([np.sqrt(sigma**2 / 2)])  # raw value would be -1
        assert spectrum_lpg(U, q, sigma)[0] == 0.0

    def test_within_unit_interval(self, rng):
        U = random_orthonormal(8, 14)
        lam = spectrum_lpg(U, 100 * rng.standard_normal(8), 30.0)
        assert np.all((lam >= 0) & (lam <= 1))


class TestShrinkageMonotonicity:
    def test_all_rules_non_increasing_in_sigma(self, rng):
        U = random_orthonormal(8, 21)
        p = 20 * rng.standard_normal(8)
        q = p + rng.standard_normal(8)
        s = np.sort(rng.uniform(0, 400, size=8))[::-1]
        sigmas = [1.0, 5.0, 20.0, 50.0, 100.0]
        rules = {
            "oracle": lambda sig: spectrum_oracle(U, p, sig),
            "bayes": lambda sig: spectrum_bayes(s, sig),
            "l1": lambda sig: spectrum_penalized(s, sig, 0.5, 1),
            "l0": lambda sig: spectrum_penalized(s, sig, 0.5, 0),
            "pilot": lambda sig: spectrum_bm3d_pilot(U, p, sig),
            "lpg": lambda sig: spectrum_lpg(U, q, sig),
        }
        for name, rule in rules.items():
            values = np.stack([rule(sig) for sig in sigmas])
            diffs = np.diff(values, axis=0)
            assert np.all(diffs <= 1e-12), name


class TestApplyFilter:
    def test_unit_shrinkage_is_identity(self, rng):
        U = random_orthonormal(8, 31)
        q = rng.standard_normal(8)
        np.testing.assert_allclose(apply_filter(U, np.ones(8), q), q, atol=1e-12)

    def test_zero_shrinkage_is_zero(self, rng):
        U = random_orthonormal(8, 32)
        q = rng.standard_normal(8)
        np.testing.assert_array_equal(apply_filter(U, np.zeros(8), q), 0.0)

    def test_operator_symmetric_with_matching_spectrum(self, rng):
        U = random_orthonormal(8, 33)
        lam = rng.random(8)
        A = U @ np.diag(lam) @ U.T
        assert np.abs(A - A.T).max() <= 1e-10
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(A)), np.sort(lam),
                                   atol=1e-10)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_filter(np.eye(4), np.ones(4), np.zeros(5))


class TestEnsembleValidation:
    @pytest.mark.parametrize("basis", [group_sparse_basis, _full_eigh])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ensemble_rejected_before_either_basis(self, rng, basis,
                                                               bad):
        P = rng.standard_normal((4, 3))
        w = np.full(3, 1 / 3)
        P[2, 1] = bad
        with pytest.raises(ValueError, match="P must be finite"):
            basis(PatchEnsemble(P=P, weights=w))
        w[1] = bad
        with pytest.raises(ValueError, match="weights must be finite"):
            basis(PatchEnsemble(P=np.ones((4, 3)), weights=w))

    def test_weights_must_sum_to_one(self, rng):
        with pytest.raises(ValueError):
            PatchEnsemble(P=rng.standard_normal((4, 3)), weights=np.full(3, 0.5))

    def test_negative_weights_rejected(self, rng):
        w = np.array([1.5, -0.5])
        with pytest.raises(ValueError):
            PatchEnsemble(P=rng.standard_normal((4, 2)), weights=w)
