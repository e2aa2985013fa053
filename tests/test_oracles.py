"""The verification battery itself: estimator sanity and mutation checks."""

import json

import numpy as np
import pytest

from patchdenoise import filters
from patchdenoise.oracles import (
    bayes_mse,
    filter_mse_expected,
    filter_mse_monte_carlo,
    grid_min_shrinkage,
    random_orthonormal,
    verify_all,
)


class TestMonteCarloMse:
    def test_noiseless_case_exact(self, rng):
        U = random_orthonormal(8, 1)
        lam = rng.random(8)
        p = rng.standard_normal(8) * 10
        A = U @ np.diag(lam) @ U.T
        expected = np.linalg.norm(A @ p - p) ** 2
        measured = filter_mse_monte_carlo(U, lam, p, 0.0, trials=10, seed=0)
        assert measured == pytest.approx(expected, rel=1e-12)

    def test_identity_filter_passes_noise_through(self, rng):
        U = random_orthonormal(8, 2)
        p = rng.standard_normal(8)
        sigma = 3.0
        measured = filter_mse_monte_carlo(U, np.ones(8), p, sigma, 200_000, seed=1)
        assert measured == pytest.approx(8 * sigma**2, rel=0.01)

    def test_matches_closed_form_within_one_percent(self, rng):
        U = random_orthonormal(8, 3)
        lam = rng.random(8)
        p = 50 * rng.standard_normal(8)
        sigma = 25.0
        measured = filter_mse_monte_carlo(U, lam, p, sigma, 200_000, seed=2)
        assert measured == pytest.approx(
            filter_mse_expected(U, lam, p, sigma), rel=0.01
        )

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            filter_mse_monte_carlo(np.eye(2), np.ones(2), np.ones(2), 1.0, 0, 0)


class TestExpectedMse:
    def test_zero_shrinkage_gives_signal_energy(self, rng):
        U = random_orthonormal(8, 4)
        p = rng.standard_normal(8) * 7
        value = filter_mse_expected(U, np.zeros(8), p, 11.0)
        assert value == pytest.approx(np.linalg.norm(p) ** 2, rel=1e-12)

    def test_unit_shrinkage_gives_noise_energy(self, rng):
        U = random_orthonormal(8, 5)
        p = rng.standard_normal(8)
        assert filter_mse_expected(U, np.ones(8), p, 4.0) == pytest.approx(
            8 * 16.0, rel=1e-12
        )

    def test_oracle_shrinkage_closed_form_value(self, rng):
        U = random_orthonormal(8, 6)
        p = 20 * rng.standard_normal(8)
        sigma = 9.0
        lam = filters.spectrum_oracle(U, p, sigma)
        a2 = (U.T @ p) ** 2
        expected = np.sum(sigma**2 * a2 / (a2 + sigma**2))
        assert filter_mse_expected(U, lam, p, sigma) == pytest.approx(
            expected, rel=1e-12
        )


class TestBayesMse:
    def test_minimum_value_at_closed_form(self, rng):
        g = rng.uniform(0, 50, size=8)
        sigma = 3.0
        lam = g / (g + sigma**2)
        assert bayes_mse(g, lam, sigma) == pytest.approx(
            np.sum(g * sigma**2 / (g + sigma**2)), rel=1e-12
        )

    def test_zero_shrinkage_gives_prior_energy(self, rng):
        g = rng.uniform(0, 50, size=8)
        assert bayes_mse(g, np.zeros(8), 5.0) == pytest.approx(g.sum(), rel=1e-12)

    def test_closed_form_below_grid_sweep(self, rng):
        g = rng.uniform(0, 50, size=4)
        sigma = 2.0
        best = bayes_mse(g, g / (g + sigma**2), sigma)
        for lam0 in np.linspace(0, 1, 101):
            assert best <= bayes_mse(g, np.full(4, lam0), sigma) + 1e-12


class TestGridMinShrinkage:
    def test_gamma_zero_recovers_plain_ratio(self):
        s, sigma = 12.0, 2.0
        assert grid_min_shrinkage(s, sigma, 0.0, 1) == pytest.approx(
            s / (s + sigma**2), abs=1e-4
        )

    def test_soft_rule_zero_below_threshold(self):
        gamma = 4.0
        assert grid_min_shrinkage(1.0, 1.0, gamma, 1) == 0.0  # s < gamma/2

    def test_matches_closed_forms_on_random_triples(self, rng):
        for _ in range(50):
            s = float(rng.uniform(0, 50))
            sigma = float(rng.uniform(0.5, 10))
            gamma = float(rng.uniform(0, 5))
            alpha = int(rng.integers(2))
            closed = filters.spectrum_penalized(np.array([s]), sigma, gamma, alpha)[0]
            assert abs(closed - grid_min_shrinkage(s, sigma, gamma, alpha)) <= 1e-4

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            grid_min_shrinkage(1.0, 1.0, 0.0, 1, step=0.0)


class TestRandomOrthonormal:
    def test_one_dimensional_is_sign(self):
        for seed in range(10):
            U = random_orthonormal(1, seed)
            assert U.shape == (1, 1)
            assert abs(U[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_to_tolerance(self):
        for seed in range(20):
            U = random_orthonormal(8, seed)
            assert np.abs(U.T @ U - np.eye(8)).max() <= 1e-10

    def test_seed_determinism(self):
        np.testing.assert_array_equal(
            random_orthonormal(6, 42), random_orthonormal(6, 42)
        )

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            random_orthonormal(0, 1)


@pytest.fixture(scope="module")
def default_battery(verify_runs):
    """The seed-0 battery's results, as the default `verify --json` wrote them."""
    return json.loads(verify_runs[0][2])


class TestVerifyAll:
    def test_default_battery_passes(self, default_battery):
        results = default_battery
        assert len(results) == 9
        assert all(r["passed"] for r in results), [
            r["name"] for r in results if not r["passed"]]

    def test_repeat_run_identical_measurements(self, default_battery, verify_runs):
        again = json.loads(verify_runs[1][2])
        assert [r["measured"] for r in again] == [r["measured"] for r in default_battery]

    def test_corrupted_shrinkage_rule_detected(self):
        corrupted = lambda s, sigma: filters.spectrum_bayes(s, sigma) + 0.1
        results = verify_all(0, bayes_rule=corrupted)
        by_name = {r.name: r for r in results}
        assert not by_name["bayes-shrinkage-grid"].passed
        others = [r for r in results if r.name != "bayes-shrinkage-grid"]
        assert all(r.passed for r in others)

    def test_truncated_range_basis_detected(self, monkeypatch):
        # Dropping the weakest direction of the range changes the filter by
        # far more than the derived tolerance.
        basis = filters.group_sparse_basis
        monkeypatch.setattr(filters, "group_sparse_basis",
                            lambda ens: tuple(a[..., :-1] for a in basis(ens)))
        by_name = {r.name: r for r in verify_all(0)}
        assert not by_name["range-filter-agreement"].passed
        assert all(r.passed for r in by_name.values()
                   if r.name != "range-filter-agreement")

    def test_missing_residual_direction_detected(self, monkeypatch):
        # Without the residual, the oracle loses to the oracle on a random
        # completion of the range.
        monkeypatch.setattr(filters, "oracle_basis", lambda U, p_true: U)
        by_name = {r.name: r for r in verify_all(0)}
        assert not by_name["oracle-residual-dominance"].passed
        assert all(r.passed for r in by_name.values()
                   if r.name != "oracle-residual-dominance")

    def test_results_serialize(self, default_battery):
        # The JSON entries are VerificationResult.to_dict() payloads.
        assert set(default_battery[0]) == {
            "name", "measured", "reference", "tolerance", "mode", "passed",
            "trials", "seed",
        }
