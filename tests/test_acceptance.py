"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Criteria 1-5 verify the closed-form filter mathematics against independent
Monte Carlo, perturbation, rotation-sweep, and grid-search oracles at fixed
tolerances. Criteria 6-9 reproduce the qualitative trends on a deterministic
128x128 synthetic text scene with a 4-page targeted database. Criterion 10
checks byte-level determinism of the command-line tools.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import dataclasses
import time

import numpy as np
import pytest

from patchdenoise import add_gaussian_noise
from patchdenoise.cli import main
from patchdenoise.database import (
    Database,
    compute_weights,
    database_quality,
    knn,
    refine_first_pass,
)
from patchdenoise.filters import (
    PatchEnsemble,
    group_sparse_basis,
    spectrum_bayes,
    spectrum_penalized,
)
from patchdenoise.imaging import extract_patch, plan_grid, write_pgm
from patchdenoise.oracles import (
    _check_basis_optimality,
    _check_bayes_grid,
    _check_mc_identity,
    _check_oracle_dominance,
    _check_oracle_grid,
    _check_penalized_grid,
    _check_prior_identity,
    bayes_mse,
)
from patchdenoise.pipeline import DenoiseConfig, denoise_image

NOISE_SEED = 123
BATTERY_SEED = 0


def _report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def sigma50_runs(clean_scene, scene_db):
    """Shared sigma=50 pipeline runs: (noisy, one-pass, two-pass, seconds)."""
    noisy = add_gaussian_noise(clean_scene, 50.0, NOISE_SEED)
    t0 = time.perf_counter()
    two_pass, report2 = denoise_image(
        noisy, scene_db, DenoiseConfig(sigma=50.0), clean=clean_scene, threads=1
    )
    elapsed = time.perf_counter() - t0
    one_pass, report1 = denoise_image(
        noisy, scene_db, DenoiseConfig(sigma=50.0, passes=1), clean=clean_scene,
        threads=1,
    )
    return {
        "noisy": noisy,
        "one_pass": one_pass,
        "two_pass": two_pass,
        "psnr_noisy": report2.psnr_noisy,
        "psnr_one": report1.psnr_denoised,
        "psnr_two": report2.psnr_denoised,
        "seconds_two_pass": elapsed,
    }


def test_criterion_01_monte_carlo_mse_identity():
    """Sampled filter MSE matches the closed-form expansion within 1%."""
    t0 = time.perf_counter()
    result = _check_mc_identity(BATTERY_SEED)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 30.0
    _report("1", ok,
            f"worst relative error {result.measured:.2e} (tol 1e-2), "
            f"{elapsed:.1f}s (limit 30s)")
    assert result.passed
    assert elapsed < 30.0


def test_criterion_02_oracle_filter_optimality():
    """The ground-truth filter dominates 1000 sampled alternatives and its
    shrinkage matches a per-coordinate grid search within one step."""
    dominance = _check_oracle_dominance(BATTERY_SEED)
    grid = _check_oracle_grid(BATTERY_SEED)
    ok = dominance.passed and grid.passed
    _report("2", ok,
            f"worst dominance violation {dominance.measured:.2e} (tol 1e-9), "
            f"worst grid deviation {grid.measured:.2e} (tol 1e-4)")
    assert dominance.passed
    assert grid.passed


def test_criterion_03_basis_group_sparsity_optimality():
    """No random rotation projects the patch matrix more group-sparsely."""
    result = _check_basis_optimality(BATTERY_SEED)
    _report("3", result.passed,
            f"worst margin violation {result.measured:.2e} (tol 1e-9)")
    assert result.passed


def test_criterion_04_bayes_spectrum_and_prior_identity():
    """Ensemble shrinkage matches grid search; the fitted prior reconstructs
    the weighted second moment to 1e-10 relative Frobenius error."""
    grid = _check_bayes_grid(BATTERY_SEED)
    identity = _check_prior_identity(BATTERY_SEED)
    ok = grid.passed and identity.passed
    _report("4", ok,
            f"worst grid deviation {grid.measured:.2e} (tol 1e-4), "
            f"worst identity error {identity.measured:.2e} (tol 1e-10)")
    assert grid.passed
    assert identity.passed


def test_criterion_05_penalized_spectrum_grid():
    """Soft and hard penalized shrinkage match 1-D grid searches on 100
    random triples plus the threshold boundary cases."""
    result = _check_penalized_grid(BATTERY_SEED)
    _report("5", result.passed,
            f"worst grid deviation {result.measured:.2e} (tol 1e-4)")
    assert result.passed


def test_criterion_06_desk_scale_denoising(clean_scene, scene_db, sigma50_runs):
    """Two-pass pipeline gains at least 8 dB at sigma 50 within 2 minutes,
    and the ensemble rule beats the noisy-coefficient rule at high noise."""
    gain = sigma50_runs["psnr_two"] - sigma50_runs["psnr_noisy"]
    elapsed = sigma50_runs["seconds_two_pass"]
    highs = {}
    for sigma in (60.0, 80.0):
        noisy = add_gaussian_noise(clean_scene, sigma, NOISE_SEED + int(sigma))
        for rule in ("bayes", "lpg"):
            cfg = DenoiseConfig(sigma=sigma, rule=rule)
            _, rep = denoise_image(noisy, scene_db, cfg, clean=clean_scene,
                                   threads=1)
            highs[(sigma, rule)] = rep.psnr_denoised
    rule_ok = all(highs[(s, "bayes")] >= highs[(s, "lpg")] for s in (60.0, 80.0))
    ok = gain >= 8.0 and elapsed < 120.0 and rule_ok
    _report("6", ok,
            f"gain {gain:+.2f} dB (need >= +8), {elapsed:.1f}s (limit 120s); "
            f"sigma60 bayes {highs[(60.0, 'bayes')]:.2f} vs lpg "
            f"{highs[(60.0, 'lpg')]:.2f}; sigma80 bayes "
            f"{highs[(80.0, 'bayes')]:.2f} vs lpg {highs[(80.0, 'lpg')]:.2f}")
    assert gain >= 8.0
    assert elapsed < 120.0
    assert rule_ok


def test_criterion_07_selection_refinement_trend(clean_scene, scene_db,
                                                 sigma50_runs):
    """Pilot-refined selection finds patches at least as close to the truth
    as plain nearest neighbors, and the second pass does not hurt PSNR."""
    noisy = sigma50_runs["noisy"]
    pilot_image = sigma50_runs["one_pass"]
    cfg = DenoiseConfig(sigma=50.0)
    tau = cfg.resolved_tau("first_pass", cfg.pool_size)
    locs = plan_grid(128, 128, cfg.patch_size, cfg.stride_pass2)
    knn_dist, refined_dist = [], []
    for loc in locs:
        q = extract_patch(noisy, loc, cfg.patch_size)
        truth = extract_patch(clean_scene, loc, cfg.patch_size)
        pilot = extract_patch(pilot_image, loc, cfg.patch_size)
        base = knn(scene_db, q, cfg.k)
        refined = refine_first_pass(scene_db, q, pilot, cfg.pool_size, cfg.k, tau)
        knn_dist.append(
            np.linalg.norm(scene_db.patches[base] - truth, axis=1).mean()
        )
        refined_dist.append(
            np.linalg.norm(scene_db.patches[refined] - truth, axis=1).mean()
        )
    mean_knn = float(np.mean(knn_dist))
    mean_refined = float(np.mean(refined_dist))
    psnr_one, psnr_two = sigma50_runs["psnr_one"], sigma50_runs["psnr_two"]
    ok = mean_refined <= mean_knn and psnr_two >= psnr_one
    _report("7", ok,
            f"mean distance to truth: refined {mean_refined:.2f} vs knn "
            f"{mean_knn:.2f}; psnr two-pass {psnr_two:.2f} vs one-pass "
            f"{psnr_one:.2f}")
    assert mean_refined <= mean_knn
    assert psnr_two >= psnr_one


def test_criterion_08_penalized_objective_trend(clean_scene, scene_db):
    """On scene ensembles the penalized solutions achieve a penalized
    objective no worse than the unpenalized solution's, for both penalties."""
    gamma = 0.02
    rng = np.random.default_rng(BATTERY_SEED)
    worst = -np.inf
    checked = 0
    for sigma in (30.0, 50.0, 70.0):
        noisy = add_gaussian_noise(clean_scene, sigma, NOISE_SEED + int(sigma))
        locs = plan_grid(128, 128, 8, 6)
        sample = locs[rng.choice(len(locs), 20, replace=False)]
        for loc in sample:
            q = extract_patch(noisy, loc, 8)
            idx = knn(scene_db, q, 40)
            selected = scene_db.patches[idx]
            w = compute_weights(q, selected, sigma)
            _, s = group_sparse_basis(PatchEnsemble(P=selected.T, weights=w))
            lam_bayes = spectrum_bayes(s, sigma)
            for alpha in (0, 1):
                lam_pen = spectrum_penalized(s, sigma, gamma, alpha)
                if alpha == 1:
                    pen = lambda lam: gamma * np.abs(lam).sum()
                else:
                    pen = lambda lam: gamma * np.count_nonzero(lam)
                value_pen = bayes_mse(s, lam_pen, sigma) + pen(lam_pen)
                value_bayes = bayes_mse(s, lam_bayes, sigma) + pen(lam_bayes)
                worst = max(worst, value_pen - value_bayes)
                checked += 1
    ok = worst <= 1e-6
    _report("8", ok,
            f"worst penalized-objective excess {worst:.2e} over {checked} "
            f"ensembles (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_09_database_quality_monotonicity(clean_scene, scene_db):
    """PSNR at sigma 20 is non-increasing over nested database subsets of
    increasing average patch distance."""
    noisy = add_gaussian_noise(clean_scene, 20.0, NOISE_SEED)
    sizes = (len(scene_db), len(scene_db) // 4, 800)
    quality, scores = [], []
    for n in sizes:
        subset = Database(patches=scene_db.patches[:n],
                          patch_size=scene_db.patch_size)
        quality.append(database_quality(subset, clean_scene))
        _, rep = denoise_image(noisy, subset, DenoiseConfig(sigma=20.0),
                               clean=clean_scene, threads=1)
        scores.append(rep.psnr_denoised)
    quality_increasing = quality[0] < quality[1] < quality[2]
    psnr_non_increasing = scores[0] >= scores[1] >= scores[2]
    ok = quality_increasing and psnr_non_increasing
    detail = ", ".join(
        f"n={n}: dbar {q:.3f} psnr {p:.2f}"
        for n, q, p in zip(sizes, quality, scores)
    )
    _report("9", ok, detail)
    assert quality_increasing
    assert psnr_non_increasing


def test_criterion_10_cli_determinism(tmp_path, corpus, verify_runs):
    """verify, denoise, and sweep write byte-identical outputs on reruns.

    The two verify runs are the shared `verify --json` and `verify --seed 0
    --json` runs; 0 is the default seed.
    """
    clean, pages = corpus
    clean64 = clean[:64, :64]
    noisy64 = add_gaussian_noise(clean64, 30.0, NOISE_SEED)
    clean_path = tmp_path / "clean.pgm"
    noisy_path = tmp_path / "noisy.pgm"
    clean_path.write_bytes(write_pgm(clean64))
    noisy_path.write_bytes(write_pgm(noisy64))
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    for i, page in enumerate(pages[:2]):
        (db_dir / f"page{i}.pgm").write_bytes(write_pgm(page[:64, :64]))

    outputs = {}
    for run, (code, _, verify_bytes) in zip(("a", "b"), verify_runs):
        assert code == 0
        out_pgm = tmp_path / f"denoised_{run}.pgm"
        out_json = tmp_path / f"report_{run}.json"
        assert main([
            "denoise", "--input", str(noisy_path), "--db", str(db_dir),
            "--sigma", "30", "--clean", str(clean_path),
            "--out", str(out_pgm), "--report", str(out_json),
        ]) == 0
        sweep_csv = tmp_path / f"sweep_{run}.csv"
        assert main([
            "sweep", "--clean", str(clean_path), "--db", str(db_dir),
            "--sigmas", "30", "--rules", "bayes", "--out", str(sweep_csv),
            "--seed", "0",
        ]) == 0
        outputs[run] = tuple(
            [verify_bytes] + [p.read_bytes() for p in (out_pgm, out_json, sweep_csv)]
        )
    identical = outputs["a"] == outputs["b"]
    _report("10", identical,
            "verify/denoise/sweep outputs byte-identical across reruns")
    assert identical
