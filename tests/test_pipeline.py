"""Pipeline behavior: per-patch contracts, two-pass procedure, sweeps."""

import dataclasses
import json

import numpy as np
import pytest

from patchdenoise import (add_gaussian_noise, build_database, filters,
                          pipeline, psnr)
from patchdenoise import database as dbmod
from patchdenoise.database import Database
from patchdenoise.imaging import aggregate, extract_patch, plan_grid
from patchdenoise.pipeline import (
    DenoiseConfig,
    cell_seed,
    denoise_image,
    denoise_patch,
    run_sweep,
    sweep_to_csv,
)


def _tiny_cfg(**overrides):
    defaults = dict(sigma=10.0, patch_size=4, stride_pass1=3, stride_pass2=2,
                    k=8, pool_size=20)
    defaults.update(overrides)
    return DenoiseConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_scene():
    rng = np.random.default_rng(77)
    clean = np.kron(rng.integers(0, 2, (8, 8)) * 200.0 + 25.0, np.ones((4, 4)))
    page = np.kron(rng.integers(0, 2, (8, 8)) * 200.0 + 25.0, np.ones((4, 4)))
    db = build_database([clean, page], 4, 1)
    return clean, db


class TestDenoisePatchContracts:
    def test_rank_one_self_database(self, rng):
        q = rng.standard_normal(16) * 20
        db = Database(patches=q[None, :].copy(), patch_size=4)
        sigma = 5.0
        cfg = _tiny_cfg(sigma=sigma, k=1, pool_size=1)
        phat = denoise_patch(q, db, cfg)
        n2 = np.linalg.norm(q) ** 2
        np.testing.assert_allclose(phat, (n2 / (n2 + sigma**2)) * q, rtol=1e-10)

    def test_huge_sigma_shrinks_to_zero(self, rng):
        q = rng.standard_normal(16) * 20
        patches = q[None, :] + rng.standard_normal((30, 16))
        db = Database(patches=patches, patch_size=4)
        phat = denoise_patch(q, db, _tiny_cfg(sigma=1e9, k=8))
        assert np.linalg.norm(phat) <= 1e-6 * np.linalg.norm(q)

    def test_duplicated_truth_contracts_toward_signal(self, rng):
        truth = rng.standard_normal(16) * 30
        sigma = 2.0
        db = Database(patches=np.tile(truth, (10, 1)), patch_size=4)
        q = truth + sigma * rng.standard_normal(16)
        phat = denoise_patch(q, db, _tiny_cfg(sigma=sigma, k=8, pool_size=10))
        assert np.linalg.norm(phat - truth) <= np.linalg.norm(q - truth)

    def test_auto_selection_without_pilot_is_knn(self, rng):
        db = Database(patches=rng.standard_normal((30, 16)), patch_size=4)
        q = rng.standard_normal(16)
        np.testing.assert_array_equal(
            denoise_patch(q, db, _tiny_cfg(selection="auto")),
            denoise_patch(q, db, _tiny_cfg(selection="knn")),
        )

    @pytest.mark.parametrize("selection", ["knn", "cross_similarity"])
    def test_pilot_rule_without_pilot_shrinks_with_query(self, rng, selection):
        db = Database(patches=rng.standard_normal((30, 16)), patch_size=4)
        q = rng.standard_normal(16)
        cfg = _tiny_cfg(rule="bm3d_pilot", selection=selection)
        np.testing.assert_array_equal(denoise_patch(q, db, cfg),
                                      denoise_patch(q, db, cfg, pilot=q))

    def test_oracle_rule_requires_truth(self, rng):
        db = Database(patches=rng.standard_normal((30, 16)), patch_size=4)
        cfg = _tiny_cfg(rule="oracle")
        with pytest.raises(ValueError, match="clean|true"):
            denoise_patch(rng.standard_normal(16), db, cfg)

    def test_database_smaller_than_k_rejected(self, rng):
        db = Database(patches=rng.standard_normal((5, 16)), patch_size=4)
        with pytest.raises(ValueError):
            denoise_patch(rng.standard_normal(16), db, _tiny_cfg(k=8, pool_size=8))


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for sigma in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="sigma"):
                DenoiseConfig(sigma=sigma)
        with pytest.raises(ValueError):
            DenoiseConfig(sigma=10.0, rule="nonsense")
        with pytest.raises(ValueError):
            DenoiseConfig(sigma=10.0, selection="sometimes")
        with pytest.raises(ValueError):
            DenoiseConfig(sigma=10.0, k=50, pool_size=40)
        for patch_size in (0, -3):
            with pytest.raises(ValueError, match="patch_size must be >= 1"):
                DenoiseConfig(sigma=10.0, patch_size=patch_size)
        for strides in ({"stride_pass1": 0}, {"stride_pass2": -1}):
            with pytest.raises(ValueError, match="stride must be >= 1"):
                DenoiseConfig(sigma=10.0, **strides)
        for strides in ({"stride_pass1": 9}, {"stride_pass2": 9}):
            with pytest.raises(ValueError, match="stride 9 > patch_size 8"):
                DenoiseConfig(sigma=10.0, **strides)
        with pytest.raises(ValueError):
            DenoiseConfig(sigma=10.0, passes=3)
        with pytest.raises(ValueError):
            DenoiseConfig(sigma=10.0, gamma=-1.0)
        for tau in (-5.0, float("nan")):
            with pytest.raises(ValueError, match="tau"):
                DenoiseConfig(sigma=10.0, tau=tau)
        for bandwidth in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="bandwidth"):
                DenoiseConfig(sigma=10.0, bandwidth=bandwidth)

    @pytest.mark.parametrize("tau", [float("inf"), -float("inf")])
    def test_rejects_infinite_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
            DenoiseConfig(sigma=10.0, tau=tau)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be >= 0 and finite"):
            DenoiseConfig(sigma=10.0, rule="bayes_l1", gamma=gamma)

    @pytest.mark.parametrize("field, value", [
        ("k", 40.0), ("pool_size", 200.5), ("patch_size", 8.0),
        ("stride_pass1", 6.0), ("stride_pass2", np.float64(4)), ("passes", 2.0),
        ("k", "40"),
    ])
    def test_rejects_non_integral_integer_settings(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DenoiseConfig(sigma=50.0, **{field: value})

    def test_numpy_integers_are_integers(self):
        cfg = DenoiseConfig(sigma=50.0, k=np.int64(40), pool_size=np.int32(200),
                            patch_size=np.int16(8), stride_pass1=np.uint8(6),
                            stride_pass2=np.int64(4), passes=np.int64(2))
        assert cfg == DenoiseConfig(sigma=50.0)

    def test_first_pass_is_not_a_selection(self):
        # 'auto' already refines around the pass-1 pilot in pass 2.
        with pytest.raises(ValueError, match="unknown selection 'first_pass'"):
            DenoiseConfig(sigma=10.0, selection="first_pass")

    def test_auto_schedules_resolve(self):
        cfg = DenoiseConfig(sigma=50.0)
        assert cfg.resolved_bandwidth() == 50.0
        assert cfg.resolved_tau("first_pass", 200) == 1.0
        low = DenoiseConfig(sigma=10.0)
        assert low.resolved_tau("first_pass", 200) == 0.01
        assert low.resolved_tau("cross_similarity", 200) == 1.0 / 40000

    def test_explicit_tau_and_bandwidth_override(self):
        cfg = DenoiseConfig(sigma=50.0, tau=0.3, bandwidth=12.0)
        assert cfg.resolved_tau("first_pass", 200) == 0.3
        assert cfg.resolved_bandwidth() == 12.0


class TestDenoiseImage:
    def test_self_database_sanity(self, tiny_scene):
        clean, db = tiny_scene
        out, report = denoise_image(clean, db, _tiny_cfg(sigma=3.0), clean=clean)
        assert report.psnr_denoised >= 40.0

    def test_noisy_image_improves(self, tiny_scene):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 20.0, 3)
        out, report = denoise_image(noisy, db, _tiny_cfg(sigma=20.0), clean=clean)
        assert report.psnr_denoised > report.psnr_noisy + 3.0

    def test_bit_identical_reruns(self, tiny_scene):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 15.0, 5)
        cfg = _tiny_cfg(sigma=15.0)
        out1, rep1 = denoise_image(noisy, db, cfg, clean=clean)
        out2, rep2 = denoise_image(noisy, db, cfg, clean=clean)
        np.testing.assert_array_equal(out1, out2)
        assert rep1.to_json() == rep2.to_json()

    def test_threads_do_not_change_output(self, tiny_scene):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 15.0, 6)
        cfg = _tiny_cfg(sigma=15.0)
        serial, _ = denoise_image(noisy, db, cfg, threads=1)
        threaded, _ = denoise_image(noisy, db, cfg, threads=4)
        np.testing.assert_array_equal(serial, threaded)

    def test_threads_screen_the_same_blocks(self, tiny_scene, monkeypatch):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 15.0, 6)
        cfg = _tiny_cfg(sigma=15.0)
        screen = dbmod.screen

        def screened_blocks(threads):
            blocks = []

            def spy(index, queries):
                blocks.append(np.stack(queries).tobytes())
                return screen(index, queries)

            monkeypatch.setattr(dbmod, "screen", spy)
            denoise_image(noisy, db, cfg, threads=threads)
            return blocks

        serial = screened_blocks(1)
        counts = [len(plan_grid(32, 32, 4, stride)) for stride in (3, 2)]
        assert len(serial) == sum(-(-n // dbmod.SCREEN_BLOCK) for n in counts)
        # Worker threads may screen in any order, but never other blocks.
        assert sorted(screened_blocks(2)) == sorted(serial)

    def test_single_pass_config(self, tiny_scene):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 10.0, 7)
        out, report = denoise_image(noisy, db, _tiny_cfg(passes=1), clean=clean)
        assert report.seconds_pass2 == 0.0
        assert np.isfinite(out).all()

    def test_oracle_rule_needs_clean(self, tiny_scene):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 10.0, 8)
        with pytest.raises(ValueError):
            denoise_image(noisy, db, _tiny_cfg(rule="oracle"))

    def test_oracle_rule_dominates_others(self, tiny_scene):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 25.0, 9)
        scores = {}
        for rule in ("oracle", "bayes", "bayes_l1", "bayes_l0", "lpg",
                     "bm3d_pilot"):
            cfg = _tiny_cfg(sigma=25.0, rule=rule)
            _, report = denoise_image(noisy, db, cfg, clean=clean)
            scores[rule] = report.psnr_denoised
        assert all(scores["oracle"] >= v for v in scores.values())

    def test_every_rule_and_selection_runs(self, tiny_scene):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 12.0, 10)
        for rule in ("bayes", "bayes_l1", "bayes_l0", "lpg", "bm3d_pilot"):
            for selection in ("auto", "knn", "cross_similarity"):
                cfg = _tiny_cfg(sigma=12.0, rule=rule, selection=selection)
                out, _ = denoise_image(noisy, db, cfg)
                assert np.isfinite(out).all()

    @pytest.mark.parametrize("rule", ["bayes", "bm3d_pilot"])
    def test_passes_are_denoise_patch_without_then_with_pilot(self, tiny_scene,
                                                             monkeypatch, rule):
        # tiny_scene has more rows than pool_size, so denoise_image screens
        # the search while the loop below searches the whole database.
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 12.0, 14)
        kept, screen = [], dbmod.screen

        def spy(*args):
            rows = screen(*args)
            kept.extend(len(r) for r in rows)
            return rows

        monkeypatch.setattr(dbmod, "screen", spy)
        for selection in ("auto", "cross_similarity"):
            cfg = _tiny_cfg(sigma=12.0, rule=rule, selection=selection)

            def one_pass(stride, pilot_image):
                locs = plan_grid(32, 32, 4, stride)
                estimates = []
                for loc in locs:
                    pilot = None
                    if pilot_image is not None:
                        pilot = extract_patch(pilot_image, loc, 4)
                    q = extract_patch(noisy, loc, 4)
                    estimates.append(denoise_patch(q, db, cfg, pilot=pilot))
                return aggregate(zip(estimates, locs), 32, 32)

            first = one_pass(cfg.stride_pass1, None)
            second = one_pass(cfg.stride_pass2, first)
            for threads in (1, 2):
                out, _ = denoise_image(noisy, db, cfg, threads=threads)
                np.testing.assert_array_equal(out, second)
            one, _ = denoise_image(noisy, db, dataclasses.replace(cfg, passes=1))
            np.testing.assert_array_equal(one, first)
        assert len(db) > cfg.pool_size
        assert kept and max(kept) < len(db)

    def test_basis_memo_changes_no_output_and_hits_on_flat_regions(
            self, tiny_scene, monkeypatch):
        # tiny_scene is flat 4x4 blocks, so its flat queries select the same
        # rows with equal weights and build byte-identical second moments.
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 12.0, 15)
        cfg = _tiny_cfg(sigma=12.0)
        filters._eigh_basis.cache_clear()
        memo = [denoise_image(noisy, db, cfg, threads=t)[0] for t in (1, 2)]
        assert filters._eigh_basis.cache_info().hits > 0
        monkeypatch.setattr(filters, "_eigh_basis",
                            filters._eigh_basis.__wrapped__)
        for threads, out in zip((1, 2), memo):
            fresh, _ = denoise_image(noisy, db, cfg, threads=threads)
            assert fresh.tobytes() == out.tobytes()

    def test_certified_cross_similarity_changes_no_output(self, tiny_scene,
                                                          monkeypatch):
        # The blocky scene's pools hold many twins; most fold and certify,
        # and the output must be the one the pdist pair matrix alone gives.
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 40.0, 15)
        cfg = _tiny_cfg(sigma=40.0, selection="cross_similarity",
                        rule="bm3d_pilot")
        paths, certify = [], dbmod._certified_sums

        def counting(*args):
            sums = certify(*args)
            paths.append(sums is None)
            return sums

        monkeypatch.setattr(dbmod, "_certified_sums", counting)
        fast = [denoise_image(noisy, db, cfg, threads=t)[0] for t in (1, 2)]
        assert paths.count(False) > paths.count(True)
        monkeypatch.setattr(dbmod, "_certified_sums", lambda *args: None)
        for threads, out in zip((1, 2), fast):
            exact, _ = denoise_image(noisy, db, cfg, threads=threads)
            assert exact.tobytes() == out.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_database_rejected_before_any_patch(self, tiny_scene,
                                                          monkeypatch, bad):
        clean, db = tiny_scene
        patches = db.patches.copy()
        patches[100, 3] = bad
        calls = []
        monkeypatch.setattr(pipeline, "denoise_patch",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="finite"):
            denoise_image(clean, Database(patches=patches, patch_size=4),
                          _tiny_cfg())
        assert calls == []

    def test_clean_shape_checked_before_any_pass(self, tiny_scene, monkeypatch):
        clean, db = tiny_scene
        passes = []
        monkeypatch.setattr(pipeline, "_run_pass",
                            lambda *args: passes.append(args))
        with pytest.raises(ValueError, match=r"clean image shape \(32, 28\) != "
                                             r"noisy image shape \(32, 32\)"):
            denoise_image(clean, db, _tiny_cfg(rule="oracle"),
                          clean=clean[:, :28])
        assert passes == []

    def test_database_patch_size_must_match(self, tiny_scene):
        clean, db = tiny_scene
        with pytest.raises(ValueError, match="patch size 4 != configured patch size 2"):
            denoise_image(clean, db, _tiny_cfg(patch_size=2, stride_pass1=2,
                                               stride_pass2=1))

    def test_metrics_none_without_clean(self, tiny_scene):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 10.0, 11)
        _, report = denoise_image(noisy, db, _tiny_cfg())
        assert report.psnr_denoised is None
        assert report.psnr_noisy is None

    def test_pipeline_does_not_read_clean_for_estimation(self, tiny_scene):
        """The estimate must be identical whether or not clean is supplied."""
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 14.0, 12)
        cfg = _tiny_cfg(sigma=14.0)
        with_clean, _ = denoise_image(noisy, db, cfg, clean=clean)
        without, _ = denoise_image(noisy, db, cfg)
        np.testing.assert_array_equal(with_clean, without)

    def test_output_within_convex_hull_of_estimates(self, tiny_scene):
        """Uniform aggregation keeps every pixel inside the range spanned by
        the patch estimates that cover it; a crude but telling bound is that
        the output stays within the global min/max of all estimates."""
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 10.0, 13)
        cfg = _tiny_cfg(sigma=10.0)
        locs = plan_grid(32, 32, 4, 3)
        patches = [denoise_patch(extract_patch(noisy, l, 4), db, cfg) for l in locs]
        out, _ = denoise_image(noisy, db, dataclasses.replace(cfg, passes=1))
        lo = min(p.min() for p in patches)
        hi = max(p.max() for p in patches)
        assert out.min() >= lo - 1e-9
        assert out.max() <= hi + 1e-9


def _fresh_copy(db):
    return Database(patches=db.patches.copy(), patch_size=db.patch_size)


@pytest.fixture()
def screen_builds(monkeypatch):
    """The m of every screen index built from here on, in order."""
    built, half_norms = [], dbmod.half_norms

    def counting(db, m):
        built.append(m)
        return half_norms(db, m)

    monkeypatch.setattr(dbmod, "half_norms", counting)
    return built


class TestScreenKeptWithDatabase:
    def test_two_calls_build_the_index_once(self, tiny_scene, screen_builds):
        clean, db = tiny_scene
        db = _fresh_copy(db)
        noisy = add_gaussian_noise(clean, 15.0, 8)
        for _ in range(2):
            denoise_image(noisy, db, _tiny_cfg(sigma=15.0))
        assert screen_builds == [20]

    def test_sweep_builds_the_index_once(self, tiny_scene, screen_builds):
        clean, db = tiny_scene
        rows = run_sweep(clean, _fresh_copy(db), _tiny_cfg(),
                         sigmas=[15.0, 25.0], rules=["bayes", "lpg"])
        assert len(rows) == 4 and screen_builds == [20]

    def test_a_new_m_rebuilds_the_index(self, tiny_scene, screen_builds):
        clean, db = tiny_scene
        db = _fresh_copy(db)
        noisy = add_gaussian_noise(clean, 15.0, 8)
        for pool_size in (20, 20, 30, 30, 20):
            denoise_image(noisy, db, _tiny_cfg(sigma=15.0, pool_size=pool_size))
        dbmod.database_quality(db, clean)
        dbmod.database_quality(db, clean)
        denoise_image(noisy, db, _tiny_cfg(sigma=15.0))
        assert screen_builds == [20, 30, 20, 1, 20]

    def test_kept_index_matches_a_fresh_copy(self, tiny_scene):
        clean, db = tiny_scene
        db = _fresh_copy(db)
        noisy = add_gaussian_noise(clean, 25.0, 9)
        cfgs = [_tiny_cfg(sigma=25.0), _tiny_cfg(sigma=25.0, pool_size=30),
                _tiny_cfg(sigma=25.0, selection="cross_similarity",
                          rule="bm3d_pilot")]
        for cfg in cfgs + cfgs:
            for threads in (1, 2):
                kept, _ = denoise_image(noisy, db, cfg, threads=threads)
                fresh, _ = denoise_image(noisy, _fresh_copy(db), cfg,
                                         threads=threads)
                assert kept.tobytes() == fresh.tobytes()
            quality = dbmod.database_quality(db, clean)
            assert quality == dbmod.database_quality(_fresh_copy(db), clean)

    def test_searched_rows_and_index_are_read_only(self, tiny_scene):
        clean, db = tiny_scene
        db = _fresh_copy(db)
        db.patches[0, 0] = db.patches[0, 0]  # writable before the first search
        denoise_image(clean, db, _tiny_cfg())
        index = dbmod._screen_of(db, 20)
        for array in (db.patches, index.rows, index.table, index.norms):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        copy = db.patches.copy()
        copy[0, 0] = -1.0
        assert copy.flags.writeable and db.patches[0, 0] != -1.0

    def test_rows_viewing_another_array_are_copied_first(self, tiny_scene):
        clean, db = tiny_scene
        base = db.patches.copy()
        view = Database(patches=base[:], patch_size=db.patch_size)
        noisy = add_gaussian_noise(clean, 15.0, 8)
        first, _ = denoise_image(noisy, view, _tiny_cfg(sigma=15.0))
        base[:] = 255.0 - base  # a write the view's read-only flag does not stop
        second, _ = denoise_image(noisy, view, _tiny_cfg(sigma=15.0))
        fresh, _ = denoise_image(noisy, _fresh_copy(view), _tiny_cfg(sigma=15.0))
        assert second.tobytes() == fresh.tobytes() == first.tobytes()
        assert not np.shares_memory(view.patches, base)

    def test_rejected_database_is_neither_kept_nor_frozen(self, tiny_scene):
        clean, db = tiny_scene
        db = _fresh_copy(db)
        value = db.patches[5, 5]
        db.patches[5, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            denoise_image(clean, db, _tiny_cfg())
        db.patches[5, 5] = value
        out, _ = denoise_image(clean, db, _tiny_cfg())
        fresh, _ = denoise_image(clean, _fresh_copy(db), _tiny_cfg())
        assert out.tobytes() == fresh.tobytes()


class TestReportSerialization:
    def test_stable_key_order_and_schema(self, tiny_scene):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 10.0, 20)
        _, report = denoise_image(noisy, db, _tiny_cfg(), clean=clean)
        payload = json.loads(report.to_json())
        assert list(payload) == [
            "psnr_noisy", "psnr_denoised", "ssim_noisy", "ssim_denoised",
            "seconds_pass1", "seconds_pass2", "db_quality", "config",
        ]
        assert payload["seconds_pass1"] == 0.0  # deterministic default

    def test_timing_opt_in(self, tiny_scene):
        clean, db = tiny_scene
        noisy = add_gaussian_noise(clean, 10.0, 21)
        _, report = denoise_image(noisy, db, _tiny_cfg())
        payload = json.loads(report.to_json(include_timing=True))
        assert payload["seconds_pass1"] > 0.0


class TestSweep:
    def test_single_cell_table(self, tiny_scene):
        clean, db = tiny_scene
        rows = run_sweep(clean, db, _tiny_cfg(), sigmas=[20.0], rules=["bayes"])
        assert len(rows) == 1
        assert rows[0]["sigma"] == 20.0
        assert rows[0]["rule"] == "bayes"

    def test_duplicate_cells_identical(self, tiny_scene):
        clean, db = tiny_scene
        rows = run_sweep(clean, db, _tiny_cfg(), sigmas=[20.0, 20.0],
                         rules=["bayes"])
        assert rows[0]["psnr"] == rows[1]["psnr"]
        assert rows[0]["ssim"] == rows[1]["ssim"]

    def test_csv_schema_and_determinism(self, tiny_scene):
        clean, db = tiny_scene
        rows = run_sweep(clean, db, _tiny_cfg(), sigmas=[15.0, 25.0],
                         rules=["bayes", "lpg"])
        csv_text = sweep_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "sigma,rule,psnr,ssim,seconds"
        assert len(lines) == 5
        rows2 = run_sweep(clean, db, _tiny_cfg(), sigmas=[15.0, 25.0],
                          rules=["bayes", "lpg"])
        assert sweep_to_csv(rows2) == csv_text

    def test_base_seed_selects_noise(self, tiny_scene):
        clean, db = tiny_scene
        rows = [run_sweep(clean, db, _tiny_cfg(), sigmas=[20.0], rules=["bayes"],
                          seed=seed)[0] for seed in (0, 0, 1)]
        assert rows[0]["psnr"] == rows[1]["psnr"] != rows[2]["psnr"]

    @pytest.mark.parametrize("sigmas, rules", [([20.0, float("nan")], ["bayes"]),
                                               ([20.0], ["bayes", "nonsense"])])
    def test_bad_cell_fails_before_any_denoising(self, tiny_scene, monkeypatch,
                                                 sigmas, rules):
        clean, db = tiny_scene
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return denoise_image(*args, **kwargs)

        monkeypatch.setattr(pipeline, "denoise_image", counting)
        with pytest.raises(ValueError):
            run_sweep(clean, db, _tiny_cfg(), sigmas=sigmas, rules=rules)
        assert calls == []

    def test_cell_seeds_stable_and_distinct(self):
        assert cell_seed(0, 20.0, "bayes") == cell_seed(0, 20.0, "bayes")
        assert cell_seed(0, 20.0, "bayes") != cell_seed(0, 20.0, "lpg")
        assert cell_seed(0, 20.0, "bayes") != cell_seed(0, 40.0, "bayes")
        assert cell_seed(1, 20.0, "bayes") != cell_seed(2, 20.0, "bayes")
