"""Command-line interface: flags, outputs, exit codes, determinism."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from patchdenoise import database as dbmod
from patchdenoise import pipeline
from patchdenoise.cli import _config, _resolve_threads, build_parser, main
from patchdenoise.database import (Database, build_database, database_quality,
                                   load_database, save_database_cache)
from patchdenoise.imaging import add_gaussian_noise, read_pgm, write_pgm
from patchdenoise.pipeline import DenoiseConfig


@pytest.fixture()
def workspace(tmp_path, rng):
    """A clean image, a noisy copy, and a small database directory."""
    clean = np.kron(rng.integers(0, 2, (8, 8)) * 180.0 + 30.0, np.ones((4, 4)))
    noisy = add_gaussian_noise(clean, 15.0, 99)
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    (db_dir / "page0.pgm").write_bytes(write_pgm(clean))
    page = np.kron(rng.integers(0, 2, (8, 8)) * 180.0 + 30.0, np.ones((4, 4)))
    (db_dir / "page1.pgm").write_bytes(write_pgm(page))
    clean_path = tmp_path / "clean.pgm"
    noisy_path = tmp_path / "noisy.pgm"
    clean_path.write_bytes(write_pgm(clean))
    noisy_path.write_bytes(write_pgm(noisy))
    return tmp_path, clean_path, noisy_path, db_dir


def _spy_on_reads(monkeypatch) -> list:
    """Record, instead of doing, every image and cache read."""
    read = []
    monkeypatch.setattr(Path, "read_bytes", lambda path: read.append(path))
    monkeypatch.setattr(dbmod, "load_database_cache", read.append)
    return read


def _denoise_args(noisy_path, db_dir, out, report, **extra):
    args = [
        "denoise", "--input", str(noisy_path), "--db", str(db_dir),
        "--sigma", "15", "--patch-size", "4", "--db-stride", "1",
        "--k", "8", "--pool", "20", "--stride1", "3", "--stride2", "2",
        "--out", str(out), "--report", str(report),
    ]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    return args


class TestDenoiseCommand:
    def test_minimal_invocation_writes_outputs(self, workspace):
        tmp, clean_path, noisy_path, db_dir = workspace
        out, report = tmp / "out.pgm", tmp / "report.json"
        code = main(_denoise_args(noisy_path, db_dir, out, report))
        assert code == 0
        assert out.exists() and report.exists()
        payload = json.loads(report.read_text())
        assert payload["psnr_denoised"] is None  # no --clean given

    def test_metrics_with_clean(self, workspace):
        tmp, clean_path, noisy_path, db_dir = workspace
        out, report = tmp / "out.pgm", tmp / "report.json"
        code = main(_denoise_args(noisy_path, db_dir, out, report,
                                  clean=clean_path))
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["psnr_denoised"] > payload["psnr_noisy"]

    def test_negative_sigma_is_usage_error(self, workspace, capsys):
        _, _, noisy_path, db_dir = workspace
        code = main(["denoise", "--input", str(noisy_path), "--db", str(db_dir),
                     "--sigma", "-1"])
        assert code == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not noisy_path.with_suffix(".denoised.pgm").exists()

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_sigma_is_usage_error(self, workspace, capsys, sigma):
        tmp, _, noisy_path, db_dir = workspace
        out = tmp / "o.pgm"
        args = _denoise_args(noisy_path, db_dir, out, tmp / "r.json")
        args[args.index("--sigma") + 1] = sigma
        assert main(args) == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_tau_is_usage_error(self, workspace, capsys):
        tmp, _, noisy_path, db_dir = workspace
        code = main(_denoise_args(noisy_path, db_dir, tmp / "o.pgm",
                                  tmp / "r.json", tau=-1))
        assert code == 2
        assert "tau must be >= 0" in capsys.readouterr().err

    def test_config_error_reported_before_files_are_read(self, workspace, capsys):
        tmp, _, noisy_path, _ = workspace
        code = main(_denoise_args(noisy_path, tmp / "no-such-db", tmp / "o.pgm",
                                  tmp / "r.json", tau=-1))
        assert code == 2
        assert "tau must be >= 0" in capsys.readouterr().err

    def test_infinite_tau_reported_before_files_are_read(self, workspace, capsys,
                                                         monkeypatch):
        tmp, _, noisy_path, db_dir = workspace
        read = _spy_on_reads(monkeypatch)
        code = main(_denoise_args(noisy_path, db_dir, tmp / "o.pgm",
                                  tmp / "r.json", tau="inf"))
        assert code == 2
        assert "tau must be >= 0 and finite, got inf" in capsys.readouterr().err
        assert read == []

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_reported_before_files_are_read(
            self, workspace, capsys, monkeypatch, gamma):
        tmp, _, noisy_path, db_dir = workspace
        read = _spy_on_reads(monkeypatch)
        args = _denoise_args(noisy_path, db_dir, tmp / "o.pgm", tmp / "r.json",
                             rule="bayes_l1")
        assert main(args + [f"--gamma={gamma}"]) == 2  # "-inf" alone reads as a flag
        assert "gamma must be >= 0 and finite" in capsys.readouterr().err
        assert read == []

    def test_clean_of_another_shape_fails_before_any_pass(self, workspace, capsys,
                                                          monkeypatch):
        tmp, _, noisy_path, db_dir = workspace
        wrong = tmp / "wrong.pgm"
        wrong.write_bytes(write_pgm(np.zeros((48, 40))))
        passes = []
        monkeypatch.setattr(pipeline, "_run_pass",
                            lambda *args: passes.append(args))
        out = tmp / "o.pgm"
        code = main(_denoise_args(noisy_path, db_dir, out, tmp / "r.json",
                                  clean=wrong, rule="oracle"))
        assert code == 2
        assert ("clean image shape (48, 40) != noisy image shape (32, 32)"
                in capsys.readouterr().err)
        assert passes == []
        assert not out.exists()

    def test_database_smaller_than_k_fails_before_the_screen(
            self, workspace, capsys, screen_builds):
        tmp, _, noisy_path, db_dir = workspace
        out, report = tmp / "o.pgm", tmp / "r.json"
        code = main(_denoise_args(noisy_path, db_dir, out, report,
                                  k=2000, pool=2000))
        assert code == 2
        assert "database has 1682 patches, need k=2000" in capsys.readouterr().err
        assert screen_builds == []
        assert not out.exists() and not report.exists()

    def test_patches_above_32_by_32_are_usage_error(self, tmp_path, rng, capsys):
        # The search screen's rounding bound covers patches up to 32 x 32.
        image = np.round(255.0 * rng.random((40, 40)))
        (tmp_path / "db").mkdir()
        for i in range(2):
            page = image.T if i else image
            (tmp_path / "db" / f"page{i}.pgm").write_bytes(write_pgm(page))
        (tmp_path / "noisy.pgm").write_bytes(write_pgm(image))
        out, report = tmp_path / "o.pgm", tmp_path / "r.json"
        code = main(["denoise", "--input", str(tmp_path / "noisy.pgm"),
                     "--db", str(tmp_path / "db"), "--sigma", "15",
                     "--patch-size", "33", "--db-stride", "4", "--k", "4",
                     "--pool", "8", "--out", str(out), "--report", str(report)])
        assert code == 2
        assert ("patch size 33 exceeds the screen's limit of 32"
                in capsys.readouterr().err)
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("stride1", 9, "stride 9 > patch_size 4 breaks coverage"),
        ("patch-size", 0, "patch_size must be >= 1"),
    ])
    def test_bad_geometry_reported_before_files_are_read(self, workspace, capsys,
                                                         flag, value, message):
        tmp, _, noisy_path, _ = workspace
        args = _denoise_args(noisy_path, tmp / "no-such-db", tmp / "o.pgm",
                             tmp / "r.json", **{flag: value})
        assert main(args) == 2
        assert message in capsys.readouterr().err

    def test_first_pass_selection_is_usage_error(self, workspace, capsys):
        tmp, _, noisy_path, db_dir = workspace
        args = _denoise_args(noisy_path, db_dir, tmp / "o.pgm", tmp / "r.json",
                             selection="first_pass")
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2
        assert "invalid choice: 'first_pass'" in capsys.readouterr().err

    def test_negative_threads_is_usage_error(self, workspace, capsys):
        tmp, _, noisy_path, db_dir = workspace
        out = tmp / "o.pgm"
        code = main(_denoise_args(noisy_path, db_dir, out, tmp / "r.json",
                                  threads=-4))
        assert code == 2
        assert "--threads must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_threads_means_the_cores_this_process_may_run_on(self,
                                                                  monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _resolve_threads(0) == 2
        assert _resolve_threads(5) == 5
        monkeypatch.delattr(os, "sched_getaffinity")  # not on every platform
        assert _resolve_threads(0) == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_threads(0) == 1

    def test_threads_default_to_one(self):
        parser = build_parser()
        for command in (["denoise", "--input", "a", "--db", "b", "--sigma", "5",
                         "--out", "c"],
                        ["sweep", "--clean", "a", "--sigmas", "5", "--rules",
                         "bayes", "--db", "b"]):
            assert parser.parse_args(command).threads == 1

    def test_missing_input_file_is_io_error(self, workspace):
        tmp, _, _, db_dir = workspace
        code = main(_denoise_args(tmp / "nope.pgm", db_dir, tmp / "o.pgm",
                                  tmp / "r.json"))
        assert code == 2

    def test_byte_identical_reruns(self, workspace):
        tmp, clean_path, noisy_path, db_dir = workspace
        out1, rep1 = tmp / "a.pgm", tmp / "a.json"
        out2, rep2 = tmp / "b.pgm", tmp / "b.json"
        assert main(_denoise_args(noisy_path, db_dir, out1, rep1)) == 0
        assert main(_denoise_args(noisy_path, db_dir, out2, rep2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert rep1.read_bytes() == rep2.read_bytes()

    def test_database_cache_file_accepted(self, workspace):
        from patchdenoise.database import save_database_cache, load_database

        tmp, clean_path, noisy_path, db_dir = workspace
        db = load_database(db_dir, 4, 1)
        cache = tmp / "db.cache"
        save_database_cache(db, cache)
        out, report = tmp / "out.pgm", tmp / "rep.json"
        code = main(_denoise_args(noisy_path, cache, out, report))
        assert code == 0

    def test_non_finite_cache_is_usage_error(self, workspace, capsys):
        from patchdenoise.database import save_database_cache, load_database

        tmp, _, noisy_path, db_dir = workspace
        patches = load_database(db_dir, 4, 1).patches.copy()
        patches[0, 0] = np.nan
        cache = tmp / "nan.cache"
        save_database_cache(Database(patches, 4), cache)
        code = main(_denoise_args(noisy_path, cache, tmp / "o.pgm", tmp / "r.json"))
        assert code == 2
        assert "nan.cache" in capsys.readouterr().err

    def test_cache_patch_size_mismatch_names_both_sizes(self, workspace, capsys):
        from patchdenoise.database import save_database_cache, load_database

        tmp, _, noisy_path, db_dir = workspace
        cache = tmp / "six.cache"
        save_database_cache(load_database(db_dir, 6, 2), cache)
        code = main(_denoise_args(noisy_path, cache, tmp / "o.pgm", tmp / "r.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "cache patch size 6" in err and "--patch-size 4" in err

    def test_db_quality_flag_fills_report(self, workspace):
        tmp, clean_path, noisy_path, db_dir = workspace
        out, report = tmp / "out.pgm", tmp / "rep.json"
        args = _denoise_args(noisy_path, db_dir, out, report, clean=clean_path)
        assert main(args + ["--db-quality"]) == 0
        payload = json.loads(report.read_text())
        assert payload["db_quality"] == 0.0  # database includes the clean page

    def test_db_quality_without_clean_fails(self, workspace):
        tmp, _, noisy_path, db_dir = workspace
        out, report = tmp / "out.pgm", tmp / "rep.json"
        args = _denoise_args(noisy_path, db_dir, out, report)
        assert main(args + ["--db-quality"]) == 2

    def test_timing_flag_records_wall_clock(self, workspace):
        tmp, clean_path, noisy_path, db_dir = workspace
        out, report = tmp / "out.pgm", tmp / "rep.json"
        args = _denoise_args(noisy_path, db_dir, out, report)
        assert main(args + ["--timing"]) == 0
        payload = json.loads(report.read_text())
        assert payload["seconds_pass1"] > 0.0


class TestSweepCommand:
    def _args(self, clean_path, db_dir, out):
        return [
            "sweep", "--clean", str(clean_path), "--db", str(db_dir),
            "--sigmas", "15", "--rules", "bayes",
            "--patch-size", "4", "--db-stride", "1", "--k", "8", "--pool", "20",
            "--stride1", "3", "--stride2", "2", "--out", str(out),
        ]

    def test_single_cell_csv(self, workspace):
        tmp, clean_path, _, db_dir = workspace
        out = tmp / "sweep.csv"
        assert main(self._args(clean_path, db_dir, out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "sigma,rule,psnr,ssim,seconds"
        assert len(lines) == 2

    def test_grid_line_count(self, workspace):
        tmp, clean_path, _, db_dir = workspace
        out = tmp / "sweep.csv"
        args = self._args(clean_path, db_dir, out)
        args[args.index("--sigmas") + 1] = "10,15,20,25"
        args[args.index("--rules") + 1] = "bayes,lpg"
        assert main(args) == 0
        assert len(out.read_text().strip().split("\n")) == 9

    def test_rerun_identical_bytes(self, workspace):
        tmp, clean_path, _, db_dir = workspace
        out1, out2 = tmp / "s1.csv", tmp / "s2.csv"
        assert main(self._args(clean_path, db_dir, out1)) == 0
        assert main(self._args(clean_path, db_dir, out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--sigmas", "15,nan"),
                                             ("--rules", "bayes,nonsense")])
    def test_bad_cell_fails_before_any_denoising(self, workspace, monkeypatch,
                                                 capsys, flag, value):
        tmp, clean_path, _, db_dir = workspace
        out = tmp / "sweep.csv"
        args = self._args(clean_path, db_dir, out)
        args[args.index(flag) + 1] = value
        calls, denoise_image = [], pipeline.denoise_image

        def counting(*args, **kwargs):
            calls.append(args)
            return denoise_image(*args, **kwargs)

        monkeypatch.setattr(pipeline, "denoise_image", counting)
        assert main(args) == 2
        assert calls == []
        assert not out.exists()
        assert ("sigma" if flag == "--sigmas" else "rule") in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_reported_before_files_are_read(
            self, workspace, capsys, monkeypatch, gamma):
        tmp, clean_path, _, db_dir = workspace
        read = _spy_on_reads(monkeypatch)
        args = self._args(clean_path, db_dir, tmp / "sweep.csv")
        assert main(args + [f"--gamma={gamma}"]) == 2
        assert "gamma must be >= 0 and finite" in capsys.readouterr().err
        assert read == []

    def test_rule_flag_rejected(self, workspace):
        # sweep reads only --rules; neither an unread --rule nor a prefix may pass.
        tmp, clean_path, _, db_dir = workspace
        args = self._args(clean_path, db_dir, tmp / "sweep.csv")
        with pytest.raises(SystemExit) as err:
            main(args + ["--rule", "lpg"])
        assert err.value.code == 2


class TestVerifyCommand:
    def test_default_run_passes(self, verify_runs):
        code, out, _ = verify_runs[0]
        assert code == 0
        assert "PASS" in out

    def test_json_output_schema(self, verify_runs):
        code, _, payload = verify_runs[0]
        results = json.loads(payload)
        assert code == 0
        assert isinstance(results, list) and results
        for entry in results:
            assert {"name", "measured", "reference", "tolerance",
                    "passed"} <= set(entry)

    def test_fixed_seed_stable_measurements(self, verify_runs):
        (_, _, default), (code, _, seed0) = verify_runs
        assert code == 0
        assert seed0 == default


class TestQualityCommand:
    def test_self_database_distance_zero(self, workspace, capsys):
        tmp, clean_path, _, db_dir = workspace
        code = main(["quality", "--clean", str(clean_path), "--db", str(db_dir),
                     "--patch-size", "4", "--db-stride", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg distance:     0.000000" in out

    def test_empty_db_dir_fails(self, tmp_path, workspace):
        _, clean_path, _, _ = workspace
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["quality", "--clean", str(clean_path), "--db", str(empty)])
        assert code == 2

    def test_matches_library_value(self, workspace, capsys, rng):
        tmp, clean_path, _, db_dir = workspace
        code = main(["quality", "--clean", str(clean_path), "--db", str(db_dir),
                     "--patch-size", "4", "--db-stride", "2"])
        assert code == 0
        printed = capsys.readouterr().out
        clean = read_pgm(clean_path.read_bytes())
        pages = [read_pgm(p.read_bytes()) for p in sorted(db_dir.glob("*.pgm"))]
        expected = database_quality(build_database(pages, 4, 2), clean)
        value = float(printed.split("avg distance:")[1].strip())
        assert value == pytest.approx(expected, abs=5e-7)


class TestNoiseCommand:
    def test_sigma_zero_round_trips_quantized_input(self, workspace):
        tmp, clean_path, _, _ = workspace
        out = tmp / "zero.pgm"
        assert main(["noise", "--input", str(clean_path), "--sigma", "0",
                     "--seed", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == clean_path.read_bytes()

    def test_fixed_seed_reproducible_bytes(self, workspace):
        tmp, clean_path, _, _ = workspace
        a, b = tmp / "a.pgm", tmp / "b.pgm"
        for path in (a, b):
            assert main(["noise", "--input", str(clean_path), "--sigma", "25",
                         "--seed", "11", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_empirical_std(self, tmp_path, rng):
        img = np.full((256, 256), 128.0)
        src = tmp_path / "flat.pgm"
        src.write_bytes(write_pgm(img))
        out, report = tmp_path / "noisy.pgm", tmp_path / "std.json"
        assert main(["noise", "--input", str(src), "--sigma", "20",
                     "--seed", "3", "--out", str(out),
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert 19.0 <= payload["empirical_std"] <= 21.0

    def test_negative_sigma_rejected(self, workspace, capsys):
        tmp, clean_path, _, _ = workspace
        for sigma in ("-2", "nan", "inf"):
            code = main(["noise", "--input", str(clean_path), "--sigma", sigma,
                         "--seed", "1", "--out", str(tmp / "x.pgm")])
            assert code == 2
            assert "sigma must be finite and >= 0" in capsys.readouterr().err
            assert not (tmp / "x.pgm").exists()


class TestParserBasics:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_denoise_has_no_seed(self, workspace):
        tmp, _, noisy_path, db_dir = workspace
        args = _denoise_args(noisy_path, db_dir, tmp / "o.pgm", tmp / "r.json")
        with pytest.raises(SystemExit) as err:
            main(args + ["--seed", "0"])
        assert err.value.code == 2

    def test_config_flags_map_to_fields_and_defaults(self):
        parser = build_parser()
        denoise = ["denoise", "--input", "in.pgm", "--db", "pages", "--sigma", "15"]
        assert _config(parser.parse_args(denoise)) == DenoiseConfig(sigma=15.0)
        sweep = ["sweep", "--clean", "c.pgm", "--db", "pages", "--sigmas", "15",
                 "--rules", "lpg"]
        assert (_config(parser.parse_args(sweep), sigma=15.0, rule="lpg")
                == DenoiseConfig(sigma=15.0, rule="lpg"))
        cfg = _config(parser.parse_args(denoise + [
            "--pool", "90", "--stride1", "5", "--stride2", "3", "--h", "7"]))
        assert cfg == DenoiseConfig(sigma=15.0, pool_size=90, stride_pass1=5,
                                    stride_pass2=3, bandwidth=7.0)

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--wat"])
        assert err.value.code == 2


class TestDatabaseGrid:
    @pytest.mark.parametrize("command", ["denoise", "sweep", "quality"])
    @pytest.mark.parametrize("stride, message", [
        (0, "stride must be >= 1, got 0"),
        (5, "stride 5 > patch_size 4 breaks coverage"),
    ])
    @pytest.mark.parametrize("cache", [False, True])
    def test_bad_db_stride_fails_before_any_file_is_read(
            self, workspace, monkeypatch, capsys, command, stride, message, cache):
        tmp, clean_path, noisy_path, db_dir = workspace
        db = db_dir
        if cache:  # a cache ignores the stride, but the flag is checked alike
            db = tmp / "db.cache"
            save_database_cache(load_database(db_dir, 4, 1), db)
        args = {
            "denoise": _denoise_args(noisy_path, db, tmp / "o.pgm", tmp / "r.json"),
            "sweep": TestSweepCommand()._args(clean_path, db, tmp / "s.csv"),
            "quality": ["quality", "--clean", str(clean_path), "--db", str(db),
                        "--patch-size", "4", "--db-stride", "1"],
        }[command]
        args[args.index("--db-stride") + 1] = str(stride)
        reads, read_bytes = [], Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda path: reads.append(path) or read_bytes(path))
        load_cache = dbmod.load_database_cache
        monkeypatch.setattr(dbmod, "load_database_cache",
                            lambda path: reads.append(path) or load_cache(path))
        assert main(args) == 2
        assert reads == []
        err = capsys.readouterr().err
        assert f"--db-stride {stride}" in err and message in err
        assert not (tmp / "o.pgm").exists() and not (tmp / "s.csv").exists()
