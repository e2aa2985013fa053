"""Command-line front end: denoise, sweep, verify, quality, noise.

Exit codes: 0 success, 1 verification-check failure, 2 usage or I/O error.
File outputs are byte-deterministic for fixed flags and seed; wall-clock
timings go to stderr and only enter output files with --timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import database as dbmod
from . import oracles
from .imaging import add_gaussian_noise, check_grid, read_pgm, write_pgm
from .pipeline import (RULES, SELECTIONS, DenoiseConfig, denoise_image,
                       run_sweep, sweep_to_csv)

__all__ = ["main", "build_parser"]

# Field name -> default of every DenoiseConfig setting (sigma has none).
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(DenoiseConfig)}


def _read_image(path: str) -> np.ndarray:
    return read_pgm(Path(path).read_bytes())


def _check_db_grid(args) -> None:
    """Reject --patch-size and --db-stride as build_database would, before
    any file is read (also when --db names a cache, which ignores the stride)."""
    try:
        check_grid(args.patch_size, args.db_stride)
    except ValueError as exc:
        raise ValueError(f"--db-stride {args.db_stride} with --patch-size "
                         f"{args.patch_size}: {exc}") from None


def _load_db(path: str, patch_size: int, stride: int):
    p = Path(path)
    if not p.is_file():
        return dbmod.load_database(p, patch_size, stride)
    db = dbmod.load_database_cache(p)
    if db.patch_size != patch_size:
        raise ValueError(f"{path}: cache patch size {db.patch_size} does not "
                         f"match --patch-size {patch_size}")
    return db


def _setting(sub, flag: str, field: str, **kwargs):
    """Add a flag that sets DenoiseConfig.<field>, with the field's default."""
    sub.add_argument(flag, dest=field, default=_DEFAULTS[field], **kwargs)


def _add_db_args(sub):
    sub.add_argument("--db", required=True,
                     help="directory of .pgm files, or a database cache file")
    _setting(sub, "--patch-size", "patch_size", type=int)
    sub.add_argument("--db-stride", type=int, default=4,
                     help="grid stride used when building the database")


def _add_pipeline_args(sub):
    _setting(sub, "--k", "k", type=int)
    _setting(sub, "--pool", "pool_size", type=int)
    _setting(sub, "--tau", "tau", type=float,
             help="selection penalty weight (default: noise schedule)")
    _setting(sub, "--gamma", "gamma", type=float)
    _setting(sub, "--h", "bandwidth", type=float,
             help="similarity bandwidth (default: sigma)")
    _setting(sub, "--selection", "selection", choices=SELECTIONS)
    _setting(sub, "--passes", "passes", type=int, help="1 or 2")
    _setting(sub, "--stride1", "stride_pass1", type=int)
    _setting(sub, "--stride2", "stride_pass2", type=int)
    sub.add_argument("--threads", type=int, default=1,
                     help="threads; any count over 1 uses two (0 = one per core)")
    sub.add_argument("--timing", action="store_true",
                     help="write real wall-clock timings into output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchdenoise",
        description="Patch-based denoising with a targeted reference database.",
    )
    # Exact flags only: as a prefix, sweep's `--rule` would silently mean `--rules`.
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=exact)

    denoise = commands.add_parser("denoise", help="denoise a noisy PGM image")
    denoise.add_argument("--input", required=True, help="noisy input PGM")
    denoise.add_argument("--sigma", type=float, required=True)
    _setting(denoise, "--rule", "rule", choices=RULES)
    _add_db_args(denoise)
    _add_pipeline_args(denoise)
    denoise.add_argument("--clean", help="clean reference PGM for metrics")
    denoise.add_argument("--out", help="denoised output PGM "
                                       "(default: <input>.denoised.pgm)")
    denoise.add_argument("--report", help="JSON report path "
                                          "(default: <input>.report.json)")
    denoise.add_argument("--db-quality", action="store_true",
                         help="include the database quality metric (needs --clean)")
    denoise.set_defaults(func=cmd_denoise)

    sweep = commands.add_parser("sweep", help="PSNR/SSIM over noise levels and rules")
    sweep.add_argument("--clean", required=True, help="clean source PGM")
    sweep.add_argument("--sigmas", required=True,
                       help="comma-separated noise levels, e.g. 20,40,60")
    sweep.add_argument("--rules", required=True,
                       help="comma-separated shrinkage rules, e.g. bayes,lpg")
    _add_db_args(sweep)
    _add_pipeline_args(sweep)
    sweep.add_argument("--seed", type=int, default=0,
                       help="base seed of the per-cell noise draws")
    sweep.add_argument("--out", default="sweep.csv", help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    verify = commands.add_parser("verify", help="run the numerical check battery")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", help="also write results as a JSON array")
    verify.set_defaults(func=cmd_verify)

    quality = commands.add_parser("quality",
                                  help="average patch distance from a clean image "
                                       "to the database")
    quality.add_argument("--clean", required=True)
    _add_db_args(quality)
    quality.set_defaults(func=cmd_quality)

    noise = commands.add_parser("noise", help="add seeded Gaussian noise to a PGM")
    noise.add_argument("--input", required=True)
    noise.add_argument("--sigma", type=float, required=True)
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--out", required=True)
    noise.add_argument("--report", help="JSON with the pre-clamp empirical noise std")
    noise.set_defaults(func=cmd_noise)

    return parser


def _resolve_threads(requested: int) -> int:
    """--threads, where 0 means one per core this process may run on."""
    if requested < 0:
        raise ValueError(f"--threads must be >= 0, got {requested}")
    if requested:
        return requested
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _config(args, **cell) -> DenoiseConfig:
    """The DenoiseConfig of the parsed flags; `cell` sets the fields they lack."""
    settings = {name: value for name, value in vars(args).items()
                if name in _DEFAULTS}
    return DenoiseConfig(**settings, **cell)


def cmd_denoise(args) -> int:
    cfg = _config(args)
    _check_db_grid(args)
    threads = _resolve_threads(args.threads)
    if args.db_quality and not args.clean:
        raise ValueError("--db-quality requires --clean")
    noisy = _read_image(args.input)
    db = _load_db(args.db, args.patch_size, args.db_stride)
    clean = _read_image(args.clean) if args.clean else None
    result, report = denoise_image(noisy, db, cfg, clean=clean, threads=threads)
    if args.db_quality:
        report.db_quality = dbmod.database_quality(db, clean)

    out = args.out or str(Path(args.input).with_suffix(".denoised.pgm"))
    report_path = args.report or str(Path(args.input).with_suffix(".report.json"))
    Path(out).write_bytes(write_pgm(result))
    Path(report_path).write_text(report.to_json(include_timing=args.timing) + "\n")

    total = report.seconds_pass1 + report.seconds_pass2
    print(f"wrote {out} and {report_path} ({total:.2f}s)", file=sys.stderr)
    if report.psnr_denoised is not None:
        print(
            f"psnr {report.psnr_noisy:.2f} -> {report.psnr_denoised:.2f} dB, "
            f"ssim {report.ssim_noisy:.4f} -> {report.ssim_denoised:.4f}",
            file=sys.stderr,
        )
    return 0


def cmd_sweep(args) -> int:
    sigmas = [float(s) for s in args.sigmas.split(",") if s]
    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    if not sigmas or not rules:
        raise ValueError("--sigmas and --rules must be nonempty")
    # Every cell's settings are checked before any file is read.
    cells = [_config(args, sigma=s, rule=r) for s in sigmas for r in rules]
    _check_db_grid(args)
    threads = _resolve_threads(args.threads)
    clean = _read_image(args.clean)
    db = _load_db(args.db, args.patch_size, args.db_stride)
    rows = run_sweep(clean, db, cells[0], sigmas, rules, seed=args.seed,
                     threads=threads)
    Path(args.out).write_text(sweep_to_csv(rows, include_timing=args.timing))
    total = sum(row["seconds"] for row in rows)
    print(f"wrote {args.out}: {len(rows)} cells in {total:.2f}s", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    results = oracles.verify_all(args.seed)
    elapsed = time.perf_counter() - t0
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.name:<{width}}  measured={r.measured:.3e}  "
            f"tol={r.tolerance:.1e} ({r.mode})  {status}"
        )
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed "
        f"({elapsed:.1f}s)",
        file=sys.stderr,
    )
    if args.json:
        payload = json.dumps([r.to_dict() for r in results], indent=2)
        Path(args.json).write_text(payload + "\n")
    return 1 if failed else 0


def cmd_quality(args) -> int:
    _check_db_grid(args)
    clean = _read_image(args.clean)
    db = _load_db(args.db, args.patch_size, args.db_stride)
    value = dbmod.database_quality(db, clean)
    dense = (clean.shape[0] - args.patch_size + 1) * (
        clean.shape[1] - args.patch_size + 1
    )
    print(f"database patches: {len(db)}")
    print(f"clean patches:    {dense}")
    print(f"avg distance:     {value:.6f}")
    return 0


def cmd_noise(args) -> int:
    img = _read_image(args.input)
    noisy = add_gaussian_noise(img, args.sigma, args.seed)
    Path(args.out).write_bytes(write_pgm(noisy))
    if args.report:
        std = float(np.std(noisy - img))
        payload = {"sigma": args.sigma, "seed": args.seed, "empirical_std": std}
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
