"""Whole-image denoising: per-patch filtering plus the two-pass procedure.

Pass 1 runs denoise_patch without a pilot on a coarse grid. Pass 2 re-runs
it on a finer grid with the pass-1 output as the pilot, which refines the
'auto' selection and sets the 'bm3d_pilot' shrinkage.
Given fixed inputs the output is bit-identical at every thread count: a
pass screens and filters the same blocks in the same order, on at most two
threads, as per-patch work holds the GIL and only the screen overlaps it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import database as dbmod
from . import filters
from .imaging import (add_gaussian_noise, aggregate, as_image, check_grid,
                      extract_patch, plan_grid)
from .metrics import _check_ssim_shape, psnr, ssim

__all__ = [
    "RULES",
    "SELECTIONS",
    "DenoiseConfig",
    "Report",
    "denoise_patch",
    "denoise_image",
    "run_sweep",
    "sweep_to_csv",
    "cell_seed",
]

RULES = ("oracle", "bayes", "bayes_l1", "bayes_l0", "bm3d_pilot", "lpg")
SELECTIONS = ("auto", "knn", "cross_similarity")
_PENALIZED_ALPHA = {"bayes_l1": 1, "bayes_l0": 0}


@dataclass(frozen=True)
class DenoiseConfig:
    """All pipeline tunables. tau/bandwidth None means the noise-derived default."""

    sigma: float
    patch_size: int = 8
    stride_pass1: int = 6
    stride_pass2: int = 4
    k: int = 40
    pool_size: int = 200
    selection: str = "auto"
    rule: str = "bayes"
    gamma: float = 0.02
    tau: float | None = None
    bandwidth: float | None = None
    passes: int = 2

    def __post_init__(self):
        for name in ("patch_size", "stride_pass1", "stride_pass2", "k",
                     "pool_size", "passes"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 < self.sigma < np.inf:  # NaN fails too
            raise ValueError(
                f"sigma must be finite and > 0 for denoising, got {self.sigma}"
            )
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}; choose from {RULES}")
        if self.selection not in SELECTIONS:
            raise ValueError(
                f"unknown selection {self.selection!r}; choose from {SELECTIONS}"
            )
        if self.k < 1 or self.pool_size < self.k:
            raise ValueError(f"need 1 <= k <= pool_size, got k={self.k}, "
                             f"pool_size={self.pool_size}")
        for stride in (self.stride_pass1, self.stride_pass2):
            check_grid(self.patch_size, stride)
        if self.passes not in (1, 2):
            raise ValueError(f"passes must be 1 or 2, got {self.passes}")
        filters._check_gamma(self.gamma)
        if self.tau is not None:
            dbmod._check_tau(self.tau)
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")

    def resolved_bandwidth(self) -> float:
        """Similarity bandwidth h: the explicit value, else matched to sigma."""
        if self.bandwidth is not None:
            return self.bandwidth
        return float(self.sigma)

    def resolved_tau(self, selection: str, pool_size: int) -> float:
        """Selection penalty weight: the explicit value, else a noise schedule.

        first_pass (the pilot-refined 'auto' selection): 0.01 below sigma 30,
        1.0 from 30 up. cross_similarity: 1/(200 m) below sigma 30, 1/(2 m)
        from 30 up, with m the pool size.
        """
        if self.tau is not None:
            return self.tau
        high = self.sigma >= 30
        if selection == "first_pass":
            return 1.0 if high else 0.01
        if selection == "cross_similarity":
            return 1.0 / (2 * pool_size) if high else 1.0 / (200 * pool_size)
        raise ValueError(f"no tau schedule for selection {selection!r}")


@dataclass
class Report:
    """Structured evaluation output of one denoising run.

    Metrics are None when no clean image was supplied. seconds_* always hold
    the true wall-clock measurements; to_json zeroes them unless asked,
    keeping serialized output byte-stable across reruns.
    """

    psnr_noisy: float | None
    psnr_denoised: float | None
    ssim_noisy: float | None
    ssim_denoised: float | None
    seconds_pass1: float
    seconds_pass2: float
    config: dict
    db_quality: float | None = None

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "psnr_noisy": self.psnr_noisy,
            "psnr_denoised": self.psnr_denoised,
            "ssim_noisy": self.ssim_noisy,
            "ssim_denoised": self.ssim_denoised,
            "seconds_pass1": round(self.seconds_pass1, 3) if include_timing else 0.0,
            "seconds_pass2": round(self.seconds_pass2, 3) if include_timing else 0.0,
            "db_quality": self.db_quality,
            "config": self.config,
        }
        return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# Per-patch denoising
# ---------------------------------------------------------------------------


def _check_k(cfg, db) -> None:
    if cfg.k > db._copies:
        raise ValueError(f"database has {db._copies} patches, need k={cfg.k}")


def _select_indices(q, db, cfg, pilot):
    selection = cfg.selection
    if selection == "auto":  # refine around the pilot once there is one
        selection = "knn" if pilot is None else "first_pass"
    if selection == "knn":
        return dbmod.knn(db, q, cfg.k)
    pool = min(cfg.pool_size, db._copies)
    tau = cfg.resolved_tau(selection, pool)
    if selection == "cross_similarity":
        return dbmod.refine_cross_similarity(db, q, pool, cfg.k, tau)
    return dbmod.refine_first_pass(db, q, pilot, pool, cfg.k, tau)


def _shrinkage(cfg, U, s, q, pilot, truth):
    rule = cfg.rule
    if rule == "bayes":
        return filters.spectrum_bayes(s, cfg.sigma)
    if rule in _PENALIZED_ALPHA:
        return filters.spectrum_penalized(s, cfg.sigma, cfg.gamma,
                                          _PENALIZED_ALPHA[rule])
    if rule == "bm3d_pilot":  # without a pilot the query stands in for it
        return filters.spectrum_bm3d_pilot(U, q if pilot is None else pilot,
                                           cfg.sigma)
    if rule == "lpg":
        return filters.spectrum_lpg(U, q, cfg.sigma)
    if truth is None:  # rule == "oracle"
        raise ValueError("rule 'oracle' requires the true clean patch")
    return filters.spectrum_oracle(U, truth, cfg.sigma)


def denoise_patch(q, db, cfg: DenoiseConfig, pilot=None, truth=None) -> np.ndarray:
    """Denoise one patch: select references, learn the filter, apply it.

    pilot is an earlier pass's estimate of the clean patch, or None. It
    refines the 'auto' selection (plain k-NN without it) and is what
    'bm3d_pilot' shrinks toward (the query without it). truth is required
    for the 'oracle' rule.
    """
    _check_k(cfg, db)
    q = np.asarray(q, dtype=np.float64)
    idx = _select_indices(q, db, cfg, pilot)
    selected = db.patches[idx]
    weights = dbmod.compute_weights(q, selected, cfg.resolved_bandwidth())
    ens = filters.PatchEnsemble(P=selected.T, weights=weights)
    U, s = filters.group_sparse_basis(ens)
    if cfg.rule == "oracle" and truth is not None:
        U = filters.oracle_basis(U, truth)  # the truth's residual completes it
    lam = _shrinkage(cfg, U, s, q, pilot, truth)
    return filters.apply_filter(U, lam, q)


# ---------------------------------------------------------------------------
# Whole-image pipeline
# ---------------------------------------------------------------------------


def _check_threads(threads) -> None:
    if (not isinstance(threads, numbers.Integral) or isinstance(threads, bool)
            or threads < 1):
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")


def _run_pass(noisy, db, cfg, stride, pilot_image, clean, worker, index):
    """denoise_patch over the stride grid, piloted by pilot_image if given.

    The grid is cut into blocks of SCREEN_BLOCK queries, the same blocks at
    every thread count. Each block is screened with index, the screen that
    database._screen_of keeps with db, and each patch searches only its
    candidate rows; they hold its exact m = min(pool_size, len(db)) nearest
    in index order, so the estimate is the one the whole database gives.
    A worker, if given, filters each block while the caller screens the next.
    """
    h, w = noisy.shape
    p = cfg.patch_size
    locs = plan_grid(w, h, p, stride)
    estimates = np.empty((len(locs), p * p))
    m = min(cfg.pool_size, len(db))

    def screened(start):  # (index, query, candidate rows) per block patch
        ix = range(start, min(start + dbmod.SCREEN_BLOCK, len(locs)))
        queries = [extract_patch(noisy, locs[i], p) for i in ix]
        return list(zip(ix, queries, dbmod.screen(index, queries, m)))

    def filtered(block):  # fills the block's rows of estimates
        for i, q, cand in block:
            pilot = truth = None
            if pilot_image is not None:
                pilot = extract_patch(pilot_image, locs[i], p)
            if cfg.rule == "oracle":
                truth = extract_patch(clean, locs[i], p)
            estimates[i] = denoise_patch(q, db.take(cand), cfg, pilot, truth)

    blocks = map(screened, range(0, len(locs), dbmod.SCREEN_BLOCK))
    if worker is None:
        list(map(filtered, blocks))
    else:
        pending = worker.submit(filtered, next(blocks))  # never empty
        for block in blocks:  # screened while the worker filters the last
            pending.result()  # re-raises that block's error
            pending = worker.submit(filtered, block)
        pending.result()
    return aggregate(estimates, locs, w, h)


def denoise_image(
    noisy, db, cfg: DenoiseConfig, clean=None, threads: int = 1
) -> tuple[np.ndarray, Report]:
    """Run the one- or two-pass pipeline; returns the estimate and a report.

    The clean image is used only for metrics and for the 'oracle' rule.
    threads >= 2 runs both passes on the caller and one worker: same output.
    A database past the screen's limits raises ValueError before any patch.
    """
    _check_threads(threads)
    noisy = as_image(noisy)
    if clean is not None:
        clean = as_image(clean)
        if clean.shape != noisy.shape:
            raise ValueError(f"clean image shape {clean.shape} != "
                             f"noisy image shape {noisy.shape}")
        _check_ssim_shape(clean.shape)
    elif cfg.rule == "oracle":
        raise ValueError("rule 'oracle' requires the clean image")
    if db.patch_size != cfg.patch_size:
        raise ValueError(f"database patch size {db.patch_size} != "
                         f"configured patch size {cfg.patch_size}")
    _check_k(cfg, db)

    index = dbmod._screen_of(db)

    result, seconds = None, [0.0, 0.0]
    strides = (cfg.stride_pass1, cfg.stride_pass2)[:cfg.passes]
    with (ThreadPoolExecutor(max_workers=1) if threads > 1
          else contextlib.nullcontext()) as worker:
        for n, stride in enumerate(strides):
            start = time.perf_counter()
            result = _run_pass(noisy, db, cfg, stride, result, clean, worker, index)
            seconds[n] = time.perf_counter() - start

    report = Report(
        psnr_noisy=psnr(clean, noisy) if clean is not None else None,
        psnr_denoised=psnr(clean, result) if clean is not None else None,
        ssim_noisy=ssim(clean, noisy) if clean is not None else None,
        ssim_denoised=ssim(clean, result) if clean is not None else None,
        seconds_pass1=seconds[0],
        seconds_pass2=seconds[1],
        config=dataclasses.asdict(cfg),
    )
    return result, report


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def cell_seed(seed: int, sigma: float, rule: str) -> int:
    """Stable per-cell seed: base seed XOR SHA-256(repr(sigma)|rule) prefix."""
    digest = hashlib.sha256(f"{float(sigma)!r}|{rule}".encode()).digest()
    return (seed ^ int.from_bytes(digest[:8], "little")) & (2**63 - 1)


def run_sweep(clean, db, cfg_base: DenoiseConfig, sigmas, rules,
              seed: int = 0, threads: int = 1) -> list[dict]:
    """Denoise fresh noise realizations for each (sigma, rule) cell.

    Each cell derives its own noise seed from the base seed, injects noise,
    runs the pipeline, and records PSNR/SSIM against the clean image.
    """
    clean = as_image(clean)
    # Every cell's config is checked before the first cell is denoised.
    cells = [dataclasses.replace(cfg_base, sigma=float(sigma), rule=rule)
             for sigma in sigmas for rule in rules]
    _check_threads(threads)
    rows = []
    for cfg in cells:
        noise_seed = cell_seed(seed, cfg.sigma, cfg.rule)
        noisy = add_gaussian_noise(clean, cfg.sigma, noise_seed)
        _, report = denoise_image(noisy, db, cfg, clean=clean, threads=threads)
        rows.append(
            {
                "sigma": cfg.sigma,
                "rule": cfg.rule,
                "psnr": report.psnr_denoised,
                "ssim": report.ssim_denoised,
                "seconds": report.seconds_pass1 + report.seconds_pass2,
            }
        )
    return rows


def sweep_to_csv(rows, include_timing: bool = False) -> str:
    """Render sweep rows as CSV with a stable header and formatting."""
    out = io.StringIO()
    out.write("sigma,rule,psnr,ssim,seconds\n")
    for row in rows:
        seconds = row["seconds"] if include_timing else 0.0
        out.write(
            f"{row['sigma']:g},{row['rule']},{row['psnr']:.6f},"
            f"{row['ssim']:.6f},{seconds:.3f}\n"
        )
    return out.getvalue()
