"""Workloads, correctness gate and metrics of the patchdenoise benchmark.

`run.py` is the entry point; it pins the BLAS thread count and puts the
checkout's `src` on the import path before this module is imported.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from patchdenoise import database, pipeline, synthetic
from patchdenoise.imaging import add_gaussian_noise, plan_grid
from patchdenoise.metrics import psnr, ssim

import tracer

SIGMA = 50.0
PATCH_SIZE = 8
DEFAULT_SEED = 7
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    """One seeded scene, its database and the denoise_image call made on it.

    The query scene is `side` x `side`; the database always holds the four
    128x128 pages of `make_corpus(seed)`, cropped at `db_stride`.
    psnr_floor is the correctness gate's minimum PSNR, set about 2 dB under
    the lowest value measured on seeds 0-21.
    """

    side: int
    db_stride: int
    threads: int
    psnr_floor: float
    selection: str = "auto"
    rule: str = "bayes"


WORKLOADS = {
    # Search dominates: 58,564 rows ranked per query, one thread.
    "bigdb128": Workload(side=128, db_stride=1, threads=1, psnr_floor=27.0),
    # Most patches and the largest image; basis and per-patch extraction
    # dominate, and it is the only workload that runs the thread pool.
    "page512": Workload(side=512, db_stride=4, threads=2, psnr_floor=26.5),
    # Refined selection and pilot shrinkage: pool-pair distances dominate.
    "crossref128": Workload(side=128, db_stride=2, threads=1, psnr_floor=17.5,
                            selection="cross_similarity", rule="bm3d_pilot"),
}


def make_inputs(workload: Workload, seed: int):
    """(clean, noisy, pages) for a workload, a pure function of the seed."""
    clean, pages = synthetic.make_corpus(seed)
    if workload.side != clean.shape[0]:
        clean = synthetic.make_corpus(seed, width=workload.side,
                                      height=workload.side)[0]
    noise_seed = int(np.random.SeedSequence(seed, spawn_key=(1,)).generate_state(1)[0])
    return clean, add_gaussian_noise(clean, SIGMA, noise_seed), pages


def config(workload: Workload) -> pipeline.DenoiseConfig:
    return pipeline.DenoiseConfig(sigma=SIGMA, patch_size=PATCH_SIZE,
                                  selection=workload.selection, rule=workload.rule)


def patch_count(cfg: pipeline.DenoiseConfig, side: int) -> int:
    """Patches filtered by both passes together."""
    return sum(len(plan_grid(side, side, cfg.patch_size, stride))
               for stride in (cfg.stride_pass1, cfg.stride_pass2)[:cfg.passes])


def output_sha(out: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()


class Gate:
    """Checks each denoise_image output and counts the calls that fail.

    An output passes when it has the scene's shape, is finite everywhere,
    reaches the workload's PSNR floor, and hashes to the same SHA-256 as
    the first output of the run (traced calls included).
    """

    def __init__(self, clean: np.ndarray, psnr_floor: float):
        self.clean = clean
        self.psnr_floor = psnr_floor
        self.sha = None
        self.psnr = None
        self.output = None
        self.attempted = 0
        self.failures = []

    def check(self, out, error=None) -> None:
        self.attempted += 1
        problem = None
        if error is not None:
            problem = f"raised {type(error).__name__}: {error}"
        elif out.shape != self.clean.shape:
            problem = f"shape {out.shape} != {self.clean.shape}"
        elif not np.all(np.isfinite(out)):
            problem = "non-finite output"
        else:
            value = psnr(self.clean, out)
            sha = output_sha(out)
            if self.sha is None:
                self.sha, self.psnr, self.output = sha, value, out
            if value < self.psnr_floor:
                problem = f"PSNR {value:.3f} dB < floor {self.psnr_floor} dB"
            elif sha != self.sha:
                problem = f"output SHA-256 {sha} != first output {self.sha}"
        if problem is not None:
            self.failures.append(problem)


def timed_calls(budget: float, call) -> list[float]:
    """Run `call` until the next run would end past `budget` seconds; at least once."""
    times = []
    start = perf_counter()
    while True:
        times.append(call())
        if perf_counter() - start + statistics.median(times) > budget:
            return times


def denoise_caller(noisy, db, cfg, threads, gate, reports):
    """A timed denoise_image call whose output goes through the gate."""

    def call() -> float:
        out, error = None, None
        start = perf_counter()
        try:
            # Looked up on the module at call time, so tracing can rebind it.
            out, report = pipeline.denoise_image(noisy, db, cfg, threads=threads)
        except Exception as exc:  # a failing call is counted, not fatal
            error = exc
        elapsed = perf_counter() - start
        gate.check(out, error)
        if error is None:
            reports.append(report)
        return elapsed

    return call


def build_times(pages, stride: int) -> tuple[list[float], database.Database]:
    """Build the database at least 5 times and for about 1 s; time each build."""
    times, db = [], None
    while len(times) < 5 or (sum(times) < 1.0 and len(times) < 100):
        db = None  # so two databases never count toward peak RSS at once
        start = perf_counter()
        db = database.build_database(pages, PATCH_SIZE, stride)
        times.append(perf_counter() - start)
    return times, db


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def layer_metrics(trace: tracer.Tracer, reports, threads: int) -> dict:
    """Per-layer metrics per traced denoise_image call (per build for build_database)."""
    spans = trace.spans
    denoise = [s for s in spans if s.id == s.call and s.name == "pipeline.denoise_image"]
    builds = [s for s in spans if s.id == s.call and s.name == "database.build_database"]
    denoise_ids = {s.id for s in denoise}
    build_ids = {s.id for s in builds}
    in_denoise = [s for s in spans if s.call in denoise_ids]
    n = max(len(denoise), 1)

    out = {}
    summary = tracer.summarize(in_denoise)
    summary["database.build_database"] = tracer.summarize(
        [s for s in spans if s.call in build_ids])["database.build_database"]
    for name in tracer.TRACED:
        per = max(len(builds), 1) if name == "database.build_database" else n
        out[f"{name}.calls"] = metric(summary[name]["calls"] / per, "count")
        out[f"{name}.self_s"] = metric(summary[name]["self_s"] / per, "s")

    rows = sum(r for r, _ in trace.ranked)
    kept = sum(k for _, k in trace.ranked)
    out["database.k_smallest.rows_per_call"] = metric(
        rows / max(len(trace.ranked), 1), "rows")
    out["database.kept_ratio"] = metric(kept / rows if rows else 0.0, "ratio")

    patch_us = [(s.end - s.start) * 1e6 for s in in_denoise
                if s.name == "pipeline.denoise_patch"]
    p50, p99 = np.percentile(patch_us, (50, 99)) if patch_us else (0.0, 0.0)
    out["pipeline.denoise_patch.p50_us"] = metric(p50, "us")
    out["pipeline.denoise_patch.p99_us"] = metric(p99, "us")

    pass1 = sum(r.seconds_pass1 for r in reports)
    pass2 = sum(r.seconds_pass2 for r in reports)
    out["pipeline.pass1_s"] = metric(pass1 / n, "s")
    out["pipeline.pass2_s"] = metric(pass2 / n, "s")
    busy = sum(s.end - s.start for s in in_denoise
               if s.name in ("pipeline.denoise_patch", "imaging.extract_patch"))
    out["pipeline.thread_busy_frac"] = metric(
        busy / (threads * (pass1 + pass2)) if pass1 + pass2 else 0.0, "ratio")
    out["pipeline.unattributed_s"] = metric(
        sum(tracer.uncovered(in_denoise, root) for root in denoise) / n, "s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"non-negative workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time budget for the measured denoise_image calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced calls and report per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = min(workload.threads, nproc)
    cfg = config(workload)
    clean, noisy, pages = make_inputs(workload, args.seed)
    gate = Gate(clean, workload.psnr_floor)
    reports = []

    setup_times, db = build_times(pages, workload.db_stride)
    call = denoise_caller(noisy, db, cfg, threads, gate, reports)
    budget = args.seconds / 2 if args.trace else args.seconds
    times = timed_calls(budget, call)
    denoise_s = statistics.median(times)
    patches = patch_count(cfg, workload.side)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": nproc, "threads": threads, **versions(),
            "db_rows": len(db), "patches": patches,
            "denoise_times_s": times, "setup_times_s": setup_times}

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        trace = tracer.Tracer()
        traced_reports = []
        traced_call = denoise_caller(noisy, db, cfg, threads, gate, traced_reports)
        with tracer.traced(trace):
            database.build_database(pages, PATCH_SIZE, workload.db_stride)
            traced_times = timed_calls(budget, traced_call)
        metrics = layer_metrics(trace, traced_reports, threads)
        metrics["trace.overhead_frac"] = metric(
            (statistics.median(traced_times) - denoise_s) / denoise_s, "ratio")
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(trace.spans, spans_file)
        info["traced_times_s"] = traced_times
        info["spans_file"] = str(spans_file.relative_to(OUT_DIR.parent.parent))
    else:
        metrics = {
            "denoise_s": metric(denoise_s, "s"),
            "patches_per_s": metric(patches / denoise_s, "1/s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "psnr_db": metric(gate.psnr or 0.0, "dB"),
        }
        info["ssim"] = ssim(clean, gate.output) if gate.output is not None else None

    info.update(sha256=gate.sha, psnr_db=gate.psnr, gate_failures=gate.failures[:10])
    result_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({"info": info, "metrics": metrics}, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps({"correct": not gate.failures, "attempted": gate.attempted,
                      "failed": len(gate.failures), "metrics": metrics}))
    return 0
