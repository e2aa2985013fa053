"""Self-test of the benchmark's tracer on a tiny scene.

Shows that rebinding module attributes intercepts every call on the denoise
path: exact call counts, nested self times that add up to the root's total,
and unchanged outputs.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import tracer  # noqa: E402
from patchdenoise import build_database, filters, pipeline, synthetic  # noqa: E402

SIDE = 32
PASS1 = 5 * 5  # stride-6 grid offsets 0, 6, 12, 18, 24
PASS2 = 7 * 7  # stride-4 grid offsets 0, 4, ..., 24


@pytest.fixture(scope="module")
def scene():
    clean, pages = synthetic.make_corpus(7, db_count=2, width=SIDE, height=SIDE)
    noisy = clean + 50.0 * np.random.default_rng(1).standard_normal(clean.shape)
    return noisy, build_database(pages, 8, 4)


def traced_run(scene, cfg, threads):
    noisy, db = scene
    trace = tracer.Tracer()
    with tracer.traced(trace):
        out, report = pipeline.denoise_image(noisy, db, cfg, threads=threads)
    return trace, out, report


def counts(trace):
    return {name: row["calls"] for name, row in tracer.summarize(trace.spans).items()}


def test_exact_call_counts(scene):
    cfg = pipeline.DenoiseConfig(sigma=50.0)
    trace, _, _ = traced_run(scene, cfg, threads=1)
    calls = counts(trace)
    assert bench.patch_count(cfg, SIDE) == PASS1 + PASS2
    assert calls["pipeline.denoise_image"] == 1
    assert calls["pipeline.denoise_patch"] == PASS1 + PASS2
    assert calls["database.knn"] == PASS1
    assert calls["database.refine_first_pass"] == PASS2
    assert calls["database.k_smallest"] == PASS1 + PASS2
    assert len(trace.ranked) == PASS1 + PASS2
    assert calls["database.compute_weights"] == PASS1 + PASS2
    assert calls["filters.PatchEnsemble"] == PASS1 + PASS2
    assert calls["filters.group_sparse_basis"] == PASS1 + PASS2
    assert calls["filters.spectrum_bayes"] == PASS1 + PASS2
    assert calls["filters.apply_filter"] == PASS1 + PASS2
    # Pass 2 extracts the query and the pass-1 pilot; each extraction checks
    # the whole image with as_image, as does denoise_image once.
    assert calls["imaging.extract_patch"] == PASS1 + 2 * PASS2
    assert calls["imaging.as_image"] == 1 + PASS1 + 2 * PASS2
    assert calls["imaging.aggregate"] == 2
    assert calls["database.refine_cross_similarity"] == 0


def test_refinement_and_pilot_rule_are_intercepted(scene):
    cfg = pipeline.DenoiseConfig(sigma=50.0, selection="cross_similarity",
                                 rule="bm3d_pilot")
    calls = counts(traced_run(scene, cfg, threads=1)[0])
    assert calls["database.refine_cross_similarity"] == PASS1 + PASS2
    assert calls["database.cross_similarity_scores"] == PASS1 + PASS2
    assert calls["filters.spectrum_bm3d_pilot"] == PASS1 + PASS2
    assert calls["filters.spectrum_oracle"] == PASS1 + PASS2
    assert calls["database.knn"] == 0


def test_self_times_add_up_to_the_root_total(scene):
    trace, _, _ = traced_run(scene, pipeline.DenoiseConfig(sigma=50.0), threads=1)
    spans = {s.id: s for s in trace.spans}
    own = tracer.self_times(trace.spans)
    (root,) = [s for s in trace.spans if s.name == "pipeline.denoise_image"]
    for s in trace.spans:
        assert s.call == root.id
        assert own[s.id] >= -1e-9
        if s.parent:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    assert sum(own.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    assert tracer.uncovered(trace.spans, root) == pytest.approx(own[root.id], abs=1e-9)


def test_worker_threads_are_tied_to_their_call(scene):
    cfg = pipeline.DenoiseConfig(sigma=50.0)
    reference = pipeline.denoise_image(scene[0], scene[1], cfg, threads=1)[0]
    trace, out, report = traced_run(scene, cfg, threads=2)
    (root,) = [s for s in trace.spans if s.name == "pipeline.denoise_image"]
    patches = [s for s in trace.spans if s.name == "pipeline.denoise_patch"]
    assert len(patches) == PASS1 + PASS2
    assert {s.call for s in trace.spans} == {root.id}
    assert any(s.thread != root.thread for s in patches)
    assert bench.output_sha(out) == bench.output_sha(reference)
    metrics = bench.layer_metrics(trace, [report], threads=2)
    assert metrics["pipeline.denoise_patch.calls"]["value"] == PASS1 + PASS2
    assert 0.0 < metrics["pipeline.thread_busy_frac"]["value"] <= 1.0
    assert 0.0 <= metrics["pipeline.unattributed_s"]["value"] < root.end - root.start


def test_originals_restored_and_missing_functions_skipped(scene, monkeypatch):
    originals = (pipeline.denoise_patch, pipeline.extract_patch, filters.PatchEnsemble)
    monkeypatch.delattr(filters, "spectrum_oracle")
    trace, _, _ = traced_run(scene, pipeline.DenoiseConfig(sigma=50.0), threads=1)
    assert counts(trace)["filters.spectrum_oracle"] == 0
    assert (pipeline.denoise_patch, pipeline.extract_patch,
            filters.PatchEnsemble) == originals


def test_gate_counts_failures():
    clean = np.zeros((4, 4))
    gate = bench.Gate(clean, psnr_floor=20.0)
    gate.check(clean + 1.0)
    gate.check(clean + 1.0)
    gate.check(clean + 2.0)  # another SHA
    gate.check(clean + 100.0)  # below the floor
    gate.check(np.full((4, 4), np.nan))
    gate.check(np.zeros((3, 4)))
    gate.check(None, error=ValueError("boom"))
    assert gate.attempted == 7
    assert len(gate.failures) == 5
