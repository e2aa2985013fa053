"""PSNR and SSIM behavior, checked against direct formula evaluation."""

import json

import numpy as np
import pytest

from patchdenoise.metrics import psnr, ssim


def _reference_ssim(ref, test):
    """Literal windowed SSIM: explicit loops over every valid window."""
    half = 5
    coords = np.arange(-half, half + 1, dtype=float)
    g = np.exp(-(coords**2) / (2 * 1.5**2))
    w = np.outer(g, g)
    w /= w.sum()
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    h, wd = ref.shape
    values = []
    for r in range(h - 10):
        for c in range(wd - 10):
            a = ref[r : r + 11, c : c + 11]
            b = test[r : r + 11, c : c + 11]
            mu1 = (w * a).sum()
            mu2 = (w * b).sum()
            v1 = (w * a * a).sum() - mu1**2
            v2 = (w * b * b).sum() - mu2**2
            cov = (w * a * b).sum() - mu1 * mu2
            values.append(
                ((2 * mu1 * mu2 + c1) * (2 * cov + c2))
                / ((mu1**2 + mu2**2 + c1) * (v1 + v2 + c2))
            )
    return float(np.mean(values))


class TestPsnr:
    def test_identical_images_infinite(self, rng):
        img = rng.random((12, 12)) * 255
        assert psnr(img, img) == float("inf")

    def test_full_scale_offset_is_zero_db(self):
        ref = np.zeros((10, 10))
        assert psnr(ref, ref + 255.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_closed_form(self):
        ref = np.full((16, 16), 100.0)
        expected = 20 * np.log10(25.5)  # MSE = 100 against peak 255
        assert psnr(ref, ref + 10.0) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_strictly_decreasing_in_mse(self, rng):
        ref = rng.random((12, 12)) * 255
        values = [psnr(ref, ref + offset) for offset in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_symmetric(self, rng):
        a = rng.random((8, 8)) * 255
        b = rng.random((8, 8)) * 255
        assert psnr(a, b) == pytest.approx(psnr(b, a), rel=1e-15)


class TestSsim:
    def test_identical_images_score_one(self, rng):
        img = rng.random((24, 24)) * 255
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_constant_vs_same_constant(self):
        img = np.full((16, 16), 42.0)
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_structured_image_scores_low(self, rng):
        ref = rng.random((32, 32)) * 255
        assert ssim(ref, 255.0 - ref) < 0.5

    # The boundary shapes have one window along a side, so a separable pass
    # run along the wrong axis fails them.
    @pytest.mark.parametrize("shape", [(14, 15), (11, 11), (11, 40), (40, 11)])
    def test_matches_reference_implementation(self, rng, shape):
        ref = rng.random(shape) * 255
        test = ref + rng.normal(0, 20, size=ref.shape)
        assert ssim(ref, test) == pytest.approx(_reference_ssim(ref, test), abs=1e-10)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((10, 30)), np.zeros((10, 30)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((12, 12)), np.zeros((12, 13)))

    def test_bounded_by_one(self, rng):
        ref = rng.random((20, 20)) * 255
        noisy = ref + rng.normal(0, 30, size=ref.shape)
        assert -1.0 <= ssim(ref, noisy) <= 1.0

    def test_runs_without_scipy(self, tmp_path, fresh_python):
        # A fresh interpreter in which scipy cannot be imported.
        script = """
import json
import sys
sys.modules["scipy"] = None
import numpy as np
import patchdenoise as pd
import patchdenoise.cli
rng = np.random.default_rng(3)
clean = np.kron(rng.integers(0, 2, (6, 6)) * 200.0 + 25.0, np.ones((4, 4)))
noisy = clean + 10.0 * rng.standard_normal(clean.shape)
cfg = pd.DenoiseConfig(sigma=10.0, patch_size=4, stride_pass1=3,
                       stride_pass2=2, k=8, pool_size=20)
db = pd.build_database([clean], 4, 2)
_, without = pd.denoise_image(noisy, db, cfg)
out, report = pd.denoise_image(noisy, db, cfg, clean=clean)
np.save(sys.argv[1], np.stack([clean, out]))
print(json.dumps({"without": without.ssim_denoised,
                  "with": report.ssim_denoised, "ssim": pd.ssim(clean, out)}))
"""
        arrays = tmp_path / "images.npy"
        result = json.loads(fresh_python(script, str(arrays)))
        assert result["without"] is None
        assert isinstance(result["with"], float)
        clean, out = np.load(arrays)
        assert result["ssim"] == result["with"]
        assert result["ssim"] == pytest.approx(_reference_ssim(clean, out),
                                               abs=1e-10)
