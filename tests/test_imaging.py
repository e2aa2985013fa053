"""Image handling: PGM codec, noise injection, grids, patch round trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchdenoise.imaging import (
    CoverageError,
    PgmFormatError,
    _offsets,
    add_gaussian_noise,
    aggregate,
    extract_patch,
    extract_patches,
    plan_grid,
    read_pgm,
    write_pgm,
)


class TestPgmCodec:
    def test_reads_minimal_binary_file(self):
        data = b"P5 2 2 255\n" + bytes([0, 255, 128, 64])
        img = read_pgm(data)
        np.testing.assert_array_equal(img, [[0.0, 255.0], [128.0, 64.0]])

    def test_rejects_ascii_magic(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P2\n2 2\n255\n0 255 128 64")

    def test_rejects_wrong_maxval(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_rejects_truncated_payload(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P5\n2 2\n255\n\x00\x01\x02")

    def test_rejects_trailing_bytes(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P5\n1 1\n255\n\x00\x01")

    def test_skips_comments_in_header(self):
        data = b"P5\n# a comment\n1 2\n255\n\x07\x09"
        img = read_pgm(data)
        np.testing.assert_array_equal(img, [[7.0], [9.0]])

    def test_round_trip_write_then_read(self, rng):
        img = rng.integers(0, 256, size=(13, 9)).astype(float)
        recovered = read_pgm(write_pgm(img))
        np.testing.assert_array_equal(recovered, img)

    def test_round_trip_read_then_write_is_identity(self, rng):
        payload = rng.integers(0, 256, size=35, dtype=np.uint8).tobytes()
        canonical = b"P5\n7 5\n255\n" + payload
        assert write_pgm(read_pgm(canonical)) == canonical

    def test_write_clamps_above_255(self):
        data = write_pgm(np.full((2, 2), 300.0))
        assert data.endswith(bytes([255] * 4))

    def test_write_clamps_below_0(self):
        data = write_pgm(np.full((2, 2), -5.0))
        assert data.endswith(bytes([0] * 4))

    def test_write_rounds_half_away_from_zero(self):
        data = write_pgm(np.array([[127.5, 126.5, 0.4, 254.5]]))
        assert data.endswith(bytes([128, 127, 0, 255]))

    def test_canonical_header(self):
        assert write_pgm(np.zeros((3, 4))).startswith(b"P5\n4 3\n255\n")


class TestGaussianNoise:
    def test_sigma_zero_is_identity(self, rng):
        img = rng.random((6, 6)) * 255
        np.testing.assert_array_equal(add_gaussian_noise(img, 0.0, 42), img)

    def test_same_seed_bit_identical(self, rng):
        img = rng.random((16, 16)) * 255
        a = add_gaussian_noise(img, 25.0, 1234)
        b = add_gaussian_noise(img, 25.0, 1234)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, rng):
        img = rng.random((16, 16)) * 255
        a = add_gaussian_noise(img, 25.0, 1)
        b = add_gaussian_noise(img, 25.0, 2)
        assert not np.array_equal(a, b)

    def test_empirical_std_at_sigma_20(self):
        img = np.full((256, 256), 128.0)
        noisy = add_gaussian_noise(img, 20.0, 99)
        assert 19.5 <= np.std(noisy - img) <= 20.5

    def test_negative_sigma_rejected(self):
        for sigma in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="sigma"):
                add_gaussian_noise(np.zeros((4, 4)), sigma, 0)

    def test_no_clamping_in_float_domain(self):
        img = np.full((64, 64), 2.0)
        noisy = add_gaussian_noise(img, 50.0, 7)
        assert noisy.min() < 0  # values may leave [0, 255]


class TestPlanGrid:
    def test_single_patch_image(self):
        locs = plan_grid(8, 8, 8, 6)
        np.testing.assert_array_equal(locs, [[0, 0]])

    def test_final_column_clamped(self):
        locs = plan_grid(20, 8, 8, 6)
        assert sorted(set(c for _, c in locs)) == [0, 6, 12]

    def test_row_major_order(self):
        locs = plan_grid(14, 14, 8, 6)
        assert [tuple(l) for l in locs] == [(0, 0), (0, 6), (6, 0), (6, 6)]

    def test_full_coverage_301x218(self):
        width, height, patch = 301, 218, 8
        covered = np.zeros((height, width), dtype=bool)
        for r, c in plan_grid(width, height, patch, 6):
            covered[r : r + patch, c : c + patch] = True
        assert covered.all()

    @pytest.mark.parametrize("width,height,stride", [(33, 47, 1), (64, 40, 4),
                                                     (127, 101, 7)])
    def test_full_coverage_parametrized(self, width, height, stride):
        patch = 8
        covered = np.zeros((height, width), dtype=bool)
        for r, c in plan_grid(width, height, patch, stride):
            covered[r : r + patch, c : c + patch] = True
        assert covered.all()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda patch: st.tuples(
        st.integers(patch, 60), st.integers(patch, 60), st.just(patch),
        st.integers(1, patch))))
    def test_matches_the_list_of_tuples(self, grid):
        width, height, patch, stride = grid
        rows = _offsets(height, patch, stride)
        cols = _offsets(width, patch, stride)
        expected = np.array([(r, c) for r in rows for c in cols], dtype=np.int64)
        locs = plan_grid(width, height, patch, stride)
        assert locs.dtype == np.int64 and locs.flags.c_contiguous
        assert locs.shape == expected.shape
        assert locs.tobytes() == expected.tobytes()

    def test_patch_too_large_rejected(self):
        with pytest.raises(ValueError):
            plan_grid(6, 10, 8, 4)

    def test_stride_above_patch_size_rejected(self):
        with pytest.raises(ValueError):
            plan_grid(64, 64, 8, 9)


class TestPatchExtraction:
    def test_constant_image(self):
        img = np.full((10, 10), 3.5)
        np.testing.assert_array_equal(extract_patch(img, (1, 2), 4), np.full(16, 3.5))

    def test_whole_image_flattened(self, rng):
        img = rng.random((8, 8))
        np.testing.assert_array_equal(extract_patch(img, (0, 0), 8), img.ravel())

    def test_only_the_window_must_be_finite(self):
        img = np.zeros((8, 8))
        img[6, 1] = np.nan
        np.testing.assert_array_equal(extract_patch(img, (0, 0), 4), np.zeros(16))
        with pytest.raises(ValueError, match="finite"):
            extract_patch(img, (4, 0), 4)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            extract_patch(np.zeros((8, 8)), (2, 2), 8)

    def test_extract_then_place_back(self, rng):
        img = rng.random((12, 12)) * 255
        patch = extract_patch(img, (3, 5), 4)
        np.testing.assert_array_equal(patch.reshape(4, 4), img[3:7, 5:9])

    def test_extract_patches_matches_single(self, rng):
        for h, w, side in [(16, 16, 8), (11, 17, 4)]:
            img = rng.random((h, w))
            locs = plan_grid(w, h, side, side // 2)
            batch = extract_patches(img, locs, side)
            for row, loc in zip(batch, locs):
                np.testing.assert_array_equal(row, extract_patch(img, loc, side))

    @pytest.mark.parametrize("loc", [(-1, 0), (0, -2), (5, 0), (0, 9)])
    def test_extract_patches_names_out_of_bounds_location(self, loc):
        # (4, 8) is the last in-bounds 4x4 location in an 8x12 image.
        with pytest.raises(ValueError, match=re.escape(f"patch at {loc}")):
            extract_patches(np.zeros((8, 12)), [(4, 8), loc], 4)

    @pytest.mark.parametrize("locs", [[], np.zeros((0, 2), dtype=int)])
    def test_extract_patches_of_no_locations(self, locs):
        assert extract_patches(np.zeros((8, 8)), locs, 4).shape == (0, 16)


def loop_aggregate(patches, locs, width, height):
    """The per-patch reference: each patch added into its window in order."""
    acc = np.zeros((height, width))
    counts = np.zeros((height, width))
    for patch, (r, c) in zip(patches, locs):
        side = int(round(np.sqrt(patch.size)))
        acc[r : r + side, c : c + side] += patch.reshape(side, side)
        counts[r : r + side, c : c + side] += 1.0
    return acc / counts


# Sums of these round differently in another order: 1e16 + 1 == 1e16.
ROUNDING = np.array([1e16, -1e16, 1.0, 0.5, 3.0, 0.0, -0.0])


@st.composite
def placed_patches(draw):
    """(patches, locs, width, height): a plan_grid grid with some locations
    repeated, shuffled, and values that expose the summation order."""
    side = draw(st.integers(1, 6))
    width, height = draw(st.integers(side, 14)), draw(st.integers(side, 14))
    locs = plan_grid(width, height, side, draw(st.integers(1, side)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    repeats = rng.choice(locs, rng.integers(len(locs) + 1))
    locs = rng.permutation(np.concatenate([locs, repeats]))
    patches = rng.choice(ROUNDING, (len(locs), side * side))
    return patches, locs, width, height


class TestAggregate:
    def test_single_full_image_patch(self, rng):
        img = rng.random((8, 8))
        out = aggregate(img.reshape(1, 64), [(0, 0)], 8, 8)
        np.testing.assert_array_equal(out, img)

    def test_overlapping_constants_average(self):
        patches = np.array([np.full(16, 0.0), np.full(16, 10.0)])
        out = aggregate(patches, [(0, 0), (0, 2)], 6, 4)
        np.testing.assert_array_equal(out[:, :2], 0.0)
        np.testing.assert_array_equal(out[:, 2:4], 5.0)
        np.testing.assert_array_equal(out[:, 4:], 10.0)

    def test_identical_constant_patches(self):
        patches = np.full((2, 16), 4.0)
        np.testing.assert_array_equal(aggregate(patches, [(0, 0), (0, 2)], 6, 4), 4.0)

    def test_uncovered_pixel_raises(self):
        with pytest.raises(CoverageError):
            aggregate(np.zeros((1, 16)), [(0, 0)], 8, 8)

    def test_reconstructs_image_from_grid(self, rng):
        img = rng.random((20, 26)) * 255
        locs = plan_grid(26, 20, 8, 6)
        patches = extract_patches(img, locs, 8)
        np.testing.assert_allclose(aggregate(patches, locs, 26, 20), img, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(placed_patches())
    def test_matches_the_per_patch_loop_bit_for_bit(self, case):
        patches, locs, width, height = case
        expected = loop_aggregate(patches, locs, width, height)
        assert aggregate(patches, locs, width, height).tobytes() == expected.tobytes()

    def test_rejects_patches_that_do_not_fit_locs(self):
        locs = [(0, 0), (0, 2)]
        with pytest.raises(ValueError, match=re.escape("need 2 rows of p^2 values, "
                                                       "got (2, 15)")):
            aggregate(np.zeros((2, 15)), locs, 6, 4)
        with pytest.raises(ValueError, match=re.escape("got (3, 16)")):
            aggregate(np.zeros((3, 16)), locs, 6, 4)
        with pytest.raises(ValueError, match=re.escape("got (32,)")):
            aggregate(np.zeros(32), locs, 6, 4)

    @pytest.mark.parametrize("loc", [(-1, 0), (0, -2), (5, 0), (0, 9)])
    def test_names_out_of_bounds_location_as_extract_patches_does(self, loc):
        locs = [(4, 8), loc]
        with pytest.raises(ValueError) as extracted:
            extract_patches(np.zeros((8, 12)), locs, 4)
        with pytest.raises(ValueError) as aggregated:
            aggregate(np.zeros((2, 16)), locs, 12, 8)
        assert str(aggregated.value) == str(extracted.value)
        assert str(aggregated.value).startswith(f"patch at {loc} size 4")

    def test_empty_locations_reach_the_coverage_check(self):
        with pytest.raises(CoverageError, match="16 pixels"):
            aggregate(np.zeros((0, 16)), [], 4, 4)

    @pytest.mark.parametrize("locs", [np.zeros((3, 3)), [1, 2], np.zeros((1, 2, 2))])
    def test_rejects_locs_that_are_not_n_by_2(self, locs):
        shape = np.shape(locs)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            extract_patches(np.zeros((8, 8)), locs, 4)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            aggregate(np.zeros((len(locs), 16)), locs, 8, 8)