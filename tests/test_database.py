"""Database construction, search, selection refinement, and quality metric.

Brute-force oracles (exhaustive sorts, subset enumeration, double loops)
validate each search operation independently of its implementation.
"""

import dataclasses
import struct
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from patchdenoise import database
from patchdenoise.database import (
    Database,
    build_database,
    compute_weights,
    cross_similarity_scores,
    database_quality,
    k_smallest,
    knn,
    load_database,
    load_database_cache,
    refine_cross_similarity,
    refine_first_pass,
    save_database_cache,
    screen,
    screen_index,
)
from patchdenoise.imaging import extract_patches, plan_grid, write_pgm
from patchdenoise.pipeline import DenoiseConfig


def _random_db(rng, n=50, d=16, scale=10.0):
    patches = scale * rng.standard_normal((n, d))
    return Database(patches=patches, patch_size=int(np.sqrt(d)))


class TestBuildDatabase:
    def test_single_patch_image(self):
        db = build_database([np.arange(64.0).reshape(8, 8)], 8, 6)
        assert len(db) == 1
        np.testing.assert_array_equal(db.patches[0], np.arange(64.0))

    def test_identical_images_duplicate_patches(self, rng):
        img = rng.random((12, 12)) * 255
        db = build_database([img, img], 8, 4)
        half = len(db) // 2
        np.testing.assert_array_equal(db.patches[:half], db.patches[half:])

    def test_count_matches_grid_sizes(self, rng):
        sizes = [(301, 218), (250, 199), (288, 204), (310, 200), (299, 217),
                 (275, 210), (305, 195), (260, 220), (290, 208)]
        images = [rng.random((h, w)) * 255 for w, h in sizes]
        db = build_database(images, 8, 4)
        expected = sum(len(plan_grid(w, h, 8, 4)) for w, h in sizes)
        assert len(db) == expected

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            build_database([], 8, 4)

    @pytest.mark.parametrize("patch_size", [0, -3])
    def test_zero_width_patches_rejected(self, patch_size):
        with pytest.raises(ValueError, match="patch_size must be >= 1"):
            Database(patches=np.zeros((5, 0)), patch_size=patch_size)

    def test_origins_record_locations(self, rng):
        # Rows follow image order, then plan_grid order within each image.
        images = [rng.random((14, 14)) * 255, rng.random((20, 17)) * 255]
        db = build_database(images, 8, 6)
        expected = [img[r : r + 8, c : c + 8].ravel()
                    for img in images
                    for r, c in plan_grid(img.shape[1], img.shape[0], 8, 6)]
        np.testing.assert_array_equal(db.patches, np.array(expected))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fills_the_rows_np_vstack_gives(self, data):
        patch = data.draw(st.integers(1, 6), label="patch")
        stride = data.draw(st.integers(1, patch), label="stride")
        shapes = data.draw(st.lists(st.tuples(st.integers(patch, patch + 12),
                                              st.integers(patch, patch + 12)),
                                    min_size=1, max_size=4), label="shapes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        images = [np.round(rng.standard_normal(shape), 1) * 100 for shape in shapes]
        images[0][0, 0] = -0.0  # bytes, not only values, must be kept
        images[-1] = images[-1].astype(np.float32)  # converted like the rest
        expected = np.vstack([
            extract_patches(img, plan_grid(img.shape[1], img.shape[0], patch,
                                           stride), patch)
            for img in images])
        db = build_database((img for img in images), patch, stride)
        assert db.patches.dtype == np.float64 and db.patches.flags.c_contiguous
        assert db.patches.shape == expected.shape
        assert db.patches.tobytes() == expected.tobytes()


class TestCacheRoundTrip:
    def test_round_trip(self, tmp_path, rng):
        db = _random_db(rng)
        path = tmp_path / "patches.cache"
        save_database_cache(db, path)
        loaded = load_database_cache(path)
        np.testing.assert_array_equal(loaded.patches, db.patches)
        assert loaded.patch_size == db.patch_size

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.cache"
        path.write_bytes(b"NOTACACHE")
        with pytest.raises(ValueError):
            load_database_cache(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        db = _random_db(rng)
        path = tmp_path / "patches.cache"
        save_database_cache(db, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_database_cache(path)

    def test_zero_patch_size_header_rejected(self, tmp_path, rng):
        path = tmp_path / "patches.cache"
        save_database_cache(_random_db(rng), path)
        magic = path.read_bytes().split(b"\n", 1)[0] + b"\n"
        path.write_bytes(magic + struct.pack("<IQ", 0, 3))  # 3 rows of 0 values
        with pytest.raises(ValueError, match="patch_size must be >= 1"):
            load_database_cache(path)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_written_bytes_are_the_cache_format(self, tmp_path, rng, layout):
        rows = rng.standard_normal((40, 16))
        rows[0, 0] = -0.0
        patches = {"C": rows, "F": np.asfortranarray(rows), "strided": rows[::2]}
        db = Database(patches=patches[layout], patch_size=4)
        path = tmp_path / "patches.cache"
        save_database_cache(db, path)
        header = b"TDBC\x01\n" + struct.pack("<IQ", 4, len(db))
        payload = np.ascontiguousarray(db.patches, dtype="<f8").tobytes()
        assert path.read_bytes() == header + payload
        assert load_database_cache(path).patches.tobytes() == payload

    def test_truncated_header_rejected(self, tmp_path, rng):
        path = tmp_path / "patches.cache"
        save_database_cache(_random_db(rng), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated cache header"):
            load_database_cache(path)

    def test_header_length_checked_before_any_allocation(self, tmp_path):
        # 2**40 rows of 64 values would be 512 TiB; the file holds 8 bytes.
        path = tmp_path / "patches.cache"
        path.write_bytes(b"TDBC\x01\n" + struct.pack("<IQ", 8, 2**40) + bytes(8))
        with pytest.raises(ValueError, match="payload length 8 != expected"):
            load_database_cache(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_patches_rejected(self, tmp_path, rng, bad):
        patches = rng.standard_normal((50, 16))
        patches[3, 5] = bad
        db = Database(patches=patches, patch_size=4)
        path = tmp_path / "patches.cache"
        save_database_cache(db, path)
        with pytest.raises(ValueError, match="patches.cache.*non-finite"):
            load_database_cache(path)


class TestLoadDatabase:
    def test_reads_sorted_pgms(self, tmp_path, rng):
        imgs = {name: rng.integers(0, 256, (10, 10)).astype(float)
                for name in ("b.pgm", "a.pgm")}
        for name, img in imgs.items():
            (tmp_path / name).write_bytes(write_pgm(img))
        db = load_database(tmp_path, 8, 2)
        # sorted order: a.pgm first
        np.testing.assert_array_equal(db.patches[0], imgs["a.pgm"][:8, :8].ravel())

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_database(tmp_path, 8, 2)


class TestKnn:
    def test_exact_match_first_with_zero_distance(self, rng):
        db = _random_db(rng)
        q = db.patches[17].copy()
        idx = knn(db, q, 3)
        assert idx[0] == 17
        assert np.linalg.norm(db.patches[idx[0]] - q) == 0.0

    def test_k_equals_n_returns_full_sort(self, rng):
        db = _random_db(rng, n=20)
        q = rng.standard_normal(db.patches.shape[1])
        idx = knn(db, q, 20)
        dists = np.linalg.norm(db.patches - q, axis=1)
        assert np.all(np.diff(dists[idx]) >= 0)
        assert sorted(idx) == list(range(20))

    def test_matches_brute_force_sort(self, rng):
        db = _random_db(rng, n=50)
        for _ in range(10):
            q = 10.0 * rng.standard_normal(db.patches.shape[1])
            dists = np.linalg.norm(db.patches - q, axis=1)
            expected = np.argsort(dists, kind="stable")[:5]
            np.testing.assert_array_equal(knn(db, q, 5), expected)

    def test_ties_break_by_lower_index(self):
        # Rows 0 and 2 are one row with two copies; row 3 ties with it.
        a, b, far = np.eye(4)[0], np.eye(4)[1], 5.0 * np.eye(4)[0]
        db = Database(patches=np.vstack([a, far, a, b]), patch_size=2)
        np.testing.assert_array_equal(knn(db, np.zeros(4), 3), [0, 0, 3])
        np.testing.assert_array_equal(knn(db, np.zeros(4), 4), [0, 0, 3, 1])

    def test_copies_left_out_of_a_take_count_for_nothing(self, rng):
        # Rows 3 and 7 are copies of row 0, so their counts are 0: a
        # database of them alone stands for no row.
        patches = np.round(rng.standard_normal((10, 16)))
        patches[[3, 7]] = patches[0]
        db = Database(patches=patches, patch_size=4)
        sub = db.take([3, 7])
        np.testing.assert_array_equal(sub.counts, [0, 0])
        for k in (1, 2):
            with pytest.raises(ValueError, match=r"k must be in \[1, 0\]"):
                knn(sub, patches[0], k)
        with pytest.raises(ValueError, match=r"pool_size \(2\) exceeds"):
            refine_first_pass(sub, patches[0], patches[0], 2, 1, 0.5)

    def test_k_out_of_range_rejected(self, rng):
        db = _random_db(rng, n=5)
        q = np.zeros(db.patches.shape[1])
        with pytest.raises(ValueError):
            knn(db, q, 0)
        with pytest.raises(ValueError):
            knn(db, q, 6)

    def test_dimension_mismatch_rejected(self, rng):
        db = _random_db(rng)
        with pytest.raises(ValueError):
            knn(db, np.zeros(db.patches.shape[1] + 1), 3)


class TestKSmallest:
    # Small integers tie often; signed zeros, infinities and NaN are the
    # values a partial selection can get wrong.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(
            st.integers(-3, 3).map(float),
            st.sampled_from([-0.0, np.inf, -np.inf, np.nan]),
        ),
        min_size=1, max_size=40,
    ))
    def test_matches_full_stable_sort(self, values):
        values = np.array(values)
        expected = np.argsort(values, kind="stable")
        for k in range(1, len(values) + 1):
            np.testing.assert_array_equal(k_smallest(values, k), expected[:k])



# Integer values tie often and stay exact; signed zeros must count as equal;
# large magnitudes make the GEMM round, which the screen's tol must absorb.
# 0.1, 1/3 and 2**24 + 1 round when cast to float32, 2**-140 is subnormal
# there, and 2**61 puts R + ‖q‖ past the guard, so the screen rejects it.
_GUARD = 2.0**60
_SCREEN_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([-0.0, 2.0**30, -(2.0**30), 2.0**30 + 1, 1e6 + 3,
                     0.1, 1 / 3, 2.0**24 + 1, 2.0**-140, 2.0**61]),
)


@st.composite
def _screen_cases(draw):
    """(db, query, pilot): rows drawn from a few distinct rows, so many repeat.

    A shared offset turns small differences into near-ties that float32
    rounds apart, in either order.
    """
    d = 4
    vector = st.lists(_SCREEN_VALUES, min_size=d, max_size=d)
    base = draw(st.lists(vector, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=2, max_size=16))
    patches, q, pilot = (np.array([base[i] for i in picks]),
                         np.array(draw(vector)), np.array(draw(vector)))
    offset = draw(st.sampled_from([0.0, 1 / 3, 1e6 + 0.1, 2.0**24 + 1, 2.0**30]))
    if offset:  # adding 0.0 would turn -0.0 into 0.0
        patches, q, pilot = patches + offset, q + offset, pilot + offset
    return Database(patches=patches, patch_size=2), q, pilot


# Row 1 is nearer (squared distance 30 against 33), but float32 rounding of
# values near 1e6 ranks row 0 first by more than a float64 tol would allow.
_FLOAT32_REORDERS = (
    Database(patches=1e6 + 0.1 + np.array([[-1.0, -2, 1, -2], [1, -2, 1, -1]]),
             patch_size=2),
    1e6 + 0.1 + np.array([-1.0, 2, 0, 2]),
    np.full(4, 1e6),
)
# Near 2**-73 the products fall below float32's normal range, where rounding
# errs by an absolute amount that the relative part of tol does not cover.
_SUBNORMAL_SCORES = (
    Database(patches=2.0**-73 * (1 / 3 + np.array([[0, -3, 4, 1], [1, 0, -5, 2],
                                                   [5, 6, -3, -4]])),
             patch_size=2),
    2.0**-73 * (1 / 3 + np.array([-4, 0, 4, -6])),
    np.zeros(4),
)


def _rejected_past_guard(db, q) -> bool:
    """Whether a value of db or q is past the guard, where the screen must
    reject them: db in screen_index, q in screen."""
    if np.abs(np.r_[db.patches.ravel(), q]).max() <= _GUARD:
        return False
    with pytest.raises(ValueError, match=r"2\*\*60"):
        screen(screen_index(db), [q], 1)
    return True


class TestScreen:
    @settings(max_examples=200, deadline=None)
    @given(_screen_cases())
    @example(_FLOAT32_REORDERS)
    @example(_SUBNORMAL_SCORES)
    def test_candidates_reproduce_every_search(self, case):
        db, q, pilot = case
        if _rejected_past_guard(db, q):
            return
        index = screen_index(db)
        for m in range(1, len(db) + 2):
            (rows,) = screen(index, [q], m)
            if m >= len(index.rows):  # every distinct row is kept
                np.testing.assert_array_equal(rows, np.flatnonzero(db.counts))
            if m > len(db):
                continue
            assert np.all(np.diff(rows) > 0)
            sub = db.take(rows)
            for k in {1, (m + 1) // 2, m}:
                np.testing.assert_array_equal(rows[knn(sub, q, k)], knn(db, q, k))
                np.testing.assert_array_equal(
                    rows[refine_first_pass(sub, q, pilot, m, k, 0.5)],
                    refine_first_pass(db, q, pilot, m, k, 0.5))
                np.testing.assert_array_equal(
                    rows[refine_cross_similarity(sub, q, m, k, 0.1)],
                    refine_cross_similarity(db, q, m, k, 0.1))

    @settings(max_examples=200, deadline=None)
    @given(_screen_cases())
    @example(_FLOAT32_REORDERS)
    @example(_SUBNORMAL_SCORES)
    def test_kept_rows_hold_the_reference_first_m(self, case):
        # The reference is the float64 search distance over the distinct
        # rows; near-ties there must not push one of its first m out.
        db, q, _ = case
        if _rejected_past_guard(db, q):
            return
        distinct = np.flatnonzero(db.counts)
        distances = database._query_distances(db, q)[distinct]
        index = screen_index(db)
        for m in range(1, len(db)):
            (rows,) = screen(index, [q], m)
            assert set(distinct[k_smallest(distances, m)]) <= set(rows)

    @settings(max_examples=200, deadline=None)
    @given(_screen_cases())
    def test_table_holds_each_distinct_row_once(self, case):
        db, _, _ = case
        P = db.patches
        if np.abs(P).max() > _GUARD:
            with pytest.raises(ValueError, match=r"limit of 2\*\*60"):
                screen_index(db)
            return
        below = np.array([np.sum(np.all(P[:i] == P[i], axis=1))
                          for i in range(len(db))])
        index = screen_index(db)
        np.testing.assert_array_equal(index.rows, np.flatnonzero(below == 0))
        assert index.radius == np.sqrt(np.vecdot(P, P).max())
        kept = P[index.rows]
        np.testing.assert_array_equal(index.table, kept.T.astype(np.float32))
        np.testing.assert_array_equal(
            index.norms, (0.5 * np.vecdot(kept, kept)).astype(np.float32))

    def test_table_keeps_the_lowest_index_copy(self, rng):
        row = np.round(10.0 * rng.standard_normal(16))
        row[0] = 0.0
        twin = row.copy()
        twin[0] = -0.0  # equal values, different bytes
        other = row + 1.0
        P = np.array([other, row, twin, other, row, twin, row, other])
        db = Database(patches=P, patch_size=4)
        # Copies of `row` sit at 1, 2, 4, 5, 6; of `other` at 0, 3, 7.
        np.testing.assert_array_equal(screen_index(db).rows, [0, 1])
        np.testing.assert_array_equal(db.counts, [3, 5, 0, 0, 0, 0, 0, 0])

    def test_screen_keeps_about_m_rows(self, rng):
        db = _random_db(rng, n=2000)
        queries = 10.0 * rng.standard_normal((4, db.patches.shape[1]))
        for rows in screen(screen_index(db), queries, 50):
            assert 50 <= len(rows) < 60

    def test_huge_magnitudes_are_rejected(self, rng):
        # Nothing past the guard is cast to float32, so nothing overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = 1e150 * rng.integers(-3, 4, (30, 16)).astype(float)
            db = Database(patches=huge, patch_size=4)
            with pytest.raises(ValueError, match=r"patch norm \S+ reaches "
                                                 r"the screen's limit of 2\*\*60"):
                screen_index(db)
            with pytest.raises(ValueError, match=r"limit of 2\*\*60"):
                database._screen_of(db)
            assert db._screen is None
            # The searches themselves take any rows within _NORM_LIMIT.
            assert knn(db, huge[0], 5)[0] == 0
            # Within the guard, the database is screened, and a block that
            # holds a query past it, or a query that is not finite, raises.
            small = _random_db(rng, n=30)
            index = screen_index(small)
            for queries in ([huge[0], small.patches[3]], huge[:1],
                            [np.full(16, np.nan)], [np.full(16, np.inf)]):
                with pytest.raises(ValueError, match=r"queries must be finite "
                                                     r"with R \+ ‖q‖ below 2\*\*60"):
                    screen(index, queries, 5)
            (near,) = screen(index, [small.patches[3]], 5)
            sub = small.take(near)
            np.testing.assert_array_equal(near[knn(sub, small.patches[3], 5)],
                                          knn(small, small.patches[3], 5))

    def test_patches_above_32_by_32_are_rejected(self, rng):
        # screen's tol assumes d·2**-24 <= 2**-14, that is d <= 1,024.
        db = Database(patches=rng.standard_normal((5, 33 * 33)), patch_size=33)
        with pytest.raises(ValueError, match="patch size 33 exceeds the "
                                             "screen's limit of 32"):
            database._screen_of(db)
        assert db._screen is None and "counts" not in vars(db)
        assert knn(db, db.patches[2], 1)[0] == 2
        largest = Database(patches=rng.standard_normal((5, 32 * 32)),
                           patch_size=32)
        (rows,) = screen(screen_index(largest), largest.patches[:1], 1)
        assert rows[0] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_rows_rejected(self, rng, bad):
        patches = rng.standard_normal((50, 16))
        patches[7, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            screen_index(Database(patches=patches, patch_size=4))

    @pytest.mark.parametrize("m", [0, -3])
    def test_m_below_one_rejected(self, rng, m):
        index = screen_index(_random_db(rng, n=20))
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            screen(index, np.zeros((1, 16)), m)

    def test_queries_must_match_the_table(self, rng):
        index = screen_index(_random_db(rng, n=100))
        assert screen(index, [], 10) == [] == screen(index, np.empty((0, 16)), 10)
        for bad in (np.zeros(16), np.zeros((2, 9)), np.zeros((2, 16, 1))):
            with pytest.raises(ValueError) as err:
                screen(index, bad, 10)
            assert str(bad.shape) in str(err.value) and "(n, 16)" in str(err.value)

    def test_a_block_holds_its_scores_once(self, rng):
        db = _random_db(rng, n=20_000, d=64)
        index = screen_index(db)
        queries = 10.0 * rng.standard_normal((16, 64))
        screen(index, queries, 200)  # warm-up
        tracemalloc.start()
        try:
            screen(index, queries, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scores = 16 * index.table.shape[1] * 4  # the block's float32 scores
        assert peak <= 1.25 * scores


class TestKeptScreen:
    def test_kept_for_every_m(self, rng, screen_builds):
        db = _random_db(rng, n=200)
        first = database._screen_of(db)
        queries = 10.0 * rng.standard_normal((2, 16))
        for m in (10, 20, 1, 10):
            assert database._screen_of(db) is first
            for rows in screen(first, queries, m):
                assert len(rows) >= m
        assert screen_builds == [db]

    def test_matches_the_uncached_builder(self, rng):
        db = _random_db(rng, n=200)
        kept = database._screen_of(db)
        fresh = screen_index(db)
        assert fresh is not screen_index(db)
        for name in ("rows", "table", "norms"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(fresh, name))
            with pytest.raises(ValueError, match="read-only"):
                getattr(fresh, name)[0] = 0
        assert kept.radius == fresh.radius

    def test_uncached_builder_keeps_no_index(self, rng):
        db = _random_db(rng, n=200)
        screen_index(db)
        assert db._screen is None

    def test_slot_is_private_state(self, rng):
        db = _random_db(rng, n=200)
        twin = Database(patches=db.patches, patch_size=4)
        database._screen_of(db)
        assert repr(db) == repr(twin)
        fresh = dataclasses.replace(db)
        assert fresh._screen is None and fresh.patches is db.patches
        assert not {"norms", "counts", "_copies"} & set(vars(fresh))
        with pytest.raises(TypeError):
            Database(db.patches, 4, None)

    def test_databases_compare_by_identity(self):
        # The generated field comparison put the arrays in a tuple, whose ==
        # raised on equal but distinct arrays.
        a = np.zeros((3, 4))
        db = Database(a, 2)
        assert db == db and db != Database(a.copy(), 2) and db != Database(a, 2)
        assert len({db, db, Database(a, 2)}) == 2

    def test_take_hands_over_norms_and_counts(self, rng):
        patches = np.round(3.0 * rng.standard_normal((200, 16)))
        patches[150:] = patches[:50]
        db = Database(patches=patches, patch_size=4)
        rows = np.array([5, 3, 199, 155, 149])
        sub = db.take(rows)
        np.testing.assert_array_equal(sub.patches, db.patches[rows])
        assert {"norms", "counts", "_copies"} <= set(vars(sub))
        np.testing.assert_array_equal(sub.norms, np.vecdot(sub.patches, sub.patches))
        # The counts of the database taken from: rows 199 and 155 are the
        # second copies of rows 49 and 5, and row 149 has one copy.
        np.testing.assert_array_equal(sub.counts, [2, 2, 0, 0, 1])
        assert sub._copies == 5 and db._copies == len(db) == db.counts.sum()
        for array in (sub.patches, sub.norms, sub.counts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_concurrent_first_searches_build_once(self, rng, screen_builds):
        db = _random_db(rng, n=2000)
        barrier = threading.Barrier(8)

        def first_search():
            barrier.wait(timeout=10)
            return database._screen_of(db)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(first_search) for _ in range(8)]
                indexes = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert screen_builds == [db]
        assert all(index is indexes[0] for index in indexes)

    @pytest.mark.parametrize("layout", ["F", "view", "float32", "uint8", "list"])
    def test_rows_are_fixed_at_construction(self, rng, layout):
        # A dot product reads a strided row in another order than it reads
        # the contiguous copies that take hands to each patch's search, and
        # a write through a view's base would change the rows.
        values = np.round(100.0 * rng.random((200, 16)))
        rows = {"F": np.asfortranarray(values), "view": values[:],
                "float32": values.astype(np.float32),
                "uint8": values.astype(np.uint8), "list": values.tolist()}[layout]
        db = Database(patches=rows, patch_size=4)
        assert db.patches is not rows and not np.shares_memory(db.patches, values)
        assert db.patches.dtype == np.float64 and db.patches.flags.c_contiguous
        assert db.patches.tobytes() == values.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            db.patches[0, 0] = 0.0
        np.testing.assert_array_equal(db.norms, np.vecdot(values, values))

    def test_built_rows_are_kept_in_place(self, rng, tmp_path):
        db = build_database([rng.random((20, 20)) * 255], 4, 1)
        path = tmp_path / "patches.cache"
        save_database_cache(db, path)
        for rows in (db.patches, load_database_cache(path).patches):
            again = Database(patches=rows, patch_size=4)
            assert again.patches is rows and not rows.flags.writeable

    def test_searched_database_still_saves(self, tmp_path, rng):
        db = _random_db(rng, n=200)
        database._screen_of(db)
        path = tmp_path / "patches.cache"
        save_database_cache(db, path)
        assert load_database_cache(path).patches.tobytes() == db.patches.tobytes()

    def test_database_quality_builds_the_index_once(self, rng, screen_builds):
        img = rng.random((12, 12)) * 255
        db = _random_db(rng, n=200)
        copy = Database(patches=db.patches.copy(), patch_size=4)
        values = [database_quality(db, img) for _ in range(2)]
        assert values[0] == values[1] == database_quality(copy, img)
        assert screen_builds == [db, copy]


# Few values, so rows repeat; signed zeros must count as equal, and NaN
# equals nothing.
_TWIN_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan])


@st.composite
def _twin_cases(draw):
    """Rows drawn from a few distinct rows."""
    vector = st.lists(_TWIN_VALUES, min_size=4, max_size=4)
    base = draw(st.lists(vector, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=30))
    return np.array([base[i] for i in picks])


def _lowest_identical(rows):
    """Each row's lowest index among the rows equal to it by value, by a
    double loop; NaN equals no row, itself included."""
    equal = np.all(rows[:, None] == rows[None, :], axis=2)
    return np.array([np.flatnonzero(row)[0] if row.any() else i
                     for i, row in enumerate(equal)], dtype=np.intp)


class TestCounts:
    @settings(max_examples=300, deadline=None)
    @given(_twin_cases())
    @example(np.array([[0.0, -0.0, 1, 1], [np.nan, 1, 1, 1], [-0.0, 0.0, 1, 1],
                       [np.nan, 1, 1, 1]]))
    @example(np.array([[1.0, -0.0, 0, 2], [1.0, 0.0, -0.0, 2],
                       [-1.0, 0, 0, 2], [1.0, 0.0, 0.0, 2]]))
    def test_counts_sit_on_the_lowest_identical_row(self, rows):
        counts = database._row_counts(rows)
        lowest = _lowest_identical(rows)
        np.testing.assert_array_equal(counts,
                                      np.bincount(lowest, minlength=len(rows)))
        assert counts.sum() == len(rows)
        db = Database(patches=rows, patch_size=2)
        if np.isnan(rows).any():
            with pytest.raises(ValueError, match="finite"):
                db.counts
            return
        np.testing.assert_array_equal(db.counts, counts)

    def test_rows_are_never_all_copied(self, rng):
        # Without a -0.0 the rows are sorted through a byte view and compared
        # a chunk at a time: the peak is a few index arrays and a chunk of
        # rows, not the rows' 10 MB.
        rows = np.round(rng.standard_normal((20_000, 64)))
        rows[::3] = rows[1::3][: len(rows[::3])]  # row 3j + 1 copies row 3j
        rows += 0.0
        tracemalloc.start()
        try:
            counts = database._row_counts(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 4
        np.testing.assert_array_equal(counts, np.resize([2, 0, 1], len(rows)))


@st.composite
def _copy_cases(draw):
    """(db, q, pilot, m, k, tau, line): rows drawn from a few distinct rows of
    small integers, some of whose zeros are -0.0, so every search distance
    is exact. On a line (rows s·(3, 4, 0, 0)) every pair distance is an
    integer too, so the pool sums are exact as well."""
    line = draw(st.booleans())
    if line:
        vector = st.integers(-3, 3).map(lambda t: [3.0 * t, 4.0 * t, 0.0, 0.0])
    else:
        vector = st.lists(st.integers(-2, 2).map(float), min_size=4, max_size=4)
    base = draw(st.lists(vector, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=24))
    patches = np.array([base[i] for i in picks])
    signs = draw(st.lists(st.booleans(), min_size=patches.size,
                          max_size=patches.size))
    patches[(patches == 0) & np.reshape(signs, patches.shape)] = -0.0
    q, pilot = np.array(draw(vector)), np.array(draw(vector))
    m = draw(st.integers(1, len(patches)))
    k = draw(st.integers(1, m))
    tau = draw(st.sampled_from([0.0, 1 / 3, 1.0]))
    return Database(patches=patches, patch_size=2), q, pilot, m, k, tau, line


def _ends_in_a_tie(rows, keys, k):
    """Whether the k smallest keys end inside a run of equal keys that
    different rows hold: there, which rows make the cut is a tie-break."""
    order = np.argsort(keys, kind="stable")
    if k >= len(keys) or keys[order[k - 1]] != keys[order[k]]:
        return False
    run = rows[keys == keys[order[k - 1]]]
    return not np.all(run == run[0])


def _as_multiset(rows):
    return sorted(map(tuple, rows + 0.0))


@st.composite
def _take_cases(draw):
    """(sub, q, pilot, m, k, tau, line): a take of a _copy_cases database's
    rows in any order, so a copy of count 0 may come ahead of its
    lowest-index row or without it; m and k are within its copies."""
    db, q, pilot, _, _, tau, line = draw(_copy_cases())
    rows = draw(st.lists(st.integers(0, len(db) - 1), min_size=1,
                         max_size=len(db), unique=True))
    sub = db.take(rows)
    m = draw(st.integers(1, max(sub._copies, 1)))
    return sub, q, pilot, m, draw(st.integers(1, m)), tau, line


# Row 2 copies row 0, so its count is 0; the take puts it first, without
# row 0, and nearest to the query: it must stand for nothing.
_COPY_WITHOUT_ITS_ROW = (
    Database(np.array([[3.0, 4, 0, 0], [6, 8, 0, 0], [3, 4, 0, 0]]), 2).take([2, 1]),
    np.array([3.0, 4, 0, 0]), np.zeros(4), 1, 1, 1.0, True)


class TestSearchByCounts:
    @settings(max_examples=300, deadline=None)
    @given(_copy_cases())
    @example((Database(np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, -0.0]]), 2),
              np.zeros(4), np.ones(4), 2, 2, 1.0, False))
    def test_searches_select_the_brute_force_rows(self, case):
        # Brute force over every row: one stable sort by key, with ties
        # broken first by the lowest identical index, as the counts rank, or
        # by index alone, as before counts. The rows selected match the
        # former in order, and the latter as a multiset wherever no cut
        # falls inside a tie of different rows.
        db, q, pilot, m, k, tau, line = case
        P, heads = db.patches, _lowest_identical(db.patches)
        c = cdist(q[None, :], P)[0]
        searches = {
            "knn": (lambda db: knn(db, q, k), len(db), lambda rows: c[rows]),
            "first_pass": (
                lambda db: refine_first_pass(db, q, pilot, m, k, tau), m,
                lambda rows: c[rows] + tau * cdist(pilot[None, :], P[rows])[0]),
            "cross_similarity": (
                lambda db: refine_cross_similarity(db, q, m, k, tau), m,
                lambda rows: cross_similarity_scores(
                    c[rows], cdist(P[rows], P[rows]).sum(axis=0), tau)),
        }
        if not line:  # pair distances round, so pool sums may tie differently
            del searches["cross_similarity"]
        (screened,) = screen(screen_index(db), [q], m)
        for name, (search, pool_size, key) in searches.items():
            selected = search(db)
            rows = _by_copies(heads, c)[:pool_size]
            expected = heads[rows[_by_copies(heads[rows], key(rows))[:k]]]
            np.testing.assert_array_equal(selected, expected, name)
            rows = np.argsort(c, kind="stable")[:pool_size]
            if not (_ends_in_a_tie(P, c, pool_size)
                    or _ends_in_a_tie(P[rows], key(rows), k)):
                before = rows[np.argsort(key(rows), kind="stable")[:k]]
                assert _as_multiset(P[selected]) == _as_multiset(P[before]), name
            np.testing.assert_array_equal(
                screened[search(db.take(screened))], selected, name)


    @settings(max_examples=300, deadline=None)
    @given(_take_cases())
    @example(_COPY_WITHOUT_ITS_ROW)
    def test_takes_in_any_order_select_k_counted_copies(self, case):
        # Brute force over the take's rows that count: one stable sort by
        # (distance, index), each row repeated by its count; a pool is its
        # first m copies, and a refinement takes the pool's k best copies by
        # (score, index). Copies of count 0 stand for nothing.
        sub, q, pilot, m, k, tau, line = case
        if not sub._copies:
            with pytest.raises(ValueError, match=r"k must be in \[1, 0\]"):
                knn(sub, q, k)
            return
        P = sub.patches
        c = cdist(q[None, :], P)[0]
        live = np.flatnonzero(sub.counts)
        ranked = live[np.argsort(c[live], kind="stable")]
        copies = np.repeat(ranked, sub.counts[ranked])
        pool = copies[:m]
        keys = {
            "first_pass": c[pool] + tau * cdist(pilot[None, :], P[pool])[0],
            "cross_similarity": cross_similarity_scores(
                c[pool], cdist(P[pool], P[pool]).sum(axis=0), tau),
        }
        selected = {
            "knn": (knn(sub, q, k), copies[:k]),
            "first_pass": (refine_first_pass(sub, q, pilot, m, k, tau),
                           pool[np.lexsort((pool, keys["first_pass"]))[:k]]),
            "cross_similarity": (
                refine_cross_similarity(sub, q, m, k, tau),
                pool[np.lexsort((pool, keys["cross_similarity"]))[:k]]),
        }
        if not line:  # pair distances round, so pool sums may tie differently
            del selected["cross_similarity"]
        for name, (got, expected) in selected.items():
            assert len(got) == k and sub.counts[got].all(), name
            np.testing.assert_array_equal(got, expected, name)


def _by_copies(heads, keys):
    """Brute force: every row, in one stable sort by key, ties broken by the
    lowest index of the rows identical to it (heads), then by index."""
    return np.lexsort((heads, keys))


def _cross_similarity_with_cdist(db, q, m, k, tau):
    """The selection, the pool of m copies and each copy's score, from cdist,
    which computes every pool pair twice; each copy stands for its head."""
    heads = _lowest_identical(db.patches)
    dists = cdist(q[None, :], db.patches)[0]
    pool = _by_copies(heads, dists)[:m]
    B = cdist(db.patches[pool], db.patches[pool])
    scores = cross_similarity_scores(dists[pool], B.sum(axis=0), tau)
    return heads[pool[_by_copies(heads[pool], scores)[:k]]], pool, scores


def _assert_selects_like_cdist(db, q, m, k, tau, selected, tol):
    """selected ranks as the cdist reference does, except that distinct rows
    whose reference distances or scores lie within tol may come in either
    order; a row's copies come together, under its lowest index."""
    c = cdist(q[None, :], db.patches)[0]
    pool, _, copies = database._candidate_pool(db, q, m, k)
    assert c[pool].max() <= np.sort(c)[m - 1] + tol
    np.testing.assert_array_equal(_lowest_identical(db.patches)[pool], pool)
    assert len(set(pool)) == len(pool) and copies.min() > 0 and copies.sum() == m
    x = db.patches[pool]
    scores = dict(zip(pool, cross_similarity_scores(c[pool], cdist(x, x) @ copies,
                                                    tau)))
    chosen = [scores[i] for i in selected]
    assert len(selected) == k and set(selected) <= set(pool)
    assert all(b >= a - tol for a, b in zip(chosen, chosen[1:]))
    runs, taken = np.unique(selected, return_counts=True)
    assert np.count_nonzero(np.diff(selected)) == len(runs) - 1  # together
    held, last = dict(zip(pool, copies)), selected[-1]
    assert all(n == held[i] or i == last and n < held[i]  # only the last in part
               for i, n in zip(runs, taken))
    left = [scores[i] for i in pool if list(selected).count(i) < held[i]]
    assert min(left, default=np.inf) >= chosen[-1] - tol


def _apart(values, rows, tol):
    """Whether every two distinct rows' values differ by more than tol."""
    order = np.argsort(values, kind="stable")
    values, rows = values[order], rows[order]
    # A run of values within tol of each other must hold one row value.
    for i in range(1, len(values)):
        j = i - 1
        while j >= 0 and values[i] - values[j] <= tol:
            if not np.array_equal(rows[i], rows[j]):
                return False
            j -= 1
    return True


def _gram_tol(db, q, m, tau):
    # ‖x‖² − 2x·q + ‖q‖² errs by at most (d + 3)·2**-53·(‖x‖ + ‖q‖)² + 8dν,
    # so a distance errs by at most the root of that. Allow twice that for
    # a query distance, m times it (rows 2R apart) per pool sum, and 2**-40
    # of each for the sums' own rounding.
    d = db.patches.shape[1]
    R = np.sqrt(np.vecdot(db.patches, db.patches).max())
    far = np.sqrt(np.vecdot(q, q)) + R

    def err(reach):
        return np.sqrt((d + 3) * 2.0**-53 * reach**2 + 8 * d * 2.0**-1022)

    return (2 * err(far) + 2.0**-40 * far
            + tau * m * (2 * err(2 * R) + 2.0**-40 * 2 * R))


# Small integers keep distances exact, so rows tie; 1 + 2**-52 is one ulp
# from 1, for near-ties; signed zeros must fold as one row.
_POOL_VALUES = st.sampled_from([0.0, -0.0, 1.0, 1 + 2.0**-52, -1.0, 2.0, 3.0,
                                -7.0, 0.5, 1 / 3, 100.0])


@st.composite
def _pool_cases(draw):
    """(db, q, m, k, tau): pools drawn from a few distinct rows, so many are twins.

    Reversed copies of some rows are as far from a q with equal coordinates
    as the rows, so distinct rows tie on c; a shared offset near 1e6 makes
    the Gram form cancel the most; a scale of 2**-520 underflows its
    products, and 2**57 makes its squares large.
    """
    d = 4
    vector = st.lists(_POOL_VALUES, min_size=d, max_size=d)
    base = draw(st.lists(vector, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=20))
    patches = np.array([base[i] for i in picks])
    q = np.array(draw(vector))
    mirrored = draw(st.integers(0, len(patches)))
    if mirrored:
        patches = np.vstack([patches, patches[:mirrored, ::-1]])
        q[:] = q[0]
    zeros = draw(st.integers(0, len(patches)))
    patches[:zeros] *= 0.0  # keeps the sign of a zero
    scale = draw(st.sampled_from([1.0, 2.0**-520, 2.0**57]))
    offset = draw(st.sampled_from([0.0, 1e6 + 0.1, 2.0**24 + 1]))
    patches, q = scale * patches, scale * q
    if offset:  # adding 0.0 would turn -0.0 into 0.0
        patches, q = patches + offset, q + offset
    m = draw(st.integers(1, len(patches)))
    k = draw(st.integers(1, m))
    tau = draw(st.sampled_from([0.0, 1 / 400, 1.0]))
    return Database(patches=patches, patch_size=2), q, m, k, tau


@st.composite
def _integer_cases(draw):
    """(db, q, pilot, m, k, tau) on small integers, many rows repeated.

    Every product and sum of the search is exact in float64, with or
    without the offset, so its distances are cdist's bit for bit.
    """
    d = 4
    vector = st.lists(st.integers(-4, 4).map(float), min_size=d, max_size=d)
    base = draw(st.lists(vector, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=24))
    offset = draw(st.sampled_from([0.0, 1000.0]))
    patches = np.array([base[i] for i in picks]) + offset
    q, pilot = np.array(draw(vector)) + offset, np.array(draw(vector)) + offset
    m = draw(st.integers(1, len(patches)))
    k = draw(st.integers(1, m))
    tau = draw(st.sampled_from([0.0, 1 / 3, 1.0]))
    return Database(patches=patches, patch_size=2), q, pilot, m, k, tau


def _pool_case(rows, q, m, k, tau):
    db = Database(patches=np.array(rows, dtype=float), patch_size=2)
    return db, np.array(q, dtype=float), m, k, tau


_A, _B, _C = [0.0, 0, 0, 0], [10.0, 0, 0, 0], [0.0, 20, 0, 0]
# Each case and the pool it must hold: its distinct rows, in rank order, and
# the copies of each.
_POOL_CASES = {
    # Copies of three rows.
    "copies": (_pool_case([_A, _B, _A, _C, _A, _B, _A, _C, _A], [1, 1, 0, 0],
                          9, 6, 1 / 400), ([0, 1, 3], [5, 2, 2])),
    # One row, signed zeros included: every copy ties, under index 0.
    "all_zero": (_pool_case([[0.0, -0.0, 0, 0], [-0.0, 0, 0, 0]] * 3,
                            [1, 1, 1, 1], 6, 3, 1.0), ([0], [6])),
    # Query distances one ulp apart.
    "near_tie": (_pool_case([[1, 0, 0, 0], [0, 1 + 2.0**-52, 0, 0]],
                            [0, 0, 0, 0], 2, 1, 1 / 400), ([0, 1], [1, 1])),
    # Distinct rows at equal distance from q are not copies; counted as
    # one, row 1 would take row 0's larger sum and lose to row 2.
    "equidistant": (_pool_case([[0, 1, 0, 0], [1, 0, 0, 0], [1.5, 0, 0, 0]],
                               [0, 0, 0, 0], 3, 2, 1.0), ([0, 1, 2], [1, 1, 1])),
    # The same, far from the origin.
    "equidistant_large": (_pool_case(2.0**60 * np.eye(4)[:3], [0, 0, 0, 0],
                                     3, 2, 1 / 400), ([0, 1, 2], [1, 1, 1])),
    # Copies of two rows tied with a third: the pool cut takes row 0's
    # copies first, as the three rows rank by their lowest indices.
    "cut_in_a_tie": (_pool_case([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0],
                                 [0, 0, 5, 0]], [0, 0, 0, 0], 2, 1, 1.0),
                     ([0], [2])),
}


class TestCrossSimilarityRefinement:
    @settings(max_examples=400, deadline=None)
    @given(_pool_cases())
    @example(_POOL_CASES["near_tie"][0])
    @example(_POOL_CASES["equidistant"][0])
    @example(_POOL_CASES["equidistant_large"][0])
    def test_ranks_like_the_cdist_reference_on_every_pool(self, case):
        db, q, m, k, tau = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            selected = refine_cross_similarity(db, q, m, k, tau)
        tol = _gram_tol(db, q, m, tau)
        _assert_selects_like_cdist(db, q, m, k, tau, selected, tol)
        # Where distinct rows lie more than tol apart in query distance and
        # in score, rounding cannot reorder them: the selection is cdist's.
        expected, pool, scores = _cross_similarity_with_cdist(db, q, m, k, tau)
        c = cdist(q[None, :], db.patches)[0]
        if (_apart(c, db.patches, tol)
                and _apart(scores, db.patches[pool], tol)):
            np.testing.assert_array_equal(selected, expected)

    @settings(max_examples=300, deadline=None)
    @given(_integer_cases())
    @example(_POOL_CASES["equidistant"][0][:2] + (np.zeros(4), 3, 2, 1.0))
    def test_integer_rows_select_as_cdist_does(self, case):
        db, q, pilot, m, k, tau = case
        heads = _lowest_identical(db.patches)
        c = cdist(q[None, :], db.patches)[0]
        pool = _by_copies(heads, c)[:m]
        np.testing.assert_array_equal(knn(db, q, k), heads[pool[:k]])
        e = cdist(pilot[None, :], db.patches[pool])[0]
        expected = heads[pool[_by_copies(heads[pool], c[pool] + tau * e)[:k]]]
        np.testing.assert_array_equal(refine_first_pass(db, q, pilot, m, k, tau),
                                      expected)
        # The pool sums add the same exact distances in another order.
        _, _, scores = _cross_similarity_with_cdist(db, q, m, k, tau)
        _assert_selects_like_cdist(db, q, m, k, tau,
                                   refine_cross_similarity(db, q, m, k, tau),
                                   2.0**-40 * scores.max())

    @pytest.mark.parametrize("name", _POOL_CASES)
    def test_each_case_pools_distinct_rows_and_scores_once(self, monkeypatch,
                                                           name):
        (db, q, m, k, tau), (rows, copies) = _POOL_CASES[name]
        expected, _, _ = _cross_similarity_with_cdist(db, q, m, k, tau)
        calls, scores = [], database.cross_similarity_scores
        monkeypatch.setattr(database, "cross_similarity_scores",
                            lambda *args: calls.append(args) or scores(*args))
        np.testing.assert_array_equal(refine_cross_similarity(db, q, m, k, tau),
                                      expected)
        pool, _, taken = database._candidate_pool(db, q, m, k)
        np.testing.assert_array_equal(pool, rows)
        np.testing.assert_array_equal(taken, copies)
        assert len(calls) == 1

    @settings(max_examples=300, deadline=None)
    @given(_pool_cases())
    @example(_POOL_CASES["equidistant"][0])
    @example(_POOL_CASES["cut_in_a_tie"][0])
    def test_pool_holds_the_first_m_copies_by_distinct_row(self, case):
        # The reference: every row ranked by the database's own distances,
        # ties broken by lowest identical index, then counted by value.
        db, q, m, k, _ = case
        pool, c, copies = database._candidate_pool(db, q, m, k)
        dists = database._query_distances(db, q)
        heads = _lowest_identical(db.patches)
        first = heads[_by_copies(heads, dists)[:m]]
        rows, at = np.unique(first, return_index=True)
        np.testing.assert_array_equal(pool, rows[np.argsort(at)])
        np.testing.assert_array_equal(copies, [np.sum(first == i) for i in pool])
        np.testing.assert_array_equal(c, dists[pool])

    @pytest.mark.parametrize("bad", [1e300, np.inf, np.nan])
    def test_huge_or_non_finite_values_raise_without_warnings(self, rng, bad):
        # A squared norm of 2**1020 or more could overflow a distance.
        db = _random_db(rng, n=30)
        q = db.patches[7].copy()
        bad_q, rows = q.copy(), db.patches.copy()
        bad_q[1] = rows[4, 1] = bad
        searches = [lambda db, v: knn(db, v, 5),
                    lambda db, v: refine_first_pass(db, v, q, 30, 5, 0.5),
                    lambda db, v: refine_first_pass(db, q, v, 30, 5, 0.5),
                    lambda db, v: refine_cross_similarity(db, v, 30, 5, 0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for search in searches:
                with pytest.raises(ValueError, match="finite"):
                    search(Database(rows, 4), q)
                with pytest.raises(ValueError, match="finite"):
                    search(db, bad_q)

    def test_pool_sums_match_cdist(self, rng):
        # Rows along (3, 4, 0, ...): every pair distance is an integer, so
        # the sums weighted by copies are exact and equal cdist's over every
        # copy bit for bit. Rows s and -s are equidistant from 0 but distinct.
        steps = rng.integers(-20, 21, 200).astype(float)
        patches = np.zeros((200, 64))
        patches[:, 0], patches[:, 1] = 3 * steps, 4 * steps
        db = Database(patches, 8)
        pool, _, copies = database._candidate_pool(db, np.zeros(64), 200, 1)
        assert copies.sum() == 200 and len(pool) == len(np.unique(steps))
        every = patches[np.repeat(pool, copies)]
        np.testing.assert_array_equal(database._pool_sums(db, pool, copies),
                                      cdist(patches[pool], every).sum(axis=1))
        # On other integer rows the distances are cdist's, summed in
        # another order.
        db = Database(np.round(100.0 * rng.standard_normal((200, 64))), 8)
        pool, _, copies = database._candidate_pool(db, rng.standard_normal(64),
                                                   200, 1)
        rows = db.patches[pool]
        np.testing.assert_allclose(database._pool_sums(db, pool, copies),
                                   cdist(rows, rows).sum(axis=1), rtol=2.0**-44)

    def test_matches_cdist_reference_with_score_ties(self, rng):
        # Every row appears about four times, so duplicates tie on both the
        # query distance and the column sum.
        base = np.round(10.0 * rng.standard_normal((12, 16)))
        db = Database(patches=base[rng.integers(0, 12, 48)], patch_size=4)
        for tau in (0.0, 0.05, 1.0):
            for _ in range(5):
                q = np.round(10.0 * rng.standard_normal(16))
                expected, _, scores = _cross_similarity_with_cdist(db, q, 30, 9,
                                                                   tau)
                assert len(np.unique(scores)) < len(scores)
                np.testing.assert_array_equal(
                    refine_cross_similarity(db, q, 30, 9, tau), expected
                )

    def test_tau_zero_equals_knn(self, rng):
        db = _random_db(rng, n=60)
        q = 10.0 * rng.standard_normal(db.patches.shape[1])
        np.testing.assert_array_equal(
            refine_cross_similarity(db, q, 30, 8, 0.0), knn(db, q, 8)
        )

    def test_worked_score_example(self):
        # Column sums of B dominate the first candidate, so it is skipped.
        c = np.array([1.0, 2.0, 3.0])
        B = np.array([[0.0, 50.0, 50.0], [50.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        scores = cross_similarity_scores(c, B.sum(axis=0), 1.0)
        np.testing.assert_array_equal(scores, [101.0, 52.0, 53.0])
        np.testing.assert_array_equal(k_smallest(scores, 2), [1, 2])

    def test_matches_subset_enumeration(self, rng):
        # The linear objective evaluated on every k-subset of a small pool
        # is minimized by the k smallest per-candidate scores.
        db = _random_db(rng, n=12, d=16)
        q = 10.0 * rng.standard_normal(16)
        m, k, tau = 10, 3, 0.05
        selected = refine_cross_similarity(db, q, m, k, tau)

        dists = np.linalg.norm(db.patches - q, axis=1)
        pool = np.argsort(dists, kind="stable")[:m]
        c = dists[pool]
        B = np.linalg.norm(
            db.patches[pool][:, None, :] - db.patches[pool][None, :, :], axis=2
        )
        col_sums = B.sum(axis=0)
        best_value, best_subset = np.inf, None
        for subset in combinations(range(m), k):
            value = sum(c[j] + tau * col_sums[j] for j in subset)
            if value < best_value - 1e-12:
                best_value, best_subset = value, subset
        assert set(selected) == set(pool[list(best_subset)])

    def test_k_above_pool_rejected(self, rng):
        db = _random_db(rng, n=30)
        q = np.zeros(db.patches.shape[1])
        with pytest.raises(ValueError):
            refine_cross_similarity(db, q, 10, 11, 0.1)

    def test_pool_above_n_rejected(self, rng):
        db = _random_db(rng, n=30)
        q = np.zeros(db.patches.shape[1])
        with pytest.raises(ValueError):
            refine_cross_similarity(db, q, 31, 5, 0.1)


@pytest.mark.parametrize("tau", [np.nan, -1.0, np.inf])
def test_refinements_reject_a_bad_tau(rng, tau):
    # An infinite tau scores every candidate inf (or NaN) and would return
    # the pool's lowest database indices instead of its nearest rows.
    db = _random_db(rng, n=30)
    q = db.patches[3]
    with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
        refine_first_pass(db, q, q, 20, 5, tau)
    with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
        refine_cross_similarity(db, q, 20, 5, tau)


class TestFirstPassRefinement:
    def test_tau_zero_equals_knn(self, rng):
        db = _random_db(rng, n=60)
        q = 10.0 * rng.standard_normal(db.patches.shape[1])
        pbar = 10.0 * rng.standard_normal(db.patches.shape[1])
        np.testing.assert_array_equal(
            refine_first_pass(db, q, pbar, 30, 8, 0.0), knn(db, q, 8)
        )

    def test_huge_tau_ranks_by_pilot_alone(self, rng):
        db = _random_db(rng, n=40)
        q = 10.0 * rng.standard_normal(db.patches.shape[1])
        pbar = 10.0 * rng.standard_normal(db.patches.shape[1])
        selected = refine_first_pass(db, q, pbar, 40, 6, 1e9)
        e = np.linalg.norm(db.patches - pbar, axis=1)
        np.testing.assert_array_equal(selected, np.argsort(e, kind="stable")[:6])

    def test_objective_minimal_over_enumerated_vertices(self, rng):
        db = _random_db(rng, n=12, d=16)
        q = 10.0 * rng.standard_normal(16)
        pbar = q + rng.standard_normal(16)
        m, k, tau = 12, 4, 0.7
        selected = refine_first_pass(db, q, pbar, m, k, tau)

        dists = np.linalg.norm(db.patches - q, axis=1)
        pool = np.argsort(dists, kind="stable")[:m]
        scores = dists[pool] + tau * np.linalg.norm(db.patches[pool] - pbar, axis=1)
        selected_value = sum(scores[np.where(pool == j)[0][0]] for j in selected)
        for subset in combinations(range(m), k):
            assert selected_value <= sum(scores[j] for j in subset) + 1e-12

    def test_score_ties_break_by_database_index(self):
        # Three distinct rows, equally far apart, tie on both distances and
        # on their pool sums; one distant decoy ranks last. The two winners
        # must be the lowest-index of the three. Three zero patches are one
        # row, taken twice.
        far = np.full((1, 4), 100.0)
        q, pbar = np.full(4, 1.0), np.full(4, 2.0)
        for rows, expected in ((3.0 * np.eye(4)[[2, 0, 1]], [1, 2]),
                               (np.zeros((3, 4)), [1, 1])):
            db = Database(patches=np.vstack([far, rows]), patch_size=2)
            np.testing.assert_array_equal(
                refine_first_pass(db, q, pbar, 4, 2, 0.5), expected)
            np.testing.assert_array_equal(
                refine_cross_similarity(db, q, 4, 2, 0.5), expected)

    def test_good_pilot_beats_plain_knn(self, rng):
        # Candidates split into close-to-truth and decoys; with a noisy query
        # the pilot ranking recovers the close group.
        d, sigma = 16, 4.0
        truth = 10.0 * rng.standard_normal(d)
        close = truth + 0.5 * rng.standard_normal((30, d))
        decoys = truth + 4.0 * rng.standard_normal((30, d))
        patches = np.vstack([close, decoys])
        db = Database(patches=patches, patch_size=4)
        q = truth + sigma * rng.standard_normal(d)
        pilot = truth + 0.3 * rng.standard_normal(d)
        ki = knn(db, q, 10)
        fi = refine_first_pass(db, q, pilot, 60, 10, 1.0)
        dist = lambda idx: np.linalg.norm(db.patches[idx] - truth, axis=1).mean()
        assert dist(fi) <= dist(ki)


class TestComputeWeights:
    def test_equidistant_patches_uniform(self):
        q = np.zeros(4)
        selected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], float)
        np.testing.assert_allclose(compute_weights(q, selected, 2.0), 1 / 3)

    def test_huge_bandwidth_uniform(self, rng):
        q = rng.standard_normal(8)
        selected = rng.standard_normal((5, 8))
        w = compute_weights(q, selected, 1e9)
        np.testing.assert_allclose(w, 0.2, atol=1e-6)

    def test_tiny_bandwidth_concentrates_on_exact_match(self, rng):
        q = rng.standard_normal(8)
        far = q + 100.0
        w = compute_weights(q, np.vstack([q, far]), 0.5)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)

    def test_normalized_and_bounded(self, rng):
        for _ in range(20):
            q = rng.standard_normal(8)
            selected = rng.standard_normal((7, 8)) * rng.uniform(0.1, 10)
            w = compute_weights(q, selected, rng.uniform(0.5, 20))
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all((w >= 0) & (w <= 1))

    def test_monotone_in_distance(self, rng):
        q = np.zeros(4)
        selected = np.array([[1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]], float)
        w = compute_weights(q, selected, 2.0)
        assert w[0] > w[1] > w[2]

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            compute_weights(np.zeros(4), np.zeros((2, 4)), 0.0)

    def test_nan_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth h must be > 0, got nan"):
            compute_weights(np.zeros(4), np.eye(4)[:2], float("nan"))

    def test_infinite_bandwidth_gives_uniform_weights(self, rng):
        selected = rng.standard_normal((5, 8))
        w = compute_weights(np.zeros(8), selected, float("inf"))
        np.testing.assert_array_equal(w, 0.2)


class TestDatabaseQuality:
    def test_zero_for_self_database(self, rng):
        img = rng.integers(0, 256, (16, 16)).astype(float)
        db = build_database([img], 8, 1)
        assert database_quality(db, img) == 0.0

    def test_constant_image_against_zero_patch(self):
        db = Database(patches=np.zeros((1, 64)), patch_size=8)
        img = np.full((12, 12), 7.0)
        assert database_quality(db, img) == pytest.approx(7.0, rel=1e-12)

    def test_matches_double_loop_brute_force(self, rng):
        img = rng.random((14, 14)) * 255
        db_img = rng.random((13, 15)) * 255
        db = build_database([db_img], 4, 2)
        measured = database_quality(db, img)

        side = 4
        dists = []
        for r in range(img.shape[0] - side + 1):
            for c in range(img.shape[1] - side + 1):
                p = img[r : r + side, c : c + side].ravel()
                best = min(np.linalg.norm(p - row) for row in db.patches)
                dists.append(best / side)  # sqrt(d) = 4
        assert measured == pytest.approx(np.mean(dists), rel=1e-12)

    def test_offset_rows_match_brute_force_cdist(self, rng):
        # Rows 1e8 from the origin: a Gram expansion loses the differences
        # that decide the nearest row.
        for _ in range(10):
            img = 1e8 + rng.random((6, 6))
            db = Database(patches=1e8 + rng.random((40, 16)), patch_size=4)
            dense = np.array([img[r : r + 4, c : c + 4].ravel()
                              for r in range(3) for c in range(3)])
            expected = cdist(dense, db.patches).min(axis=1).mean() / 4
            assert database_quality(db, img) == pytest.approx(expected, rel=1e-12)

    def test_never_increases_when_patches_added(self, rng):
        img = rng.random((12, 12)) * 255
        base = 255 * rng.random((20, 16))
        extra = 255 * rng.random((10, 16))
        small = Database(patches=base, patch_size=4)
        big = Database(patches=np.vstack([base, extra]), patch_size=4)
        assert database_quality(big, img) <= database_quality(small, img)


class TestParameterSchedules:
    """The sigma schedules that set the selection tau and the weight bandwidth."""

    def test_first_pass_tau_switchover(self):
        for sigma, tau in ((10.0, 0.01), (29.9, 0.01), (30.0, 1.0), (80.0, 1.0)):
            assert DenoiseConfig(sigma=sigma).resolved_tau("first_pass", 200) == tau

    def test_cross_similarity_tau_switchover(self):
        # 1/(200 m) below sigma 30 and 1/(2 m) from it on, m the pool size.
        for sigma, pool, tau in ((10.0, 200, 1.0 / 40000), (30.0, 200, 1.0 / 400),
                                 (50.0, 100, 1.0 / 200)):
            cfg = DenoiseConfig(sigma=sigma)
            assert cfg.resolved_tau("cross_similarity", pool) == tau

    def test_bandwidth_tracks_sigma(self):
        assert DenoiseConfig(sigma=35.0).resolved_bandwidth() == 35.0
        with pytest.raises(ValueError):
            DenoiseConfig(sigma=0.0)
