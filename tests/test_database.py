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
    half_norms,
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
        patch = np.ones(4)
        patches = np.vstack([patch, patch * 2, patch, patch])
        db = Database(patches=patches, patch_size=2)
        np.testing.assert_array_equal(knn(db, patch, 3), [0, 2, 3])

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
# there, and 2**61 puts R + ‖q‖ past the guard, so the query is not screened.
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


class TestScreen:
    @settings(max_examples=200, deadline=None)
    @given(_screen_cases())
    @example(_FLOAT32_REORDERS)
    @example(_SUBNORMAL_SCORES)
    def test_candidates_reproduce_every_search(self, case):
        db, q, pilot = case
        past_guard = np.abs(np.r_[db.patches.ravel(), q]).max() > _GUARD
        for m in range(1, len(db) + 2):
            (rows,) = screen(screen_index(db, m), [q])
            # None: the whole database
            assert (rows is None) == past_guard
            if rows is None:
                continue
            if m >= len(db):  # no row can be cut, and every row is kept
                np.testing.assert_array_equal(rows, np.arange(len(db)))
            if m > len(db):
                continue
            assert np.all(np.diff(rows) > 0)
            sub = Database(patches=db.patches[rows], patch_size=2)
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
        # The reference is the float64 search distance over the whole
        # database; near-ties there must not push one of its first m out.
        db, q, _ = case
        distances = database._query_distances(db, q)
        for m in range(1, len(db)):
            (rows,) = screen(screen_index(db, m), [q])
            if rows is not None:
                assert set(k_smallest(distances, m)) <= set(rows)

    @settings(max_examples=200, deadline=None)
    @given(_screen_cases())
    def test_duplicate_cut_is_m_identical_rows_below(self, case):
        db, _, _ = case
        P = db.patches
        below = np.array([np.sum(np.all(P[:i] == P[i], axis=1))
                          for i in range(len(db))])
        for m in range(1, len(db) + 1):
            norms = half_norms(db, m)
            np.testing.assert_array_equal(np.isinf(norms), below >= m)
            kept = np.isfinite(norms)
            np.testing.assert_array_equal(
                norms[kept], 0.5 * np.vecdot(P[kept], P[kept]))

    def test_duplicate_cut_keeps_the_first_m_copies(self, rng):
        row = np.round(10.0 * rng.standard_normal(16))
        row[0] = 0.0
        twin = row.copy()
        twin[0] = -0.0  # equal values, different bytes
        other = row + 1.0
        P = np.array([other, row, twin, other, row, twin, row, other])
        norms = half_norms(Database(patches=P, patch_size=4), 2)
        # Copies of `row` sit at 1, 2, 4, 5, 6; of `other` at 0, 3, 7.
        np.testing.assert_array_equal(np.flatnonzero(np.isinf(norms)), [4, 5, 6, 7])

    def test_screen_keeps_about_m_rows(self, rng):
        db = _random_db(rng, n=2000)
        queries = 10.0 * rng.standard_normal((4, db.patches.shape[1]))
        for rows in screen(screen_index(db, 50), queries):
            assert 50 <= len(rows) < 60

    def test_huge_magnitudes_search_the_whole_database(self, rng):
        # Nothing past the guard is cast to float32, so nothing overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = 1e150 * rng.integers(-3, 4, (30, 16)).astype(float)
            db = Database(patches=huge, patch_size=4)
            index = screen_index(db, 5)
            assert index.table is None
            assert screen(index, db.patches[:2]) == [None, None]
            # Within the guard, the database is screened, and only the query
            # past it searches the whole database.
            small = _random_db(rng, n=30)
            index = screen_index(small, 5)
            far, near = screen(index, [huge[0], small.patches[3]])
            assert far is None and screen(index, huge[:1]) == [None]
            sub = Database(patches=small.patches[near], patch_size=4)
            np.testing.assert_array_equal(near[knn(sub, small.patches[3], 5)],
                                          knn(small, small.patches[3], 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_rows_rejected(self, rng, bad):
        patches = rng.standard_normal((50, 16))
        patches[7, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            half_norms(Database(patches=patches, patch_size=4), 10)

    @pytest.mark.parametrize("m", [0, -3])
    def test_m_below_one_rejected(self, rng, m):
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            screen_index(_random_db(rng, n=20), m)

    def test_queries_must_match_the_table(self, rng):
        index = screen_index(_random_db(rng, n=100), 10)
        assert screen(index, []) == [] == screen(index, np.empty((0, 16)))
        for bad in (np.zeros(16), np.zeros((2, 9)), np.zeros((2, 16, 1))):
            with pytest.raises(ValueError) as err:
                screen(index, bad)
            assert str(bad.shape) in str(err.value) and "(n, 16)" in str(err.value)

    def test_a_block_holds_its_scores_once(self, rng):
        db = _random_db(rng, n=20_000, d=64)
        index = screen_index(db, 200)
        queries = 10.0 * rng.standard_normal((16, 64))
        screen(index, queries)  # warm-up
        tracemalloc.start()
        try:
            screen(index, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scores = 16 * index.table.shape[1] * 4  # the block's float32 scores
        assert peak <= 1.25 * scores


class TestKeptScreen:
    def test_kept_for_the_last_m_only(self, rng, screen_builds):
        db = _random_db(rng, n=200)
        first = database._screen_of(db, 10)
        assert database._screen_of(db, 10) is first and screen_builds == [10]
        other = database._screen_of(db, 20)
        assert other is not first and other.m == 20
        assert database._screen_of(db, 10) is not first
        assert screen_builds == [10, 20, 10]

    def test_matches_the_uncached_builder(self, rng):
        db = _random_db(rng, n=200)
        kept = database._screen_of(db, 10)
        fresh = screen_index(db, 10)
        assert fresh is not screen_index(db, 10)
        for name in ("rows", "table", "norms"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(fresh, name))
            with pytest.raises(ValueError, match="read-only"):
                getattr(fresh, name)[0] = 0
        assert (kept.radius, kept.m) == (fresh.radius, fresh.m)

    def test_uncached_builder_keeps_no_index(self, rng):
        db = _random_db(rng, n=200)
        screen_index(db, 10)
        assert db._screen is None

    def test_slot_is_private_state(self, rng):
        db = _random_db(rng, n=200)
        twin = Database(patches=db.patches, patch_size=4)
        database._screen_of(db, 10)
        assert repr(db) == repr(twin)
        fresh = dataclasses.replace(db)
        assert fresh._screen is None and fresh.patches is db.patches
        assert not {"norms", "twins"} & set(vars(fresh))
        with pytest.raises(TypeError):
            Database(db.patches, 4, None)

    def test_databases_compare_by_identity(self):
        # The generated field comparison put the arrays in a tuple, whose ==
        # raised on equal but distinct arrays.
        a = np.zeros((3, 4))
        db = Database(a, 2)
        assert db == db and db != Database(a.copy(), 2) and db != Database(a, 2)
        assert len({db, db, Database(a, 2)}) == 2

    def test_take_hands_over_norms_and_twin_ids(self, rng):
        patches = np.round(3.0 * rng.standard_normal((200, 16)))
        patches[150:] = patches[:50]
        db = Database(patches=patches, patch_size=4)
        rows = np.array([5, 3, 199, 155, 149])
        sub = db.take(rows)
        np.testing.assert_array_equal(sub.patches, db.patches[rows])
        assert {"norms", "twins"} <= set(vars(sub))
        np.testing.assert_array_equal(sub.norms, np.vecdot(sub.patches, sub.patches))
        # The ids of the database taken from: rows 5 and 155 are twins.
        np.testing.assert_array_equal(sub.twins, [5, 3, 49, 5, 149])
        for array in (sub.patches, sub.norms, sub.twins):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_concurrent_first_searches_build_once(self, rng, screen_builds):
        db = _random_db(rng, n=2000)
        barrier = threading.Barrier(8)

        def first_search():
            barrier.wait(timeout=10)
            return database._screen_of(db, 10)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(first_search) for _ in range(8)]
                indexes = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert screen_builds == [10]
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
        database._screen_of(db, 10)
        path = tmp_path / "patches.cache"
        save_database_cache(db, path)
        assert load_database_cache(path).patches.tobytes() == db.patches.tobytes()

    def test_database_quality_builds_the_index_once(self, rng, screen_builds):
        img = rng.random((12, 12)) * 255
        db = _random_db(rng, n=200)
        values = [database_quality(db, img) for _ in range(2)]
        assert values[0] == values[1] == database_quality(
            Database(patches=db.patches.copy(), patch_size=4), img)
        assert screen_builds == [1, 1]  # the database, then its fresh copy


# Few values, so rows repeat; signed zeros must count as equal, and NaN
# equals nothing.
_TWIN_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan])


@st.composite
def _twin_cases(draw):
    """(rows, pool): rows drawn from a few distinct rows, and the rows in
    another order."""
    vector = st.lists(_TWIN_VALUES, min_size=4, max_size=4)
    base = draw(st.lists(vector, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=30))
    pool = np.array(draw(st.permutations(range(len(picks)))))
    return np.array([base[i] for i in picks]), pool


def _fold_by_value(rows):
    """Each distinct row's first position and each row's group, numbered in
    order of first appearance, from a dict keyed by the row's values."""
    first = {}
    group = np.array([first.setdefault(tuple(row + 0.0), len(first)) for row in rows])
    return np.array([list(group).index(g) for g in range(len(first))]), group


class TestTwins:
    @settings(max_examples=300, deadline=None)
    @given(_twin_cases())
    @example((np.array([[0.0, -0.0, 1, 1], [np.nan, 1, 1, 1], [-0.0, 0.0, 1, 1],
                        [np.nan, 1, 1, 1]]), np.array([2, 0, 3, 1])))
    @example((np.array([[1.0, -0.0, 0, 2], [1.0, 0.0, -0.0, 2],
                        [-1.0, 0, 0, 2], [1.0, 0.0, 0.0, 2]]), np.arange(4)))
    def test_ids_name_the_lowest_identical_row(self, case):
        rows, pool = case
        # NaN equals no row, itself included: each such row is its own.
        ids = database._twin_ids(rows)
        equal = np.all(rows[:, None] == rows[None, :], axis=2)
        np.testing.assert_array_equal(ids[:, None] == ids[None, :],
                                      equal | np.eye(len(rows), dtype=bool))
        lowest = [np.flatnonzero(row)[0] if row.any() else i
                  for i, row in enumerate(equal)]
        np.testing.assert_array_equal(ids, lowest)
        db = Database(patches=rows, patch_size=2)
        if np.isnan(rows).any():
            with pytest.raises(ValueError, match="finite"):
                db.twins
            return
        np.testing.assert_array_equal(db.twins, ids)
        heads, group = database._twin_groups(db.twins[pool])
        expected_heads, expected_group = _fold_by_value(rows[pool])
        np.testing.assert_array_equal(heads, expected_heads)
        np.testing.assert_array_equal(group, expected_group)

    def test_rows_are_never_all_copied(self, rng):
        # Without a -0.0 the rows are sorted through a byte view and compared
        # a chunk at a time: the peak is a few index arrays and a chunk of
        # rows, not the rows' 10 MB.
        rows = np.round(rng.standard_normal((20_000, 64)))
        rows[::3] = rows[1::3][: len(rows[::3])]  # twins to fold
        rows += 0.0
        tracemalloc.start()
        try:
            ids = database._twin_ids(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 4
        index = np.arange(len(rows))
        np.testing.assert_array_equal(ids, index - (index % 3 == 1))


def _cross_similarity_with_cdist(db, q, m, k, tau):
    # The pool-pair matrix from cdist, which computes every pair twice.
    dists = cdist(q[None, :], db.patches)[0]
    pool = np.argsort(dists, kind="stable")[:m]
    B = cdist(db.patches[pool], db.patches[pool])
    scores = cross_similarity_scores(dists[pool], B.sum(axis=0), tau)
    return pool[np.lexsort((pool, scores))[:k]], scores


def _assert_selects_like_cdist(db, q, m, k, tau, selected, tol):
    """selected ranks as the cdist reference does, except that candidates
    whose reference distances or scores lie within tol may come in either
    order; identical rows always come in index order."""
    c = cdist(q[None, :], db.patches)[0]
    pool, _ = database._candidate_pool(db, q, m, k)
    assert c[pool].max() <= np.sort(c)[m - 1] + tol
    scores = dict(zip(pool, cross_similarity_scores(
        c[pool], cdist(db.patches[pool], db.patches[pool]).sum(axis=0), tau)))
    chosen = [scores[i] for i in selected]
    assert len(set(selected)) == k and set(selected) <= set(pool)
    assert all(b >= a - tol for a, b in zip(chosen, chosen[1:]))
    left = [scores[i] for i in set(pool) - set(selected)]
    assert min(left, default=np.inf) >= chosen[-1] - tol
    order = list(selected)
    for i, j in combinations(range(len(db)), 2):
        if np.array_equal(db.patches[i], db.patches[j]):
            assert j not in pool or i in pool
            assert j not in order or order.index(i) < order.index(j)


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
# Each case and the group of each pool row (pool order) that it must fold to.
_FOLD_CASES = {
    # Twins fold into three rows.
    "twins": (_pool_case([_A, _B, _A, _C, _A, _B, _A, _C, _A], [1, 1, 0, 0],
                         9, 6, 1 / 400), [0, 0, 0, 0, 0, 1, 1, 2, 2]),
    # One row, signed zeros included: every score ties, ranked by index.
    "all_zero": (_pool_case([[0.0, -0.0, 0, 0], [-0.0, 0, 0, 0]] * 3,
                            [1, 1, 1, 1], 6, 3, 1.0), [0] * 6),
    # Query distances one ulp apart.
    "near_tie": (_pool_case([[1, 0, 0, 0], [0, 1 + 2.0**-52, 0, 0]],
                            [0, 0, 0, 0], 2, 1, 1 / 400), [0, 1]),
    # Distinct rows at equal distance from q are not twins; folded as
    # twins, row 1 would take row 0's larger sum and lose to row 2.
    "equidistant": (_pool_case([[0, 1, 0, 0], [1, 0, 0, 0], [1.5, 0, 0, 0]],
                               [0, 0, 0, 0], 3, 2, 1.0), [0, 1, 2]),
    # The same, far from the origin.
    "equidistant_large": (_pool_case(2.0**60 * np.eye(4)[:3], [0, 0, 0, 0],
                                     3, 2, 1 / 400), [0, 1, 2]),
}


class TestCrossSimilarityRefinement:
    @settings(max_examples=400, deadline=None)
    @given(_pool_cases())
    @example(_FOLD_CASES["near_tie"][0])
    @example(_FOLD_CASES["equidistant"][0])
    @example(_FOLD_CASES["equidistant_large"][0])
    def test_ranks_like_the_cdist_reference_on_every_pool(self, case):
        db, q, m, k, tau = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            selected = refine_cross_similarity(db, q, m, k, tau)
        tol = _gram_tol(db, q, m, tau)
        _assert_selects_like_cdist(db, q, m, k, tau, selected, tol)
        # Where distinct rows lie more than tol apart in query distance and
        # in score, rounding cannot reorder them: the selection is cdist's.
        expected, scores = _cross_similarity_with_cdist(db, q, m, k, tau)
        c = cdist(q[None, :], db.patches)[0]
        pool = np.argsort(c, kind="stable")[:m]
        if (_apart(c, db.patches, tol)
                and _apart(scores, db.patches[pool], tol)):
            np.testing.assert_array_equal(selected, expected)

    @settings(max_examples=300, deadline=None)
    @given(_integer_cases())
    @example(_FOLD_CASES["equidistant"][0][:2] + (np.zeros(4), 3, 2, 1.0))
    def test_integer_rows_select_as_cdist_does(self, case):
        db, q, pilot, m, k, tau = case
        c = cdist(q[None, :], db.patches)[0]
        np.testing.assert_array_equal(knn(db, q, k), np.argsort(c, kind="stable")[:k])
        pool = np.argsort(c, kind="stable")[:m]
        e = cdist(pilot[None, :], db.patches[pool])[0]
        expected = pool[np.lexsort((pool, c[pool] + tau * e))[:k]]
        np.testing.assert_array_equal(refine_first_pass(db, q, pilot, m, k, tau),
                                      expected)
        # The pool sums add the same exact distances in another order.
        _, scores = _cross_similarity_with_cdist(db, q, m, k, tau)
        _assert_selects_like_cdist(db, q, m, k, tau,
                                   refine_cross_similarity(db, q, m, k, tau),
                                   2.0**-40 * scores.max())

    @pytest.mark.parametrize("name", _FOLD_CASES)
    def test_each_case_folds_by_value_and_scores_once(self, monkeypatch, name):
        (db, q, m, k, tau), groups = _FOLD_CASES[name]
        expected, _ = _cross_similarity_with_cdist(db, q, m, k, tau)
        folds, calls = [], []
        fold, scores = database._twin_groups, database.cross_similarity_scores
        monkeypatch.setattr(database, "_twin_groups",
                            lambda ids: folds.append(fold(ids)) or folds[-1])
        monkeypatch.setattr(database, "cross_similarity_scores",
                            lambda *args: calls.append(args) or scores(*args))
        np.testing.assert_array_equal(refine_cross_similarity(db, q, m, k, tau),
                                      expected)
        ((heads, group),) = folds
        np.testing.assert_array_equal(group, groups)
        pool, _ = database._candidate_pool(db, q, m, k)
        np.testing.assert_array_equal(db.patches[pool[heads]][group], db.patches[pool])
        assert len(calls) == 1

    @settings(max_examples=300, deadline=None)
    @given(_pool_cases())
    @example(_FOLD_CASES["equidistant"][0])
    def test_fold_groups_identical_rows_in_order_of_appearance(self, case):
        db, q, m, k, _ = case
        pool, _ = database._candidate_pool(db, q, m, k)
        heads, group = database._twin_groups(db.twins[pool])
        expected_heads, expected_group = _fold_by_value(db.patches[pool])
        np.testing.assert_array_equal(heads, expected_heads)
        np.testing.assert_array_equal(group, expected_group)

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
        # the folded sums are exact and equal cdist's bit for bit. Rows s and
        # -s are equidistant from 0 but distinct, so the pool folds by value.
        steps = rng.integers(-20, 21, 200).astype(float)
        patches = np.zeros((200, 64))
        patches[:, 0], patches[:, 1] = 3 * steps, 4 * steps
        db = Database(patches, 8)
        pool, _ = database._candidate_pool(db, np.zeros(64), 200, 1)
        rows = patches[pool]
        np.testing.assert_array_equal(database._pool_sums(db, pool),
                                      cdist(rows, rows).sum(axis=1))
        # On other integer rows the distances are cdist's, summed in
        # another order.
        db = Database(np.round(100.0 * rng.standard_normal((200, 64))), 8)
        pool, _ = database._candidate_pool(db, rng.standard_normal(64), 200, 1)
        rows = db.patches[pool]
        np.testing.assert_allclose(database._pool_sums(db, pool),
                                   cdist(rows, rows).sum(axis=1), rtol=2.0**-44)

    def test_matches_cdist_reference_with_score_ties(self, rng):
        # Every row appears about four times, so duplicates tie on both the
        # query distance and the column sum.
        base = np.round(10.0 * rng.standard_normal((12, 16)))
        db = Database(patches=base[rng.integers(0, 12, 48)], patch_size=4)
        for tau in (0.0, 0.05, 1.0):
            for _ in range(5):
                q = np.round(10.0 * rng.standard_normal(16))
                expected, scores = _cross_similarity_with_cdist(db, q, 30, 9, tau)
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
        # Three zero patches tie on both distances; one distant decoy ranks
        # last. The two winners must be the lowest-index zero patches.
        zeros = np.zeros((1, 4))
        far = np.full((1, 4), 100.0)
        patches = np.vstack([far, zeros, zeros, zeros])
        db = Database(patches=patches, patch_size=2)
        q = np.full(4, 1.0)
        pbar = np.full(4, 2.0)
        np.testing.assert_array_equal(
            refine_first_pass(db, q, pbar, 4, 2, 0.5), [1, 2]
        )
        np.testing.assert_array_equal(
            refine_cross_similarity(db, q, 4, 2, 0.5), [1, 2]
        )

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
