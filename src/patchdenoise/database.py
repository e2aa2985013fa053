"""Targeted patch database: construction, search, and selection refinement.

The database is an in-memory (n, d) matrix of clean reference patches.
Queries are read-only; a built database is never mutated, and from its
first screened search on its rows are read-only. A database whose rows are
a view of another array (Database(patches=base[:], ...)) takes a private
copy of them at that search, so a later write through base cannot leave
the kept screen stale; build_database's own rows are never copied.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .imaging import as_image, extract_patches, plan_grid, read_pgm

__all__ = [
    "Database",
    "build_database",
    "load_database",
    "save_database_cache",
    "load_database_cache",
    "knn",
    "refine_cross_similarity",
    "refine_first_pass",
    "cross_similarity_scores",
    "first_pass_scores",
    "k_smallest",
    "half_norms",
    "ScreenIndex",
    "screen_index",
    "screen",
    "compute_weights",
    "database_quality",
]

_CACHE_MAGIC = b"TDBC\x01\n"


@dataclass(frozen=True)
class Database:
    """Clean reference patches.

    patches: (n_total, d) float64, one row per patch, d = patch_size**2.
    _screen: the screen index of the last m searched, kept by _screen_of.
    """

    patches: np.ndarray
    patch_size: int
    _screen: ScreenIndex | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        if self.patch_size < 1:
            raise ValueError(f"patch_size must be >= 1, got {self.patch_size}")
        if self.patches.ndim != 2 or len(self.patches) < 1:
            raise ValueError("database needs at least one patch")
        if self.patches.shape[1] != self.patch_size**2:
            raise ValueError(
                f"patch dimension {self.patches.shape[1]} != patch_size**2 "
                f"({self.patch_size}**2)"
            )

    def __len__(self) -> int:
        return len(self.patches)


def build_database(images, patch_size: int, stride: int) -> Database:
    """Collect all grid patches of all images, in deterministic order.

    Patches are ordered by image, then row-major grid order within each
    image (the same order as plan_grid).
    """
    images = [as_image(img) for img in images]
    if not images:
        raise ValueError("need at least one image to build a database")
    grids = [plan_grid(img.shape[1], img.shape[0], patch_size, stride)
             for img in images]
    # Filled in place, one image at a time, so the rows are held once.
    patches = np.empty((sum(map(len, grids)), patch_size**2))
    start = 0
    for img, locs in zip(images, grids):
        patches[start : start + len(locs)] = extract_patches(img, locs, patch_size)
        start += len(locs)
    return Database(patches=patches, patch_size=patch_size)


def load_database(directory, patch_size: int, stride: int) -> Database:
    """Build a database from every .pgm file in a directory (sorted names)."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.pgm"))
    if not paths:
        raise ValueError(f"no .pgm files found in {directory}")
    images = [read_pgm(path.read_bytes()) for path in paths]
    return build_database(images, patch_size, stride)


def save_database_cache(db: Database, path) -> None:
    """Write the flat binary cache: magic, patch_size, n_total, raw floats.

    The header and the patch buffer are written one after the other, so the
    payload is never copied into a bytes object.
    """
    patches = np.ascontiguousarray(db.patches, dtype="<f8")
    with open(path, "wb") as out:
        out.write(_CACHE_MAGIC + struct.pack("<IQ", db.patch_size, len(db)))
        out.write(patches.data)


def load_database_cache(path) -> Database:
    """Load a cache written by save_database_cache.

    Rejects a cache that is malformed or holds non-finite patch values. The
    payload length is checked against the file size first, then the
    payload is read straight into the one array the database keeps.
    """
    header_size = len(_CACHE_MAGIC) + struct.calcsize("<IQ")
    with open(path, "rb") as src:
        header = src.read(header_size)
        if not header.startswith(_CACHE_MAGIC):
            raise ValueError(f"{path}: not a patch database cache")
        if len(header) != header_size:
            raise ValueError(f"{path}: truncated cache header")
        patch_size, n_total = struct.unpack_from("<IQ", header, len(_CACHE_MAGIC))
        d = patch_size * patch_size
        expected = n_total * d * 8
        size = os.fstat(src.fileno()).st_size - header_size
        if size != expected:
            raise ValueError(f"{path}: payload length {size} != expected {expected}")
        patches = np.empty((n_total, d), dtype="<f8")
        if src.readinto(patches) != expected:
            raise ValueError(f"{path}: cache changed while it was read")
    if not np.all(np.isfinite(patches)):
        raise ValueError(f"{path}: cache holds non-finite patch values")
    return Database(patches=patches, patch_size=patch_size)


# ---------------------------------------------------------------------------
# Search and selection refinement
# ---------------------------------------------------------------------------


def _query_distances(db: Database, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (db.patches.shape[1],):
        raise ValueError(
            f"query dimension {q.shape} does not match patches "
            f"({db.patches.shape[1]},)"
        )
    return cdist(q[None, :], db.patches)[0]


def k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest values; ties broken by lower index."""
    return np.argsort(values, kind="stable")[:k]


def knn(db: Database, q, k: int) -> np.ndarray:
    """The k nearest database patches to q by Euclidean distance.

    Returns database indices sorted ascending by distance, ties broken by
    lower index.
    """
    if not 1 <= k <= len(db):
        raise ValueError(f"k must be in [1, {len(db)}], got {k}")
    return k_smallest(_query_distances(db, q), k)


def cross_similarity_scores(c: np.ndarray, B: np.ndarray, tau: float) -> np.ndarray:
    """Linear selection objective: query distance plus tau * column sums of B."""
    B = np.asarray(B, dtype=np.float64)
    return np.asarray(c, dtype=np.float64) + tau * B.sum(axis=0)


def first_pass_scores(c: np.ndarray, e: np.ndarray, tau: float) -> np.ndarray:
    """Linear selection objective: query distance plus tau * pilot distance."""
    return np.asarray(c, dtype=np.float64) + tau * np.asarray(e, dtype=np.float64)


def _check_tau(tau: float) -> None:
    if not 0 <= tau < np.inf:  # NaN fails too
        raise ValueError(f"tau must be >= 0 and finite, got {tau}")


def _candidate_pool(db: Database, q, pool_size: int, k: int):
    if k > pool_size:
        raise ValueError(f"k ({k}) must not exceed pool_size ({pool_size})")
    if pool_size > len(db):
        raise ValueError(f"pool_size ({pool_size}) exceeds database size ({len(db)})")
    dists = _query_distances(db, q)
    pool = k_smallest(dists, pool_size)
    return pool, dists[pool]


def refine_cross_similarity(
    db: Database, q, pool_size: int, k: int, tau: float
) -> np.ndarray:
    """Select k patches penalizing candidates far from the rest of the pool.

    Restricts to the pool_size nearest candidates, scores each by its query
    distance plus tau times the sum of its distances to every pool member,
    and keeps the k smallest scores. tau = 0 reduces to plain knn; a tau
    that is NaN, negative or infinite raises ValueError.

    The selection, in order, is always the one the pdist pair matrix
    gives. Usually it comes without that matrix: _certified_sums folds
    identical pool rows into one, takes the column sums from one GEMM, and
    proves with a rounding bound that they rank the pool as pdist's would.
    When it cannot (near-tied scores, distinct rows equidistant from q,
    huge or non-finite values), the pair matrix is computed with pdist.
    """
    _check_tau(tau)
    pool, c = _candidate_pool(db, q, pool_size, k)
    rows = db.patches[pool]
    B = _certified_sums(rows, c, tau, k)
    if B is None:
        # pdist computes each pair once; (a-b)**2 == (b-a)**2 exactly, so for
        # finite rows B is bit-identical to cdist(rows, rows).
        B = squareform(pdist(rows))
    scores = cross_similarity_scores(c, B, tau)
    # Score ties break by lower database index, not by pool position.
    return pool[np.lexsort((pool, scores))[:k]]


def _certified_sums(rows, c, tau: float, k: int):
    """The pool's column sums from one GEMM as a (1, m) array, or None.

    rows are the m pool rows and c their query distances, ascending, as
    _candidate_pool returns them. A result B guarantees that the first k of
    lexsort((pool, cross_similarity_scores(c, B, tau))) are exactly the
    first k that squareform(pdist(rows)) gives, in order. None means that
    could not be shown; it is returned when a value of rows or c, or tau,
    is NaN or not below _GUARD, or tau < 0, so that nothing below overflows
    or warns.

    Fold. Identical rows have bitwise-equal c and identical pdist rows and
    columns, so their exact scores are equal and both paths break their tie
    by index. Each row in a run of equal c is checked value by value
    against the row before it (None if a run holds distinct rows), and the
    runs are folded into g distinct rows x_i with multiplicities w_i.

    Score. G = x xᵀ (one GEMM), n = diag(G), D̂ = √max(n_i + n_j − 2G_ij, 0),
    Σ̂ = w D̂ and ŝ = c + τΣ̂, which cross_similarity_scores recomputes
    bit for bit from B = Σ̂ per row. The exact path's score is
    s = c + τS, with S the sequential column sums of pdist's B.

    Bound. Let u = 2**-53 and η = 2**-1022: one float64 operation, with
    gradual underflow, flush-to-zero or denormals-are-zero, errs by at most
    u·|exact| + η. Let a_i = ‖x_i‖ and D_ij = ‖x_i − x_j‖ (exact), N = max n,
    and m, d <= 2**26 (a larger pool or patch does not fit in memory).
      - The GEMM, in any summation order, with or without FMA, errs by at
        most γ_d·a_i·a_j + 2dη(1 + γ_d), γ_d = du/(1 − du); n_i = G_ii, so
        D̂_ii = 0 exactly. With the two additions and a_i² <= (n_i + 4dη)/(1
        − γ_d), the argument of the clamp errs from D_ij² by at most
        (2d + 6)·u·(n_i + n_j) + 20dη, and δ_j = (2d + 8)·u·(n_j + N) + 64dη
        bounds that for every i, its own rounding and a flushed √ input.
      - The clamp only moves it toward D² >= 0; if |A − D²| <= δ then
        |√A − D| <= δ/max(√A, √δ), and √ rounds by u·√A. So D̂_ij errs by
        at most u·D̂_ij(1 + 2u) + (1 + 2u)·δ_j/max(D̂_ij, √δ_j).
      - pdist, in any order, with or without FMA, errs by at most
        (d + 4)·u·D_ij + 2√(3dη) per pair, and summing m of them in any
        order adds γ_m relative; Σ̂ (nonnegative terms, none subnormal)
        adds γ_g. So |Σ̂_j − S_j| <= (2m + d + 8)·u·Σ̂_j + (1 + 2**-21)·P_j
        + m√d·2**-508, with P_j = Σ_{i≠j} w_i·δ_j/max(D̂_ij, √δ_j).
      - ŝ and s each round twice, so |ŝ − s| <= (1 + 3u)·τ|Σ̂ − S| +
        5u·ŝ + 5η.
    Hence E = τ·((2m + d + 16)·u·Σ̂ + (1 + 2**-20)·P + m√d·2**-500) +
    8u·ŝ + 2**-1018 bounds |ŝ − s| with room for rounding E itself (P is a
    GEMV, within γ_g), and ŝ ± E rounded. P_j <= (m − w_j)·√δ_j needs no
    pass over the matrix, so P is computed only when that form fails.

    Certify. Sort the groups by ŝ; the first k rows end in group t. If, for
    every group p <= t, ŝ_p + E_p < ŝ_r − E_r for every later group r, then
    s_p < s_r: the first k rows by (ŝ, index) are the first k by (s, index).
    """
    m, d = rows.shape
    head = np.concatenate(([True], c[1:] != c[:-1]))
    x = rows[head]
    if not (c[-1] < _GUARD and 0 <= tau < _GUARD and np.abs(x).max() < _GUARD):
        return None
    twins = np.flatnonzero(~head)  # each must equal the row before it
    if not (rows[twins] == rows[twins - 1]).all():
        return None
    group = np.cumsum(head) - 1
    w = np.bincount(group).astype(np.float64)
    dist = x @ x.T
    norms = dist.diagonal().copy()
    dist *= -2.0
    dist += norms
    dist += norms[:, None]
    np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
    sums = w @ dist
    s = c[head] + tau * sums
    delta = (2 * d + 8) * 2.0**-53 * (norms + norms.max()) + 64 * d * 2.0**-1022
    root = np.sqrt(delta)
    order = np.argsort(s, kind="stable")
    # Groups order[:n] must each score below every later group.
    n = min(np.searchsorted(np.cumsum(w[order]), k) + 1, len(s) - 1)

    def certified(pairs) -> bool:
        E = tau * ((2 * m + d + 16) * 2.0**-53 * sums + (1 + 2.0**-20) * pairs
                   + m * np.sqrt(d) * 2.0**-500) + 8 * 2.0**-53 * s + 2.0**-1018
        later = np.minimum.accumulate((s - E)[order[:0:-1]])[::-1]
        return bool(np.all((s + E)[order[:n]] < later[:n]))

    if not certified((m - w) * root):
        np.maximum(dist, root, out=dist)
        np.fill_diagonal(dist, np.inf)  # D̂_jj = 0 is exact: no term
        if not certified(delta * (w @ np.divide(1.0, dist, out=dist))):
            return None
    return sums[group][None, :]


def refine_first_pass(
    db: Database, q, pbar, pool_size: int, k: int, tau: float
) -> np.ndarray:
    """Select k patches balancing distance to the query and to a pilot patch.

    Scores each pool candidate by ||q - p_j|| + tau * ||pbar - p_j|| and
    keeps the k smallest. tau = 0 reduces to plain knn; large tau ranks by
    pilot distance alone. A tau that is NaN, negative or infinite raises
    ValueError.
    """
    _check_tau(tau)
    pool, c = _candidate_pool(db, q, pool_size, k)
    pbar = np.asarray(pbar, dtype=np.float64)
    if pbar.shape != (db.patches.shape[1],):
        raise ValueError(f"pilot dimension {pbar.shape} does not match database")
    e = cdist(pbar[None, :], db.patches[pool])[0]
    scores = first_pass_scores(c, e, tau)
    return pool[np.lexsort((pool, scores))[:k]]


# ---------------------------------------------------------------------------
# Screening: a block GEMM bounds each query's search to a few candidate rows
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 1024  # rows hashed, compared or gathered per step: about 0.5 MB
SCREEN_BLOCK = 16  # queries per screening GEMM: 16 x r float32 scores
# R + ‖q‖ below this keeps every screen value in float32 range; pool values,
# query distances and tau below it keep every certified pool sum finite.
_GUARD = 2.0**60
_MAX_DIM = 2**10  # patches up to 32 x 32: screen's tol assumes d·2**-24 <= 2**-14


def _row_keys(patches: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row's values; +0.0 folds -0.0 into 0.0."""
    n, d = patches.shape
    mult = np.random.default_rng(0).integers(1, 2**63, d, dtype=np.uint64) | 1
    keys = np.empty(n, dtype=np.uint64)
    for start in range(0, n, _CHUNK_ROWS):
        bits = (patches[start : start + _CHUNK_ROWS] + 0.0).view(np.uint64)
        mixed = (bits ^ (bits >> 29)) * mult  # wraps modulo 2**64
        keys[start : start + _CHUNK_ROWS] = (mixed ^ (mixed >> 32)).sum(axis=1)
    return keys


def _repeated_rows(patches: np.ndarray, m: int) -> np.ndarray:
    """Indices of the rows that have at least m identical rows at lower indices.

    Rows are grouped by _row_keys, and neighbours in (key, index) order are
    compared value by value, so a hash collision can only end a run of
    identical rows early: a row is never reported without m true copies
    before it.
    """
    keys = _row_keys(patches)
    order = np.argsort(keys, kind="stable")
    same = keys[order[1:]] == keys[order[:-1]]
    pairs = np.flatnonzero(same)
    for start in range(0, len(pairs), _CHUNK_ROWS):
        at = pairs[start : start + _CHUNK_ROWS]
        same[at] = np.all(patches[order[at]] == patches[order[at + 1]], axis=1)
    pos = np.arange(len(keys))
    run_start = np.maximum.accumulate(np.where(np.r_[True, ~same], pos, 0))
    return order[pos - run_start >= m]


def half_norms(db: Database, m: int) -> np.ndarray:
    """½‖x‖² per database row (float64), the row term of screen's ranking.

    A row with m identical rows at lower indices gets inf: cdist gives
    identical rows identical distances and ties go to the lower index, so
    such a row is never among a query's m nearest, and screen_index leaves
    it out of the float32 table. Rejects a database with a non-finite value
    (or a squared norm beyond float64) with ValueError.
    """
    patches = np.asarray(db.patches, dtype=np.float64)
    norms = 0.5 * np.einsum("ij,ij->i", patches, patches)
    if not np.all(np.isfinite(norms)):
        raise ValueError("database patches must hold finite values "
                         "with finite squared norms")
    if len(db) > m:
        norms[_repeated_rows(patches, m)] = np.inf
    return norms


@dataclass(frozen=True)
class ScreenIndex:
    """What screen needs of a database, built once by screen_index.

    rows: ascending database indices of the rows with a finite half norm.
    table: those rows as one contiguous (d, r) float32 array, and norms:
    their half norms in float32; both are None when every query searches
    the whole database. radius: R, the largest row norm. m: the number of
    nearest rows every query's candidates must hold.
    """

    rows: np.ndarray
    table: np.ndarray | None
    norms: np.ndarray | None
    radius: float
    m: int


def screen_index(db: Database, m: int) -> ScreenIndex:
    """The screen of db for each query's m nearest rows, built afresh.

    The rows left by half_norms (which also rejects a non-finite database)
    are gathered into the float32 table _CHUNK_ROWS at a time, so they are
    never all copied in float64 at once. No table is built when the database
    has no more than m rows, when R reaches _GUARD (no value outside
    float32 range is ever cast), or when d exceeds _MAX_DIM: screen then
    returns None, the whole database, for every query.
    """
    norms = half_norms(db, m)
    rows = np.flatnonzero(np.isfinite(norms))
    # Every cut (inf) row has a kept copy, so this is the largest row norm.
    radius = float(np.sqrt(2.0 * np.max(norms[rows])))
    d = db.patches.shape[1]
    if len(db) <= m or not radius < _GUARD or d > _MAX_DIM:
        return ScreenIndex(rows, None, None, radius, m)
    table = np.empty((d, len(rows)), dtype=np.float32)
    for start in range(0, len(rows), _CHUNK_ROWS):
        part = rows[start : start + _CHUNK_ROWS]
        table[:, start : start + len(part)] = db.patches[part].T
    return ScreenIndex(rows, table, norms[rows].astype(np.float32), radius, m)


# Makes _screen_of's check and build one step for callers on other threads.
_SCREEN_LOCK = threading.Lock()


def _screen_of(db: Database, m: int) -> ScreenIndex:
    """db's screen index for m, built on first use and kept with db.

    The index is rebuilt only when m changes; callers fetch it before any
    worker thread starts. Once it is built, db.patches and the index's
    arrays are read-only, so a write raises ValueError instead of leaving
    the kept table stale. Rows that are a view of another array, which a
    write through that array would still change, are first replaced by a
    private copy; a database rejected by half_norms keeps its own rows.
    screen_index is the uncached builder.
    """
    with _SCREEN_LOCK:
        index = db._screen
        if index is None or index.m != m:
            del index  # so the old table is freed before the new one is built
            object.__setattr__(db, "_screen", None)
            patches = db.patches if db.patches.base is None else db.patches.copy()
            index = screen_index(Database(patches, db.patch_size), m)
            object.__setattr__(db, "patches", patches)
            for array in (db.patches, index.rows, index.table, index.norms):
                if array is not None:
                    array.flags.writeable = False
            object.__setattr__(db, "_screen", index)
        return index


def screen(index: ScreenIndex, queries) -> list:
    """Candidate rows, ascending, that hold each query's exact m nearest.

    One float32 GEMM ranks the index's r rows for all the given queries
    (callers pass blocks of SCREEN_BLOCK, which bounds its scores) by
    h = ½‖x‖² − x·q, which orders rows as ‖x − q‖² does. Every row with
    computed h within tol of the query's m-th smallest computed h is kept,
    so the kept rows contain the first m of
    np.argsort(cdist(q, db.patches), kind="stable"); ranking them in index
    order reproduces that order exactly. None means the whole database: for
    every query when the index has no table, and for a query with
    R + ‖q‖ >= _GUARD, which is never cast to float32. queries is an (n, d)
    array: no queries give [], and another shape raises ValueError when
    the index has a table. Each query's threshold comes from its own score
    row, so the block's scores are the only array of their size it holds.

    tol bounds the rounding. Let u = 2**-24 and η = 2**-126: one float32
    rounding, with gradual underflow or flush-to-zero, errs by at most
    u·|exact| + η. Let a = ‖x‖ <= R, b = ‖q‖ and B = ½(R + b)², so that
    ab <= B/2 and a² + 2ab <= 2B; as R + b < 2**60, every value below stays
    under 2**120, and as d <= _MAX_DIM, du <= 2**-14. Computed h errs from
    exact h by at most the sum of
      - rounding x and q to float32: 2u·ab(1 + u) + η√d(a + b)(1 + u) + dη²;
      - the float32 GEMM, in any summation order, with or without FMA:
        γ_d·Σ|x̂ᵢq̂ᵢ| + 2dη(1 + γ_d), with γ_d = du/(1 − du), which is at most
        du·ab(1 + 2**-12) + 2**-13·η√d(a + b) + 2dη(1 + 2**-13) + d²uη²;
      - rounding ½‖x‖², computed in float64 within (d + 1)·2**-53 of exact,
        to float32: u·½a²(1 + 2**-18) + η;
      - the float32 subtraction: u(½a² + ab)(1 + 2**-13) + 2η.
    The ab and a² terms sum to at most (1 + 2**-12)((d + 3)ab + a²) <=
    ((d + 5)/2 + 1/4)·u·B, and η√d(R + b) <= uB + dη²/(2u) bounds the
    √d terms, so E = ((d + 8)/2)·u·B + 7dη bounds the error. A row y among
    cdist's m nearest is in the table (half_norms cuts no such row), and it
    is no farther by cdist than some row z among the m of smallest computed
    h; cdist's squared distances are within a relative
    (d + 4)·2**-53 of exact, so exact h(y) <= h(z) + 2**-18·u·B + η, and
    computed h(y) exceeds the m-th smallest computed h by at most
    2E + 2**-18·u·B + η. Rounding the threshold (m-th smallest + tol, at
    most about B in magnitude) to float32 once costs at most
    u·B(1 + 2**-13) + 2η more. So tol = (d + 12)·u·B + 32dη covers every
    term with room to spare.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if index.table is None or len(queries) == 0:
        return [None] * len(queries)
    d, m = len(index.table), index.m
    if queries.ndim != 2 or queries.shape[1] != d:
        raise ValueError(f"queries of shape {queries.shape} do not match "
                         f"the index's (n, {d})")
    reach = index.radius + np.sqrt(np.einsum("ij,ij->i", queries, queries))
    near = np.flatnonzero(reach < _GUARD)  # NaN and inf fail too
    h = queries[near].astype(np.float32) @ index.table
    np.subtract(index.norms, h, out=h)
    tol = (d + 12) * 2.0**-25 * reach[near] ** 2 + d * 2.0**-121
    out = [None] * len(queries)
    for i, row, t in zip(near, h, tol):
        cut = np.float32(np.partition(row, m - 1)[m - 1] + t)
        out[i] = index.rows[np.flatnonzero(row <= cut)]
    return out


def compute_weights(q, selected, h: float) -> np.ndarray:
    """Similarity weights w_j ∝ exp(-||q - p_j||^2 / h^2), normalized to 1.

    selected is a (k, d) array of patch rows. Weights are computed with the
    minimum squared distance subtracted inside the exponent, which leaves
    the normalized result unchanged but avoids underflow when h is small.
    """
    if h <= 0:
        raise ValueError(f"bandwidth h must be > 0, got {h}")
    selected = np.asarray(selected, dtype=np.float64)
    if selected.ndim != 2 or len(selected) < 1:
        raise ValueError("selection must be a nonempty (k, d) array")
    q = np.asarray(q, dtype=np.float64)
    sq = np.sum((selected - q[None, :]) ** 2, axis=1) / h**2
    w = np.exp(-(sq - sq.min()))
    return w / w.sum()


# ---------------------------------------------------------------------------
# Database quality
# ---------------------------------------------------------------------------


def database_quality(db: Database, clean) -> float:
    """Average distance from the clean image's stride-1 patches to the database.

    For each of the m dense patches p_i of the clean image, take the minimum
    Euclidean distance to any database patch, normalized by sqrt(d); return
    the mean over i. Zero iff every clean patch appears in the database.
    The screen (m = 1) narrows each patch to candidate rows that hold its
    nearest, and cdist measures the distances to them exactly.
    """
    clean = as_image(clean)
    h, w = clean.shape
    dense = extract_patches(clean, plan_grid(w, h, db.patch_size, 1), db.patch_size)
    index = _screen_of(db, 1)
    nearest = np.empty(len(dense))
    for start in range(0, len(dense), SCREEN_BLOCK):
        block = dense[start : start + SCREEN_BLOCK]
        for i, rows in enumerate(screen(index, block), start):
            candidates = db.patches if rows is None else db.patches[rows]
            nearest[i] = cdist(dense[i][None, :], candidates).min()
    return nearest.sum() / (len(dense) * np.sqrt(db.patches.shape[1]))
