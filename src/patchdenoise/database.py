"""Targeted patch database: construction, search, and selection refinement.

The database is an in-memory (n, d) matrix of clean reference patches,
fixed when the Database is built: its rows are C-ordered, read-only
float64, so what is derived from them once (row norms, row counts, the
screen) never goes stale. Queries are read-only too.

Identical rows are one distinct row with a count (Database.counts): a
search ranks distinct rows and returns each chosen row's lowest index once
per copy taken.

A search distance is ‖x − q‖ = √max(‖x‖² − 2x·q + ‖q‖², 0) in float64, from
one BLAS dot product per row (np.vecdot), which reads a contiguous row the
same way wherever it sits: identical rows get identical distances. The
pipeline searches only the candidate rows of the screen, which rejects
patches above 32 x 32 and R + ‖q‖ >= 2**60 (R the largest row norm).
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

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
    "k_smallest",
    "ScreenIndex",
    "screen_index",
    "screen",
    "compute_weights",
    "database_quality",
]

_CACHE_MAGIC = b"TDBC\x01\n"


@dataclass(frozen=True, eq=False)
class Database:
    """Clean reference patches.

    patches: (n_total, d), one row per patch, d = patch_size**2, fixed at
    construction as a C-ordered, read-only float64 array. The input is
    copied unless it already is one and owns its data (as build_database's
    and load_database_cache's rows do): a view is copied, so that a write
    through its base cannot change the rows.
    Two databases compare equal only when they are the same object.
    _screen: the screen index, built once by _screen_of.
    """

    patches: np.ndarray
    patch_size: int
    _screen: ScreenIndex | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.patch_size < 1:
            raise ValueError(f"patch_size must be >= 1, got {self.patch_size}")
        rows = self.patches
        if not (type(rows) is np.ndarray and rows.dtype == np.float64
                and rows.base is None and rows.flags.c_contiguous):
            rows = np.array(rows, dtype=np.float64, order="C")
            object.__setattr__(self, "patches", rows)
        if rows.ndim != 2 or len(rows) < 1:
            raise ValueError("database needs at least one patch")
        if rows.shape[1] != self.patch_size**2:
            raise ValueError(
                f"patch dimension {rows.shape[1]} != patch_size**2 "
                f"({self.patch_size}**2)"
            )
        rows.flags.writeable = False

    def __len__(self) -> int:
        return len(self.patches)

    @cached_property
    def norms(self) -> np.ndarray:
        """‖x‖² of each row, read-only. ValueError unless every row is finite
        with a squared norm below 2**1020."""
        return _read_only(_sq_norms(self.patches))

    @cached_property
    def counts(self) -> np.ndarray:
        """Each row's count, read-only (_row_counts); a database made by take
        keeps those of the one it was taken from. Rejects what norms rejects."""
        self.norms  # raises on NaN, which equals no row, itself included
        return _read_only(_row_counts(self.patches))

    @cached_property
    def _copies(self) -> int:
        """counts.sum(), the copies the rows stand for: len(self) unless take."""
        return len(self)

    def take(self, rows) -> Database:
        """The database of the given rows, with their norms and counts."""
        sub = Database(self.patches[rows], self.patch_size)
        counts = self.counts[rows]
        vars(sub).update(norms=_read_only(self.norms[rows]),
                         counts=_read_only(counts), _copies=int(counts.sum()))
        return sub


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
    with open(path, "wb") as out:
        out.write(_CACHE_MAGIC + struct.pack("<IQ", db.patch_size, len(db)))
        out.write(db.patches.astype("<f8", copy=False).data)


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


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """‖x‖² of each row of x (of x itself when 1-D); ValueError unless every
    one is below _NORM_LIMIT (NaN fails too)."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.vecdot(x, x)
    # A scalar's own comparison: its max() costs more than the dot product.
    if not (norms.max() if norms.ndim else norms) < _NORM_LIMIT:
        raise ValueError("patches and queries must hold finite values with "
                         "squared norms below 2**1020")
    return norms


def _query_distances(db: Database, q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (db.patches.shape[1],):
        raise ValueError(
            f"patch dimension {q.shape} does not match the database's "
            f"({db.patches.shape[1]},)"
        )
    q = np.ascontiguousarray(q)  # a strided dot product sums in another order
    qq = _sq_norms(q)
    dist = np.vecdot(db.patches, q)
    dist *= -2.0
    dist += db.norms
    dist += qq
    np.maximum(dist, 0.0, out=dist)
    return np.sqrt(dist, out=dist)


def k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest values; ties broken by lower index."""
    return np.argsort(values, kind="stable")[:k]


def knn(db: Database, q, k: int) -> np.ndarray:
    """The k nearest database patches to q by Euclidean distance.

    The pool of k copies (_candidate_pool): distinct rows ranked by distance,
    ties broken by lower index, each chosen row's lowest index once per copy
    taken. A query or row that is not finite, or whose squared norm reaches
    2**1020, raises ValueError.
    """
    if not 1 <= k <= db._copies:
        raise ValueError(f"k must be in [1, {db._copies}], got {k}")
    pool, _, copies = _candidate_pool(db, q, k, k)
    return np.repeat(pool, copies)


def cross_similarity_scores(c: np.ndarray, sums: np.ndarray, tau: float) -> np.ndarray:
    """Linear selection objective: query distance plus tau * summed pool distance."""
    return np.asarray(c, dtype=np.float64) + tau * np.asarray(sums, dtype=np.float64)


def _check_tau(tau: float) -> None:
    if not 0 <= tau < np.inf:  # NaN fails too
        raise ValueError(f"tau must be >= 0 and finite, got {tau}")


def _candidate_pool(db: Database, q, pool_size: int, k: int):
    """The pool_size nearest copies, as knn(db, q, pool_size) takes them:
    the distinct rows, in rank order, their query distances, and the copies
    taken of each (the last row's may be fewer than its count). It ranks
    one more row per row of count 0, which a take may hold anywhere."""
    if k > pool_size:
        raise ValueError(f"k ({k}) must not exceed pool_size ({pool_size})")
    if pool_size > db._copies:
        raise ValueError(f"pool_size ({pool_size}) exceeds {db._copies} copies")
    dists = _query_distances(db, q)
    pool = k_smallest(dists, pool_size + len(db) - np.count_nonzero(db.counts))
    copies = db.counts[pool]
    over = np.cumsum(copies) - pool_size  # >= 0 from the row that fills the pool
    end = int(np.searchsorted(over, 0)) + 1
    pool, copies = pool[:end], copies[:end]
    copies[-1] -= over[end - 1]
    if not copies.all():
        pool, copies = pool[copies > 0], copies[copies > 0]
    return pool, dists[pool], copies


def _take_best(pool: np.ndarray, copies: np.ndarray, scores, k: int) -> np.ndarray:
    """The k best pool copies by score, ties to the lower database index."""
    order = np.lexsort((pool, scores))
    return np.repeat(pool[order], copies[order])[:k]


def refine_cross_similarity(
    db: Database, q, pool_size: int, k: int, tau: float
) -> np.ndarray:
    """Select k patches penalizing candidates far from the rest of the pool.

    Restricts to the pool_size nearest copies, scores each distinct row by
    its query distance plus tau times the sum of its distances to every
    pool copy (_pool_sums), and takes the k best copies (_take_best). tau =
    0 reduces to plain knn; a tau that is NaN, negative or infinite raises
    ValueError.
    """
    _check_tau(tau)
    pool, c, copies = _candidate_pool(db, q, pool_size, k)
    scores = cross_similarity_scores(c, _pool_sums(db, pool, copies), tau)
    return _take_best(pool, copies, scores, k)


def _pool_sums(db: Database, pool: np.ndarray, copies: np.ndarray) -> np.ndarray:
    """Each pool row's summed distance to every pool copy, as an array.

    pool holds distinct rows x_i, and copies their copies w_i in the pool.
    One GEMM G = x xᵀ gives the pair distances D_ij = √max(n_i + n_j −
    2G_ij, 0), n = diag(G), so D_ii = 0 exactly, and each row's sum
    S_i = Σ_j w_j D_ij is one dot product.
    """
    x = db.patches[pool]
    dist = x @ x.T
    norms = dist.diagonal().copy()
    dist *= -2.0
    dist += norms
    dist += norms[:, None]
    np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
    return np.vecdot(dist, copies.astype(np.float64))


def refine_first_pass(
    db: Database, q, pbar, pool_size: int, k: int, tau: float
) -> np.ndarray:
    """Select k patches balancing distance to the query and to a pilot patch.

    Scores each distinct row of the pool_size nearest copies by
    ||q - p_j|| + tau * ||pbar - p_j|| and takes the k best copies
    (_take_best). tau = 0 reduces to plain knn; large tau ranks by pilot
    distance alone. A tau that is NaN, negative or infinite raises
    ValueError.
    """
    _check_tau(tau)
    pool, c, copies = _candidate_pool(db, q, pool_size, k)
    # Every row's pilot distance, then the pool's: a screened database holds
    # a few rows beyond the pool, fewer than gathering the pool costs.
    scores = c + tau * _query_distances(db, pbar)[pool]
    return _take_best(pool, copies, scores, k)


# ---------------------------------------------------------------------------
# Screening: a block GEMM bounds each query's search to a few candidate rows
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 1024  # rows checked, compared or gathered per step: about 0.5 MB
SCREEN_BLOCK = 16  # queries per screening GEMM: 16 x r float32 scores
# R + ‖q‖ below this keeps every screen value in float32 range.
_GUARD = 2.0**60
# Squared norms below this keep every step of a search or pool pair distance
# finite: |x·q| < 2**1020 as well, so no sum of three such terms overflows.
_NORM_LIMIT = 2.0**1020
_MAX_DIM = 2**10  # patches up to 32 x 32: screen's tol assumes d·2**-24 <= 2**-14


def _row_counts(patches: np.ndarray) -> np.ndarray:
    """Each row's count: the number of rows identical to it (-0.0 == 0.0)
    if it has the lowest index among them, else 0.

    One stable sort of each row's bytes as one key puts rows with equal
    bytes together, in index order; +0.0 folds -0.0 into 0.0 first, on a
    copy made only when some zero is -0.0. Each row is then compared by
    value with its neighbour in that order, _CHUNK_ROWS at a time, and the
    head of each run of equal rows, its lowest index, takes the run's
    length. NaN equals no row, itself included, so a row that holds one
    heads its own run. patches must be C-ordered float64, as a Database's
    rows are.
    """
    n, d = patches.shape
    if any(np.any((part == 0) & np.signbit(part)) for part in _chunks(patches)):
        patches = patches + 0.0
    order = np.argsort(patches.view(np.dtype((np.void, 8 * d)))[:, 0],
                       kind="stable")
    heads = np.ones(n, dtype=bool)  # where a run of equal rows starts
    for start in range(0, n - 1, _CHUNK_ROWS):
        run = patches.take(order[start : start + _CHUNK_ROWS + 1], axis=0)
        heads[start + 1 : start + len(run)] = (run[1:] != run[:-1]).any(axis=1)
    starts = np.flatnonzero(heads)
    counts = np.zeros(n, dtype=np.intp)
    counts[order[starts]] = np.diff(starts, append=n)
    return counts


def _chunks(rows: np.ndarray):
    """rows, _CHUNK_ROWS at a time."""
    return (rows[start : start + _CHUNK_ROWS]
            for start in range(0, len(rows), _CHUNK_ROWS))


@dataclass(frozen=True)
class ScreenIndex:
    """What screen needs of a database, built once by screen_index.

    rows: ascending database indices of the distinct rows, each the lowest
    index of its copies (a nonzero count). table: those rows as one
    contiguous (d, r) float32 array, and norms: their half norms ½‖x‖² in
    float32. radius: R, the largest row norm, below _GUARD.
    """

    rows: np.ndarray
    table: np.ndarray
    norms: np.ndarray
    radius: float


def screen_index(db: Database) -> ScreenIndex:
    """The screen of db, built afresh; its arrays are read-only.

    The distinct rows (db.counts, which also rejects a non-finite database)
    are gathered into the float32 table _CHUNK_ROWS at a time, so they are
    never all copied in float64 at once. screen's tol covers patches up to
    32 x 32 (d <= _MAX_DIM) and R below _GUARD, within float32 range; past
    either limit this raises ValueError.
    """
    if db.patches.shape[1] > _MAX_DIM:
        raise ValueError(f"patch size {db.patch_size} exceeds the screen's limit of 32")
    rows = _read_only(np.flatnonzero(db.counts))
    norms = db.norms[rows]
    # Every row has a copy among the distinct rows: this is the largest norm.
    radius = float(np.sqrt(np.max(norms)))
    if not radius < _GUARD:
        raise ValueError(f"patch norm {radius:.3g} reaches the screen's limit of 2**60")
    table = np.empty((db.patches.shape[1], len(rows)), dtype=np.float32)
    for start in range(0, len(rows), _CHUNK_ROWS):
        part = rows[start : start + _CHUNK_ROWS]
        table[:, start : start + len(part)] = db.patches[part].T
    return ScreenIndex(rows, _read_only(table),
                       _read_only((0.5 * norms).astype(np.float32)), radius)


# Makes _screen_of's check and build one step for callers on other threads.
_SCREEN_LOCK = threading.Lock()


def _screen_of(db: Database) -> ScreenIndex:
    """db's screen index, built on first use and kept with db (screen_index
    builds afresh); callers fetch it before any worker thread starts."""
    with _SCREEN_LOCK:
        if db._screen is None:
            object.__setattr__(db, "_screen", screen_index(db))
        return db._screen


def screen(index: ScreenIndex, queries, m: int) -> list:
    """Candidate rows, ascending, that hold each query's exact m nearest.

    One float32 GEMM ranks the index's r distinct rows for all the given
    queries (callers pass blocks of SCREEN_BLOCK, which bounds its scores)
    by h = ½‖x‖² − x·q, which orders rows as ‖x − q‖² does. Every row with
    computed h within tol of the query's m-th smallest computed h is kept,
    so the kept rows contain the first m distinct rows of the search's
    reference order (_query_distances, ties broken by index); ranking them
    in index order reproduces that order exactly. The m nearest rows are
    copies of at most m distinct rows, all among the m nearest distinct
    rows, so the kept rows serve every search that takes at most m copies.
    queries is an (n, d) array: no queries give []; another shape, m < 1 and
    a query that is not finite or has R + ‖q‖ >= _GUARD (never cast to
    float32) raise ValueError. Each query's threshold comes from its own
    score row, so the block's scores are the only array of their size it holds.

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
    √d terms, so E = ((d + 8)/2)·u·B + 7dη bounds the error.

    The reference t = (n̂ − 2ĝ) + q̂q, from float64 dot products (any order,
    FMA or not; v = 2**-53, ν = 2**-1022), errs from ‖x − q‖² by at most
    (d + 3)·v·(a + b)² + 8dν <= (d + 3)·2**-52·B + 8dν, as does
    database_quality's Σ(x_i − q_i)². A row y among the m nearest distinct
    rows, all of which the table holds, is no farther by it than some row z
    among the m of smallest computed h. √max(·, 0) rounded keeps that
    order up to a factor 1 + 2**-50, so exact h(y) <= exact h(z) +
    (d + 7)·2**-52·B + 8dν <= h(z) + 2**-17·u·B + η, and computed h(y)
    exceeds the m-th smallest computed h by at most 2E + 2**-17·u·B + η.
    Rounding the threshold (m-th smallest + tol, at most about B) to
    float32 once costs u·B(1 + 2**-13) + 2η more. So tol = (d + 12)·u·B +
    32dη covers every term with room to spare.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    queries = np.asarray(queries, dtype=np.float64)
    if len(queries) == 0:
        return []
    d, m = len(index.table), min(m, len(index.rows))
    if queries.ndim != 2 or queries.shape[1] != d:
        raise ValueError(f"queries of shape {queries.shape} do not match "
                         f"the index's (n, {d})")
    reach = index.radius + np.sqrt(np.einsum("ij,ij->i", queries, queries))
    if not reach.max() < _GUARD:  # NaN and inf fail too
        raise ValueError("queries must be finite with R + ‖q‖ below 2**60")
    h = queries.astype(np.float32) @ index.table
    np.subtract(index.norms, h, out=h)
    tol = (d + 12) * 2.0**-25 * reach**2 + d * 2.0**-121
    cuts = (np.float32(np.partition(row, m - 1)[m - 1] + t) for row, t in zip(h, tol))
    return [index.rows[np.flatnonzero(row <= cut)] for row, cut in zip(h, cuts)]


def compute_weights(q, selected, h: float) -> np.ndarray:
    """Similarity weights w_j ∝ exp(-||q - p_j||^2 / h^2), normalized to 1.

    selected is a (k, d) array of patch rows. Weights are computed with the
    minimum squared distance subtracted inside the exponent, which leaves
    the normalized result unchanged but avoids underflow when h is small.
    """
    if not h > 0:  # NaN fails too; inf gives uniform weights
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
    The screen kept with db (m = 1) narrows each patch to candidate rows
    that hold its nearest, measured by row differences: the search's
    ‖x‖² − 2x·q + ‖q‖² would lose them for rows far from the origin. Past
    the screen's limits (patches above 32 x 32, 2**60) it raises ValueError.
    """
    clean = as_image(clean)
    h, w = clean.shape
    dense = extract_patches(clean, plan_grid(w, h, db.patch_size, 1), db.patch_size)
    _sq_norms(dense)  # rejects patches whose differences could overflow
    index = _screen_of(db)
    nearest = np.empty(len(dense))
    for start in range(0, len(dense), SCREEN_BLOCK):
        block = dense[start : start + SCREEN_BLOCK]
        for i, rows in enumerate(screen(index, block, 1), start):
            nearest[i] = _nearest(db.patches[rows], dense[i])
    return nearest.sum() / (len(dense) * np.sqrt(db.patches.shape[1]))


def _nearest(rows: np.ndarray, q: np.ndarray) -> float:
    """min ‖x − q‖ over rows, from row differences, _CHUNK_ROWS rows at a time."""
    best = np.inf
    for part in _chunks(rows):
        gap = part - q
        best = min(best, np.vecdot(gap, gap).min())
    return float(np.sqrt(best))
