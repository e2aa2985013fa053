"""Grayscale image handling: PGM I/O, noise injection, patch grids.

Images are 2-D float64 arrays of shape (height, width) with intensities
nominally in [0, 255]. Processing stays in the float domain; quantization
and clamping happen only when writing PGM bytes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PgmFormatError",
    "CoverageError",
    "as_image",
    "read_pgm",
    "write_pgm",
    "add_gaussian_noise",
    "check_grid",
    "plan_grid",
    "extract_patch",
    "extract_patches",
    "aggregate",
]


class PgmFormatError(ValueError):
    """Raised for malformed, truncated, or unsupported PGM data."""


class CoverageError(ValueError):
    """Raised when aggregation input leaves some pixel uncovered."""


def as_image(data) -> np.ndarray:
    """Coerce to a valid image array (2-D, nonempty, finite float64)."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError("image must have at least one row and one column")
    if not np.all(np.isfinite(img)):
        raise ValueError("image intensities must be finite")
    return img


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)
# ---------------------------------------------------------------------------

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next header token, skipping whitespace and # comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in _WHITESPACE:
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmFormatError("truncated PGM header")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def read_pgm(data: bytes) -> np.ndarray:
    """Decode binary PGM (magic P5, maxval 255) bytes into an image.

    Raises PgmFormatError for any other magic, maxval != 255, bad header
    fields, or a payload whose length does not match width * height.
    """
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmFormatError(f"unsupported magic {magic!r}; only binary P5 is accepted")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        try:
            value = int(token)
        except ValueError:
            raise PgmFormatError(f"non-integer {name} field {token!r}") from None
        fields.append(value)
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmFormatError(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PgmFormatError(f"maxval must be 255, got {maxval}")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PgmFormatError("missing separator after maxval")
    pos += 1
    payload = data[pos:]
    if len(payload) < width * height:
        raise PgmFormatError(
            f"truncated payload: expected {width * height} bytes, got {len(payload)}"
        )
    if len(payload) > width * height:
        raise PgmFormatError("trailing bytes after pixel payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    return pixels.reshape(height, width)


def write_pgm(img) -> bytes:
    """Encode an image as canonical binary PGM bytes.

    Intensities are rounded half-away-from-zero, clamped to [0, 255], and
    written after the canonical header "P5\\n<w> <h>\\n255\\n".
    """
    img = as_image(img)
    rounded = np.copysign(np.floor(np.abs(img) + 0.5), img)
    clamped = np.clip(rounded, 0.0, 255.0).astype(np.uint8)
    height, width = img.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + clamped.tobytes()


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


def add_gaussian_noise(img, sigma: float, seed: int) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise of std sigma (no clamping).

    The same (img, sigma, seed) triple always yields bit-identical output.
    """
    img = as_image(img)
    if not 0 <= sigma < np.inf:  # NaN fails too
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    return img + sigma * rng.standard_normal(img.shape)


# ---------------------------------------------------------------------------
# Patch grid
# ---------------------------------------------------------------------------


def _offsets(dim: int, patch_size: int, stride: int) -> list[int]:
    last = dim - patch_size
    offs = list(range(0, last + 1, stride))
    if offs[-1] != last:
        offs.append(last)  # clamp so the final patch touches the border
    return offs


def check_grid(patch_size: int, stride: int) -> None:
    """Reject a patch size or a stride whose grid cannot cover an image."""
    if patch_size < 1:
        raise ValueError(f"patch_size must be >= 1, got {patch_size}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if stride > patch_size:
        # Offsets would leave gaps of stride - patch_size uncovered pixels.
        raise ValueError(f"stride {stride} > patch_size {patch_size} breaks coverage")


def plan_grid(width: int, height: int, patch_size: int, stride: int) -> np.ndarray:
    """Plan (row, col) top-left patch locations covering every pixel.

    Offsets step by `stride` with the final row/column clamped to
    dim - patch_size. Returns an (N, 2) int array in row-major order.
    """
    check_grid(patch_size, stride)
    if patch_size > min(width, height):
        raise ValueError(
            f"patch_size {patch_size} exceeds image dimensions {width}x{height}"
        )
    rows, cols = np.meshgrid(_offsets(height, patch_size, stride),
                             _offsets(width, patch_size, stride), indexing="ij")
    return np.stack([rows.ravel(), cols.ravel()], axis=1).astype(np.int64)


def extract_patch(img, loc, patch_size: int) -> np.ndarray:
    """Extract the row-major flattened patch with top-left corner loc.

    Only the window read is checked to be finite, not the whole image.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    r, c = int(loc[0]), int(loc[1])
    h, w = img.shape
    if r < 0 or c < 0 or r + patch_size > h or c + patch_size > w:
        raise ValueError(f"patch at {(r, c)} size {patch_size} exceeds image {h}x{w}")
    return as_image(img[r : r + patch_size, c : c + patch_size]).flatten()


def _check_locs(locs, patch_size: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of locs, (N, 2) top-left corners of patches in h x w."""
    locs = np.asarray(locs, dtype=np.int64)
    if locs.shape == (0,):  # an empty list
        locs = locs.reshape(0, 2)
    if locs.ndim != 2 or locs.shape[1] != 2:
        raise ValueError(f"locs must be an (N, 2) array, got shape {locs.shape}")
    rows, cols = locs.T
    # Checked up front: fancy indexing would silently wrap a negative location.
    bad = (rows < 0) | (cols < 0) | (rows + patch_size > h) | (cols + patch_size > w)
    if bad.any():
        r, c = (int(v) for v in locs[np.argmax(bad)])
        raise ValueError(f"patch at {(r, c)} size {patch_size} exceeds image {h}x{w}")
    return rows, cols


def extract_patches(img, locs, patch_size: int) -> np.ndarray:
    """Extract many patches at once; returns an (N, patch_size**2) array."""
    img = as_image(img)
    rows, cols = _check_locs(locs, patch_size, *img.shape)
    windows = np.lib.stride_tricks.sliding_window_view(img, (patch_size, patch_size))
    return windows[rows, cols].reshape(len(rows), patch_size * patch_size)


def aggregate(patches, locs, width: int, height: int) -> np.ndarray:
    """Average the (N, p^2) patches at locs into a height x width image.

    The adjoint of extract_patches, one np.add.at that sums each pixel's
    patches in order, over each pixel's count; CoverageError if a count is 0.
    """
    patches = np.asarray(patches, dtype=np.float64)
    side = int(round(np.sqrt(patches.shape[-1]))) if patches.ndim else 0
    if patches.shape != (len(locs), side * side):
        raise ValueError(f"need {len(locs)} rows of p^2 values, got {patches.shape}")
    rows, cols = _check_locs(locs, side, height, width)
    acc, counts = np.zeros((height, width)), np.zeros((height, width))
    for out, values in ((acc, patches.reshape(len(patches), side, side)), (counts, 1.0)):
        windows = np.lib.stride_tricks.sliding_window_view(out, (side, side),
                                                           writeable=True)
        np.add.at(windows, (rows, cols), values)
    if np.any(counts == 0):
        raise CoverageError(f"{np.sum(counts == 0)} pixels not covered by any estimate")
    return acc / counts
