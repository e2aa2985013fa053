"""Patch-based image denoising with targeted reference databases."""

from .imaging import (
    CoverageError,
    PgmFormatError,
    add_gaussian_noise,
    aggregate,
    extract_patch,
    extract_patches,
    plan_grid,
    read_pgm,
    write_pgm,
)
from .metrics import psnr, ssim
from .database import (
    Database,
    build_database,
    compute_weights,
    database_quality,
    knn,
    load_database,
    load_database_cache,
    refine_cross_similarity,
    refine_first_pass,
    save_database_cache,
)
from .filters import (
    PatchEnsemble,
    apply_filter,
    group_sparse_basis,
    oracle_basis,
    spectrum_bayes,
    spectrum_bm3d_pilot,
    spectrum_lpg,
    spectrum_oracle,
    spectrum_penalized,
)
from .pipeline import DenoiseConfig, Report, denoise_image, denoise_patch, run_sweep

__version__ = "0.1.0"
