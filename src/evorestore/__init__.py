"""Frequency-gated image restoration with an evolutionary loss-weight scheduler.

The model splits each image into low/high frequency bands with a learnable
periodic lowpass kernel, refines the low band with a sigmoid gate in the
Fourier domain and the high band with a spatial gate, and recombines.  All
gradients are hand-derived adjoints; a separate oracle suite cross-checks
them against finite differences and closed-form solutions.
"""

__version__ = "0.1.0"

from .degrade import (
    DegradationSpec,
    PairedDataset,
    SplitConfig,
    apply_degradation,
    build_dataset,
    load_dataset,
    psnr,
    synthetic_clean_images,
    write_dataset,
)
from .eos import EosConfig, EosTrace, eos_overhead_report, project_simplex, run_eos
from .errors import ConfigError, DimensionError, DivergenceError, NumericIntegrityError
from .fmm import (
    FmmParams,
    default_params,
    fmm_backward,
    fmm_forward,
    load_params,
    save_params,
)
from .grids import (
    conv2_periodic,
    fft2,
    gaussian_kernel,
    identity_kernel,
    read_fgrid,
    transfer,
    write_fgrid,
)
from .losses import MsSsimConfig, WeightPair, charbonnier, combined_loss, ms_ssim_value
from .trainer import TrainConfig, TrainTrace, evaluate, train
from .util import _keep_freed_heap

_keep_freed_heap()

__all__ = [
    "__version__",
    "ConfigError",
    "DegradationSpec",
    "DimensionError",
    "DivergenceError",
    "EosConfig",
    "EosTrace",
    "FmmParams",
    "MsSsimConfig",
    "NumericIntegrityError",
    "PairedDataset",
    "SplitConfig",
    "TrainConfig",
    "TrainTrace",
    "WeightPair",
    "apply_degradation",
    "build_dataset",
    "charbonnier",
    "combined_loss",
    "conv2_periodic",
    "default_params",
    "eos_overhead_report",
    "evaluate",
    "fft2",
    "fmm_backward",
    "fmm_forward",
    "gaussian_kernel",
    "identity_kernel",
    "load_dataset",
    "load_params",
    "ms_ssim_value",
    "project_simplex",
    "psnr",
    "read_fgrid",
    "run_eos",
    "save_params",
    "synthetic_clean_images",
    "train",
    "transfer",
    "write_dataset",
    "write_fgrid",
]
