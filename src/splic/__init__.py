"""Structure-preserving progressive low-rank image completion.

Given an image and a binary anchor mask, the solver re-estimates the
unanchored pixels by gradient projection on a smoothed rank surrogate
plus a total-variation penalty, with the smoothing parameter shrinking
geometrically between iteration blocks.  A two-pass alternated mode
re-estimates every pixel while keeping global structure intact.
"""

from .baselines import soft_impute_with_count, soft_threshold_singular, srf_only, usvt
from .image_io import (
    ConfigError,
    PnmParseError,
    PnmTruncatedError,
    decode_image,
    encode_image,
    read_config_json,
    read_image,
    read_mask,
    write_image,
    write_trace_csv,
)
from .linalg import SvdFactors, as_matrix, numerical_rank, reconstruct, svd
from .metrics import MethodResult, compare_methods, psnr
from .sampling import complement, generate_mask
from .solver import (
    CompletionResult,
    ConvergenceTrace,
    SplicConfig,
    TraceRecord,
    relative_change,
    splic_alternated,
    splic_complete,
)
from .srf import srf_gradient
from .testimages import add_uniform_noise, balanced_low_rank, make_test_image
from .tv import tv_gradient, tv_gradient_forward, tv_value

__version__ = "0.1.0"

__all__ = [
    "CompletionResult",
    "ConfigError",
    "ConvergenceTrace",
    "MethodResult",
    "PnmParseError",
    "PnmTruncatedError",
    "SplicConfig",
    "SvdFactors",
    "TraceRecord",
    "add_uniform_noise",
    "as_matrix",
    "balanced_low_rank",
    "compare_methods",
    "complement",
    "decode_image",
    "encode_image",
    "generate_mask",
    "make_test_image",
    "numerical_rank",
    "psnr",
    "read_config_json",
    "read_image",
    "read_mask",
    "reconstruct",
    "relative_change",
    "soft_impute_with_count",
    "soft_threshold_singular",
    "splic_alternated",
    "splic_complete",
    "srf_gradient",
    "srf_only",
    "svd",
    "tv_gradient",
    "tv_gradient_forward",
    "tv_value",
    "usvt",
    "write_image",
    "write_trace_csv",
]
