"""Reconstruction quality measures and the multi-method comparison driver."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .baselines import USVT_ETA, check_nonnegative, soft_impute_with_count, srf_only, usvt
from .linalg import as_matrix, numerical_rank
from .sampling import validate_mask
from .solver import SplicConfig, splic_complete

METHOD_NAMES = ("splic", "srf", "soft-impute", "usvt")

# relative singular-value cutoff of every reported numerical rank
RANK_TOL = 1e-6


def psnr(a, b) -> float:
    """10 * log10(1 / MSE), at peak 1, the library's pixel range;
    identical inputs give float('inf').

    Works on single planes and on channel stacks (MSE pooled over all
    entries either way).
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.shape != xb.shape:
        raise ValueError(f"shape mismatch: {xa.shape} vs {xb.shape}")
    mse = float(np.mean((xa - xb) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


@dataclass(frozen=True)
class MethodResult:
    method: str
    psnr_db: float
    rank: int
    iters: int
    seconds: float


COMPARISON_CSV_HEADER = ",".join(f.name for f in fields(MethodResult))


def compare_methods(
    x_clean,
    x_corrupt,
    mask,
    cfg: SplicConfig,
    tau: float | None = None,
    eta: float = USVT_ETA,
) -> list[MethodResult]:
    """Run all four completers on (x_corrupt, mask) and score against x_clean.

    tau=None leaves soft-impute its own default threshold.  Both images
    (finite, 2-D, of one shape), the mask and a given tau and eta are
    checked before the first method runs.  Ranks of the two solver-based
    methods are measured on their rank-reduced surface; baseline ranks
    are measured on the returned matrix.
    """
    x_corrupt = as_matrix(x_corrupt, "image")
    x_clean = as_matrix(x_clean, "reference")
    if x_clean.shape != x_corrupt.shape:
        raise ValueError(f"reference shape {x_clean.shape} != image shape {x_corrupt.shape}")
    validate_mask(mask, x_corrupt.shape)
    if tau is not None:
        check_nonnegative("tau", tau)
    check_nonnegative("eta", eta)

    def solved(res):
        return res.completed, res.low_rank, res.iterations

    def baseline(z, iters=1):
        return z, z, iters

    # looked up per call, so instrumentation that rebinds these names sees them
    calls = (
        lambda: solved(splic_complete(x_corrupt, mask, cfg)),
        lambda: solved(srf_only(x_corrupt, mask, cfg)),
        lambda: baseline(*soft_impute_with_count(x_corrupt, mask, tau)),
        lambda: baseline(usvt(x_corrupt, mask, eta)),
    )
    results = []
    for method, call in zip(METHOD_NAMES, calls):
        start = time.perf_counter()
        completed, surface, iters = call()
        quality, rank = psnr(completed, x_clean), numerical_rank(surface, RANK_TOL)
        results.append(MethodResult(method, quality, rank, iters, time.perf_counter() - start))
    return results
