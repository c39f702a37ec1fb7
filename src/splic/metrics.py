"""Reconstruction quality measures and the multi-method comparison driver."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .baselines import soft_impute_with_count, srf_only, usvt
from .linalg import numerical_rank
from .solver import SplicConfig, splic_complete

METHOD_NAMES = ("splic", "srf", "soft-impute", "usvt")

COMPARISON_CSV_HEADER = "method,psnr_db,rank,iters,seconds"

# relative singular-value cutoff of every reported numerical rank
RANK_TOL = 1e-6


def psnr(a, b, peak: float = 1.0) -> float:
    """10 * log10(peak^2 / MSE); identical inputs give float('inf').

    Works on single planes and on channel stacks (MSE pooled over all
    entries either way).
    """
    if not peak > 0:
        raise ValueError(f"peak must be positive, got {peak}")
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.shape != xb.shape:
        raise ValueError(f"shape mismatch: {xa.shape} vs {xb.shape}")
    mse = float(np.mean((xa - xb) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


@dataclass(frozen=True)
class MethodResult:
    method: str
    psnr_db: float
    rank: int
    iters: int
    seconds: float


def compare_methods(
    x_clean,
    x_corrupt,
    mask,
    cfg: SplicConfig,
    tau: float | None = None,
    eta: float = 0.01,
) -> list[MethodResult]:
    """Run all four completers on (x_corrupt, mask) and score against x_clean.

    tau defaults to 0.05 times the top singular value of the masked input.
    Ranks of the two solver-based methods are measured on their rank-
    reduced surface; baseline ranks are measured on the returned matrix.
    """
    x_clean = np.asarray(x_clean, dtype=np.float64)
    if tau is None:
        masked = np.where(np.asarray(mask) == 1.0, np.asarray(x_corrupt), 0.0)
        tau = 0.05 * float(np.linalg.norm(masked, 2))

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
        results.append(
            MethodResult(
                method=method,
                psnr_db=psnr(completed, x_clean),
                rank=numerical_rank(surface, RANK_TOL),
                iters=iters,
                seconds=time.perf_counter() - start,
            )
        )
    return results


def comparison_rows(results) -> list[str]:
    """CSV rows (no header) for a list of MethodResult."""
    return [
        f"{r.method},{r.psnr_db!r},{r.rank},{r.iters},{r.seconds!r}" for r in results
    ]
