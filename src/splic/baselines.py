"""Reference completers used for comparison: iterative and one-shot
singular-value thresholding, and the TV-free run of the main solver."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .linalg import SvdFactors, as_matrix, reconstruct, residual_ok, svd, warm_rank
from .sampling import validate_mask
from .solver import CompletionResult, SplicConfig, relative_change, splic_complete


def check_nonnegative(name: str, value: float):
    """Raise ValueError unless `value` is >= 0 (NaN is not)."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def soft_threshold_singular(f: SvdFactors, tau: float) -> np.ndarray:
    """Shrink every singular value by tau (clamped at zero) and rebuild."""
    check_nonnegative("tau", tau)
    return reconstruct(f, np.maximum(f.sigma - tau, 0.0))


SOFT_IMPUTE_ITERS = 200  # soft-impute's iteration budget
SOFT_IMPUTE_TOL = 1e-7  # the normalized change below which soft-impute stops


def soft_impute_with_count(x, mask, tau: float | None = None):
    """Fixed-point completion Z <- SVT_tau(M*X + (1-M)*Z).

    Starts from the zero-filled observed matrix and stops when the
    normalized change drops below SOFT_IMPUTE_TOL or after
    SOFT_IMPUTE_ITERS iterations; returns the completion and the number
    of iterations performed.  Observed entries of the result are NOT
    forced back to X (soft completion).  tau defaults to 0.05 times the
    top singular value of that start, and is checked before the first SVD.

    Each SVT needs only the triplets with sigma > tau.  The first
    iteration takes them from the rank path of `svd` at full rank, which
    resolves them to about eps * sigma_1^2 / tau.  When an SVT keeps k
    triplets and `linalg.warm_rank` gives a block width q for them, the
    next iteration starts from their q right vectors instead: one block
    power step, the warm path of `svd` (Mazumder, Hastie & Tibshirani, JMLR
    2010).  Its q Ritz triplets are accepted only if the last one lies at
    or below tau, so the block reaches past every kept triplet, and the
    kept ones (the top one if none is kept) pass the residual check of
    `linalg.residual_ok`; otherwise that iteration takes the full-rank
    path.  The warm path moves the result by more than rounding (about
    1e-6 on noisy 128^2 scenes); its accuracy against the full-rank path
    is gated by a test.
    """
    arr = as_matrix(x)
    observed = validate_mask(mask, arr.shape)
    z = np.where(observed, arr, 0.0)
    if tau is None:
        tau = 0.05 * float(np.linalg.norm(z, 2))
    check_nonnegative("tau", tau)
    basis = None
    for done in range(1, SOFT_IMPUTE_ITERS + 1):
        f, basis = _svt_triplets(np.where(observed, arr, z), tau, basis)
        z, z_prev = soft_threshold_singular(f, tau), z
        if relative_change(z, z_prev) < SOFT_IMPUTE_TOL:
            break
    return z, done


def _svt_triplets(filled, tau, basis):
    """The triplets of `filled` with sigma > tau, and the q right vectors
    that warm-start the next iteration: None where `warm_rank` gives no q,
    or where a warm block holds fewer than q (the kept count grew).

    basis=None, or a warm block that fails its checks, takes the rank path
    at full rank; see `soft_impute_with_count`."""
    f = None
    if basis is not None:
        f = svd(filled, rank=basis.shape[-1], start=basis)
        kept = int(np.count_nonzero(f.sigma > tau))
        if not (f.sigma[-1] <= tau and residual_ok(filled, f.top(max(kept, 1)))):
            f = None
    if f is None:
        f = svd(filled, rank=min(filled.shape))
        kept = int(np.count_nonzero(f.sigma > tau))
    q = warm_rank(kept, *filled.shape)
    return f.top(kept), (f.V[:, :q] if q is not None and q <= f.l else None)


USVT_ETA = 0.01  # the margin of `usvt`'s threshold, and every caller's default eta


def usvt(x, mask, eta: float = USVT_ETA) -> np.ndarray:
    """One-shot spectral completion.

    Scales the zero-filled observation by the inverse observed fraction,
    keeps only singular values above (1 + eta) * sqrt(n * p_hat), and
    clips the rebuilt matrix to [0, 1].
    """
    check_nonnegative("eta", eta)
    arr = as_matrix(x)
    observed = validate_mask(mask, arr.shape)
    p_hat = float(np.mean(observed))
    n = arr.shape[1]
    scaled = np.where(observed, arr, 0.0) / p_hat
    f = svd(scaled)
    threshold = (1.0 + eta) * np.sqrt(n * p_hat)
    kept = np.where(f.sigma >= threshold, f.sigma, 0.0)
    return np.clip(reconstruct(f, kept), 0.0, 1.0)


def srf_only(x, mask, cfg: SplicConfig) -> CompletionResult:
    """The main solver with the TV weight forced to zero (rank term only)."""
    return splic_complete(x, mask, replace(cfg, lam=0.0))
