"""Reference completers used for comparison: iterative and one-shot
singular-value thresholding, and the TV-free run of the main solver."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .linalg import SvdFactors, as_matrix, reconstruct, svd
from .sampling import validate_mask
from .solver import CompletionResult, SplicConfig, relative_change, splic_complete


def soft_threshold_singular(f: SvdFactors, tau: float) -> np.ndarray:
    """Shrink every singular value by tau (clamped at zero) and rebuild."""
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    return reconstruct(f, np.maximum(f.sigma - tau, 0.0))


def soft_impute(x, mask, tau: float, iters: int = 200, tol: float = 1e-7) -> np.ndarray:
    """Fixed-point completion Z <- SVT_tau(M*X + (1-M)*Z).

    Starts from the zero-filled observed matrix and stops when the
    normalized change drops below tol or the budget runs out.  Observed
    entries of the result are NOT forced back to X (soft completion).
    """
    z, _ = soft_impute_with_count(x, mask, tau, iters, tol)
    return z


def soft_impute_with_count(x, mask, tau, iters=200, tol=1e-7):
    """soft_impute plus the number of iterations actually performed."""
    arr = as_matrix(x)
    m_bits = validate_mask(mask)
    if m_bits.shape != arr.shape:
        raise ValueError(f"mask shape {m_bits.shape} != image shape {arr.shape}")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    observed = m_bits == 1.0
    z = np.where(observed, arr, 0.0)
    done = 0
    for _ in range(iters):
        filled = np.where(observed, arr, z)
        # SVT keeps only the triplets with sigma > tau, which the Gram rank
        # path resolves to about eps * sigma_1^2 / tau
        z_next = soft_threshold_singular(svd(filled, rank=min(arr.shape)), tau)
        done += 1
        if relative_change(z_next, z) < tol:
            z = z_next
            break
        z = z_next
    return z, done


def usvt(x, mask, eta: float = 0.01) -> np.ndarray:
    """One-shot spectral completion.

    Scales the zero-filled observation by the inverse observed fraction,
    keeps only singular values above (1 + eta) * sqrt(n * p_hat), and
    clips the rebuilt matrix to [0, 1].
    """
    if eta < 0:
        raise ValueError(f"eta must be non-negative, got {eta}")
    arr = as_matrix(x)
    m_bits = validate_mask(mask)
    if m_bits.shape != arr.shape:
        raise ValueError(f"mask shape {m_bits.shape} != image shape {arr.shape}")
    p_hat = float(np.mean(m_bits))
    if p_hat == 0.0:
        raise ValueError("mask has no observed entries")
    n = arr.shape[1]
    scaled = np.where(m_bits == 1.0, arr, 0.0) / p_hat
    f = svd(scaled)
    threshold = (1.0 + eta) * np.sqrt(n * p_hat)
    kept = np.where(f.sigma >= threshold, f.sigma, 0.0)
    return np.clip(reconstruct(f, kept), 0.0, 1.0)


def srf_only(x, mask, cfg: SplicConfig, on_iteration=None) -> CompletionResult:
    """The main solver with the TV weight forced to zero (rank term only)."""
    return splic_complete(x, mask, replace(cfg, lam=0.0), on_iteration=on_iteration)
