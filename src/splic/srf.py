"""Smoothed rank surrogate: a Gaussian relaxation of the matrix rank.

For singular values sigma_1..sigma_l the surrogate is
l - sum_k exp(-sigma_k^2 / (2 delta^2)).  It tends to the exact rank as
delta -> 0 and to zero as delta -> infinity, and is differentiable in the
matrix entries away from singular-value ties.
"""

from __future__ import annotations

import numpy as np

from .linalg import SvdFactors, as_matrix, svd


def _check_delta(delta: float) -> float:
    d = float(delta)
    if not (d > 0.0 and np.isfinite(d)):
        raise ValueError(f"delta must be a positive finite real, got {delta}")
    return d


def srf_value_from_sigma(sigma, delta: float) -> float:
    """Surrogate value from a vector of singular values."""
    d = _check_delta(delta)
    s = np.asarray(sigma, dtype=np.float64)
    return float(s.size - np.sum(np.exp(-(s**2) / (2.0 * d * d))))


def srf_value(x, delta: float) -> float:
    """Smoothed rank of a matrix; lies in [0, min(m, n)]."""
    return srf_value_from_sigma(svd(x).sigma, delta)


def srf_gradient(f: SvdFactors, delta: float) -> np.ndarray:
    """Gradient of the smoothed rank, assembled from precomputed factors.

    Entrywise it is U @ diag(sigma_k / delta^2 * exp(-sigma_k^2 / 2 delta^2)) @ V.T.
    Taking factors instead of a matrix lets callers reuse one SVD per step.
    At exact singular-value ties the same diagonal formula is applied; it
    is a valid subgradient choice there.
    """
    d = _check_delta(delta)
    s = f.sigma
    # guards: for extreme delta the exponent over/underflows; wherever the
    # exponential is 0 the product is 0 regardless of sigma/delta^2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e = np.exp(-(s**2) / (2.0 * d * d))
        raw = s / (d * d) * e
    g = np.where(e > 0.0, raw, 0.0)
    return (f.U * g) @ f.V.T


def srf_gradient_matrix(x, delta: float) -> np.ndarray:
    """Convenience wrapper computing the SVD internally."""
    return srf_gradient(svd(as_matrix(x)), delta)
