"""Smoothed rank surrogate: a Gaussian relaxation of the matrix rank.

For singular values sigma_1..sigma_l the surrogate is
l - sum_k exp(-sigma_k^2 / (2 delta^2)).  It tends to the exact rank as
delta -> 0 and to zero as delta -> infinity, and is differentiable in the
matrix entries away from singular-value ties.

`srf_value_from_sigma` and `srf_gradient` also take stacks, in numpy's
gufunc style: sigma of shape (..., l) with delta a scalar or of shape
(...), one delta per matrix.  Their domain is sigma and delta whose
squares are finite.
"""

from __future__ import annotations

import numpy as np

from .linalg import SvdFactors, reconstruct


def _gaussian(s: np.ndarray, delta):
    """exp(-s^2 / (2 delta^2)), and delta, checked, as an array with a
    trailing axis to broadcast against s.  For a tiny delta the exponent
    overflows to -inf and the term is 0, the limit the surrogate tends to
    (delta^2 itself must not underflow, or sigma = 0 gives 0 / 0)."""
    d = np.asarray(delta, dtype=np.float64)
    # a NaN fails the first test, +inf the second
    if not (d.min() > 0.0 and d.max() < np.inf):
        raise ValueError(f"delta must be a positive finite real, got {delta}")
    d = d[..., None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.exp(-(s**2) / (2.0 * d * d)), d


def srf_value_from_sigma(sigma, delta):
    """Surrogate value from a vector of singular values; an array of
    values for a (..., l) stack of them."""
    s = np.asarray(sigma, dtype=np.float64)
    value = s.shape[-1] - _gaussian(s, delta)[0].sum(axis=-1)
    return float(value) if value.ndim == 0 else value


def srf_gradient(f: SvdFactors, delta: float) -> np.ndarray:
    """Gradient of the smoothed rank, assembled from precomputed factors.

    Entrywise it is U @ diag(sigma_k / delta^2 * exp(-sigma_k^2 / 2 delta^2)) @ V.T,
    rebuilt by `linalg.reconstruct`.  Taking factors instead of a matrix
    lets callers reuse one SVD per step.  At exact singular-value ties the
    same diagonal formula is applied; it is a valid subgradient choice there.
    """
    s = f.sigma
    e, d = _gaussian(s, delta)
    # wherever the exponential is 0 the product is 0 regardless of
    # sigma / delta^2, which may overflow for a tiny delta
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        raw = s / (d * d) * e
    return reconstruct(f, np.where(e > 0.0, raw, 0.0))
