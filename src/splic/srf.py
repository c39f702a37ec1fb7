"""Smoothed rank surrogate: a Gaussian relaxation of the matrix rank.

For singular values sigma_1..sigma_l the surrogate is
l - sum_k exp(-sigma_k^2 / (2 delta^2)).  It tends to the exact rank as
delta -> 0 and to zero as delta -> infinity, and is differentiable in the
matrix entries away from singular-value ties.

`srf_value_from_sigma` and `srf_gradient` also take stacks, in numpy's
gufunc style: sigma of shape (..., l) with delta a scalar or of shape
(...), one delta per matrix.
"""

from __future__ import annotations

import numpy as np

from .linalg import SvdFactors


def _check_delta(delta) -> np.ndarray:
    """delta as an array with a trailing axis, to broadcast against sigma."""
    d = np.asarray(delta, dtype=np.float64)
    # a NaN fails the first test, +inf the second
    if not (d.min() > 0.0 and d.max() < np.inf):
        raise ValueError(f"delta must be a positive finite real, got {delta}")
    return d[..., None]


def _exponent(s, d) -> np.ndarray:
    """-sigma^2 / (2 delta^2), from the squares where both are finite, else
    from (sigma / delta)^2, as 2 delta^2 overflows above delta = 9.5e153;
    below delta = 3e152 an overflowing sigma^2 gives exp(...) = 0 either way."""
    s2, dd2 = s**2, 2.0 * d * d
    z = -s2 / dd2
    if d.max() > 3e152:
        z = np.where(np.isfinite(s2) & np.isfinite(dd2), z, -0.5 * (s / d) ** 2)
    return z


def srf_value_from_sigma(sigma, delta):
    """Surrogate value from a vector of singular values; an array of
    values for a (..., l) stack of them."""
    d = _check_delta(delta)
    s = np.asarray(sigma, dtype=np.float64)
    # guards as in srf_gradient: for a tiny delta the exponent overflows
    # to -inf and the term is 0, the limit the surrogate tends to (delta^2
    # itself must not underflow, or sigma = 0 gives 0 / 0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = s.shape[-1] - np.exp(_exponent(s, d)).sum(axis=-1)
    return float(value) if value.ndim == 0 else value


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
        e = np.exp(_exponent(s, d))
        raw = s / (d * d) * e
        if d.max() > 1.3e154:  # delta^2 overflows
            raw = np.where(np.isfinite(d * d), raw, s / d / d * e)
    g = np.where(e > 0.0, raw, 0.0)
    return (f.U * g[..., None, :]) @ np.swapaxes(f.V, -1, -2)
