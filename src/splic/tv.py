"""Quadratic total-variation roughness penalty and its two gradient variants.

The penalty sums half-squared forward differences along both axes.  Two
gradients are provided: `tv_gradient` is the true derivative of
`tv_value`; `tv_gradient_forward` is a one-sided variant that keeps only
the terms in which a pixel is the minuend (it drops backward-neighbour
contributions, so its entries do not sum to zero).  The solver selects
between them via `tv_mode` ("exact" / "paper").

All three take a (..., m, n) stack in numpy's gufunc style and treat each
matrix as on its own; `tv_value` then returns one value per matrix.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_stack


def tv_value(x):
    """Sum of half-squared forward differences along rows and columns.
    Its domain is inputs whose squares are finite."""
    arr = as_stack(x)
    axes = (-2, -1)
    # one difference array at a time, squared in place
    d = arr[..., :-1, :] - arr[..., 1:, :]
    vertical = np.square(d, out=d).sum(axis=axes)
    del d
    d = arr[..., :, :-1] - arr[..., :, 1:]
    value = 0.5 * (vertical + np.square(d, out=d).sum(axis=axes))
    return float(value) if value.ndim == 0 else value


def tv_gradient(x) -> np.ndarray:
    """Exact gradient of tv_value; its entries sum to zero.

    Every forward difference d = a - b contributes +d to the gradient at
    a and -d at b, which is what makes the total shift-invariant.
    """
    arr = as_stack(x)
    g = np.zeros_like(arr)
    # one difference array at a time, so at most two full-size arrays live
    d = arr[..., :-1, :] - arr[..., 1:, :]
    g[..., :-1, :] += d
    g[..., 1:, :] -= d
    del d
    d = arr[..., :, :-1] - arr[..., :, 1:]
    g[..., :, :-1] += d
    g[..., :, 1:] -= d
    return g


def tv_gradient_forward(x) -> np.ndarray:
    """One-sided gradient variant (selectable as tv_mode="paper").

    Interior pixels get 2x[i,j] - x[i+1,j] - x[i,j+1]; the last row and
    column keep only their surviving forward difference.  The corner pixel
    has no forward neighbour in either direction and is set to 0, the only
    choice that reads no out-of-range neighbour.
    """
    arr = as_stack(x)
    g = np.zeros_like(arr)
    g[..., :-1, :-1] = 2.0 * arr[..., :-1, :-1] - arr[..., 1:, :-1] - arr[..., :-1, 1:]
    g[..., -1, :-1] = arr[..., -1, :-1] - arr[..., -1, 1:]
    g[..., :-1, -1] = arr[..., :-1, -1] - arr[..., 1:, -1]
    return g
