"""Deterministic random anchor masks.

Masks are plain float arrays with entries in {0.0, 1.0}; a 1 marks an
anchor pixel that the solver holds fixed.  Generation draws positions
uniformly without replacement from numpy's PCG64 generator seeded with a
64-bit integer, so a given (m, n, p, seed) always yields the same mask.
"""

from __future__ import annotations

import numpy as np


def round_half_up(x: float) -> int:
    """Round to nearest integer with ties going up (not banker's rounding)."""
    return int(np.floor(x + 0.5))


def generate_mask(m: int, n: int, p: float, seed: int) -> np.ndarray:
    """Exact-cardinality random mask: round_half_up(p*m*n) anchor cells.

    The count is exact rather than per-cell Bernoulli, which removes a
    variance source from downstream experiments; a count of 0 is an error.
    """
    if m < 1 or n < 1:
        raise ValueError(f"mask shape must be positive, got {m}x{n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"anchor fraction p must be in (0, 1], got {p}")
    k = round_half_up(p * m * n)
    if k == 0:
        raise ValueError(
            f"anchor_fraction {p} anchors 0 of {m * n} pixels; "
            "a completion needs at least one"
        )
    rng = np.random.default_rng(seed)
    idx = rng.permutation(m * n)[:k]
    bits = np.zeros(m * n, dtype=np.float64)
    bits[idx] = 1.0
    return bits.reshape(m, n)


def complement(mask) -> np.ndarray:
    """Entrywise 1 - mask; swaps the anchor and target sets."""
    return 1.0 - validate_mask(mask)


def validate_mask(mask, shape=None) -> np.ndarray:
    """The anchor booleans of a mask, checked to be 2-D, with entries in
    {0, 1}, of `shape` when given, and with an anchor: every completer
    calls it first, so it is the one place an anchorless mask is rejected."""
    arr = np.asarray(mask, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
    anchor = arr == 1.0
    if not np.all(anchor | (arr == 0.0)):
        raise ValueError("mask entries must all be 0 or 1")
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"mask shape {arr.shape} != image shape {tuple(shape)}")
    if not anchor.any():
        raise ValueError("mask has no anchor pixel; a completion needs at least one")
    return anchor
