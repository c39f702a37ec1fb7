"""Deterministic synthetic test scenes and corruption helpers.

Scenes are composed from smooth separable pieces (ramps, Gaussian bumps,
soft-edged rectangles) and their spectrum is then remapped onto a fixed
geometric profile while keeping the scene's own singular vectors.  The
result looks like a soft natural image but has an exactly known low rank
and a gap-free, quickly decaying spectrum, which makes solver behaviour
reproducible across the corpus.  Everything is a pure function of
(index, shape), so fixtures and experiments need no bundled assets.
"""

from __future__ import annotations

import math

import numpy as np

# relative sizes of the scene's singular values after the dominant one;
# the decay step roughly tracks the solver's default delta schedule
SPECTRUM_RATIOS = (0.32, 0.14)


def _axis(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def _bump(u: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-((u - center) ** 2) / (2.0 * width * width))


def _soft_edge(u: np.ndarray, edge: float, sharpness: float) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-(u - edge) * sharpness))


def _shape_pair(shape) -> tuple[int, int]:
    if isinstance(shape, int):
        return shape, shape
    m, n = shape
    return int(m), int(n)


def make_test_image(index: int, shape=32) -> np.ndarray:
    """Scene number `index`; `shape` is a side length or an (m, n) pair."""
    m, n = _shape_pair(shape)
    if m < 2 or n < 2:
        raise ValueError(f"scene must be at least 2x2, got {m}x{n}")
    rng = np.random.default_rng(911_000 + 7919 * index + 131 * (m * 1000 + n))
    rows = _axis(m)[:, None]
    cols = _axis(n)[None, :]

    scene = np.zeros((m, n))
    a, b = rng.uniform(0.1, 0.3, size=2)
    if rng.random() < 0.5:
        a = -a
    if rng.random() < 0.5:
        b = -b
    scene += a * rows + b * cols
    for _ in range(4):
        amp = rng.uniform(0.5, 1.0) * (1 if rng.random() < 0.7 else -1)
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        wy, wx = rng.uniform(0.12, 0.3, size=2)
        if rng.random() < 0.6:
            fy = _bump(rows, cy, wy)
            fx = _bump(cols, cx, wx)
        else:
            sy, sx = rng.uniform(6.0, 11.0, size=2)
            fy = _soft_edge(rows, cy - wy, sy) - _soft_edge(rows, cy + wy, sy)
            fx = _soft_edge(cols, cx - wx, sx) - _soft_edge(cols, cx + wx, sx)
        scene += amp * fy * fx
    lo, hi = scene.min(), scene.max()
    scene = 0.2 + 0.6 * (scene - lo) / (hi - lo)

    # remap the spectrum onto the target ratios, keeping the scene's own
    # singular vectors; a few passes absorb the range renormalization
    for _ in range(3):
        u, sig, vt = np.linalg.svd(scene, full_matrices=False)
        remapped = np.zeros_like(sig)
        remapped[0] = sig[0]
        for k, r in enumerate(SPECTRUM_RATIOS):
            remapped[k + 1] = sig[0] * r
        scene = (u * remapped) @ vt
        lo, hi = scene.min(), scene.max()
        scene = 0.06 + 0.88 * (scene - lo) / (hi - lo)
    return scene


def balanced_low_rank(m: int, n: int, rank: int, seed: int = 0) -> np.ndarray:
    """Exact rank-`rank` matrix in [0, 1] without a dominant spectral gap.

    Built as a mid-grey plane plus rank-1 products of smooth sinusoids
    with comparable weights; useful as recoverable ground truth.
    """
    if rank < 1 or rank > min(m, n):
        raise ValueError(f"rank must be in [1, {min(m, n)}], got {rank}")
    rng = np.random.default_rng(402_000 + 104_729 * seed + rank)
    ty = np.linspace(0.0, 1.0, m)
    tx = np.linspace(0.0, 1.0, n)
    out = np.full((m, n), 0.5)
    for k in range(rank - 1):
        fy, fx = rng.uniform(0.5, 2.0, size=2)
        py, px = rng.uniform(0.0, 2 * np.pi, size=2)
        weight = 0.12 * (0.85**k)
        out += weight * np.outer(
            np.sin(2 * np.pi * fy * ty + py), np.sin(2 * np.pi * fx * tx + px)
        )
    return np.clip(out, 0.0, 1.0)


def add_uniform_noise(x, amplitude: float, seed: int) -> np.ndarray:
    """Add uniform noise in [-amplitude, amplitude] and clip back to [0, 1]."""
    if not amplitude >= 0:
        raise ValueError(f"amplitude must be non-negative, got {amplitude}")
    # the sampler draws from a range of width 2 * amplitude
    if not math.isfinite(2.0 * float(amplitude)):
        raise ValueError(f"amplitude must be at most max float / 2, got {amplitude}")
    arr = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    noisy = arr + rng.uniform(-amplitude, amplitude, size=arr.shape)
    return np.clip(noisy, 0.0, 1.0)
