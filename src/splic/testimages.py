"""Deterministic synthetic test scenes and corruption helpers.

Scenes are composed from smooth separable pieces (ramps, Gaussian bumps,
soft-edged rectangles) and their spectrum is then remapped onto a fixed
geometric profile while keeping the scene's own singular vectors.  The
result looks like a soft natural image but has an exactly known low rank
(4: three remapped triplets plus the constant of the range
normalization) and a gap-free, quickly decaying spectrum, which makes
solver behaviour reproducible across the corpus.  The remap takes no
full SVD (see `make_test_image`), and sides must be at least 3.
Everything is a pure function of (index, shape), so fixtures and
experiments need no bundled assets.
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
    """Scene number `index`; `shape` is a side length or an (m, n) pair.

    Sides must be at least 3, since the remapped spectrum has three
    values.  The scene is a rank-3 product plus a constant, so its rank
    is 4 wherever both sides are at least 4, and its values run from 0.06
    to 0.94.

    Each remap pass needs only the scene's top three singular triplets,
    and every column of the scene lies in a known basis of at most six
    vectors: in pass 1 the row ramp, the constant and the row factors of
    the four separable pieces; in later passes the three kept left
    singular vectors and the constant.  With q an orthonormal basis of
    that span, the SVD of the small q.T @ scene gives the triplets
    (Halko, Martinsson & Tropp, SIAM Rev. 2011), at O(m n) cost per pass
    instead of the O(m n min(m, n)) of a full SVD.
    """
    m, n = _shape_pair(shape)
    if m < 3 or n < 3:
        raise ValueError(f"scene must be at least 3x3, got {m}x{n}")
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
    basis = [rows[:, 0], np.ones(m)]  # and each piece's fy: spans the columns
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
        basis.append(fy[:, 0])
    lo, hi = scene.min(), scene.max()
    scene = 0.2 + 0.6 * (scene - lo) / (hi - lo)

    # remap the spectrum onto the target ratios, keeping the scene's own
    # singular vectors; a few passes absorb the range renormalization
    profile = np.array([1.0, *SPECTRUM_RATIOS])
    for _ in range(3):
        q = np.linalg.qr(np.column_stack(basis))[0]
        u, sig, vt = np.linalg.svd(q.T @ scene, full_matrices=False)
        u = q @ u[:, :3]
        scene = (u * (sig[0] * profile)) @ vt[:3]
        lo, hi = scene.min(), scene.max()
        scene = 0.06 + 0.88 * (scene - lo) / (hi - lo)
        basis = [*u.T, np.ones(m)]
    return scene


def check_amplitude(amplitude: float):
    """Raise ValueError unless `add_uniform_noise` can draw at `amplitude`."""
    if not amplitude >= 0:
        raise ValueError(f"amplitude must be non-negative, got {amplitude}")
    # the sampler draws from a range of width 2 * amplitude
    if not math.isfinite(2.0 * float(amplitude)):
        raise ValueError(f"amplitude must be at most max float / 2, got {amplitude}")


def add_uniform_noise(x, amplitude: float, seed: int) -> np.ndarray:
    """Add uniform noise in [-amplitude, amplitude] and clip back to [0, 1]."""
    check_amplitude(amplitude)
    arr = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    noisy = arr + rng.uniform(-amplitude, amplitude, size=arr.shape)
    return np.clip(noisy, 0.0, 1.0)
