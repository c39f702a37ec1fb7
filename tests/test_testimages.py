"""The corpus stays pinned to its full-SVD definition.

`make_test_image` takes each remap pass's top triplets from the scene's
known column basis; `_reference_scene` is the same scene built with a
full SVD of the whole matrix in every pass, the reference the fast path
is checked against.
"""

import numpy as np
import pytest

from splic.linalg import numerical_rank
from splic.testimages import SPECTRUM_RATIOS, make_test_image


def _reference_scene(index: int, m: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(911_000 + 7919 * index + 131 * (m * 1000 + n))
    rows = np.linspace(0.0, 1.0, m)[:, None]
    cols = np.linspace(0.0, 1.0, n)[None, :]

    def bump(u, center, width):
        return np.exp(-((u - center) ** 2) / (2.0 * width * width))

    def soft_edge(u, edge, sharpness):
        return 1.0 / (1.0 + np.exp(-(u - edge) * sharpness))

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
            fy = bump(rows, cy, wy)
            fx = bump(cols, cx, wx)
        else:
            sy, sx = rng.uniform(6.0, 11.0, size=2)
            fy = soft_edge(rows, cy - wy, sy) - soft_edge(rows, cy + wy, sy)
            fx = soft_edge(cols, cx - wx, sx) - soft_edge(cols, cx + wx, sx)
        scene += amp * fy * fx
    lo, hi = scene.min(), scene.max()
    scene = 0.2 + 0.6 * (scene - lo) / (hi - lo)

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


SHAPES = [(3, 3), (3, 40), (16, 16), (24, 24), (20, 28), (24, 40), (64, 128), (96, 96), (128, 128)]
CASES = [(shape, range(32)) for shape in SHAPES] + [((256, 256), range(4))]


@pytest.mark.parametrize(
    "shape, indices", CASES, ids=[f"{m}x{n}" for (m, n), _ in CASES]
)
def test_scenes_match_the_full_svd_reference(shape, indices):
    m, n = shape
    for index in indices:
        scene = make_test_image(index, shape)
        assert scene.shape == shape
        assert np.abs(scene - _reference_scene(index, m, n)).max() <= 1e-12
        assert abs(scene.min() - 0.06) <= 1e-15
        assert abs(scene.max() - 0.94) <= 1e-15
        if min(m, n) >= 4:
            assert numerical_rank(scene, 1e-10) == 4
        s = np.linalg.svd(scene, compute_uv=False)
        assert 0.2 <= s[1] / s[0] <= 0.37
        assert 0.09 <= s[2] / s[0] <= 0.16


@pytest.mark.parametrize("shape", [(2, 5), (5, 2), (2, 2)], ids=["2x5", "5x2", "2x2"])
def test_a_side_below_three_is_rejected(shape):
    m, n = shape
    with pytest.raises(ValueError, match=f"scene must be at least 3x3, got {m}x{n}"):
        make_test_image(0, shape)

