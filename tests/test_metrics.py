import math

import numpy as np
import pytest

from splic.metrics import (
    METHOD_NAMES,
    compare_methods,
    comparison_rows,
    psnr,
)
from splic.linalg import svd
from splic.sampling import generate_mask
from splic.solver import SplicConfig
from splic.testimages import balanced_low_rank


def test_psnr_identical_is_infinite(rng):
    x = rng.uniform(size=(5, 5))
    assert psnr(x, x) == math.inf


def test_psnr_hand_values():
    a = np.zeros((4, 4))
    assert psnr(a, np.full((4, 4), 0.5)) == pytest.approx(6.0206, abs=1e-4)
    assert psnr(a, np.full((4, 4), 0.1)) == pytest.approx(20.0, abs=1e-9)


def test_psnr_symmetric_and_monotone(rng):
    a = rng.uniform(size=(6, 6))
    b = rng.uniform(size=(6, 6))
    assert psnr(a, b) == psnr(b, a)
    closer = a + 0.01
    farther = a + 0.05
    assert psnr(a, closer) > psnr(a, farther)


def test_psnr_pools_channels(rng):
    a = rng.uniform(size=(3, 4, 4))
    b = a + 0.1
    expected = 10 * math.log10(1.0 / np.mean((a - b) ** 2))
    assert psnr(a, b) == pytest.approx(expected)


def test_psnr_validation(rng):
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 2)), peak=0.0)


def test_nuclear_norm_values():
    assert svd(np.zeros((3, 3))).sigma.sum() == 0.0
    assert svd(np.eye(4)).sigma.sum() == pytest.approx(4.0)
    assert svd(np.diag([3.0, 1.0])).sigma.sum() == pytest.approx(4.0)


def test_nuclear_norm_inequalities(rng):
    for _ in range(5):
        x = rng.uniform(-1, 1, size=(6, 4))
        top = float(np.linalg.norm(x, 2))
        assert svd(x).sigma.sum() >= top - 1e-12
        assert top >= np.linalg.norm(x, "fro") / np.sqrt(4) - 1e-12


def _identity_limit_image():
    # low-rank clean image whose nonzero singular values all clear the
    # one-shot threshold (1 + eta) * sqrt(n * p_hat) at full observation
    t = np.linspace(0.0, 1.0, 32)
    s1 = np.sin(2 * np.pi * t)
    img = 0.54 + 0.44 * np.outer(s1, s1)
    assert img.min() >= 0.0 and img.max() <= 1.0
    sigma = np.linalg.svd(img, compute_uv=False)
    assert sigma[1] > 1.01 * np.sqrt(32) and sigma[2] < 1e-12
    return img


def test_compare_methods_identity_limit():
    clean = _identity_limit_image()
    mask = np.ones((32, 32))
    records = compare_methods(clean, clean, mask, SplicConfig(), tau=0.0)
    for rec in records:
        assert rec.psnr_db == math.inf or rec.psnr_db >= 60.0


def test_compare_methods_low_rank_instance():
    clean = balanced_low_rank(64, 64, 4, 0)
    mask = generate_mask(64, 64, 0.5, 1)
    records = compare_methods(clean, clean, mask, SplicConfig(r=8))
    by_name = {rec.method: rec for rec in records}
    assert by_name["splic"].psnr_db > 35.0


def test_compare_methods_record_contract():
    clean = balanced_low_rank(32, 32, 3, 1)
    mask = generate_mask(32, 32, 0.5, 2)
    records = compare_methods(clean, clean, mask, SplicConfig())
    assert [rec.method for rec in records] == list(METHOD_NAMES)
    assert len(records) == 4
    for rec in records:
        assert math.isfinite(rec.seconds) and rec.seconds >= 0.0
        assert rec.iters >= 1
        assert rec.rank >= 0


def test_comparison_rows_serialize_inf_as_literal():
    clean = _identity_limit_image()
    records = compare_methods(clean, clean, np.ones((32, 32)), SplicConfig(), tau=0.0)
    rows = comparison_rows(records)
    assert any(",inf," in row for row in rows)
    assert all(row.count(",") == 4 for row in rows)
