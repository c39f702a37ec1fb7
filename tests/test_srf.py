import warnings

import numpy as np
import pytest

from conftest import finite_difference_gradient, random_orthogonal
from splic.linalg import SvdFactors, svd
from splic.srf import srf_gradient, srf_value_from_sigma


def test_zero_matrix_has_zero_value():
    assert srf_value_from_sigma(svd(np.zeros((3, 3))).sigma, 1.0) == 0.0


def test_value_direct_evaluation():
    # sigma = (3, 0), delta = 3: 1 - exp(-1/2)
    v = srf_value_from_sigma(svd(np.diag([3.0, 0.0])).sigma, 3.0)
    assert v == pytest.approx(1.0 - np.exp(-0.5), abs=1e-12)
    assert v == pytest.approx(0.393469, abs=1e-6)


def test_value_small_delta_counts_rank():
    sigma = svd(np.diag([5.0, 2.0, 0.0])).sigma
    assert srf_value_from_sigma(sigma, 1e-3) == pytest.approx(2.0, abs=1e-6)


def test_value_bounds(rng):
    for _ in range(10):
        m, n = rng.integers(2, 9, size=2)
        x = rng.uniform(-1, 1, size=(m, n))
        delta = float(rng.uniform(0.05, 5.0))
        v = srf_value_from_sigma(svd(x).sigma, delta)
        assert 0.0 <= v <= min(m, n)


def test_orthogonal_invariance(rng):
    x = rng.uniform(size=(6, 5))
    base = srf_value_from_sigma(svd(x).sigma, 1.3)
    for _ in range(5):
        q = random_orthogonal(6, rng)
        r = random_orthogonal(5, rng)
        rotated = svd(q @ x @ r).sigma
        assert srf_value_from_sigma(rotated, 1.3) == pytest.approx(base, abs=1e-9)


def test_monotone_limits(rng):
    k0 = 3
    x = rng.standard_normal((8, k0)) @ rng.standard_normal((k0, 8))
    sigma = svd(x).sigma
    assert srf_value_from_sigma(sigma, 1e-4 * sigma[k0 - 1]) == pytest.approx(k0, abs=1e-3)
    assert srf_value_from_sigma(sigma, 1e6 * sigma[0]) == pytest.approx(0.0, abs=1e-9)


def test_gradient_zero_matrix():
    f = svd(np.zeros((3, 4)))
    assert np.array_equal(srf_gradient(f, 1.0), np.zeros((3, 4)))


def test_gradient_direct_evaluation():
    g = srf_gradient(svd(np.diag([2.0, 1.0])), 1.0)
    expected = np.diag([2.0 * np.exp(-2.0), np.exp(-0.5)])
    assert np.allclose(g, expected, atol=1e-12)
    assert g[0, 0] == pytest.approx(0.270671, abs=1e-6)
    assert g[1, 1] == pytest.approx(0.606531, abs=1e-6)


def test_gradient_matches_finite_differences(rng):
    x = rng.uniform(size=(6, 6))
    delta = float(np.linalg.norm(x, 2))
    g = srf_gradient(svd(x), delta)
    fd = finite_difference_gradient(
        lambda z: srf_value_from_sigma(svd(z).sigma, delta), x
    )
    assert np.abs(g - fd).max() < 1e-6


def test_gradient_finite_difference_relative_error(rng):
    for _ in range(5):
        x = rng.uniform(size=(6, 6))
        top = float(np.linalg.norm(x, 2))
        for mult in (0.5, 1.0, 2.0):
            delta = mult * top
            g = srf_gradient(svd(x), delta)
            fd = finite_difference_gradient(
                lambda z: srf_value_from_sigma(svd(z).sigma, delta), x
            )
            rel = np.abs(g - fd).max() / np.abs(fd).max()
            assert rel < 1e-5


def test_gradient_survives_tiny_delta():
    # exponent underflow must yield zeros, not NaN
    g = srf_gradient(svd(np.diag([2.0, 1.0])), 1e-200)
    assert np.all(np.isfinite(g))
    assert np.array_equal(g, np.zeros((2, 2)))


def test_rejects_bad_delta():
    x = np.eye(3)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            srf_value_from_sigma(svd(x).sigma, bad)


def test_srf_on_a_stack_uses_each_matrix_delta(rng):
    x = rng.uniform(size=(3, 9, 6))
    deltas = np.array([0.3, 1.0, 4.0])
    f = svd(x, rank=4)
    grads = srf_gradient(f, deltas)
    values = srf_value_from_sigma(f.sigma, deltas)
    assert grads.shape == x.shape and values.shape == (3,)
    for j in range(3):
        alone = svd(x[j], rank=4)
        assert np.array_equal(grads[j], srf_gradient(alone, deltas[j]))
        assert values[j] == srf_value_from_sigma(alone.sigma, deltas[j])
    with pytest.raises(ValueError, match="delta"):
        srf_gradient(f, np.array([1.0, 0.0, 1.0]))


def test_large_delta_where_two_delta_squared_overflows():
    # 2 delta^2 overflows above delta = 9.5e153, inside the solver's limit:
    # the value read NaN and the first gradient entry 0
    sigma = np.array([1.5e154, 0.5e154])
    delta = 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = srf_value_from_sigma(sigma, delta)
        g = srf_gradient(SvdFactors(np.eye(2), sigma, np.eye(2)), delta)
    ratio = sigma / delta
    assert value == pytest.approx(2.0 - np.exp(-0.5 * ratio**2).sum(), rel=1e-14)
    assert value == pytest.approx(0.7929, abs=1e-4)
    expected = ratio / delta * np.exp(-0.5 * ratio**2)
    assert np.allclose(np.diag(g), expected, rtol=1e-14, atol=0.0)
    assert np.allclose(np.diag(g), [4.87e-155, 4.41e-155], rtol=1e-3, atol=0.0)


def test_value_and_gradient_unchanged_where_the_squares_are_finite(rng):
    # the overflow fallback must not move a single bit where sigma^2 and
    # 2 delta^2 are finite, however their quotient over- or underflows
    s = 10.0 ** rng.uniform(-200.0, 153.9, (2000, 3))
    s[::5, 0] = 0.0
    d = (10.0 ** rng.uniform(-160.0, 153.9, 2000))[:, None]
    with np.errstate(all="ignore"):
        e = np.exp(-(s**2) / (2.0 * d * d))
        raw = s / (d * d) * e
    assert np.all(np.isfinite(s**2)) and np.all(np.isfinite(2.0 * d * d))
    eye = np.broadcast_to(np.eye(3), (2000, 3, 3))
    g = srf_gradient(SvdFactors(eye, s, eye), d[:, 0])
    assert np.array_equal(srf_value_from_sigma(s, d[:, 0]), 3 - e.sum(axis=-1))
    assert np.array_equal(np.diagonal(g, axis1=-2, axis2=-1), np.where(e > 0.0, raw, 0.0))
