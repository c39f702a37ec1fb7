import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_gradient
from splic.tv import tv_gradient, tv_gradient_forward, tv_value

small_matrices = st.integers(2, 6).flatmap(
    lambda m: st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=m * n, max_size=m * n
        ).map(lambda v: np.array(v).reshape(m, n))
    )
)


def test_constant_matrix_value_zero():
    assert tv_value(np.full((4, 4), 0.7)) == 0.0


def test_value_hand_computed():
    assert tv_value([[0.0, 1.0], [2.0, 3.0]]) == pytest.approx(5.0, abs=1e-12)
    assert tv_value([[0.0, 2.0], [0.0, 2.0]]) == pytest.approx(4.0, abs=1e-12)


def test_value_positive_iff_not_constant(rng):
    x = rng.uniform(size=(5, 5))
    assert tv_value(x) > 0.0


@given(small_matrices, st.floats(-3, 3, allow_nan=False))
@settings(deadline=None, max_examples=60)
def test_shift_invariance(x, c):
    assert tv_value(x + c) == pytest.approx(tv_value(x), abs=1e-10)


def test_gradient_constant_is_zero():
    c = np.full((4, 5), 0.3)
    assert np.array_equal(tv_gradient(c), np.zeros((4, 5)))
    assert np.array_equal(tv_gradient_forward(c), np.zeros((4, 5)))


def test_gradient_exact_hand_computed():
    g = tv_gradient([[0.0, 1.0], [2.0, 3.0]])
    assert np.allclose(g, [[-3.0, -1.0], [1.0, 3.0]], atol=1e-12)


def test_gradient_forward_hand_computed():
    g = tv_gradient_forward([[0.0, 1.0], [2.0, 3.0]])
    assert np.allclose(g, [[-3.0, -2.0], [-1.0, 0.0]], atol=1e-12)
    g2 = tv_gradient_forward([[0.0, 2.0], [0.0, 2.0]])
    assert np.allclose(g2, [[-2.0, 0.0], [-2.0, 0.0]], atol=1e-12)


def test_gradient_exact_matches_finite_differences(rng):
    x = rng.uniform(size=(6, 6))
    g = tv_gradient(x)
    fd = finite_difference_gradient(tv_value, x)
    assert np.abs(g - fd).max() < 1e-7
    assert abs(g.sum()) < 1e-12


@given(small_matrices)
@settings(deadline=None, max_examples=40)
def test_gradient_exact_sums_to_zero(x):
    scale = max(1.0, np.abs(x).max())
    assert abs(tv_gradient(x).sum()) < 1e-10 * scale * x.size


def _backward_field(x):
    """Contributions the forward variant drops: differences in which each
    pixel is the subtracted neighbour."""
    x = np.asarray(x, dtype=np.float64)
    b = np.zeros_like(x)
    b[1:, :] += x[1:, :] - x[:-1, :]
    b[:, 1:] += x[:, 1:] - x[:, :-1]
    return b


def test_forward_variant_drops_exactly_backward_terms(rng):
    for _ in range(5):
        x = rng.uniform(size=(5, 7))
        diff = tv_gradient(x) - tv_gradient_forward(x)
        assert np.allclose(diff, _backward_field(x), atol=1e-12)


def test_variants_agree_where_backward_terms_vanish():
    # rows constant, one jump between rows 2 and 3: backward contributions
    # vanish everywhere except row 3
    x = np.ones((4, 4))
    x[2:, :] = 2.0
    exact = tv_gradient(x)
    forward = tv_gradient_forward(x)
    vanishing = _backward_field(x) == 0.0
    assert np.array_equal(exact[vanishing], forward[vanishing])
    assert not np.array_equal(exact, forward)


def test_variants_differ_in_general(rng):
    x = rng.uniform(size=(5, 5))
    assert not np.allclose(tv_gradient(x), tv_gradient_forward(x))


def test_degenerate_dimensions_rejected():
    for fn in (tv_value, tv_gradient, tv_gradient_forward):
        with pytest.raises(ValueError):
            fn(np.ones((1, 5)))


def test_tv_on_a_stack_equals_each_matrix_alone():
    x = np.random.default_rng(3).uniform(size=(3, 40, 24))
    values = tv_value(x)
    assert values.shape == (3,)
    for fn in (tv_gradient, tv_gradient_forward):
        g = fn(x)
        for j in range(3):
            assert np.array_equal(g[j], fn(x[j]))
    for j in range(3):
        # one pairwise sum over each whole difference array, as for a plane
        dv = np.diff(x[j], axis=0).ravel()
        dh = np.diff(x[j], axis=1).ravel()
        assert values[j] == tv_value(x[j]) == 0.5 * (np.sum(dv * dv) + np.sum(dh * dh))
