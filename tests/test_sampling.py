import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splic.sampling import complement, generate_mask, round_half_up, validate_mask


def test_exact_count_example():
    mask = generate_mask(4, 4, 0.5, 123)
    assert mask.sum() == 8


def test_full_fraction_is_all_ones():
    assert np.array_equal(generate_mask(3, 5, 1.0, 0), np.ones((3, 5)))


def test_determinism():
    a = generate_mask(10, 7, 0.4, 99)
    b = generate_mask(10, 7, 0.4, 99)
    assert np.array_equal(a, b)
    c = generate_mask(10, 7, 0.4, 100)
    assert not np.array_equal(a, c)


@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(0.01, 1.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
@settings(deadline=None, max_examples=80)
def test_exact_cardinality(m, n, p, seed):
    count = round_half_up(p * m * n)
    if count == 0:  # rejected, naming the fraction and the count
        with pytest.raises(ValueError, match=f"anchor_fraction {p} anchors 0 of {m * n} pixels"):
            generate_mask(m, n, p, seed)
        return
    mask = generate_mask(m, n, p, seed)
    assert mask.shape == (m, n)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert int(mask.sum()) == count


def test_fraction_out_of_range_rejected():
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            generate_mask(4, 4, p, 0)


def test_complement_identity(rng):
    mask = generate_mask(6, 6, 0.5, 5)
    comp = complement(mask)
    assert np.array_equal(mask + comp, np.ones((6, 6)))


def test_complement_checkerboard():
    checker = np.indices((4, 4)).sum(axis=0) % 2.0
    assert np.array_equal(complement(checker), 1.0 - checker)


def test_validate_mask_rejects_non_binary():
    with pytest.raises(ValueError):
        validate_mask(np.full((3, 3), 0.5))


def test_uniformity_over_seeds():
    counts = np.zeros((8, 8))
    trials = 10_000
    for seed in range(trials):
        counts += generate_mask(8, 8, 0.5, seed)
    freq = counts / trials
    assert freq.min() >= 0.45
    assert freq.max() <= 0.55


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4) == 2
