import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_qr_svd
from splic.linalg import as_matrix, numerical_rank, reconstruct, svd

matrices = st.integers(2, 8).flatmap(
    lambda m: st.integers(2, 8).flatmap(
        lambda n: st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=m * n, max_size=m * n
        ).map(lambda v: np.array(v).reshape(m, n))
    )
)


def test_svd_identity_singular_values():
    f = svd(np.eye(3))
    assert np.allclose(f.sigma, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    f = svd(np.diag([5.0, 2.0]))
    assert np.allclose(f.sigma, [5.0, 2.0])
    assert np.allclose(f.U, np.eye(2))
    assert np.allclose(f.V, np.eye(2))


def test_svd_reconstruction_random(rng):
    x = rng.uniform(size=(8, 8))
    f = svd(x)
    err = np.linalg.norm(reconstruct(f) - x, "fro") / np.linalg.norm(x, "fro")
    assert err < 1e-10


def test_svd_rejects_non_finite():
    bad = np.ones((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        svd(bad)


def test_svd_sign_convention(rng):
    for _ in range(10):
        f = svd(rng.standard_normal((6, 4)))
        pivots = np.argmax(np.abs(f.U), axis=0)
        assert np.all(f.U[pivots, np.arange(f.U.shape[1])] >= 0)


def test_svd_deterministic(rng):
    x = rng.uniform(size=(7, 5))
    a, b = svd(x), svd(x)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.V, b.V)


@given(matrices)
@settings(deadline=None, max_examples=60)
def test_svd_factor_invariants(x):
    f = svd(x)
    assert np.all(np.diff(f.sigma) <= 1e-12)
    assert np.all(f.sigma >= 0)
    norm = np.linalg.norm(x, "fro")
    assert np.linalg.norm(reconstruct(f) - x, "fro") <= 1e-10 * max(norm, 1.0)


# a tall matrix (m > n) and a rank r in [1, n]; tests also use its transpose
tall_with_rank = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.integers(n + 1, 16).flatmap(
            lambda m: st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=m * n, max_size=m * n
            ).map(lambda v: np.array(v).reshape(m, n))
        ),
        st.integers(1, n),
    )
)


@given(tall_with_rank)
@settings(deadline=None, max_examples=60)
def test_rank_svd_matches_lapack_top_r(case):
    x, r = case
    for y in (x, x.T):
        got, ref = svd(y, rank=r), svd(y).top(r)
        assert got.U.shape == ref.U.shape and got.V.shape == ref.V.shape
        # the squared sigmas are Gram eigenvalues, accurate to eps * sigma_1^2,
        # so a zero sigma_k comes out near sqrt(eps) * sigma_1
        s1 = ref.sigma[0]
        assert np.max(np.abs(got.sigma**2 - ref.sigma**2)) <= 1e-10 * s1 * s1
        err = np.max(np.abs(reconstruct(got) - reconstruct(ref)))
        assert err <= 1e-9 * max(np.linalg.norm(y, "fro"), 1.0)


def test_rank_svd_accepts_full_rank(rng):
    x = rng.standard_normal((9, 6))
    for y in (x, x.T):
        f = svd(y, rank=6)
        assert f.l == 6
        assert np.allclose(reconstruct(f), y, atol=1e-10)
        assert np.allclose(f.sigma, svd(y).sigma, atol=1e-10)


def test_rank_svd_rejects_out_of_range(rng):
    x = rng.standard_normal((5, 7))
    for r in (0, 6):
        with pytest.raises(ValueError, match="rank"):
            svd(x, rank=r)


@pytest.mark.parametrize(
    "x",
    [
        np.zeros((6, 4)),
        np.full((4, 6), 0.5),
        1e200 * np.random.default_rng(3).standard_normal((7, 5)),
    ],
    ids=["zero", "constant", "huge"],
)
def test_rank_svd_degenerate_inputs_are_finite(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = svd(x, rank=3)
        rebuilt = reconstruct(f)
    for arr in (f.U, f.sigma, f.V, rebuilt):
        assert np.all(np.isfinite(arr))
    ref = svd(x).top(3)
    assert np.max(np.abs(f.sigma - ref.sigma)) <= 1e-7 * ref.sigma[0]
    assert np.max(np.abs(rebuilt - reconstruct(ref))) <= 1e-9 * np.abs(x).max()


def test_rank_svd_deterministic_with_sign_convention(rng):
    x = rng.uniform(size=(9, 13))
    a, b = svd(x, rank=4), svd(x, rank=4)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.V, b.V)
    pivots = np.argmax(np.abs(a.U), axis=0)
    assert np.all(a.U[pivots, np.arange(4)] >= 0)


def test_truncate_full_rank_is_identity():
    x = np.diag([5.0, 2.0, 1.0])
    assert np.allclose(reconstruct(svd(x).top(3)), x)


def test_truncate_to_rank_one():
    x = np.diag([5.0, 2.0, 1.0])
    assert np.allclose(reconstruct(svd(x).top(1)), np.diag([5.0, 0.0, 0.0]))


def test_truncate_no_op_at_l(rng):
    x = rng.uniform(size=(6, 4))
    err = np.linalg.norm(reconstruct(svd(x).top(4)) - x, "fro")
    assert err < 1e-10 * np.linalg.norm(x, "fro")


def test_truncate_caps_numerical_rank(rng):
    for _ in range(5):
        x = rng.uniform(size=(7, 6))
        for r in (1, 2, 4):
            assert numerical_rank(reconstruct(svd(x).top(r)), 1e-8) <= r


def test_eckart_young_against_grid_search(rng):
    """Best rank-1 truncation beats an exhaustive direction search.

    For a fixed left direction u the optimal rank-1 approximation error is
    ||X||_F^2 - ||X^T u||^2, so scanning u over a fine sphere grid gives an
    independent lower-bound estimate of the best achievable error.
    """
    thetas = np.linspace(0.0, np.pi, 121)
    phis = np.linspace(0.0, 2 * np.pi, 241)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    us = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    for _ in range(3):
        x = rng.uniform(-1, 1, size=(3, 3))
        total = np.linalg.norm(x, "fro") ** 2
        grid_err = np.min(total - np.linalg.norm(us @ x, axis=1) ** 2)
        svd_err = np.linalg.norm(reconstruct(svd(x).top(1)) - x, "fro") ** 2
        assert svd_err <= grid_err + 1e-9
        assert grid_err - svd_err <= 1e-3 * total  # grid resolves the optimum


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 3)), 1e-8) == 0


def test_numerical_rank_counts_above_relative_tol():
    assert numerical_rank(np.diag([5.0, 2.0, 1e-12]), 1e-8) == 2
    assert numerical_rank(np.eye(4), 1e-8) == 4


def test_numerical_rank_rejects_bad_tol():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(3), 0.0)


def test_as_matrix_rejects_degenerate():
    with pytest.raises(ValueError):
        as_matrix(np.ones((1, 5)))
    with pytest.raises(ValueError):
        as_matrix(np.ones(4))


@pytest.mark.parametrize("shape, rank", [((3, 12, 7), 3), ((2, 6, 10), 6), ((2, 2, 5, 5), 2)])
def test_rank_path_on_a_stack_equals_each_matrix_alone(rng, shape, rank):
    x = rng.uniform(-1.0, 1.0, size=shape)
    x[(0,) * (len(shape) - 2)] = 0.0  # a zero matrix keeps its own unit scale
    f = svd(x, rank=rank)
    assert f.U.shape == shape[:-1] + (rank,) and f.l == rank
    rebuilt = reconstruct(f)
    for idx in np.ndindex(shape[:-2]):
        alone = svd(x[idx], rank=rank)
        assert np.array_equal(f.U[idx], alone.U)
        assert np.array_equal(f.sigma[idx], alone.sigma)
        assert np.array_equal(f.V[idx], alone.V)
        assert np.array_equal(rebuilt[idx], reconstruct(alone))
        assert np.array_equal(f.top(1).U[idx], alone.top(1).U)


def test_full_path_takes_one_matrix():
    with pytest.raises(ValueError, match="2-D"):
        svd(np.ones((2, 3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(6, 5), (3, 6, 5)])
def test_rank_svd_rejects_non_finite(bad, shape):
    x = np.ones(shape)
    x[(-1,) * len(shape)] = bad  # in the last matrix of a stack
    with pytest.raises(ValueError, match="matrix contains non-finite values"):
        svd(x, rank=2)


def _separated(shape, rng, decay=0.7):
    """A matrix with singular values decay**k, so every triplet is resolved."""
    m, n = shape
    l = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, l)))[0]
    v = np.linalg.qr(rng.standard_normal((n, l)))[0]
    return (u * 3.0 * decay ** np.arange(l)) @ v.T


@pytest.mark.parametrize("shape, rank", [((60, 40), 10), ((40, 60), 10), ((30, 30), 14)])
def test_warm_svd_from_an_exact_start_reproduces_the_rank_path(rng, shape, rank):
    x = _separated(shape, rng)
    exact = svd(x, rank=rank)
    warm = svd(x, rank=rank, start=exact.V)
    assert warm.U.shape == exact.U.shape and warm.V.shape == exact.V.shape
    for got, want in zip((warm.U, warm.sigma, warm.V), (exact.U, exact.sigma, exact.V)):
        assert np.max(np.abs(got - want)) <= 1e-9


def test_warm_svd_ritz_triplets_meet_the_factor_contract(rng):
    # from a random start: orthonormal factors, sigma descending, and
    # x v = sigma u to rounding whatever the quality of the start
    x = rng.uniform(size=(50, 36))
    start = np.linalg.qr(rng.standard_normal((36, 9)))[0]
    f = svd(x, rank=9, start=start)
    assert np.all(np.diff(f.sigma) <= 0.0) and np.all(f.sigma >= 0.0)
    assert np.allclose(f.U.T @ f.U, np.eye(9), atol=1e-12)
    assert np.allclose(f.V.T @ f.V, np.eye(9), atol=1e-12)
    assert np.max(np.abs(x @ f.V - f.U * f.sigma)) <= 1e-12 * f.sigma[0]
    # the sign convention of the other paths
    assert np.all(np.abs(f.U).max(axis=0) == f.U.max(axis=0))


@pytest.mark.parametrize("shape, rank", [((3, 40, 24), 6), ((2, 24, 40), 6), ((2, 2, 20, 20), 4)])
def test_warm_svd_on_a_stack_equals_each_matrix_alone(rng, shape, rank):
    x = rng.uniform(-1.0, 1.0, size=shape)
    start = svd(x + 0.01 * rng.standard_normal(shape), rank=rank).V
    f = svd(x, rank=rank, start=start)
    for idx in np.ndindex(shape[:-2]):
        alone = svd(x[idx], rank=rank, start=start[idx])
        assert np.array_equal(f.U[idx], alone.U)
        assert np.array_equal(f.sigma[idx], alone.sigma)
        assert np.array_equal(f.V[idx], alone.V)


def test_warm_svd_rejects_a_bad_start(rng):
    x = rng.uniform(size=(2, 12, 10))
    start = svd(x, rank=3).V
    bad = start.copy()
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="start contains non-finite values"):
        svd(x, rank=3, start=bad)
    for shape in [(2, 12, 3), (2, 10, 4), (10, 3), (1, 10, 3)]:
        with pytest.raises(ValueError, match="start must have shape"):
            svd(x, rank=3, start=np.ones(shape))
    with pytest.raises(ValueError, match="start needs a rank"):
        svd(x[0], start=start[0])
    y = x.copy()
    y[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="matrix contains non-finite values"):
        svd(y, rank=3, start=start)


def test_warm_svd_reads_qr_as_a_plain_pair(rng, monkeypatch):
    # numpy before 2.0 returns qr's factors as a plain tuple, with no .Q
    x = rng.uniform(size=(2, 30, 20))
    start = svd(x, rank=5).V
    want = svd(x, rank=5, start=start)
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: tuple(qr(a)))
    got = svd(x, rank=5, start=start)
    for a, b in zip((got.U, got.sigma, got.V), (want.U, want.sigma, want.V)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape, rank", [((60, 40), 10), ((40, 60), 10), ((3, 50, 36), 9)])
def test_warm_svd_matches_the_two_qr_oracle(rng, shape, rank):
    # one QR of A^T A B spans what qr(A^T qr(A B)) spans, and the Ritz
    # triplets of the q x q Gram matrix are those of the small SVD
    x = _separated(shape[-2:], rng) + 1e-3 * rng.standard_normal(shape)
    start = svd(x + 0.01 * rng.standard_normal(shape), rank=rank).V
    got = svd(x, rank=rank, start=start)
    want = two_qr_svd(x, rank=rank, start=start)
    for a, b in zip((got.U, got.sigma, got.V), (want.U, want.sigma, want.V)):
        assert np.max(np.abs(a - b)) <= 1e-9


def test_warm_svd_factors_one_qr_and_one_eigh(rng, monkeypatch):
    x = rng.uniform(size=(2, 40, 30))
    start = svd(x, rank=6).V
    counts = {"qr": 0, "eigh": 0, "svd": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    svd(x, rank=6, start=start)
    assert counts == {"qr": 1, "eigh": 1, "svd": 0}
