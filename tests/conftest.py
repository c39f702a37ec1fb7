import contextlib
import dataclasses

import numpy as np
import pytest

import splic.solver as solver_module
from splic.linalg import SvdFactors, svd


def finite_difference_gradient(fn, x, step=1e-5):
    """Central finite differences of a scalar function of a matrix."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (fn(xp) - fn(xm)) / (2.0 * step)
    return g


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def assert_traces_equal(a, b):
    """Every column of two ConvergenceTraces is equal, element for element."""
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


@contextlib.contextmanager
def recorded_steps(every=1):
    """A list that collects a copy of every `every`-th projected iterate
    `solver._step` returns while the context is open, in call order: the
    live (k, m, n) stack of that step, k = 1 for an (m, n) image.  The
    solver looks `_step` up as a module global at each call, so patching
    it sees every step."""
    steps, step, calls = [], solver_module._step, 0

    def recording(*args):
        nonlocal calls
        x_next = step(*args)
        calls += 1
        if calls % every == 0:
            steps.append(x_next.copy())
        return x_next

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_step", recording)
        yield steps


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def exact_svd(x, rank=None, start=None):
    """`linalg.svd` with any warm start dropped: the exact path."""
    return svd(x, rank=rank)


def two_qr_svd(x, rank=None, start=None):
    """`linalg.svd` with the warm path in its two-QR form, kept as the
    oracle of the one-QR Rayleigh-Ritz path: Q = qr(A B), V = qr(A^T Q),
    then the LAPACK SVD of A V; a call without a start passes through."""
    if start is None:
        return svd(x, rank=rank)
    a = np.asarray(x, dtype=np.float64)
    scale = np.abs(a).max(axis=(-2, -1), keepdims=True)
    scale[scale == 0.0] = 1.0
    a = a / scale
    q = np.linalg.qr(a @ start)[0]
    v = np.linalg.qr(np.swapaxes(a, -1, -2) @ q)[0]
    w, s, zt = np.linalg.svd(a @ v, full_matrices=False)
    return SvdFactors(U=w, sigma=scale[..., 0] * s, V=v @ np.swapaxes(zt, -1, -2))


def signs_matched(got, want):
    """`got` with each triplet negated where its U column points away
    from `want`'s (a negative sum(got.U * want.U) over the column), so
    factors whose signs LAPACK chose apart compare entry by entry."""
    signs = np.where(np.sum(got.U * want.U, axis=-2) < 0.0, -1.0, 1.0)[..., None, :]
    return SvdFactors(U=got.U * signs, sigma=got.sigma, V=got.V * signs)
