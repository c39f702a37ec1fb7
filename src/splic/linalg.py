"""Dense matrix validation and the SVD contract used by every other module.

The rank-path SVD and `reconstruct` follow numpy's gufunc convention: an
input of shape (..., m, n) is a stack of m x n matrices, each one handled
exactly as it would be on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _stack_shaped(x, name: str) -> np.ndarray:
    """`x` as a float array of shape (..., m, n) with m, n >= 2; values unchecked."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError(f"{name} must be at least 2-D, got shape {arr.shape}")
    if arr.shape[-2] < 2 or arr.shape[-1] < 2:
        raise ValueError(f"{name} must be at least 2x2, got shape {arr.shape}")
    return arr


def _check_finite(values, name: str):
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains non-finite values")


def as_stack(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite float array of shape (..., m, n) with
    m, n >= 2: one matrix, or a stack of them.

    Degenerate shapes (row/column vectors) are rejected here rather than
    given special handling downstream: the roughness penalty needs both
    image dimensions.
    """
    arr = _stack_shaped(x, name)
    _check_finite(arr, name)
    return arr


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float array with both dims >= 2."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return as_stack(arr, name)


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD of an m x n matrix: U (m x l), sigma (l,), V (n x l), with
    l = min(m, n), or l = r for the leading triplets kept by `top(r)` or
    returned by `svd(x, rank=r)`.  For a (..., m, n) stack every factor
    gains the same leading dimensions: U (..., m, l), sigma (..., l).

    sigma is non-increasing and non-negative; U and V have orthonormal
    columns and reconstruct the source (after `top(r)`, its best rank-r
    approximation) as U @ diag(sigma) @ V.T.  Factors from the rank path
    meet these contracts to the accuracy stated in `svd`, and each
    triplet has the sign LAPACK gives it, on which no contract depends.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def l(self) -> int:
        return self.sigma.shape[-1]

    def top(self, r: int) -> "SvdFactors":
        """The leading r triplets: U[..., :r], sigma[..., :r], V[..., :r]."""
        return SvdFactors(self.U[..., :r], self.sigma[..., :r], self.V[..., :r])


def svd(x, rank: int | None = None, start=None) -> SvdFactors:
    """Thin SVD, each triplet with the sign LAPACK (`gesdd`, `eigh`) gives.

    No caller depends on that sign: negating a triplet's U and V columns
    together leaves sigma, U @ diag(sigma) @ V.T and the `residual_ok`
    norm unchanged, and qr(X^T X B) gives the same Q bit for bit whatever
    the signs of B's columns, since a Householder reflector is unchanged
    when its column is negated.  The factors are deterministic for one
    numpy/BLAS build and thread count.

    rank=None takes the full spectrum of one matrix from LAPACK.  rank=r
    returns only the leading r triplets, read off the symmetric
    eigendecomposition of the Gram matrix of the smaller side (X^T X if
    m >= n, else X X^T) of X scaled by max|x|; the other factor is
    X V / sigma (a zero column where sigma = 0).  The rank path also takes
    a (..., m, n) stack and treats each matrix exactly as on its own,
    with its own scale.  Squaring the matrix costs accuracy in the small
    singular values: |sigma_hat_k - sigma_k| is about eps * sigma_1^2 /
    sigma_k, and the columns of U are orthonormal to the same relative
    order.  That is ample for a well-separated top of the spectrum, but
    callers that need the whole spectrum or singular values far below
    sigma_1 must use the full path.

    start=B, a (..., n, rank) stack of right bases (say the V of an earlier
    call on a nearby matrix), takes the warm path instead: one block power
    step from B, V = qr(X^T X B) (one QR: span(X^T qr(X B)) is the same
    subspace), then the Rayleigh-Ritz triplets of X on span(V), read as on
    the rank path off the eigendecomposition of the rank x rank Gram
    matrix (X V)^T (X V) = Z diag(sigma^2) Z^T: sigma, U = X V Z / sigma
    (a zero column where sigma = 0) and V Z (Halko, Martinsson & Tropp,
    SIAM Rev. 2011).  It costs three m x n x rank products, one QR of an
    n x rank block and a rank x rank eigendecomposition instead of the
    n x n one.  When span(B) holds the leading right singular subspace,
    the triplets meet the rank path's accuracy contract (an error in
    sigma_k of about eps * sigma_1^2 / sigma_k); otherwise they are only
    as good as that subspace: X v = sigma u holds to the contract, but
    X^T u = sigma v holds only to the accuracy of the start, so callers
    check that residual before trusting the result.  A wide matrix needs
    no transpose: the blocks factored are n x rank and rank x rank either
    way.  B must be finite; each matrix is scaled as on the Gram path, and
    a stack is treated matrix by matrix.
    """
    if rank is None:
        if start is not None:
            raise ValueError("start needs a rank")
        u, s, vt = np.linalg.svd(as_matrix(x), full_matrices=False)
        return SvdFactors(U=u, sigma=s, V=vt.T)
    arr = _stack_shaped(x, "matrix")
    m, n = arr.shape[-2:]
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank must be in [1, {min(m, n)}], got {rank}")
    # scaling by the largest entry keeps the squared entries finite; the
    # max propagates NaN and +-inf, so it also stands in for a finiteness scan
    scale = np.abs(arr).max(axis=(-2, -1), keepdims=True)
    _check_finite(scale, "matrix")
    scale[scale == 0.0] = 1.0
    a = arr / scale
    if start is not None:
        return _warm_top(a, scale, rank, start)
    tall = m >= n
    p, s, q = _gram_top(a if tall else np.swapaxes(a, -1, -2), rank)
    u, v = (p, q) if tall else (q, p)
    return SvdFactors(U=u, sigma=scale[..., 0] * s, V=v)


def _gram_top(a, rank):
    """The leading `rank` triplets (a V / sigma, sigma, V) of each tall
    matrix of the stack `a`, V from the eigendecomposition of a^T a; a
    zero column of a V / sigma where sigma = 0."""
    w, v = np.linalg.eigh(np.swapaxes(a, -1, -2) @ a)
    w, v = w[..., ::-1][..., :rank], v[..., ::-1][..., :rank]
    s = np.sqrt(np.maximum(w, 0.0))
    p = np.divide(
        a @ v,
        s[..., None, :],
        out=np.zeros(a.shape[:-1] + (rank,)),
        where=s[..., None, :] > 0.0,
    )
    # C-ordered: some numpy versions multiply a reversed view outside BLAS
    return p, s, np.ascontiguousarray(v)


def _warm_top(a, scale, rank, start) -> SvdFactors:
    """The warm path of `svd` on the scaled stack `a`: the `rank` Ritz
    triplets of one block power step from the right bases `start`."""
    b = np.asarray(start, dtype=np.float64)
    want = a.shape[:-2] + (a.shape[-1], rank)
    if b.shape != want:
        raise ValueError(f"start must have shape {want}, got {b.shape}")
    _check_finite(b, "start")
    # span(A^T qr(A B)) = span(A^T A B), so one QR gives the power step's basis
    v = np.linalg.qr(np.swapaxes(a, -1, -2) @ (a @ b))[0]
    u, s, z = _gram_top(a @ v, rank)
    return SvdFactors(U=u, sigma=scale[..., 0] * s, V=v @ z)


# callers of the warm path keep this many right vectors past the triplets
# they need, so the block power step also resolves the directions just
# below them; with 8 the solver's two-pass solve of noisy 96^2 scenes lost
# up to 0.08 dB to the exact path
_OVERSAMPLE = 12


def warm_rank(k: int, m: int, n: int) -> int | None:
    """How many right vectors a warm start of `svd` keeps for the leading
    k triplets of an m x n matrix: q = k + _OVERSAMPLE, or None where
    2q > min(m, n), since there one block power step spans more than half
    the spectrum and gains little over the exact rank path."""
    q = k + _OVERSAMPLE
    return q if 2 * q <= min(m, n) else None


def residual_ok(x, f: SvdFactors) -> np.ndarray:
    """Whether the triplets `f` of each matrix of `x` pass the warm path's
    acceptance check: ||x^T U - V diag(sigma)||_F <= sigma_l, with sigma_l
    the last of them, and a finite residual.  A boolean per matrix."""
    residual = np.swapaxes(x, -1, -2) @ f.U - f.V * f.sigma[..., None, :]
    norm = np.linalg.norm(residual, axis=(-2, -1))
    return np.isfinite(norm) & (norm <= f.sigma[..., -1])


def reconstruct(f: SvdFactors, sigma=None) -> np.ndarray:
    """Rebuild U @ diag(sigma) @ V.T (defaults to the factors' own sigma)."""
    s = f.sigma if sigma is None else np.asarray(sigma, dtype=np.float64)
    return (f.U * s[..., None, :]) @ np.swapaxes(f.V, -1, -2)


def numerical_rank(x, tol: float) -> int:
    """Number of singular values exceeding tol times the largest one; only
    the values are computed, not U or V."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    s = np.linalg.svd(as_matrix(x), compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))
