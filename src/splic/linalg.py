"""Dense matrix validation and the SVD contract used by every other module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float array with both dims >= 2.

    Degenerate shapes (row/column vectors) are rejected here rather than
    given special handling downstream: the roughness penalty needs both
    image dimensions.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(f"{name} must be at least 2x2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD of an m x n matrix: U (m x l), sigma (l,), V (n x l), with
    l = min(m, n), or l = r for the leading triplets kept by `top(r)`.

    sigma is non-increasing and non-negative; U and V have orthonormal
    columns and reconstruct the source (after `top(r)`, its best rank-r
    approximation) as U @ diag(sigma) @ V.T.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def l(self) -> int:
        return self.sigma.shape[0]

    def top(self, r: int) -> "SvdFactors":
        """The leading r triplets: U[:, :r], sigma[:r], V[:, :r]."""
        return SvdFactors(U=self.U[:, :r], sigma=self.sigma[:r], V=self.V[:, :r])


def svd(x) -> SvdFactors:
    """Thin SVD with a fixed sign convention for reproducibility.

    Each left singular vector is flipped so that its largest-magnitude
    entry is non-negative (the matching right vector is flipped with it),
    which makes the factors deterministic across runs.
    """
    arr = as_matrix(x)
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    v = vt.T
    # sign fix: largest-|.| entry of each column of U made non-negative
    pivot = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[pivot, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    return SvdFactors(U=u * signs, sigma=s, V=v * signs)


def reconstruct(f: SvdFactors, sigma=None) -> np.ndarray:
    """Rebuild U @ diag(sigma) @ V.T (defaults to the factors' own sigma)."""
    s = f.sigma if sigma is None else np.asarray(sigma, dtype=np.float64)
    return (f.U * s) @ f.V.T


def truncate_rank(f: SvdFactors, r: int) -> np.ndarray:
    """Rebuild the matrix from its leading r singular triplets."""
    if not 1 <= r <= f.l:
        raise ValueError(f"rank r must be in [1, {f.l}], got {r}")
    return reconstruct(f.top(r))


def numerical_rank(x, tol: float) -> int:
    """Number of singular values exceeding tol times the largest one."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    s = svd(x).sigma
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))
