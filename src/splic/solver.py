"""Progressive smoothed-rank gradient projection with a TV penalty.

One pass (`splic_complete`) starts from the anchor-masked image, and in
blocks of `inner_steps` iterations: takes the top-r singular triplets
(r the target rank) and rebuilds the iterate from them,
steps against the smoothed-rank and TV gradients, and projects anchor
pixels back to their fixed values.  After each block the smoothness
parameter delta shrinks by the factor rho, sharpening the rank surrogate;
the run stops once the normalized change across a whole block drops below
epsilon, or the iteration budget runs out.

The rank-term step is preconditioned by delta^2: the raw surrogate
gradient grows like 1/delta as delta shrinks, so a fixed step size would
be inert at large delta and violently unstable once delta passes the
smallest retained singular value.  With the preconditioner the rank term
moves each retained singular value as
sigma * (1 - mu * exp(-sigma^2 / 2 delta^2)), a shrink of at most
mu * sigma at every scale: large-delta blocks do strong global smoothing
and the schedule then progressively freezes the retained structure.

The two-pass scheme (`splic_alternated`) completes the target pixels
first, then swaps the roles of anchors and targets and completes again,
so every pixel is re-estimated exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, reconstruct, svd
from .sampling import complement, generate_mask, round_half_up, validate_mask
from .srf import srf_gradient, srf_value_from_sigma
from .tv import tv_gradient, tv_gradient_forward, tv_value

TV_MODES = ("exact", "paper")


@dataclass(frozen=True)
class SplicConfig:
    """Solver hyperparameters.

    lam      weight of the TV penalty
    rho      per-block decay of the smoothness parameter, in (0, 1)
    mu       gradient step size
    r        target rank; None means round_half_up(min(m, n) / 4)
    epsilon  stop threshold on the per-block ||X_after - X_before||_F / (m * n)
    maxiter  iteration budget, exact: counts inner steps, so the last
             block may be cut short
    inner_steps  iterations per fixed-delta block
    anchor_fraction  fraction of pixels held fixed (two-pass mode)
    seed     mask seed (two-pass mode)
    tv_mode  "exact" or "paper" gradient variant
    clamp_output  clip re-estimated pixels to [0, 1] once, at the end
    """

    lam: float = 0.02
    rho: float = 0.45
    mu: float = 0.5
    r: int | None = None
    epsilon: float = 1e-4
    maxiter: int = 210
    inner_steps: int = 7
    anchor_fraction: float = 0.5
    seed: int = 0
    tv_mode: str = "exact"
    clamp_output: bool = True

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.lam < 0.0:
            raise ValueError(f"lambda must be non-negative, got {self.lam}")
        # the TV Hessian has spectral norm below 8, so the explicit TV step
        # x - mu * lam * grad is stable only while mu * lam <= 1/4
        if self.mu * self.lam > 0.25:
            raise ValueError(
                f"mu * lambda must be at most 0.25 for a stable TV step, "
                f"got {self.mu} * {self.lam} = {self.mu * self.lam}"
            )
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be at least 1, got {self.maxiter}")
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be at least 1, got {self.inner_steps}")
        if not 0.0 < self.anchor_fraction <= 1.0:
            raise ValueError(
                f"anchor_fraction must be in (0, 1], got {self.anchor_fraction}"
            )
        if self.r is not None and self.r < 1:
            raise ValueError(f"target rank must be at least 1, got {self.r}")
        if self.tv_mode not in TV_MODES:
            raise ValueError(f"tv_mode must be one of {TV_MODES}, got {self.tv_mode!r}")

    def resolve_rank(self, m: int, n: int) -> int:
        """Concrete target rank for an m x n matrix."""
        l = min(m, n)
        if self.r is None:
            return max(1, round_half_up(l / 4.0))
        if self.r > l:
            raise ValueError(f"target rank {self.r} exceeds min(m, n) = {l}")
        return self.r


@dataclass(frozen=True)
class TraceRecord:
    """One solver iteration: smoothed rank measured on the truncated
    iterate at the block's delta, roughness on the projected iterate."""

    t: int
    delta: float
    rel_change: float
    srf: float
    tv: float


@dataclass(frozen=True)
class ConvergenceTrace:
    records: tuple[TraceRecord, ...]

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def deltas(self) -> np.ndarray:
        return np.array([rec.delta for rec in self.records])

    @property
    def rel_changes(self) -> np.ndarray:
        return np.array([rec.rel_change for rec in self.records])


@dataclass(frozen=True)
class CompletionResult:
    """Solver output.

    completed  final projected iterate: anchor pixels equal the input
               exactly, re-estimated pixels optionally clipped to [0, 1]
    low_rank   rank-r reduction of the final iterate (never clipped);
               this is the surface whose numerical rank is capped at r
    """

    completed: np.ndarray
    low_rank: np.ndarray
    trace: ConvergenceTrace
    iterations: int
    converged: bool


def project(x_tilde, x, mask) -> np.ndarray:
    """Reset anchor pixels to their fixed values: mask==1 takes x, else x_tilde."""
    xt = np.asarray(x_tilde, dtype=np.float64)
    xa = np.asarray(x, dtype=np.float64)
    m = validate_mask(mask)
    if xt.shape != xa.shape or xt.shape != m.shape:
        raise ValueError(
            f"shape mismatch: {xt.shape} vs {xa.shape} vs mask {m.shape}"
        )
    return np.where(m == 1.0, xa, xt)


def relative_change(x_new, x_old) -> float:
    """Frobenius norm of the difference divided by m*n (not sqrt(m*n))."""
    a = np.asarray(x_new, dtype=np.float64)
    b = np.asarray(x_old, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b, "fro") / (a.shape[0] * a.shape[1]))


_TV_GRADIENTS = {"exact": tv_gradient, "paper": tv_gradient_forward}


def splic_complete(x, mask, cfg: SplicConfig, on_iteration=None) -> CompletionResult:
    """Complete the non-anchor pixels of `x` by progressive rank smoothing.

    `on_iteration(t, x_hat)` is an optional instrumentation hook called
    with each projected iterate; it must not mutate its argument.
    """
    arr = as_matrix(x, "image")
    m_bits = validate_mask(mask)
    if m_bits.shape != arr.shape:
        raise ValueError(f"mask shape {m_bits.shape} != image shape {arr.shape}")
    m, n = arr.shape
    r = cfg.resolve_rank(m, n)
    anchor = m_bits == 1.0
    tv_grad = _TV_GRADIENTS[cfg.tv_mode]

    current = np.where(anchor, arr, 0.0)
    delta = float(np.linalg.norm(current, 2))
    if delta == 0.0:
        raise ValueError(
            "anchor-masked image is identically zero; delta cannot be initialized"
        )

    records = []
    t = 0
    block_rel = math.inf
    while block_rel > cfg.epsilon and t < cfg.maxiter:
        block_start = current
        for _ in range(min(cfg.inner_steps, cfg.maxiter - t)):
            f = svd(current, rank=r)
            truncated = reconstruct(f)
            g_rank = srf_gradient(f, delta)
            g_tv = tv_grad(truncated)
            x_tilde = truncated - cfg.mu * (delta * delta * g_rank + cfg.lam * g_tv)
            x_next = np.where(anchor, arr, x_tilde)
            t += 1
            records.append(
                TraceRecord(
                    t=t,
                    delta=delta,
                    rel_change=relative_change(x_next, current),
                    srf=srf_value_from_sigma(f.sigma, delta),
                    tv=tv_value(x_next),
                )
            )
            current = x_next
            if on_iteration is not None:
                on_iteration(t, current)
        block_rel = relative_change(current, block_start)
        delta = delta * cfg.rho

    low_rank = reconstruct(svd(current, rank=r))

    completed = current
    if cfg.clamp_output:
        completed = np.where(anchor, arr, np.clip(current, 0.0, 1.0))

    return CompletionResult(
        completed=completed,
        low_rank=low_rank,
        trace=ConvergenceTrace(tuple(records)),
        iterations=t,
        converged=block_rel <= cfg.epsilon,
    )


def splic_alternated(x, cfg: SplicConfig, on_iteration=None) -> CompletionResult:
    """Two-pass completion that re-estimates every pixel exactly once.

    Pass 1 completes the targets of a fresh random mask; pass 2 swaps the
    mask, anchoring the pass-1 estimates and re-estimating the original
    anchors.  Each pass restarts the delta schedule from its own input;
    the traces are concatenated (the restart is visible as a delta jump).
    """
    arr = as_matrix(x, "image")
    m, n = arr.shape
    mask = generate_mask(m, n, cfg.anchor_fraction, cfg.seed)
    first = splic_complete(arr, mask, cfg, on_iteration=on_iteration)
    second = splic_complete(
        first.completed, complement(mask), cfg, on_iteration=on_iteration
    )
    return CompletionResult(
        completed=second.completed,
        low_rank=second.low_rank,
        trace=ConvergenceTrace(first.trace.records + second.trace.records),
        iterations=first.iterations + second.iterations,
        converged=first.converged and second.converged,
    )
