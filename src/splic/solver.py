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

Both take an (m, n) image or a (k, m, n) stack of planes (the channels of
a colour image) that share the mask, and step the whole stack in one
loop, so the fixed cost of each numpy call is paid once per iteration
rather than once per plane.  Each plane keeps its own delta and its own
trace, and follows bit for bit the trajectory it would follow alone:
after every block, a plane whose block change is <= epsilon, or that has
used the budget, retires -- it is frozen and leaves the stack the loop
steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import as_stack, reconstruct, svd
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

    For a (k, m, n) stack input both surfaces are (k, m, n), `trace` is a
    tuple of k per-plane traces, `iterations` sums the planes' counts and
    `converged` holds only if every plane converged.
    """

    completed: np.ndarray
    low_rank: np.ndarray
    trace: ConvergenceTrace | tuple[ConvergenceTrace, ...]
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


def relative_change(x_new, x_old):
    """Frobenius norm of the difference divided by m*n (not sqrt(m*n));
    an array of one value per matrix for a (..., m, n) stack."""
    a = np.asarray(x_new, dtype=np.float64)
    b = np.asarray(x_old, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    m, n = a.shape[-2:]
    # sqrt of a dot per matrix, as np.linalg.norm(., "fro") computes it
    rows = (a - b).reshape(-1, m * n)
    squares = np.fromiter(map(np.dot, rows, rows), dtype=np.float64, count=len(rows))
    change = np.sqrt(squares).reshape(a.shape[:-2]) / (m * n)
    return float(change) if change.ndim == 0 else change


_TV_GRADIENTS = {"exact": tv_gradient, "paper": tv_gradient_forward}


def _image_stack(x) -> tuple[np.ndarray, bool]:
    """`x` as a C-ordered (k, m, n) stack of planes, and whether it was
    given as one; an (m, n) image gives k = 1.

    C order matters: a channel-last layout (as `read_image` returns for
    colour) would carry into the iterates, and numpy multiplies such
    strided planes outside BLAS, with different rounding.
    """
    arr = as_stack(x, "image")
    if arr.ndim != 2 and (arr.ndim != 3 or arr.shape[0] == 0):
        raise ValueError(
            f"image must be (m, n) or a (k, m, n) stack with k >= 1, got shape {arr.shape}"
        )
    return np.ascontiguousarray(arr.reshape((-1,) + arr.shape[-2:])), arr.ndim == 3


def _step(current, fixed, anchor, delta, dd, r, cfg, tv_grad):
    """One iteration on the live stack: the projected iterate and the
    top-r singular values it was rebuilt from.  Its temporaries are freed
    on return, before the caller's trace bookkeeping allocates its own."""
    f = svd(current, rank=r)
    truncated = reconstruct(f)
    g_rank = srf_gradient(f, delta)
    g_tv = tv_grad(truncated)
    x_tilde = truncated - cfg.mu * (dd * g_rank + cfg.lam * g_tv)
    return np.where(anchor, fixed, x_tilde), f.sigma


def splic_complete(x, mask, cfg: SplicConfig, on_iteration=None) -> CompletionResult:
    """Complete the non-anchor pixels of `x` by progressive rank smoothing.

    `x` is an (m, n) image or a (k, m, n) stack of planes that share the
    mask; the module docstring says how the planes of a stack retire.
    For a stack, `completed` and `low_rank` are (k, m, n), `trace` is a
    tuple of one ConvergenceTrace per plane, `iterations` is the total
    over planes and `converged` means every plane converged.

    `on_iteration(t, x_hat)` is an optional instrumentation hook called
    with each projected iterate (for a stack, all k planes, retired ones
    at their final value); it must not mutate its argument.
    """
    planes, stacked = _image_stack(x)
    m_bits = validate_mask(mask)
    k, m, n = planes.shape
    if m_bits.shape != (m, n):
        raise ValueError(f"mask shape {m_bits.shape} != image shape {(m, n)}")
    r = cfg.resolve_rank(m, n)
    anchor = m_bits == 1.0
    tv_grad = _TV_GRADIENTS[cfg.tv_mode]

    current = np.where(anchor, planes, 0.0)
    delta = np.linalg.norm(current, 2, axis=(-2, -1))
    if np.any(delta == 0.0):
        raise ValueError(
            "anchor-masked image is identically zero; delta cannot be initialized"
        )

    # `current`, `fixed` and `delta` hold the planes still running, whose
    # indices are `live`; `final` collects each plane as it retires
    final = np.empty_like(planes)
    fixed = planes
    live = np.arange(k)
    records = [[] for _ in range(k)]
    converged = np.zeros(k, dtype=bool)
    t = 0
    while live.size:
        block_start = current
        dd = (delta * delta)[:, None, None]
        block_planes = list(zip(live.tolist(), delta.tolist()))
        for _ in range(min(cfg.inner_steps, cfg.maxiter - t)):
            x_next, sigma = _step(current, fixed, anchor, delta, dd, r, cfg, tv_grad)
            t += 1
            columns = zip(
                block_planes,
                relative_change(x_next, current).tolist(),
                srf_value_from_sigma(sigma, delta).tolist(),
                tv_value(x_next).tolist(),
            )
            for (p, d), rel, srf, tv in columns:
                records[p].append(TraceRecord(t=t, delta=d, rel_change=rel, srf=srf, tv=tv))
            current = x_next
            if on_iteration is not None:
                frame = final.copy()
                frame[live] = current
                on_iteration(t, frame if stacked else frame[0])
        block_rel = relative_change(current, block_start)
        delta = delta * cfg.rho
        done = block_rel <= cfg.epsilon
        converged[live] = done
        retire = done | (t >= cfg.maxiter)
        if retire.any():
            final[live[retire]] = current[retire]
            keep = ~retire
            current, fixed, delta, live = current[keep], fixed[keep], delta[keep], live[keep]

    low_rank = reconstruct(svd(final, rank=r))
    completed = final
    if cfg.clamp_output:
        completed = np.where(anchor, planes, np.clip(final, 0.0, 1.0))

    traces = tuple(ConvergenceTrace(tuple(recs)) for recs in records)
    if not stacked:
        return CompletionResult(
            completed=completed[0],
            low_rank=low_rank[0],
            trace=traces[0],
            iterations=len(traces[0]),
            converged=bool(converged[0]),
        )
    return CompletionResult(
        completed=completed,
        low_rank=low_rank,
        trace=traces,
        iterations=sum(len(trace) for trace in traces),
        converged=bool(converged.all()),
    )


def splic_alternated(x, cfg: SplicConfig, on_iteration=None) -> CompletionResult:
    """Two-pass completion that re-estimates every pixel exactly once.

    Pass 1 completes the targets of a fresh random mask; pass 2 swaps the
    mask, anchoring the pass-1 estimates and re-estimating the original
    anchors.  Each pass restarts the delta schedule from its own input;
    the traces are concatenated (the restart is visible as a delta jump).
    A (k, m, n) stack shares the mask across its planes and gives results
    shaped as `splic_complete` gives them for a stack.
    """
    arr = as_stack(x, "image")
    m, n = arr.shape[-2:]
    mask = generate_mask(m, n, cfg.anchor_fraction, cfg.seed)
    first = splic_complete(arr, mask, cfg, on_iteration=on_iteration)
    # free the first pass's low-rank surface, unused, before the second pass
    first = replace(first, low_rank=None)
    second = splic_complete(
        first.completed, complement(mask), cfg, on_iteration=on_iteration
    )
    if arr.ndim == 2:
        trace = ConvergenceTrace(first.trace.records + second.trace.records)
    else:
        trace = tuple(
            ConvergenceTrace(a.records + b.records)
            for a, b in zip(first.trace, second.trace)
        )
    return CompletionResult(
        completed=second.completed,
        low_rank=second.low_rank,
        trace=trace,
        iterations=first.iterations + second.iterations,
        converged=first.converged and second.converged,
    )
