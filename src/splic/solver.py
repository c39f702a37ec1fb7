"""Progressive smoothed-rank gradient projection with a TV penalty.

One pass (`splic_complete`) starts from the anchor-masked image, and in
blocks of `inner_steps` iterations: takes the top-r singular triplets
(r the target rank) and rebuilds the iterate from them, steps against
the smoothed-rank and TV gradients, and projects anchor pixels back to
their fixed values.  After each block the smoothness parameter delta
shrinks by the factor rho, sharpening the rank surrogate; the run stops
once the normalized change across a whole block drops below epsilon, or
the iteration budget runs out.

The rank-term step is preconditioned by delta^2: the raw surrogate
gradient grows like 1/delta as delta shrinks, so a fixed step size would
be inert at large delta and violently unstable once delta passes the
smallest retained singular value.  With the preconditioner the rank term
moves each retained singular value as
sigma * (1 - mu * exp(-sigma^2 / 2 delta^2)), a shrink of at most
mu * sigma at every scale: large-delta blocks do strong global smoothing
and the schedule then progressively freezes the retained structure.

Each plane is solved in its unit frame, scaled by the 2^-e that puts its
anchor peak max|x_Omega| in (1/2, 1]: epsilon and the trace apply there,
and only `completed` and `low_rank` are scaled back, before the clamp.
Every step is exactly homogeneous under power-of-two scaling, so every
finite input gets a result, and scaling a plane by 2^k scales only its
outputs: the stop is scale-free across powers of two, though not within one.

The two-pass scheme (`splic_alternated`) completes the target pixels
first, then swaps the roles of anchors and targets and completes again,
so every pixel is re-estimated exactly once.

The top-r triplets come from one of two paths.  Small images, where
`linalg.warm_rank` gives no block width q (below 48^2 at the default
rank), take the exact rank-path `svd` at every step, where one block
power step gains little over the Gram eigendecomposition: with one BLAS
thread the two cost the same at about 36^2 for one plane and about 30^2
per plane of a stack of three, so the rule is on the safe side of both.
It looks at the plane size only, since a rule on the stack size would
change a plane's path as its neighbours retire, and a stack would no
longer step as its planes alone.  Larger images take the exact path, for
q triplets, at the first step of a pass only; every later step takes the
warm path of `svd`, one block power step from the plane's right bases of
the step before, since the iterate moves little between steps.  A plane
whose warm triplets fail their residual check (see `_top_r`) takes the
exact path for that step, alone.  The warm path moves the output by more
than rounding, so its accuracy is gated by a test against the exact path
over the corpus; the final `low_rank` rebuild is always exact.

Both take an (m, n) image or a (k, m, n) stack of planes (the channels of
a colour image) that share the mask, and step the whole stack in one
loop, so the fixed cost of each numpy call is paid once per iteration
rather than once per plane.  Each plane keeps its own delta and its own
rows of the one trace (its `plane` column names them), and follows bit
for bit the trajectory it would follow alone: after every block, a plane
whose block change is <= epsilon, or that has used the budget, retires
-- it is frozen and leaves the stack the loop steps.  A plane whose
anchors are all zero retires before the first step, at its fixed point 0.
"""

from __future__ import annotations

import numbers
import typing
from dataclasses import Field, dataclass, field, fields, replace

import numpy as np

from .linalg import as_stack, reconstruct, residual_ok, svd, warm_rank
from .sampling import complement, generate_mask, round_half_up, validate_mask
from .srf import srf_gradient, srf_value_from_sigma
from .tv import tv_gradient, tv_gradient_forward, tv_value

_TV_GRADIENTS = {"exact": tv_gradient, "paper": tv_gradient_forward}
TV_MODES = tuple(_TV_GRADIENTS)

# the class each annotated number type admits, numpy scalars included; a
# bool, though an Integral, passes only where the annotation is bool
_ADMITS = {int: numbers.Integral, float: numbers.Real}


def config_key(f: Field) -> str:
    """The JSON key of a SplicConfig field: its name unless metadata says otherwise."""
    return f.metadata.get("key", f.name)


@dataclass(frozen=True)
class SplicConfig:
    """Solver hyperparameters.

    lam      weight of the TV penalty (JSON key `lambda`, flag --lambda)
    rho      per-block decay of the smoothness parameter, in (0, 1)
    mu       gradient step size
    r        target rank; None means round_half_up(min(m, n) / 4) (flag --rank)
    epsilon  stop threshold on a block's change, the trace's `rel_change`
    maxiter  iteration budget, exact: counts inner steps, so the last
             block may be cut short
    inner_steps  iterations per fixed-delta block
    anchor_fraction  fraction of pixels anchored in pass 1 (two-pass mode; must leave a target)
    seed     mask seed (two-pass mode)
    tv_mode  "exact" or "paper" gradient variant
    clamp_output  clip re-estimated pixels to [0, 1] once, at the end (flag --no-clamp)

    These fields are the one list of hyperparameters.  Each is a JSON key
    (its name) and a CLI flag (`--` and the key, `-` for `_`; a bool's flag
    flips it) unless noted.  A value must have its field's annotated type
    (numpy scalars pass; a bool is no number) and is kept unconverted.
    """

    lam: float = field(default=0.02, metadata={"key": "lambda"})
    rho: float = 0.45
    mu: float = 0.5
    r: int | None = field(default=None, metadata={"flag": "--rank"})
    epsilon: float = 1e-4
    maxiter: int = 210
    inner_steps: int = 7
    anchor_fraction: float = 0.5
    seed: int = 0
    tv_mode: str = field(default="exact", metadata={"choices": TV_MODES})
    clamp_output: bool = field(default=True, metadata={"flag": "--no-clamp"})

    def __post_init__(self):
        for f in fields(self):
            value, types = getattr(self, f.name), FIELD_TYPES[f.name]
            admits = tuple(_ADMITS.get(t, t) for t in types)
            if not isinstance(value, admits) or isinstance(value, bool) != (bool in types):
                raise ValueError(f"{config_key(f)} must be {f.type}, got {value!r}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not 0.0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not self.lam >= 0.0:
            raise ValueError(f"lambda must be non-negative, got {self.lam}")
        # the TV Hessian has spectral norm below 8, so the explicit TV step
        # x - mu * lam * grad is stable only while mu * lam <= 1/4 (not NaN)
        if not self.mu * self.lam <= 0.25:
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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


# each SplicConfig field's annotated types, `int | None` as (int, NoneType)
FIELD_TYPES = {
    k: typing.get_args(t) or (t,) for k, t in typing.get_type_hints(SplicConfig).items()
}


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """One solve's per-block trace, as six equal-length columns.

    Each row is one plane at the end of one block: its index in the input
    stack (`plane`, 0 for an (m, n) image), its step count `t`, the
    block's `delta`, `rel_change` = ||X_end - X_start||_F / (m * n) over
    the block, which the stop compares with epsilon, the smoothed rank
    `srf` of the block's last truncated iterate at that delta and the
    roughness `tv` of its last projected iterate, all in the plane's unit
    frame.  Rows go in block order, and within a block the live planes in
    index order; a plane that took no step has no rows.  A plane's last
    row says why it stopped: `rel_change <= epsilon`, else `t == maxiter`.
    """

    plane: np.ndarray
    t: np.ndarray
    delta: np.ndarray
    rel_change: np.ndarray
    srf: np.ndarray
    tv: np.ndarray

    def __len__(self):
        return len(self.t)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The six columns, in the order above."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def for_plane(self, j: int) -> ConvergenceTrace:
        """The rows of plane `j`."""
        rows = self.plane == j
        return ConvergenceTrace(*(column[rows] for column in self.columns()))


def _concat(parts) -> ConvergenceTrace:
    """A trace of the rows of `parts`, tuples of columns, in order; with no
    row, `plane` and `t` are still integer columns."""
    empty = (np.zeros(0, dtype=int),) * 2 + (np.zeros(0),) * 4
    return ConvergenceTrace(*map(np.concatenate, zip(empty, *parts)))


@dataclass(frozen=True)
class CompletionResult:
    """Solver output.

    completed  final projected iterate: anchor pixels equal the input
               exactly, re-estimated pixels optionally clipped to [0, 1]
    low_rank   rank-r reduction of the final iterate (never clipped);
               this is the surface whose numerical rank is capped at r
    trace      every plane's blocks, one row each; its `plane` column
               tells the planes of a stack apart
    iterations the steps taken: for a stack, the total over planes
    converged  whether every plane converged

    For a (k, m, n) stack input both surfaces are (k, m, n).
    """

    completed: np.ndarray
    low_rank: np.ndarray
    trace: ConvergenceTrace
    iterations: int
    converged: bool


def relative_change(x_new, x_old):
    """Frobenius norm of the difference divided by m*n (not sqrt(m*n));
    an array of one value per matrix for a (..., m, n) stack.  Its domain
    is inputs whose squares are finite."""
    a = np.asarray(x_new, dtype=np.float64)
    b = np.asarray(x_old, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    m, n = a.shape[-2:]
    # sqrt of a dot per matrix, as np.linalg.norm(., "fro") computes it
    rows = (a - b).reshape(-1, m * n)
    squares = np.fromiter(map(np.dot, rows, rows), dtype=np.float64, count=len(rows))
    value = np.sqrt(squares).reshape(a.shape[:-2]) / (m * n)
    return float(value) if value.ndim == 0 else value


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


_DELTA_FLOOR = np.sqrt(np.finfo(np.float64).tiny)


def _top_r(current, r, q, basis):
    """The top-r singular triplets of each plane of the live stack, and
    the q right bases for the next step, or None where q is None.

    basis=None, as always where q is None, takes the exact rank path, for q
    triplets (r where q is None).  Otherwise each plane takes the warm path
    from its previous bases; a plane whose residual ||current^T u - sigma v||_F
    over the top r is not finite or exceeds sigma_r falls back to the exact
    path, alone, so each plane of a stack gets the factors it would get alone.
    """
    if basis is None:
        f = svd(current, rank=r if q is None else q)
        return f.top(r), (None if q is None else f.V)
    f = svd(current, rank=q, start=basis)
    bad = ~residual_ok(current, f.top(r))
    if bad.any():
        exact = svd(current[bad], rank=q)
        f.U[bad], f.sigma[bad], f.V[bad] = exact.U, exact.sigma, exact.V
    return f.top(r), f.V


def _step(current, f, anchor, delta, dd, cfg, tv_grad):
    """One iteration on the live stack `current` from its top-r triplets
    `f`: the projected iterate, which takes its anchors from `current`
    (every iterate holds them bit for bit).  The gradients are combined in
    place, in the order `truncated - mu * (dd * g_rank + lam * g_tv)`
    spells out, so only three full-size arrays live at once."""
    x_tilde = reconstruct(f)
    g_tv = tv_grad(x_tilde)
    g_tv *= cfg.lam
    g_rank = srf_gradient(f, delta)
    g_rank *= dd
    g_rank += g_tv
    del g_tv
    g_rank *= cfg.mu
    x_tilde -= g_rank
    np.copyto(x_tilde, current, where=anchor)
    return x_tilde


def splic_complete(x, mask, cfg: SplicConfig) -> CompletionResult:
    """Complete the non-anchor pixels of `x` by progressive rank smoothing.

    `x` is an (m, n) image or a (k, m, n) stack of planes that share the
    mask; the module docstring says how the planes of a stack retire and
    how each is solved in its unit frame.  For a stack, `completed` and
    `low_rank` are (k, m, n).  Either way `trace` is one table of every
    plane's rows, one per block, told apart by its `plane` column;
    `iterations` is the sum of the planes' step counts and `converged`
    means every plane converged.

    Every finite input gets a result, in the caller's frame: a value that
    exceeds the largest float there reads inf.  Anchors are returned as
    given, bit for bit.  A plane whose anchors are all zero completes to
    0: both its surfaces are 0, it has no trace rows and it converged.  A
    mask with no anchor is rejected with a ValueError before the first step.
    """
    planes, stacked = _image_stack(x)
    k, m, n = planes.shape
    anchor = validate_mask(mask, (m, n))
    r = cfg.resolve_rank(m, n)
    # None where one block power step costs no less than the exact Gram
    # path; see the module docstring
    q = warm_rank(r, m, n)
    tv_grad = _TV_GRADIENTS[cfg.tv_mode]

    # each plane's unit frame (see the module docstring)
    current = np.where(anchor, planes, 0.0)
    mantissa, e = np.frexp(np.abs(current).max(axis=(-2, -1)))
    e -= mantissa == 0.5
    np.ldexp(current, -e[:, None, None], out=current)
    delta = np.linalg.norm(current, 2, axis=(-2, -1))

    # `current` and `delta` hold the planes still running, whose indices
    # are `live`; `final` collects each plane as it retires, and keeps 0
    # for a plane whose anchors are all 0 (delta 0), which takes no step
    final = np.zeros_like(planes)
    live = np.flatnonzero(delta)
    current, delta = current[live], delta[live]
    blocks = []  # per block, a tuple of the trace's columns for the live planes
    converged = np.ones(k, dtype=bool)
    basis = None
    t = iterations = 0
    while live.size:
        block_start = current
        dd = (delta * delta)[:, None, None]
        for _ in range(min(cfg.inner_steps, cfg.maxiter - t)):
            f, basis = _top_r(current, r, q, basis)
            current = _step(current, f, anchor, delta, dd, cfg, tv_grad)
            t += 1
        block_rel = relative_change(current, block_start)
        srf = srf_value_from_sigma(f.sigma, delta)
        blocks.append((live, np.full(live.size, t), delta, block_rel, srf, tv_value(current)))
        # floored where delta^2 is the smallest normal float, instead of
        # underflowing to 0: the rank term has vanished there, and
        # sigma = 0 still gives the surrogate's limit exp(-0) = 1, not 0 / 0
        delta = np.maximum(delta * cfg.rho, _DELTA_FLOOR)
        done = block_rel <= cfg.epsilon
        converged[live] = done
        retire = done | (t >= cfg.maxiter)
        iterations += t * np.count_nonzero(retire)
        if retire.any():
            final[live[retire]] = current[retire]
            keep = ~retire
            current, delta, live = current[keep], delta[keep], live[keep]
            if basis is not None:
                basis = basis[keep]

    low_rank = reconstruct(svd(final, rank=r))
    with np.errstate(over="ignore"):
        for surface in (final, low_rank):
            np.ldexp(surface, e[:, None, None], out=surface)
    # anchors from the input: one far below the peak is subnormal in the unit frame
    targets = np.clip(final, 0.0, 1.0) if cfg.clamp_output else final
    completed = np.where(anchor, planes, targets)

    if not stacked:
        completed, low_rank = completed[0], low_rank[0]
    return CompletionResult(
        completed=completed,
        low_rank=low_rank,
        trace=_concat(blocks),
        iterations=iterations,
        converged=bool(converged.all()),
    )


def splic_alternated(x, cfg: SplicConfig) -> CompletionResult:
    """Two-pass completion that re-estimates every pixel exactly once.

    Pass 1 completes the targets of a fresh random mask; pass 2 swaps the
    mask, anchoring the pass-1 estimates and re-estimating the original
    anchors.  Each pass restarts the delta schedule from its own input;
    the traces are concatenated, the first pass's rows before the
    second's (the restart is visible, per plane, as a delta jump and a
    step count that starts again), and `iterations` sums both passes.
    A (k, m, n) stack shares the mask across its planes and gives results
    shaped as `splic_complete` gives them for a stack.  Each pass needs an
    anchor, so the mask must leave a target; both are checked before pass 1
    (`generate_mask` rejects a fraction that anchors no pixel).  Each pass
    is one `splic_complete`, pass 2 on pass 1's `completed`, so a plane
    whose anchors in a pass are all zero completes to 0 in that pass.
    """
    arr = as_stack(x, "image")
    m, n = arr.shape[-2:]
    mask = generate_mask(m, n, cfg.anchor_fraction, cfg.seed)
    if mask.all():
        raise ValueError(
            f"anchor_fraction {cfg.anchor_fraction} anchors {m * n} of {m * n} "
            "pixels; two-pass mode needs at least one anchor and one target"
        )
    # pass 1's low-rank surface, unused, is freed before pass 2
    first = replace(splic_complete(arr, mask, cfg), low_rank=None)
    second = splic_complete(first.completed, complement(mask), cfg)
    return CompletionResult(
        completed=second.completed,
        low_rank=second.low_rank,
        trace=_concat([first.trace.columns(), second.trace.columns()]),
        iterations=first.iterations + second.iterations,
        converged=first.converged and second.converged,
    )
