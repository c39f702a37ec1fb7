"""Accuracy gates of the warm-started SVDs of the solver and of soft-impute.

Above the size crossover the solver takes each step's top-r triplets from
one block power step on the previous step's right bases, which moves the
output by far more than rounding.  This gate bounds what that costs over
the corpus: every case is solved on the warm path and again with every
step exact (the solver's `svd` with the start dropped), and compared.

- Iterations are equal, unless the exact path's block change at the
  block where the two runs parted lies within 1% of epsilon: the stop
  rule is a threshold, and a change that close to it may fall either way.
- On equal-iteration cases PSNR against the clean scene drops by at most
  0.05 dB, and does not drop on average.
- The warm outputs keep the solver's contracts: anchors bit-exact and
  completed pixels in [0, 1].

Soft-impute warm-starts each singular-value threshold the same way; its
gate is at the end of the file.
"""

import numpy as np
import pytest

import splic.baselines as baselines_module
import splic.solver as solver_module
from conftest import exact_svd
from splic.baselines import soft_impute_with_count
from splic.linalg import warm_rank
from splic.metrics import psnr
from splic.sampling import complement, generate_mask
from splic.solver import SplicConfig, relative_change, splic_complete
from splic.testimages import add_uniform_noise, make_test_image

SIZES = (48, 64, 80, 96, 128, 256)
TWO_PASS_MAX = 96
SCENES = range(4)
NOISE = (0.0, 0.05)
TV_MODES = ("exact", "paper")
MAX_PSNR_LOSS_DB = 0.05


def _pass(x, mask, cfg, exact):
    """One `splic_complete` pass and its per-block changes, on the warm
    path or with every step exact."""
    ends = [np.where(mask == 1.0, x, 0.0)]

    def hook(t, x_hat):
        if t % cfg.inner_steps == 0:
            ends.append(x_hat)

    with pytest.MonkeyPatch.context() as mp:
        if exact:
            mp.setattr(solver_module, "svd", exact_svd)
        res = splic_complete(x, mask, cfg, on_iteration=hook)
    return res, [relative_change(b, a) for a, b in zip(ends, ends[1:])]


def _same_stop(warm, exact, exact_changes, cfg):
    """Whether both runs took the same iterations; if not, the exact run's
    change at the block where they parted must sit on the threshold."""
    if warm.iterations == exact.iterations:
        return True
    parted = min(warm.iterations, exact.iterations) // cfg.inner_steps - 1
    assert abs(exact_changes[parted] - cfg.epsilon) <= 0.01 * cfg.epsilon, (
        f"iterations {warm.iterations} (warm) vs {exact.iterations} (exact), "
        f"exact block change {exact_changes[parted]:.6g} vs epsilon {cfg.epsilon}"
    )
    return False


def _gate_case(x, clean, cfg, passes):
    """Solve `x` warm and exact for `passes` passes (the second is the
    anchor-swapped pass of `splic_alternated`), check each pass, and
    return the PSNR change after each pass while iterations stay equal."""
    m, n = x.shape
    mask = generate_mask(m, n, cfg.anchor_fraction, cfg.seed)
    inputs = {False: x, True: x}
    deltas = []
    for _ in range(passes):
        runs = {exact: _pass(inputs[exact], mask, cfg, exact) for exact in (False, True)}
        (warm, _), (exact, changes) = runs[False], runs[True]
        anchor = mask == 1.0
        assert np.array_equal(warm.completed[anchor], inputs[False][anchor])
        assert 0.0 <= warm.completed.min() and warm.completed.max() <= 1.0
        if not _same_stop(warm, exact, changes, cfg):
            break
        deltas.append(psnr(warm.completed, clean) - psnr(exact.completed, clean))
        inputs = {False: warm.completed, True: exact.completed}
        mask = complement(mask)
    return deltas


def _cases(sizes):
    for side in sizes:
        # every size is above the crossover, or the two runs would be one
        assert warm_rank(SplicConfig().resolve_rank(side, side), side, side) is not None
        for scene in SCENES:
            clean = make_test_image(scene, side)
            for noise in NOISE:
                x = add_uniform_noise(clean, noise, scene) if noise else clean
                for tv_mode in TV_MODES:
                    cfg = SplicConfig(tv_mode=tv_mode, seed=side + scene)
                    yield (side, scene, noise, tv_mode), x, clean, cfg


def test_warm_accuracy_gate():
    # one pass (`splic_complete`) at every size, two (`splic_alternated`)
    # up to TWO_PASS_MAX; a two-pass case's first pass is a one-pass case
    single, double = [], []
    for case, x, clean, cfg in _cases(SIZES):
        passes = 2 if x.shape[0] <= TWO_PASS_MAX else 1
        deltas = [(delta, case) for delta in _gate_case(x, clean, cfg, passes)]
        single += deltas[:1]
        double += deltas[1:]
    for name, deltas in (("one pass", single), ("two passes", double)):
        worst = min(deltas)
        assert worst[0] >= -MAX_PSNR_LOSS_DB, (name, worst)
        assert np.mean([delta for delta, _ in deltas]) >= 0.0, name


SOFT_IMPUTE_SHAPES = ((64, 64), (128, 128), (40, 90), (90, 40))
SOFT_IMPUTE_TAUS = (0.01, 0.05)  # times sigma_1 of the masked input
MAX_SOFT_IMPUTE_DB = 0.01


def test_soft_impute_warm_accuracy_gate(monkeypatch):
    # warm soft-impute against the same loop with every SVT on the exact
    # full-rank path: per case |dPSNR| <= 0.01 dB and iterations within
    # one, and no loss on average
    deltas = []
    for shape in SOFT_IMPUTE_SHAPES:
        for scene in range(3):
            clean = make_test_image(scene, shape)
            x = add_uniform_noise(clean, 0.05, scene)
            for fraction in (0.3, 0.7):
                mask = generate_mask(*shape, fraction, scene)
                sigma_1 = float(np.linalg.norm(np.where(mask == 1.0, x, 0.0), 2))
                for factor in SOFT_IMPUTE_TAUS:
                    runs = []
                    for exact in (False, True):
                        with monkeypatch.context() as mp:
                            if exact:
                                mp.setattr(baselines_module, "svd", exact_svd)
                            runs.append(soft_impute_with_count(x, mask, factor * sigma_1))
                    (warm, warm_iters), (ref, ref_iters) = runs
                    case = (shape, scene, fraction, factor)
                    assert np.all(np.isfinite(warm)), case
                    assert abs(warm_iters - ref_iters) <= 1, case
                    delta = psnr(warm, clean) - psnr(ref, clean)
                    assert abs(delta) <= MAX_SOFT_IMPUTE_DB, (case, delta)
                    deltas.append(delta)
    assert np.mean(deltas) >= -1e-3
