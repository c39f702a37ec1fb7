import dataclasses
import functools
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import splic.baselines as baselines_module
import splic.solver as solver_module
from conftest import (
    assert_traces_equal,
    balanced_low_rank,
    exact_svd,
    recorded_steps,
    two_qr_svd,
)
from splic.baselines import soft_impute_with_count, soft_threshold_singular, usvt
from splic.linalg import SvdFactors, numerical_rank, reconstruct, svd
from splic.metrics import compare_methods, psnr
from splic.sampling import complement, generate_mask, round_half_up
from splic.solver import (
    TV_MODES,
    SplicConfig,
    relative_change,
    splic_alternated,
    splic_complete,
)
from splic.srf import srf_gradient, srf_value_from_sigma
from splic.testimages import add_uniform_noise, make_test_image
from splic.tv import tv_gradient, tv_gradient_forward, tv_value


def test_relative_change_identical():
    x = np.ones((3, 3))
    assert relative_change(x, x) == 0.0


def test_relative_change_hand_values():
    assert relative_change(np.ones((2, 2)), np.zeros((2, 2))) == pytest.approx(0.5)
    assert relative_change(np.ones((3, 3)), np.zeros((3, 3))) == pytest.approx(1 / 3)


def test_config_validation():
    with pytest.raises(ValueError, match="rho"):
        SplicConfig(rho=1.5)
    with pytest.raises(ValueError, match="mu"):
        SplicConfig(mu=0.0)
    with pytest.raises(ValueError, match="lambda"):
        SplicConfig(lam=-0.1)
    with pytest.raises(ValueError, match="anchor_fraction"):
        SplicConfig(anchor_fraction=0.0)
    with pytest.raises(ValueError, match="tv_mode"):
        SplicConfig(tv_mode="fancy")
    with pytest.raises(ValueError, match="rank"):
        SplicConfig(r=0)
    # numpy's generator raised "expected non-negative integer" at the first
    # mask draw, naming no key
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SplicConfig(seed=-1)


@pytest.mark.parametrize(
    "name, value, key",
    [
        ("maxiter", 10.5, "maxiter"),
        ("seed", 1.5, "seed"),
        ("r", 5.5, "r"),
        ("r", True, "r"),
        ("inner_steps", False, "inner_steps"),
        ("clamp_output", "no", "clamp_output"),
        ("clamp_output", 0, "clamp_output"),
        ("lam", "0.01", "lambda"),
        ("rho", None, "rho"),
        ("epsilon", True, "epsilon"),
        ("tv_mode", 1, "tv_mode"),
    ],
)
def test_config_rejects_a_value_of_the_wrong_type(name, value, key):
    # these crashed mid-solve with a TypeError, or (clamp_output) were
    # taken as true
    with pytest.raises(ValueError, match=rf"^{key} must be "):
        SplicConfig(**{name: value})


def test_config_keeps_numpy_scalars_and_ints_as_given():
    cfg = SplicConfig(
        r=np.int64(5), maxiter=np.int32(14), seed=np.uint8(3), lam=np.float32(0.01), mu=1
    )
    assert (type(cfg.r), type(cfg.maxiter), type(cfg.seed)) == (np.int64, np.int32, np.uint8)
    assert (type(cfg.lam), type(cfg.mu)) == (np.float32, int)
    assert SplicConfig(r=None).r is None


def test_tv_step_bound_mu_times_lambda():
    # the explicit TV step diverges once mu * lambda exceeds 1/4
    assert SplicConfig(lam=0.5).lam == 0.5
    with pytest.raises(ValueError, match="0.25"):
        SplicConfig(lam=0.6)
    with pytest.raises(ValueError, match="0.25"):
        SplicConfig(lam=0.02, mu=13.0, tv_mode="paper")


@pytest.mark.parametrize(
    "call",
    [
        lambda: SplicConfig(lam=np.nan),
        lambda: SplicConfig(mu=np.inf, lam=0.0),
        lambda: soft_threshold_singular(svd(np.eye(3)), np.nan),
        lambda: usvt(np.eye(3), np.ones((3, 3)), np.nan),
        lambda: numerical_rank(np.eye(3), np.nan),
        lambda: add_uniform_noise(np.zeros((2, 2)), np.nan, 0),
        lambda: add_uniform_noise(np.zeros((2, 2)), np.inf, 0),
        lambda: add_uniform_noise(np.zeros((2, 2)), 1e308, 0),
    ],
    ids=["lambda", "mu-inf", "tau", "eta", "tol", "amp-nan", "amp-inf", "amp-1e308"],
)
def test_nan_and_overflowing_parameters_are_rejected(call):
    # each passed an `x < 0`-style guard: a NaN lambda failed mid-solve,
    # an infinite mu at lambda 0, whose product is NaN, after one step,
    # NaN tau/eta gave empty completions, a NaN tol gave rank 0, and the
    # amplitudes raised OverflowError
    with pytest.raises(ValueError):
        call()


def test_default_rank_is_quarter_of_min_side():
    assert SplicConfig().resolve_rank(32, 32) == 8
    assert SplicConfig().resolve_rank(30, 40) == 8  # round half up of 7.5
    assert SplicConfig(r=5).resolve_rank(32, 32) == 5
    with pytest.raises(ValueError):
        SplicConfig(r=40).resolve_rank(32, 32)


def test_full_mask_is_bit_exact_identity(rng):
    x = rng.uniform(size=(8, 8))
    res = splic_complete(x, np.ones((8, 8)), SplicConfig())
    assert np.array_equal(res.completed, x)
    assert res.converged
    assert res.iterations == SplicConfig().inner_steps  # one block


def test_zero_anchor_image_completes_to_zero():
    # splic_complete once rejected it as identically zero, while soft-impute
    # and USVT returned 0; the pixels off the anchors are never read
    mask = generate_mask(8, 8, 0.5, 0)
    x = np.where(mask == 1.0, 0.0, make_test_image(0, 8))
    res = splic_complete(x, mask, SplicConfig())
    assert res.completed.tobytes() == res.low_rank.tobytes() == np.zeros((8, 8)).tobytes()
    assert res.converged and res.iterations == 0
    assert np.array_equal(soft_impute_with_count(x, mask)[0], np.zeros((8, 8)))
    assert np.array_equal(usvt(x, mask), np.zeros((8, 8)))


def test_alternated_solves_a_sparse_image_for_every_seed():
    # two bright pixels on black: seeds 3 and 7 make both of them pass-1
    # targets, so pass 1 has only zero anchors, and splic_alternated raised
    x = np.zeros((16, 16))
    x[0, 3] = x[14, 2] = 1.0
    for seed in range(12):
        res = splic_alternated(x, SplicConfig(seed=seed))
        assert np.isfinite(res.completed).all() and np.isfinite(res.low_rank).all()
        first_anchors = generate_mask(16, 16, 0.5, seed)[x > 0.0]
        assert first_anchors.any() == (seed not in (3, 7))
        if seed in (3, 7):
            zeros = np.zeros((16, 16)).tobytes()
            assert res.completed.tobytes() == res.low_rank.tobytes() == zeros
            assert res.converged and res.iterations == 0


@pytest.mark.parametrize("side", [32, 64, 128])
def test_inputs_near_the_smallest_floats_finish_silently(side):
    # inputs scaled to 1e-300 once leaked `invalid value` RuntimeWarnings
    clean = make_test_image(1, side)
    mask = generate_mask(side, side, 0.5, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (clean, add_uniform_noise(clean, 0.05, 2)):
            for scale in (1e-300, 1e-305):
                for tv_mode in TV_MODES:
                    res = splic_complete(x * scale, mask, SplicConfig(tv_mode=tv_mode))
                    assert np.all(np.isfinite(res.completed)), (scale, tv_mode)
                    assert np.all(np.isfinite(res.low_rank)), (scale, tv_mode)


def test_large_images_solve_finite_and_silent():
    # delta^2 overflows in the caller's frame from 64² x 1e155 up; in the
    # unit frame every plane solves like one whose anchor peak lies in
    # (1/2, 1], and only outputs past the largest float read inf
    x = make_test_image(0, 64)
    mask = generate_mask(64, 64, 0.5, 1)
    anchor = mask == 1.0
    cfg = SplicConfig(clamp_output=False)
    for big in (x * 1e155, np.stack([x, x * 1e155]), x * 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = splic_complete(big, mask, cfg)
        assert np.all(np.isfinite(res.completed)) and np.all(np.isfinite(res.low_rank))
        assert np.array_equal(res.completed[..., anchor], big[..., anchor])
        assert all(np.all(np.isfinite(column)) for column in res.trace.columns())


@pytest.mark.parametrize("side, scale", [(64, 5.6e152), (64, 8e152), (256, 1.8e152)])
def test_trace_just_inside_the_magnitude_limit_is_finite_and_silent(side, scale):
    # at these scales the trace's sums of squares and 2 delta^2 overflow in
    # the caller's frame; the steps run in the unit frame, and the trace
    # holds their values as they computed them there, one row per block
    x = add_uniform_noise(make_test_image(2, side), 0.05, 2) * scale
    mask = generate_mask(side, side, 0.5, 1)
    for tv_mode in TV_MODES:
        with warnings.catch_warnings(), recorded_steps() as frames:
            warnings.simplefilter("error")
            res = splic_complete(x, mask, SplicConfig(tv_mode=tv_mode, maxiter=28))
        trace = res.trace
        assert np.all(np.isfinite(trace.rel_change)) and np.all(np.isfinite(trace.srf)), tv_mode
        assert np.abs(frames[0]).max() < 2.0
        # every projected iterate holds the unit-frame anchors, the start
        start = np.where(mask == 1.0, frames[0][0], 0.0)
        ends = [start] + [frame[0] for frame in frames]
        t_prev = 0
        for t, rel, tv in zip(trace.t.tolist(), trace.rel_change.tolist(), trace.tv.tolist()):
            assert rel == relative_change(ends[t], ends[t_prev]), (tv_mode, t)
            assert tv == tv_value(ends[t]), (tv_mode, t)
            t_prev = t


@pytest.mark.parametrize("tv_mode", TV_MODES)
def test_solve_is_homogeneous_under_power_of_two_scaling(tv_mode):
    # scaling the input by 2^k scales `completed` and `low_rank` by 2^k bit
    # for bit, under the same cfg, and leaves the iterations and the trace
    # as they were; in the caller's frame LAPACK rescales internally near
    # 2^+-500, and delta^2 overflows from about 2^510
    x = add_uniform_noise(make_test_image(1, 48), 0.05, 1)
    mask = generate_mask(48, 48, 0.5, 3)
    cfg = SplicConfig(tv_mode=tv_mode, clamp_output=False)
    # two planes with different anchor peaks, so different unit frames
    for image in (x, np.stack([x, 0.3 * x[::-1]])):
        base = splic_complete(image, mask, cfg)
        for k in (1, -1, 20, -20, 600, -600, 1000, -1000):
            scaled = np.ldexp(image, k)
            assert np.array_equal(np.ldexp(scaled, -k), image)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = splic_complete(scaled, mask, cfg)
            assert np.array_equal(res.completed, np.ldexp(base.completed, k)), k
            assert np.array_equal(res.low_rank, np.ldexp(base.low_rank, k)), k
            assert (res.iterations, res.converged) == (base.iterations, base.converged)
            assert_traces_equal(res.trace, base.trace)


def test_unit_frame_puts_the_anchor_peak_in_the_half_open_binade_below_one():
    # an anchor peak of exactly 1.0 is already in (1/2, 1], so the first
    # recorded frame holds the input's anchors bit for bit; a peak of
    # exactly 0.5 is not, and its frame is twice the input
    x = make_test_image(1, 32)
    mask = generate_mask(32, 32, 0.5, 3)
    anchor = mask == 1.0
    x = x / x[anchor].max()
    for scale, frame_scale in ((1.0, 1.0), (0.5, 2.0)):
        with recorded_steps() as frames:
            splic_complete(x * scale, mask, SplicConfig(maxiter=1))
        assert np.array_equal(frames[0][0][anchor], x[anchor] * scale * frame_scale), scale


def test_stop_is_scale_free_across_powers_of_two():
    # the block change is compared with epsilon in the unit frame, so a
    # darker copy of a scene stops where the scene does; once it was
    # compared in the caller's frame, and x0.4 stopped at 35 iterations
    # (45.10 dB) and x1e-3 after one block (16.03 dB)
    x = make_test_image(1, 64)
    mask = generate_mask(64, 64, 0.5, 3)
    cfg = SplicConfig(clamp_output=False)
    base = splic_complete(x, mask, cfg)
    assert base.iterations == 42
    for scale in (0.4, 1e-3, 1e-6, 2.0**-10):
        res = splic_complete(x * scale, mask, cfg)
        assert res.iterations == base.iterations, scale
        gap = psnr(res.completed / scale, x) - psnr(base.completed, x)
        assert abs(gap) <= 1e-9, (scale, gap)


NO_ANCHOR = "mask has no anchor pixel; a completion needs at least one"
TWO_PASS = "two-pass mode needs at least one anchor and one target"
DRAWN_NO_ANCHOR = "a completion needs at least one"


def test_complement_of_full_mask_invalid_for_solving(rng):
    x = rng.uniform(0.1, 1.0, size=(8, 8))
    empty = complement(generate_mask(8, 8, 1.0, 0))
    with pytest.raises(ValueError, match=NO_ANCHOR):
        splic_complete(x, empty, SplicConfig())


@pytest.mark.parametrize(
    "complete",
    [
        lambda x, mask: splic_complete(x, mask, SplicConfig()),
        lambda x, mask: soft_impute_with_count(x, mask, 0.1),
        lambda x, mask: usvt(x, mask),
        lambda x, mask: compare_methods(x, x, mask, SplicConfig()),
    ],
    ids=["splic_complete", "soft_impute", "usvt", "compare_methods"],
)
def test_every_completer_rejects_an_anchorless_mask_before_any_svd(complete, monkeypatch):
    # splic_complete blamed an "identically zero" image, usvt had a message
    # of its own and soft-impute returned zeros after one iteration
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran")

    for module in (solver_module, baselines_module):
        monkeypatch.setattr(module, "svd", no_svd)
    x = make_test_image(0, 16)
    with pytest.raises(ValueError, match=NO_ANCHOR):
        complete(x, np.zeros((16, 16)))


@pytest.mark.parametrize(
    "side, fraction, anchors",
    [(8, 1.0, 64), (24, 1.0, 576), (8, 0.995, 64), (8, 0.005, 0)],
)
def test_alternated_checks_both_masks_before_the_first_solve(
    side, fraction, anchors, monkeypatch
):
    # 1.0 left pass 2 with no anchors, and the error blamed a zero image
    calls, solve = [], solver_module.splic_complete
    monkeypatch.setattr(
        solver_module, "splic_complete", lambda *a: calls.append(a) or solve(*a)
    )
    x = make_test_image(0, side)
    cfg = SplicConfig(anchor_fraction=fraction)
    # generate_mask rejects a fraction that anchors nothing, before it draws
    rule = TWO_PASS if anchors else DRAWN_NO_ANCHOR
    message = f"anchor_fraction {fraction} anchors {anchors} of {side * side} pixels; {rule}"
    with pytest.raises(ValueError, match=re.escape(message)):
        splic_alternated(x, cfg)
    assert calls == []


def test_alternated_keeps_a_plane_whose_pass_1_targets_all_clamp_to_zero():
    # pass 2 once rejected such a plane as identically zero, after pass 1
    # had run; zero anchors have the fixed point 0, and the other planes
    # solve as they would alone
    x = make_test_image(0, 16)
    cfg = SplicConfig(seed=2)
    first = splic_complete(-x, generate_mask(16, 16, 0.5, 2), cfg)
    assert not first.completed[generate_mask(16, 16, 0.5, 2) == 0.0].any()
    solo = splic_alternated(x, cfg)
    res = splic_alternated(np.stack([-x, x]), cfg)
    assert not res.completed[0].any() and not res.low_rank[0].any()
    assert res.completed[1].tobytes() == solo.completed.tobytes()
    assert res.low_rank[1].tobytes() == solo.low_rank.tobytes()
    for j, alone in enumerate([first, solo]):
        for got, want in zip(res.trace.for_plane(j).columns()[1:], alone.trace.columns()[1:]):
            assert np.array_equal(got, want), j
    assert res.converged == solo.converged
    assert not splic_alternated(-x, cfg).completed.any()


@st.composite
def _valid_problems(draw):
    """A valid SplicConfig, a finite (m, n) image or (k, m, n) stack, and a
    {0, 1} mask: sides 4-12, k <= 3, maxiter <= 21, values in [-1, 1] or
    [0, 1] and each plane scaled by 0 or by 10^e for |e| <= 300."""
    m, n, k = draw(st.integers(4, 12)), draw(st.integers(4, 12)), draw(st.integers(0, 3))
    mu = draw(st.floats(1e-3, 1e3))
    lam = draw(st.floats(0.0, 0.25)) / mu
    assume(mu * lam <= 0.25)
    cfg = SplicConfig(
        lam=lam,
        rho=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        mu=mu,
        r=draw(st.none() | st.integers(1, min(m, n) + 1)),
        epsilon=draw(st.floats(1e-12, 1.0)),
        maxiter=draw(st.integers(1, 21)),
        inner_steps=draw(st.integers(1, 8)),
        anchor_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        seed=draw(st.integers(0, 2**16)),
        tv_mode=draw(st.sampled_from(TV_MODES)),
        clamp_output=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = rng.uniform(-1.0 if draw(st.booleans()) else 0.0, 1.0, (max(k, 1), m, n))
    for plane in planes:
        plane *= 0.0 if draw(st.integers(0, 7)) == 7 else 10.0 ** draw(st.integers(-300, 300))
    mask = (rng.random((m, n)) < draw(st.floats(0.0, 1.0))).astype(np.float64)
    return (planes if k else planes[0]), mask, cfg


@given(_valid_problems(), st.booleans())
@settings(deadline=None, max_examples=40)
def test_every_valid_input_solves_finite_or_fails_before_the_first_step(problem, alternated):
    # a RuntimeWarning fails the test too: tier-1 turns it into an error
    x, mask, cfg = problem
    with recorded_steps() as steps:
        try:
            res = splic_alternated(x, cfg) if alternated else splic_complete(x, mask, cfg)
        except ValueError:
            assert steps == []
            # the only invalid inputs: no anchor or no target, or too high a rank
            m, n = x.shape[-2:]
            if alternated:
                no_mask = round_half_up(cfg.anchor_fraction * m * n) in (0, m * n)
            else:
                no_mask = not mask.any()
            assert no_mask or (cfg.r is not None and cfg.r > min(m, n))
            return
    assert all(np.isfinite(a).all() for a in (res.completed, res.low_rank, *res.trace.columns()))
    assert res.completed.shape == res.low_rank.shape == x.shape
    # a plane whose anchors are all zero takes no step, so the trace may be empty
    counts = np.bincount(res.trace.plane)
    assert res.trace.t.max(initial=0) <= cfg.maxiter
    assert counts.max(initial=0) <= (2 if alternated else 1) * cfg.maxiter
    if alternated:
        # pass 2 anchors pass 1's targets
        mask = generate_mask(*x.shape[-2:], cfg.anchor_fraction, cfg.seed)
        x = splic_complete(x, mask, cfg).completed
        mask = complement(mask)
    anchor = mask == 1.0
    assert res.completed[..., anchor].tobytes() == x[..., anchor].tobytes()
    if cfg.clamp_output:
        # every pixel is a target of one pass or the other
        targets = res.completed if alternated else res.completed[..., ~anchor]
        assert np.all((targets >= 0.0) & (targets <= 1.0))


def _live_planes_per_step(trace):
    """The planes each step of one pass stepped, read from its block
    rows: a block's rows share their `t`, and it took t - t_prev steps."""
    live, t_prev = [], 0
    for t in np.unique(trace.t).tolist():
        live += [trace.plane[trace.t == t]] * (t - t_prev)
        t_prev = t
    return live


@pytest.mark.parametrize("tv_mode", TV_MODES)
@pytest.mark.parametrize("stacked", [False, True])
def test_every_iterate_holds_the_first_iterates_anchors(tv_mode, stacked):
    # _step projects each iterate onto the anchors of the one it steps from,
    # which holds only while every iterate keeps the first one's anchors
    if stacked:
        x, mask = _noisy_planes((32, 32), 2), generate_mask(32, 32, 0.5, 5)
    else:
        x, mask = make_test_image(3, 64), generate_mask(64, 64, 0.5, 4)
    anchors = mask == 1.0
    with recorded_steps() as steps:
        res = splic_complete(x, mask, SplicConfig(tv_mode=tv_mode))
    if stacked:
        # the planes retire in different blocks
        assert len(set(np.bincount(res.trace.plane).tolist())) > 1
    live = _live_planes_per_step(res.trace)
    assert len(live) == len(steps)
    first = steps[0][:, anchors]
    for planes, step in zip(live, steps):
        assert step[:, anchors].tobytes() == first[planes].tobytes()


@pytest.mark.parametrize("clamp_output", [False, True])
def test_anchors_come_back_bit_exact_even_subnormal_in_the_unit_frame(clamp_output):
    # without the clamp the anchors were scaled back from the unit frame,
    # where one 2^1030 below the peak is subnormal: 1.0988018955464378e-307
    # came back as 1.0988018955464388e-307
    x = make_test_image(0, 16) * 2.0**10
    mask = generate_mask(16, 16, 0.5, 1)
    anchors = mask == 1.0
    i, j = np.argwhere(anchors)[0]
    x[i, j] = np.ldexp(1.2345678901234567, -1020)
    cfg = SplicConfig(maxiter=7, clamp_output=clamp_output)
    res = splic_complete(x, mask, cfg)
    assert res.completed[anchors].tobytes() == x[anchors].tobytes()


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        splic_complete(rng.uniform(size=(4, 4)), np.ones((4, 5)), SplicConfig())


def test_rank_one_recovery(rng):
    u = rng.uniform(0.1, 1.0, 32)
    v = rng.uniform(0.1, 1.0, 32)
    truth = np.outer(u, v)
    truth /= truth.max()
    mask = generate_mask(32, 32, 0.5, 3)
    res = splic_complete(truth, mask, SplicConfig(r=8))
    assert psnr(res.completed, truth) > 35.0


def test_rank_four_recovery_across_seeds():
    truth = balanced_low_rank(64, 64, 4, 0)
    wins = 0
    for seed in range(10):
        mask = generate_mask(64, 64, 0.5, seed)
        res = splic_complete(truth, mask, SplicConfig(r=8))
        wins += psnr(res.completed, truth) > 35.0
    assert wins >= 9


def test_natural_image_rank_cap():
    x = make_test_image(0, 32)
    mask = generate_mask(32, 32, 0.5, 7)
    res = splic_complete(x, mask, SplicConfig())
    assert res.converged
    assert numerical_rank(res.low_rank, 1e-6) <= 8


@pytest.mark.xfail(
    strict=True,
    reason="unattainable at the default stopping rule: the mn-normalized "
    "threshold halts the constant-image run at a deviation near 5e-3, and "
    "configurations that run deep enough to reach 1e-6 break the rank-1 "
    "recovery, TV ablation, and noisy-image guarantees instead",
)
def test_constant_image_fixed_point_tight():
    x = np.full((32, 32), 0.5)
    res = splic_alternated(x, SplicConfig(seed=1))
    assert np.abs(res.completed - 0.5).max() < 1e-6


def test_alternated_improves_noisy_images():
    wins = 0
    for i in range(10):
        clean = make_test_image(i, (32, 64))
        noisy = add_uniform_noise(clean, 8 / 255, 100 + i)
        res = splic_alternated(noisy, SplicConfig(seed=50 + i))
        wins += psnr(res.completed, clean) > psnr(noisy, clean)
    assert wins >= 8


def test_alternated_reestimates_every_pixel():
    x = make_test_image(3, 24)
    res = splic_alternated(x, SplicConfig(seed=9))
    assert res.completed.shape == x.shape
    assert np.all(res.completed != x)


def test_alternated_trace_concatenates_passes():
    x = make_test_image(1, 24)
    res = splic_alternated(x, SplicConfig(seed=4))
    ts = res.trace.t.tolist()
    restarts = [i for i in range(1, len(ts)) if ts[i] < ts[i - 1]]
    assert len(restarts) == 1
    deltas = res.trace.delta
    boundary = restarts[0]
    assert deltas[boundary] > deltas[boundary - 1]  # schedule restarted
    assert ts[0] == ts[boundary] == SplicConfig().inner_steps  # one row per block
    assert res.iterations == ts[boundary - 1] + ts[-1]


def test_anchor_fidelity_at_every_iteration():
    x = make_test_image(2, 24)
    mask = generate_mask(24, 24, 0.5, 11)
    anchors = mask == 1.0
    with recorded_steps() as steps:
        res = splic_complete(x, mask, SplicConfig())
    seen = [np.array_equal(xh[0][anchors], x[anchors]) for xh in steps]
    assert len(seen) == res.iterations
    assert all(seen)
    assert np.array_equal(res.completed[anchors], x[anchors])


def test_delta_schedule_geometric_and_blocked():
    x = make_test_image(0, 24)
    mask = generate_mask(24, 24, 0.5, 2)
    cfg = SplicConfig()
    res = splic_complete(x, mask, cfg)
    # one row per block, each inner_steps steps on from the last
    deltas = res.trace.delta
    assert len(res.trace) > 1
    assert np.all(np.diff(res.trace.t, prepend=0) == cfg.inner_steps)
    for k in range(len(deltas) - 1):
        assert deltas[k + 1] == deltas[k] * cfg.rho  # exact float step


def test_trace_srf_capped_by_rank():
    x = make_test_image(1, 24)
    mask = generate_mask(24, 24, 0.5, 3)
    cfg = SplicConfig(r=5)
    res = splic_complete(x, mask, cfg)
    assert np.all(res.trace.srf <= 5.0 + 1e-12)


def test_first_block_always_runs():
    x = make_test_image(0, 24)
    mask = generate_mask(24, 24, 0.5, 2)
    res = splic_complete(x, mask, SplicConfig(epsilon=1e3))
    assert res.iterations == SplicConfig().inner_steps


def test_maxiter_budget_is_exact():
    x = make_test_image(0, 24)
    mask = generate_mask(24, 24, 0.5, 2)
    res = splic_complete(x, mask, SplicConfig(maxiter=10))
    assert res.iterations == 10
    # a full block of 7, then one cut to the budget's last 3 steps
    assert res.trace.t.tolist() == [7, 10]
    assert res.trace.plane.tolist() == [0] * 2


def test_non_convergence_is_reported_not_raised():
    x = make_test_image(0, 24)
    mask = generate_mask(24, 24, 0.5, 2)
    res = splic_complete(x, mask, SplicConfig(maxiter=7))
    assert not res.converged
    assert res.iterations == 7


def test_determinism_bit_identical():
    x = make_test_image(4, 24)
    mask = generate_mask(24, 24, 0.5, 13)
    a = splic_complete(x, mask, SplicConfig())
    b = splic_complete(x, mask, SplicConfig())
    assert np.array_equal(a.completed, b.completed)
    assert np.array_equal(a.low_rank, b.low_rank)
    assert_traces_equal(a.trace, b.trace)


def test_clamp_only_touches_target_pixels():
    # anchors outside [0, 1] must survive exactly when clamping is on
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 1.5, size=(8, 8))
    mask = generate_mask(8, 8, 0.5, 1)
    anchors = mask == 1.0
    res = splic_complete(x, mask, SplicConfig(maxiter=7))
    assert np.array_equal(res.completed[anchors], x[anchors])
    assert res.completed[~anchors].max() <= 1.0


def test_no_clamp_keeps_raw_values():
    x = make_test_image(0, 24)
    mask = generate_mask(24, 24, 0.5, 2)
    raw = splic_complete(x, mask, SplicConfig(clamp_output=False, maxiter=7))
    clamped = splic_complete(x, mask, SplicConfig(maxiter=7))
    anchors = mask == 1.0
    assert np.array_equal(
        clamped.completed[~anchors], np.clip(raw.completed[~anchors], 0.0, 1.0)
    )


def test_tv_mode_paper_changes_result():
    x = make_test_image(2, 24)
    mask = generate_mask(24, 24, 0.5, 6)
    exact = splic_complete(x, mask, SplicConfig(maxiter=14))
    paper = splic_complete(x, mask, SplicConfig(maxiter=14, tv_mode="paper"))
    assert not np.array_equal(exact.completed, paper.completed)


def test_gradient_step_is_descent_direction():
    """The combined step decreases the smoothed-rank + TV objective along
    pure gradient steps from a warm solver state (mu = 0.05); the anchor
    resets inside the real loop are what can break monotonicity."""
    trials, good = 40, 0
    lam, mu, r = 0.02, 0.05, 4
    for trial in range(trials):
        x = make_test_image(200 + trial, 16)
        mask = generate_mask(16, 16, 0.5, trial)
        anchors = mask == 1.0
        cur = np.where(anchors, x, 0.0)
        delta = float(np.linalg.norm(cur, 2))
        for _ in range(2):  # warm-start past the fill-in transient
            for _ in range(7):
                f = svd(cur)
                s = f.sigma.copy()
                s[r:] = 0.0
                trunc = reconstruct(f, s)
                step = delta * delta * srf_gradient(
                    dataclasses.replace(f, sigma=s), delta
                ) + lam * tv_gradient(trunc)
                cur = np.where(anchors, x, trunc - 0.5 * step)
            delta *= 0.45
        z = cur.copy()
        objs = [srf_value_from_sigma(svd(z).sigma, delta) + lam * tv_value(z)]
        for _ in range(7):
            g = delta * delta * srf_gradient(svd(z), delta) + lam * tv_gradient(z)
            z = z - mu * g
            objs.append(srf_value_from_sigma(svd(z).sigma, delta) + lam * tv_value(z))
        good += all(objs[i + 1] <= objs[i] + 1e-12 for i in range(len(objs) - 1))
    assert good >= 0.95 * trials


def test_alternated_uses_complement_mask_for_second_pass():
    x = make_test_image(5, 24)
    cfg = SplicConfig(seed=21)
    res = splic_alternated(x, cfg)
    mask = generate_mask(24, 24, cfg.anchor_fraction, cfg.seed)
    first = splic_complete(x, mask, cfg)
    second = splic_complete(first.completed, complement(mask), cfg)
    assert np.array_equal(res.completed, second.completed)
    comp_anchors = complement(mask) == 1.0
    assert np.array_equal(res.completed[comp_anchors], first.completed[comp_anchors])


def _lapack_top_r(x, rank, start=None):
    """LAPACK top-r triplets of each plane of the (k, m, n) stack the solver
    steps; a warm `start` is ignored, so every step is exact."""
    tops = [svd(plane).top(rank) for plane in x]
    return SvdFactors(*(np.stack(parts) for parts in zip(*((f.U, f.sigma, f.V) for f in tops))))


def _full_spectrum_complete(x, mask, cfg):
    """Reference loop that zero-pads the spectrum past rank r to full length
    and rebuilds over all min(m, n) columns; returns the completed and
    low-rank surfaces, the iteration count and the trace srf values, one
    per block, at its last step."""
    m, n = x.shape
    r = cfg.resolve_rank(m, n)
    anchor = mask == 1.0
    tv_grad = {"exact": tv_gradient, "paper": tv_gradient_forward}[cfg.tv_mode]
    current = np.where(anchor, x, 0.0)
    delta = float(np.linalg.norm(current, 2))
    srfs = []
    t = 0
    block_rel = np.inf
    while block_rel > cfg.epsilon and t < cfg.maxiter:
        block_start = current
        for _ in range(cfg.inner_steps):
            f = svd(current)
            sigma_r = f.sigma.copy()
            sigma_r[r:] = 0.0
            truncated = reconstruct(f, sigma_r)
            g_rank = srf_gradient(dataclasses.replace(f, sigma=sigma_r), delta)
            x_tilde = truncated - cfg.mu * (
                delta * delta * g_rank + cfg.lam * tv_grad(truncated)
            )
            current = np.where(anchor, x, x_tilde)
            t += 1
        srfs.append(srf_value_from_sigma(sigma_r, delta))
        block_rel = relative_change(current, block_start)
        delta *= cfg.rho
    f = svd(current)
    sigma_final = f.sigma.copy()
    sigma_final[r:] = 0.0
    completed = np.where(anchor, x, np.clip(current, 0.0, 1.0))
    return completed, reconstruct(f, sigma_final), t, np.array(srfs)


@pytest.mark.parametrize(
    "shape, tv_mode, r",
    [((32, 32), "exact", None), ((32, 32), "paper", 3), ((24, 40), "exact", 24)],
)
def test_top_r_step_matches_full_spectrum_reference(shape, tv_mode, r, monkeypatch):
    # the LAPACK top-r triplets isolate the step from the SVD backend
    monkeypatch.setattr(solver_module, "svd", _lapack_top_r)
    x = add_uniform_noise(make_test_image(3, shape), 0.03, 1)
    mask = generate_mask(*shape, 0.5, 8)
    cfg = SplicConfig(tv_mode=tv_mode, r=r)
    completed, low_rank, iterations, srfs = _full_spectrum_complete(x, mask, cfg)
    res = splic_complete(x, mask, cfg)
    assert np.array_equal(res.completed, completed)
    assert np.array_equal(res.low_rank, low_rank)
    assert res.iterations == iterations
    # only the summation order of the trace srf differs
    assert np.max(np.abs(res.trace.srf - srfs)) <= 1e-12


@pytest.mark.parametrize(
    "shape, tv_mode",
    [((128, 128), "exact"), ((128, 128), "paper"), ((64, 128), "exact")],
)
def test_gram_top_r_svd_matches_lapack_solve(shape, tv_mode, monkeypatch):
    x = add_uniform_noise(make_test_image(5, shape), 0.03, 2)
    mask = generate_mask(*shape, 0.5, 4)
    cfg = SplicConfig(tv_mode=tv_mode)
    # every step on the exact Gram path, as the solver takes it without a start
    monkeypatch.setattr(solver_module, "svd", exact_svd)
    res = splic_complete(x, mask, cfg)
    monkeypatch.setattr(solver_module, "svd", _lapack_top_r)
    ref = splic_complete(x, mask, cfg)
    assert res.iterations == ref.iterations
    assert np.max(np.abs(res.completed - ref.completed)) <= 1e-9
    assert np.max(np.abs(res.low_rank - ref.low_rank)) <= 1e-9


def _noisy_planes(shape, seed):
    """Three planes with different noise, so they retire in different blocks."""
    return np.stack(
        [add_uniform_noise(make_test_image(seed + j, shape), 0.04 * j, j) for j in range(3)]
    )


def _assert_stack_equals_solo(stacked, solos):
    assert stacked.iterations == sum(s.iterations for s in solos)
    assert stacked.converged == all(s.converged for s in solos)
    assert set(stacked.trace.plane.tolist()) == set(range(len(solos)))
    for j, solo in enumerate(solos):
        assert np.array_equal(stacked.completed[j], solo.completed)
        assert np.array_equal(stacked.low_rank[j], solo.low_rank)
        rows = stacked.trace.for_plane(j)
        assert len(rows) == len(solo.trace)
        assert np.all(rows.plane == j) and np.all(solo.trace.plane == 0)
        assert_traces_equal(dataclasses.replace(rows, plane=solo.trace.plane), solo.trace)


@pytest.mark.parametrize(
    "shape, tv_mode, maxiter",
    [((32, 32), "exact", 210), ((32, 32), "paper", 210), ((24, 40), "exact", 55)],
)
def test_stack_solve_equals_solo_solves(shape, tv_mode, maxiter):
    planes = _noisy_planes(shape, 2)
    mask = generate_mask(*shape, 0.5, 5)
    cfg = SplicConfig(tv_mode=tv_mode, maxiter=maxiter)
    solos = [splic_complete(plane, mask, cfg) for plane in planes]
    # the planes stop in different blocks, or some at the budget
    assert len({s.iterations for s in solos}) > 1
    if maxiter < 210:
        # one plane converges first, two are cut mid-block by the budget
        assert [s.iterations for s in solos] == [49, maxiter, maxiter]
        assert not solos[2].converged
    stacked = splic_complete(planes, mask, cfg)
    assert stacked.completed.shape == stacked.low_rank.shape == planes.shape
    _assert_stack_equals_solo(stacked, solos)


@pytest.mark.parametrize("shape", [(24, 24), (20, 32)])
def test_stack_alternated_equals_solo(shape):
    planes = _noisy_planes(shape, 7)
    cfg = SplicConfig(seed=3, tv_mode="paper")
    solos = [splic_alternated(plane, cfg) for plane in planes]
    _assert_stack_equals_solo(splic_alternated(planes, cfg), solos)


def test_channel_last_stack_equals_solo_solves():
    # the layout read_image gives colour files: each plane is strided
    planes = _noisy_planes((20, 28), 4)
    channel_last = np.moveaxis(np.ascontiguousarray(np.moveaxis(planes, 0, -1)), -1, 0)
    mask = generate_mask(20, 28, 0.5, 6)
    cfg = SplicConfig(maxiter=28)
    solos = [splic_complete(plane, mask, cfg) for plane in channel_last]
    _assert_stack_equals_solo(splic_complete(channel_last, mask, cfg), solos)


def test_stack_of_one_equals_plane():
    x = make_test_image(1, 24)
    mask = generate_mask(24, 24, 0.5, 1)
    solo = splic_complete(x, mask, SplicConfig())
    _assert_stack_equals_solo(splic_complete(x[None], mask, SplicConfig()), [solo])


def _assert_block_then_plane_order(t, plane, inner_steps):
    # one row per live plane per block: (t, plane) pairs strictly increase,
    # and each plane runs t = inner_steps, 2 inner_steps, ... until it retires
    assert np.all(np.diff(t * (plane.max() + 1) + plane) > 0)
    for j in np.unique(plane):
        rows = np.count_nonzero(plane == j)
        assert np.array_equal(t[plane == j], inner_steps * np.arange(1, rows + 1))


def test_each_trace_row_records_its_blocks_change_and_the_last_why_the_plane_stopped():
    planes = _noisy_planes((24, 40), 2)
    mask = generate_mask(24, 40, 0.5, 5)
    cfg = SplicConfig(maxiter=55)
    with recorded_steps() as steps:
        res = splic_complete(planes, mask, cfg)
    live = _live_planes_per_step(res.trace)
    assert len(live) == len(steps)
    # each plane's unit-frame iterates: its anchors, then one per step
    iterates = {j: [np.where(mask == 1.0, steps[0][j], 0.0)] for j in range(3)}
    for alive, step in zip(live, steps):
        for j, iterate in zip(alive.tolist(), step):
            iterates[j].append(iterate)
    last = {}
    trace = res.trace
    for j, t, rel in zip(trace.plane.tolist(), trace.t.tolist(), trace.rel_change.tolist()):
        assert rel == relative_change(iterates[j][t], iterates[j][last.get(j, 0)]), (j, t)
        last[j] = t
    rows = [trace.for_plane(j) for j in range(3)]
    assert [r.t[-1] for r in rows] == [49, 55, 55]
    for r in rows:
        assert r.rel_change[-1] <= cfg.epsilon or r.t[-1] == cfg.maxiter
    assert res.converged == all(r.rel_change[-1] <= cfg.epsilon for r in rows)
    assert res.iterations == sum(r.t[-1] for r in rows) == 159


def test_stack_trace_rows_in_step_then_plane_order():
    planes = _noisy_planes((24, 24), 2)
    mask = generate_mask(24, 24, 0.5, 5)
    cfg = SplicConfig(seed=5)
    res = splic_complete(planes, mask, cfg)
    assert len({len(res.trace.for_plane(j)) for j in range(3)}) > 1  # planes retire apart
    _assert_block_then_plane_order(res.trace.t, res.trace.plane, cfg.inner_steps)
    # two passes: all of the first pass's rows, then the second's
    res = splic_alternated(planes, cfg)
    t, plane = res.trace.t, res.trace.plane
    restart = int(np.flatnonzero(np.diff(t) < 0)[0]) + 1
    _assert_block_then_plane_order(t[:restart], plane[:restart], cfg.inner_steps)
    _assert_block_then_plane_order(t[restart:], plane[restart:], cfg.inner_steps)


def test_stack_input_validation():
    mask = generate_mask(8, 8, 0.5, 0)
    x = np.ones((8, 8))
    with pytest.raises(ValueError, match="stack"):
        splic_complete(np.ones((2, 2, 8, 8)), mask, SplicConfig())
    with pytest.raises(ValueError, match="stack"):
        splic_complete(np.ones((0, 8, 8)), mask, SplicConfig())
    with pytest.raises(ValueError, match="mask shape"):
        splic_complete(np.stack([x, x]), np.ones((8, 9)), SplicConfig())
    for baseline in (functools.partial(soft_impute_with_count, tau=0.1), usvt):
        with pytest.raises(ValueError, match=r"mask shape \(8, 9\) != image shape \(8, 8\)"):
            baseline(x, np.ones((8, 9)))
    # an all-zero plane solves, to 0
    res = splic_complete(np.stack([x, np.zeros((8, 8))]), mask, SplicConfig())
    assert not res.completed[1].any() and not res.low_rank[1].any()


@pytest.mark.parametrize("alternated", [False, True], ids=["complete", "alternated"])
def test_a_zero_plane_of_a_stack_solves_to_zero_and_the_others_as_alone(alternated):
    # the zero plane's anchors are -0.0, and its targets hold values that no
    # step may read; it once made the whole stack raise
    cfg = SplicConfig(seed=3)
    mask = generate_mask(24, 24, cfg.anchor_fraction, cfg.seed)
    planes = _noisy_planes((24, 24), 2)
    planes[1] = np.where(mask == 1.0, -0.0, planes[1])

    def solve(x):
        return splic_alternated(x, cfg) if alternated else splic_complete(x, mask, cfg)

    res = solve(planes)
    assert res.completed.shape == res.low_rank.shape == planes.shape
    zero, anchor = np.zeros((24, 24)), mask == 1.0
    # two passes leave no pixel of the input: pass 2 anchors pass 1's 0s
    given = zero if alternated else planes[1]
    assert res.completed[1][anchor].tobytes() == given[anchor].tobytes()
    assert res.completed[1][~anchor].tobytes() == zero[~anchor].tobytes()
    assert res.low_rank[1].tobytes() == zero.tobytes()
    assert len(res.trace.for_plane(1)) == 0
    solos = {j: solve(planes[j]) for j in (0, 2)}
    assert res.converged == all(s.converged for s in solos.values())
    assert res.iterations == sum(s.iterations for s in solos.values())
    for j, solo in solos.items():
        assert res.completed[j].tobytes() == solo.completed.tobytes()
        assert res.low_rank[j].tobytes() == solo.low_rank.tobytes()
        rows = res.trace.for_plane(j)
        assert np.all(rows.plane == j)
        for got, want in zip(rows.columns()[1:], solo.trace.columns()[1:]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # a solve whose every plane is zero keeps the trace's column types
    empty = solve(planes[1]).trace
    assert len(empty) == 0
    assert [c.dtype.kind for c in empty.columns()] == list("iiffff")


@pytest.mark.parametrize("shape", [(3, 5, 4), (3, 24, 40), (2, 64, 64)])
def test_relative_change_per_matrix_of_a_stack(shape):
    rng = np.random.default_rng(1)
    a = rng.uniform(size=shape)
    b = rng.uniform(size=shape)
    change = relative_change(a, b)
    assert change.shape == shape[:1]
    for j in range(shape[0]):
        # bit-equal to the Frobenius norm of the plane alone
        assert change[j] == relative_change(a[j], b[j])
        assert change[j] == np.linalg.norm(a[j] - b[j], "fro") / (shape[1] * shape[2])


def _calls_with_start(monkeypatch):
    """Record, for every svd call the solver makes, whether it was warm."""
    calls = []

    def spy(x, rank=None, start=None):
        calls.append(start is not None)
        return svd(x, rank=rank, start=start)

    monkeypatch.setattr(solver_module, "svd", spy)
    return calls


@pytest.mark.parametrize(
    "shape, warm",
    [((64, 64), True), ((96, 64), True), ((48, 48), True), ((47, 47), False), ((16, 40), False)],
)
def test_warm_path_runs_above_the_size_crossover_only(shape, warm, monkeypatch):
    # the warm path needs 2 * (r + 12) <= min(m, n): from 48² up at the default r
    calls = _calls_with_start(monkeypatch)
    x = make_test_image(1, shape)
    res = splic_complete(x, generate_mask(*shape, 0.5, 1), SplicConfig())
    if warm:
        # exact at the first step and for the final low_rank, warm in between
        assert calls == [False] + [True] * (res.iterations - 1) + [False]
    else:
        assert not any(calls)


@pytest.mark.parametrize(
    "shape, tv_mode, maxiter",
    [
        ((48, 48), "exact", 210),
        ((64, 64), "exact", 210),
        ((64, 64), "paper", 210),
        ((64, 96), "exact", 210),
        ((64, 96), "paper", 50),
    ],
)
def test_warm_stack_solve_equals_solo_solves(shape, tv_mode, maxiter, monkeypatch):
    calls = _calls_with_start(monkeypatch)
    planes = _noisy_planes(shape, 2)
    mask = generate_mask(*shape, 0.5, 5)
    cfg = SplicConfig(tv_mode=tv_mode, maxiter=maxiter)
    solos = [splic_complete(plane, mask, cfg) for plane in planes]
    assert any(calls)
    # the planes retire in different blocks, so the bases must follow them
    assert len({s.iterations for s in solos}) > 1
    _assert_stack_equals_solo(splic_complete(planes, mask, cfg), solos)


@pytest.mark.parametrize("side", [48, 64, 96, 128, 256])
def test_warm_path_matches_the_two_qr_oracle(side, monkeypatch):
    # the one-QR Rayleigh-Ritz step against its two-QR + LAPACK SVD form
    for scene in range(4):
        clean = make_test_image(scene, side)
        mask = generate_mask(side, side, 0.5, side + scene)
        for noise in (0.0, 0.05):
            x = add_uniform_noise(clean, noise, scene) if noise else clean
            for tv_mode in TV_MODES:
                cfg = SplicConfig(tv_mode=tv_mode)
                monkeypatch.setattr(solver_module, "svd", svd)
                res = splic_complete(x, mask, cfg)
                monkeypatch.setattr(solver_module, "svd", two_qr_svd)
                ref = splic_complete(x, mask, cfg)
                case = (side, scene, noise, tv_mode)
                assert res.iterations == ref.iterations, case
                assert np.max(np.abs(res.completed - ref.completed)) <= 1e-10, case


def test_warm_path_on_a_graded_spectrum_and_a_flat_plane(monkeypatch):
    # Ritz values far below sigma_1 carry the Gram path's eps * sigma_1^2 /
    # sigma_k error: each plane must stay finite and silent, and either
    # match the oracle or take the exact fallback
    rng = np.random.default_rng(3)
    graded = balanced_low_rank(64, 64, 3, 1) + 1e-9 * rng.standard_normal((64, 64))
    flat = np.full((64, 64), 0.5)
    mask = generate_mask(64, 64, 0.5, 9)
    cfg = SplicConfig()
    for plane in (graded, flat):
        calls = _calls_with_start(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = splic_complete(plane, mask, cfg)
        assert any(calls)  # above the crossover: the warm path ran
        assert np.all(np.isfinite(res.completed)) and np.all(np.isfinite(res.low_rank))
        assert np.all(np.isfinite(res.trace.srf))
        fell_back = not all(calls[1:-1])
        monkeypatch.setattr(solver_module, "svd", two_qr_svd)
        ref = splic_complete(plane, mask, cfg)
        assert fell_back or (
            res.iterations == ref.iterations
            and np.max(np.abs(res.completed - ref.completed)) <= 1e-9
        )


def test_warm_stack_alternated_equals_solo():
    planes = _noisy_planes((64, 80), 7)
    cfg = SplicConfig(seed=3)
    solos = [splic_alternated(plane, cfg) for plane in planes]
    _assert_stack_equals_solo(splic_alternated(planes, cfg), solos)


@pytest.mark.parametrize("side", [24, 40, 64, 96])
def test_outputs_do_not_depend_on_triplet_signs(side, monkeypatch):
    # `svd` fixes no sign: negating random triplets (U and V columns
    # together) must leave every output bit for bit as it is, on the exact
    # rank path (24^2, 40^2) and on the warm path (64^2, 96^2)
    planes = _noisy_planes((side, side), side)
    mask = generate_mask(side, side, 0.5, side)
    tau = 0.05 * float(np.linalg.norm(np.where(mask == 1.0, planes[2], 0.0), 2))
    rng = np.random.default_rng(side)
    warm_calls = []

    def flipped(x, rank=None, start=None):
        f = svd(x, rank=rank, start=start)
        warm_calls.append(start is not None)
        signs = rng.choice([-1.0, 1.0], size=f.sigma.shape)[..., None, :]
        f.U[...] *= signs  # in place, so each factor keeps its memory layout
        f.V[...] *= signs
        return f

    def solves():
        for tv_mode in TV_MODES:
            cfg = SplicConfig(tv_mode=tv_mode, seed=side)
            yield splic_complete(planes, mask, cfg)
            yield splic_alternated(planes, cfg)

    want = list(solves())
    want_z, want_count = soft_impute_with_count(planes[2], mask, tau)
    monkeypatch.setattr(solver_module, "svd", flipped)
    monkeypatch.setattr(baselines_module, "svd", flipped)
    for got, ref in zip(solves(), want):
        assert np.array_equal(got.completed, ref.completed)
        assert np.array_equal(got.low_rank, ref.low_rank)
        assert_traces_equal(got.trace, ref.trace)
    assert any(warm_calls) == (side >= 64)
    z, count = soft_impute_with_count(planes[2], mask, tau)
    assert count == want_count and np.array_equal(z, want_z)


def test_warm_fallback_takes_the_exact_path_per_plane(monkeypatch):
    # a NaN in plane 1's warm factors fails its residual check at every
    # warm step, so plane 1 must step as on the exact path while planes 0
    # and 2 keep their warm trajectories
    planes = _noisy_planes((64, 64), 2)
    mask = generate_mask(64, 64, 0.5, 5)
    cfg = SplicConfig(maxiter=28)  # no plane retires early: plane 1 stays at index 1
    warm = [splic_complete(plane, mask, cfg) for plane in planes]

    def poisoned(x, rank=None, start=None):
        f = svd(x, rank=rank, start=start)
        if start is not None:
            f.sigma[1] = np.nan
        return f

    monkeypatch.setattr(solver_module, "svd", poisoned)
    stacked = splic_complete(planes, mask, cfg)
    monkeypatch.setattr(solver_module, "svd", exact_svd)
    exact = splic_complete(planes[1], mask, cfg)
    assert stacked.iterations == 3 * cfg.maxiter
    assert not np.array_equal(exact.completed, warm[1].completed)
    assert np.array_equal(stacked.completed[1], exact.completed)
    for j in (0, 2):
        assert np.array_equal(stacked.completed[j], warm[j].completed)


def test_delta_floor_keeps_a_deep_schedule_finite_and_silent():
    # rho = 1e-9 drives delta below the smallest normal float within the
    # budget; it used to underflow to 0, leak RuntimeWarnings and raise
    x = make_test_image(0, 32)
    mask = generate_mask(32, 32, 0.5, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for maxiter in (210, 400):
            res = splic_complete(x, mask, SplicConfig(rho=1e-9, epsilon=1e-30, maxiter=maxiter))
            assert res.iterations == maxiter and not res.converged
            assert np.all(np.isfinite(res.completed)) and np.all(np.isfinite(res.low_rank))
            assert np.all(np.isfinite(res.trace.srf)) and np.all(res.trace.delta > 0.0)
    floor = np.sqrt(np.finfo(np.float64).tiny)
    assert res.trace.delta.min() == floor
    # a flat plane with one free pixel at full rank: the Gram path gives
    # exact zeros among the top r, whose surrogate term at the floor is 1
    flat = np.full((32, 32), 0.5)
    anchors = np.ones((32, 32))
    anchors[5, 7] = 0.0
    cfg = SplicConfig(r=32, rho=1e-9, epsilon=1e-30, maxiter=400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = splic_complete(flat, anchors, cfg)
        assert srf_value_from_sigma(np.array([1.0, 0.0]), floor) == 1.0
    assert res.trace.delta.min() == floor
    assert np.all(np.isfinite(res.trace.srf))
