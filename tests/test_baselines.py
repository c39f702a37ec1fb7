import dataclasses
import warnings

import numpy as np
import pytest

import splic.baselines as baselines_module
from conftest import assert_traces_equal, balanced_low_rank, exact_svd
from splic.baselines import (
    soft_impute_with_count,
    soft_threshold_singular,
    srf_only,
    usvt,
)
from splic.linalg import numerical_rank, svd
from splic.metrics import RANK_TOL, psnr
from splic.sampling import generate_mask
from splic.solver import SplicConfig, relative_change, splic_complete
from splic.testimages import add_uniform_noise, make_test_image


def rank2_instance():
    t = np.linspace(0.0, 1.0, 64)
    return 0.25 + 0.2 * np.outer(np.sin(2 * np.pi * t), np.sin(3 * np.pi * t))


def test_soft_threshold_hand_value():
    out = soft_threshold_singular(svd(np.diag([3.0, 1.0])), 1.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_soft_threshold_zero_tau_is_identity(rng):
    x = rng.uniform(size=(5, 5))
    assert np.allclose(soft_threshold_singular(svd(x), 0.0), x, atol=1e-10)


def test_soft_threshold_above_top_gives_zero(rng):
    x = rng.uniform(size=(4, 4))
    tau = float(np.linalg.norm(x, 2)) + 1.0
    assert np.allclose(soft_threshold_singular(svd(x), tau), 0.0, atol=1e-12)


def test_soft_threshold_never_increases_nuclear_norm(rng):
    for _ in range(5):
        x = rng.uniform(-1, 1, size=(6, 5))
        tau = float(rng.uniform(0.0, 2.0))
        shrunk = soft_threshold_singular(svd(x), tau)
        assert svd(shrunk).sigma.sum() <= svd(x).sigma.sum() + 1e-10
        assert np.all(svd(shrunk).sigma <= svd(x).sigma + 1e-10)


def test_soft_threshold_rejects_negative_tau(rng):
    with pytest.raises(ValueError):
        soft_threshold_singular(svd(np.eye(3)), -0.5)


def test_soft_impute_full_mask_zero_tau_is_identity(rng):
    x = rng.uniform(size=(6, 6))
    out = soft_impute_with_count(x, np.ones((6, 6)), 0.0)[0]
    assert np.allclose(out, x, atol=1e-10)


def test_soft_impute_rank_one_recovery():
    rng = np.random.default_rng(5)
    u = rng.uniform(0.05, 1.0, 32) ** 2
    v = rng.uniform(0.05, 1.0, 32) ** 2
    truth = np.outer(u, v)
    truth /= truth.max()
    mask = generate_mask(32, 32, 0.7, 2)
    tau = 0.1 * float(np.linalg.norm(np.where(mask == 1.0, truth, 0.0), 2))
    out = soft_impute_with_count(truth, mask, tau)[0]
    assert psnr(out, truth) > 30.0


def test_soft_impute_objective_monotone_after_burn_in():
    """The fixed-point iteration descends its own objective: the masked
    residual plus tau times the nuclear norm (computed from the singular
    values directly).  The bare nuclear norm is not monotone: early
    iterations add mass while filling in the unobserved entries."""
    for inst in range(3):
        truth = balanced_low_rank(32, 32, 3, inst)
        mask = generate_mask(32, 32, 0.6, inst)
        observed = mask == 1.0
        tau = 0.05 * float(np.linalg.norm(np.where(observed, truth, 0.0), 2))
        z = np.where(observed, truth, 0.0)
        objectives = []
        for _ in range(60):
            z = soft_threshold_singular(svd(np.where(observed, truth, z)), tau)
            data_term = 0.5 * float(np.sum((truth - z)[observed] ** 2))
            objectives.append(data_term + tau * svd(z).sigma.sum())
        assert all(
            objectives[i + 1] <= objectives[i] + 1e-9
            for i in range(len(objectives) - 1)
        )


def test_soft_impute_stops_on_tolerance(rng):
    x = rng.uniform(size=(8, 8))
    _, count = soft_impute_with_count(x, np.ones((8, 8)), 0.0)
    assert count < 50


def _lapack_soft_impute(x, mask, tau):
    """The soft-impute loop with each SVT from the full LAPACK SVD."""
    observed = mask == 1.0
    z = np.where(observed, x, 0.0)
    iters = baselines_module.SOFT_IMPUTE_ITERS
    for done in range(1, iters + 1):
        z_next = soft_threshold_singular(svd(np.where(observed, x, z)), tau)
        if relative_change(z_next, z) < baselines_module.SOFT_IMPUTE_TOL:
            return z_next, done
        z = z_next
    return z, iters


def _default_tau(x, mask):
    # as `soft_impute_with_count` sets it when given no tau
    return 0.05 * float(np.linalg.norm(np.where(mask == 1.0, x, 0.0), 2))


def test_soft_impute_default_tau_is_a_twentieth_of_the_zero_filled_top_sigma():
    # the default once lived in `compare_methods` and in corpus_diff.py
    x = add_uniform_noise(make_test_image(1, 48), 0.05, 3)
    mask = generate_mask(48, 48, 0.5, 4)
    z, count = soft_impute_with_count(x, mask)
    z_given, count_given = soft_impute_with_count(x, mask, _default_tau(x, mask))
    assert count == count_given
    assert z.tobytes() == z_given.tobytes()


def _assert_matches_lapack(x, mask, tau, monkeypatch):
    # the Gram rank path against LAPACK: every SVT exact, no warm start
    monkeypatch.setattr(baselines_module, "svd", exact_svd)
    z, count = soft_impute_with_count(x, mask, tau)
    ref, ref_count = _lapack_soft_impute(x, mask, tau)
    assert count == ref_count
    assert np.max(np.abs(z - ref)) <= 1e-10


@pytest.mark.parametrize("scene", [200, 201, 202])
def test_soft_impute_matches_the_lapack_svt_loop(scene, monkeypatch):
    x = add_uniform_noise(make_test_image(scene, 128), 0.05, scene)
    for fraction in (0.3, 0.5, 0.7):
        mask = generate_mask(128, 128, fraction, scene)
        _assert_matches_lapack(x, mask, _default_tau(x, mask), monkeypatch)


@pytest.mark.parametrize("shape", [(40, 90), (90, 40)])
def test_soft_impute_matches_the_lapack_svt_loop_off_square(shape, monkeypatch):
    x = add_uniform_noise(make_test_image(3, shape), 0.05, 1)
    mask = generate_mask(*shape, 0.5, 2)
    _assert_matches_lapack(x, mask, _default_tau(x, mask), monkeypatch)


def _svd_calls(monkeypatch, poison=None):
    """Record (x, rank, warm) for every svd call soft-impute makes; `poison`
    may alter the factors of a warm call, given its 0-based warm index."""
    calls = []

    def spy(x, rank=None, start=None):
        f = svd(x, rank=rank, start=start)
        warm = start is not None
        if warm and poison is not None:
            poison(sum(c[2] for c in calls), f)
        calls.append((x, rank, warm))
        return f

    monkeypatch.setattr(baselines_module, "svd", spy)
    return calls


def test_soft_impute_goes_warm_after_an_exact_first_iteration(monkeypatch):
    x = add_uniform_noise(make_test_image(200, 128), 0.05, 200)
    mask = generate_mask(128, 128, 0.5, 200)
    calls = _svd_calls(monkeypatch)
    _, count = soft_impute_with_count(x, mask, _default_tau(x, mask))
    assert calls[0][1:] == (128, False)
    warm = sum(c[2] for c in calls)
    # every warm block passed its checks here: one call per iteration
    assert len(calls) == count and warm > count / 2


def test_soft_impute_never_goes_warm_where_the_block_is_too_wide(monkeypatch):
    # at tau = 0.01 sigma_1 every SVT of this 40 x 90 image keeps more
    # than 8 triplets, so warm_rank(kept, 40, 90) is None throughout
    x = add_uniform_noise(make_test_image(0, (40, 90)), 0.05, 0)
    mask = generate_mask(40, 90, 0.3, 0)
    tau = 0.2 * _default_tau(x, mask)
    calls = _svd_calls(monkeypatch)
    _, count = soft_impute_with_count(x, mask, tau)
    assert len(calls) == count
    kept = [int(np.count_nonzero(svd(c[0], rank=c[1]).sigma > tau)) for c in calls]
    assert min(kept) > 8
    assert not any(c[2] for c in calls)


def _poison_last_ritz_value(f):
    f.sigma[-1] = 1e3 * f.sigma[0]


def _poison_a_kept_vector(f):
    f.U[:, 0] *= -1.0  # a residual of 2 sigma_1


@pytest.mark.parametrize("poison", [_poison_last_ritz_value, _poison_a_kept_vector])
def test_soft_impute_warm_block_failing_a_check_takes_the_rank_path(poison, monkeypatch):
    # a last Ritz value above tau, or a kept triplet failing the residual
    # check, sends that iteration, and only that one, to the full rank path
    x = add_uniform_noise(make_test_image(200, 128), 0.05, 200)
    mask = generate_mask(128, 128, 0.5, 200)
    tau = _default_tau(x, mask)
    bad = 5
    calls = _svd_calls(monkeypatch, lambda j, f: j == bad and poison(f))
    z, count = soft_impute_with_count(x, mask, tau)
    assert np.all(np.isfinite(z))
    warm = [i for i, c in enumerate(calls) if c[2]]
    hit = warm[bad]
    # the poisoned block is followed by the full rank path on the same matrix
    x_hit, rank, _ = calls[hit + 1]
    assert rank == 128 and not calls[hit + 1][2]
    assert np.array_equal(x_hit, calls[hit][0])
    # every other iteration took one call: the fallback was this one alone
    assert len(calls) == count + 1
    assert calls[hit + 2][2]


@pytest.mark.parametrize("tau", [-1.0, np.nan], ids=["negative", "nan"])
def test_soft_impute_rejects_a_bad_tau_before_any_svd(tau, monkeypatch):
    # a bad tau is refused before it costs an SVD
    calls = _svd_calls(monkeypatch)
    with pytest.raises(ValueError, match="tau"):
        soft_impute_with_count(np.eye(4), np.ones((4, 4)), tau)
    assert calls == []


def test_soft_impute_threshold_above_the_spectrum_gives_zeros():
    x = make_test_image(4, 48)
    mask = generate_mask(48, 48, 0.5, 1)
    sigma_1 = float(np.linalg.norm(np.where(mask == 1.0, x, 0.0), 2))
    # a hair above sigma_1: at tau = sigma_1 exactly, rounding decides
    for tau in ((1.0 + 1e-9) * sigma_1, 2.0 * sigma_1):
        z, count = soft_impute_with_count(x, mask, tau)
        assert np.array_equal(z, np.zeros_like(x)) and count == 2


def test_soft_impute_of_an_all_zero_observation_is_zero_and_silent():
    # an all-zero mask, which this also returned zeros for, is now rejected
    # (test_every_completer_rejects_an_anchorless_mask_before_any_svd)
    obs = np.zeros((24, 40))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, count = soft_impute_with_count(obs, generate_mask(24, 40, 0.5, 3), 0.1)
    assert np.array_equal(z, obs) and count == 1


def test_usvt_full_mask_keeps_large_spectrum():
    x = np.diag([5.0, 3.0])
    out = usvt(x, np.ones((2, 2)), 0.01)
    assert np.allclose(out, np.clip(x, 0.0, 1.0), atol=1e-10)


def test_usvt_zero_matrix():
    out = usvt(np.zeros((4, 4)), generate_mask(4, 4, 0.5, 0), 0.01)
    assert np.array_equal(out, np.zeros((4, 4)))


def test_usvt_rank_two_instance_rank_capped():
    truth = rank2_instance()
    assert numerical_rank(truth, 1e-9) == 2
    mask = generate_mask(64, 64, 0.5, 11)
    out = usvt(truth, mask, 0.01)
    assert numerical_rank(out, 1e-6) <= 10  # 2 plus threshold/clipping spillover


def test_numerical_rank_counts_as_the_full_svd_does():
    # numerical_rank reads values only (LAPACK without U and V); its count
    # matches the one read off the full path's sigma on each rank surface
    scene = add_uniform_noise(make_test_image(1, 48), 0.05, 3)
    mask = generate_mask(48, 48, 0.5, 4)
    surfaces = {
        "low_rank": splic_complete(scene, mask, SplicConfig(r=6)).low_rank,
        "soft_impute": soft_impute_with_count(scene, mask, _default_tau(scene, mask))[0],
        "usvt": usvt(scene, mask, 0.01),
        "zero": np.zeros((48, 48)),
    }
    for name, x in surfaces.items():
        s = svd(x).sigma
        full = int(np.count_nonzero(s > RANK_TOL * s[0])) if s[0] > 0 else 0
        assert numerical_rank(x, RANK_TOL) == full, name
    assert numerical_rank(surfaces["low_rank"], RANK_TOL) == 6


@pytest.mark.xfail(
    strict=True,
    reason="one-shot thresholding trails the converged iterative completer "
    "by more than 5 dB on every constructible [0,1] instance at this size "
    "and observation fraction",
)
def test_usvt_within_five_db_of_soft_impute():
    truth = rank2_instance()
    mask = generate_mask(64, 64, 0.5, 11)
    out = usvt(truth, mask, 0.01)
    tau = 0.05 * float(np.linalg.norm(np.where(mask == 1.0, truth, 0.0), 2))
    si = soft_impute_with_count(truth, mask, tau)[0]
    assert psnr(out, truth) > psnr(si, truth) - 5.0


def test_usvt_rejects_negative_eta(rng):
    with pytest.raises(ValueError):
        usvt(rng.uniform(size=(4, 4)), np.ones((4, 4)), -0.1)


def test_srf_only_equals_solver_with_zero_lambda():
    x = make_test_image(0, 24)
    mask = generate_mask(24, 24, 0.5, 3)
    cfg = SplicConfig()
    a = srf_only(x, mask, cfg)
    b = splic_complete(x, mask, dataclasses.replace(cfg, lam=0.0))
    assert np.array_equal(a.completed, b.completed)
    assert_traces_equal(a.trace, b.trace)


def test_srf_only_full_mask_identity(rng):
    x = rng.uniform(size=(8, 8))
    res = srf_only(x, np.ones((8, 8)), SplicConfig())
    assert np.array_equal(res.completed, x)


def test_srf_only_shares_the_delta_schedule():
    x = make_test_image(1, 24)
    mask = generate_mask(24, 24, 0.5, 3)
    cfg = SplicConfig()
    plain = srf_only(x, mask, cfg)
    full = splic_complete(x, mask, cfg)
    assert plain.trace.delta[0] == full.trace.delta[0]
    for res in (plain, full):
        deltas = res.trace.delta.reshape(-1, cfg.inner_steps)
        for k in range(len(deltas) - 1):
            assert deltas[k + 1][0] == deltas[k][0] * cfg.rho


def test_tv_term_helps_on_noisy_images():
    cfg = SplicConfig()
    wins = 0
    for i in range(10):
        clean = make_test_image(i, 32)
        noisy = add_uniform_noise(clean, 8 / 255, 100 + i)
        mask = generate_mask(32, 32, 0.5, 7 + i)
        with_tv = psnr(splic_complete(noisy, mask, cfg).completed, clean)
        without = psnr(srf_only(noisy, mask, cfg).completed, clean)
        wins += with_tv > without
    assert wins >= 8
