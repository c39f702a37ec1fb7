"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every tolerance and budget is asserted exactly as stated; nothing
is deferred to calibration.
"""

import csv
import time

import numpy as np

from conftest import balanced_low_rank, finite_difference_gradient, recorded_steps
from splic.cli import main as cli_main
from splic.image_io import decode_image, encode_image, write_image, PnmParseError
from splic.linalg import svd
from splic.metrics import psnr
from splic.sampling import generate_mask
from splic.solver import SplicConfig, splic_complete
from splic.srf import srf_gradient, srf_value_from_sigma
from splic.testimages import add_uniform_noise, make_test_image
from splic.tv import tv_gradient, tv_value


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_gradient_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(size=(8, 8))
        top = float(np.linalg.norm(x, 2))
        for mult in (0.5, 1.0, 2.0):
            delta = mult * top
            grad = srf_gradient(svd(x), delta)
            fd = finite_difference_gradient(
                lambda z: srf_value_from_sigma(svd(z).sigma, delta), x
            )
            worst = max(worst, np.abs(grad - fd).max() / np.abs(fd).max())
        grad_tv = tv_gradient(x)
        fd_tv = finite_difference_gradient(tv_value, x)
        worst = max(worst, np.abs(grad_tv - fd_tv).max() / np.abs(fd_tv).max())
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: gradient oracles",
        worst < 1e-5 and elapsed < 5.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_rank_limit():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for k0 in range(1, 6):
        rng = np.random.default_rng(k0)
        x = rng.standard_normal((16, k0)) @ rng.standard_normal((k0, 16))
        sigma = np.linalg.svd(x, compute_uv=False)
        delta = 1e-4 * sigma[k0 - 1]
        err = abs(srf_value_from_sigma(svd(x).sigma, delta) - k0)
        worst = max(worst, err)
        ok &= err < 0.01
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: rank limit",
        ok and elapsed < 1.0,
        f"max |srf - k0| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_convergence_trace():
    start = time.perf_counter()
    cfg = SplicConfig(epsilon=1e-4)
    reached, monotone = True, True
    for i in range(4):
        x = make_test_image(i, 32)
        mask = generate_mask(32, 32, 0.5, 7 + i)
        res = splic_complete(x, mask, cfg)
        rels = res.trace.rel_change
        reached &= bool(np.any(rels < 1e-4)) and res.iterations <= 210
        maxima = rels.reshape(-1, cfg.inner_steps).max(axis=1)
        monotone &= all(
            maxima[k + 1] <= maxima[k] for k in range(1, len(maxima) - 1)
        )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3: convergence behaviour",
        reached and monotone and elapsed < 30.0,
        f"below 1e-4: {reached}, block maxima non-increasing: {monotone}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_exact_recovery():
    start = time.perf_counter()
    truth = balanced_low_rank(64, 64, 4, 0)
    wins = 0
    for seed in range(10):
        mask = generate_mask(64, 64, 0.5, seed)
        res = splic_complete(truth, mask, SplicConfig(r=8))
        wins += psnr(res.completed, truth) > 35.0
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4: exact recovery",
        wins >= 9 and elapsed < 60.0,
        f"{wins}/10 seeds above 35 dB, {elapsed:.1f}s",
    )


def test_criterion_5_tv_ablation():
    start = time.perf_counter()
    cfg = SplicConfig()
    diffs, wins = [], 0
    for i in range(10):
        clean = make_test_image(i, 32)
        noisy = add_uniform_noise(clean, 8 / 255, 100 + i)
        mask = generate_mask(32, 32, 0.5, 7 + i)
        import dataclasses

        with_tv = psnr(splic_complete(noisy, mask, cfg).completed, clean)
        without = psnr(
            splic_complete(noisy, mask, dataclasses.replace(cfg, lam=0.0)).completed,
            clean,
        )
        diffs.append(with_tv - without)
        wins += with_tv > without
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5: TV ablation",
        np.mean(diffs) > 0.0 and wins >= 8 and elapsed < 120.0,
        f"mean gain {np.mean(diffs):.2f} dB, wins {wins}/10, {elapsed:.1f}s",
    )


def test_criterion_6_rank_control(tmp_path):
    start = time.perf_counter()
    src = tmp_path / "large.pgm"
    write_image(make_test_image(0, 112), src)
    csv_path = tmp_path / "sweep.csv"
    code = cli_main(
        [
            "rank-sweep",
            "--input", str(src),
            "--ranks", "56,28,14,7",
            "--output-dir", str(tmp_path / "sweep"),
            "--csv", str(csv_path),
            "--seed", "5",
        ]
    )
    rows = list(csv.DictReader(csv_path.open()))
    ok = code == 0 and [int(r["rank"]) for r in rows] == [56, 28, 14, 7]
    capped = all(
        int(r["numerical_rank"]) <= int(r["rank"])
        for r in rows
        if r["converged"] == "1"
    )
    converged_runs = sum(r["converged"] == "1" for r in rows)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6: rank control",
        ok and capped and elapsed < 120.0,
        f"{converged_runs}/4 converged, all capped: {capped}, {elapsed:.1f}s",
    )


def test_criterion_7_projection_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(24, 24))
    full = np.ones((24, 24))
    cfg = SplicConfig()

    res_full = splic_complete(x, full, cfg)
    identity_ok = np.array_equal(res_full.completed, x)

    scene = make_test_image(0, 24)
    mask = generate_mask(24, 24, 0.5, 5)
    anchors = mask == 1.0
    with recorded_steps() as steps:
        res = splic_complete(scene, mask, cfg)
    anchor_ok = [np.array_equal(xh[0][anchors], scene[anchors]) for xh in steps]
    deltas = res.trace.delta
    blocked = len(res.trace) % 7 == 0
    blocks = deltas.reshape(-1, 7)
    geometric = all(np.all(b == b[0]) for b in blocks) and all(
        blocks[k + 1][0] == blocks[k][0] * 0.45 for k in range(len(blocks) - 1)
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7: projection and schedule invariants",
        identity_ok and all(anchor_ok) and blocked and geometric and elapsed < 5.0,
        f"identity {identity_ok}, anchors bit-exact {all(anchor_ok)}, "
        f"blocks of 7 {blocked}, ratio 0.45 exact {geometric}, {elapsed:.1f}s",
    )


def test_criterion_8_anchor_fraction_sweep(tmp_path):
    start = time.perf_counter()
    cfg = SplicConfig()
    fractions = (0.3, 0.5, 0.7)
    means = []
    for frac in fractions:
        values = []
        for i in range(10):
            clean = make_test_image(i, 32)
            mask = generate_mask(32, 32, frac, 7 + i)
            values.append(psnr(splic_complete(clean, mask, cfg).completed, clean))
        means.append(float(np.mean(values)))
    monotone = means[0] <= means[1] <= means[2]

    src = tmp_path / "scene.pgm"
    write_image(make_test_image(0, 32), src)
    out_csv = tmp_path / "cmp.csv"
    code = cli_main(
        [
            "compare",
            "--input", str(src),
            "--output", str(out_csv),
            "--anchor-fraction", "0.3,0.5,0.7",
            "--seed", "3",
        ]
    )
    rows = list(csv.DictReader(out_csv.open()))
    all_methods = code == 0 and all(
        {r["method"] for r in rows if float(r["fraction"]) == f}
        == {"splic", "srf", "soft-impute", "usvt"}
        for f in fractions
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8: anchor-fraction sweep",
        monotone and all_methods and elapsed < 300.0,
        f"means {[round(m, 1) for m in means]}, all methods present: "
        f"{all_methods}, {elapsed:.1f}s",
    )


def test_criterion_9_io_roundtrip_and_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        m, n = rng.integers(2, 24, size=2)
        x = rng.uniform(size=(m, n))
        back = decode_image(encode_image(x, maxval=255))
        worst = max(worst, float(np.abs(back - x).max()))
    roundtrip_ok = worst <= 1 / 510

    crashes = 0
    valid = b"P5\n4 3\n255\n" + bytes(range(12))
    for _ in range(2000):
        choice = rng.integers(0, 3)
        if choice == 0:
            data = rng.integers(0, 256, size=rng.integers(0, 64)).astype(np.uint8).tobytes()
        elif choice == 1:
            data = bytearray(valid)
            for _ in range(rng.integers(1, 5)):
                data[rng.integers(0, len(data))] = rng.integers(0, 256)
            data = bytes(data)
        else:
            cut = rng.integers(0, len(valid))
            data = valid[:cut]
        try:
            decode_image(data)
        except PnmParseError:
            pass
        except Exception:
            crashes += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 9: I/O round-trip and fuzzing",
        roundtrip_ok and crashes == 0 and elapsed < 10.0,
        f"worst err {worst:.2e} <= 1/510, crashes {crashes}, {elapsed:.1f}s",
    )
