import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splic.baselines as baselines_module
import splic.cli as cli_module
import splic.metrics as metrics_module
from splic.cli import _build_config, _cfg_hash, _plan_groups, build_parser, main
from splic.image_io import encode_image, read_image, write_image, write_trace_csv
from splic.linalg import numerical_rank
from splic.metrics import psnr
from splic.sampling import generate_mask
from splic.solver import SplicConfig, splic_complete
from splic.testimages import add_uniform_noise, make_test_image


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.pgm"
    write_image(make_test_image(0, 32), path)
    return path


def run_cli(*argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def test_complete_is_deterministic(tmp_path, scene_file):
    out1, out2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    code, _ = run_cli(
        "complete", "--input", scene_file, "--anchor-fraction", "0.5",
        "--seed", "7", "--output", out1,
    )
    assert code == 0
    code, _ = run_cli(
        "complete", "--input", scene_file, "--anchor-fraction", "0.5",
        "--seed", "7", "--output", out2,
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_output_carries_provenance_comment(tmp_path, scene_file):
    out = tmp_path / "a.pgm"
    run_cli("complete", "--input", scene_file, "--seed", "9", "--output", out)
    header = out.read_bytes()[:80].decode("ascii", "replace")
    assert "# splic seed=9 cfg-hash=" in header


def test_missing_input_exits_2(tmp_path):
    code, err = run_cli(
        "complete", "--input", tmp_path / "nope.pgm", "--output", tmp_path / "o.pgm"
    )
    assert code == 2
    assert "not found" in err


def test_bad_rho_exits_2_naming_constraint(tmp_path, scene_file):
    code, err = run_cli(
        "complete", "--input", scene_file, "--output", tmp_path / "o.pgm",
        "--rho", "1.5",
    )
    assert code == 2
    assert "rho" in err


def test_unstable_tv_step_exits_2(tmp_path, scene_file):
    out = tmp_path / "o.pgm"
    code, err = run_cli(
        "complete", "--input", scene_file, "--output", out, "--lambda", "0.6"
    )
    assert code == 2
    assert "mu * lambda" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["complete", "--lambda", "nan"],
        ["complete", "--add-uniform-noise", "nan"],
        ["complete", "--add-uniform-noise", "inf"],
        ["defend", "--add-uniform-noise", "1e308"],
        ["compare", "--tau", "nan"],
        ["compare", "--eta", "nan"],
    ],
)
def test_nan_or_overflowing_parameter_exits_2(tmp_path, scene_file, argv):
    # each ran to exit 0, stopped mid-solve with a misleading message, or
    # raised OverflowError (exit 1)
    out = tmp_path / "o.out"
    code, err = run_cli(*argv, "--input", scene_file, "--output", out)
    assert code == 2
    assert err.startswith("error: ") and "non-finite" not in err
    assert not out.exists()


def _count_calls(monkeypatch, name, *modules):
    """A list that grows by one on each call of `name` in any of `modules`."""
    calls = []
    for module in modules:
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, **k: calls.append(name) or real(*a, **k)
        )
    return calls


def test_batch_noise_amplitude_checked_once_before_any_read(tmp_path, monkeypatch):
    # the same error was printed once per file, after each file was read
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for i in range(6):
        write_image(make_test_image(i, (20, 24 + 4 * (i % 2))), in_dir / f"img{i}.pgm")
    reads = _count_calls(monkeypatch, "read_image", cli_module)
    code, err = run_cli(
        "defend", "--batch", "--input", in_dir, "--output", tmp_path / "out",
        "--add-uniform-noise", "inf",
    )
    assert code == 2
    assert err == "error: amplitude must be at most max float / 2, got inf\n"
    assert reads == []


def test_batch_negative_seed_checked_once_before_any_read(tmp_path, monkeypatch):
    # numpy's "expected non-negative integer" was printed once per file,
    # after each group was read and re-solved one file at a time
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for i in range(2):
        write_image(make_test_image(i, 20), in_dir / f"img{i}.pgm")
    reads = _count_calls(monkeypatch, "read_image", cli_module)
    code, err = run_cli(
        "defend", "--batch", "--input", in_dir, "--output", tmp_path / "out",
        "--seed", "-1",
    )
    assert code == 2
    assert err == "error: seed must be non-negative, got -1\n"
    assert reads == []


@pytest.mark.parametrize("flag", [("--tau", "nan"), ("--eta", "-1")])
def test_compare_checks_tau_and_eta_before_any_solve(tmp_path, scene_file, monkeypatch, flag):
    # both ran the splic and srf solves before failing in a baseline
    solves = _count_calls(monkeypatch, "splic_complete", metrics_module, baselines_module)
    out = tmp_path / "c.csv"
    code, err = run_cli("compare", "--input", scene_file, "--output", out, *flag)
    assert code == 2
    assert f"{flag[0][2:]} must be non-negative" in err
    assert solves == [] and not out.exists()


_SHAPE_MISMATCH = "reference must be a single-channel image of the same shape"


@pytest.mark.parametrize(
    "reference, message",
    [
        ("small", _SHAPE_MISMATCH),
        ("colour", _SHAPE_MISMATCH),
        ("missing", "reference file not found"),
    ],
    ids=["small", "colour", "missing"],
)
def test_rank_sweep_checks_reference_before_any_solve(tmp_path, monkeypatch, reference, message):
    # a mismatched reference failed in psnr, after the first solve
    src, ref = tmp_path / "in.pgm", tmp_path / "ref.pnm"
    write_image(make_test_image(0, 64), src)
    if reference == "small":
        write_image(make_test_image(0, 32), ref)
    elif reference == "colour":
        write_image(np.stack([make_test_image(0, 64)] * 3), ref)
    solves = _count_calls(monkeypatch, "splic_complete", cli_module)
    code, err = run_cli(
        "rank-sweep", "--input", src, "--reference", ref, "--ranks", "4",
        "--output-dir", tmp_path / "d", "--csv", tmp_path / "c.csv",
    )
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert solves == [] and not (tmp_path / "c.csv").exists()


def test_explicit_mask_file(tmp_path, scene_file):
    mask = generate_mask(32, 32, 0.5, 3)
    mask_path = tmp_path / "m.pgm"
    write_image(mask, mask_path)
    out = tmp_path / "o.pgm"
    code, _ = run_cli(
        "complete", "--input", scene_file, "--mask", mask_path, "--output", out
    )
    assert code == 0
    anchors = mask == 1.0
    clean = make_test_image(0, 32)
    produced = read_image(out)
    # anchors survive up to PGM quantization
    assert np.abs(produced[anchors] - clean[anchors]).max() <= 1 / 255


def test_strict_flag_exits_3_on_non_convergence(tmp_path, scene_file):
    code, err = run_cli(
        "complete", "--input", scene_file, "--output", tmp_path / "o.pgm",
        "--maxiter", "7", "--strict",
    )
    assert code == 3
    assert "converge" in err


def test_trace_csv_written(tmp_path, scene_file):
    trace = tmp_path / "t.csv"
    run_cli(
        "complete", "--input", scene_file, "--output", tmp_path / "o.pgm",
        "--trace", trace,
    )
    rows = trace.read_text().splitlines()
    assert rows[0] == "t,delta,rel_change,srf,tv"
    assert len(rows) > 7


def test_config_file_with_flag_override(tmp_path, scene_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"maxiter": 7, "lambda": 0.01}')
    out1, out2 = tmp_path / "o1.pgm", tmp_path / "o2.pgm"
    code, _ = run_cli(
        "complete", "--input", scene_file, "--output", out1, "--config", cfg_path
    )
    assert code == 0
    code, _ = run_cli(
        "complete", "--input", scene_file, "--output", out2, "--config", cfg_path,
        "--maxiter", "14",
    )
    assert code == 0
    assert out1.read_bytes() != out2.read_bytes()  # override took effect


# every solver flag the CLI has always taken, and the value it sets
_FLAGS = {
    "lam": (["--lambda", "0.05"], 0.05),
    "rho": (["--rho", "0.3"], 0.3),
    "mu": (["--mu", "0.25"], 0.25),
    "r": (["--rank", "5"], 5),
    "epsilon": (["--epsilon", "1e-3"], 1e-3),
    "maxiter": (["--maxiter", "14"], 14),
    "inner_steps": (["--inner-steps", "3"], 3),
    "anchor_fraction": (["--anchor-fraction", "0.3"], 0.3),
    "seed": (["--seed", "9"], 9),
    "tv_mode": (["--tv-mode", "paper"], "paper"),
    "clamp_output": (["--no-clamp"], False),
}
_COMMANDS = ("complete", "defend", "compare", "rank-sweep")


def _parsed_args(command, *flags):
    required = ["--input", "in.pgm", "--output", "out.pgm"]
    if command == "rank-sweep":
        required = ["--input", "in.pgm", "--ranks", "2", "--output-dir", "o", "--csv", "c"]
    return build_parser().parse_args([command, *required, *flags])


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SplicConfig)])
def test_each_config_field_keeps_its_flag(command, name):
    flag, value = _FLAGS[name]
    args = _parsed_args(command, *flag)
    cfg = _build_config(args)
    if command == "compare" and name == "anchor_fraction":
        # compare's --anchor-fraction is its sweep, not the config field
        assert args.fraction_sweep == "0.3" and cfg == SplicConfig()
        return
    assert getattr(cfg, name) == value and type(getattr(cfg, name)) is type(value)
    assert dataclasses.replace(cfg, **{name: getattr(SplicConfig(), name)}) == SplicConfig()
    assert _build_config(_parsed_args(command)) == SplicConfig()


def test_default_cfg_hash_is_pinned():
    # the hash is in every output header; a changed key or value moves it
    assert _cfg_hash(SplicConfig()) == "573f67945ee7"


@pytest.mark.parametrize(
    "raw",
    [
        {"maxiter": 10.5},
        {"seed": 1.5},
        {"r": 5.5},
        {"r": True},
        {"clamp_output": "no"},
    ],
)
def test_mistyped_config_value_exits_2_naming_the_key(tmp_path, scene_file, raw):
    # these crashed mid-run with a TypeError, or (clamp_output) clamped anyway
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "o.pgm"
    code, err = run_cli(
        "complete", "--input", scene_file, "--output", out, "--config", cfg_path
    )
    assert code == 2
    (key,) = raw
    assert err.startswith(f"error: {key} must be ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["complete", "defend"])
def test_all_black_image_completes_to_black(tmp_path, command):
    # it once exited 2, "anchor-masked image is identically zero"
    src = tmp_path / "black.pgm"
    write_image(np.zeros((16, 16)), src)
    out = tmp_path / "o.pgm"
    code, err = run_cli(command, "--input", src, "--output", out)
    assert code == 0 and err == ""
    assert read_image(out).tobytes() == np.zeros((16, 16)).tobytes()


@pytest.mark.parametrize("zero", [(2,), (0, 1)], ids=["blue", "red-green"])
@pytest.mark.parametrize("command", ["complete", "defend"])
def test_ppm_with_all_zero_channels_completes_them_to_zero(tmp_path, command, zero):
    # both commands exited 2 on such a file, since a channel is solved as
    # one plane of a stack
    planes = np.stack([make_test_image(i, 24) for i in range(3)])
    planes[list(zero)] = 0.0
    src, out, trace = tmp_path / "col.ppm", tmp_path / "o.ppm", tmp_path / "t.csv"
    write_image(planes, src)
    code, err = run_cli(
        command, "--input", src, "--output", out, "--seed", "2", "--trace", trace
    )
    assert code == 0 and err == ""
    result = read_image(out)
    assert not result[list(zero)].any()
    assert all(result[i].any() for i in range(3) if i not in zero)
    # one trace file per channel, header only for a channel that took no step
    assert sorted(p.name for p in tmp_path.glob("t*.csv")) == ["t.c0.csv", "t.c1.csv", "t.c2.csv"]
    for i in range(3):
        rows = (tmp_path / f"t.c{i}.csv").read_text().splitlines()
        assert rows[0] == "t,delta,rel_change,srf,tv"
        assert (len(rows) == 1) == (i in zero)


def test_defend_with_every_pixel_anchored_exits_2_before_solving(tmp_path, scene_file):
    # pass 2 had no anchors, and the error blamed an all-zero image
    out = tmp_path / "o.pgm"
    code, err = run_cli(
        "defend", "--input", scene_file, "--output", out, "--anchor-fraction", "1.0"
    )
    assert code == 2
    assert "anchor_fraction 1.0 anchors 1024 of 1024 pixels; two-pass mode" in err
    assert not out.exists()


def test_defend_trace_contains_two_passes(tmp_path, scene_file):
    trace = tmp_path / "t.csv"
    code, _ = run_cli(
        "defend", "--input", scene_file, "--output", tmp_path / "d.pgm",
        "--seed", "5", "--trace", trace,
    )
    assert code == 0
    rows = list(csv.DictReader(trace.open()))
    ts = [int(r["t"]) for r in rows]
    deltas = [float(r["delta"]) for r in rows]
    restarts = [i for i in range(1, len(ts)) if ts[i] == 1]
    assert len(restarts) == 1
    assert deltas[restarts[0]] > deltas[restarts[0] - 1]


@pytest.mark.xfail(
    strict=True,
    reason="the default stopping rule halts the constant-image run at a "
    "deviation of a few grey levels, above the quantization width",
)
def test_defend_constant_image_within_quantization(tmp_path):
    src = tmp_path / "c.pgm"
    write_image(np.full((32, 32), 0.5), src)
    out = tmp_path / "c_out.pgm"
    code, _ = run_cli("defend", "--input", src, "--output", out)
    assert code == 0
    assert np.abs(read_image(out) - read_image(src)).max() <= 1 / 510


def test_defend_batch_with_summary(tmp_path):
    in_dir, ref_dir, out_dir = tmp_path / "in", tmp_path / "ref", tmp_path / "out"
    in_dir.mkdir()
    ref_dir.mkdir()
    for i in range(3):
        clean = make_test_image(i, 24)
        write_image(clean, ref_dir / f"img{i}.pgm")
        write_image(add_uniform_noise(clean, 8 / 255, i), in_dir / f"img{i}.pgm")
    code, _ = run_cli(
        "defend", "--input", in_dir, "--output", out_dir, "--batch",
        "--reference-dir", ref_dir, "--jobs", "2", "--seed", "1",
    )
    assert code == 0
    outputs = sorted(p.name for p in out_dir.glob("img*.pgm"))
    assert outputs == ["img0.pgm", "img1.pgm", "img2.pgm"]
    rows = list(csv.DictReader((out_dir / "summary.csv").open()))
    assert [r["file"] for r in rows] == outputs
    assert all(float(r["psnr_db"]) > 0 for r in rows)


def test_compare_sweep_csv_shape(tmp_path, scene_file):
    out = tmp_path / "cmp.csv"
    code, _ = run_cli(
        "compare", "--input", scene_file, "--output", out,
        "--anchor-fraction", "0.3,0.5,0.7", "--seed", "3",
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 12
    for frac in ("0.3", "0.5", "0.7"):
        methods = {r["method"] for r in rows if r["fraction"] == frac}
        assert methods == {"splic", "srf", "soft-impute", "usvt"}


def test_compare_without_the_flag_keeps_the_config_files_fraction(tmp_path):
    # the flag once defaulted to "0.5", so an absent flag overrode the file
    scene = tmp_path / "scene.pgm"
    write_image(make_test_image(0, 24), scene)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"anchor_fraction": 0.3}))
    for flag, fractions in (([], {"0.3"}), (["--anchor-fraction", "0.7"], {"0.7"})):
        out = tmp_path / "cmp.csv"
        code, _ = run_cli(
            "compare", "--input", scene, "--output", out, "--config", cfg_path, *flag
        )
        assert code == 0
        assert {r["fraction"] for r in csv.DictReader(out.open())} == fractions, flag


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--anchor-fraction", "0.5,0"], "anchor_fraction must be in (0, 1], got 0.0"),
        (["compare", "--anchor-fraction", "0.5,x"], "--anchor-fraction: bad list '0.5,x'"),
        (["compare", "--anchor-fraction", " , "], "--anchor-fraction: empty list ' , '"),
        (["rank-sweep", "--ranks", "4,999"], "target rank 999 exceeds min(m, n) = 32"),
        (["rank-sweep", "--ranks", "4,0"], "target rank must be at least 1, got 0"),
        (["rank-sweep", "--ranks", "4,4.5"], "--ranks: bad list '4,4.5'"),
    ],
    ids=["fraction-range", "fraction-list", "fraction-empty", "rank-range", "rank-zero", "rank-list"],
)
def test_sweep_list_is_checked_before_any_solve(tmp_path, scene_file, monkeypatch, argv, message):
    # each command kept its own copy of the bounds, and the tests of the
    # fraction and rank bounds checked only the exit code
    solves = _count_calls(
        monkeypatch, "splic_complete", cli_module, metrics_module, baselines_module
    )
    outputs = {
        "compare": ["--output", tmp_path / "c.csv"],
        "rank-sweep": ["--output-dir", tmp_path / "d", "--csv", tmp_path / "c.csv"],
    }[argv[0]]
    code, err = run_cli(*argv, "--input", scene_file, *outputs)
    assert code == 2 and err == f"error: {message}\n"
    assert solves == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.pgm"]


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (["complete", "--anchor-fraction", "0.005"], ["--output", "o.pgm"]),
        (
            ["rank-sweep", "--ranks", "2", "--anchor-fraction", "0.005"],
            ["--output-dir", "d", "--csv", "c.csv"],
        ),
        (["compare", "--anchor-fraction", "0.005"], ["--output", "c.csv"]),
        (["compare", "--anchor-fraction", "0.5,0.005"], ["--output", "c.csv"]),
    ],
    ids=["complete", "rank-sweep", "compare", "compare-after-a-valid-fraction"],
)
def test_a_drawn_mask_without_an_anchor_names_its_fraction(tmp_path, monkeypatch, argv, outputs):
    # validate_mask's "mask has no anchor pixel" named no flag, and compare
    # solved the 0.5 run before it reached 0.005
    write_image(make_test_image(0, 8), tmp_path / "small.pgm")
    solves = _count_calls(
        monkeypatch, "splic_complete", cli_module, metrics_module, baselines_module
    )
    monkeypatch.chdir(tmp_path)
    code, err = run_cli(*argv, "--input", "small.pgm", *outputs)
    assert code == 2
    assert err == (
        "error: anchor_fraction 0.005 anchors 0 of 64 pixels; a completion needs at least one\n"
    )
    assert solves == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.pgm"]


def test_rank_sweep_outputs_and_csv(tmp_path, scene_file):
    out_dir = tmp_path / "sweep"
    csv_path = tmp_path / "sweep.csv"
    code, _ = run_cli(
        "rank-sweep", "--input", scene_file, "--ranks", "8,16",
        "--output-dir", out_dir, "--csv", csv_path, "--seed", "5",
    )
    assert code == 0
    rows = list(csv.DictReader(csv_path.open()))
    assert [int(r["rank"]) for r in rows] == [8, 16]
    for row in rows:
        assert int(row["numerical_rank"]) <= int(row["rank"])
    for r in (8, 16):
        img = read_image(out_dir / f"scene_r{r}.pgm")
        # quantization inflates tiny singular values; check against a loose tol
        assert numerical_rank(img, 1e-2) <= r


def test_rank_sweep_solves_with_the_mask_file(tmp_path, scene_file):
    # --mask was accepted and ignored: the sweep drew its own random mask
    mask = generate_mask(32, 32, 0.3, 11)
    mask_path = tmp_path / "m.pgm"
    write_image(mask, mask_path)
    csv_path = tmp_path / "c.csv"
    code, _ = run_cli(
        "rank-sweep", "--input", scene_file, "--ranks", "6", "--mask", mask_path,
        "--output-dir", tmp_path / "d", "--csv", csv_path,
    )
    assert code == 0
    image = read_image(scene_file)
    res = splic_complete(image, mask, SplicConfig(r=6))
    quality = psnr(np.clip(res.low_rank, 0.0, 1.0), image)
    rank = numerical_rank(res.low_rank, metrics_module.RANK_TOL)
    row = f"6,{quality!r},{rank},{int(res.converged)}"
    assert csv_path.read_text().splitlines()[1] == row


def test_rank_sweep_scores_a_noisy_run_against_the_input_file(tmp_path):
    # without --reference, rank-sweep scored against the noisy copy it
    # solved (30.84 dB here), while compare scored against the input file
    src, csv_path = tmp_path / "in.pgm", tmp_path / "c.csv"
    write_image(make_test_image(200, 64), src)
    code, _ = run_cli(
        "rank-sweep", "--input", src, "--ranks", "4", "--seed", "2",
        "--add-uniform-noise", "0.05", "--output-dir", tmp_path / "d", "--csv", csv_path,
    )
    assert code == 0
    clean, cfg = read_image(src), SplicConfig(r=4, seed=2)
    noisy = add_uniform_noise(clean, 0.05, cfg.seed)
    res = splic_complete(noisy, generate_mask(64, 64, cfg.anchor_fraction, cfg.seed), cfg)
    quality = psnr(np.clip(res.low_rank, 0.0, 1.0), clean)
    assert csv_path.read_text().splitlines()[1].split(",")[1] == repr(quality)


@pytest.mark.parametrize(
    "mask, message",
    [(None, "No such file"), ((16, 32), "mask shape (16, 32) != image shape (32, 32)")],
    ids=["missing", "shape"],
)
def test_rank_sweep_checks_the_mask_file_before_any_solve(
    tmp_path, scene_file, monkeypatch, mask, message
):
    mask_path = tmp_path / "m.pgm"
    if mask is not None:
        write_image(generate_mask(*mask, 0.5, 0), mask_path)
    solves = _count_calls(monkeypatch, "splic_complete", cli_module)
    code, err = run_cli(
        "rank-sweep", "--input", scene_file, "--ranks", "4", "--mask", mask_path,
        "--output-dir", tmp_path / "d", "--csv", tmp_path / "c.csv",
    )
    assert code == 2 and message in err
    assert solves == []
    assert not (tmp_path / "d").exists() and not (tmp_path / "c.csv").exists()


def test_rank_sweep_writes_nothing_when_the_solve_is_rejected(tmp_path, scene_file):
    # --output-dir was made before the solver rejected an all-zero anchor set
    mask_path = tmp_path / "m.pgm"
    write_image(np.zeros((32, 32)), mask_path)
    code, err = run_cli(
        "rank-sweep", "--input", scene_file, "--ranks", "4", "--mask", mask_path,
        "--output-dir", tmp_path / "d", "--csv", tmp_path / "c.csv",
    )
    assert code == 2 and "mask has no anchor pixel" in err
    assert not (tmp_path / "d").exists() and not (tmp_path / "c.csv").exists()


def test_rank_sweep_output_dir_that_is_a_file_writes_nothing(tmp_path, scene_file):
    (tmp_path / "d").write_bytes(b"")
    code, err = run_cli(
        "rank-sweep", "--input", scene_file, "--ranks", "4",
        "--output-dir", tmp_path / "d", "--csv", tmp_path / "c.csv",
    )
    assert code == 2 and "error:" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "scene.pgm"]
    assert (tmp_path / "d").read_bytes() == b""


def test_rank_sweep_strict_exits_3_after_every_output(tmp_path, scene_file):
    # --strict was accepted and ignored: the sweep exited 0
    csv_path = tmp_path / "c.csv"
    code, err = run_cli(
        "rank-sweep", "--input", scene_file, "--ranks", "4,8", "--maxiter", "1",
        "--strict", "--output-dir", tmp_path / "d", "--csv", csv_path,
    )
    assert code == 3 and "converge" in err
    assert [row["converged"] for row in csv.DictReader(csv_path.open())] == ["0", "0"]
    assert (tmp_path / "d" / "scene_r4.pgm").exists()
    assert (tmp_path / "d" / "scene_r8.pgm").exists()


@pytest.mark.parametrize("command", _COMMANDS)
def test_strict_is_a_flag_of_the_commands_that_read_it(command):
    # compare took --strict and never read it
    if command == "compare":
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            _parsed_args(command, "--strict")
        assert exc.value.code == 2
    else:
        assert _parsed_args(command, "--strict").strict


def test_add_uniform_noise_flag_changes_input_deterministically(tmp_path, scene_file):
    outs = []
    for name in ("n1.pgm", "n2.pgm"):
        out = tmp_path / name
        code, _ = run_cli(
            "complete", "--input", scene_file, "--output", out,
            "--add-uniform-noise", "0.03", "--seed", "4", "--maxiter", "7",
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_ppm_input_completes_per_channel(tmp_path):
    planes = np.stack([make_test_image(i, 24) for i in range(3)])
    src = tmp_path / "col.ppm"
    write_image(planes, src)
    out = tmp_path / "col_out.ppm"
    code, _ = run_cli("complete", "--input", src, "--output", out, "--seed", "2")
    assert code == 0
    result = read_image(out)
    assert result.shape == (3, 24, 24)
    assert psnr(result, planes) > 30.0


@pytest.fixture
def batch_dir(tmp_path):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for i in range(2):
        write_image(make_test_image(i, 24), in_dir / f"img{i}.pgm")
    return in_dir


def test_noise_seed_comes_from_config_in_single_and_batch_runs(tmp_path, batch_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"seed": 5, "maxiter": 14}')
    noise = ("--add-uniform-noise", "0.05", "--config", cfg_path)
    single = tmp_path / "single.pgm"
    code, _ = run_cli(
        "defend", "--input", batch_dir / "img0.pgm", "--output", single, *noise
    )
    assert code == 0
    code, _ = run_cli(
        "defend", "--input", batch_dir, "--output", tmp_path / "out", "--batch", *noise
    )
    assert code == 0
    assert single.read_bytes() == (tmp_path / "out" / "img0.pgm").read_bytes()


def test_defend_batch_strict_exits_3_on_non_convergence(tmp_path, batch_dir):
    out_dir = tmp_path / "out"
    code, err = run_cli(
        "defend", "--input", batch_dir, "--output", out_dir, "--batch",
        "--maxiter", "7", "--strict",
    )
    assert code == 3
    assert "converge" in err
    assert sorted(p.name for p in out_dir.glob("*.pgm")) == ["img0.pgm", "img1.pgm"]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_defend_batch_rejects_jobs_below_one(tmp_path, batch_dir, jobs):
    code, err = run_cli(
        "defend", "--input", batch_dir, "--output", tmp_path / "out", "--batch",
        "--jobs", jobs,
    )
    assert code == 2
    assert "--jobs must be at least 1" in err
    assert not (tmp_path / "out").exists()


def _mixed_dir(tmp_path):
    """Grey and colour files, ASCII and binary, with a matching reference dir."""
    in_dir, ref_dir = tmp_path / "in", tmp_path / "ref"
    in_dir.mkdir()
    ref_dir.mkdir()
    for i in range(4):
        scene = make_test_image(10 + i, (20, 20 + 4 * i))
        img = np.stack([scene, scene ** 2, 1.0 - scene]) if i % 2 else scene
        name = f"img{i}" + (".ppm" if i % 2 else ".pgm")
        fmt = ("P3" if i % 2 else "P2") if i < 2 else None
        write_image(img, in_dir / name, fmt=fmt)
        write_image(img, ref_dir / name)
    return in_dir, ref_dir


def test_defend_batch_output_independent_of_jobs(tmp_path):
    in_dir, ref_dir = _mixed_dir(tmp_path)
    outputs = []
    for jobs in ("1", "2", "3"):
        out_dir = tmp_path / f"out{jobs}"
        code, _ = run_cli(
            "defend", "--input", in_dir, "--output", out_dir, "--batch",
            "--reference-dir", ref_dir, "--jobs", jobs, "--seed", "2",
            "--add-uniform-noise", "0.04",
        )
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert sorted(outputs[0]) == ["img0.pgm", "img1.ppm", "img2.pgm", "img3.ppm", "summary.csv"]
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_defend_batch_summary_quotes_only_the_names_that_need_it(tmp_path, jobs):
    # rows were joined by hand, so "a,b.pgm" gave a row of three fields
    in_dir, ref_dir = tmp_path / "in", tmp_path / "ref"
    in_dir.mkdir()
    ref_dir.mkdir()
    names = ["a,b.pgm", "img.pgm", 'q"x.pgm']
    for i, name in enumerate(names):
        write_image(make_test_image(i, 16), in_dir / name)
        write_image(make_test_image(i, 16), ref_dir / name)
    code, err = run_cli(
        "defend", "--batch", "--input", in_dir, "--output", tmp_path / "out",
        "--reference-dir", ref_dir, "--jobs", jobs, "--maxiter", "14",
        "--add-uniform-noise", "0.04",
    )
    assert code == 0, err
    text = (tmp_path / "out" / "summary.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["file", "psnr_db"]
    assert [row[0] for row in rows[1:]] == names
    assert all(len(row) == 2 for row in rows)
    # a name that needs no quoting keeps its bytes: unquoted, the PSNR as repr prints it
    assert text.splitlines()[2] == f"img.pgm,{float(rows[2][1])!r}"


def test_defend_batch_under_python_m_writes_nothing_to_stderr(tmp_path):
    # each worker printed runpy's "'splic.cli' found in sys.modules"
    # RuntimeWarning, since the forkserver had preloaded splic.cli
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_image(make_test_image(0, 16), in_dir / "a.pgm")
    write_image(make_test_image(1, 24), in_dir / "b.pgm")
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "splic.cli", "defend", "--batch", "--jobs", "2",
         "--input", str(in_dir), "--output", str(tmp_path / "out")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["a.pgm", "b.pgm"]


def test_defend_one_on_a_worker_process_equals_the_in_process_solve():
    planes = np.stack([make_test_image(i, (20, 28)) for i in range(3)])
    cfg = SplicConfig(seed=3)
    here = cli_module._defend_one(planes, cfg)
    with cli_module._worker_pool() as pool:
        there = cli_module._defend_one(planes, cfg, pool)
    assert np.array_equal(there.completed, here.completed)
    assert np.array_equal(there.low_rank, here.low_rank)
    for a, b in zip(there.trace.columns(), here.trace.columns(), strict=True):
        assert np.array_equal(a, b)
    assert (there.iterations, there.converged) == (here.iterations, here.converged)


class InProcessPool:
    """Stands in for `cli._worker_pool()` without starting a process: each
    submit runs here, and from submit number `dies_at` on, its future
    raises BrokenProcessPool as if the worker had died."""

    def __init__(self, dies_at=None):
        self.submitted = []
        self.dies_at = dies_at
        self.closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed = True
        return False

    def submit(self, fn, *args):
        self.submitted.append(fn)
        future = Future()
        if self.dies_at is not None and len(self.submitted) > self.dies_at:
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(fn(*args))
        return future


def _patch_worker_pool(monkeypatch, dies_at=None):
    """Make `cli._worker_pool` return InProcessPools; the list of those made."""
    made = []

    def make():
        made.append(InProcessPool(dies_at))
        return made[-1]

    monkeypatch.setattr(cli_module, "_worker_pool", make)
    return made


@pytest.mark.parametrize("jobs, pools", [("1", 0), ("2", 1), ("8", 1)])
def test_defend_batch_starts_a_worker_per_extra_group(
    tmp_path, batch_dir, monkeypatch, jobs, pools
):
    assert len(_plan_groups(sorted(batch_dir.iterdir()))) == 2
    started = _patch_worker_pool(monkeypatch)
    code, _ = run_cli(
        "defend", "--input", batch_dir, "--output", tmp_path / "out", "--batch",
        "--jobs", jobs, "--maxiter", "14",
    )
    assert code == 0
    assert len(started) == pools


def test_solve_groups_processes_each_group_once_under_contention(monkeypatch):
    pools = _patch_worker_pool(monkeypatch)
    seen = []

    def process(group, pool=None):
        seen.append(group)
        return group * 2 if pool is None else pool.submit(int, group * 2).result()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = cli_module._solve_groups(list(range(300)), process, jobs=8)
    finally:
        sys.setswitchinterval(switch)
    assert len(pools) == 7
    assert results == [2 * g for g in range(300)]
    assert sorted(seen) == list(range(300))


def test_solve_groups_raises_a_feeder_error_once_every_feeder_has_stopped(monkeypatch):
    pools = _patch_worker_pool(monkeypatch)
    fed, both_fed, seen = [], threading.Event(), []

    def process(group, pool=None):
        seen.append(group)
        if pool is None:  # the calling thread waits until both feeders claimed
            assert both_fed.wait(10)
            return group
        fed.append((pool, threading.current_thread()))
        if len(fed) == 2:
            both_fed.set()
        raise RuntimeError(f"feeder failed on {group}")

    with pytest.raises(RuntimeError, match="feeder failed"):
        cli_module._solve_groups(list(range(6)), process, jobs=3)
    assert len(pools) == 2 and all(pool.closed for pool in pools)
    # each feeder stopped after its first claim, before the error was raised
    assert sorted(map(id, pools)) == sorted(id(pool) for pool, _ in fed)
    assert not any(thread.is_alive() for _, thread in fed)
    assert sorted(seen) == list(range(6))


def test_solve_groups_raises_the_calling_threads_error(monkeypatch):
    pools = _patch_worker_pool(monkeypatch)
    seen, caller_claimed = [], threading.Event()

    def process(group, pool=None):
        seen.append(group)
        if pool is None:
            caller_claimed.set()
            raise RuntimeError("caller failed")
        assert caller_claimed.wait(10)  # the feeders wait for the caller's claim
        return group

    with pytest.raises(RuntimeError, match="caller failed"):
        cli_module._solve_groups(list(range(6)), process, jobs=3)
    assert len(pools) == 2 and all(pool.closed for pool in pools)
    assert sorted(seen) == list(range(6))


@pytest.mark.parametrize("dies_at", [0, 1], ids=["before-ready", "at-first-solve"])
def test_defend_batch_byte_identical_when_a_worker_dies(tmp_path, monkeypatch, dies_at):
    in_dir, ref_dir = _same_shape_dir(tmp_path)
    (in_dir / "img1b.pgm").write_bytes(b"P2\n24 20\n255\n" + b"7 " * 200 + b"x\n")
    (ref_dir / "img1b.pgm").write_bytes((ref_dir / "img0.pgm").read_bytes())
    flags = ("--maxiter", "21", "--add-uniform-noise", "0.03")
    expected = _batch_outputs(in_dir, ref_dir, tmp_path / "serial", *flags)
    assert expected[0] == 2
    pools = _patch_worker_pool(monkeypatch, dies_at)
    got = _batch_outputs(in_dir, ref_dir, tmp_path / "dead", "--jobs", "3", *flags)
    assert got == expected
    # the no-op round trip, then up to `dies_at` solves; a dead worker's feeder stops
    assert len(pools) == 2 and max(len(pool.submitted) for pool in pools) == dies_at + 1


def test_colour_trace_csvs_match_per_plane_solves(tmp_path):
    planes = np.stack([make_test_image(i, (20, 28)) for i in range(3)])
    src = tmp_path / "col.ppm"
    write_image(planes, src)
    code, _ = run_cli(
        "complete", "--input", src, "--output", tmp_path / "o.ppm", "--seed", "6",
        "--trace", tmp_path / "t.csv",
    )
    assert code == 0
    cfg = SplicConfig(seed=6)
    mask = generate_mask(20, 28, cfg.anchor_fraction, cfg.seed)
    for i, plane in enumerate(read_image(src)):
        solo = tmp_path / f"solo{i}.csv"
        write_trace_csv(splic_complete(plane, mask, cfg).trace, solo, 1)
        assert (tmp_path / f"t.c{i}.csv").read_bytes() == solo.read_bytes()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--batch", "--trace", "t.csv"], "--trace"),
        (["--batch", "--summary", "s.csv"], "--summary"),
        (["--reference-dir", "ref", "--summary", "s.csv"], "--reference-dir"),
        (["--jobs", "4"], "--jobs"),
    ],
)
def test_defend_rejects_flags_its_mode_ignores(tmp_path, scene_file, monkeypatch, flags, named):
    in_dir, ref_dir = tmp_path / "in", tmp_path / "ref"
    for d in (in_dir, ref_dir):
        d.mkdir()
        write_image(make_test_image(0, 16), d / "img.pgm")
    batch = "--batch" in flags
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code, err = run_cli(
        "defend", "--input", in_dir if batch else scene_file,
        "--output", "out" if batch else "out.pgm", *flags,
    )
    assert code == 2
    assert named in err
    assert sorted(tmp_path.rglob("*")) == before


def test_defend_batch_isolates_a_corrupt_file(tmp_path):
    # a P2 header promising 70000 x 70000 samples raised MemoryError, which
    # ended the whole batch with a traceback
    corrupt = [
        (b"P3\n20 24\n255\n0 1 x\n", "not an integer"),
        (b"P2\n70000 70000\n255\n0 1 2\n", "missing sample 3"),
    ]
    for i, (data, message) in enumerate(corrupt):
        root = tmp_path / str(i)
        root.mkdir()
        in_dir, ref_dir = _mixed_dir(root)
        (in_dir / "img1.ppm").write_bytes(data)
        out_dir = root / "out"
        code, err = run_cli(
            "defend", "--input", in_dir, "--output", out_dir, "--batch",
            "--reference-dir", ref_dir, "--jobs", "2", "--maxiter", "14",
        )
        assert code == 2
        assert "img1.ppm" in err and message in err
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == ["img0.pgm", "img2.pgm", "img3.ppm", "summary.csv"]
        rows = list(csv.DictReader((out_dir / "summary.csv").open()))
        assert [r["file"] for r in rows] == ["img0.pgm", "img2.pgm", "img3.ppm"]


def test_defend_batch_missing_reference_writes_nothing(tmp_path):
    in_dir, ref_dir = _mixed_dir(tmp_path)
    (ref_dir / "img3.ppm").unlink()
    out_dir = tmp_path / "out"
    code, err = run_cli(
        "defend", "--input", in_dir, "--output", out_dir, "--batch",
        "--reference-dir", ref_dir,
    )
    assert code == 2
    assert "reference file missing" in err and "img3.ppm" in err
    assert not out_dir.exists()


def _same_shape_dir(tmp_path):
    """Same-shape grey and colour files, ASCII and binary, plus one larger
    colour file that sets the group budget; with a reference dir."""
    in_dir, ref_dir = tmp_path / "in", tmp_path / "ref"
    in_dir.mkdir()
    ref_dir.mkdir()
    formats = ("P2", "P3", "P5", "P6", None, "P3")
    for i, fmt in enumerate(formats):
        scene = make_test_image(30 + i, (20, 24))
        colour = fmt in ("P3", "P6")
        img = np.stack([scene, scene ** 2, 1.0 - scene]) if colour else scene
        name = f"img{i}" + (".ppm" if colour else ".pgm")
        write_image(img, in_dir / name, fmt=fmt)
        write_image(img, ref_dir / name)
    big = make_test_image(40, (30, 32))
    write_image(np.stack([big, big, big]), in_dir / "z.ppm")
    write_image(np.stack([big, big, big]), ref_dir / "z.ppm")
    return in_dir, ref_dir


def _batch_outputs(in_dir, ref_dir, out_dir, *flags):
    code, err = run_cli(
        "defend", "--input", in_dir, "--output", out_dir, "--batch",
        "--reference-dir", ref_dir, "--seed", "4", *flags,
    )
    return code, err, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_plan_groups_keep_name_order_within_the_budget(tmp_path):
    headers = {
        "a0.pgm": b"P5 24 20 255\n", "a1.ppm": b"P6 24 20 255\n",
        "a2.pgm": b"P2 24 20 255\n", "a3.pgm": b"P5 20 24 255\n",
        "a4.pgm": b"P5 24 20 255\n", "a5.ppm": b"P3 24 20 255\n",
        "a6.pgm": b"P5 24 20 255\n", "a7.pgm": b"P5 24 20 255\n",
        "b.ppm": b"P6 32 30 255\n", "bad.pgm": b"P9 24 20 255\n",
        "cut.pgm": b"P5 24",
    }
    for name, data in headers.items():
        # padded to b.ppm's samples at 1 byte each, so every file could hold its own
        (tmp_path / name).write_bytes(data + bytes(3 * 30 * 32))
    files = sorted(tmp_path.iterdir())
    groups = [[p.name for p in group] for group in _plan_groups(files)]
    # budget: b.ppm's 3 * 30 * 32 plane-pixels, 6 planes of 20 x 24
    assert groups == [
        ["a0.pgm", "a1.ppm", "a2.pgm", "a4.pgm"], ["a3.pgm"],
        ["a5.ppm", "a6.pgm", "a7.pgm"], ["b.ppm"], ["bad.pgm"], ["cut.pgm"],
    ]


def test_plan_groups_ignore_a_header_the_file_cannot_hold(tmp_path):
    # every sample takes at least 1 byte, so a 25-byte file cannot hold
    # 70000 x 70000 of them; its header once set the budget, and six 32²
    # files planned as one stack of six instead of six stacks of one
    for i in range(6):
        write_image(make_test_image(i % 4, 32), tmp_path / f"img{i}.pgm")
    assert [len(g) for g in _plan_groups(sorted(tmp_path.iterdir()))] == [1] * 6
    (tmp_path / "huge.pgm").write_bytes(b"P2 70000 70000 255\n1 2 3\n")
    assert (tmp_path / "huge.pgm").stat().st_size == 25
    groups = _plan_groups(sorted(tmp_path.iterdir()))
    assert [len(g) for g in groups] == [1] * 7
    assert [tmp_path / "huge.pgm"] in groups


def _three_8x8_greys(folder):
    for name in ("a.pgm", "b.pgm", "c.pgm"):
        write_image(make_test_image(0, 8), folder / name)


def test_plan_groups_size_a_binary_payload_by_its_maxval(tmp_path):
    # a 16-bit P6 8x8 needs 397 bytes; cut to 205 it held its 192 samples
    # at 1 byte each, so it set the budget to three planes and the three
    # greys planned as one stack
    _three_8x8_greys(tmp_path)
    data = encode_image(np.zeros((3, 8, 8)), maxval=65535)
    assert len(data) == 397
    (tmp_path / "t.ppm").write_bytes(data[:205])
    groups = _plan_groups(sorted(tmp_path.iterdir()))
    names = [[p.name for p in group] for group in groups]
    assert names == [["a.pgm"], ["b.pgm"], ["c.pgm"], ["t.ppm"]]


def test_plan_groups_size_an_ascii_payload_at_two_bytes_per_sample(tmp_path):
    # a P3 8x8 needs a separator and a digit for each of its 192 samples;
    # 300 payload bytes held them at 1 byte each and set the budget
    _three_8x8_greys(tmp_path)
    (tmp_path / "d.ppm").write_bytes(b"P3 8 8 255\n" + b"0" * 300)
    groups = _plan_groups(sorted(tmp_path.iterdir()))
    assert [len(group) for group in groups] == [1] * 4
    full = encode_image(np.zeros((3, 8, 8)), fmt="P3")
    (tmp_path / "d.ppm").write_bytes(full)
    assert [len(group) for group in _plan_groups(sorted(tmp_path.iterdir()))] == [3, 1]


def test_defend_batch_groups_byte_identical_to_per_file_runs(tmp_path):
    in_dir, ref_dir = _same_shape_dir(tmp_path)
    noise = ("--add-uniform-noise", "0.03")
    files = sorted(in_dir.iterdir())
    assert max(len(group) for group in _plan_groups(files)) > 2
    per_file, rows = {}, []
    for path in files:
        one_in, one_ref = tmp_path / "one" / path.stem, tmp_path / "one_ref" / path.stem
        one_in.mkdir(parents=True)
        one_ref.mkdir(parents=True)
        (one_in / path.name).write_bytes(path.read_bytes())
        (one_ref / path.name).write_bytes((ref_dir / path.name).read_bytes())
        code, _, out = _batch_outputs(
            one_in, one_ref, tmp_path / "one_out" / path.stem, *noise
        )
        assert code == 0
        per_file[path.name] = out[path.name]
        rows.append(out["summary.csv"].splitlines()[1])
        single = tmp_path / "single" / path.name
        code, _ = run_cli("defend", "--input", path, "--output", single, "--seed", "4", *noise)
        assert code == 0 and single.read_bytes() == per_file[path.name]
    summary = b"\n".join([b"file,psnr_db", *rows]) + b"\n"
    for jobs in ("1", "2", "3"):
        code, _, out = _batch_outputs(
            in_dir, ref_dir, tmp_path / f"out{jobs}", "--jobs", jobs, *noise
        )
        assert code == 0
        assert out == {**per_file, "summary.csv": summary}


_BATCH_FILES = st.lists(
    st.tuples(
        st.sampled_from([(8, 8), (12, 16), (16, 10)]),
        st.booleans(),  # colour
        st.booleans(),  # ASCII
    ),
    min_size=3,
    max_size=6,
)


@given(files=_BATCH_FILES, jobs=st.sampled_from(["1", "2", "3"]))
@settings(deadline=None, max_examples=6)
def test_defend_batch_output_independent_of_jobs_and_grouping(tmp_path_factory, files, jobs):
    tmp = tmp_path_factory.mktemp("batch")
    in_dir, ref_dir = tmp / "in", tmp / "ref"
    in_dir.mkdir()
    ref_dir.mkdir()
    for i, (shape, colour, ascii) in enumerate(files):
        scene = make_test_image(i, shape)
        img = np.stack([scene, scene ** 2, 1.0 - scene]) if colour else scene
        name = f"img{i}" + (".ppm" if colour else ".pgm")
        write_image(img, in_dir / name, fmt=("P3" if colour else "P2") if ascii else None)
        write_image(img, ref_dir / name)
    flags = ("--maxiter", "14", "--add-uniform-noise", "0.04")
    expected, rows = {}, [b"file,psnr_db"]
    for path in sorted(in_dir.iterdir()):
        one_in, one_ref = tmp / "one" / path.stem, tmp / "one_ref" / path.stem
        one_in.mkdir(parents=True)
        one_ref.mkdir(parents=True)
        (one_in / path.name).write_bytes(path.read_bytes())
        (one_ref / path.name).write_bytes((ref_dir / path.name).read_bytes())
        code, err, out = _batch_outputs(one_in, one_ref, tmp / "one_out" / path.stem, *flags)
        assert code == 0, err
        expected[path.name] = out[path.name]
        rows += out["summary.csv"].splitlines()[1:]
    expected["summary.csv"] = b"\n".join(rows) + b"\n"
    for run_jobs in sorted({"1", jobs}):
        code, err, out = _batch_outputs(
            in_dir, ref_dir, tmp / f"out{run_jobs}", "--jobs", run_jobs, *flags
        )
        assert code == 0, err
        assert out == expected, run_jobs


def test_defend_batch_isolates_failures_inside_a_group(tmp_path):
    in_dir, ref_dir = _same_shape_dir(tmp_path)
    code, _, clean = _batch_outputs(in_dir, ref_dir, tmp_path / "clean", "--maxiter", "21")
    assert code == 0
    # same shape as their neighbours, so both join a group: a corrupt
    # payload, long enough to hold 24 x 20 samples of a separator and a
    # digit each, and an all-black image, which once failed as well and
    # now completes to black
    (in_dir / "img1b.pgm").write_bytes(b"P2\n24 20\n255\n" + b"7 " * 479 + b"x\n")
    write_image(np.zeros((20, 24)), in_dir / "img2b.pgm")
    write_image(np.zeros((20, 24)), ref_dir / "img2b.pgm")
    (ref_dir / "img1b.pgm").write_bytes((ref_dir / "img0.pgm").read_bytes())
    groups = _plan_groups(sorted(in_dir.iterdir()))
    assert any(len(g) > 1 and in_dir / "img1b.pgm" in g for g in groups)
    assert any(len(g) > 1 and in_dir / "img2b.pgm" in g for g in groups)
    header, *rows = clean["summary.csv"].decode().splitlines()
    rows = [header, *sorted([*rows, "img2b.pgm,inf"])]  # file order
    for jobs in ("1", "2", "3"):
        code, err, out = _batch_outputs(
            in_dir, ref_dir, tmp_path / f"out{jobs}", "--maxiter", "21", "--jobs", jobs
        )
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: img1b.pgm: ") and "not an integer" in lines[0]
        black = read_image(tmp_path / f"out{jobs}" / "img2b.pgm")
        assert black.tobytes() == np.zeros((20, 24)).tobytes()
        del out["img2b.pgm"]
        assert out.pop("summary.csv").decode().splitlines() == rows
        assert out == {k: v for k, v in clean.items() if k != "summary.csv"}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_defend_batch_solves_a_file_with_zero_channels_inside_a_group(tmp_path, jobs):
    # such a file once failed, and made its whole group be solved again
    # one file at a time
    in_dir, ref_dir = _same_shape_dir(tmp_path)
    code, _, clean = _batch_outputs(in_dir, ref_dir, tmp_path / "clean", "--maxiter", "21")
    assert code == 0
    scene = make_test_image(50, (20, 24))
    zeros = np.stack([scene, np.zeros_like(scene), np.zeros_like(scene)])
    for folder in (in_dir, ref_dir):
        write_image(zeros, folder / "img2z.ppm")
    groups = _plan_groups(sorted(in_dir.iterdir()))
    assert any(len(g) > 1 and in_dir / "img2z.ppm" in g for g in groups)
    single = tmp_path / "single.ppm"
    code, _ = run_cli(
        "defend", "--input", in_dir / "img2z.ppm", "--output", single,
        "--seed", "4", "--maxiter", "21",
    )
    assert code == 0
    code, err, out = _batch_outputs(
        in_dir, ref_dir, tmp_path / "out", "--maxiter", "21", "--jobs", jobs
    )
    assert code == 0 and err == ""
    written = out.pop("img2z.ppm")
    assert written == single.read_bytes()
    assert not read_image(tmp_path / "out" / "img2z.ppm")[1:].any()
    rows = out.pop("summary.csv").decode().splitlines()
    assert [r.split(",")[0] for r in rows if r.startswith("img2z")] == ["img2z.ppm"]
    assert [r for r in rows if not r.startswith("img2z")] == (
        clean.pop("summary.csv").decode().splitlines()
    )
    assert out == clean


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fault", ["output-is-a-directory", "reference-of-another-shape"])
def test_defend_batch_names_files_that_fail_after_their_solve(tmp_path, monkeypatch, fault, jobs):
    # no test reached a failure between a group's solve and its outputs
    in_dir, ref_dir = _same_shape_dir(tmp_path)
    code, _, clean = _batch_outputs(in_dir, ref_dir, tmp_path / "clean", "--maxiter", "21")
    assert code == 0
    failing = ["img1.ppm", "img4.pgm"]  # each inside a group of several files
    groups = _plan_groups(sorted(in_dir.iterdir()))
    assert all(len(g) > 1 for g in groups if {p.name for p in g} & set(failing))
    out_dir = tmp_path / "out"
    for name in failing:
        if fault == "output-is-a-directory":
            (out_dir / name).mkdir(parents=True)
        else:  # caught only by psnr, after the solve
            write_image(make_test_image(0, 16), ref_dir / name)
    if jobs == "1":
        def started(*args):
            raise AssertionError("--jobs 1 started a thread or a process")

        monkeypatch.setattr(threading.Thread, "start", started)
        monkeypatch.setattr(cli_module, "_worker_pool", started)
    code, err = run_cli(
        "defend", "--input", in_dir, "--output", out_dir, "--batch",
        "--reference-dir", ref_dir, "--seed", "4", "--maxiter", "21", "--jobs", jobs,
    )
    assert code == 2
    lines = err.splitlines()
    assert [line.split(":")[1].strip() for line in lines] == failing
    reason = "Is a directory" if fault == "output-is-a-directory" else "shape mismatch"
    assert all(reason in line for line in lines)
    written = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
    rows = clean.pop("summary.csv").decode().splitlines()
    assert written.pop("summary.csv").decode().splitlines() == [
        row for row in rows if row.split(",")[0] not in failing
    ]
    assert written == {name: data for name, data in clean.items() if name not in failing}
