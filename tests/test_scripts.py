"""Each script under scripts/ runs end to end on one tiny scene or grid."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        (
            "make_corpus.py",
            ["--out", "clean", "--noisy-out", "noisy"],
            ["clean/scene00.pgm", "noisy/scene00.pgm"],
        ),
        ("convergence_study.py", ["--out", "traces"], ["traces/scene00_trace.csv"]),
        ("method_comparison.py", ["--out", "comparison.csv"], ["comparison.csv"]),
        (
            "method_comparison.py",
            ["--out", "noisy.csv", "--fractions", "0.5", "--noise", "0.03"],
            ["noisy.csv"],
        ),
    ],
)
def test_script_runs_on_one_tiny_scene(tmp_path, script, args, outputs):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--count", "1", "--size", "16", *args],
        cwd=tmp_path,
        # the RuntimeWarning rule tier-1 sets in pyproject.toml, in the child
        env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error::RuntimeWarning"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for name in outputs:
        assert (tmp_path / name).is_file(), name


def _corpus_diff(*args, cwd):
    """A `scripts/corpus_diff.py` process, started with src/ on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "corpus_diff.py"), *map(str, args)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error::RuntimeWarning"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out


def test_corpus_diff_reports_identical_runs_and_a_one_ulp_move(tmp_path):
    # both runs at once: each pins BLAS to one thread
    runs = [_corpus_diff("run", "--tiny", "--out", f"{name}.npz", cwd=tmp_path) for name in "ab"]
    for proc in runs:
        _finish(proc)
    with np.load(tmp_path / "b.npz") as archive:
        arrays = dict(archive)
    # one entry of a surface and the PSNR of one case, each moved by one ulp
    case = next(k for k in sorted(arrays) if k.endswith("|completed"))[: -len("|completed")]
    for name, at in (("completed", 5), ("psnr", 0)):
        moved = arrays[f"{case}|{name}"].copy()
        moved.flat[at] = np.nextafter(moved.flat[at], np.inf)
        arrays[f"{case}|{name}"] = moved
    np.savez(tmp_path / "c.npz", **arrays)
    (tmp_path / "bad.npz").write_bytes(b"not an archive")
    diffs = [_corpus_diff("diff", "a.npz", other, cwd=tmp_path) for other in ("b.npz", "c.npz")]
    bad = _corpus_diff("diff", "a.npz", "bad.npz", cwd=tmp_path)
    same, moved = map(_finish, diffs)

    cases = int(same.split("overall: ")[1].split()[0])
    assert cases > 100
    assert f"overall: {cases} cases, {cases} bit-identical" in same
    assert "input digests differ: 0 of" in same
    assert f"overall: {cases} cases, {cases - 1} bit-identical" in moved
    assert "iteration count changed: 0 cases" in moved
    bad.communicate(timeout=60)
    assert bad.returncode == 1


def test_cli_bytes_runs_every_command_and_cuts_only_the_timing(tmp_path):
    # two runs of one checkout at once, as CI runs the base's and the head's
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = ROOT / "scripts" / "cli_bytes.py"
    runs = [
        subprocess.Popen(
            [sys.executable, str(script), str(ROOT), str(tmp_path / side), "--tiny"],
            env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error::RuntimeWarning"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for side in ("a", "b")
    ]
    for proc in runs:
        _finish(proc)
    a, b = (
        {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        for out in (tmp_path / "a", tmp_path / "b")
    )
    assert a == b
    log = a["run.log"].decode().splitlines()
    assert [line for line in log if line.startswith("exit ")] == ["exit 0"] * 7
    assert a["compare0.csv"].startswith(b"fraction,method,psnr_db,rank,iters\n")
    assert a["methods.csv"].startswith(b"image,fraction,method,psnr_db,rank,iters\n")
    assert {"batch-1/summary.csv", "batch-2/img02.ppm", "defend.csv"} <= a.keys()
