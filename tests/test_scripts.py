"""Each script under scripts/ runs end to end on one tiny scene."""

import os
import subprocess
import sys
from pathlib import Path

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
