"""Fast self-test of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import spans  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_harness_prints():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in BENCH[key]} == table


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_emits_every_metric(name, trace):
    report, table = run.run(name, seed=5, seconds=0, trace=trace, tiny=True)
    result = report.result(table)
    assert result["correct"], report.problems
    assert result["attempted"] > 0 and result["failed"] == 0
    assert list(result["metrics"]) == list(table)
    for metric in result["metrics"].values():
        assert metric["unit"] and math.isfinite(metric["value"])
    json.dumps(result, allow_nan=False)
    if trace and name == "defend-batch-small":
        # spans from both pool threads are merged
        assert result["metrics"]["cli.defend.files"]["value"] == 4


def test_tracer_patches_references_held_in_module_dicts():
    from splic import solver, tv

    original = tv.tv_gradient
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert solver._TV_GRADIENTS["exact"] is not original
        assert solver.tv_gradient is solver._TV_GRADIENTS["exact"]
    finally:
        tracer.uninstall()
    assert solver._TV_GRADIENTS["exact"] is original and tv.tv_gradient is original


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    argv = ["--workload", "complete-256", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
