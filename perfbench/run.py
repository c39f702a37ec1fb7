"""splic benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload complete-256 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (it needs `src/splic`).  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it record the environment and
print every metric with its unit and direction.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Pin BLAS to one thread before numpy is imported (numpy is first imported
# inside the functions below): on a 2-core machine two OpenBLAS threads
# made small SVDs about 2x slower, and under `--jobs 2` they would
# oversubscribe the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("complete-256", "defend-batch-small", "compare-sweep-128")
SETUP_REPEATS = 5

# name -> (unit, better); printed with --trace 0
END_TO_END = {
    "setup_s": ("s", "lower"),
    "mpix_per_s": ("Mpx/s", "higher"),
    "solve_s_p50": ("s", "lower"),
    "psnr_db_mean": ("dB", "higher"),
    "psnr_db_min": ("dB", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# name -> (unit, better); printed with --trace 1, per traced round
PER_LAYER = {
    "linalg.svd.calls": ("count", "lower"),
    "linalg.svd.s": ("s", "lower"),
    "linalg.svd.gflop": ("GFLOP-computed", "lower"),
    "linalg.reconstruct.s": ("s", "lower"),
    "linalg.numerical_rank.s": ("s", "lower"),
    "srf.srf_gradient.s": ("s", "lower"),
    "srf.srf_value_from_sigma.s": ("s", "lower"),
    "tv.tv_gradient.s": ("s", "lower"),
    "tv.tv_value.s": ("s", "lower"),
    "solver.splic_complete.calls": ("count", "lower"),
    "solver.splic_complete.self_s": ("s", "lower"),
    "solver.relative_change.s": ("s", "lower"),
    "solver.splic_alternated.s_per_call": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.converged_frac": ("ratio", "higher"),
    "baselines.soft_impute.s": ("s", "lower"),
    "baselines.soft_impute.iterations": ("count", "lower"),
    "baselines.usvt.s": ("s", "lower"),
    "baselines.srf_only.s": ("s", "lower"),
    "metrics.compare_methods.s": ("s", "lower"),
    "metrics.psnr.s": ("s", "lower"),
    "image_io.read_image.calls": ("count", "lower"),
    "image_io.read_image.s": ("s", "lower"),
    "image_io.read_image.bytes": ("bytes", "lower"),
    "image_io.encode_image.s": ("s", "lower"),
    "image_io.encode_image.bytes": ("bytes", "lower"),
    "cli.defend.files": ("count", "higher"),
    "cli.defend.busy_s": ("s", "lower"),
    "cli.defend.pool_speedup": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, splic, splic.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Sample:
    unit: object
    seconds: float
    outcome: object


class Report:
    """Counts, metrics and problems of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, str] = {}

    def add(self, samples):
        for s in samples:
            self.attempted += s.outcome.attempted
            self.failed += s.outcome.failed
            self.problems += s.outcome.errors

    def result(self, table) -> dict:
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, (unit, _) in table.items()
            },
        }


def run_round(units, tracer=None) -> list[Sample]:
    """Call each unit once, timing only its `run`; failures are counted."""
    from workloads import Outcome

    samples = []
    for unit in units:
        raw, error = None, None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            raw = unit.run()
        except Exception:  # a failing call is counted, not fatal
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if error is None:
            try:
                outcome = unit.check(raw)
            except Exception:  # an unreadable output fails its check
                error = traceback.format_exc()
        if error is not None:
            print(error, file=sys.stderr)
            outcome = Outcome(attempted=unit.outputs)
            outcome.fail(unit.outputs, f"{unit.name}: {error.splitlines()[-1]}")
        samples.append(Sample(unit, elapsed, outcome))
    return samples


def round_seconds(samples) -> float:
    return sum(s.seconds for s in samples)


def check_repeats(report, reference, rounds, what):
    """Every repeat of a unit must give the same outputs as the first."""
    for samples in rounds:
        for ref, s in zip(reference, samples):
            if s.outcome.digest != ref.outcome.digest:
                report.failed += s.outcome.attempted - s.outcome.failed
                report.problems.append(f"{s.unit.name}: {what} differ from the first run")


def import_seconds() -> float:
    """Import time of numpy and splic in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip())


def measure(name, seed, seconds, workdir, tiny=False) -> Report:
    """End-to-end run: set up several times, then closed-loop rounds."""
    import workloads

    report = Report()
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    setups = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.make(name, seed, tiny)
        wl.prepare(workdir / f"setup{k}")
        wl.warm_up()
        setups.append(time.perf_counter() - start)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(wl.units()))
    for samples in rounds:
        report.add(samples)
    check_repeats(report, rounds[0], rounds[1:], "outputs")

    per_unit = [statistics.median(r[i].seconds for r in rounds) for i in range(len(rounds[0]))]
    pixels = sum(s.unit.pixels for s in rounds[0])
    calls = [s.seconds for r in rounds for s in r]
    psnrs = [p for s in rounds[0] for p in s.outcome.psnrs]
    m = report.metrics
    m["setup_s"] = statistics.median(imports) + statistics.median(setups)
    m["mpix_per_s"] = pixels / sum(per_unit) / 1e6
    m["solve_s_p50"] = statistics.median(calls)
    m["psnr_db_mean"] = statistics.fmean(psnrs) if psnrs else 0.0
    m["psnr_db_min"] = min(psnrs) if psnrs else 0.0
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.notes["solve_s_p50"] = f"median of {len(calls)} calls of {wl.call}"
    report.notes["mpix_per_s"] = f"{pixels} plane-pixels per round, {len(rounds)} rounds"
    report.notes["psnr_db_mean"] = f"{len(psnrs)} scored outputs"
    return report


def measure_traced(name, seed, seconds, workdir, tiny=False) -> Report:
    """Traced run: make each call untraced and then traced; report per-layer spans."""
    import spans
    import workloads

    report = Report()
    wl = workloads.make(name, seed, tiny)
    wl.prepare(workdir / "setup")
    wl.warm_up()

    # each unit runs untraced and then traced, so that the pair sees the
    # same machine state and the ratio isolates the tracing cost
    tracer = spans.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append([])
        traced.append([])
        for plain_unit, traced_unit in zip(wl.units(), wl.units()):
            plain[-1] += run_round([plain_unit])
            traced[-1] += run_round([traced_unit], tracer)
    for samples in plain + traced:
        report.add(samples)
    check_repeats(report, plain[0], plain[1:], "outputs")
    check_repeats(report, plain[0], traced, "traced outputs")

    ratios = [
        t.seconds / p.seconds for pr, tr in zip(plain, traced) for p, t in zip(pr, tr)
    ]
    speedup = 0.0
    if name == "defend-batch-small":
        serial = run_round(wl.units(jobs=1))
        report.add(serial)
        check_repeats(report, plain[0], [serial], "--jobs 1 outputs")
        speedup = round_seconds(serial) / statistics.median(map(round_seconds, plain))

    totals = tracer.totals()
    for span in workloads.EXPECTED_SPANS[name]:
        if span not in totals or totals[span].calls == 0:
            report.problems.append(f"trace self-check: span {span} recorded no calls")

    n = len(traced)

    def per_round(span, attr="seconds", counter=None):
        stats = totals.get(span)
        if stats is None:
            return 0.0
        value = stats.counters.get(counter, 0) if counter else getattr(stats, attr)
        return value / n

    m = report.metrics
    for key in PER_LAYER:
        layer, _, what = key.rpartition(".")
        if what == "s":
            m[key] = per_round(layer)
        elif what == "calls":
            m[key] = per_round(layer, "calls")
    m["linalg.svd.gflop"] = per_round("linalg.svd", counter="gflop")
    m["solver.splic_complete.self_s"] = per_round("solver.splic_complete", "self_seconds")
    alternated = totals.get("solver.splic_alternated")
    m["solver.splic_alternated.s_per_call"] = (
        alternated.seconds / alternated.calls if alternated else 0.0
    )
    m["solver.iterations"] = per_round("solver.splic_complete", counter="iterations")
    solves = per_round("solver.splic_complete", "calls")
    converged = per_round("solver.splic_complete", counter="converged")
    m["solver.converged_frac"] = converged / solves if solves else 0.0
    m["baselines.soft_impute.iterations"] = per_round("baselines.soft_impute", counter="iterations")
    m["image_io.read_image.bytes"] = per_round("image_io.read_image", counter="bytes")
    m["image_io.encode_image.bytes"] = per_round("image_io.encode_image", counter="bytes")
    m["cli.defend.files"] = per_round("cli.defend_one", "calls")
    m["cli.defend.busy_s"] = per_round("cli.defend_one")
    m["cli.defend.pool_speedup"] = speedup
    m["trace.overhead"] = statistics.median(ratios) - 1.0
    report.notes["trace.overhead"] = f"median of {len(ratios)} traced/untraced call pairs"
    return report


def _blas_threads():
    """Thread count OpenBLAS reports, when numpy bundles a findable OpenBLAS."""
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "splic").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads": _blas_threads(),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def run(name, seed, seconds, trace, tiny=False) -> tuple[Report, dict]:
    """Run one workload in a scratch directory inside the checkout."""
    workdir = ROOT / ".perfbench_run" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            return measure_traced(name, seed, seconds, workdir, tiny), PER_LAYER
        return measure(name, seed, seconds, workdir, tiny), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def print_report(name, report, table, env):
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {name}")
    print(f"{'metric':38} {'value':>14} {'unit':15} better  note")
    for key, (unit, better) in table.items():
        value = report.metrics[key]
        print(f"{key:38} {value:14.6g} {unit:15} {better:7} {report.notes.get(key, '')}")
    frac = report.failed / report.attempted if report.attempted else 1.0
    print(f"{'failed_frac':38} {frac:14.6g} {'ratio':15} {'lower':7} "
          f"{report.failed} of {report.attempted} outputs")  # fmt: skip
    for problem in report.problems:
        print(f"problem: {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="splic benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splic" / "__init__.py").is_file():
        print(f"error: splic sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report, table = run(args.workload, args.seed, args.seconds, args.trace)
    print_report(args.workload, report, table, environment(args.seed))
    print(json.dumps(report.result(table)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
