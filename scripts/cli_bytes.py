#!/usr/bin/env python3
"""Run one checkout's CLI on fixed inputs, for a byte-for-byte diff of two
checkouts' outputs.

    python scripts/cli_bytes.py ../base ../cli/base
    python scripts/cli_bytes.py . ../cli/head
    diff -r ../cli/base ../cli/head

The inputs are the benchmark's `defend-batch-small` and
`compare-sweep-128` sets at seed 5, made by this script's own
`perfbench/workloads.py` and splic, so every checkout runs on the same
bytes, under OUT/inputs.  Each command of the checkout TREE runs in OUT,
with `TREE/src` on PYTHONPATH and one BLAS thread: `defend --batch` at
`--jobs` 1 and 2, `complete` and `defend` with a trace, `rank-sweep`,
`compare` on each scene, and TREE's `scripts/method_comparison.py`.
OUT/run.log holds each command's name, output and exit code.  The
`seconds` field of a CSV whose header ends in it is a timing, so it is
cut from every row; every other byte is kept.  `--tiny` takes the
workloads' tiny inputs.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def commands(inputs: Path, tiny: bool) -> dict[str, list]:
    """Every command by name: CLI argv lists, and the script's own."""
    batch = workloads.make("defend-batch-small", 5, tiny)
    batch.prepare(inputs / "defend")
    compare = workloads.make("compare-sweep-128", 5, tiny)
    compare.prepare(inputs / "compare")
    grey, colour = batch.in_dir / "img00.pgm", batch.in_dir / "img02.ppm"
    runs = {
        f"batch-{jobs}": batch.argv(batch.in_dir, batch.ref_dir, f"batch-{jobs}", jobs)
        for jobs in (1, 2)
    }
    runs["complete"] = ["complete", "--input", grey, "--output", "complete.pgm",
                        "--trace", "complete.csv", "--seed", "5"]  # fmt: skip
    runs["defend"] = ["defend", "--input", colour, "--output", "defend.ppm",
                      "--trace", "defend.csv", "--seed", "5"]  # fmt: skip
    runs["rank-sweep"] = ["rank-sweep", "--input", grey, "--ranks", "8,4,2",
                          "--output-dir", "rank", "--csv", "rank.csv", "--seed", "5"]  # fmt: skip
    for k in range(compare.count):
        runs[f"compare{k}"] = compare.argv(k, f"compare{k}.csv")
    return {name: ["-m", "splic.cli", *argv] for name, argv in runs.items()}


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("tree", type=Path, help="the checkout whose CLI runs")
    ap.add_argument("out", type=Path, help="a new directory for its outputs")
    ap.add_argument("--tiny", action="store_true", help="the workloads' tiny inputs")
    args = ap.parse_args()
    tree = args.tree.resolve()
    args.out.mkdir(parents=True)
    # every command runs in OUT and names its files relative to it, so no
    # output or message holds a path that differs between two runs
    os.chdir(args.out)
    cmds = commands(Path("inputs"), args.tiny)
    size = ["--count", "1", "--size", "16"] if args.tiny else ["--count", "2", "--size", "32"]
    cmds["method_comparison"] = [tree / "scripts" / "method_comparison.py", *size,
                                 "--out", "methods.csv"]  # fmt: skip
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    with open("run.log", "w") as log:
        for name, cmd in cmds.items():
            proc = subprocess.run(
                [sys.executable, *map(str, cmd)], env=env, capture_output=True, text=True
            )
            log.write(f"{name}\n{proc.stdout}{proc.stderr}exit {proc.returncode}\n")
    for path in sorted(Path().rglob("*.csv")):
        text = path.read_bytes()
        if text.partition(b"\n")[0].endswith(b",seconds"):
            # cut the last field of every row, keep every other byte
            path.write_bytes(re.sub(rb",[^,\r\n]*(?=\r?\n|\Z)", b"", text))
    print(f"{len(cmds)} commands of {tree} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
