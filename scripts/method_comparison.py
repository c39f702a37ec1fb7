#!/usr/bin/env python3
"""Compare all four completers across anchor fractions on the corpus.

Prints the per-fraction mean PSNR of every method and writes the full
per-image records to a CSV.
"""

import argparse
from collections import defaultdict
from pathlib import Path

import numpy as np

from splic.metrics import (
    COMPARISON_CSV_HEADER,
    METHOD_NAMES,
    compare_methods,
    comparison_rows,
)
from splic.sampling import generate_mask
from splic.solver import SplicConfig
from splic.testimages import make_test_image


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="comparison.csv")
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--fractions", default="0.3,0.5,0.7")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    fractions = [float(tok) for tok in args.fractions.split(",")]
    cfg = SplicConfig()
    lines = ["image,fraction," + COMPARISON_CSV_HEADER]
    sums = defaultdict(list)
    for i in range(args.count):
        clean = make_test_image(i, args.size)
        for frac in fractions:
            mask = generate_mask(args.size, args.size, frac, args.seed + i)
            records = compare_methods(clean, clean, mask, cfg)
            lines += [f"{i},{frac!r},{row}" for row in comparison_rows(records)]
            for rec in records:
                sums[(frac, rec.method)].append(rec.psnr_db)
    Path(args.out).write_text("\n".join(lines) + "\n")

    print("mean PSNR (dB) by fraction and method:")
    print("fraction  " + "  ".join(f"{m:>11}" for m in METHOD_NAMES))
    for frac in fractions:
        row = "  ".join(f"{np.mean(sums[(frac, m)]):11.2f}" for m in METHOD_NAMES)
        print(f"{frac:<8}  {row}")
    print(f"records written to {args.out}")


if __name__ == "__main__":
    main()
