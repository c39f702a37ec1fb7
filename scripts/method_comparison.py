#!/usr/bin/env python3
"""Compare all four completers across anchor fractions on the corpus.

Prints the per-fraction mean PSNR of every method and writes the full
per-image records to a CSV.  With --noise, scene i is first corrupted by
uniform noise of that amplitude, seeded 100 + i, and every method is
scored against the clean scene; the `splic` and `srf` rows then measure
what the TV term buys on noisy inputs (`srf` is the solver without it).
"""

import argparse
import dataclasses
from collections import defaultdict

import numpy as np

from splic.image_io import write_csv
from splic.metrics import COMPARISON_CSV_HEADER, METHOD_NAMES, compare_methods
from splic.sampling import generate_mask
from splic.solver import SplicConfig
from splic.testimages import add_uniform_noise, make_test_image


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="comparison.csv")
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--fractions", default="0.3,0.5,0.7")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--noise", type=float, default=0.0, metavar="AMP")
    args = ap.parse_args()

    fractions = [float(tok) for tok in args.fractions.split(",")]
    cfg = SplicConfig()
    rows = []
    sums = defaultdict(list)
    for i in range(args.count):
        clean = make_test_image(i, args.size)
        noisy = add_uniform_noise(clean, args.noise, 100 + i)
        for frac in fractions:
            mask = generate_mask(args.size, args.size, frac, args.seed + i)
            records = compare_methods(clean, noisy, mask, cfg)
            rows += [(i, frac, *dataclasses.astuple(rec)) for rec in records]
            for rec in records:
                sums[(frac, rec.method)].append(rec.psnr_db)
    write_csv(args.out, "image,fraction," + COMPARISON_CSV_HEADER, rows)

    print("mean PSNR (dB) by fraction and method:")
    print("fraction  " + "  ".join(f"{m:>11}" for m in METHOD_NAMES))
    for frac in fractions:
        row = "  ".join(f"{np.mean(sums[(frac, m)]):11.2f}" for m in METHOD_NAMES)
        print(f"{frac:<8}  {row}")
    print(f"records written to {args.out}")


if __name__ == "__main__":
    main()
