#!/usr/bin/env python3
"""Measure what the TV term buys on noise-corrupted scenes.

Runs the solver with and without the TV weight on the same masked noisy
inputs and reports per-image and mean PSNR against the clean scenes.
"""

import argparse

import numpy as np

from splic.baselines import srf_only
from splic.metrics import psnr
from splic.sampling import generate_mask
from splic.solver import SplicConfig, splic_complete
from splic.testimages import add_uniform_noise, make_test_image


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--noise", type=float, default=8 / 255)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    cfg = SplicConfig()
    gains = []
    print("image  with TV   without   gain")
    for i in range(args.count):
        clean = make_test_image(i, args.size)
        noisy = add_uniform_noise(clean, args.noise, 100 + i)
        mask = generate_mask(args.size, args.size, 0.5, args.seed + i)
        with_tv = psnr(splic_complete(noisy, mask, cfg).completed, clean)
        without = psnr(srf_only(noisy, mask, cfg).completed, clean)
        gains.append(with_tv - without)
        print(f"{i:>5}  {with_tv:7.2f}  {without:7.2f}  {with_tv - without:+6.2f}")
    print(f"mean gain from the TV term: {np.mean(gains):+.2f} dB")


if __name__ == "__main__":
    main()
