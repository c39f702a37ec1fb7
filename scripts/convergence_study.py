#!/usr/bin/env python3
"""Trace the solver on a few corpus scenes and summarize per-block behaviour.

Writes one trace CSV per scene plus a console table of each block's
change, the quantity the stop compares with epsilon and whose decay
indicates the schedule has settled.
"""

import argparse
from pathlib import Path

from splic.image_io import write_trace_csv
from splic.sampling import generate_mask
from splic.solver import SplicConfig, splic_complete
from splic.testimages import make_test_image


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="traces")
    ap.add_argument("--count", type=int, default=4)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--anchor-fraction", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = SplicConfig(anchor_fraction=args.anchor_fraction)
    for i in range(args.count):
        scene = make_test_image(i, args.size)
        mask = generate_mask(args.size, args.size, args.anchor_fraction, args.seed + i)
        res = splic_complete(scene, mask, cfg)
        write_trace_csv(res.trace, out / f"scene{i:02d}_trace.csv")
        print(
            f"scene {i}: iterations={res.iterations} converged={res.converged} "
            f"block changes={' '.join(f'{v:.1e}' for v in res.trace.rel_change)}"
        )


if __name__ == "__main__":
    main()
