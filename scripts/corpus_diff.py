#!/usr/bin/env python3
"""Corpus differential check: solve one fixed grid of corpus cases, and
compare two such runs case by case.

    PYTHONPATH=src python3 scripts/corpus_diff.py run --out head.npz
    git worktree add ../parent HEAD~1
    PYTHONPATH=../parent/src python3 ../parent/scripts/corpus_diff.py run --out parent.npz
    python3 scripts/corpus_diff.py diff parent.npz head.npz

`run` imports splic from PYTHONPATH; each checkout runs its own copy of
this script against its own library, so a change to a library call made
here cannot break the other side's run.  BLAS is pinned to one thread
before numpy is imported, as in perfbench/run.py, so both runs of a
comparison take the same BLAS code paths.

The grid: corpus scenes 0-3 at 32^2, 48^2, 64^2, 96^2, 128^2, 256^2,
24x40 and 64x128, each clean and with uniform noise of amplitude 0.05
and 0.1.  Each input is solved by `splic_complete` as an image and as a
3-plane stack (scenes s, s+1, s+2), and by `splic_alternated` up to
128^2, in both TV modes, at the default config and at maxiter=17; and by
soft-impute and USVT.  The one-pass mask anchors half the pixels, seeded
by the scene.  Each case stores `completed`, and for the solver
`low_rank`, the trace (its six columns as the rows of one array),
`iterations` and `converged`; the numerical rank of the rank-reduced
surface, the PSNR against the clean scene and a digest of its inputs.
`--tiny` solves scenes 0-1 at 16^2 and 24x40 only.

`diff a.npz b.npz` lists the cases whose input digests differ, then
prints, overall and by size, noise, kind, TV mode and config: the count of
bit-identical cases, max |b - a| on each surface, the cases whose
iteration count changed, and the mean, min and max of PSNR(b) - PSNR(a).
It exits 0 whatever the outputs differ by, and 1 only on an unreadable
file or when the two runs do not hold the same cases and fields.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import typing  # noqa: E402
import zipfile  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

SCENES = (0, 1, 2, 3)
SHAPES = ((32, 32), (48, 48), (64, 64), (96, 96), (128, 128), (256, 256), (24, 40), (64, 128))
TINY_SCENES = (0, 1)
TINY_SHAPES = ((16, 16), (24, 40))
NOISES = (0.0, 0.05, 0.1)
ALTERNATED_MAX_PIXELS = 128 * 128
# a case key is its axes joined by SEP, in this order; an array's key in
# the archive adds the field name
AXES = ("kind", "tv", "config", "size", "noise", "scene")
SEP = "|"


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()


def _solves(shape, noise, scene):
    """(axes, inputs, clean, solve) for every case of one grid input; the
    solve returns a dict of the case's output fields."""
    # splic is imported only here and in `run`, so `diff` needs numpy alone
    from splic.baselines import soft_impute_with_count, usvt
    from splic.linalg import numerical_rank
    from splic.metrics import RANK_TOL
    from splic.sampling import generate_mask
    from splic.solver import TV_MODES, SplicConfig, splic_alternated, splic_complete
    from splic.testimages import add_uniform_noise, make_test_image

    def corpus(s):
        clean = make_test_image(s, shape)
        return clean, (add_uniform_noise(clean, noise, 100 + s) if noise else clean)

    def solver_fields(res):
        planes = res.low_rank.reshape((-1,) + res.low_rank.shape[-2:])
        return {
            "completed": res.completed,
            "low_rank": res.low_rank,
            "trace": np.stack([c.astype(np.float64) for c in res.trace.columns()]),
            "iterations": res.iterations,
            "converged": res.converged,
            "rank": [numerical_rank(p, RANK_TOL) for p in planes],
        }

    m, n = shape
    clean, x = corpus(scene)
    pairs = [corpus(scene + j) for j in range(3)]
    clean3, x3 = (np.stack(side) for side in zip(*pairs))
    mask = generate_mask(m, n, 0.5, scene)
    common = (f"{m}x{n}", repr(noise), f"s{scene}")
    for tv in TV_MODES:
        for config, cfg in (
            ("default", SplicConfig(tv_mode=tv)),
            ("maxiter17", SplicConfig(tv_mode=tv, maxiter=17)),
        ):
            yield ("image", tv, config, *common), (x, mask), clean, (
                lambda cfg=cfg: solver_fields(splic_complete(x, mask, cfg))
            )
            yield ("stack", tv, config, *common), (x3, mask), clean3, (
                lambda cfg=cfg: solver_fields(splic_complete(x3, mask, cfg))
            )
            if m * n <= ALTERNATED_MAX_PIXELS:
                yield ("alternated", tv, config, *common), (x,), clean, (
                    lambda cfg=cfg: solver_fields(splic_alternated(x, cfg))
                )

    def soft_impute():
        z, iters = soft_impute_with_count(x, mask)
        return {"completed": z, "iterations": iters, "rank": numerical_rank(z, RANK_TOL)}

    def one_shot():
        z = usvt(x, mask)
        return {"completed": z, "rank": numerical_rank(z, RANK_TOL)}

    yield ("soft-impute", "-", "-", *common), (x, mask), clean, soft_impute
    yield ("usvt", "-", "-", *common), (x, mask), clean, one_shot


def run(args):
    from splic.metrics import psnr

    scenes, shapes = (TINY_SCENES, TINY_SHAPES) if args.tiny else (SCENES, SHAPES)
    start = time.perf_counter()
    count = 0
    with zipfile.ZipFile(args.out, "w", allowZip64=True) as zf:

        def put(key, value):
            with zf.open(key + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asarray(value), allow_pickle=False)

        for shape in shapes:
            for noise in NOISES:
                for scene in scenes:
                    for axes, inputs, clean, solve in _solves(shape, noise, scene):
                        case = SEP.join(axes)
                        out = solve()
                        out["psnr"] = psnr(out["completed"], clean)
                        out["digest"] = _digest(*inputs)
                        for name, value in out.items():
                            put(case + SEP + name, value)
                        count += 1
    print(f"{count} cases in {time.perf_counter() - start:.1f} s -> {args.out}")
    return 0


def _load(path):
    """The archive at `path` and its fields by case."""
    try:
        archive = np.load(path, allow_pickle=False)
        cases = defaultdict(dict)
        for key in archive.files:
            case, name = key.rsplit(SEP, 1)
            cases[case][name] = key
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    return archive, cases


def _max_delta(a, b) -> float:
    """max |b - a|, where equal entries count 0 (inf == inf too); inf
    where the shapes differ."""
    if a.shape != b.shape:
        return math.inf
    a, b = a.astype(np.float64), b.astype(np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.where(a == b, 0.0, np.abs(b - a)), initial=0.0))


class Outcome(typing.NamedTuple):
    """How one case moved from run a to run b."""

    case: str
    same_inputs: bool  # the input digests agree
    identical: bool  # every output bit agrees
    delta: dict  # max |b - a| per field
    iterations: tuple  # (a's, b's); 1 for a one-shot method
    dpsnr: float  # PSNR(b) - PSNR(a)

    @property
    def moved(self) -> bool:
        return self.iterations[0] != self.iterations[1]


def _compare(case, za, zb, fields) -> Outcome:
    pairs = {name: (za[key], zb[key]) for name, key in fields.items()}
    identical, delta = True, {}
    for name, (a, b) in pairs.items():
        same = a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        if name != "digest":
            identical &= same
            delta[name] = 0.0 if same else _max_delta(a, b)
    pa, pb = map(float, pairs["psnr"])
    iterations = tuple(map(int, pairs.get("iterations", (1, 1))))
    same_inputs = pairs["digest"][0] == pairs["digest"][1]
    return Outcome(case, same_inputs, identical, delta, iterations, 0.0 if pa == pb else pb - pa)


def _fmt(x: float) -> str:
    return "0" if x == 0.0 else f"{x:.3g}"


def _report(label, outcomes):
    """Print one group's line."""
    worst = defaultdict(float)
    for o in outcomes:
        for name, d in o.delta.items():
            worst[name] = max(worst[name], d)
    dp = [o.dpsnr for o in outcomes]
    print(
        f"  {label:<12} {len(outcomes):5d} cases {sum(o.identical for o in outcomes):5d} "
        f"bit-identical {sum(o.moved for o in outcomes):4d} iters changed  "
        f"dPSNR mean {_fmt(float(np.mean(dp)))} min {_fmt(min(dp))} max {_fmt(max(dp))}  "
        "max|d| " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(worst.items()))
    )


def diff(args):
    za, ca = _load(args.a)
    zb, cb = _load(args.b)
    if ca.keys() != cb.keys():
        only = sorted(ca.keys() ^ cb.keys())
        print(f"error: case sets differ in {len(only)} cases, e.g. {only[0]}", file=sys.stderr)
        return 1
    odd = [c for c in sorted(ca) if ca[c].keys() != cb[c].keys()]
    if odd:
        print(f"error: {len(odd)} cases hold different fields, e.g. {odd[0]}", file=sys.stderr)
        return 1
    try:
        outcomes = [_compare(c, za, zb, ca[c]) for c in sorted(ca)]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        print(f"error: cannot read {args.a} or {args.b}: {exc}", file=sys.stderr)
        return 1

    digests = [o.case for o in outcomes if not o.same_inputs]
    print(f"input digests differ: {len(digests)} of {len(outcomes)} cases")
    for case in digests:
        print(f"  {case}")
    print(f"overall: {len(outcomes)} cases, {sum(o.identical for o in outcomes)} bit-identical")
    _report("all", outcomes)
    moved = [o for o in outcomes if o.moved]
    print(f"iteration count changed: {len(moved)} cases")
    for o in moved:
        print(f"  {o.case}: {o.iterations[0]} -> {o.iterations[1]}, dPSNR {_fmt(o.dpsnr)}")
    for axis in ("size", "noise", "kind", "tv", "config"):
        print(f"by {axis}:")
        groups = defaultdict(list)
        for o in outcomes:
            groups[o.case.split(SEP)[AXES.index(axis)]].append(o)
        for label, group in groups.items():
            _report(label, group)
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="solve the grid and store every case")
    p_run.add_argument("--out", required=True, help="the .npz archive to write")
    p_run.add_argument("--tiny", action="store_true", help="scenes 0-1 at 16^2 and 24x40 only")
    p_run.set_defaults(func=run)
    p_diff = sub.add_parser("diff", help="compare two archives case by case")
    p_diff.add_argument("a", help="the reference run, e.g. the parent's")
    p_diff.add_argument("b", help="the run to compare with it")
    p_diff.set_defaults(func=diff)
    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
