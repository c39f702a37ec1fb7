"""Command-line front end: complete, defend, compare, rank-sweep.

Exit codes: 0 success, 2 validation error, 3 non-convergence under
--strict.  All runs are deterministic for a fixed flag set; outputs are
written atomically (temp file in the target directory, then rename) and
carry a provenance comment (seed and config hash) in their headers.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .image_io import (
    config_to_dict,
    read_config_json,
    read_header,
    read_image,
    read_mask,
    write_csv,
    write_image,
    write_trace_csv,
)
from .linalg import numerical_rank
from .metrics import COMPARISON_CSV_HEADER, RANK_TOL, USVT_ETA, compare_methods, psnr
from .sampling import generate_mask, validate_mask
from .solver import FIELD_TYPES, SplicConfig, config_key, splic_alternated, splic_complete
from .testimages import add_uniform_noise, check_amplitude

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_CONVERGED = 3

IMAGE_SUFFIXES = (".pgm", ".ppm", ".pnm")


def _cfg_hash(cfg: SplicConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _solver_flags(parser, with_mask=True, with_fraction=True):
    """A flag per SplicConfig field, named as its docstring says, default None."""
    if with_mask:
        parser.add_argument("--mask", help="anchor mask as PGM with values {0, maxval}")
    for f in dataclasses.fields(SplicConfig):
        if f.name == "anchor_fraction" and not with_fraction:
            continue
        kind = FIELD_TYPES[f.name][0]
        spec = {"type": kind, "choices": f.metadata.get("choices")}
        if kind is bool:  # the flag flips the default
            spec = {"action": "store_const", "const": not f.default}
        flag = f.metadata.get("flag", "--" + config_key(f).replace("_", "-"))
        parser.add_argument(flag, dest=f.name, **spec)
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument(
        "--add-uniform-noise",
        type=float,
        default=None,
        metavar="AMP",
        help="corrupt the input with uniform noise of this amplitude first",
    )


def _build_config(args) -> SplicConfig:
    """The run's config; every command calls this first, so it also checks
    --add-uniform-noise, once for a whole batch."""
    if args.add_uniform_noise is not None:
        check_amplitude(args.add_uniform_noise)
    cfg = read_config_json(args.config) if args.config else SplicConfig()
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(SplicConfig)}
    return dataclasses.replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _read_image(path, args, cfg) -> np.ndarray:
    """The (m, n) or (3, m, n) image at `path`; with --add-uniform-noise,
    plane i is corrupted first, seeded with cfg.seed + 7 * i."""
    img = read_image(path)
    if args.add_uniform_noise is None:
        return img
    planes = img.reshape((-1,) + img.shape[-2:])
    noisy = [
        add_uniform_noise(pl, args.add_uniform_noise, cfg.seed + 7 * i)
        for i, pl in enumerate(planes)
    ]
    return np.stack(noisy).reshape(img.shape)


def _read_stack(paths, args, cfg) -> tuple[np.ndarray, list[tuple]]:
    """The planes of same-size files, each read as by `_read_image`, as
    one (k, m, n) stack, and each file's image shape; the per-file arrays
    are freed on return, before the stack is solved."""
    images = [_read_image(path, args, cfg) for path in paths]
    stack = np.concatenate([img.reshape((-1,) + img.shape[-2:]) for img in images])
    return stack, [img.shape for img in images]


def _read_input(args, cfg) -> np.ndarray:
    p = Path(args.input)
    if not p.is_file():
        raise ValueError(f"input file not found: {p}")
    return _read_image(p, args, cfg)


def _read_reference(path, image) -> np.ndarray:
    """The clean image at `path`, checked to be single-channel and of
    `image`'s shape before any solve."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"reference file not found: {path}")
    clean = read_image(path)
    if clean.ndim != 2 or clean.shape != image.shape:
        raise ValueError("reference must be a single-channel image of the same shape")
    return clean


def _write_output(image, path, cfg):
    comment = f"splic seed={cfg.seed} cfg-hash={_cfg_hash(cfg)}"
    write_image(image, path, comments=[comment], clamp=True)


def _exit_code(args, converged: bool) -> int:
    if args.strict and not converged:
        print("did not converge within maxiter", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _finish(args, res, cfg) -> int:
    """Write the completion and, with --trace, its trace CSV; the exit code."""
    _write_output(res.completed, args.output, cfg)
    if args.trace:
        write_trace_csv(res.trace, args.trace)
    return _exit_code(args, res.converged)


def _mask(args, cfg, shape) -> np.ndarray:
    """The --mask file's anchors, checked to be of `shape`, else cfg's random mask."""
    if args.mask:
        return validate_mask(read_mask(args.mask), shape)
    return generate_mask(*shape, cfg.anchor_fraction, cfg.seed)


def _check_csv_path(flag, path, files):
    """Reject the CSV `path` that `flag` gave if it resolves to one of
    `files` (None for a flag not given): every file the command reads and
    every image it writes, which the CSV would replace."""
    if path is None:
        return
    target = Path(path).resolve()
    for other in filter(None, files):
        if Path(other).resolve() == target:
            raise ValueError(f"{flag} {path} would overwrite {other}, a file the command uses")


def cmd_complete(args) -> int:
    _check_csv_path("--trace", args.trace, (args.input, args.output, args.mask, args.config))
    cfg = _build_config(args)
    image = _read_input(args, cfg)
    mask = _mask(args, cfg, image.shape[-2:])
    return _finish(args, splic_complete(image, mask, cfg), cfg)


def _defend_one(image, cfg, pool=None):
    """Two-pass completion of one image or plane stack, solved as one
    stack, on the worker process of `pool` when one is given."""
    if pool is None:
        return splic_alternated(image, cfg)
    return pool.submit(splic_alternated, image, cfg).result()


def cmd_defend(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    # a flag the mode would ignore is an error, raised before any file is read
    if args.jobs != 1 and not args.batch:
        raise ValueError("--jobs works only with --batch")
    if args.batch and args.trace:
        raise ValueError("--trace works only without --batch")
    _check_csv_path("--trace", args.trace, (args.input, args.output, args.config))
    if args.reference_dir and not args.batch:
        raise ValueError("--reference-dir works only with --batch")
    if args.summary and not args.reference_dir:
        raise ValueError("--summary works only with --batch and --reference-dir")
    cfg = _build_config(args)
    if args.batch:
        return _defend_batch(args, cfg)
    image = _read_input(args, cfg)
    return _finish(args, _defend_one(image, cfg), cfg)


def _plan_groups(files) -> list[list[Path]]:
    """Split `files` into groups solved as one plane stack each.

    A group holds files of one (m, n), in the order given; its planes
    total at most as many pixels as the largest file of the batch, so no
    stack is bigger than one file alone.  A file whose header cannot be
    read, or that `read_header` finds too short for its payload, forms a
    group of its own and does not set that bound.
    """
    headers = {}
    for path in files:
        try:
            c, m, n, fits = read_header(path)
        except (ValueError, OSError):
            fits = False
        headers[path] = (c, m, n) if fits else None
    budget = max((c * m * n for c, m, n in filter(None, headers.values())), default=0)
    groups = []
    filling = {}  # (m, n) -> [group, plane-pixels]
    for path in files:
        if headers[path] is None:
            groups.append([path])
            continue
        c, m, n = headers[path]
        entry = filling.get((m, n))
        if entry is None or entry[1] + c * m * n > budget:
            entry = filling[m, n] = [[], 0]
            groups.append(entry[0])
        entry[0].append(path)
        entry[1] += c * m * n
    return groups


def _worker_pool():
    """A pool of one worker process, started by a forkserver that preloads
    numpy and `splic.solver`, or by spawn where there is no forkserver;
    never by fork, since the calling process may be inside BLAS on another
    thread.

    A worker only unpickles `splic_alternated` and `SplicConfig`, which
    both live in `splic.solver`.  The server does not preload `splic.cli`:
    under `python -m splic.cli` each worker runs the main module again, and
    finding it imported already makes runpy warn on stderr.  numpy is named
    on its own because the server cannot import splic when splic is on
    `sys.path` only (the server starts from the environment, and Python
    3.11 ignores the `sys_path` it is given); a worker then imports just
    splic, in about 0.07 s instead of 0.15 s.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("forkserver")
    except ValueError:
        context = multiprocessing.get_context("spawn")
    else:
        context.set_forkserver_preload(["numpy", "splic.solver"])
    return ProcessPoolExecutor(max_workers=1, mp_context=context)


def _solve_groups(groups, process, jobs) -> list:
    """`[process(group) for group in groups]`, on up to `jobs` workers.

    Every worker runs one claim loop over one queue, in group order.  The
    calling thread is worker 0; the other `min(jobs, len(groups)) - 1`
    are feeder threads, each owning a one-process pool: once its process
    has imported splic, the feeder runs the loop with it, so only the
    solve leaves this process.  A feeder whose process dies has its group
    processed here and claims no more.  `--jobs 1` runs the loop in the
    calling thread alone: no thread and no process.
    """
    import queue
    from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

    feeders = min(jobs, len(groups)) - 1
    results = [None] * len(groups)
    claims = queue.SimpleQueue()
    for claim in enumerate(groups):
        claims.put(claim)

    def run(pool=None):
        while True:
            try:
                i, group = claims.get_nowait()
            except queue.Empty:
                return
            try:
                results[i] = process(group, pool)
            except BrokenExecutor:  # the worker died: process its group here
                results[i] = process(group)
                return

    def feed(pool):
        with pool:
            try:  # a no-op round trip: the worker has imported splic
                pool.submit(SplicConfig).result()
            except BrokenExecutor:
                return
            run(pool)

    # an executor starts a thread per task submitted, none before the first
    with ThreadPoolExecutor(max(feeders, 1)) as executor:
        tasks = [executor.submit(feed, _worker_pool()) for _ in range(feeders)]
        run()
    for task in tasks:  # a feeder's error, raised once every feeder has stopped
        task.result()
    return results


def _defend_batch(args, cfg) -> int:
    """Defend every image of a directory on `--jobs` workers.

    Same-shape files are solved together as one plane stack (see
    `_plan_groups`); since they share the mask and each plane of a stack
    is solved exactly as alone, the outputs equal per-file runs.  The
    calling process reads, noises, scores and writes every file; with
    `--jobs` above 1 only the solves of some groups run on worker
    processes (see `_solve_groups`), so the outputs do not depend on
    `--jobs`.  Each file leaves one record, and the summary, the `error:`
    lines and the exit code are read from the records in file order.  A
    file that fails (unreadable, malformed, unsolvable, unscorable or
    unwritable) is named on stderr and left out of the outputs and the
    summary; every other file is still written, and the run exits 2.
    """
    in_dir = Path(args.input)
    if not in_dir.is_dir():
        raise ValueError(f"--batch needs an input directory, got {in_dir}")
    files = sorted(
        p for p in in_dir.iterdir() if p.suffix.lower() in IMAGE_SUFFIXES
    )
    if not files:
        raise ValueError(f"no PGM/PPM files in {in_dir}")
    ref_dir = Path(args.reference_dir) if args.reference_dir else None
    if ref_dir is not None:
        for path in files:
            if not (ref_dir / path.name).is_file():
                raise ValueError(f"reference file missing: {ref_dir / path.name}")
    out_dir = Path(args.output)
    # the batch's outputs and references are named as its inputs are
    named = [d / p.name for d in filter(None, (out_dir, ref_dir)) for p in files]
    _check_csv_path("--summary", args.summary, [args.config, *files, *named])
    out_dir.mkdir(parents=True, exist_ok=True)

    def process(group, pool=None):
        """One (path, summary row or None, error or None, converged) record
        per file of `group`; a group that fails to read or solve is solved
        again one file at a time, so each failure is named.  With `pool`,
        the solves run on its worker process."""
        try:
            planes, shapes = _read_stack(group, args, cfg)
            res = _defend_one(planes, cfg, pool)
        except (ValueError, OSError) as exc:
            if len(group) > 1:
                return [record for path in group for record in process([path], pool)]
            return [(group[0], None, f"{group[0].name}: {exc}", False)]
        records, start = [], 0
        for path, shape in zip(group, shapes):
            stop = start + (shape[0] if len(shape) == 3 else 1)
            completed, start = res.completed[start:stop].reshape(shape), stop
            row = error = None
            try:
                if ref_dir is not None:
                    row = (path.name, psnr(completed, read_image(ref_dir / path.name)))
                _write_output(completed, out_dir / path.name, cfg)
            except (ValueError, OSError) as exc:
                row, error = None, f"{path.name}: {exc}"
            records.append((path, row, error, res.converged))
        return records

    results = _solve_groups(_plan_groups(files), process, args.jobs)
    # `files` is sorted, so sorting by path puts the records in file order
    records = sorted((r for group in results for r in group), key=lambda r: r[0])
    errors = [error for _, _, error, _ in records if error is not None]
    if ref_dir is not None:
        rows = [row for _, row, error, _ in records if error is None]
        summary = Path(args.summary) if args.summary else out_dir / "summary.csv"
        write_csv(summary, "file,psnr_db", rows)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return EXIT_VALIDATION
    return _exit_code(args, all(converged for *_, converged in records))


def _sweep(cfg, name, flag, text) -> list[SplicConfig]:
    """One config per value of the comma-separated list `text` that `flag`
    gave: `cfg` with its field `name` set to the value, so SplicConfig
    checks each one before any solve."""
    kind = FIELD_TYPES[name][0]
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag}: bad list {text!r}") from exc
    if not values:
        raise ValueError(f"{flag}: empty list {text!r}")
    return [dataclasses.replace(cfg, **{name: v}) for v in values]


def cmd_compare(args) -> int:
    _check_csv_path("--output", args.output, (args.input, args.reference, args.config))
    cfg = _build_config(args)
    runs = [cfg]
    if args.fraction_sweep is not None:
        runs = _sweep(cfg, "anchor_fraction", "--anchor-fraction", args.fraction_sweep)
    corrupt = _read_input(args, cfg)
    if corrupt.ndim != 2:
        raise ValueError("compare works on single-channel images")
    clean = _read_reference(args.reference or args.input, corrupt)
    # every mask is drawn, so every fraction checked, before the first solve
    masks = [generate_mask(*corrupt.shape, c.anchor_fraction, c.seed) for c in runs]
    rows = []
    for run_cfg, mask in zip(runs, masks):
        records = compare_methods(clean, corrupt, mask, run_cfg, tau=args.tau, eta=args.eta)
        rows += [(run_cfg.anchor_fraction, *dataclasses.astuple(r)) for r in records]
    write_csv(args.output, "fraction," + COMPARISON_CSV_HEADER, rows)
    return EXIT_OK


def cmd_rank_sweep(args) -> int:
    cfg = _build_config(args)
    runs = _sweep(cfg, "r", "--ranks", args.ranks)
    out_dir = Path(args.output_dir)
    stem = Path(args.input).stem
    images = [out_dir / f"{stem}_r{run_cfg.r}.pgm" for run_cfg in runs]
    given = (args.input, args.reference, args.mask, args.config)
    _check_csv_path("--csv", args.csv, (*given, *images))
    image = _read_input(args, cfg)
    if image.ndim != 2:
        raise ValueError("rank-sweep works on single-channel images")
    for run_cfg in runs:
        run_cfg.resolve_rank(*image.shape)
    reference = _read_reference(args.reference or args.input, image)
    mask = _mask(args, cfg, image.shape)
    rows = []
    converged = True
    for run_cfg, path in zip(runs, images):
        res = splic_complete(image, mask, run_cfg)
        rank_out = numerical_rank(res.low_rank, RANK_TOL)
        quality = psnr(np.clip(res.low_rank, 0.0, 1.0), reference)
        rows.append((run_cfg.r, quality, rank_out, int(res.converged)))
        _write_output(res.low_rank, path, run_cfg)
        converged &= res.converged
    write_csv(args.csv, "rank,psnr_db,numerical_rank,converged", rows)
    return _exit_code(args, converged)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splic",
        description="Progressive low-rank image completion with TV regularization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="single-pass completion of masked pixels")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--trace", help="write the convergence trace CSV here")
    _solver_flags(p)
    p.add_argument("--strict", action="store_true", help="exit 3 if not converged")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("defend", help="two-pass completion re-estimating every pixel")
    p.add_argument("--input", required=True, help="image file, or a directory with --batch")
    p.add_argument("--output", required=True, help="image file, or a directory with --batch")
    p.add_argument("--trace")
    p.add_argument("--batch", action="store_true", help="process a directory of images")
    p.add_argument("--reference-dir", help="clean images for the batch PSNR summary")
    p.add_argument("--summary", help="summary CSV path (batch mode)")
    p.add_argument("--jobs", type=int, default=1)
    _solver_flags(p, with_mask=False)
    p.add_argument("--strict", action="store_true", help="exit 3 if not converged")
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser("compare", help="run all methods across anchor fractions")
    p.add_argument("--input", required=True)
    p.add_argument("--reference", help="clean image (defaults to the input file as stored)")
    p.add_argument("--output", required=True, help="comparison CSV")
    p.add_argument(
        "--anchor-fraction",
        dest="fraction_sweep",
        help="comma-separated anchor fractions to sweep, e.g. 0.3,0.5,0.7 "
        "(default: the config's anchor_fraction)",
    )
    p.add_argument("--tau", type=float, default=None, help="soft-impute threshold")
    p.add_argument("--eta", type=float, default=USVT_ETA, help="one-shot threshold margin")
    _solver_flags(p, with_mask=False, with_fraction=False)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("rank-sweep", help="complete at several target ranks")
    p.add_argument("--input", required=True)
    p.add_argument("--reference", help="clean image (defaults to the input file as stored)")
    p.add_argument("--ranks", required=True, help="comma-separated ranks, e.g. 56,28,14,7")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--csv", required=True)
    _solver_flags(p)
    p.add_argument("--strict", action="store_true", help="exit 3 if not converged")
    p.set_defaults(func=cmd_rank_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
