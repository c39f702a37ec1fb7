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
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .image_io import (
    config_to_dict,
    encode_image,
    read_config_json,
    read_header,
    read_image,
    read_mask,
    write_trace_csv,
)
from .linalg import numerical_rank
from .metrics import COMPARISON_CSV_HEADER, RANK_TOL, compare_methods, comparison_rows, psnr
from .sampling import generate_mask
from .solver import (
    FIELD_TYPES,
    ConvergenceTrace,
    SplicConfig,
    config_key,
    splic_alternated,
    splic_complete,
)
from .testimages import add_uniform_noise

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_CONVERGED = 3

IMAGE_SUFFIXES = (".pgm", ".ppm", ".pnm")


def _cfg_hash(cfg: SplicConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _atomic_write(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    parser.add_argument("--strict", action="store_true", help="exit 3 if not converged")


def _build_config(args) -> SplicConfig:
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


def _write_output(image, path, cfg):
    comment = f"splic seed={cfg.seed} cfg-hash={_cfg_hash(cfg)}"
    data = encode_image(image, comments=[comment], clamp=True)
    _atomic_write(Path(path), data)


def _write_traces(trace, path):
    """One CSV for a plane's trace; `<stem>.c<i><suffix>` per plane of a stack."""
    path = Path(path)
    if isinstance(trace, ConvergenceTrace):
        write_trace_csv(trace, path)
        return
    for i, plane_trace in enumerate(trace):
        write_trace_csv(plane_trace, path.with_suffix(f".c{i}{path.suffix}"))


def _exit_code(args, converged: bool) -> int:
    if args.strict and not converged:
        print("did not converge within maxiter", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_complete(args) -> int:
    cfg = _build_config(args)
    image = _read_input(args, cfg)
    m, n = image.shape[-2:]
    if args.mask:
        mask = read_mask(args.mask)
    else:
        mask = generate_mask(m, n, cfg.anchor_fraction, cfg.seed)
    res = splic_complete(image, mask, cfg)
    _write_output(res.completed, args.output, cfg)
    if args.trace:
        _write_traces(res.trace, args.trace)
    return _exit_code(args, res.converged)


def _defend_one(image, cfg):
    """Two-pass completion of one image or plane stack, solved as one stack."""
    return splic_alternated(image, cfg)


def cmd_defend(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _build_config(args)
    if args.batch:
        return _defend_batch(args, cfg)
    res = _defend_one(_read_input(args, cfg), cfg)
    _write_output(res.completed, args.output, cfg)
    if args.trace:
        _write_traces(res.trace, args.trace)
    return _exit_code(args, res.converged)


def _plan_groups(files) -> list[list[Path]]:
    """Split `files` into groups solved as one plane stack each.

    A group holds files of one (m, n), in the order given; its planes
    total at most as many pixels as the largest file of the batch, so no
    stack is bigger than one file alone.  A file whose header cannot be
    read forms a group of its own.
    """
    headers = {}
    for path in files:
        try:
            headers[path] = read_header(path)
        except (ValueError, OSError):
            headers[path] = None
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


def _defend_batch(args, cfg) -> int:
    """Defend every image of a directory on a thread pool.

    Same-shape files are solved together as one plane stack (see
    `_plan_groups`); since they share the mask and each plane of a stack
    is solved exactly as alone, the outputs equal per-file runs.  A file
    that fails (unreadable, malformed, unsolvable) is named on stderr and
    left out of the outputs and the summary; every other file is still
    written, and the run exits 2.
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
    out_dir.mkdir(parents=True, exist_ok=True)

    def finish(path, completed):
        """(summary row or None, error or None) after writing one output."""
        try:
            row = None
            if ref_dir is not None:
                quality = psnr(completed, read_image(ref_dir / path.name))
                row = f"{path.name},{quality!r}"
            _write_output(completed, out_dir / path.name, cfg)
        except (ValueError, OSError) as exc:
            return None, f"{path.name}: {exc}"
        return row, None

    def process(group):
        """One (summary row or None, error or None) per file of `group`, and
        whether the group converged; a group that fails to read or solve
        is solved again one file at a time, so each failure is named."""
        try:
            planes, shapes = _read_stack(group, args, cfg)
            res = _defend_one(planes, cfg)
        except (ValueError, OSError) as exc:
            if len(group) == 1:
                return [(None, f"{group[0].name}: {exc}")], False
            parts = [process([path]) for path in group]
            return [o for outcomes, _ in parts for o in outcomes], all(ok for _, ok in parts)
        outcomes, start = [], 0
        for path, shape in zip(group, shapes):
            stop = start + (shape[0] if len(shape) == 3 else 1)
            outcomes.append(finish(path, res.completed[start:stop].reshape(shape)))
            start = stop
        return outcomes, res.converged

    groups = _plan_groups(files)
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(process, groups))

    outcomes = {}
    for group, (group_outcomes, _) in zip(groups, results):
        outcomes.update(zip(group, group_outcomes))
    errors = [outcomes[path][1] for path in files if outcomes[path][1] is not None]
    if ref_dir is not None:
        rows = [outcomes[path][0] for path in files if outcomes[path][1] is None]
        summary = Path(args.summary) if args.summary else out_dir / "summary.csv"
        _atomic_write(summary, ("\n".join(["file,psnr_db", *rows]) + "\n").encode())
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return EXIT_VALIDATION
    return _exit_code(args, all(converged for _, converged in results))


def _parse_fractions(text) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad fraction list {text!r}") from exc
    if not values or any(not 0.0 < v <= 1.0 for v in values):
        raise ValueError(f"fractions must lie in (0, 1]: {text!r}")
    return values


def cmd_compare(args) -> int:
    cfg = _build_config(args)
    corrupt = _read_input(args, cfg)
    if corrupt.ndim != 2:
        raise ValueError("compare works on single-channel images")
    ref_path = Path(args.reference) if args.reference else Path(args.input)
    if not ref_path.is_file():
        raise ValueError(f"reference file not found: {ref_path}")
    clean = read_image(ref_path)
    if clean.ndim != 2 or clean.shape != corrupt.shape:
        raise ValueError("reference must be a single-channel image of the same shape")
    fractions = _parse_fractions(args.fraction_sweep)
    m, n = corrupt.shape
    lines = ["fraction," + COMPARISON_CSV_HEADER]
    for frac in fractions:
        mask = generate_mask(m, n, frac, cfg.seed)
        run_cfg = dataclasses.replace(cfg, anchor_fraction=frac)
        records = compare_methods(
            clean, corrupt, mask, run_cfg, tau=args.tau, eta=args.eta
        )
        lines += [f"{frac!r},{row}" for row in comparison_rows(records)]
    _atomic_write(Path(args.output), ("\n".join(lines) + "\n").encode())
    return EXIT_OK


def cmd_rank_sweep(args) -> int:
    cfg = _build_config(args)
    image = _read_input(args, cfg)
    if image.ndim != 2:
        raise ValueError("rank-sweep works on single-channel images")
    m, n = image.shape
    try:
        ranks = [int(tok) for tok in args.ranks.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad rank list {args.ranks!r}") from exc
    if not ranks or any(r < 1 or r > min(m, n) for r in ranks):
        raise ValueError(f"ranks must lie in [1, {min(m, n)}]: {args.ranks!r}")
    reference = read_image(args.reference) if args.reference else image
    mask = generate_mask(m, n, cfg.anchor_fraction, cfg.seed)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    lines = ["rank,psnr_db,numerical_rank,converged"]
    for r in ranks:
        run_cfg = dataclasses.replace(cfg, r=r)
        res = splic_complete(image, mask, run_cfg)
        rank_out = numerical_rank(res.low_rank, RANK_TOL)
        quality = psnr(np.clip(res.low_rank, 0.0, 1.0), reference)
        lines.append(f"{r},{quality!r},{rank_out},{int(res.converged)}")
        _write_output(res.low_rank, out_dir / f"{stem}_r{r}.pgm", run_cfg)
    _atomic_write(Path(args.csv), ("\n".join(lines) + "\n").encode())
    return EXIT_OK


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
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser("compare", help="run all methods across anchor fractions")
    p.add_argument("--input", required=True)
    p.add_argument("--reference", help="clean image (defaults to the input)")
    p.add_argument("--output", required=True, help="comparison CSV")
    p.add_argument(
        "--anchor-fraction",
        dest="fraction_sweep",
        default="0.5",
        help="comma-separated anchor fractions to sweep, e.g. 0.3,0.5,0.7",
    )
    p.add_argument("--tau", type=float, default=None, help="soft-impute threshold")
    p.add_argument("--eta", type=float, default=0.01, help="one-shot threshold margin")
    _solver_flags(p, with_mask=False, with_fraction=False)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("rank-sweep", help="complete at several target ranks")
    p.add_argument("--input", required=True)
    p.add_argument("--reference")
    p.add_argument("--ranks", required=True, help="comma-separated ranks, e.g. 56,28,14,7")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--csv", required=True)
    _solver_flags(p)
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
