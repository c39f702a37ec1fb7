"""The benchmark's three workloads.

Each workload generates its inputs from the workload seed with splic's own
`testimages` and `sampling`, and exposes one round of work as a list of
`Unit`s.  A unit's `run` is the timed call into splic; its `check` runs
afterwards, untimed, and turns the call's output into an `Outcome`.

Why these three:

- complete-256: few large SVDs and no I/O, so it is where solver and SVD
  work (spectral shrink, truncated or warm-started SVD) must show.
- defend-batch-small: thousands of small SVDs, Python glue, per-plane
  loops, PNM decode/encode (half of the files ASCII), the two-pass path
  and the `--jobs 2` thread pool; large-SVD work matters little here.
- compare-sweep-128: reaches the SVD through the baselines (soft-impute
  runs up to 200 untruncated SVDs) and `numerical_rank`, so a change to
  the solver's SVD path leaves part of it untouched while a change to
  the shared `linalg.svd` or to `compare_methods` moves all of it.

The scenes are fixed corpus scenes; the seed picks masks, noise and the
CLI `--seed`, so runs with different seeds do the same kind of work.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from splic import (
    SplicConfig,
    add_uniform_noise,
    cli,
    encode_image,
    generate_mask,
    make_test_image,
    read_image,
    solver,
)

# Calls into splic go through the module attribute (`solver.splic_complete`,
# `cli.main`) so that the tracer's wrappers see them.

@dataclass
class Outcome:
    """Checked result of one unit: `attempted` outputs, `failed` of them."""

    attempted: int
    failed: int = 0
    psnrs: list = field(default_factory=list)
    digest: str = ""
    errors: list = field(default_factory=list)

    def fail(self, count: int, why: str):
        self.failed += count
        self.errors.append(why)


@dataclass
class Unit:
    """One timed call; `pixels` is the plane-pixels the call completes."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    outputs: int
    pixels: int


def psnr_db(a, b) -> float:
    """Reference PSNR at peak 1, kept separate from the program's own."""
    mse = float(np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2))
    return math.inf if mse == 0.0 else -10.0 * math.log10(mse)


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, count)]


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


class CompleteWorkload:
    """Library `splic_complete`, default config, anchor fraction 0.5."""

    call = "splic_complete"

    def __init__(self, seed: int, tiny: bool = False):
        self.side, self.count = (32, 2) if tiny else (256, 8)
        self.seed = seed
        self.cfg = SplicConfig()

    def prepare(self, workdir: Path):
        self.scenes = [make_test_image(i, self.side) for i in range(self.count)]
        self.masks = [
            generate_mask(self.side, self.side, 0.5, s)
            for s in _sub_seeds(self.seed, self.count)
        ]

    def warm_up(self):
        # one fixed-delta block at full size: same shapes, a fraction of a solve
        solver.splic_complete(
            self.scenes[0], self.masks[0], replace(self.cfg, maxiter=self.cfg.inner_steps)
        )

    def units(self) -> list[Unit]:
        return [self._unit(i) for i in range(self.count)]

    def _unit(self, i: int) -> Unit:
        scene, mask = self.scenes[i], self.masks[i]

        def check(res) -> Outcome:
            out = Outcome(attempted=1)
            anchor = mask == 1.0
            done, low = res.completed, res.low_rank
            if not np.array_equal(done[anchor], scene[anchor]):
                out.fail(1, f"scene {i}: anchors not bit-exact")
            elif not (np.all(np.isfinite(done)) and done.min() >= 0.0 and done.max() <= 1.0):
                out.fail(1, f"scene {i}: completed not finite in [0, 1]")
            elif not np.all(np.isfinite(low)):
                out.fail(1, f"scene {i}: low_rank not finite")
            else:
                out.psnrs.append(psnr_db(done, scene))
            out.digest = _digest(done.tobytes(), low.tobytes())
            return out

        return Unit(
            name=f"scene{i}",
            run=lambda: solver.splic_complete(scene, mask, self.cfg),
            check=check,
            outputs=1,
            pixels=self.side * self.side,
        )


class DefendBatchWorkload:
    """`defend --batch --jobs 2` with a reference dir and input noise 0.05.

    Sides cycle through 32..96, every third file is colour and every other
    file is ASCII (P2/P3); the rest are binary (P5/P6).
    """

    call = "defend --batch"

    def __init__(self, seed: int, tiny: bool = False):
        self.sides, self.count = ((16, 24), 4) if tiny else ((32, 48, 64, 80, 96), 40)
        self.seed = seed
        self.runs = 0

    @staticmethod
    def _write_set(folder: Path, images: dict[str, np.ndarray], ascii_names=()):
        folder.mkdir(parents=True)
        for name, img in images.items():
            fmt = ("P2" if img.ndim == 2 else "P3") if name in ascii_names else None
            (folder / name).write_bytes(encode_image(img, fmt=fmt))

    def _image(self, i: int) -> np.ndarray:
        side = self.sides[i % len(self.sides)]
        scene = make_test_image(100 + i, side)
        if i % 3 != 2:
            return scene
        # colour: three correlated channels from one scene
        tints = ((1.0, 0.0), (0.85, 0.1), (0.7, 0.05))
        return np.stack([np.clip(scene * g + o, 0.0, 1.0) for g, o in tints])

    def prepare(self, workdir: Path):
        self.workdir = workdir
        images = {}
        ascii_names = set()
        for i in range(self.count):
            img = self._image(i)
            name = f"img{i:02d}" + (".pgm" if img.ndim == 2 else ".ppm")
            images[name] = img
            if i % 2 == 0:
                ascii_names.add(name)
        self.in_dir, self.ref_dir = workdir / "in", workdir / "ref"
        self._write_set(self.in_dir, images, ascii_names)
        self._write_set(self.ref_dir, images)
        self.shapes = {name: img.shape for name, img in images.items()}
        self.pixels = sum(img.size for img in images.values())
        warm = {"w0.pgm": images[next(iter(images))][:16, :16]}
        warm["w1.ppm"] = np.stack([warm["w0.pgm"]] * 3)
        self._write_set(workdir / "warm", warm, {"w0.pgm"})

    def argv(self, in_dir: Path, ref_dir: Path, out_dir: Path, jobs: int) -> list[str]:
        return [
            "defend", "--batch",
            "--input", str(in_dir),
            "--output", str(out_dir),
            "--jobs", str(jobs),
            "--reference-dir", str(ref_dir),
            "--add-uniform-noise", "0.05",
            "--seed", str(self.seed),
        ]  # fmt: skip

    def warm_up(self):
        warm = self.workdir / "warm"
        out = self.workdir / "warm-out"
        rc = cli.main(self.argv(warm, warm, out, 2))
        shutil.rmtree(out)
        if rc != 0:
            raise RuntimeError(f"warm-up defend exited {rc}")

    def units(self, jobs: int = 2) -> list[Unit]:
        self.runs += 1
        out_dir = self.workdir / f"out{self.runs}"
        argv = self.argv(self.in_dir, self.ref_dir, out_dir, jobs)

        def check(rc) -> Outcome:
            try:
                return self._check(rc, out_dir)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)

        return [
            Unit(
                name=f"batch-jobs{jobs}",
                run=lambda: cli.main(argv),
                check=check,
                outputs=self.count,
                pixels=self.pixels,
            )
        ]

    def _check(self, rc: int, out_dir: Path) -> Outcome:
        out = Outcome(attempted=self.count)
        if rc != 0:
            out.fail(self.count, f"defend exited {rc}")
            return out
        rows = {}
        summary = out_dir / "summary.csv"
        lines = summary.read_text().splitlines() if summary.is_file() else []
        if not lines or lines[0] != "file,psnr_db":
            out.fail(self.count, "summary.csv missing or without its header")
            return out
        if len(lines) != self.count + 1:
            out.errors.append(f"summary.csv has {len(lines) - 1} rows for {self.count} files")
        for line in lines[1:]:
            name, _, value = line.partition(",")
            rows.setdefault(name, []).append(float(value))
        chunks = [summary.read_bytes()]
        for name, shape in sorted(self.shapes.items()):
            path = out_dir / name
            try:
                data = path.read_bytes()
                decoded_shape = read_image(path).shape
            except (OSError, ValueError) as exc:
                out.fail(1, f"{name}: {exc}")
                continue
            chunks.append(data)
            values = rows.get(name, [])
            if decoded_shape != shape:
                out.fail(1, f"{name}: output shape {decoded_shape} != input {shape}")
            elif len(values) != 1 or not math.isfinite(values[0]):
                out.fail(1, f"{name}: summary needs one finite PSNR row, got {values}")
            else:
                out.psnrs.append(values[0])
        out.digest = _digest(*chunks)
        return out


COMPARE_HEADER = "fraction,method,psnr_db,rank,iters,seconds"
COMPARE_FRACTIONS = ("0.3", "0.5", "0.7")
COMPARE_METHODS = ("splic", "srf", "soft-impute", "usvt")


class CompareSweepWorkload:
    """`compare --anchor-fraction 0.3,0.5,0.7` on noisy scenes vs their clean originals."""

    call = "compare"

    def __init__(self, seed: int, tiny: bool = False):
        self.side, self.count = (24, 1) if tiny else (128, 3)
        self.seed = seed
        self.runs = 0

    def prepare(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.pairs = []
        noise_seeds = _sub_seeds(self.seed, self.count + 1)
        for k in range(self.count + 1):
            # the extra, smaller pair is the warm-up input
            side = self.side if k < self.count else 16
            clean = make_test_image(200 + k, side)
            noisy = add_uniform_noise(clean, 0.05, noise_seeds[k])
            clean_path, noisy_path = workdir / f"clean{k}.pgm", workdir / f"noisy{k}.pgm"
            clean_path.write_bytes(encode_image(clean))
            noisy_path.write_bytes(encode_image(noisy))
            self.pairs.append((noisy_path, clean_path))

    def argv(self, k: int, csv: Path) -> list[str]:
        noisy, clean = self.pairs[k]
        return [
            "compare",
            "--input", str(noisy),
            "--reference", str(clean),
            "--output", str(csv),
            "--anchor-fraction", ",".join(COMPARE_FRACTIONS),
            "--seed", str(self.seed),
        ]  # fmt: skip

    def warm_up(self):
        csv = self.workdir / "warm.csv"
        rc = cli.main(self.argv(self.count, csv))
        csv.unlink(missing_ok=True)
        if rc != 0:
            raise RuntimeError(f"warm-up compare exited {rc}")

    def units(self) -> list[Unit]:
        self.runs += 1
        return [self._unit(k) for k in range(self.count)]

    def _unit(self, k: int) -> Unit:
        csv = self.workdir / f"cmp{k}-{self.runs}.csv"
        argv = self.argv(k, csv)
        expected = len(COMPARE_FRACTIONS) * len(COMPARE_METHODS)

        def check(rc) -> Outcome:
            try:
                return self._check(k, rc, csv)
            finally:
                csv.unlink(missing_ok=True)

        return Unit(
            name=f"scene{k}",
            run=lambda: cli.main(argv),
            check=check,
            outputs=expected,
            pixels=expected * self.side * self.side,
        )

    def _check(self, k: int, rc: int, csv: Path) -> Outcome:
        wanted = {(f, m) for f in COMPARE_FRACTIONS for m in COMPARE_METHODS}
        out = Outcome(attempted=len(wanted))
        if rc != 0 or not csv.is_file():
            out.fail(len(wanted), f"scene {k}: compare exited {rc}")
            return out
        lines = csv.read_text().splitlines()
        if not lines or lines[0] != COMPARE_HEADER:
            out.fail(len(wanted), f"scene {k}: CSV without its header")
            return out
        stable = []
        for line in lines[1:]:
            fields = line.split(",")
            key = tuple(fields[:2])
            if len(fields) != 6 or key not in wanted:
                out.errors.append(f"scene {k}: unexpected row {line!r}")
                continue
            wanted.discard(key)
            value = float(fields[2])
            if not math.isfinite(value):
                out.fail(1, f"scene {k}: non-finite PSNR in {line!r}")
                continue
            out.psnrs.append(value)
            # the seconds column is a timing; everything else must repeat
            stable.append(",".join(fields[:5]).encode())
        if wanted:
            out.fail(len(wanted), f"scene {k}: missing rows {sorted(wanted)}")
        out.digest = _digest(*stable)
        return out


def make(name: str, seed: int, tiny: bool = False):
    classes = {
        "complete-256": CompleteWorkload,
        "defend-batch-small": DefendBatchWorkload,
        "compare-sweep-128": CompareSweepWorkload,
    }
    return classes[name](seed, tiny)


# spans each workload must reach; the traced run fails its self-check
# when one of them records no calls
SOLVER_SPANS = (
    "linalg.svd",
    "linalg.reconstruct",
    "srf.srf_gradient",
    "srf.srf_value_from_sigma",
    "tv.tv_gradient",
    "tv.tv_value",
    "solver.splic_complete",
    "solver.relative_change",
)
EXPECTED_SPANS = {
    "complete-256": SOLVER_SPANS,
    "defend-batch-small": SOLVER_SPANS
    + (
        "solver.splic_alternated",
        "image_io.read_image",
        "image_io.encode_image",
        "metrics.psnr",
        "cli.defend_one",
        "cli.main",
    ),
    "compare-sweep-128": SOLVER_SPANS
    + (
        "linalg.numerical_rank",
        "baselines.soft_impute",
        "baselines.usvt",
        "baselines.srf_only",
        "metrics.compare_methods",
        "metrics.psnr",
        "image_io.read_image",
        "cli.main",
    ),
}
