"""Span recorder that wraps splic's public functions from outside the package.

Each wrapped function records, per thread, its call count, total seconds,
the seconds covered by wrapped functions it called (so self time is
total minus child time) and optional counters computed from its
arguments and result.  Nothing in `src/` is edited: `install` replaces the
function object at every name a splic module binds it to, including
module-level dicts such as `solver._TV_GRADIENTS`, which hold references
taken at import time, and `uninstall` puts the originals back.

To add a counter, add a `Probe` to `PROBES` (or pass your own list to
`Tracer.install`): `count(counters, args, kwargs, result)` adds to the
span's counter dict after each call.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    child_seconds: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds

    def merge(self, other: "SpanStats"):
        self.calls += other.calls
        self.seconds += other.seconds
        self.child_seconds += other.child_seconds
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value


@dataclass(frozen=True)
class Probe:
    """Wrap `module.attr` as span `name`; `count` fills the span's counters."""

    module: str
    attr: str
    name: str
    count: Callable | None = None


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _svd_flops(counters, args, kwargs, result):
    # Golub-Van Loan count for a thin SVD with U1, sigma and V, m >= n;
    # computed from the call shape, not measured
    m, n = sorted((result.U.shape[0], result.V.shape[0]), reverse=True)
    _add(counters, "gflop", (14.0 * m * n * n + 8.0 * n**3) / 1e9)


def _solve_outcome(counters, args, kwargs, result):
    _add(counters, "iterations", result.iterations)
    _add(counters, "converged", int(result.converged))


def _soft_impute_iterations(counters, args, kwargs, result):
    _add(counters, "iterations", result[1])


def _bytes_read(counters, args, kwargs, result):
    _add(counters, "bytes", Path(args[0]).stat().st_size)


def _bytes_encoded(counters, args, kwargs, result):
    _add(counters, "bytes", len(result))


PROBES = (
    Probe("splic.linalg", "svd", "linalg.svd", _svd_flops),
    Probe("splic.linalg", "reconstruct", "linalg.reconstruct"),
    Probe("splic.linalg", "numerical_rank", "linalg.numerical_rank"),
    Probe("splic.srf", "srf_gradient", "srf.srf_gradient"),
    Probe("splic.srf", "srf_value_from_sigma", "srf.srf_value_from_sigma"),
    Probe("splic.tv", "tv_gradient", "tv.tv_gradient"),
    Probe("splic.tv", "tv_value", "tv.tv_value"),
    Probe("splic.solver", "splic_complete", "solver.splic_complete", _solve_outcome),
    Probe("splic.solver", "splic_alternated", "solver.splic_alternated"),
    Probe("splic.solver", "relative_change", "solver.relative_change"),
    Probe(
        "splic.baselines",
        "soft_impute_with_count",
        "baselines.soft_impute",
        _soft_impute_iterations,
    ),
    Probe("splic.baselines", "usvt", "baselines.usvt"),
    Probe("splic.baselines", "srf_only", "baselines.srf_only"),
    Probe("splic.metrics", "compare_methods", "metrics.compare_methods"),
    Probe("splic.metrics", "psnr", "metrics.psnr"),
    Probe("splic.image_io", "read_image", "image_io.read_image", _bytes_read),
    Probe("splic.image_io", "encode_image", "image_io.encode_image", _bytes_encoded),
    # the per-file solve of `defend`; the batch pool calls it once per file
    Probe("splic.cli", "_defend_one", "cli.defend_one"),
    Probe("splic.cli", "main", "cli.main"),
)


class Tracer:
    """Per-thread span tables, merged on read."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict[str, SpanStats]] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, object, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "table"):
            local.table = {}
            local.stack = []
            with self._lock:
                self._tables.append(local.table)
        return local

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats = state.table.get(name)
                if stats is None:
                    stats = state.table[name] = SpanStats()
                stats.calls += 1
                stats.seconds += elapsed
                stats.child_seconds += child
            if count is not None:
                count(stats.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self, probes=PROBES):
        """Swap every binding of each probed function for its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "splic" or key.startswith("splic."))
        ]
        for probe in probes:
            original = getattr(sys.modules[probe.module], probe.attr)
            wrapper = self.wrap(probe.name, original, probe.count)
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._restore.append((namespace, key, original))
                        namespace[key] = wrapper
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._restore.append((value, dkey, original))
                                value[dkey] = wrapper

    def uninstall(self):
        for container, key, original in reversed(self._restore):
            container[key] = original
        self._restore.clear()

    def totals(self) -> dict[str, SpanStats]:
        merged: dict[str, SpanStats] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, stats in table.items():
                merged.setdefault(name, SpanStats()).merge(stats)
        return merged
