"""Cost reports built on the head's MAC rule, and a wall-clock benchmark harness.

The rule itself, `model.head_flops_sparse`, sits beside the head's layout,
with its full-grid case `model.head_flops_dense`. This module builds the
`flops` command's per-level breakdown on it, and holds the stride-4 cost
ratio and the rulebook entry count of a fully covered grid, which `verify`
checks `build_rulebook` against. `query.run_pipeline` charges
every level once, where it runs it, with both its MACs and the dense charge
for its grid (its dense-equivalent cost, all three branches).

`run_benchmark` times each config end to end, pyramid in and detections out:
`query.run_pipeline`, then box decoding and NMS (`postproc.detections_from_result`),
and keeps the pipeline's own time beside it.
"""

from __future__ import annotations

import csv
import ctypes
import io
import math
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import postproc, query
from .errors import ConfigurationError
from .model import TOWER_DEPTH, head_flops_dense, head_flops_sparse, level_dims


def inbounds_pairs(height: int, width: int) -> int:
    """Number of (position, kernel-offset) pairs whose neighbor falls inside an
    H x W grid: sum over offsets of (H-|dy|)(W-|dx|) = (3H-2)(3W-2). This is the
    rulebook entry count when every position is a key; it is strictly below
    9*H*W because the dense model also charges padding taps."""
    if height <= 0 or width <= 0:
        return 0
    return (3 * height - 2) * (3 * width - 2)


def p2_cost_increase(image_h: int, image_w: int) -> float:
    """Head-cost ratio of adding the stride-4 level: flops(P2) / sum(flops(P3..P7)).

    A level's dense head cost is its cell count times one per-cell charge, so
    the ratio is one of cell counts, whatever the head's width. ~3.0 for
    power-of-two images (geometric series 4 / (1 + 1/4 + ... + 1/256));
    ceil-sized grids move it slightly (2.932 at 500 x 500)."""
    cells = [math.prod(level_dims(image_h, image_w, l)) for l in range(2, 8)]
    return cells[0] / sum(cells[1:])


def flops_report(image_h: int, image_w: int, levels, channels: int, num_anchors: int,
                 num_classes: int) -> dict:
    """Per-level dense MAC breakdown for an image: the `flops` command's JSON.
    `dense_query_macs` is the query branch's share of the total, its tower and
    predictor: the part a level pays only where its query scores are read."""
    rows = []
    for l in sorted(levels):
        h, w = level_dims(image_h, image_w, l)
        total = head_flops_dense(h, w, channels, num_anchors, num_classes)
        pred = head_flops_sparse([0] * TOWER_DEPTH + [9 * h * w], channels, num_anchors,
                                 num_classes)
        subnets = head_flops_dense(h, w, channels, num_anchors, num_classes, query=False)
        rows.append({"level": l, "shape": [h, w], "dense_tower_macs": total - pred,
                     "dense_pred_macs": pred, "dense_query_macs": total - subnets,
                     "dense_total_macs": total})
    return {
        "schema": "qd/1",
        "channels": channels,
        "num_anchors": num_anchors,
        "num_classes": num_classes,
        "levels": rows,
        "dense_query_macs": sum(r["dense_query_macs"] for r in rows),
        "dense_total_macs": sum(r["dense_total_macs"] for r in rows),
    }


# --- wall-clock harness ------------------------------------------------------

# Untimed rounds before the timed ones: the first pass pays one-off costs, such
# as neighbour-table builds and BLAS start-up.
WARMUP = 2
# Fewest timed rounds `run_benchmark` takes: its median needs a few samples.
MIN_REPEATS = 5


@dataclass(frozen=True)
class BenchResult:
    """Timings of one config from `run_benchmark`, which `cascadequery bench`
    writes: end to end (`query.run_pipeline`, then box decoding and NMS), and
    the pipeline alone."""

    strategy: str
    sigma: float
    level_millis: dict[int, float]  # median per level over the rounds
    level_keys: dict[int, int]      # computed positions per level
    level_flops: dict[int, int]
    # Each round's times, in round order: end to end, and run_pipeline's own
    # total_millis within it. Entry r of every result from one run_benchmark
    # call was timed in the same round, so two configs compare pairwise,
    # round by round, free of slow phases of the host.
    end_to_end_samples: tuple[float, ...]
    pipeline_samples: tuple[float, ...]
    timer_warning: bool

    @property
    def end_to_end_millis(self) -> float:
        """Median over the rounds."""
        return statistics.median(self.end_to_end_samples)

    @property
    def best_end_to_end_millis(self) -> float:
        """Fastest round."""
        return min(self.end_to_end_samples)

    @property
    def pipeline_millis(self) -> float:
        """Median of run_pipeline's time over the rounds."""
        return statistics.median(self.pipeline_samples)

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "sigma": self.sigma,
            "repeats": len(self.end_to_end_samples),
            "warmup": WARMUP,
            "end_to_end_millis": self.end_to_end_millis,
            "best_end_to_end_millis": self.best_end_to_end_millis,
            "end_to_end_samples": list(self.end_to_end_samples),
            "pipeline_millis": self.pipeline_millis,
            "pipeline_samples": list(self.pipeline_samples),
            "timer_warning": self.timer_warning,
            "levels": [
                {"level": l, "keys": self.level_keys[l], "flops": self.level_flops[l],
                 "millis": self.level_millis[l]}
                for l in sorted(self.level_millis)
            ],
        }


def timer_resolution_warning(spans_millis, resolution_s: float) -> bool:
    """True when the clock cannot resolve 1% of the shortest measured span."""
    shortest = min(spans_millis) / 1000.0
    return shortest <= 0.0 or resolution_s > 0.01 * shortest


def run_benchmark(pyr, weights, configs, repeats: int = MIN_REPEATS) -> list[BenchResult]:
    """Round-robin timing of every config, one image at a time, end to end:
    `query.run_pipeline`, then `postproc.detections_from_result` at its
    default thresholds.

    WARMUP untimed rounds come first, then `repeats` timed rounds; each round
    runs every config once, in the order given. The host's speed drifts in
    phases longer than one config's runs, so timing a config's repeats back to
    back would charge a slow phase to that config alone; interleaved, a phase
    lands on neighbouring configs alike, and configs compared within one round
    (`end_to_end_samples[r]`, `pipeline_samples[r]`) see the same host.
    Results are in config order. Key and FLOP counters come from each
    config's last run (they are deterministic across runs)."""
    if repeats < MIN_REPEATS:
        raise ConfigurationError(f"repeats must be >= {MIN_REPEATS}, got {repeats}")
    configs = list(configs)
    anchors = postproc.AnchorConfig(num_anchors=weights.num_anchors)

    def run(cfg):
        t0 = time.perf_counter()
        result = query.run_pipeline(pyr, weights, cfg)
        postproc.detections_from_result(result, anchors, weights.num_classes)
        return result, (time.perf_counter() - t0) * 1000.0

    for _ in range(WARMUP):
        for cfg in configs:
            run(cfg)
    totals: list[list[float]] = [[] for _ in configs]
    pipeline: list[list[float]] = [[] for _ in configs]
    per_level: list[dict[int, list[float]]] = [{} for _ in configs]
    last = [None] * len(configs)
    for _ in range(repeats):
        for i, cfg in enumerate(configs):
            last[i], millis = run(cfg)
            totals[i].append(millis)
            pipeline[i].append(last[i].total_millis)
            for rec in last[i].records:
                per_level[i].setdefault(rec.level, []).append(rec.millis)

    resolution = time.get_clock_info("perf_counter").resolution
    out = []
    for cfg, samples, pipe, levels, res in zip(configs, totals, pipeline, per_level, last):
        out.append(BenchResult(
            strategy=cfg.strategy,
            sigma=cfg.sigma,
            level_millis={l: statistics.median(v) for l, v in levels.items()},
            level_keys={r.level: len(r.output.keys) for r in res.records},
            level_flops={r.level: r.flops for r in res.records},
            end_to_end_samples=tuple(samples),
            pipeline_samples=tuple(pipe),
            timer_warning=timer_resolution_warning(pipe, resolution),
        ))
    return out


def sweep_sigmas() -> list[float]:
    """The 0.05-step threshold grid, 0.05 through 0.95."""
    return [round(0.05 * i, 2) for i in range(1, 20)]


def bench_csv(results: list[BenchResult]) -> str:
    """One row per (strategy, sigma, level): strategy,sigma,level,keys,flops,millis."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["strategy", "sigma", "level", "keys", "flops", "millis"])
    for r in results:
        for l in sorted(r.level_millis):
            writer.writerow([r.strategy, r.sigma, l, r.level_keys[l],
                             r.level_flops[l], f"{r.level_millis[l]:.6f}"])
    return buf.getvalue()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if no library
    bundled with numpy answers the question."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def bench_protocol() -> dict:
    """The host a benchmark ran on: core count, numpy, its BLAS library and
    the number of threads that library runs its GEMMs on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": _blas_threads()}}


def bench_json(results: list[BenchResult]) -> dict:
    return {"schema": "qd/1", "protocol": bench_protocol(),
            "results": [r.to_json() for r in results]}
