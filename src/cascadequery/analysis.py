"""Analytic cost model (multiply-accumulates) and a wall-clock benchmark harness.

MACs are the cost unit; bias additions are not counted. The dense model
charges every output position the full 3x3 window (zero-padding taps included,
matching the usual conv-FLOPs convention); the sparse model charges each conv
only its own rulebook's entries, i.e. (output, offset) pairs whose neighbor is
in the conv's input set, so it takes one entry count per conv of a branch.
`query.run_pipeline` charges every level once, where it runs it, with both
its MACs and the dense model's charge for its grid (its dense-equivalent cost).
"""

from __future__ import annotations

import csv
import ctypes
import io
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .model import BRANCHES, TOWER_DEPTH, level_dims, pred_widths

_TOWERS = len(BRANCHES)


def _pred_channels(num_anchors: int, num_classes: int) -> int:
    return sum(pred_widths(num_anchors, num_classes))


def tower_macs_dense(height: int, width: int, channels: int) -> int:
    return height * width * _TOWERS * TOWER_DEPTH * 9 * channels * channels


def pred_macs_dense(height: int, width: int, channels: int, num_anchors: int,
                    num_classes: int) -> int:
    return height * width * 9 * channels * _pred_channels(num_anchors, num_classes)


def head_flops_dense(height: int, width: int, channels: int, num_anchors: int,
                     num_classes: int) -> int:
    """Full-map head cost: H*W * 9C * [branches * TOWER_DEPTH * C + sum(pred_widths)]."""
    return (tower_macs_dense(height, width, channels)
            + pred_macs_dense(height, width, channels, num_anchors, num_classes))


def head_flops_sparse(rulebook_entries, channels: int, num_anchors: int,
                      num_classes: int) -> int:
    """Sparse head cost: every conv (towers and predictors alike) pays
    C_in * C_out work per entry of its rulebook. `rulebook_entries` holds one
    count per conv of a branch (the TOWER_DEPTH tower convs, then the
    predictor); every branch shares that schedule of rulebooks. Isolated
    keys fire only their center offset, giving the 1/9-per-key floor. Bias
    adds are not MACs, so the key count does not enter."""
    if len(rulebook_entries) != TOWER_DEPTH + 1:
        raise ConfigurationError(f"{len(rulebook_entries)} per-conv entry counts, the head "
                                 f"has {TOWER_DEPTH + 1} convs")
    *tower, last = rulebook_entries
    return channels * (_TOWERS * channels * sum(tower)
                       + _pred_channels(num_anchors, num_classes) * last)


def inbounds_pairs(height: int, width: int) -> int:
    """Number of (position, kernel-offset) pairs whose neighbor falls inside an
    H x W grid: sum over offsets of (H-|dy|)(W-|dx|) = (3H-2)(3W-2). This is the
    rulebook entry count when every position is a key; it is strictly below
    9*H*W because the dense model also charges padding taps."""
    if height <= 0 or width <= 0:
        return 0
    return (3 * height - 2) * (3 * width - 2)


def p2_cost_increase(image_h: int, image_w: int, channels: int = 16,
                     num_anchors: int = 1, num_classes: int = 4) -> float:
    """Head-cost ratio of adding the stride-4 level: flops(P2) / sum(flops(P3..P7)).

    ~3.0 for power-of-two images (geometric series 4 / (1 + 1/4 + ... + 1/256));
    floor-sized grids move it slightly."""
    p2 = head_flops_dense(*level_dims(image_h, image_w, 2), channels,
                          num_anchors, num_classes)
    rest = sum(
        head_flops_dense(*level_dims(image_h, image_w, l), channels,
                         num_anchors, num_classes)
        for l in range(3, 8)
    )
    if rest == 0:
        raise ConfigurationError(f"image {image_h}x{image_w} has no area at levels 3-7")
    return p2 / rest


def flops_report(image_h: int, image_w: int, levels, channels: int, num_anchors: int,
                 num_classes: int) -> dict:
    """Per-level dense MAC breakdown for an image: the `flops` command's JSON."""
    rows = []
    for l in sorted(levels):
        h, w = level_dims(image_h, image_w, l)
        tower = tower_macs_dense(h, w, channels)
        pred = pred_macs_dense(h, w, channels, num_anchors, num_classes)
        rows.append({"level": l, "shape": [h, w], "dense_tower_macs": tower,
                     "dense_pred_macs": pred, "dense_total_macs": tower + pred})
    return {
        "schema": "qd/1",
        "channels": channels,
        "num_anchors": num_anchors,
        "num_classes": num_classes,
        "levels": rows,
        "dense_total_macs": sum(r["dense_total_macs"] for r in rows),
    }


# --- wall-clock harness ------------------------------------------------------

@dataclass(frozen=True)
class BenchResult:
    """Timings of one config from `run_benchmark`, which `cascadequery bench`
    writes. They time `query.run_pipeline` only: box decoding and NMS are left
    out."""

    strategy: str
    sigma: float
    repeats: int
    warmup: int
    level_millis: dict[int, float]  # median per level over the rounds
    level_keys: dict[int, int]      # computed positions per level
    level_flops: dict[int, int]
    # End-to-end time of each round, in round order. Entry r of every result
    # from one run_benchmark call was timed in the same round, so two configs
    # compare pairwise, round by round, free of slow phases of the host.
    end_to_end_samples: tuple[float, ...]
    timer_warning: bool

    @property
    def end_to_end_millis(self) -> float:
        """Median over the rounds."""
        return statistics.median(self.end_to_end_samples)

    @property
    def best_end_to_end_millis(self) -> float:
        """Fastest round."""
        return min(self.end_to_end_samples)

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "sigma": self.sigma,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "end_to_end_millis": self.end_to_end_millis,
            "best_end_to_end_millis": self.best_end_to_end_millis,
            "end_to_end_samples": list(self.end_to_end_samples),
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


def run_benchmark(pyr, weights, configs, repeats: int = 5, warmup: int = 2) -> list[BenchResult]:
    """Round-robin timing of every config, one pipeline at a time.

    `warmup` untimed rounds come first, then `repeats` timed rounds; each round
    runs every config once, in the order given. The host's speed drifts in
    phases longer than one config's runs, so timing a config's repeats back to
    back would charge a slow phase to that config alone; interleaved, a phase
    lands on neighbouring configs alike, and configs compared within one round
    (`end_to_end_samples[r]`) see the same host. Results are in config order.
    Key and FLOP counters come from each config's last run (they are
    deterministic across runs)."""
    if repeats < 5:
        raise ConfigurationError(f"repeats must be >= 5, got {repeats}")
    if warmup < 2:
        raise ConfigurationError(f"warmup must be >= 2, got {warmup}")
    from .query import run_pipeline  # imported late: query builds on this module

    configs = list(configs)
    for _ in range(warmup):
        for cfg in configs:
            run_pipeline(pyr, weights, cfg)
    totals: list[list[float]] = [[] for _ in configs]
    per_level: list[dict[int, list[float]]] = [{} for _ in configs]
    last = [None] * len(configs)
    for _ in range(repeats):
        for i, cfg in enumerate(configs):
            last[i] = run_pipeline(pyr, weights, cfg)
            totals[i].append(last[i].total_millis)
            for rec in last[i].records:
                per_level[i].setdefault(rec.level, []).append(rec.millis)

    resolution = time.get_clock_info("perf_counter").resolution
    out = []
    for cfg, samples, levels, res in zip(configs, totals, per_level, last):
        out.append(BenchResult(
            strategy=cfg.strategy,
            sigma=cfg.sigma,
            repeats=repeats,
            warmup=warmup,
            level_millis={l: statistics.median(v) for l, v in levels.items()},
            level_keys={r.level: len(r.output.keys) for r in res.records},
            level_flops={r.level: r.flops for r in res.records},
            end_to_end_samples=tuple(samples),
            timer_warning=timer_resolution_warning(samples, resolution),
        ))
    return out


def sweep_sigmas() -> list[float]:
    """The 0.05-step threshold grid, 0.05 through 0.95."""
    return [round(0.05 * i, 2) for i in range(1, 20)]


def sigma_sweep(pyr, weights, strategy: str = "csq", sigmas=None, repeats: int = 5,
                warmup: int = 2) -> list[BenchResult]:
    """Benchmark one strategy across the threshold grid (ascending sigma), every
    threshold timed in the same interleaved rounds (see run_benchmark)."""
    from .query import QueryConfig

    sigmas = sweep_sigmas() if sigmas is None else list(sigmas)
    configs = [QueryConfig(strategy=strategy, sigma=s) for s in sigmas]
    return run_benchmark(pyr, weights, configs, repeats=repeats, warmup=warmup)


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
