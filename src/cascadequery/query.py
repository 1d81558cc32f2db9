"""Coarse-to-fine query cascade.

High pyramid levels run the dense head; positions whose query score exceeds a
threshold become *queries*, each query maps to its 2x2 children one level down
(``(2x+i, 2y+j)`` for i,j in {0,1}), and those children are the only positions
the next level computes. Four strategies share this skeleton:

  dense  every level computed in full (reference / upper cost bound)
  csq    children computed with submanifold sparse convolutions; the next
         queries are read from the sparse rows themselves, so sparsity
         compounds level after level
  cq     the csq head run once per level over the keys dilated by the
         receptive-field radius (model.RECEPTIVE_FIELD // 2), keeping the
         rows at the keys: every input the head reads at a key is then
         active, so cq matches dense at every key
  ccq    full dense compute at every level, but outputs below the start level
         are kept only at key positions (exactness baseline)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .errors import ConfigurationError, ValidationError
from .model import (RECEPTIVE_FIELD, FeaturePyramid, HeadOutput, HeadWeights,
                    run_dense_head, run_sparse_head)
from .sparse import KeySet, SparseFeature, build_rulebook, dilate, gather
from .tensor import DenseTensor, sigmoid_array

STRATEGIES = ("dense", "csq", "cq", "ccq")
# Radius by which the sparse strategies widen their keys before the head runs:
# csq computes at the keys alone, cq over every input its keys' outputs read.
_HALO = {"csq": 0, "cq": RECEPTIVE_FIELD // 2}


@dataclass(frozen=True)
class QueryConfig:
    strategy: str = "csq"
    sigma: float = 0.15
    start_level: int = 4
    min_level: int = 2

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
        if not (0.0 <= self.sigma <= 1.0):
            raise ConfigurationError(f"sigma must be in [0, 1], got {self.sigma}")
        if self.min_level > self.start_level:
            raise ConfigurationError(
                f"min_level {self.min_level} exceeds start_level {self.start_level}"
            )


def extract_queries(query_scores: DenseTensor | SparseFeature, sigma: float,
                    level: int | None = None) -> KeySet:
    """Positions whose score is strictly greater than sigma.

    Scores are expected in [0, 1] (sigmoid outputs). A dense map needs its
    pyramid level passed explicitly; sparse rows carry it in their key set and
    only existing keys are considered.
    """
    if isinstance(query_scores, SparseFeature):
        if query_scores.channels != 1:
            raise ValidationError(
                f"query scores must be single-channel, got {query_scores.channels}"
            )
        keep = query_scores.features[:, 0] > sigma
        keys = query_scores.keys
        return KeySet(keys.level, keys.height, keys.width, keys.positions[keep])
    if level is None:
        raise ConfigurationError("dense query maps need an explicit level")
    if query_scores.channels != 1:
        raise ValidationError(f"query scores must be single-channel, got {query_scores.channels}")
    ys, xs = np.nonzero(query_scores.values[0] > sigma)
    positions = np.stack([xs, ys], axis=1)
    return KeySet(level, query_scores.height, query_scores.width, positions)


def map_queries_to_keys(queries: KeySet, child_height: int, child_width: int) -> KeySet:
    """Each query (x, y) owns the four child cells {(2x+i, 2y+j) : i,j in {0,1}}
    one level down. Children are deduplicated and clipped to the child grid
    (clipping only matters when a child dimension is odd)."""
    xs, ys = queries.xs, queries.ys
    cx = np.concatenate([2 * xs, 2 * xs + 1, 2 * xs, 2 * xs + 1])
    cy = np.concatenate([2 * ys, 2 * ys, 2 * ys + 1, 2 * ys + 1])
    inside = (cx < child_width) & (cy < child_height)
    positions = np.stack([cx[inside], cy[inside]], axis=1)
    return KeySet(queries.level - 1, child_height, child_width, positions)


@dataclass(frozen=True)
class LevelRecord:
    """What happened at one pyramid level.

    mode is "dense" (full-map head), "sparse" (submanifold head, rows kept at
    the keys), or "masked" (full compute, outputs kept at keys only).
    dense_positions counts full-map positions for dense/masked modes;
    sparse_rows counts rows in a sparse output. rulebook_entries counts the
    rulebook the sparse head ran over: for cq that is the keys' halo, so it
    exceeds what the keys alone would give.
    """

    level: int
    mode: str
    height: int
    width: int
    output: HeadOutput
    computed_keys: KeySet | None
    extracted_queries: KeySet | None
    rulebook_entries: int
    flops: int
    millis: float

    @property
    def dense_positions(self) -> int:
        if self.mode in ("dense", "masked"):
            return self.height * self.width
        return 0

    @property
    def sparse_rows(self) -> int:
        return len(self.computed_keys) if self.output.is_sparse else 0

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "mode": self.mode,
            "shape": [self.height, self.width],
            "computed_keys": None if self.computed_keys is None else self.computed_keys.to_json(),
            "extracted_queries": (None if self.extracted_queries is None
                                  else self.extracted_queries.to_json()),
            "dense_positions": self.dense_positions,
            "sparse_rows": self.sparse_rows,
            "rulebook_entries": self.rulebook_entries,
            "flops": self.flops,
            "millis": self.millis,
        }


@dataclass(frozen=True)
class CascadeResult:
    strategy: str
    config: QueryConfig
    image_height: int
    image_width: int
    channels: int
    records: list[LevelRecord] = field(default_factory=list)  # execution order: top level first
    total_millis: float = 0.0

    def record(self, level: int) -> LevelRecord:
        for r in self.records:
            if r.level == level:
                return r
        raise KeyError(f"no record for level {level}")

    @property
    def levels(self) -> list[int]:
        return [r.level for r in self.records]

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.records)

    @property
    def dense_equiv_flops(self) -> int:
        """What a fully dense head pass over the same levels would cost."""
        return sum(
            analysis.head_flops_dense(r.height, r.width, self.channels,
                                      self._anchors, self._classes)
            for r in self.records
        )

    @property
    def _anchors(self) -> int:
        reg = self.records[0].output.reg_deltas
        n = reg.values.shape[0] if isinstance(reg, DenseTensor) else reg.features.shape[1]
        return n // 4

    @property
    def _classes(self) -> int:
        cls = self.records[0].output.cls_logits
        n = cls.values.shape[0] if isinstance(cls, DenseTensor) else cls.features.shape[1]
        return n // self._anchors

    def report(self) -> dict:
        dense_equiv = self.dense_equiv_flops
        return {
            "schema": "qd/1",
            "strategy": self.strategy,
            "config": {
                "strategy": self.config.strategy,
                "sigma": self.config.sigma,
                "start_level": self.config.start_level,
                "min_level": self.config.min_level,
            },
            "image": [self.image_height, self.image_width],
            "channels": self.channels,
            "levels": [r.to_json() for r in self.records],
            "total_flops": self.total_flops,
            "dense_equiv_flops": dense_equiv,
            "flops_fraction_of_dense": (self.total_flops / dense_equiv) if dense_equiv else 0.0,
            "total_millis": self.total_millis,
        }


def _check_levels(pyr: FeaturePyramid, cfg: QueryConfig, cascade: bool) -> list[int]:
    if cascade:
        missing = [l for l in range(cfg.min_level, cfg.start_level + 1) if l not in pyr.levels]
        if cfg.start_level > pyr.max_level:
            missing.append(cfg.start_level)
        if missing:
            raise ConfigurationError(
                f"pyramid lacks levels {sorted(set(missing))} required for "
                f"min_level={cfg.min_level}, start_level={cfg.start_level}"
            )
    levels = [l for l in sorted(pyr.levels, reverse=True) if l >= cfg.min_level]
    if not levels:
        raise ConfigurationError(f"pyramid has no levels at or above min_level={cfg.min_level}")
    return levels


def _query_scores(output: HeadOutput) -> DenseTensor | SparseFeature:
    q = output.query_logits
    if isinstance(q, SparseFeature):
        return SparseFeature(q.keys, sigmoid_array(q.features))
    return DenseTensor(sigmoid_array(q.values))


def _dense_record(pyr: FeaturePyramid, w: HeadWeights, level: int,
                  extract_sigma: float | None) -> LevelRecord:
    t0 = time.perf_counter()
    feature = pyr.levels[level]
    out = run_dense_head(feature, w)
    queries = None
    if extract_sigma is not None:
        queries = extract_queries(_query_scores(out), extract_sigma, level=level)
    millis = (time.perf_counter() - t0) * 1000.0
    flops = analysis.head_flops_dense(feature.height, feature.width, w.channels,
                                      w.num_anchors, w.num_classes)
    return LevelRecord(level, "dense", feature.height, feature.width, out,
                       computed_keys=None, extracted_queries=queries,
                       rulebook_entries=0, flops=flops, millis=millis)


def _sparse_level(feature: DenseTensor, w: HeadWeights, keys: KeySet,
                  radius: int) -> tuple[HeadOutput, int, int]:
    """Submanifold head over `dilate(keys, radius)`, with rows kept at the keys.
    The level is charged for the dilated set's rulebook."""
    active = dilate(keys, radius)
    rb = build_rulebook(active)
    out = run_sparse_head(gather(feature, active), w, rb)
    flops = analysis.head_flops_sparse(len(active), rb.num_entries, w.channels,
                                       w.num_anchors, w.num_classes)
    if len(active) != len(keys):
        # both sets are in row-major order, so the keys' rows are found by search
        width = keys.width
        rows = np.searchsorted(active.ys * width + active.xs, keys.ys * width + keys.xs)
        out = HeadOutput(*(SparseFeature(keys, f.features[rows]) for f in
                           (out.cls_logits, out.reg_deltas, out.query_logits)))
    return out, rb.num_entries, flops


def crop_patch(feature: DenseTensor, x: int, y: int, patch: int) -> DenseTensor:
    """Zero-padded patch of side ``patch`` centered on (x, y).

    The cascade no longer calls this; perfbench's tracer still hooks it by name."""
    r = patch // 2
    c = feature.channels
    out = np.zeros((c, patch, patch), dtype=np.float32)
    y0, y1 = max(0, y - r), min(feature.height, y + r + 1)
    x0, x1 = max(0, x - r), min(feature.width, x + r + 1)
    if y0 < y1 and x0 < x1:
        out[:, y0 - (y - r):y1 - (y - r), x0 - (x - r):x1 - (x - r)] = \
            feature.values[:, y0:y1, x0:x1]
    return DenseTensor(out)


def _masked_level(feature: DenseTensor, w: HeadWeights,
                  keys: KeySet) -> tuple[HeadOutput, int]:
    full = run_dense_head(feature, w)
    out = HeadOutput(
        gather(full.cls_logits, keys),
        gather(full.reg_deltas, keys),
        gather(full.query_logits, keys),
    )
    flops = analysis.head_flops_dense(feature.height, feature.width, w.channels,
                                      w.num_anchors, w.num_classes)
    return out, flops


def run_pipeline(pyr: FeaturePyramid, w: HeadWeights, cfg: QueryConfig) -> CascadeResult:
    """Run one strategy over the pyramid and record every level.

    Levels at or above cfg.start_level always run the full dense head. For the
    cascade strategies, each level below start_level is computed only at the
    keys derived from the level above, and its own query scores seed the next
    level down.
    """
    if pyr.channels != w.channels:
        raise ConfigurationError(
            f"pyramid has {pyr.channels} channels, head expects {w.channels}"
        )
    cascade = cfg.strategy != "dense"
    levels = _check_levels(pyr, cfg, cascade)

    t_start = time.perf_counter()
    dense_levels = [l for l in levels if l >= cfg.start_level] if cascade else levels
    sigma_at: dict[int, float] = {}
    if cascade and cfg.start_level in dense_levels and cfg.min_level < cfg.start_level:
        sigma_at[cfg.start_level] = cfg.sigma
    ordered = [_dense_record(pyr, w, l, sigma_at.get(l)) for l in dense_levels]
    if cascade:
        queries = ordered[-1].extracted_queries if sigma_at else None
        for l in range(cfg.start_level - 1, cfg.min_level - 1, -1):
            t0 = time.perf_counter()
            feature = pyr.levels[l]
            keys = map_queries_to_keys(queries, feature.height, feature.width)
            if cfg.strategy == "ccq":
                out, flops = _masked_level(feature, w, keys)
                entries, mode = 0, "masked"
            else:
                out, entries, flops = _sparse_level(feature, w, keys, _HALO[cfg.strategy])
                mode = "sparse"
            queries = extract_queries(_query_scores(out), cfg.sigma)
            millis = (time.perf_counter() - t0) * 1000.0
            ordered.append(LevelRecord(l, mode, feature.height, feature.width, out,
                                       computed_keys=keys, extracted_queries=queries,
                                       rulebook_entries=entries, flops=flops, millis=millis))
    total_millis = (time.perf_counter() - t_start) * 1000.0
    return CascadeResult(cfg.strategy, cfg, pyr.image_height, pyr.image_width,
                         pyr.channels, ordered, total_millis)
