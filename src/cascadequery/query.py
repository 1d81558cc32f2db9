"""Coarse-to-fine query cascade.

High pyramid levels, down to a start level, run the dense head; positions
whose query score exceeds a threshold become *queries*, each query maps to its
2x2 children one level down (``(2x+i, 2y+j)`` for i,j in {0,1}), and those
children are the only positions the next level computes. Every level returns
its head's rows at a key set: the full grid on the dense levels, the children
below. Four strategies share this skeleton and differ only in how the
children's rows are computed:

  dense  the cascade started at the pyramid's finest level, so no level has
         children: every level computed in full (reference / upper cost bound)
  csq    children computed with submanifold sparse convolutions; the next
         queries are read from the sparse rows themselves, so sparsity
         compounds level after level
  cq     the csq head run once per level over a shrinking schedule of key
         sets: rings grown outward from the keys one cell at a time through
         the conv's own neighbour table, out to the receptive-field radius
         (model.RECEPTIVE_FIELD // 2). The level is gathered at the widest
         ring, and each conv reads one ring and writes the next one in, so
         the predictors write at the keys. Every input a key's output
         depends on is computed, so cq matches dense at every key
  ccq    full dense compute at every level, but outputs below the start level
         are gathered at the keys alone (exactness baseline)

The query branch exists only to pick the children one level down, so every
strategy runs it (the head passes' and cost rule's `query` flag) only at the
levels whose query scores the cascade reads: from the start level down to the
level above the finest. Every other level runs the cls and reg branches alone
(`model.SUBNETS`), carries no query logits, and is charged those two's MACs.
Started at the finest level, the dense strategy reads no query score, so it
never runs the query branch.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigurationError, ValidationError
from .model import (RECEPTIVE_FIELD, TOWER_DEPTH, FeaturePyramid, HeadOutput, HeadWeights,
                    head_flops_dense, head_flops_sparse, run_dense_head, run_sparse_head)
from .sparse import KeySet, Rulebook, SparseFeature, build_rulebook, dilate, gather
from .targets import MAX_LEVEL
from .tensor import manifest_int, sigmoid_above

STRATEGIES = ("dense", "csq", "cq", "ccq")
# Radius by which the sparse strategies widen their keys before the head runs:
# csq computes at the keys alone, cq gathers every input its keys' outputs
# read. Conv j of the head then writes at the keys widened by radius - j.
_HALO = {"csq": 0, "cq": RECEPTIVE_FIELD // 2}


@dataclass(frozen=True)
class QueryConfig:
    strategy: str = "csq"
    sigma: float = 0.15
    start_level: int = 4

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )
        if isinstance(self.sigma, (bool, np.bool_)) or not (0.0 <= self.sigma <= 1.0):
            raise ConfigurationError(f"sigma must be in [0, 1], got {self.sigma!r}")
        # the rule FeaturePyramid applies to level ids
        if not manifest_int(self.start_level, 0) or self.start_level > MAX_LEVEL:
            raise ConfigurationError(f"start_level {self.start_level!r} lies outside "
                                     f"[0, {MAX_LEVEL}] or is not an int")


def extract_queries(query_logits: SparseFeature, sigma: float) -> KeySet:
    """Keys whose query score, the sigmoid of their logit, is strictly greater
    than sigma, decided by `sigmoid_above` on the logits: sigma = 0 keeps
    every key and sigma = 1 none.

    Logits are single-channel rows; the queries keep the rows' level and grid."""
    if query_logits.channels != 1:
        raise ValidationError(
            f"query logits must be single-channel, got {query_logits.channels}"
        )
    keys = query_logits.keys
    keep = sigmoid_above(query_logits.features[:, 0], sigma)
    return KeySet(keys.level, keys.height, keys.width, keys.cells[keep])


def map_queries_to_keys(queries: KeySet, child_height: int, child_width: int) -> KeySet:
    """Each query (x, y) owns the four child cells {(2x+i, 2y+j) : i,j in {0,1}}
    one level down, kept as flat cells of the child grid. Children are
    clipped to the child grid: a ceil-sized child side that is odd is one
    short of twice its parent's, so the last parent row or column there owns
    only the even children. Children of distinct parents are distinct, so
    sorting them is all the key set needs: it skips its deduplication."""
    xs, ys = queries.xs, queries.ys
    cx = np.concatenate([2 * xs, 2 * xs + 1, 2 * xs, 2 * xs + 1])
    cy = np.concatenate([2 * ys, 2 * ys, 2 * ys + 1, 2 * ys + 1])
    inside = (cx < child_width) & (cy < child_height)
    return KeySet(queries.level - 1, child_height, child_width,
                  np.sort((cy * child_width + cx)[inside]))


@dataclass(frozen=True)
class LevelRecord:
    """What happened at one pyramid level.

    mode is "dense" (full-map head), "sparse" (submanifold head, rows kept at
    the keys), or "masked" (full compute, outputs kept at keys only). The
    output's rows sit at the full grid on dense levels and at computed_keys
    elsewhere; computed_keys is None on dense levels. The output holds the
    branches that ran, `output.branches`: all of BRANCHES where the cascade
    reads the level's query scores, SUBNETS elsewhere, where
    extracted_queries is None too.
    dense_positions counts full-map positions for dense/masked modes;
    sparse_rows counts the rows kept at computed_keys. rulebook_entries sums
    the entries of the rulebooks the sparse head built: for csq the one
    rulebook of the keys, shared by every conv; for cq one rulebook per conv,
    each from the halo it reads to the narrower halo it writes, the last one
    writing at the keys.
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
        return 0 if self.computed_keys is None else len(self.computed_keys)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "mode": self.mode,
            "branches": list(self.output.branches),
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
    config: QueryConfig  # as run: dense's start_level is the pyramid's finest level
    image_height: int
    image_width: int
    channels: int
    records: list[LevelRecord]  # execution order: top level first
    total_millis: float
    dense_equiv_flops: int  # a full-map pass of all three branches over the same levels

    def record(self, level: int) -> LevelRecord:
        for r in self.records:
            if r.level == level:
                return r
        raise KeyError(f"no record for level {level}")

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.records)

    def report(self) -> dict:
        """The run as JSON. `dense_equiv_flops` is the full three-branch head
        over every level, the query branch included, whether or not it ran:
        `flops_fraction_of_dense` is the share of that head the run computed,
        0.67 for the dense strategy, which runs cls and reg alone. A
        two-branch (RetinaNet) denominator would raise every cascade's
        fraction while it computes fewer MACs."""
        dense_equiv = self.dense_equiv_flops
        return {
            "schema": "qd/1",
            "strategy": self.strategy,
            "config": asdict(self.config),
            "image": [self.image_height, self.image_width],
            "channels": self.channels,
            "levels": [r.to_json() for r in self.records],
            "total_flops": self.total_flops,
            "dense_equiv_flops": dense_equiv,
            "flops_fraction_of_dense": (self.total_flops / dense_equiv) if dense_equiv else 0.0,
            "total_millis": self.total_millis,
        }


def _schedule(keys: KeySet, radius: int) -> list[Rulebook]:
    """One rulebook per conv of a head branch (TOWER_DEPTH tower convs, then
    the predictor). Rings grow outward from the keys through the conv's own
    neighbour table, A_(j-1) = `dilate(A_j)` with A_radius the keys, so the
    cells conv j reads are exactly A_(j-1), and conv j writes A_j: the first
    conv reads the keys dilated by `radius` and each later one writes a ring
    narrower, down to the keys. Every conv left once the radius is used up
    shares one submanifold rulebook of the keys."""
    rings = [keys]
    for _ in range(radius):
        rings.insert(0, dilate(rings[0]))
    books = [build_rulebook(out, inp) for inp, out in zip(rings, rings[1:])]
    if radius <= TOWER_DEPTH:
        books += [build_rulebook(keys)] * (TOWER_DEPTH + 1 - radius)
    return books


def _sparse_level(feature: SparseFeature, w: HeadWeights, keys: KeySet, radius: int,
                  query: bool) -> tuple[HeadOutput, int, int]:
    """Sparse pass, with or without the query branch, over `_schedule(keys,
    radius)`, gathered at its widest set and with rows at the keys. Each conv
    of each branch that runs is charged for its own rulebook.
    Returns the output, the entries summed over the distinct rulebooks, and
    the level's MACs."""
    per_conv = _schedule(keys, radius)
    built = list(dict.fromkeys(per_conv))
    out = run_sparse_head(gather(feature, per_conv[0].inputs), w,
                          built[0] if len(built) == 1 else per_conv, query=query)
    flops = head_flops_sparse([rb.num_entries for rb in per_conv], w.channels,
                              w.num_anchors, w.num_classes, query=query)
    return out, sum(rb.num_entries for rb in built), flops


def crop_patch(feature: SparseFeature, x: int, y: int, patch: int) -> SparseFeature:
    """Zero-padded patch of side ``patch`` centered on (x, y) of a full-grid
    feature, as rows over the patch's full grid.

    The cascade no longer calls this; perfbench's tracer still hooks it by name."""
    r = patch // 2
    grid = feature.features.reshape(feature.height, feature.width, -1)
    out = np.zeros((patch, patch, feature.channels), dtype=np.float32)
    y0, y1 = max(0, y - r), min(feature.height, y + r + 1)
    x0, x1 = max(0, x - r), min(feature.width, x + r + 1)
    if y0 < y1 and x0 < x1:
        out[y0 - (y - r):y1 - (y - r), x0 - (x - r):x1 - (x - r)] = grid[y0:y1, x0:x1]
    return SparseFeature(KeySet.full(feature.keys.level, patch, patch),
                         out.reshape(-1, feature.channels))


def run_pipeline(pyr: FeaturePyramid, w: HeadWeights, cfg: QueryConfig) -> CascadeResult:
    """Run one strategy over the pyramid and record every level, top down.

    The cascade starts at cfg.start_level, which must be a pyramid level; the
    dense strategy starts it at the pyramid's finest level. Levels at or above
    the start run the full dense head, and each level below it is computed
    only at the keys derived from the level above; its own query scores, from
    the start down, seed the next level. The query branch runs only where
    those scores are read, from the start down to the level above the finest;
    every other level runs SUBNETS.
    """
    if pyr.channels != w.channels:
        raise ConfigurationError(
            f"pyramid has {pyr.channels} channels, head expects {w.channels}"
        )
    levels = sorted(pyr.levels, reverse=True)
    start = levels[-1] if cfg.strategy == "dense" else cfg.start_level
    if start not in pyr.levels:
        raise ConfigurationError(f"pyramid levels {sorted(pyr.levels)} lack "
                                 f"start_level={start}")

    t_start = time.perf_counter()
    records = []
    queries = None
    dense_equiv = 0
    for l in levels:
        t0 = time.perf_counter()
        feature = pyr.levels[l]
        child = l < start
        keys = (map_queries_to_keys(queries, feature.height, feature.width) if child
                else feature.keys)
        # the next level's keys come from this level's query scores
        reads_queries = levels[-1] < l <= start
        dense_equiv += head_flops_dense(feature.height, feature.width, w.channels,
                                        w.num_anchors, w.num_classes)
        if child and cfg.strategy in _HALO:
            out, entries, flops = _sparse_level(feature, w, keys, _HALO[cfg.strategy],
                                                reads_queries)
            mode = "sparse"
        else:
            out = run_dense_head(feature, w, query=reads_queries)
            if child:
                out = HeadOutput(**{n: gather(r, keys) for n, r in out.branch_rows().items()})
            entries, mode = 0, "masked" if child else "dense"
            flops = head_flops_dense(feature.height, feature.width, w.channels,
                                     w.num_anchors, w.num_classes, query=reads_queries)
        queries = extract_queries(out.query_logits, cfg.sigma) if reads_queries else None
        millis = (time.perf_counter() - t0) * 1000.0
        records.append(LevelRecord(l, mode, feature.height, feature.width, out,
                                   computed_keys=keys if child else None,
                                   extracted_queries=queries, rulebook_entries=entries,
                                   flops=flops, millis=millis))
    total_millis = (time.perf_counter() - t_start) * 1000.0
    return CascadeResult(cfg.strategy, replace(cfg, start_level=start), pyr.image_height,
                         pyr.image_width, pyr.channels, records, total_millis, dense_equiv)
