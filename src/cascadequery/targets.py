"""Query-target construction and verification losses (forward only, no training).

An object is *small for level l* when its max side is under the level's minimum
anchor scale s_l = ANCHOR_BASE * 2^l. Each level's binary query target marks
grid cells within a threshold distance of some small object's projected center;
the threshold lives in grid units, where it is simply ``ANCHOR_BASE`` (the
stride cancels: s_l / 2^l).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, FormatError, ValidationError


@dataclass(frozen=True)
class GroundTruthObject:
    """One object in image pixels, and the one home of its value checks: a
    finite center, finite positive sides and a non-negative class."""

    cx: float
    cy: float
    width: float
    height: float
    class_id: int = 0

    def __post_init__(self):
        # a bound, not math.isfinite, which overflows on an int too large for a float
        if not all(abs(v) <= sys.float_info.max
                   for v in (self.cx, self.cy, self.width, self.height)):
            raise ValidationError(f"object center and sides must be finite, got "
                                  f"({self.cx}, {self.cy}) {self.width}x{self.height}")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"object sides must be positive, got {self.width}x{self.height}")
        if self.class_id < 0:
            raise ValidationError(f"object class must be non-negative, got {self.class_id}")

    @property
    def max_side(self) -> float:
        return max(self.width, self.height)

    def to_json(self) -> dict:
        return {"cx": self.cx, "cy": self.cy, "w": self.width, "h": self.height,
                "class": self.class_id}


@dataclass(frozen=True)
class GroundTruthSet:
    image_height: int
    image_width: int
    objects: list[GroundTruthObject] = field(default_factory=list)

    def __post_init__(self):
        for i, o in enumerate(self.objects):
            if not (0 <= o.cx < self.image_width and 0 <= o.cy < self.image_height):
                raise ValidationError(
                    f"object {i}: center ({o.cx}, {o.cy}) outside "
                    f"{self.image_height}x{self.image_width} image"
                )

    def to_json(self) -> list[dict]:
        return [o.to_json() for o in self.objects]

    @classmethod
    def from_json(cls, entries, image_height: int, image_width: int,
                  source: str = "ground truth") -> "GroundTruthSet":
        """The set `to_json` wrote: a list of objects with numeric cx, cy, w
        and h and an optional integer class. Anything else raises FormatError
        naming `source` (the file) and the entry."""
        if not isinstance(entries, list):
            raise FormatError(f"{source}: must hold a list of objects, "
                              f"got {type(entries).__name__}")
        objects = []
        for i, e in enumerate(entries):
            d = e if isinstance(e, dict) else {}
            fields = [d.get(k) for k in ("cx", "cy", "w", "h")] + [d.get("class", 0)]
            if not (all(type(v) in (int, float) for v in fields) and type(fields[-1]) is int):
                raise FormatError(f"{source}: entry {i} must be an object with numeric "
                                  f"cx, cy, w, h and an integer class, got {e!r}")
            try:
                objects.append(GroundTruthObject(*fields))
            except ValidationError as err:
                raise FormatError(f"{source}: entry {i}: {err}") from err
        try:
            return cls(image_height, image_width, objects)
        except ValidationError as err:
            raise FormatError(f"{source}: {err}") from err


# RetinaNet's anchor base: the slot-0 anchor side at level l is ANCHOR_BASE * 2^l
# (postproc.anchor_boxes), and the same s_l decides which objects are small
# for that level's query target, so the anchors and the targets cannot disagree.
ANCHOR_BASE = 4.0


# A level above 30 would be one cell a side for any image up to 2^30 px, the
# same grid as level 30.
MAX_LEVEL = 30


def level_dims(image_h: int, image_w: int, level: int) -> tuple[int, int]:
    """Grid size of pyramid level l for an H x W image: ceil(H / 2^l) x ceil(W / 2^l),
    the grid of l stride-2, padding-1 stages. Each level is then at most twice
    the one above it, so every child cell has a parent, and every point of the
    image falls in some cell. Only levels in [0, MAX_LEVEL] of a positive image have one."""
    if image_h <= 0 or image_w <= 0:
        raise ConfigurationError(f"image dims must be positive, got {image_h}x{image_w}")
    if not 0 <= level <= MAX_LEVEL:
        raise ConfigurationError(f"level {level} lies outside [0, {MAX_LEVEL}]")
    return -(-image_h >> level), -(-image_w >> level)


def level_scale(level: int) -> float:
    """Minimum anchor scale s_l = ANCHOR_BASE * 2^l, in image pixels."""
    return ANCHOR_BASE * (1 << level)


def is_small_for_level(obj: GroundTruthObject, level: int) -> bool:
    return obj.max_side < level_scale(level)


def small_centers_on_grid(gt: GroundTruthSet, level: int) -> np.ndarray:
    """(N, 2) array of (gx, gy) grid cells: floor(center / 2^l) for each object
    small at this level. A center inside the image lands on the level's
    ceil-sized grid."""
    stride = 1 << level
    pts = [
        (np.floor(o.cx / stride), np.floor(o.cy / stride))
        for o in gt.objects
        if is_small_for_level(o, level)
    ]
    return np.asarray(pts, dtype=np.float64).reshape(-1, 2)


def distance_map(gt: GroundTruthSet, level: int) -> np.ndarray:
    """(H, W) float64 map over the level's grid of the ground truth's image:
    entry [y, x] is the Euclidean grid distance from (x, y) to the nearest
    small-object center, +inf when no object is small."""
    height, width = level_dims(gt.image_height, gt.image_width, level)
    centers = small_centers_on_grid(gt, level)
    if len(centers) == 0:
        return np.full((height, width), np.inf, dtype=np.float64)
    ys, xs = np.mgrid[0:height, 0:width]
    best = np.full((height, width), np.inf, dtype=np.float64)
    for gx, gy in centers:
        np.minimum(best, np.hypot(xs - gx, ys - gy), out=best)
    return best


def query_target_for_level(gt: GroundTruthSet, level: int) -> np.ndarray:
    """Binary float32 map over the level's grid, 1 where the grid distance to a
    small object's center is strictly under s_l / 2^l, which is ANCHOR_BASE at
    every level."""
    return (distance_map(gt, level) < ANCHOR_BASE).astype(np.float32)


@dataclass(frozen=True)
class TargetMaps:
    """Per-level ground-truth maps: the query map is always built here; the
    classification and box maps are fixture-supplied when a full loss is wanted."""

    level: int
    query: np.ndarray
    cls: np.ndarray | None = None
    reg: np.ndarray | None = None

    def __post_init__(self):
        q = np.asarray(self.query)
        if q.ndim != 2:
            raise ValidationError(f"query target must be 2-D, got shape {q.shape}")
        if not np.all((q == 0) | (q == 1)):
            raise ValidationError("query target must be binary")


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.gamma < 0:
            raise ConfigurationError(f"gamma must be >= 0, got {self.gamma}")


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def focal_loss(logits, targets, alpha: float = LossConfig.alpha,
               gamma: float = LossConfig.gamma) -> float:
    """Mean focal loss over all entries, computed in float64.

    log p and log(1-p) go through logaddexp so large-magnitude logits stay
    finite; targets are binary.
    """
    x, t = _as_f64(logits), _as_f64(targets)
    if x.shape != t.shape:
        raise ValidationError(f"logits {x.shape} and targets {t.shape} differ in shape")
    log_p = -np.logaddexp(0.0, -x)
    log_q = -np.logaddexp(0.0, x)  # log(1 - p)
    p, q = np.exp(log_p), np.exp(log_q)
    pos = t == 1
    per = np.where(pos, -alpha * np.power(q, gamma) * log_p,
                   -(1.0 - alpha) * np.power(p, gamma) * log_q)
    return float(per.mean())


def smooth_l1(pred, target) -> float:
    """Mean of 0.5 d^2 for |d| < 1 else |d| - 0.5."""
    p, t = _as_f64(pred), _as_f64(target)
    if p.shape != t.shape:
        raise ValidationError(f"pred {p.shape} and target {t.shape} differ in shape")
    d = np.abs(p - t)
    return float(np.where(d < 1.0, 0.5 * d * d, d - 0.5).mean())


def level_loss(cls_logits, reg_preds, query_logits, targets: TargetMaps,
               cfg: LossConfig) -> float:
    """FL(cls) + smooth-L1(reg) + FL(query) for one level."""
    if targets.cls is None or targets.reg is None:
        raise ConfigurationError(
            f"level {targets.level} target maps lack cls/reg; both are needed for a full loss"
        )
    return (
        focal_loss(cls_logits, targets.cls, cfg.alpha, cfg.gamma)
        + smooth_l1(reg_preds, targets.reg)
        + focal_loss(query_logits, targets.query, cfg.alpha, cfg.gamma)
    )


def total_loss(level_losses: dict[int, float], betas: dict[int, float]) -> float:
    """Weighted sum over levels; every level needs its weight."""
    missing = sorted(set(level_losses) - set(betas))
    if missing:
        raise ConfigurationError(f"no beta weight for levels {missing}")
    return float(sum(betas[l] * level_losses[l] for l in sorted(level_losses)))


def beta_schedule(levels, start: float = 1.0, stop: float = 3.0) -> dict[int, float]:
    """Linear per-level weights from start at the lowest level to stop at the
    highest. Interpolation runs in exact rational arithmetic with one final
    rounding, so decimal endpoints yield the exact decimal grid values."""
    ordered = sorted(levels)
    if not ordered:
        raise ConfigurationError("beta_schedule needs at least one level")
    if len(ordered) != len(set(ordered)):
        raise ConfigurationError("levels must be distinct")
    if len(ordered) == 1:
        return {ordered[0]: float(start)}
    s, e = Fraction(repr(float(start))), Fraction(repr(float(stop)))
    n = len(ordered) - 1
    return {l: float(s + (e - s) * i / n) for i, l in enumerate(ordered)}
