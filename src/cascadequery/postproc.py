"""Head outputs to final detections: anchors, box decoding, NMS over all levels.

Decoding takes every level's head output at once: each level picks out its
passing (row, channel) pairs, and anchors, deltas and scores are then decoded
in one pass into a `Candidates` batch, parallel arrays with one row per
candidate. NMS walks that batch in tiles of NMS_TILE rows and builds a
`Detection` only for each box it keeps. All geometry runs in float64 so that
two pipelines handing in bitwise-equal logits produce bitwise-equal detections.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError
from .model import HeadOutput, pred_widths
from .targets import level_scale
from .tensor import sigmoid_above, sigmoid_array


@dataclass(frozen=True)
class AnchorConfig:
    num_anchors: int = 1

    def __post_init__(self):
        if self.num_anchors < 1:
            raise ConfigurationError(f"need at least one anchor, got {self.num_anchors}")


def anchor_boxes(xs, ys, slots, level) -> np.ndarray:
    """(N, 4) float64 corners of square anchors centered on grid positions
    (x, y) of pyramid level l, one level for all rows or one per row: side
    s_l = level_scale(l) at slot 0, with further slots (when num_anchors > 1)
    scaled by 2^(i/3) as in standard FPN heads."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slots = np.asarray(slots, dtype=np.float64)
    level = np.asarray(level, dtype=np.int64)
    stride = (1 << level).astype(np.float64)
    cx = (xs + 0.5) * stride
    cy = (ys + 0.5) * stride
    side = level_scale(level) * np.exp2(slots / 3.0)
    half = side / 2.0
    return np.stack([cx - half, cy - half, cx + half, cy + half], axis=1)


# size deltas are clamped before exponentiation, the usual guard against
# untrained or wild regressions blowing boxes up to infinity / down to nothing
SCALE_CLAMP = float(np.log(1000.0 / 16.0))


def decode_boxes(deltas, anchors) -> np.ndarray:
    """Standard delta decode: centers shift by (dx*wa, dy*ha), sides scale by
    exp(dw), exp(dh) with |dw|, |dh| clamped to SCALE_CLAMP. Rejects non-finite
    deltas."""
    d = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    a = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    if d.shape != a.shape:
        raise ValidationError(f"deltas {d.shape} and anchors {a.shape} differ in shape")
    if not np.all(np.isfinite(d)):
        raise ValidationError("non-finite regression deltas")
    wa, ha = a[:, 2] - a[:, 0], a[:, 3] - a[:, 1]
    cxa, cya = (a[:, 0] + a[:, 2]) / 2.0, (a[:, 1] + a[:, 3]) / 2.0
    cx = cxa + d[:, 0] * wa
    cy = cya + d[:, 1] * ha
    w = wa * np.exp(np.clip(d[:, 2], -SCALE_CLAMP, SCALE_CLAMP))
    h = ha * np.exp(np.clip(d[:, 3], -SCALE_CLAMP, SCALE_CLAMP))
    return np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1)


def encode_boxes(boxes, anchors) -> np.ndarray:
    """Inverse of decode_boxes."""
    b = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    a = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    if b.shape != a.shape:
        raise ValidationError(f"boxes {b.shape} and anchors {a.shape} differ in shape")
    wa, ha = a[:, 2] - a[:, 0], a[:, 3] - a[:, 1]
    cxa, cya = (a[:, 0] + a[:, 2]) / 2.0, (a[:, 1] + a[:, 3]) / 2.0
    w, h = b[:, 2] - b[:, 0], b[:, 3] - b[:, 1]
    if np.any(w <= 0) or np.any(h <= 0):
        raise ValidationError("boxes must have positive extent")
    cx, cy = (b[:, 0] + b[:, 2]) / 2.0, (b[:, 1] + b[:, 3]) / 2.0
    return np.stack([(cx - cxa) / wa, (cy - cya) / ha,
                     np.log(w / wa), np.log(h / ha)], axis=1)


@dataclass(frozen=True)
class Detection:
    box: tuple[float, float, float, float]  # x1, y1, x2, y2 image pixels
    score: float
    class_id: int
    level: int

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        if not (x2 > x1 and y2 > y1):
            raise ValidationError(f"degenerate box {self.box}")

    def to_json(self) -> dict:
        return {"box": list(self.box), "score": self.score, "class": self.class_id,
                "level": self.level}

    def sort_key(self):
        return (-self.score, self.class_id, *self.box, self.level)


def box_iou(a, b) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


@dataclass(frozen=True, eq=False)
class Candidates:
    """Candidate detections as parallel arrays, one row per candidate: the
    form decode hands to NMS, so that `Detection`s are built only for the
    boxes NMS keeps.

    `boxes` is (N, 4) float64 (x1, y1, x2, y2 image pixels); `scores` is
    float64 and holds the float32 sigmoid values exactly; `classes` and
    `levels` are int. Every box is checked at once, with the same rule and
    error as `Detection`."""

    boxes: np.ndarray
    scores: np.ndarray
    classes: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        boxes = np.asarray(self.boxes, dtype=np.float64)
        scores = np.asarray(self.scores, dtype=np.float64)
        classes = np.asarray(self.classes, dtype=np.int64)
        levels = np.asarray(self.levels, dtype=np.int64)
        n = scores.size
        if boxes.shape != (n, 4) or any(a.shape != (n,) for a in (scores, classes, levels)):
            raise ValidationError(
                f"candidate fields disagree in length: boxes {boxes.shape}, scores "
                f"{scores.shape}, classes {classes.shape}, levels {levels.shape}")
        x1, y1, x2, y2 = boxes.T
        bad = np.flatnonzero(~((x2 > x1) & (y2 > y1)))
        if len(bad):
            raise ValidationError(f"degenerate box {tuple(boxes[bad[0]].tolist())}")
        for name, arr in (("boxes", boxes), ("scores", scores), ("classes", classes),
                          ("levels", levels)):
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.scores)

    @classmethod
    def of(cls, dets) -> Candidates:
        """The batch of a sequence of `Detection`s, in their order."""
        dets = list(dets)
        return cls(np.array([d.box for d in dets], dtype=np.float64).reshape(-1, 4),
                   [d.score for d in dets], [d.class_id for d in dets],
                   [d.level for d in dets])

    def order(self) -> np.ndarray:
        """Row indices in `Detection.sort_key` order: a stable argsort by
        descending score, then one lexsort of only the rows whose score ties
        another's, keyed (run of equal scores, class, box corners, level),
        last key primary. That is the permutation of one stable lexsort on
        all seven keys, at the cost of a sort on one."""
        rows = np.argsort(-self.scores, kind="stable")
        ranked = self.scores[rows]
        same = ranked[1:] == ranked[:-1]  # sorted row i + 1 ties row i
        tied = np.flatnonzero(np.concatenate([same, [False]]) | np.concatenate([[False], same]))
        if len(tied):
            run = np.cumsum(np.concatenate([[0], ~same]))[tied]
            sub = rows[tied]
            x1, y1, x2, y2 = self.boxes[sub].T
            rows[tied] = sub[np.lexsort((self.levels[sub], y2, x2, y1, x1, self.classes[sub],
                                         run))]
        return rows

    def detections(self, rows) -> list[Detection]:
        """The `Detection`s of `rows`, in order, built from one `.tolist()`
        per field."""
        rows = np.asarray(rows, dtype=np.intp)
        return [Detection(tuple(box), score, cls, level) for box, score, cls, level in
                zip(self.boxes[rows].tolist(), self.scores[rows].tolist(),
                    self.classes[rows].tolist(), self.levels[rows].tolist())]


# The post-processing defaults, stated once: `nms`, `detections_from_output`,
# `detections_from_result` and the command line's options read them.
SCORE_THRESHOLD = 0.05
IOU_THRESHOLD = 0.5
TOP_K = 100

# Rows per NMS tile: no IoU matrix is larger than NMS_TILE x NMS_TILE float64
# (32 KiB), whatever the candidate count or top_k.
NMS_TILE = 64


def _suppressed(x1, y1, x2, y2, areas, classes, kept, rows, iou_threshold):
    """(len(kept), len(rows)) bool: kept box k suppresses row r. box_iou's
    float64 formula with the kept box first, per class, with `inter > 0`."""
    k, r = kept[:, None], rows[None, :]
    ix = np.maximum(0.0, np.minimum(x2[k], x2[r]) - np.maximum(x1[k], x1[r]))
    iy = np.maximum(0.0, np.minimum(y2[k], y2[r]) - np.maximum(y1[k], y1[r]))
    inter = ix * iy
    iou = inter / (areas[k] + areas[r] - inter)
    return (classes[k] == classes[r]) & (inter > 0.0) & (iou > iou_threshold)


def nms(candidates: Candidates, iou_threshold: float = IOU_THRESHOLD,
        score_threshold: float = SCORE_THRESHOLD, top_k: int = TOP_K) -> list[Detection]:
    """Greedy per-class suppression by descending score; ties broken by
    (class, box corners, level) so the result is independent of input order.

    A candidate is kept unless a kept same-class box overlaps it with IoU
    (box_iou's float64 formula, kept box first) above the threshold; the walk
    stops once top_k boxes are kept. It runs over the sorted rows in tiles of
    NMS_TILE: the boxes kept so far clear a tile's rows, NMS_TILE kept boxes
    at a time, then one IoU matrix over the tile's survivors settles them in
    order. Only the kept rows become `Detection`s."""
    if not (0.0 <= iou_threshold <= 1.0 and 0.0 <= score_threshold <= 1.0):
        raise ConfigurationError("thresholds must lie in [0, 1]")
    if top_k < 0:
        raise ConfigurationError(f"top_k must be non-negative, got {top_k}")
    rows = candidates.order()
    rows = rows[candidates.scores[rows] > score_threshold]
    x1, y1, x2, y2 = candidates.boxes[rows].T
    geometry = (x1, y1, x2, y2, (x2 - x1) * (y2 - y1), candidates.classes[rows])
    kept = np.empty(0, dtype=np.intp)
    for start in range(0, len(rows), NMS_TILE):
        if len(kept) >= top_k:
            break
        tile = np.arange(start, min(start + NMS_TILE, len(rows)))
        for k in range(0, len(kept), NMS_TILE):
            if not len(tile):
                break
            hit = _suppressed(*geometry, kept[k:k + NMS_TILE], tile, iou_threshold)
            tile = tile[~hit.any(axis=0)]
        # bit j of masks[i] is set where survivor i suppresses survivor j
        hit = _suppressed(*geometry, tile, tile, iou_threshold)
        masks = (hit.astype(np.uint64) << np.arange(len(tile), dtype=np.uint64)).sum(axis=1)
        cleared, settled = 0, []
        for i, mask in enumerate(masks.tolist()):
            if not cleared >> i & 1:
                settled.append(i)
                if len(kept) + len(settled) == top_k:
                    break
                cleared |= mask
        kept = np.concatenate([kept, tile[settled]])
    return candidates.detections(rows[kept])


def detections_from_output(outputs: Sequence[HeadOutput], cfg: AnchorConfig,
                           num_classes: int,
                           score_threshold: float = SCORE_THRESHOLD) -> Candidates:
    """Score-filtered candidate detections from the levels' head outputs, in
    one batch: a class logit passes where `sigmoid_above` puts its sigmoid
    above score_threshold. Each level hands over only its passing (row,
    channel) pairs; anchors, box decoding and sigmoids then run once over all
    of them, level by level in the batch's row order.

    Channel layout: class logit for anchor slot a, class k sits at a*K + k;
    box deltas for slot a at a*4 .. a*4+3. A head whose class or box width
    is not `pred_widths(cfg.num_anchors, num_classes)`'s raises
    ConfigurationError. A decoded box without extent in float64 (a centre
    shift so large that the anchor's side no longer shows) is dropped.
    """
    cls_width, reg_width, _ = pred_widths(cfg.num_anchors, num_classes)
    picked = []
    for output in outputs:
        got = output.cls_logits.channels, output.reg_deltas.channels
        if got != (cls_width, reg_width):
            raise ConfigurationError(
                f"head emits {got[0]} class and {got[1]} box channels; {cfg.num_anchors} "
                f"anchors and {num_classes} classes need {cls_width} and {reg_width}")
        logits = output.cls_logits.features             # (N, A*K)
        rows, chans = np.nonzero(sigmoid_above(logits, score_threshold))
        box_chans = (chans // num_classes * 4)[:, None] + np.arange(4)
        picked.append((output.keys.xs[rows], output.keys.ys[rows], chans,
                       np.full(len(rows), output.keys.level), logits[rows, chans],
                       output.reg_deltas.features[rows[:, None], box_chans]))
    if not picked:
        return Candidates.of([])
    xs, ys, chans, levels, logits, deltas = (np.concatenate(f) for f in zip(*picked))
    slots, classes = chans // num_classes, chans % num_classes
    boxes = decode_boxes(deltas, anchor_boxes(xs, ys, slots, levels))
    ok = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    return Candidates(boxes[ok], sigmoid_array(logits[ok]), classes[ok], levels[ok])


def detections_from_result(result, cfg: AnchorConfig, num_classes: int,
                           iou_threshold: float = IOU_THRESHOLD,
                           score_threshold: float = SCORE_THRESHOLD,
                           top_k: int = TOP_K) -> list[Detection]:
    """Final detections for a whole pipeline run: every level's candidates in
    one batch, then one global NMS."""
    candidates = detections_from_output([rec.output for rec in result.records], cfg,
                                        num_classes, score_threshold)
    return nms(candidates, iou_threshold, score_threshold, top_k)


def detections_to_json(dets: list[Detection]) -> list[dict]:
    return [d.to_json() for d in dets]
