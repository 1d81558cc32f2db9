"""Head outputs to final detections: anchors, box decoding, NMS over all levels.

Decoding yields a `Candidates` batch, parallel arrays with one row per
candidate; the levels' batches are concatenated and NMS builds a `Detection`
only for each box it keeps. All geometry runs in float64 so that two pipelines
handing in bitwise-equal logits produce bitwise-equal detections.
"""

from __future__ import annotations

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


def anchor_boxes(xs, ys, slots, level: int) -> np.ndarray:
    """(N, 4) float64 corners of square anchors centered on grid positions
    (x, y): side s_l = level_scale(l) at slot 0, with further slots (when
    num_anchors > 1) scaled by 2^(i/3) as in standard FPN heads."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slots = np.asarray(slots, dtype=np.float64)
    stride = float(1 << level)
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

    @classmethod
    def concat(cls, parts) -> Candidates:
        """One batch holding the rows of `parts` in order."""
        parts = list(parts)
        if not parts:
            return cls.of([])
        return cls(*(np.concatenate([getattr(p, f) for p in parts])
                     for f in ("boxes", "scores", "classes", "levels")))

    def order(self) -> np.ndarray:
        """Row indices in `Detection.sort_key` order: one stable lexsort,
        whose last key is the primary one."""
        x1, y1, x2, y2 = self.boxes.T
        return np.lexsort((self.levels, y2, x2, y1, x1, self.classes, -self.scores))

    def detection(self, row: int) -> Detection:
        """The `Detection` of one row."""
        x1, y1, x2, y2 = self.boxes[row].tolist()
        return Detection(box=(x1, y1, x2, y2), score=float(self.scores[row]),
                         class_id=int(self.classes[row]), level=int(self.levels[row]))


def nms(candidates: Candidates, iou_threshold: float = 0.5,
        score_threshold: float = 0.05, top_k: int = 100) -> list[Detection]:
    """Greedy per-class suppression by descending score; ties broken by
    (class, box corners, level) so the result is independent of input order.

    Each surviving candidate is kept and then clears every later same-class
    candidate whose IoU with it (box_iou's float64 formula, kept box first)
    exceeds the threshold. IoU is symmetric and only kept boxes suppress, so
    this keeps exactly what checking each candidate against all kept boxes
    keeps; the walk stops once top_k boxes are kept. Only the kept rows become
    `Detection`s."""
    if not (0.0 <= iou_threshold <= 1.0 and 0.0 <= score_threshold <= 1.0):
        raise ConfigurationError("thresholds must lie in [0, 1]")
    if top_k < 0:
        raise ConfigurationError(f"top_k must be non-negative, got {top_k}")
    rows = candidates.order()
    rows = rows[candidates.scores[rows] > score_threshold]
    if not len(rows) or top_k == 0:
        return []
    x1, y1, x2, y2 = candidates.boxes[rows].T
    classes = candidates.classes[rows]
    areas = (x2 - x1) * (y2 - y1)
    alive = np.ones(len(rows), dtype=bool)
    kept: list[int] = []
    for i in range(len(rows)):
        if not alive[i]:
            continue
        kept.append(i)
        if len(kept) == top_k:
            break
        rest = slice(i + 1, None)
        ix = np.maximum(0.0, np.minimum(x2[i], x2[rest]) - np.maximum(x1[i], x1[rest]))
        iy = np.maximum(0.0, np.minimum(y2[i], y2[rest]) - np.maximum(y1[i], y1[rest]))
        inter = ix * iy
        iou = inter / (areas[i] + areas[rest] - inter)
        alive[rest] &= ~((classes[rest] == classes[i]) & (inter > 0.0) & (iou > iou_threshold))
    return [candidates.detection(r) for r in rows[kept].tolist()]


def detections_from_output(output: HeadOutput, cfg: AnchorConfig, num_classes: int,
                           score_threshold: float = 0.05) -> Candidates:
    """Score-filtered candidate detections from one level's head output, on
    the level of its keys: a class logit passes where `sigmoid_above` puts its
    sigmoid above score_threshold, and only the passing logits are turned
    into scores.

    Channel layout: class logit for anchor slot a, class k sits at a*K + k;
    box deltas for slot a at a*4 .. a*4+3. A head whose class or box width
    is not `pred_widths(cfg.num_anchors, num_classes)`'s raises
    ConfigurationError. A decoded box without extent in float64 (a centre
    shift so large that the anchor's side no longer shows) is dropped.
    """
    cls_width, reg_width, _ = pred_widths(cfg.num_anchors, num_classes)
    got = output.cls_logits.channels, output.reg_deltas.channels
    if got != (cls_width, reg_width):
        raise ConfigurationError(
            f"head emits {got[0]} class and {got[1]} box channels; {cfg.num_anchors} "
            f"anchors and {num_classes} classes need {cls_width} and {reg_width}")
    logits = output.cls_logits.features                 # (N, A*K)
    rows, chans = np.nonzero(sigmoid_above(logits, score_threshold))
    xs, ys = output.keys.xs[rows], output.keys.ys[rows]
    slots, classes = chans // num_classes, chans % num_classes
    reg = output.reg_deltas.features
    deltas = np.stack([reg[rows, slots * 4 + i] for i in range(4)], axis=1)
    level = output.keys.level
    boxes = decode_boxes(deltas, anchor_boxes(xs, ys, slots, level))
    ok = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    return Candidates(boxes[ok], sigmoid_array(logits[rows, chans][ok]), classes[ok],
                      np.full(np.count_nonzero(ok), level))


def detections_from_result(result, cfg: AnchorConfig, num_classes: int,
                           iou_threshold: float = 0.5, score_threshold: float = 0.05,
                           top_k: int = 100) -> list[Detection]:
    """Final detections for a whole pipeline run: every level's candidates in
    one batch, then one global NMS."""
    candidates = Candidates.concat(
        detections_from_output(rec.output, cfg, num_classes, score_threshold)
        for rec in result.records)
    return nms(candidates, iou_threshold, score_threshold, top_k)


def detections_to_json(dets: list[Detection]) -> list[dict]:
    return [d.to_json() for d in dets]
