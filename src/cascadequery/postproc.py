"""Head outputs to final detections: anchors, box decoding, NMS over all levels.

All geometry runs in float64 so that two pipelines handing in bitwise-equal
logits produce bitwise-equal detections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import HeadOutput
from .tensor import sigmoid_array


@dataclass(frozen=True)
class AnchorConfig:
    """Square anchors centered on grid cells: side base * 2^l, with additional
    slots (when num_anchors > 1) scaled by 2^(i/3) as in standard FPN heads."""

    base: float = 4.0
    num_anchors: int = 1

    def __post_init__(self):
        if self.base <= 0:
            raise ValidationError(f"anchor base must be positive, got {self.base}")
        if self.num_anchors < 1:
            raise ValidationError(f"need at least one anchor, got {self.num_anchors}")


def anchor_boxes(xs, ys, slots, level: int, cfg: AnchorConfig) -> np.ndarray:
    """(N, 4) float64 anchor corners for grid positions (x, y) and anchor slots."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    slots = np.asarray(slots, dtype=np.float64)
    stride = float(1 << level)
    cx = (xs + 0.5) * stride
    cy = (ys + 0.5) * stride
    side = cfg.base * stride * np.exp2(slots / 3.0)
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


def nms(dets: list[Detection], iou_threshold: float = 0.5,
        score_threshold: float = 0.05, top_k: int = 100) -> list[Detection]:
    """Greedy per-class suppression by descending score; ties broken by
    (class, box corners, level) so the result is independent of input order.

    Each surviving candidate is kept and then clears every later same-class
    candidate whose IoU with it (box_iou's float64 formula, kept box first)
    exceeds the threshold. IoU is symmetric and only kept boxes suppress, so
    this keeps exactly what checking each candidate against all kept boxes
    keeps; the walk stops once top_k boxes are kept."""
    if not (0.0 <= iou_threshold <= 1.0 and 0.0 <= score_threshold <= 1.0):
        raise ValidationError("thresholds must lie in [0, 1]")
    if top_k < 0:
        raise ValidationError(f"top_k must be non-negative, got {top_k}")
    ordered = sorted((d for d in dets if d.score > score_threshold),
                     key=Detection.sort_key)
    if not ordered or top_k == 0:
        return []
    x1, y1, x2, y2 = np.array([d.box for d in ordered], dtype=np.float64).T
    classes = np.array([d.class_id for d in ordered])
    areas = (x2 - x1) * (y2 - y1)
    alive = np.ones(len(ordered), dtype=bool)
    kept: list[Detection] = []
    for i, d in enumerate(ordered):
        if not alive[i]:
            continue
        kept.append(d)
        if len(kept) == top_k:
            break
        rest = slice(i + 1, None)
        ix = np.maximum(0.0, np.minimum(x2[i], x2[rest]) - np.maximum(x1[i], x1[rest]))
        iy = np.maximum(0.0, np.minimum(y2[i], y2[rest]) - np.maximum(y1[i], y1[rest]))
        inter = ix * iy
        iou = inter / (areas[i] + areas[rest] - inter)
        alive[rest] &= ~((classes[rest] == classes[i]) & (inter > 0.0) & (iou > iou_threshold))
    return kept


def detections_from_output(output: HeadOutput, level: int, cfg: AnchorConfig,
                           num_classes: int, score_threshold: float = 0.05) -> list[Detection]:
    """Score-filtered candidate detections from one level's head output.

    Channel layout: class logit for anchor slot a, class k sits at a*K + k;
    box deltas for slot a at a*4 .. a*4+3.
    """
    scores = sigmoid_array(output.cls_logits.features)  # (N, A*K)
    rows, chans = np.nonzero(scores > score_threshold)
    if len(rows) == 0:
        return []
    pos = output.keys.positions                         # (N, 2) as (x, y)
    xs, ys = pos[rows, 0], pos[rows, 1]
    slots, classes = chans // num_classes, chans % num_classes
    picked_scores = scores[rows, chans]
    reg = output.reg_deltas.features
    deltas = np.stack([reg[rows, slots * 4 + i] for i in range(4)], axis=1)
    anchors = anchor_boxes(xs, ys, slots, level, cfg)
    boxes = decode_boxes(deltas, anchors)
    return [
        Detection(box=(float(b[0]), float(b[1]), float(b[2]), float(b[3])),
                  score=float(s), class_id=int(k), level=level)
        for b, s, k in zip(boxes, picked_scores, classes)
    ]


def detections_from_result(result, cfg: AnchorConfig, num_classes: int,
                           iou_threshold: float = 0.5, score_threshold: float = 0.05,
                           top_k: int = 100) -> list[Detection]:
    """Final detections for a whole pipeline run: every level's candidates,
    then one global NMS."""
    candidates = []
    for rec in result.records:
        candidates.extend(detections_from_output(rec.output, rec.level, cfg, num_classes,
                                                 score_threshold))
    return nms(candidates, iou_threshold, score_threshold, top_k)


def detections_to_json(dets: list[Detection]) -> list[dict]:
    return [d.to_json() for d in dets]
