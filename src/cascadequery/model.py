"""Detection head (classification / regression / query branches), pyramid fixtures,
and the QDPYR1 / QDWTS1 container formats.

One HeadWeights object serves every pyramid level; there are no per-level
parameters anywhere. Each branch is a tower of four 3x3 convs with ReLU after
each, followed by a 3x3 prediction conv with no activation.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FormatError, ValidationError
from .sparse import KeySet, Rulebook, SparseFeature, build_rulebook, sparse_conv, sparse_relu
from .tensor import ConvWeights, DenseTensor, conv2d, relu

PYRAMID_MAGIC = b"QDPYR1\n\0"
WEIGHTS_MAGIC = b"QDWTS1\n\0"

TOWER_DEPTH = 4
# Side of the square input window one head output depends on: the tower's
# convs and the predictor are all at most 3x3, each widening it by one cell
# per side. cq dilates each key's set by this window's radius.
RECEPTIVE_FIELD = 2 * (TOWER_DEPTH + 1) + 1
PRIOR_PROB = 0.01  # untrained classification/query scores start near this


def level_dims(image_h: int, image_w: int, level: int) -> tuple[int, int]:
    """Grid size of pyramid level l for an H x W image: floor(H / 2^l) x floor(W / 2^l)."""
    return image_h // (1 << level), image_w // (1 << level)


@dataclass(frozen=True)
class FeaturePyramid:
    image_height: int
    image_width: int
    levels: dict[int, DenseTensor]

    def __post_init__(self):
        if not self.levels:
            raise ConfigurationError("pyramid has no levels")
        chans = {t.channels for t in self.levels.values()}
        if len(chans) != 1:
            raise ConfigurationError(f"levels disagree on channel count: {sorted(chans)}")
        for l, t in self.levels.items():
            h, w = level_dims(self.image_height, self.image_width, l)
            if (t.height, t.width) != (h, w):
                raise ConfigurationError(
                    f"level {l} is {t.height}x{t.width}, expected {h}x{w} "
                    f"for a {self.image_height}x{self.image_width} image"
                )

    @property
    def channels(self) -> int:
        return next(iter(self.levels.values())).channels

    @property
    def min_level(self) -> int:
        return min(self.levels)

    @property
    def max_level(self) -> int:
        return max(self.levels)


@dataclass(frozen=True)
class HeadWeights:
    """Shared-across-levels conv towers and predictors."""

    cls_tower: list[ConvWeights]
    reg_tower: list[ConvWeights]
    query_tower: list[ConvWeights]
    cls_pred: ConvWeights
    reg_pred: ConvWeights
    query_pred: ConvWeights
    num_anchors: int
    num_classes: int

    def __post_init__(self):
        c = self.channels
        for name, tower in (("cls", self.cls_tower), ("reg", self.reg_tower),
                            ("query", self.query_tower)):
            if len(tower) != TOWER_DEPTH:
                raise ConfigurationError(f"{name} tower must have {TOWER_DEPTH} convs")
            for conv in tower:
                if conv.in_channels != c or conv.out_channels != c:
                    raise ConfigurationError(f"{name} tower convs must map {c}->{c}")
        a, k = self.num_anchors, self.num_classes
        checks = (
            ("cls_pred", self.cls_pred, a * k),
            ("reg_pred", self.reg_pred, a * 4),
            ("query_pred", self.query_pred, 1),
        )
        for name, conv, out in checks:
            if conv.in_channels != c:
                raise ConfigurationError(f"{name} must take {c} input channels")
            if conv.out_channels != out:
                raise ConfigurationError(f"{name} must emit {out} channels, has {conv.out_channels}")

    @property
    def channels(self) -> int:
        return self.cls_tower[0].in_channels


@dataclass(frozen=True)
class HeadOutput:
    """Per-level head outputs; the three maps are all dense or all sparse over
    one shared KeySet."""

    cls_logits: DenseTensor | SparseFeature
    reg_deltas: DenseTensor | SparseFeature
    query_logits: DenseTensor | SparseFeature

    def __post_init__(self):
        kinds = {type(x) for x in (self.cls_logits, self.reg_deltas, self.query_logits)}
        if len(kinds) != 1:
            raise ValidationError("head output branches must all be dense or all sparse")
        if self.is_sparse:
            k = self.cls_logits.keys
            if self.reg_deltas.keys is not k or self.query_logits.keys is not k:
                raise ValidationError("sparse head outputs must share one key set")

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.cls_logits, SparseFeature)

    @property
    def keys(self) -> KeySet | None:
        return self.cls_logits.keys if self.is_sparse else None


def _dense_branch(feature: DenseTensor, tower: list[ConvWeights], pred: ConvWeights) -> DenseTensor:
    x = feature
    for conv in tower:
        x = relu(conv2d(x, conv))
    return conv2d(x, pred)


def run_dense_head(feature: DenseTensor, w: HeadWeights) -> HeadOutput:
    """Full-map head pass; spatial size is preserved, logits carry no activation."""
    if feature.channels != w.channels:
        raise ConfigurationError(
            f"feature has {feature.channels} channels, head expects {w.channels}"
        )
    return HeadOutput(
        cls_logits=_dense_branch(feature, w.cls_tower, w.cls_pred),
        reg_deltas=_dense_branch(feature, w.reg_tower, w.reg_pred),
        query_logits=_dense_branch(feature, w.query_tower, w.query_pred),
    )


def _sparse_branch(vf: SparseFeature, tower: list[ConvWeights], pred: ConvWeights,
                   rb: Rulebook) -> SparseFeature:
    x = vf
    for conv in tower:
        x = sparse_relu(sparse_conv(x, conv, rb))
    return sparse_conv(x, pred, rb)


def run_sparse_head(value_features: SparseFeature, w: HeadWeights,
                    rulebook: Rulebook | None = None) -> HeadOutput:
    """Head pass over gathered value features. One rulebook is built from the key
    set and reused by every layer; submanifold semantics keep the active set fixed."""
    if value_features.channels != w.channels:
        raise ConfigurationError(
            f"value features have {value_features.channels} channels, head expects {w.channels}"
        )
    rb = rulebook if rulebook is not None else build_rulebook(value_features.keys)
    return HeadOutput(
        cls_logits=_sparse_branch(value_features, w.cls_tower, w.cls_pred, rb),
        reg_deltas=_sparse_branch(value_features, w.reg_tower, w.reg_pred, rb),
        query_logits=_sparse_branch(value_features, w.query_tower, w.query_pred, rb),
    )


@dataclass(frozen=True)
class Blob:
    """A planted high-activation patch standing in for a small object."""

    cx: float
    cy: float
    width: float
    height: float
    class_id: int = 0
    amplitude: float = 8.0


def make_synthetic_pyramid(seed: int, image_h: int, image_w: int, l_min: int, l_max: int,
                           channels: int, blobs: list[Blob] | None = None) -> FeaturePyramid:
    """Seeded stand-in for a backbone+FPN: low-amplitude noise background with
    localized bumps at each blob's projected center on every level."""
    if image_h <= 0 or image_w <= 0:
        raise ConfigurationError("image dims must be positive")
    if not (2 <= l_min <= l_max <= 7):
        raise ConfigurationError(f"level range [{l_min}, {l_max}] must sit inside [2, 7]")
    rng = np.random.default_rng(seed)
    blobs = blobs or []
    levels: dict[int, DenseTensor] = {}
    for l in range(l_min, l_max + 1):
        h, w = level_dims(image_h, image_w, l)
        if h <= 0 or w <= 0:
            raise ConfigurationError(f"image {image_h}x{image_w} vanishes at level {l}")
        values = rng.standard_normal((channels, h, w), dtype=np.float32) * np.float32(0.1)
        stride = 1 << l
        for b in blobs:
            gx, gy = int(b.cx) // stride, int(b.cy) // stride
            if not (0 <= gx < w and 0 <= gy < h):
                continue
            size_grid = max(b.width, b.height) / stride
            sig = max(0.75, size_grid / 2.0)
            reach = int(math.ceil(2.0 * sig))
            y0, y1 = max(0, gy - reach), min(h - 1, gy + reach)
            x0, x1 = max(0, gx - reach), min(w - 1, gx + reach)
            yy, xx = np.mgrid[y0:y1 + 1, x0:x1 + 1]
            bump = b.amplitude * np.exp(-((xx - gx) ** 2 + (yy - gy) ** 2) / (2.0 * sig * sig))
            values[:, y0:y1 + 1, x0:x1 + 1] += bump.astype(np.float32)
        levels[l] = DenseTensor(values)
    return FeaturePyramid(image_h, image_w, levels)


def _seeded_conv(rng: np.random.Generator, out_c: int, in_c: int, gain: float = 1.0,
                 bias_value: float = 0.0) -> ConvWeights:
    fan_in = in_c * 9
    w = rng.standard_normal((out_c, in_c, 3, 3), dtype=np.float32) \
        * np.float32(gain / math.sqrt(fan_in))
    b = np.full(out_c, bias_value, dtype=np.float32)
    return ConvWeights(w, b)


def make_fixture_weights(seed: int, channels: int, num_anchors: int, num_classes: int) -> HeadWeights:
    """Deterministic head weights. Tower convs use sqrt(2/fan_in)-scaled normals
    (magnitude-preserving under relu, so planted signals survive to the
    predictors); predictors use 1/sqrt(fan_in) with zero box bias, and the
    classification/query biases start untrained sigmoid scores near PRIOR_PROB."""
    if min(channels, num_anchors, num_classes) <= 0:
        raise ConfigurationError("channels, anchors and classes must be positive")
    rng = np.random.default_rng(seed)
    relu_gain = math.sqrt(2.0)
    prior_bias = -math.log((1.0 - PRIOR_PROB) / PRIOR_PROB)
    cls_tower = [_seeded_conv(rng, channels, channels, relu_gain) for _ in range(TOWER_DEPTH)]
    reg_tower = [_seeded_conv(rng, channels, channels, relu_gain) for _ in range(TOWER_DEPTH)]
    query_tower = [_seeded_conv(rng, channels, channels, relu_gain) for _ in range(TOWER_DEPTH)]
    cls_pred = _seeded_conv(rng, num_anchors * num_classes, channels, bias_value=prior_bias)
    reg_pred = _seeded_conv(rng, num_anchors * 4, channels)
    query_pred = _seeded_conv(rng, 1, channels, bias_value=prior_bias)
    return HeadWeights(cls_tower, reg_tower, query_tower, cls_pred, reg_pred, query_pred,
                       num_anchors, num_classes)


# --- containers -------------------------------------------------------------

def _write_block(f, magic: bytes, manifest: dict, payloads: list[np.ndarray]) -> None:
    header = json.dumps(manifest).encode("utf-8")
    f.write(magic)
    f.write(struct.pack("<I", len(header)))
    f.write(header)
    for arr in payloads:
        f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, path, magic: bytes):
        self.path = path
        with open(path, "rb") as f:
            self.data = f.read()
        if self.data[:8] != magic:
            raise FormatError(f"{path}: bad magic, expected {magic!r}")
        if len(self.data) < 12:
            raise FormatError(f"{path}: truncated header")
        (hlen,) = struct.unpack("<I", self.data[8:12])
        if len(self.data) < 12 + hlen:
            raise FormatError(f"{path}: truncated JSON manifest")
        try:
            self.manifest = json.loads(self.data[12:12 + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: unreadable manifest: {e}") from e
        self.offset = 12 + hlen

    def take(self, count: int, what: str) -> np.ndarray:
        nbytes = count * 4
        if self.offset + nbytes > len(self.data):
            raise FormatError(f"{self.path}: payload truncated while reading {what}")
        arr = np.frombuffer(self.data, dtype="<f4", count=count, offset=self.offset)
        self.offset += nbytes
        return arr.copy()

    def finish(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.offset} trailing bytes")


def save_pyramid(pyr: FeaturePyramid, path) -> None:
    manifest = {
        "image": [pyr.image_height, pyr.image_width],
        "channels": pyr.channels,
        "levels": [
            {"l": l, "shape": list(pyr.levels[l].values.shape)}
            for l in sorted(pyr.levels)
        ],
    }
    with open(path, "wb") as f:
        _write_block(f, PYRAMID_MAGIC, manifest,
                     [pyr.levels[l].values for l in sorted(pyr.levels)])


def load_pyramid(path) -> FeaturePyramid:
    r = _Reader(path, PYRAMID_MAGIC)
    m = r.manifest
    try:
        image_h, image_w = m["image"]
        channels = m["channels"]
        level_entries = m["levels"]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: malformed pyramid manifest: {e}") from e
    levels: dict[int, DenseTensor] = {}
    for entry in level_entries:
        l, shape = entry["l"], entry["shape"]
        if len(shape) != 3 or shape[0] != channels:
            raise FormatError(f"{path}: level {l} shape {shape} conflicts with manifest")
        c, h, w = shape
        flat = r.take(c * h * w, f"level {l}")
        levels[l] = DenseTensor(flat.reshape(c, h, w))
    r.finish()
    try:
        return FeaturePyramid(image_h, image_w, levels)
    except ConfigurationError as e:
        raise FormatError(f"{path}: {e}") from e


_CONV_ROLES = (
    [f"cls_tower.{i}" for i in range(TOWER_DEPTH)]
    + [f"reg_tower.{i}" for i in range(TOWER_DEPTH)]
    + [f"query_tower.{i}" for i in range(TOWER_DEPTH)]
    + ["cls_pred", "reg_pred", "query_pred"]
)


def _iter_convs(w: HeadWeights) -> list[tuple[str, ConvWeights]]:
    convs = list(w.cls_tower) + list(w.reg_tower) + list(w.query_tower)
    convs += [w.cls_pred, w.reg_pred, w.query_pred]
    return list(zip(_CONV_ROLES, convs))


def save_weights(w: HeadWeights, path) -> None:
    entries = []
    payloads = []
    for role, conv in _iter_convs(w):
        entries.append({"role": role, "out": conv.out_channels, "in": conv.in_channels,
                        "k": conv.kernel})
        payloads.append(conv.weights)
        payloads.append(conv.bias)
    manifest = {
        "channels": w.channels,
        "num_anchors": w.num_anchors,
        "num_classes": w.num_classes,
        "convs": entries,
    }
    with open(path, "wb") as f:
        _write_block(f, WEIGHTS_MAGIC, manifest, payloads)


def load_weights(path) -> HeadWeights:
    r = _Reader(path, WEIGHTS_MAGIC)
    m = r.manifest
    try:
        channels, a, k = m["channels"], m["num_anchors"], m["num_classes"]
        entries = m["convs"]
    except (KeyError, TypeError) as e:
        raise FormatError(f"{path}: malformed weights manifest: {e}") from e
    roles = [e.get("role") for e in entries]
    if roles != _CONV_ROLES:
        raise FormatError(f"{path}: manifest conv roles {roles} != expected {_CONV_ROLES}")
    convs: dict[str, ConvWeights] = {}
    for entry in entries:
        role, out_c, in_c, kk = entry["role"], entry["out"], entry["in"], entry["k"]
        wt = r.take(out_c * in_c * kk * kk, f"{role} weights").reshape(out_c, in_c, kk, kk)
        bias = r.take(out_c, f"{role} bias")
        try:
            convs[role] = ConvWeights(wt, bias)
        except ValidationError as e:
            raise FormatError(f"{path}: {role}: {e}") from e
    r.finish()
    try:
        return HeadWeights(
            cls_tower=[convs[f"cls_tower.{i}"] for i in range(TOWER_DEPTH)],
            reg_tower=[convs[f"reg_tower.{i}"] for i in range(TOWER_DEPTH)],
            query_tower=[convs[f"query_tower.{i}"] for i in range(TOWER_DEPTH)],
            cls_pred=convs["cls_pred"],
            reg_pred=convs["reg_pred"],
            query_pred=convs["query_pred"],
            num_anchors=a,
            num_classes=k,
        )
    except ConfigurationError as e:
        raise FormatError(f"{path}: {e}") from e
