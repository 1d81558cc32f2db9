"""Detection head (classification / regression / query branches), pyramid fixtures,
and the QDPYR1 / QDWTS1 container formats.

A pyramid level is (H * W, C) rows over its full key set, viewing the
channel-major map that QDPYR1 stores: the dense head pass convolves them all,
and the sparse pass gathers them at a key set.

One HeadWeights object serves every pyramid level; there are no per-level
parameters anywhere. Each branch is a tower of four 3x3 convs with ReLU after
each, followed by a 3x3 prediction conv with no activation. The layout is
stated once: BRANCHES names the branches in the order of HeadWeights' fields,
HeadOutput's fields and the weights manifest, and pred_widths gives their
predictors' widths. The weight checks, both head passes, the fixture weights,
the manifest and the cost model iterate over BRANCHES, or over its
(tower, predictor) pairs, `HeadWeights.branches`.

The head's cost is stated here too, in multiply-accumulates (bias adds are
not counted), by one rule: a conv pays C_in * C_out per (output, tap) pair it
computes. `head_flops_sparse` charges each conv its own rulebook's entries;
`head_flops_dense` is the same rule with every cell paying all 9 taps.

Both head passes, and the cost rule, take one flag, `query`: all of BRANCHES
run, or SUBNETS alone, the cls and reg prefix (RetinaNet's two subnets). The
query branch exists only to pick the children one level down, so the cascade
runs it only where it reads query scores; elsewhere `HeadOutput.query_logits`
is None, and the cost rule charges the branches that ran.

The towers' first convs read the same input rows, so both head passes run
them as one conv: `HeadWeights.stem` (C -> 3C) for every branch, or
`HeadWeights.subnet_stem` for the subnets alone, the stem's cls/reg part (a
view of its first 2C output channels). That is one gather, then a ReLU, and
each branch takes its C-column slice into `tower[1:]` and its predictor. The
3C stem multiplies its cls and reg columns as the 2C stem does, in one GEMM
of their own, so the cls and reg rows do not depend on whether the query
branch ran.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, FormatError, ValidationError
from .sparse import (KeySet, Rulebook, SparseFeature, build_rulebook, conv2d, relu,
                     sparse_conv, sparse_relu)
from .targets import MAX_LEVEL, GroundTruthObject, level_dims
from .tensor import ConvWeights, ContainerReader, manifest_int, write_container

PYRAMID_MAGIC = b"QDPYR1\n\0"
WEIGHTS_MAGIC = b"QDWTS1\n\0"

TOWER_DEPTH = 4
# Side of the square input window one head output depends on: the tower's
# convs and the predictor are all 3x3, each widening it by one cell per side.
# cq gathers its keys dilated by this window's radius, and each conv narrows
# the set it writes by one cell until the predictors write at the keys.
RECEPTIVE_FIELD = 2 * (TOWER_DEPTH + 1) + 1
PRIOR_PROB = 0.01  # untrained classification/query scores start near this
BRANCHES = ("cls", "reg", "query")
SUBNETS = BRANCHES[:2]  # the branches a head pass runs where no query score is read


def pred_widths(num_anchors: int, num_classes: int) -> tuple[int, int, int]:
    """Output channels of each branch's predictor, in BRANCHES order: a class
    logit per anchor and class, four box deltas per anchor, one query logit."""
    return num_anchors * num_classes, num_anchors * 4, 1


def head_flops_sparse(rulebook_entries, channels: int, num_anchors: int,
                      num_classes: int, *, query: bool = True) -> int:
    """The head's MAC rule: every conv (towers and predictors alike) pays
    C_in * C_out work per entry of its rulebook. `rulebook_entries` holds one
    count per conv of a branch (the TOWER_DEPTH tower convs, then the
    predictor); every branch shares that schedule of rulebooks, and BRANCHES
    run, or SUBNETS without `query`. Isolated keys fire only their center
    offset, giving the 1/9-per-key floor. Bias adds are not MACs, so the key
    count does not enter."""
    if len(rulebook_entries) != TOWER_DEPTH + 1:
        raise ConfigurationError(f"{len(rulebook_entries)} per-conv entry counts, the head "
                                 f"has {TOWER_DEPTH + 1} convs")
    branches = len(BRANCHES if query else SUBNETS)
    *tower, last = rulebook_entries
    return channels * (branches * channels * sum(tower)
                       + sum(pred_widths(num_anchors, num_classes)[:branches]) * last)


def head_flops_dense(height: int, width: int, channels: int, num_anchors: int,
                     num_classes: int, *, query: bool = True) -> int:
    """Full-map head cost: the rule with every cell of the H x W grid paying
    all 9 taps of every conv, zero-padding taps included (the usual
    conv-FLOPs convention)."""
    return head_flops_sparse([9 * height * width] * (TOWER_DEPTH + 1), channels,
                             num_anchors, num_classes, query=query)


@dataclass(frozen=True)
class FeaturePyramid:
    """One image's features at a consecutive run of levels, each rows over its
    `level_dims` grid's `KeySet.full`."""

    image_height: int
    image_width: int
    levels: dict[int, SparseFeature]

    def __post_init__(self):
        if not self.levels:
            raise ConfigurationError("pyramid has no levels")
        for l in self.levels:
            if not manifest_int(l, 0):
                raise ConfigurationError(f"level {l!r} lies outside [0, {MAX_LEVEL}] "
                                         f"or is not an int")
        if max(self.levels) - min(self.levels) != len(self.levels) - 1:
            raise ConfigurationError(f"pyramid levels {sorted(self.levels)} are not consecutive")
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
            if t.keys.level != l or len(t.keys) != h * w:
                raise ConfigurationError(f"level {l} rows are not at its full grid's keys")

    @classmethod
    def from_maps(cls, image_height: int, image_width: int,
                  maps: dict[int, np.ndarray]) -> "FeaturePyramid":
        """Levels from (C, H, W) channel-major maps, the QDPYR1 order: each
        level's rows are its map viewed as (H * W, C), without a copy."""
        levels = {}
        for l, m in maps.items():
            m = np.asarray(m, dtype=np.float32)
            if m.ndim != 3:
                raise ValidationError(f"level {l} map must be (C, H, W), got shape {m.shape}")
            levels[l] = SparseFeature(KeySet.full(l, *m.shape[1:]), m.reshape(len(m), -1).T)
        return cls(image_height, image_width, levels)

    @property
    def channels(self) -> int:
        return next(iter(self.levels.values())).channels


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
        for name, (tower, pred), out in zip(BRANCHES, self.branches,
                                            pred_widths(self.num_anchors, self.num_classes)):
            if len(tower) != TOWER_DEPTH:
                raise ConfigurationError(f"{name} tower must have {TOWER_DEPTH} convs")
            for conv in tower:
                if conv.in_channels != c or conv.out_channels != c:
                    raise ConfigurationError(f"{name} tower convs must map {c}->{c}")
            if pred.in_channels != c:
                raise ConfigurationError(f"{name}_pred must take {c} input channels")
            if pred.out_channels != out:
                raise ConfigurationError(
                    f"{name}_pred must emit {out} channels, has {pred.out_channels}")

    @property
    def channels(self) -> int:
        return self.cls_tower[0].in_channels

    @cached_property
    def branches(self) -> tuple[tuple[list[ConvWeights], ConvWeights], ...]:
        """Each branch's (tower, predictor), in BRANCHES order; built once, on
        first use, as the fields are frozen."""
        return tuple((getattr(self, f"{b}_tower"), getattr(self, f"{b}_pred")) for b in BRANCHES)

    @cached_property
    def stem(self) -> ConvWeights:
        """Every branch's first tower conv as one C -> 3C conv, their output
        channels in BRANCHES order: one gather serves all three. Its parts are
        the subnet stem and the query conv, so cls and reg carry the same bits
        whether the query branch runs or not. Built once, on first use.
        The query conv stays in it: a query tower gathering its own input was
        as exact and lighter, but slower on csq-sparse, where a second gather
        costs what the C-wide GEMM does (ROADMAP's "Measured and dropped"
        item)."""
        c = self.channels
        firsts = [tower[0] for tower, _ in self.branches]
        return ConvWeights(np.concatenate([conv.weights for conv in firsts]),
                           np.concatenate([conv.bias for conv in firsts]),
                           (len(SUBNETS) * c, c))

    @cached_property
    def subnet_stem(self) -> ConvWeights:
        """The stem's cls and reg part, a view of its first 2C output channels:
        the C -> 2C stem of a pass without the query branch; built once, on
        first use."""
        width = self.stem.parts[0]
        return ConvWeights(self.stem.weights[:width], self.stem.bias[:width])

    def stem_of(self, query: bool) -> ConvWeights:
        """The stem of a pass with the query branch, or without it."""
        return self.stem if query else self.subnet_stem


@dataclass(frozen=True)
class HeadOutput:
    """Per-level head outputs: a row set per branch that ran, over one shared
    KeySet, which is the full grid where the whole level was kept.
    `query_logits` is None where the query branch did not run."""

    cls_logits: SparseFeature
    reg_deltas: SparseFeature
    query_logits: SparseFeature | None = None

    def __post_init__(self):
        k = self.keys
        if self.reg_deltas.keys is not k or (self.query_logits is not None
                                             and self.query_logits.keys is not k):
            raise ValidationError("head outputs must share one key set")

    @property
    def keys(self) -> KeySet:
        return self.cls_logits.keys

    @property
    def branches(self) -> tuple[str, ...]:
        """The branches that ran: BRANCHES, or SUBNETS without query logits."""
        return SUBNETS if self.query_logits is None else BRANCHES

    def branch_rows(self) -> dict[str, SparseFeature]:
        """The rows of each branch that ran, by field name, in BRANCHES order."""
        names = [f.name for f in fields(self)][:len(self.branches)]
        return {name: getattr(self, name) for name in names}


def _branch_inputs(stem: SparseFeature, channels: int) -> list[SparseFeature]:
    """Each branch's C columns of the stem's ReLU rows, in BRANCHES order,
    copied into a padded buffer of its own, so that the stem is freed before
    the towers run and each branch's input is freed after its first conv.
    The head passes pop them as the branches run."""
    return [SparseFeature.from_padded(stem.keys, np.ascontiguousarray(cols))
            for cols in np.split(stem.padded, stem.channels // channels, axis=1)]


def _dense_branch(x: SparseFeature, tower: list[ConvWeights], pred: ConvWeights) -> SparseFeature:
    for conv in tower:
        x = relu(conv2d(x, conv))
    return conv2d(x, pred)


def run_dense_head(feature: SparseFeature, w: HeadWeights, *, query: bool = True) -> HeadOutput:
    """Full-map pass of BRANCHES, or of SUBNETS without `query`, over a
    full-grid feature, with rows at the feature's own keys; logits carry no
    activation."""
    if feature.channels != w.channels:
        raise ConfigurationError(
            f"feature has {feature.channels} channels, head expects {w.channels}"
        )
    inputs = _branch_inputs(relu(conv2d(feature, w.stem_of(query))), w.channels)
    return HeadOutput(*[_dense_branch(inputs.pop(0), t[1:], p)
                        for t, p in w.branches[:len(inputs)]])


def _sparse_branch(vf: SparseFeature, tower: list[ConvWeights], pred: ConvWeights,
                   schedule: Rulebook | Sequence[Rulebook]) -> SparseFeature:
    # csq hands every conv one bare Rulebook; perfbench's
    # test_traced_run_survives_a_removed_kernel swaps in a function taking
    # one, so both forms stay until the benchmark change of ROADMAP's
    # "Library-owned spans" item
    books = [schedule] * (TOWER_DEPTH + 1) if isinstance(schedule, Rulebook) else schedule
    x = vf
    for conv, rb in zip(tower, books):
        x = sparse_relu(sparse_conv(x, conv, rb))
    return sparse_conv(x, pred, books[-1])


def run_sparse_head(value_features: SparseFeature, w: HeadWeights,
                    schedule: Rulebook | Sequence[Rulebook] | None = None, *,
                    query: bool = True) -> HeadOutput:
    """Pass of BRANCHES, or of SUBNETS without `query`, over gathered value features,
    driven by a schedule that the branches share: one rulebook for every conv
    (submanifold: the active set stays fixed), or one per conv of a branch,
    the TOWER_DEPTH tower convs then the predictor. Conv j reads rows at its
    rulebook's inputs and writes rows at its keys, so the first rulebook reads
    the value features' keys and the outputs sit at the last one's keys. By
    default one rulebook of the value features' keys serves every conv. The
    first rulebook drives the stem, the branches' first tower convs as one,
    and each branch runs the rest of the schedule on its slice of the stem's
    rows."""
    if value_features.channels != w.channels:
        raise ConfigurationError(
            f"value features have {value_features.channels} channels, head expects {w.channels}"
        )
    if schedule is None:
        # model's one call of build_rulebook, which perfbench hooks (and lists as
        # absent if gone), so it stays until the benchmark change of ROADMAP's
        # "Library-owned spans" item
        schedule = build_rulebook(value_features.keys)
    elif not isinstance(schedule, Rulebook) and len(schedule) != TOWER_DEPTH + 1:
        raise ConfigurationError(
            f"schedule has {len(schedule)} rulebooks, the head has {TOWER_DEPTH + 1} convs"
        )
    if isinstance(schedule, Rulebook):
        first, rest = schedule, schedule
    else:
        first, rest = schedule[0], schedule[1:]
    # the stem runs as a branch with no tower convs, so every sparse conv of
    # the head goes through _sparse_branch
    inputs = _branch_inputs(sparse_relu(_sparse_branch(value_features, [], w.stem_of(query),
                                                       first)), w.channels)
    return HeadOutput(*[_sparse_branch(inputs.pop(0), t[1:], p, rest)
                        for t, p in w.branches[:len(inputs)]])


@dataclass(frozen=True)
class Blob(GroundTruthObject):
    """A planted high-activation patch standing in for a small object: a
    GroundTruthObject, and so its own ground truth, plus a finite amplitude."""

    amplitude: float = 8.0

    def __post_init__(self):
        super().__post_init__()
        if not abs(self.amplitude) <= sys.float_info.max:  # math.isfinite overflows on a huge int
            raise ValidationError(f"blob amplitude must be finite, got {self.amplitude}")


def make_synthetic_pyramid(seed: int, image_h: int, image_w: int, l_min: int, l_max: int,
                           channels: int, blobs: list[Blob] | None = None) -> FeaturePyramid:
    """Seeded stand-in for a backbone+FPN: low-amplitude noise background with
    localized bumps on levels l_min to l_max at each blob's cell floor(center / 2^l),
    the rule of `targets.small_centers_on_grid`; an off-grid center plants nothing."""
    rng = np.random.default_rng(seed)
    maps = {}
    for l in range(l_min, l_max + 1):
        h, w = level_dims(image_h, image_w, l)
        values = rng.standard_normal((channels, h, w), dtype=np.float32) * np.float32(0.1)
        stride = 1 << l
        for b in blobs or []:
            gx, gy = math.floor(b.cx / stride), math.floor(b.cy / stride)
            if not (0 <= gx < w and 0 <= gy < h):
                continue
            size_grid = b.max_side / stride
            sig = max(0.75, size_grid / 2.0)
            reach = int(math.ceil(2.0 * sig))
            y0, y1 = max(0, gy - reach), min(h - 1, gy + reach)
            x0, x1 = max(0, gx - reach), min(w - 1, gx + reach)
            yy, xx = np.mgrid[y0:y1 + 1, x0:x1 + 1]
            bump = b.amplitude * np.exp(-((xx - gx) ** 2 + (yy - gy) ** 2) / (2.0 * sig * sig))
            values[:, y0:y1 + 1, x0:x1 + 1] += bump.astype(np.float32)
        maps[l] = values
    return FeaturePyramid.from_maps(image_h, image_w, maps)


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
    towers = [[_seeded_conv(rng, channels, channels, relu_gain) for _ in range(TOWER_DEPTH)]
              for _ in BRANCHES]
    preds = [_seeded_conv(rng, out, channels, bias_value=0.0 if name == "reg" else prior_bias)
             for name, out in zip(BRANCHES, pred_widths(num_anchors, num_classes))]
    return HeadWeights(*towers, *preds, num_anchors, num_classes)


# --- containers -------------------------------------------------------------

def _entry_list(manifest: dict, key: str) -> list[dict]:
    entries = manifest[key]
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise TypeError(f"{key!r} must be a list of objects, got {entries!r}")
    return entries


def save_pyramid(pyr: FeaturePyramid, path) -> None:
    manifest = {
        "image": [pyr.image_height, pyr.image_width],
        "channels": pyr.channels,
        "levels": [
            {"l": l, "shape": [pyr.channels, pyr.levels[l].height, pyr.levels[l].width]}
            for l in sorted(pyr.levels)
        ],
    }
    write_container(path, PYRAMID_MAGIC, manifest,
                    [pyr.levels[l].features.T for l in sorted(pyr.levels)])


def load_pyramid(path) -> FeaturePyramid:
    r = ContainerReader(path, PYRAMID_MAGIC)
    m = r.manifest
    try:
        image = m["image"]
        channels = m["channels"]
        level_entries = _entry_list(m, "levels")
    except (KeyError, TypeError) as e:
        raise FormatError(f"{path}: malformed pyramid manifest: {e}") from e
    if not (isinstance(image, list) and len(image) == 2
            and all(manifest_int(d, 1) for d in image)):
        raise FormatError(f"{path}: image must be two positive ints, got {image!r}")
    if not manifest_int(channels, 1):
        raise FormatError(f"{path}: channels must be a positive int, got {channels!r}")
    maps: dict[int, np.ndarray] = {}
    for i, entry in enumerate(level_entries):
        l, shape = entry.get("l"), entry.get("shape")
        if not manifest_int(l, 0):
            raise FormatError(f"{path}: level entry {i}: l must be a non-negative int, "
                              f"got {l!r}")
        if l in maps:
            raise FormatError(f"{path}: level entry {i}: level {l} is given twice")
        values = r.take(shape, f"level {l}")
        if values.ndim != 3 or values.shape[0] != channels:
            raise FormatError(f"{path}: level {l} shape {shape} conflicts with manifest")
        maps[l] = values
    r.finish()
    try:
        return FeaturePyramid.from_maps(*image, maps)
    except ConfigurationError as e:
        raise FormatError(f"{path}: {e}") from e


# every tower conv, branch by branch, then every predictor
_CONV_ROLES = ([f"{b}_tower.{i}" for b in BRANCHES for i in range(TOWER_DEPTH)]
               + [f"{b}_pred" for b in BRANCHES])


def _iter_convs(w: HeadWeights) -> list[tuple[str, ConvWeights]]:
    towers, preds = zip(*w.branches)
    return list(zip(_CONV_ROLES, [conv for tower in towers for conv in tower] + list(preds)))


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
    write_container(path, WEIGHTS_MAGIC, manifest, payloads)


def load_weights(path) -> HeadWeights:
    r = ContainerReader(path, WEIGHTS_MAGIC)
    m = r.manifest
    try:
        channels, a, k = m["channels"], m["num_anchors"], m["num_classes"]
        entries = _entry_list(m, "convs")
    except (KeyError, TypeError) as e:
        raise FormatError(f"{path}: malformed weights manifest: {e}") from e
    for name, v in (("channels", channels), ("num_anchors", a), ("num_classes", k)):
        if not manifest_int(v, 1):
            raise FormatError(f"{path}: {name} must be a positive int, got {v!r}")
    roles = [e.get("role") for e in entries]
    if roles != _CONV_ROLES:
        raise FormatError(f"{path}: manifest conv roles {roles} != expected {_CONV_ROLES}")
    convs: list[ConvWeights] = []  # in _CONV_ROLES order
    for role, entry in zip(roles, entries):
        out_c, in_c, kk = entry.get("out"), entry.get("in"), entry.get("k")
        wt = r.take([out_c, in_c, kk, kk], f"{role} weights")
        bias = r.take([out_c], f"{role} bias")
        try:
            convs.append(ConvWeights(wt, bias))
        except (ConfigurationError, ValidationError) as e:
            raise FormatError(f"{path}: {role}: {e}") from e
    r.finish()
    n = len(BRANCHES) * TOWER_DEPTH
    towers = [convs[i:i + TOWER_DEPTH] for i in range(0, n, TOWER_DEPTH)]
    try:
        w = HeadWeights(*towers, *convs[n:], a, k)
    except ConfigurationError as e:
        raise FormatError(f"{path}: {e}") from e
    if w.channels != channels:
        raise FormatError(f"{path}: channels {channels} disagrees with the convs' {w.channels}")
    return w
