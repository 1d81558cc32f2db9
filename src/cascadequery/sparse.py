"""Sparse spatial tensors, rulebook construction, and sparse 3x3 convolution.

Active positions are tracked as integer (x, y) grid coordinates in a KeySet;
features gathered at those positions form a SparseFeature. A rulebook maps an
input key set to an output key set on the same grid; convolution over it reads
rows at the input set, writes rows at the output set, and inactive neighbours
contribute zero. With equal sets this is submanifold convolution. Rulebooks
and dilation both read `tensor.neighbour_table`, the grid table `conv2d`
caches per grid shape: a rulebook remaps its cells to input rows, and a
dilation grows a ring through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ValidationError
from .tensor import ConvWeights, DenseTensor, conv_rows, neighbour_table


class KeySet:
    """Active (x, y) positions at one pyramid level, deduplicated and in canonical
    row-major order (sorted by y, then x) so serialization and accumulation are
    reproducible."""

    __slots__ = ("level", "height", "width", "positions")

    def __init__(self, level: int, height: int, width: int, positions=None):
        if height <= 0 or width <= 0:
            raise ValidationError(f"key set bounds must be positive, got {height}x{width}")
        pos = np.array([] if positions is None else positions, dtype=np.int64).reshape(-1, 2)
        if pos.size:
            if (pos[:, 0] < 0).any() or (pos[:, 0] >= width).any() \
                    or (pos[:, 1] < 0).any() or (pos[:, 1] >= height).any():
                raise ValidationError(
                    f"key position out of bounds for {width}x{height} level {level}"
                )
            flat = pos[:, 1] * width + pos[:, 0]
            if (np.diff(flat) <= 0).any():  # not yet canonical: sort and deduplicate
                pos = pos[np.unique(flat, return_index=True)[1]]
        self.level = level
        self.height = height
        self.width = width
        self.positions = pos
        self.positions.setflags(write=False)

    def __len__(self) -> int:
        return len(self.positions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeySet):
            return NotImplemented
        return (
            self.level == other.level
            and self.height == other.height
            and self.width == other.width
            and self.positions.shape == other.positions.shape
            and bool((self.positions == other.positions).all())
        )

    def __repr__(self) -> str:
        return f"KeySet(level={self.level}, {self.width}x{self.height}, n={len(self)})"

    @property
    def xs(self) -> np.ndarray:
        return self.positions[:, 0]

    @property
    def ys(self) -> np.ndarray:
        return self.positions[:, 1]

    def as_tuples(self) -> list[tuple[int, int]]:
        return [tuple(p) for p in self.positions.tolist()]

    def to_json(self) -> list[list[int]]:
        """Canonical-order [x, y] pairs, the serialization used in run reports."""
        return self.positions.tolist()

    def rows_of(self, keys: "KeySet") -> np.ndarray:
        """Row of each of `keys` in this set. Both sets are in row-major order,
        so the rows are found by search; `keys` must be a subset on this grid."""
        if (keys.height, keys.width) != (self.height, self.width):
            raise ValidationError(f"keys on a {keys.width}x{keys.height} grid looked up "
                                  f"in {self.width}x{self.height}")
        have = self.ys * self.width + self.xs
        want = keys.ys * self.width + keys.xs
        rows = np.searchsorted(have, want)
        if (rows >= len(have)).any() or (have[rows] != want).any():
            raise ValidationError("keys are not a subset of this key set")
        return rows

    @classmethod
    def empty(cls, level: int, height: int, width: int) -> "KeySet":
        return cls(level, height, width)

    @classmethod
    def full(cls, level: int, height: int, width: int) -> "KeySet":
        ys, xs = np.mgrid[0:height, 0:width]
        return cls(level, height, width, np.stack([xs.ravel(), ys.ravel()], axis=1))


@dataclass(frozen=True)
class SparseFeature:
    """Per-key feature vectors, one row of length C per key, in key order."""

    keys: KeySet
    features: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        if feats.ndim != 2:
            raise ValidationError(f"sparse features must be (num_keys, C), got {feats.shape}")
        if feats.shape[0] != len(self.keys):
            raise ValidationError(
                f"feature rows ({feats.shape[0]}) != key count ({len(self.keys)})"
            )
        object.__setattr__(self, "features", feats)

    @property
    def channels(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class Rulebook:
    """Neighbour table from an input key set to an output key set on the same
    grid: row n holds, for each of the 9 taps of a 3x3 kernel (in the tap
    order of `tensor.neighbour_table`), the index in `inputs` of the key at
    that tap's displacement from output key n, or len(inputs) (the shared zero
    row) where that neighbour is off the grid or not an input key. Every conv
    is 3x3, so `sparse_conv` hands the whole table to `conv_rows`. Rulebooks
    compare by identity."""

    keys: KeySet
    inputs: KeySet
    table: np.ndarray = field(repr=False)

    @cached_property
    def num_entries(self) -> int:
        """Pairs (output key, tap) whose neighbour is an input key."""
        return int(np.count_nonzero(self.table < len(self.inputs)))


def build_rulebook(keys: KeySet, inputs: KeySet | None = None) -> Rulebook:
    """Rulebook writing at `keys` and reading `inputs` (default: `keys`
    itself, the submanifold case): the grid's neighbour table at the keys'
    cells, looked up in a cell -> input row map whose off-grid entry, like
    every cell that is not an input, is len(inputs)."""
    if inputs is None:
        inputs = keys
    elif (inputs.level, inputs.height, inputs.width) != (keys.level, keys.height, keys.width):
        raise ValidationError(f"input keys on level {inputs.level} {inputs.width}x"
                              f"{inputs.height}, output keys on level {keys.level} "
                              f"{keys.width}x{keys.height}")
    w = keys.width
    row = np.full(keys.height * w + 1, len(inputs), dtype=np.int64)
    row[inputs.ys * w + inputs.xs] = np.arange(len(inputs))
    return Rulebook(keys, inputs, row[neighbour_table(keys.height, w)[keys.ys * w + keys.xs]])


def dilate(keys: KeySet) -> KeySet:
    """Every cell within one cell (Chebyshev distance 1) of a key, clipped to
    the grid: the keys' neighbour-table rows (tap 4 is the key itself) are
    scattered into a cell mask of length H * W + 1, whose last entry catches
    the off-grid taps."""
    h, w = keys.height, keys.width
    mask = np.zeros(h * w + 1, dtype=bool)
    mask[neighbour_table(h, w)[keys.ys * w + keys.xs]] = True
    ys, xs = np.divmod(np.flatnonzero(mask[:-1]), w)
    return KeySet(keys.level, h, w, np.stack([xs, ys], axis=1))


def gather(dense: DenseTensor, keys: KeySet) -> SparseFeature:
    """Extract the per-position feature vectors of `dense` at the key positions."""
    if keys.height != dense.height or keys.width != dense.width:
        raise ValidationError(
            f"key bounds {keys.width}x{keys.height} do not match tensor "
            f"{dense.width}x{dense.height}"
        )
    feats = dense.values[:, keys.ys, keys.xs].T
    return SparseFeature(keys, feats)


def sparse_conv(inp: SparseFeature, w: ConvWeights, rb: Rulebook) -> SparseFeature:
    """3x3 convolution of rows at `rb.inputs` into rows at `rb.keys`.

    `conv_rows` over the rulebook's table. Missing neighbours contribute
    nothing, which is exactly the zero-padding behaviour when every position
    is active.
    """
    if inp.channels != w.in_channels:
        raise ConfigurationError(
            f"sparse input has {inp.channels} channels, weights expect {w.in_channels}"
        )
    if rb.inputs is not inp.keys and rb.inputs != inp.keys:
        raise ValidationError("input rows are not on the rulebook's input key set")
    return SparseFeature(rb.keys, conv_rows(inp.features, w, rb.table))


def sparse_relu(sf: SparseFeature) -> SparseFeature:
    return SparseFeature(sf.keys, np.maximum(sf.features, np.float32(0.0)))
