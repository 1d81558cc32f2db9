"""Sparse spatial tensors, rulebook construction, and submanifold 3x3 convolution.

Active positions are tracked as integer (x, y) grid coordinates in a KeySet;
features gathered at those positions form a SparseFeature. Convolution over a
SparseFeature follows submanifold semantics: the output active set equals the
input active set and inactive neighbors contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Rulebook:
    """Neighbour table of one key set: row n holds, for each of the 9 taps of a
    3x3 kernel, the index of the key at that tap's displacement from key n, or
    len(keys) (the shared zero row) where that neighbour is not a key.

    Tap k in 0..8 is the displacement (dy, dx) = (k // 3 - 1, k % 3 - 1): an
    entry (out_key, in_key, k) means in_key sits at out_key + (dx, dy). Every
    conv is 3x3, so `sparse_conv` hands the whole table to `conv_rows`."""

    keys: KeySet
    table: np.ndarray = field(repr=False)

    @property
    def num_entries(self) -> int:
        """Pairs (key, tap) whose neighbour is itself a key."""
        return int(np.count_nonzero(self.table < len(self.keys)))


def build_rulebook(keys: KeySet) -> Rulebook:
    """Submanifold rulebook: one lookup of every key's 3x3 neighbourhood in an
    index grid of the key set. Output active set == input set."""
    n = len(keys)
    index = np.full((keys.height, keys.width), n, dtype=np.int64)
    index[keys.ys, keys.xs] = np.arange(n)
    return Rulebook(keys, neighbour_table(index, keys.ys, keys.xs, n))


def dilate(keys: KeySet, radius: int) -> KeySet:
    """Every cell within Chebyshev distance `radius` of a key, clipped to the
    grid. The square window is separable: the key mask is widened along its
    rows, transposed, and widened again."""
    if radius < 0:
        raise ConfigurationError(f"dilation radius must be non-negative, got {radius}")
    if radius == 0 or not len(keys):
        return keys
    mask = np.zeros((keys.height, keys.width), dtype=bool)
    mask[keys.ys, keys.xs] = True
    for _ in range(2):
        padded = np.pad(mask, ((0, 0), (radius, radius)))
        n = mask.shape[1]
        mask = np.logical_or.reduce([padded[:, s:s + n] for s in range(2 * radius + 1)]).T
    ys, xs = np.nonzero(mask)
    return KeySet(keys.level, keys.height, keys.width, np.stack([xs, ys], axis=1))


def gather(dense: DenseTensor, keys: KeySet) -> SparseFeature:
    """Extract the per-position feature vectors of `dense` at the key positions."""
    if keys.height != dense.height or keys.width != dense.width:
        raise ValidationError(
            f"key bounds {keys.width}x{keys.height} do not match tensor "
            f"{dense.width}x{dense.height}"
        )
    feats = dense.values[:, keys.ys, keys.xs].T
    return SparseFeature(keys, feats)


def scatter(sparse: SparseFeature, height: int, width: int) -> DenseTensor:
    """Place sparse rows back on a dense zero canvas of the given size."""
    if len(sparse.keys):
        if int(sparse.keys.xs.max()) >= width or int(sparse.keys.ys.max()) >= height:
            raise ValidationError(
                f"key positions exceed scatter target {width}x{height}"
            )
    values = np.zeros((sparse.channels, height, width), dtype=np.float32)
    if len(sparse.keys):
        values[:, sparse.keys.ys, sparse.keys.xs] = sparse.features.T
    return DenseTensor(values)


def sparse_conv(inp: SparseFeature, w: ConvWeights, rb: Rulebook) -> SparseFeature:
    """Submanifold 3x3 convolution driven by a rulebook built from `inp.keys`.

    `conv_rows` over the rulebook's table. Missing neighbors contribute
    nothing, which is exactly the zero-padding behaviour when every position
    is active.
    """
    if inp.channels != w.in_channels:
        raise ConfigurationError(
            f"sparse input has {inp.channels} channels, weights expect {w.in_channels}"
        )
    if rb.keys is not inp.keys and rb.keys != inp.keys:
        raise ValidationError("rulebook was not built from the input's key set")
    return SparseFeature(inp.keys, conv_rows(inp.features, w, rb.table))


def sparse_relu(sf: SparseFeature) -> SparseFeature:
    return SparseFeature(sf.keys, np.maximum(sf.features, np.float32(0.0)))
