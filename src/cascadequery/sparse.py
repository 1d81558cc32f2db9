"""Features as rows over key sets, rulebook construction, and 3x3 convolution.

A KeySet is its active cells: sorted flat indices y * W + x into one level's
grid, the row index of `tensor.neighbour_table`. A SparseFeature is one row per
key; a pyramid level is the one over its full grid, where a cell is its own row,
so `gather` indexes rows by cell and `conv2d` runs the grid's neighbour table.
A rulebook maps an input key set to an output key set on the same grid;
convolution over it reads rows at the input set, writes rows at the output set,
and inactive neighbours contribute zero. With equal sets this is submanifold
convolution. A rulebook remaps the neighbour table's cells to input rows, and
a dilation grows a ring through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ValidationError
from .tensor import ConvWeights, conv_rows, neighbour_table


class KeySet:
    """Active cells at one pyramid level: the sorted, unique int64 flat indices
    y * W + x of its H x W grid, which are the rows of `tensor.neighbour_table`.
    Sorted cells are row-major order, so serialization and accumulation are
    reproducible. The (x, y) pairs of reports and anchors (`positions`, `xs`,
    `ys`, `to_json`) are derived from the cells on access."""

    __slots__ = ("level", "height", "width", "cells")

    def __init__(self, level: int, height: int, width: int, cells=None):
        if height <= 0 or width <= 0:
            raise ValidationError(f"key set bounds must be positive, got {height}x{width}")
        flat = np.asarray([] if cells is None else cells)  # [] is float64: allowed
        if flat.ndim != 1 or (flat.size and flat.dtype.kind not in "iu") \
                or ((flat < 0) | (flat >= height * width)).any():
            raise ValidationError(f"key cells must be a flat list of cells of the "
                                  f"{width}x{height} grid of level {level}")
        flat = flat.astype(np.int64)  # a copy, as the caller's array stays writable
        if (np.diff(flat) <= 0).any():  # not yet canonical: sort and deduplicate
            flat = np.unique(flat)
        flat.setflags(write=False)
        self.level, self.height, self.width, self.cells = level, height, width, flat

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeySet):
            return NotImplemented
        return ((self.level, self.height, self.width) == (other.level, other.height, other.width)
                and np.array_equal(self.cells, other.cells))

    def __repr__(self) -> str:
        return f"KeySet(level={self.level}, {self.width}x{self.height}, n={len(self)})"

    @property
    def xs(self) -> np.ndarray:
        return self.cells % self.width

    @property
    def ys(self) -> np.ndarray:
        return self.cells // self.width

    @property
    def positions(self) -> np.ndarray:
        return np.stack([self.xs, self.ys], axis=1)

    def to_json(self) -> list[list[int]]:
        """Cell-order [x, y] pairs, the serialization used in run reports."""
        return self.positions.tolist()

    def rows_of(self, keys: "KeySet") -> np.ndarray:
        """Row of each of `keys` in this set: one search of their cells in
        these sorted cells. `keys` must be a subset on this grid."""
        if (keys.height, keys.width) != (self.height, self.width):
            raise ValidationError(f"keys on a {keys.width}x{keys.height} grid looked up "
                                  f"in {self.width}x{self.height}")
        rows = np.searchsorted(self.cells, keys.cells)
        if (rows >= len(self)).any() or (self.cells[rows] != keys.cells).any():
            raise ValidationError("keys are not a subset of this key set")
        return rows

    @classmethod
    def full(cls, level: int, height: int, width: int) -> "KeySet":
        return cls(level, height, width, np.arange(height * width))


@dataclass(frozen=True)
class SparseFeature:
    """Per-key feature vectors, one row of length C per key, in key order, in
    any memory layout: a column slice or a transposed view is held uncopied."""

    keys: KeySet
    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float32)
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

    @property
    def height(self) -> int:
        return self.keys.height

    @property
    def width(self) -> int:
        return self.keys.width


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
    itself, the submanifold case): the grid's neighbour table at `keys.cells`,
    looked up in a cell -> input row map, set at `inputs.cells`, whose
    off-grid entry, like every cell that is not an input, is len(inputs)."""
    if inputs is None:
        inputs = keys
    elif (inputs.level, inputs.height, inputs.width) != (keys.level, keys.height, keys.width):
        raise ValidationError(f"input keys on level {inputs.level} {inputs.width}x"
                              f"{inputs.height}, output keys on level {keys.level} "
                              f"{keys.width}x{keys.height}")
    row = np.full(keys.height * keys.width + 1, len(inputs), dtype=np.int64)
    row[inputs.cells] = np.arange(len(inputs))
    return Rulebook(keys, inputs, row[neighbour_table(keys.height, keys.width)[keys.cells]])


def dilate(keys: KeySet) -> KeySet:
    """Every cell within one cell (Chebyshev distance 1) of a key, clipped to
    the grid: the neighbour-table rows at `keys.cells` (tap 4 is the key
    itself) are scattered into a cell mask of length H * W + 1, whose last
    entry catches the off-grid taps, and the mask's set cells are the keys."""
    h, w = keys.height, keys.width
    mask = np.zeros(h * w + 1, dtype=bool)
    mask[neighbour_table(h, w)[keys.cells]] = True
    return KeySet(keys.level, h, w, np.flatnonzero(mask[:-1]))


def _full_grid(sf: SparseFeature) -> None:
    if len(sf.keys) != sf.height * sf.width:
        raise ValidationError(f"{len(sf.keys)} rows do not cover the {sf.width}x{sf.height} grid")


def gather(level: SparseFeature, keys: KeySet) -> SparseFeature:
    """The rows of a full-grid feature at the keys: on the full grid a cell is
    its own row, so the index is `keys.cells`."""
    if (keys.height, keys.width) != (level.height, level.width):
        raise ValidationError(f"key bounds {keys.width}x{keys.height} do not match "
                              f"tensor {level.width}x{level.height}")
    _full_grid(level)
    return SparseFeature(keys, level.features[keys.cells])


def conv2d(inp: SparseFeature, w: ConvWeights) -> SparseFeature:
    """Stride-1, zero-padded 3x3 convolution of a full-grid feature, with rows
    at the same keys: `conv_rows` over `neighbour_table(H, W)`."""
    if inp.channels != w.in_channels:
        raise ConfigurationError(
            f"input has {inp.channels} channels, weights expect {w.in_channels}"
        )
    _full_grid(inp)
    return SparseFeature(inp.keys, conv_rows(inp.features, w,
                                             neighbour_table(inp.height, inp.width)))


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


relu = sparse_relu  # the full-grid passes' name for it, which perfbench times apart
