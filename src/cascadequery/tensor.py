"""Dense feature tensors and reference convolution arithmetic.

A tensor of C channels over an H x W grid is a float32 array of shape
(C, H, W), whatever its memory layout. Pyramid levels load channel-major, in
the QDPYR1 on-disk order. `conv2d` returns a (C, H, W) view of its (H * W, C)
GEMM rows (channel-last memory), and reads its input through
``values.transpose(1, 2, 0)``, so chained convs and `relu`, which keeps its
input's layout, hand rows to one another without transposing copies.
`conv_rows`, the kernel under both `conv2d` and `sparse.sparse_conv`, gathers
and multiplies its table in blocks of BLOCK_ROWS rows, so a conv's scratch
memory is one block's gather whatever the grid size.
`write_container` makes every payload contiguous before writing it.

Head outputs stay logits: `sigmoid_above` is the one gate "score above a
threshold", decided in logit space, and `sigmoid_array` scores only the rows
a gate keeps.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, FormatError, ValidationError


@dataclass(frozen=True)
class DenseTensor:
    """A dense C x H x W float32 feature map, in any memory layout."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float32)
        if arr.ndim != 3:
            raise ValidationError(f"dense tensor must be (C, H, W), got shape {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class ConvWeights:
    """Weights of one 3x3 convolution layer: (out, in, 3, 3) kernel plus per-output bias.

    3x3 is the only kernel: the cost model charges every conv 9 taps and
    `model.RECEPTIVE_FIELD` widens by one cell per side per conv. Treated as
    immutable: `taps` is derived from the kernel once, on first use."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float32)
        b = np.ascontiguousarray(self.bias, dtype=np.float32)
        if w.ndim != 4 or w.shape[2:] != (3, 3):
            raise ConfigurationError(f"conv weights must be (out, in, 3, 3), got {w.shape}")
        if b.shape != (w.shape[0],):
            raise ConfigurationError(
                f"bias length {b.shape} does not match out_channels {w.shape[0]}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValidationError("conv weights or bias contain non-finite values")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> int:
        """Always 3; the QDWTS1 manifest records it as `k`."""
        return self.weights.shape[2]

    @cached_property
    def taps(self) -> np.ndarray:
        """Weights as a (9 * in, out) matrix in (ky, kx, channel) row order,
        the column order of the rows that `conv_rows` gathers."""
        return np.ascontiguousarray(
            self.weights.transpose(2, 3, 1, 0).reshape(-1, self.out_channels))


# Table rows per block of `conv_rows`: one block's gathered (BLOCK_ROWS, 9 * C)
# matrix stays in cache for its GEMM, and bounds the kernel's scratch memory.
BLOCK_ROWS = 256


def conv_rows(rows: np.ndarray, w: ConvWeights, table: np.ndarray) -> np.ndarray:
    """The one convolution kernel: output row n = bias + sum over taps t of
    rows[table[n, t]] times tap t's weights.

    `rows` is (M, C), or any (..., C) array whose leading axes flatten to M
    rows in row-major order; it is copied once into the padded buffer, whatever
    its layout. Index M in `table` stands for a shared zero row, used for
    padding and for inactive neighbours. The table is computed in blocks of
    BLOCK_ROWS rows: each block's neighbours are gathered with `np.take` into
    a (block, 9 * C) matrix, and one float32 GEMM writes the block's rows of
    the preallocated output, so no more than one block's gather is held at a
    time. The blocks depend only on the number of table rows, so the same
    table and rows give the same bits whichever caller built them. `table` is
    only read, so a cached read-only table can be passed.
    """
    c = rows.shape[-1]
    m = math.prod(rows.shape[:-1])
    padded = np.empty((m + 1, c), dtype=np.float32)
    padded[:m].reshape(rows.shape)[...] = rows
    padded[m] = 0.0
    if not np.isfinite(padded).all():
        raise ValidationError("convolution input contains non-finite values")
    taps = w.taps
    out = np.empty((len(table), w.out_channels), dtype=np.float32)
    for s in range(0, len(table), BLOCK_ROWS):
        # a plain take: with out=, mode='raise' gathers into a hidden copy first
        blk = table[s:s + BLOCK_ROWS]
        np.matmul(np.take(padded, blk, axis=0).reshape(len(blk), taps.shape[0]), taps,
                  out=out[s:s + len(blk)])
    out += w.bias
    return out


@lru_cache(maxsize=16)
def neighbour_table(height: int, width: int) -> np.ndarray:
    """The (H * W, 9) 3x3 neighbour table of an H x W grid, the one place the
    3x3 offsets live: row y * W + x holds the flat cells y' * W + x' of that
    cell's neighbours, tap t reading the cell displaced by
    (dy, dx) = (t // 3 - 1, t % 3 - 1), so taps run in (ky, kx) row-major
    order. A neighbour outside the grid reads H * W. Built once per grid shape
    and returned read-only, since every caller shares it: `conv2d` reads it
    as is, and `sparse` remaps its cells to rulebook rows and dilates through
    it."""
    off_grid = height * width
    index = np.pad(np.arange(off_grid).reshape(height, width), 1, constant_values=off_grid)
    ys, xs = np.divmod(np.arange(off_grid), width)
    dy, dx = np.divmod(np.arange(9), 3)
    table = index[ys[:, None] + dy, xs[:, None] + dx]
    table.flags.writeable = False
    return table


def conv2d(inp: DenseTensor, w: ConvWeights) -> DenseTensor:
    """Stride-1, zero-padded convolution; output spatial size equals input.

    output[o, y, x] = bias[o] + sum_{c, ky, kx} w[o, c, ky, kx] * padded[c, y+ky-1, x+kx-1]

    Every cell is a row, so this is `conv_rows` over `neighbour_table(H, W)`,
    cached per grid shape. The output is a (C, H, W) view of the GEMM's
    (H * W, C) rows.
    """
    if inp.channels != w.in_channels:
        raise ConfigurationError(
            f"input has {inp.channels} channels, weights expect {w.in_channels}"
        )
    _, h, wd = inp.values.shape
    out = conv_rows(inp.values.transpose(1, 2, 0), w, neighbour_table(h, wd))
    return DenseTensor(out.reshape(h, wd, w.out_channels).transpose(2, 0, 1))


def relu(inp: DenseTensor) -> DenseTensor:
    return DenseTensor(np.maximum(inp.values, np.float32(0.0)))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, computed in float64 and rounded to float32."""
    z = np.asarray(x, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out.astype(np.float32)


def sigmoid_above(logits: np.ndarray, threshold: float) -> np.ndarray:
    """Elementwise sigmoid(logits) > threshold, as logits > log(t / (1 - t)):
    the cut is -inf at t = 0 and +inf at t = 1, and both sides are compared
    in float64 (a float64 scalar, so NumPy does not round the cut to the
    logits' float32)."""
    if threshold <= 0.0:
        cut = -math.inf
    elif threshold >= 1.0:
        cut = math.inf
    else:
        cut = math.log(threshold / (1.0 - threshold))
    return np.asarray(logits) > np.float64(cut)


# --- containers -------------------------------------------------------------
# QDPYR1 and QDWTS1 share one layout: an 8-byte magic, a little-endian
# u32 manifest length, the JSON manifest, then little-endian f32 payloads.

def manifest_int(v, minimum: int) -> bool:
    """The manifests' one integer rule: a JSON int, not a bool, of at least `minimum`."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= minimum


def write_container(path, magic: bytes, manifest: dict, payloads) -> None:
    header = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for arr in payloads:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class ContainerReader:
    """Reads one container: checks the magic, parses the manifest, then hands
    out the payloads in order with `take`."""

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
        if not isinstance(self.manifest, dict):
            raise FormatError(f"{path}: manifest is not a JSON object")
        self.offset = 12 + hlen

    def take(self, shape, what: str) -> np.ndarray:
        """The next payload, as a float32 array of `shape`: a list of positive ints."""
        if not (isinstance(shape, list) and shape and all(manifest_int(d, 1) for d in shape)):
            raise FormatError(f"{self.path}: {what}: bad shape {shape!r}")
        count = math.prod(shape)
        if self.offset + count * 4 > len(self.data):
            raise FormatError(f"{self.path}: payload truncated while reading {what}")
        arr = np.frombuffer(self.data, dtype="<f4", count=count, offset=self.offset)
        self.offset += count * 4
        # a payload starts after a manifest of any length: a view would be unaligned and read-only
        return arr.reshape(shape).copy()

    def finish(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.offset} trailing bytes")

