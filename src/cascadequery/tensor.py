"""Convolution arithmetic, logit gates and the container formats.

Every feature is rows: `sparse.SparseFeature` holds one (C,) row per key of a
key set, and a pyramid level is the case whose keys are its full grid.
`conv_rows`, the one kernel under `sparse.conv2d` and `sparse.sparse_conv`,
gathers from rows followed by a zero row: a padded buffer that the caller
hands it is read where it lies, and rows in any other memory layout are
copied into one. It gathers and multiplies its table in blocks of
BLOCK_ROWS rows, so a conv's scratch memory is one block's gather whatever
the grid size. `neighbour_table` is the grid's 3x3 table, built once
per grid shape.

Containers are mapped, not read: `ContainerReader` maps the file private
copy-on-write and hands out each payload as a view of the map, so a load
parses the manifest and reads no payload byte, and a write into a loaded
array never reaches the file. `write_container` makes every payload
contiguous and writes a sibling temporary file that it renames over the
path, so arrays loaded from the old file keep their values.

Head outputs stay logits: `sigmoid_above` is the one gate "score above a
threshold", decided in logit space, and `sigmoid_array` scores only the rows
a gate keeps.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import stat
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, FormatError, ValidationError


@dataclass(frozen=True)
class ConvWeights:
    """Weights of one 3x3 convolution layer: (out, in, 3, 3) kernel plus per-output bias.

    3x3 is the only kernel: the cost model charges every conv 9 taps and
    `model.RECEPTIVE_FIELD` widens by one cell per side per conv. Treated as
    immutable: `taps` is derived from the kernel once, on first use.

    A conv fused from several that read the same rows names their output
    widths in `parts`, in order. `conv_rows` gathers once for them all and
    multiplies each part on its own, so a part's rows carry the same bits as
    that part run alone: a GEMM's rounding can change with its width."""

    weights: np.ndarray
    bias: np.ndarray
    parts: tuple[int, ...] = ()

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
        if self.parts and (min(self.parts) <= 0 or sum(self.parts) != w.shape[0]):
            raise ConfigurationError(f"parts {self.parts} do not split {w.shape[0]} "
                                     f"output channels")
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
    def taps(self) -> tuple[tuple[slice, np.ndarray], ...]:
        """Per part, its output columns and its weights as a contiguous
        (9 * in, width) matrix in (ky, kx, channel) row order, the column
        order of the rows that `conv_rows` gathers. A conv without parts is
        one part."""
        full = self.weights.transpose(2, 3, 1, 0).reshape(-1, self.out_channels)
        ends = np.cumsum(self.parts or (self.out_channels,)).tolist()
        return tuple((slice(a, b), np.ascontiguousarray(full[:, a:b]))
                     for a, b in zip([0] + ends, ends))


# Table rows per block of `conv_rows`: one block's gathered (BLOCK_ROWS, 9 * C)
# matrix stays in cache for its GEMM, and bounds the kernel's scratch memory.
BLOCK_ROWS = 256


def conv_rows(rows: np.ndarray, w: ConvWeights, table: np.ndarray,
              padded: np.ndarray | None = None) -> np.ndarray:
    """The one convolution kernel: output row n = bias + sum over taps t of
    rows[table[n, t]] times tap t's weights.

    Index M in `table` stands for a shared zero row, used for padding and
    for inactive neighbours, so the kernel gathers from an (M + 1, C) buffer
    whose first M rows are `rows` and whose last row is zero. `padded` is
    that buffer when the caller holds one (`sparse.relu` writes its rows
    into one), and the kernel reads it where it lies; without it, `rows`,
    (M, C) in any memory layout, is copied once into a fresh buffer. Beyond
    that buffer and its output, a conv holds one block's gather: the table
    is computed in blocks of BLOCK_ROWS rows, each block's neighbours are
    gathered with `np.take` into a (block, 9 * C) matrix, and one float32
    GEMM per part of `w` writes the block's rows of the preallocated output.
    The blocks depend only on the number of table rows, so the same table
    and rows give the same bits whichever caller built them. `table` is
    only read, so a cached read-only table can be passed.
    """
    m, c = rows.shape
    if padded is None:
        padded = np.empty((m + 1, c), dtype=np.float32)
        padded[:m] = rows
        padded[m] = 0.0
    if not np.isfinite(padded).all():
        raise ValidationError("convolution input contains non-finite values")
    out = np.empty((len(table), w.out_channels), dtype=np.float32)
    for s in range(0, len(table), BLOCK_ROWS):
        # a plain take: with out=, mode='raise' gathers into a hidden copy first
        blk = table[s:s + BLOCK_ROWS]
        gathered = np.take(padded, blk, axis=0).reshape(len(blk), 9 * c)
        for cols, taps in w.taps:
            np.matmul(gathered, taps, out=out[s:s + len(blk), cols])
        del gathered  # freed before the next block's gather
    out += w.bias
    return out


@lru_cache(maxsize=16)
def neighbour_table(height: int, width: int) -> np.ndarray:
    """The (H * W, 9) 3x3 neighbour table of an H x W grid, the one place the
    3x3 offsets live: row y * W + x holds the flat cells y' * W + x' of that
    cell's neighbours, tap t reading the cell displaced by
    (dy, dx) = (t // 3 - 1, t % 3 - 1), so taps run in (ky, kx) row-major
    order. A neighbour outside the grid reads H * W. Built once per grid shape
    and returned read-only, since every caller shares it: `sparse.conv2d`
    reads it as is, and rulebooks and dilations remap and grow through it."""
    off_grid = height * width
    index = np.pad(np.arange(off_grid).reshape(height, width), 1, constant_values=off_grid)
    ys, xs = np.divmod(np.arange(off_grid), width)
    dy, dx = np.divmod(np.arange(9), 3)
    table = index[ys[:, None] + dy, xs[:, None] + dx]
    table.flags.writeable = False
    return table


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
    """Writes a sibling temporary file, then renames it over `path` (through
    a symlink, over its target): a mapped reader of the old file keeps the
    old file's pages, so its arrays neither change nor fault. A rewritten
    file is a new inode: it takes the umask's mode and the writer as owner,
    hard links to the old file keep the old bytes, and the directory, not
    only the file, must be writable."""
    header = json.dumps(manifest).encode("utf-8")
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(magic)
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            for arr in payloads:
                f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, target)
    except BaseException:
        if os.path.lexists(tmp):
            os.unlink(tmp)
        raise


class ContainerReader:
    """Maps one container, checks the magic, parses the manifest, then hands
    out the payloads in order with `take`, each a view of the map.

    The map is private copy-on-write (`mmap.ACCESS_COPY`): a load reads no
    payload byte, the OS brings in a page where it is first read, and a write
    into a loaded array changes this process's copy of the page, never the
    file. `write_container` replaces a file by rename, so rewriting a loaded
    file leaves its arrays as they were. Two caveats: no other program may
    truncate a loaded file in place, since reading a page past the new end
    raises SIGBUS; and each live map holds one file descriptor, until the
    last array viewing it is freed."""

    def __init__(self, path, magic: bytes):
        self.path = path
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # opening a FIFO must not block
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                raise FormatError(f"{path}: not a regular file")
            # an empty file cannot be mapped; its empty bytes fail the magic check
            self.data = (mmap.mmap(fd, st.st_size, access=mmap.ACCESS_COPY) if st.st_size
                         else b"")
        finally:
            os.close(fd)
        try:
            self._read_manifest(magic)
        except BaseException:
            if isinstance(self.data, mmap.mmap):
                self.data.close()  # a failed load keeps no descriptor open
            raise

    def _read_manifest(self, magic: bytes) -> None:
        path = self.path
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
        """The next payload, as a writable float32 view of `shape` (a list of
        positive ints) into the map. It starts after a manifest of any
        length, so it is most often not 4-byte aligned; NumPy reads such a
        view as it is."""
        if not (isinstance(shape, list) and shape and all(manifest_int(d, 1) for d in shape)):
            raise FormatError(f"{self.path}: {what}: bad shape {shape!r}")
        count = math.prod(shape)
        if self.offset + count * 4 > len(self.data):
            raise FormatError(f"{self.path}: payload truncated while reading {what}")
        arr = np.frombuffer(self.data, dtype="<f4", count=count, offset=self.offset)
        self.offset += count * 4
        return arr.reshape(shape)

    def finish(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.offset} trailing bytes")
