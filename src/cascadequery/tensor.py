"""Dense feature tensors and reference convolution arithmetic.

Layout is channel-major: a tensor of C channels over an H x W grid is a
C-contiguous float32 array of shape (C, H, W), so the per-position feature
vector ``values[:, y, x]`` is a strided view and the flat buffer matches the
QDT1 on-disk order.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, FormatError, ValidationError

TENSOR_MAGIC = b"QDTENS1\n"


@dataclass(frozen=True)
class DenseTensor:
    """A dense C x H x W float32 feature map."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float32)
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
    """Weights of one convolution layer: (out, in, k, k) kernel plus per-output bias.

    Treated as immutable: `taps` is derived from the kernel once, on first use."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float32)
        b = np.ascontiguousarray(self.bias, dtype=np.float32)
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ConfigurationError(f"conv weights must be (out, in, k, k), got {w.shape}")
        if w.shape[2] not in (1, 3):
            raise ConfigurationError(f"kernel size must be 1 or 3, got {w.shape[2]}")
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
        return self.weights.shape[2]

    @cached_property
    def taps(self) -> np.ndarray:
        """Weights as a (k * k * in, out) matrix in (ky, kx, channel) row order,
        the column order of the rows that `conv_rows` gathers."""
        return np.ascontiguousarray(
            self.weights.transpose(2, 3, 1, 0).reshape(-1, self.out_channels))


def neighbour_table(index: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                    kernel: int, zero_row: int) -> np.ndarray:
    """(N, kernel * kernel) row indices of the neighbours of each (ys, xs) cell.

    `index` is an (H, W) grid holding each cell's row index, or `zero_row`
    where the cell has no row. Taps run in (ky, kx) row-major order, tap t
    reading the cell displaced by (t // kernel - r, t % kernel - r) with
    r = kernel // 2; a neighbour outside the grid also reads `zero_row`.
    """
    r = kernel // 2
    padded = np.pad(index, r, constant_values=zero_row)
    dy, dx = np.divmod(np.arange(kernel * kernel), kernel)
    return padded[ys[:, None] + dy, xs[:, None] + dx]


def conv_rows(rows: np.ndarray, w: ConvWeights, table: np.ndarray) -> np.ndarray:
    """The one convolution kernel: output row n = bias + sum over taps t of
    rows[table[n, t]] times tap t's weights.

    `rows` is (M, C); index M in `table` stands for a shared zero row, used for
    padding and for inactive neighbours. The neighbours are gathered into one
    (N, k * k * C) matrix and multiplied in a single float32 GEMM, so the same
    table and rows give the same bits whichever caller built them.
    """
    if not np.isfinite(rows).all():
        raise ValidationError("convolution input contains non-finite values")
    m, c = rows.shape
    padded = np.empty((m + 1, c), dtype=np.float32)
    padded[:m] = rows
    padded[m] = 0.0
    out = padded[table].reshape(len(table), w.taps.shape[0]) @ w.taps
    out += w.bias
    return out


def conv2d(inp: DenseTensor, w: ConvWeights) -> DenseTensor:
    """Stride-1, zero-padded convolution; output spatial size equals input.

    output[o, y, x] = bias[o] + sum_{c, ky, kx} w[o, c, ky, kx] * padded[c, y+ky-r, x+kx-r]

    Every cell is a row, so this is `conv_rows` over the full-grid neighbour
    table.
    """
    if inp.channels != w.in_channels:
        raise ConfigurationError(
            f"input has {inp.channels} channels, weights expect {w.in_channels}"
        )
    c, h, wd = inp.values.shape
    ys, xs = np.divmod(np.arange(h * wd), wd)
    table = neighbour_table(np.arange(h * wd).reshape(h, wd), ys, xs, w.kernel, h * wd)
    out = conv_rows(inp.values.reshape(c, h * wd).T, w, table)
    return DenseTensor(out.T.reshape(w.out_channels, h, wd))


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


def save_tensor(t: DenseTensor, path) -> None:
    """Write one tensor in the QDT1 container format."""
    header = json.dumps({"dtype": "f32", "shape": list(t.values.shape)}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(t.values.astype("<f4").tobytes())


def load_tensor(path) -> DenseTensor:
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad magic, not a QDT1 tensor file")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header")
    (hlen,) = struct.unpack("<I", data[8:12])
    if len(data) < 12 + hlen:
        raise FormatError(f"{path}: truncated JSON header")
    try:
        header = json.loads(data[12 : 12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: unreadable header: {e}") from e
    if header.get("dtype") != "f32":
        raise FormatError(f"{path}: unsupported dtype {header.get('dtype')!r}")
    shape = header.get("shape")
    if not (isinstance(shape, list) and len(shape) == 3 and all(isinstance(d, int) and d > 0 for d in shape)):
        raise FormatError(f"{path}: bad shape in header: {shape!r}")
    c, h, wd = shape
    payload = data[12 + hlen :]
    expected = c * h * wd * 4
    if len(payload) != expected:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    values = np.frombuffer(payload, dtype="<f4").reshape(c, h, wd)
    return DenseTensor(values.copy())
