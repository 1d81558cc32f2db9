import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadequery import ConfigurationError, FormatError, ValidationError, tensor
from cascadequery.model import FeaturePyramid
from cascadequery.sparse import (KeySet, build_rulebook, conv2d, dilate, gather, relu,
                                 sparse_conv)
from cascadequery.tensor import ConvWeights, sigmoid_above, sigmoid_array

from conftest import as_map, conv3x3_f64, level_rows


def conv_oracle(x, w, b):
    """Zero-padded 3x3 convolution, written as the four nested loops it is
    defined by, accumulated in float64."""
    out_c, in_c, k, _ = w.shape
    _, h, wd = x.shape
    r = k // 2
    out = np.zeros((out_c, h, wd), dtype=np.float64)
    for o in range(out_c):
        acc = np.full((h, wd), float(b[o]), dtype=np.float64)
        for c in range(in_c):
            for ky in range(k):
                for kx in range(k):
                    for y in range(h):
                        for xx in range(wd):
                            sy, sx = y + ky - r, xx + kx - r
                            if 0 <= sy < h and 0 <= sx < wd:
                                acc[y, xx] += float(w[o, c, ky, kx]) * float(x[c, sy, sx])
        out[o] = acc
    return out


def random_case(rng, out_c, in_c, h, w):
    x = rng.standard_normal((in_c, h, w)).astype(np.float32)
    ww = rng.standard_normal((out_c, in_c, 3, 3)).astype(np.float32)
    b = rng.standard_normal(out_c).astype(np.float32)
    return x, ww, b


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 3, 4, 5), (3, 2, 7, 3), (4, 4, 5, 5)])
def test_conv2d_matches_loop_oracle(shape):
    out_c, in_c, h, w = shape
    rng = np.random.default_rng(shape)
    x, ww, b = random_case(rng, out_c, in_c, h, w)
    got = as_map(conv2d(level_rows(x), ConvWeights(ww, b)))
    want = conv_oracle(x, ww, b)
    assert got.shape == (out_c, h, w)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_conv2d_delta_kernel_is_identity():
    # a kernel that is 1 at its center tap and 0 elsewhere copies the input
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 7)).astype(np.float32)
    ww = np.zeros((2, 2, 3, 3), dtype=np.float32)
    ww[0, 0, 1, 1] = 1.0
    ww[1, 1, 1, 1] = 1.0
    got = conv2d(level_rows(x), ConvWeights(ww, np.zeros(2, dtype=np.float32)))
    np.testing.assert_array_equal(as_map(got), x)


def test_conv2d_is_linear_in_the_input():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 6, 6)).astype(np.float32)
    b = rng.standard_normal((3, 6, 6)).astype(np.float32)
    ww = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
    zero_bias = ConvWeights(ww, np.zeros(2, dtype=np.float32))
    lhs = conv2d(level_rows(a + b), zero_bias).features
    rhs = conv2d(level_rows(a), zero_bias).features + conv2d(level_rows(b), zero_bias).features
    np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-5)


def test_conv2d_shift_equivariance_in_the_interior():
    rng = np.random.default_rng(5)
    x = np.zeros((1, 9, 9), dtype=np.float32)
    x[:, 2:5, 2:5] = rng.standard_normal((1, 3, 3)).astype(np.float32)
    ww = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
    w = ConvWeights(ww, np.zeros(1, dtype=np.float32))
    base = as_map(conv2d(level_rows(x), w))
    shifted = as_map(conv2d(level_rows(np.roll(x, (2, 1), axis=(1, 2))), w))
    np.testing.assert_allclose(shifted[:, 3:8, 2:7], base[:, 1:6, 1:6], rtol=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    out_c=st.integers(1, 3),
    in_c=st.integers(1, 3),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_conv2d_oracle_property(out_c, in_c, h, w, seed):
    rng = np.random.default_rng(seed)
    x, ww, b = random_case(rng, out_c, in_c, h, w)
    got = as_map(conv2d(level_rows(x), ConvWeights(ww, b)))
    np.testing.assert_allclose(got, conv_oracle(x, ww, b), rtol=1e-4, atol=1e-4)


# table lengths on either side of conv_rows' row-block boundaries
BLOCK_EDGES = [tensor.BLOCK_ROWS - 1, tensor.BLOCK_ROWS, tensor.BLOCK_ROWS + 1,
               3 * tensor.BLOCK_ROWS + 5]


def grid_of(cells):
    """The squarest H x W grid of `cells` cells (1 x cells for a prime)."""
    h = max(d for d in range(1, math.isqrt(cells) + 1) if cells % d == 0)
    return h, cells // h


@pytest.mark.parametrize("cells", BLOCK_EDGES)
def test_conv2d_matches_float64_oracle_across_row_blocks(cells):
    rng = np.random.default_rng(cells)
    x, ww, b = random_case(rng, 5, 3, *grid_of(cells))
    got = as_map(conv2d(level_rows(x), ConvWeights(ww, b)))
    np.testing.assert_allclose(got, conv3x3_f64(x, ww, b), rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("cells", BLOCK_EDGES)
def test_sparse_conv_over_the_full_grid_is_bitwise_conv2d_across_row_blocks(cells):
    h, wd = grid_of(cells)
    rng = np.random.default_rng(cells + 1)
    x, ww, b = random_case(rng, 5, 3, h, wd)
    w, full = ConvWeights(ww, b), KeySet.full(0, h, wd)
    dense = conv2d(level_rows(x), w)
    sparse = sparse_conv(gather(level_rows(x), full), w, build_rulebook(full))
    np.testing.assert_array_equal(sparse.features, gather(dense, full).features)


def test_conv_rows_over_an_empty_table_returns_no_rows():
    w = ConvWeights(np.ones((5, 3, 3, 3), dtype=np.float32), np.ones(5, dtype=np.float32))
    out = tensor.conv_rows(np.ones((4, 3), dtype=np.float32), w, np.zeros((0, 9), dtype=np.int64))
    assert out.shape == (0, 5) and out.dtype == np.float32


@pytest.mark.parametrize("parts", [(8, 4), (4, 4, 4), (3, 9)])
def test_a_fused_conv_computes_each_part_as_that_part_alone(parts):
    # one gather serves every part, and each part's GEMM is its own, so its
    # rows carry the bits of the part run as a conv of its own width
    x, ww, b = random_case(np.random.default_rng(11), sum(parts), 4, 23, 29)
    inp = level_rows(x)
    fused = conv2d(inp, ConvWeights(ww, b, parts)).features
    start = 0
    for width in parts:
        alone = conv2d(inp, ConvWeights(ww[start:start + width], b[start:start + width]))
        np.testing.assert_array_equal(fused[:, start:start + width], alone.features)
        start += width
    np.testing.assert_allclose(fused, conv2d(inp, ConvWeights(ww, b)).features,
                               rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("parts", [(4,), (8, 5), (12, 0), (13, -1)])
def test_conv_parts_must_split_the_output_channels(parts):
    with pytest.raises(ConfigurationError, match="parts"):
        ConvWeights(np.zeros((12, 2, 3, 3), dtype=np.float32), np.zeros(12, dtype=np.float32),
                    parts)


def test_conv2d_holds_one_row_block_of_gather_at_a_time():
    # beyond its padded input rows and its output rows, the kernel holds one
    # block's (BLOCK_ROWS, 9C) gather, never the (N, 9C) matrix of all rows
    c, out_c, h, wd = 16, 16, 64, 64
    n = h * wd
    assert n >= 8 * tensor.BLOCK_ROWS
    x, ww, b = random_case(np.random.default_rng(9), out_c, c, h, wd)
    inp, w = level_rows(x), ConvWeights(ww, b)
    conv2d(inp, w)  # the cached table and taps are built outside the measurement
    tracemalloc.start()
    try:
        conv2d(inp, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = ((n + 1) * c + n * out_c) * 4
    one_block = tensor.BLOCK_ROWS * 9 * c * 4
    ufunc_buffers = 64 * 1024  # NumPy's fixed-size ufunc buffers, whatever n is
    assert peak < rows + one_block + ufunc_buffers < n * 9 * c * 4


@pytest.mark.parametrize("conv", ["conv2d", "sparse_conv"])
def test_a_conv_fed_by_relu_reads_its_rows_uncopied(conv):
    # relu writes its rows into a padded buffer, so the conv holds its output
    # rows and one block's gather, never another (N + 1, C) buffer
    c, out_c, h, wd = 16, 16, 64, 64
    n = h * wd
    x, ww, b = random_case(np.random.default_rng(9), out_c, c, h, wd)
    inp, w = relu(level_rows(x)), ConvWeights(ww, b)
    if conv == "conv2d":
        run = lambda: conv2d(inp, w)
    else:
        rb = build_rulebook(inp.keys)  # the full grid: the two share a table
        run = lambda: sparse_conv(inp, w, rb)
    want = run().features  # the cached table and taps are built outside the measurement
    tracemalloc.start()
    try:
        got = run().features
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = n * out_c * 4
    one_block = tensor.BLOCK_ROWS * 9 * c * 4
    ufunc_buffers = 64 * 1024  # NumPy's fixed-size ufunc buffers, whatever n is
    assert peak < out + one_block + ufunc_buffers < out + (n + 1) * c * 4
    # and the rows are the ones a copy of the input gives
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, conv2d(level_rows(np.maximum(x, 0.0)), w).features)


def test_conv2d_output_is_channel_last_rows(tmp_path):
    # the GEMM's (H * W, C) rows at the input's keys, in row-major cell order
    rng = np.random.default_rng(7)
    x, ww, b = random_case(rng, 4, 3, 5, 6)
    inp = level_rows(x)
    got = conv2d(inp, ConvWeights(ww, b))
    assert got.keys is inp.keys and got.features.shape == (30, 4)
    assert got.features.flags.c_contiguous
    # and a container writes their transpose in (C, H, W) order
    path, magic = tmp_path / "t.bin", b"TESTMAG\n"
    tensor.write_container(path, magic, {}, [got.features.T])
    np.testing.assert_array_equal(tensor.ContainerReader(path, magic).take([4, 5, 6], "t"),
                                  as_map(got))


def test_container_payloads_are_writable_views_of_one_private_map(tmp_path):
    path, magic = tmp_path / "t.bin", b"TESTMAG\n"
    tensor.write_container(path, magic, {"n": 1}, [np.arange(6, dtype=np.float32),
                                                   np.ones(2, dtype=np.float32)])
    r = tensor.ContainerReader(path, magic)
    a, b = r.take([2, 3], "a"), r.take([2], "b")
    r.finish()
    # b starts where a ends: both view the file's bytes, no copy of either
    assert a.ctypes.data + a.nbytes == b.ctypes.data
    assert a.flags.writeable and a.dtype == np.float32
    a[0, 0] = -1.0
    np.testing.assert_array_equal(tensor.ContainerReader(path, magic).take([2, 3], "a"),
                                  np.arange(6, dtype=np.float32).reshape(2, 3))


def test_an_empty_container_file_fails_the_magic_check(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="bad magic"):
        tensor.ContainerReader(path, b"TESTMAG\n")


def test_chained_conv2d_and_relu_match_loop_oracle():
    rng = np.random.default_rng(8)
    x, w1, b1 = random_case(rng, 4, 3, 6, 5)
    _, w2, b2 = random_case(rng, 2, 4, 6, 5)
    got = as_map(relu(conv2d(relu(conv2d(level_rows(x), ConvWeights(w1, b1))),
                             ConvWeights(w2, b2))))
    mid = np.maximum(conv_oracle(x, w1, b1), 0.0)
    want = np.maximum(conv_oracle(mid, w2, b2), 0.0)
    assert got.shape == (2, 6, 5)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_conv2d_builds_each_grid_shape_table_once():
    # conv2d, build_rulebook and dilate all read the one cached table, so a
    # grid shape costs one build however many of them run on it
    tensor.neighbour_table.cache_clear()
    rng = np.random.default_rng(6)
    x, ww, b = random_case(rng, 2, 3, 6, 5)
    first = conv2d(level_rows(x), ConvWeights(ww, b)).features
    second = conv2d(level_rows(x), ConvWeights(ww, b)).features
    keys = KeySet(2, 6, 5, [11, 29])  # (1, 2), (4, 5)
    build_rulebook(dilate(keys), keys)
    assert tensor.neighbour_table.cache_info().misses == 1
    np.testing.assert_array_equal(first, second)
    conv2d(level_rows(x[:, :4]), ConvWeights(ww, b))
    assert tensor.neighbour_table.cache_info().misses == 2


def test_cached_conv2d_table_is_read_only():
    conv2d(level_rows(np.zeros((1, 4, 3), dtype=np.float32)),
           ConvWeights(np.zeros((1, 1, 3, 3), dtype=np.float32), np.zeros(1, dtype=np.float32)))
    table = tensor.neighbour_table(4, 3)
    assert table.shape == (12, 9)
    with pytest.raises(ValueError):
        table[0, 0] = 0


def test_conv2d_rejects_channel_mismatch():
    x = np.zeros((2, 3, 3), dtype=np.float32)
    ww = np.zeros((1, 3, 3, 3), dtype=np.float32)
    with pytest.raises(ConfigurationError):
        conv2d(level_rows(x), ConvWeights(ww, np.zeros(1, dtype=np.float32)))


def test_conv2d_rejects_non_finite_input():
    x = np.zeros((1, 3, 3), dtype=np.float32)
    x[0, 1, 1] = np.nan
    ww = np.zeros((1, 1, 3, 3), dtype=np.float32)
    with pytest.raises(ValidationError):
        conv2d(level_rows(x), ConvWeights(ww, np.zeros(1, dtype=np.float32)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["weights", "bias"])
def test_conv_weights_reject_non_finite_values(part, bad):
    ww = np.zeros((2, 1, 3, 3), dtype=np.float32)
    bias = np.zeros(2, dtype=np.float32)
    (ww if part == "weights" else bias).flat[-1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        ConvWeights(ww, bias)


@pytest.mark.parametrize("wshape,bias_len", [
    ((2, 1, 1, 1), 2),   # 1x1: the cost model charges every conv 9 taps
    ((2, 1, 5, 5), 2),
    ((2, 1, 3, 1), 2),
    ((2, 1, 3), 2),
    ((2, 1, 3, 3), 3),
])
def test_conv_weights_reject_shapes_other_than_3x3(wshape, bias_len):
    with pytest.raises(ConfigurationError):
        ConvWeights(np.zeros(wshape, dtype=np.float32), np.zeros(bias_len, dtype=np.float32))


def test_relu_clamps_negatives_only():
    x = np.array([[[-1.5, 0.0], [2.0, -0.0]]], dtype=np.float32)
    out = as_map(relu(level_rows(x)))
    np.testing.assert_array_equal(out, [[[0.0, 0.0], [2.0, 0.0]]])


def test_sigmoid_matches_float64_reference():
    x = np.linspace(-30, 30, 101, dtype=np.float32)
    want = (1.0 / (1.0 + np.exp(-x.astype(np.float64)))).astype(np.float32)
    np.testing.assert_array_equal(sigmoid_array(x), want)


def test_sigmoid_extremes_do_not_overflow():
    # exp(-1e4) underflowing to zero is the graceful saturation path, so only
    # overflow/invalid are promoted to errors here.
    x = np.array([-1e4, -88.0, 0.0, 88.0, 1e4], dtype=np.float32)
    with np.errstate(over="raise", invalid="raise"):
        out = sigmoid_array(x)
    assert out[0] == 0.0 and out[-1] == 1.0
    assert out[2] == 0.5
    assert np.all(np.isfinite(out)) and np.all((out >= 0.0) & (out <= 1.0))


@pytest.mark.parametrize("threshold", [0.0, 0.05, 0.15, 0.5, 0.95, 1.0])
def test_sigmoid_above_agrees_with_the_sigmoid_away_from_saturation(threshold):
    x = np.linspace(-30, 30, 4001, dtype=np.float32)
    np.testing.assert_array_equal(sigmoid_above(x, threshold), sigmoid_array(x) > threshold)


def test_sigmoid_above_keeps_saturated_logits_at_the_ends():
    # sigmoid_array rounds these to exactly 0.0 and 1.0 in float32
    x = np.array([-1e30, -200.0, 200.0, 1e30], dtype=np.float32)
    assert sigmoid_above(x, 0.0).all()
    assert not sigmoid_above(x, 1.0).any()


@pytest.mark.parametrize("threshold", [0.05, 0.15, 0.3, 0.7, 0.9])
def test_sigmoid_above_compares_with_the_cut_in_float64(threshold):
    # the float32 values next to the cut pass exactly when they exceed it in
    # float64, also where the cut rounded to float32 would say otherwise
    cut = math.log(threshold / (1.0 - threshold))
    near = np.float32(cut)
    x = np.array([np.nextafter(near, np.float32(-np.inf)), near,
                  np.nextafter(near, np.float32(np.inf))], dtype=np.float32)
    np.testing.assert_array_equal(sigmoid_above(x, threshold), x.astype(np.float64) > cut)


def test_pyramid_map_rejects_bad_rank():
    with pytest.raises(ValidationError, match=r"must be \(C, H, W\)"):
        FeaturePyramid.from_maps(12, 12, {0: np.zeros((12, 12), dtype=np.float32)})
