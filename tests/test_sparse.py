import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadequery import ValidationError, tensor
from cascadequery.sparse import (
    KeySet,
    SparseFeature,
    build_rulebook,
    conv2d,
    dilate,
    gather,
    sparse_conv,
    sparse_relu,
)
from cascadequery.tensor import ConvWeights

from conftest import as_map, dilate_by, level_rows


def keyset(cells, h=8, w=8, level=3):
    """Key set of flat cells y * w + x."""
    return KeySet(level, h, w, cells)


# --- key sets -----------------------------------------------------------------

def test_keyset_sorts_and_dedupes():
    ks = keyset([11, 0, 11, 1])
    assert ks.cells.tolist() == [0, 1, 11]
    assert ks.to_json() == [[0, 0], [1, 0], [3, 1]]
    assert len(ks) == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5 * 7 - 1), max_size=30), st.booleans())
def test_keyset_is_canonical_whatever_the_input_order(cells, presorted):
    want = sorted(set(cells))
    src = np.array(want if presorted else cells, dtype=np.int64)
    ks = KeySet(0, 5, 7, src)
    assert ks.cells.tolist() == want
    flat = np.array(want, dtype=np.int64)
    np.testing.assert_array_equal(ks.positions, np.stack([flat % 7, flat // 7], axis=1))
    assert ks.positions.shape == (len(want), 2)
    assert ks.to_json() == [[c % 7, c // 7] for c in want]
    src[...] = 0  # the set keeps its own copy of the cells
    assert ks.cells.tolist() == want


def test_keyset_rejects_out_of_bounds():
    with pytest.raises(ValidationError):
        keyset([8 * 8], h=8, w=8)
    with pytest.raises(ValidationError):
        keyset([-1])


def test_keyset_full_and_empty():
    full = KeySet.full(2, 3, 4)
    assert len(full) == 12
    assert full.cells.tolist() == list(range(12))
    assert full.to_json()[:4] == [[0, 0], [1, 0], [2, 0], [3, 0]]
    assert len(KeySet(2, 3, 4)) == 0


def test_keyset_equality_includes_bounds():
    assert keyset([9]) == keyset([9])
    assert keyset([9], h=8, w=8) != keyset([9], h=8, w=9)


# --- dilation -----------------------------------------------------------------

def chebyshev_oracle(keys, radius):
    """Every grid cell within Chebyshev distance `radius` of a key, row-major."""
    pairs = keys.to_json()
    return [[x, y] for y in range(keys.height) for x in range(keys.width)
            if any(max(abs(x - kx), abs(y - ky)) <= radius for kx, ky in pairs)]


@pytest.mark.parametrize("h,w", [(7, 9), (11, 5), (1, 13), (13, 1), (9, 9)])
@pytest.mark.parametrize("radius", [1, 2, 5, 12])
def test_dilate_matches_the_chebyshev_oracle_with_keys_on_every_border(h, w, radius):
    rng = np.random.default_rng([h, w, radius])
    # one key on each border: left, right, top and bottom
    border = [h // 2 * w, h // 3 * w + w - 1, w // 2, (h - 1) * w + w // 3]
    inner = rng.integers(0, h * w, size=3).tolist()
    keys = KeySet(4, h, w, border + inner)
    got = dilate_by(keys, radius)
    assert (got.level, got.height, got.width) == (4, h, w)
    assert got.to_json() == chebyshev_oracle(keys, radius)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), radius=st.integers(0, 6),
       data=st.data())
def test_dilate_matches_the_chebyshev_oracle_on_random_key_sets(h, w, radius, data):
    keys = KeySet(2, h, w, data.draw(st.lists(st.integers(0, h * w - 1), max_size=8)))
    # the oracle lists cells row-major, so equality also checks canonical order
    assert dilate_by(keys, radius).to_json() == chebyshev_oracle(keys, radius)


def test_dilate_by_zero_keeps_the_keys_and_an_empty_set_stays_empty():
    empty = KeySet(3, 8, 8)
    assert len(dilate(empty)) == 0
    assert dilate(empty) == empty


def test_rows_of_finds_each_key_in_a_superset():
    big = KeySet.full(3, 4, 5)
    sub = keyset([19, 0, 7], h=4, w=5)
    rows = big.rows_of(sub)
    assert big.positions[rows].tolist() == sub.to_json()
    assert big.rows_of(KeySet(3, 4, 5)).tolist() == []


def test_rows_of_rejects_keys_outside_the_set_or_grid():
    some = keyset([9, 19])
    with pytest.raises(ValidationError, match="subset"):
        some.rows_of(keyset([9, 18]))
    with pytest.raises(ValidationError, match="subset"):
        some.rows_of(keyset([63]))
    with pytest.raises(ValidationError, match="grid"):
        some.rows_of(keyset([9], h=9))


# --- rulebook -----------------------------------------------------------------

def test_rulebook_single_key_has_center_entry_only():
    rb = build_rulebook(keyset([36]))  # (4, 4)
    assert rb.num_entries == 1
    # only the centre tap (offset 4) finds a key, itself; the rest read the
    # zero row, index len(keys)
    assert rb.table.tolist() == [[1, 1, 1, 1, 0, 1, 1, 1, 1]]


def test_rulebook_adjacent_pair():
    # (0,0) and (1,0): each sees itself plus its horizontal neighbor. Key 0
    # reads key 1 through the (dy,dx)=(0,+1) tap (offset 5) and vice versa.
    rb = build_rulebook(keyset([0, 1]))
    assert rb.num_entries == 4
    assert rb.table.tolist() == [[2, 2, 2, 2, 0, 1, 2, 2, 2],
                                 [2, 2, 2, 0, 1, 2, 2, 2, 2]]


def test_rulebook_offset_geometry():
    # key (2,3) reads key (1,2) through the (dy,dx)=(-1,-1) tap, offset 0
    rb = build_rulebook(keyset([17, 26]))
    assert rb.table[1, 0] == 0
    assert rb.table[0, 8] == 1


def test_rulebook_full_grid_entry_count():
    # with every position active the pair count is the zero-padded tap count
    for h, w in [(1, 1), (2, 5), (5, 9), (7, 3)]:
        rb = build_rulebook(KeySet.full(2, h, w))
        assert rb.num_entries == (3 * h - 2) * (3 * w - 2)


def test_rulebook_isolated_keys_have_one_entry_each():
    ks = keyset([0, 4, 32, 54])  # (0, 0), (4, 0), (0, 4), (6, 6)
    assert build_rulebook(ks).num_entries == 4


def test_rulebook_reads_an_input_set_apart_from_its_output_set():
    # output (1, 1) reads inputs (0, 0) and (2, 1) through taps 0 and 5;
    # output (4, 4) has no input neighbour and reads only the zero row
    rb = build_rulebook(keyset([9, 36]), keyset([0, 10, 54]))
    assert rb.num_entries == 2
    assert rb.table.tolist() == [[0, 3, 3, 3, 3, 1, 3, 3, 3], [3] * 9]
    with pytest.raises(ValidationError, match="level"):
        build_rulebook(keyset([9]), keyset([9], h=9))


def rulebook_oracle(keys, inputs):
    """Row of the input at each tap of each output key, taps in (ky, kx)
    order, or len(inputs) where the neighbour is off the grid or no input."""
    row = {tuple(p): n for n, p in enumerate(inputs.to_json())}
    return [[row.get((x + kx - 1, y + ky - 1), len(inputs))
             for ky in range(3) for kx in range(3)] for x, y in keys.to_json()]


# 1x1, 1xN, Nx1 and N x M grids, drawn about equally often
GRIDS = st.one_of(st.just((1, 1)), st.tuples(st.just(1), st.integers(2, 9)),
                  st.tuples(st.integers(2, 9), st.just(1)),
                  st.tuples(st.integers(2, 9), st.integers(2, 9)))


@settings(max_examples=80, deadline=None)
@given(grid=GRIDS, data=st.data())
def test_rulebook_matches_a_per_tap_lookup_on_random_grids(grid, data):
    h, w = grid
    cells = st.lists(st.integers(0, h * w - 1), max_size=20)
    keys, inputs = (KeySet(2, h, w, data.draw(cells)) for _ in range(2))
    rb = build_rulebook(keys, inputs)
    assert rb.table.tolist() == rulebook_oracle(keys, inputs)
    assert rb.num_entries == sum(n < len(inputs) for r in rb.table.tolist() for n in r)


# --- gather ---------------------------------------------------------------------

def test_gather_scatter_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 6, 5)).astype(np.float32)
    dense = level_rows(x)
    ks = keyset([0, 14, 27], h=6, w=5)
    sf = gather(dense, ks)
    assert sf.features.shape == (3, 3)
    back = np.zeros((3, 6, 5), dtype=np.float32)
    back[:, ks.ys, ks.xs] = sf.features.T
    mask = np.zeros((6, 5), dtype=np.float32)
    mask[ks.ys, ks.xs] = 1.0
    np.testing.assert_array_equal(back, x * mask)


def test_gather_rows_follow_key_order():
    dense = level_rows(np.arange(24, dtype=np.float32).reshape(1, 4, 6))
    ks = keyset([23, 0, 8], h=4, w=6)
    sf = gather(dense, ks)
    # canonical order is cells 0, 8, 23: (0,0), (2,1), (5,3)
    np.testing.assert_array_equal(sf.features[:, 0], [0.0, 8.0, 23.0])


def test_sparse_feature_keeps_a_column_slice_uncopied():
    # the head hands each branch a column slice of the stem's rows, and a
    # level's rows are a transposed view of its map: neither is copied
    rows = np.arange(48, dtype=np.float32).reshape(4, 12)
    ks = keyset([0, 5, 9, 63])
    sf = SparseFeature(ks, rows[:, 4:8])
    assert np.shares_memory(sf.features, rows)
    np.testing.assert_array_equal(sf.features, rows[:, 4:8])
    level = level_rows(np.zeros((3, 8, 8), dtype=np.float32))
    assert (level.height, level.width, level.channels) == (8, 8, 3)


def test_full_grid_ops_reject_rows_off_the_full_grid():
    # gather and conv2d read a cell as its own row, which holds only when the
    # rows cover the whole grid
    ks = keyset([0, 5, 9])
    sf = SparseFeature(ks, np.zeros((3, 2), dtype=np.float32))
    w = ConvWeights(np.zeros((1, 2, 3, 3), dtype=np.float32), np.zeros(1, dtype=np.float32))
    with pytest.raises(ValidationError, match="do not cover the 8x8 grid"):
        conv2d(sf, w)
    with pytest.raises(ValidationError, match="do not cover the 8x8 grid"):
        gather(sf, keyset([5]))


# --- submanifold convolution ----------------------------------------------------

def rand_conv(rng, out_c, in_c):
    return ConvWeights(
        rng.standard_normal((out_c, in_c, 3, 3)).astype(np.float32),
        rng.standard_normal(out_c).astype(np.float32),
    )


def test_sparse_conv_keeps_the_active_set():
    rng = np.random.default_rng(1)
    ks = keyset([9, 10, 53])
    sf = SparseFeature(ks, rng.standard_normal((3, 4)).astype(np.float32))
    out = sparse_conv(sf, rand_conv(rng, 2, 4), build_rulebook(ks))
    assert out.keys is ks
    assert out.features.shape == (3, 2)


def test_sparse_conv_full_grid_equals_dense_conv():
    # both paths run the same kernel over the same neighbour table, so with
    # every position active they agree to the bit, at the head's tower and
    # predictor shapes too; each shape runs twice, so conv2d's table is
    # checked both freshly built and taken from its per-shape cache
    tensor.neighbour_table.cache_clear()
    rng = np.random.default_rng(2)
    for in_c, out_c, h, w in [(4, 3, 7, 9), (16, 16, 12, 10), (16, 5, 1, 6),
                              (64, 64, 9, 11), (64, 1, 8, 8), (4, 3, 1, 1), (4, 3, 7, 1)]:
        dense = level_rows(rng.standard_normal((in_c, h, w)).astype(np.float32), 3)
        conv = ConvWeights(rng.standard_normal((out_c, in_c, 3, 3)).astype(np.float32),
                           rng.standard_normal(out_c).astype(np.float32))
        ks = KeySet.full(3, h, w)
        got = sparse_conv(gather(dense, ks), conv, build_rulebook(ks))
        for _ in range(2):
            want = as_map(conv2d(dense, conv))[:, ks.ys, ks.xs].T
            np.testing.assert_array_equal(got.features, want, err_msg=f"{(in_c, out_c, h, w)}")


def test_sparse_conv_single_key_is_center_tap_only():
    rng = np.random.default_rng(3)
    ks = keyset([19])
    x = rng.standard_normal((1, 5)).astype(np.float32)
    w = rand_conv(rng, 2, 5)
    out = sparse_conv(SparseFeature(ks, x), w, build_rulebook(ks))
    want = x @ w.weights[:, :, 1, 1].T + w.bias
    np.testing.assert_allclose(out.features, want, rtol=1e-6)


def test_sparse_conv_far_keys_do_not_interact():
    rng = np.random.default_rng(4)
    ks = keyset([9, 54])
    x = rng.standard_normal((2, 3)).astype(np.float32)
    w = rand_conv(rng, 2, 3)
    rb = build_rulebook(ks)
    base = sparse_conv(SparseFeature(ks, x), w, rb)
    bumped = x.copy()
    bumped[1] += 100.0
    moved = sparse_conv(SparseFeature(ks, bumped), w, rb)
    np.testing.assert_array_equal(base.features[0], moved.features[0])
    assert not np.array_equal(base.features[1], moved.features[1])


def test_sparse_conv_inactive_neighbors_match_zero_padding():
    # densify the sparse input with zeros: a dense conv over that map must agree
    # at the keys, because missing neighbors contribute zero either way
    rng = np.random.default_rng(5)
    ks = keyset([0, 1, 25, 26, 33], h=6, w=7)
    sf = SparseFeature(ks, rng.standard_normal((5, 3)).astype(np.float32))
    w = rand_conv(rng, 4, 3)
    got = sparse_conv(sf, w, build_rulebook(ks))
    densified = np.zeros((3, 6, 7), dtype=np.float32)
    densified[:, ks.ys, ks.xs] = sf.features.T
    want = as_map(conv2d(level_rows(densified), w))[:, ks.ys, ks.xs].T
    np.testing.assert_allclose(got.features, want, rtol=1e-5, atol=1e-5)


def test_sparse_conv_writes_at_the_output_set():
    # a halo shrinking by one cell: the rows at the output set equal a dense
    # conv of the input rows on a zero canvas
    rng = np.random.default_rng(9)
    outputs = keyset([0, 19, 63])
    inputs = dilate(outputs)
    sf = SparseFeature(inputs, rng.standard_normal((len(inputs), 3)).astype(np.float32))
    w = rand_conv(rng, 2, 3)
    got = sparse_conv(sf, w, build_rulebook(outputs, inputs))
    assert got.keys is outputs
    densified = np.zeros((3, 8, 8), dtype=np.float32)
    densified[:, inputs.ys, inputs.xs] = sf.features.T
    want = as_map(conv2d(level_rows(densified), w))[:, outputs.ys, outputs.xs].T
    np.testing.assert_allclose(got.features, want, rtol=1e-5, atol=1e-5)


def test_sparse_conv_rejects_rows_off_the_input_set():
    rng = np.random.default_rng(10)
    outputs = keyset([19])
    inputs = dilate(outputs)
    rb = build_rulebook(outputs, inputs)
    w = rand_conv(rng, 2, 3)
    for keys in (outputs, dilate_by(outputs, 2), keyset([19], h=9)):
        sf = SparseFeature(keys, rng.standard_normal((len(keys), 3)).astype(np.float32))
        with pytest.raises(ValidationError, match="input key set"):
            sparse_conv(sf, w, rb)


def test_sparse_conv_rejects_foreign_rulebook():
    rng = np.random.default_rng(6)
    ks_a = keyset([9])
    ks_b = keyset([18])
    sf = SparseFeature(ks_a, rng.standard_normal((1, 3)).astype(np.float32))
    with pytest.raises(ValidationError):
        sparse_conv(sf, rand_conv(rng, 1, 3), build_rulebook(ks_b))


def test_rulebook_reuse_is_equivalent_to_rebuilding():
    rng = np.random.default_rng(7)
    ks = keyset([9, 10, 18, 46])
    w1, w2 = rand_conv(rng, 3, 3), rand_conv(rng, 3, 3)
    sf = SparseFeature(ks, rng.standard_normal((4, 3)).astype(np.float32))
    rb = build_rulebook(ks)
    chained = sparse_conv(sparse_conv(sf, w1, rb), w2, rb)
    fresh = sparse_conv(sparse_conv(sf, w1, build_rulebook(ks)), w2, build_rulebook(ks))
    np.testing.assert_array_equal(chained.features, fresh.features)


def test_sparse_relu_matches_dense_relu():
    rng = np.random.default_rng(8)
    ks = keyset([0, 27])
    x = rng.standard_normal((2, 4)).astype(np.float32)
    out = sparse_relu(SparseFeature(ks, x))
    np.testing.assert_array_equal(out.features, np.maximum(x, 0.0))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    density=st.floats(0.1, 1.0),
)
def test_sparse_conv_agrees_with_masked_dense(seed, h, w, density):
    """Submanifold closure + zero padding, across random active sets."""
    rng = np.random.default_rng(seed)
    mask = rng.random((h, w)) < density
    if not mask.any():
        mask[0, 0] = True
    ks = KeySet(2, h, w, np.flatnonzero(mask))
    sf = SparseFeature(ks, rng.standard_normal((len(ks), 2)).astype(np.float32))
    w_ = rand_conv(rng, 2, 2)
    got = sparse_conv(sf, w_, build_rulebook(ks))
    densified = np.zeros((2, h, w), dtype=np.float32)
    densified[:, ks.ys, ks.xs] = sf.features.T
    want = as_map(conv2d(level_rows(densified), w_))[:, ks.ys, ks.xs].T
    np.testing.assert_allclose(got.features, want, rtol=1e-4, atol=1e-4)
