import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadequery import ValidationError, tensor
from cascadequery.sparse import (
    KeySet,
    SparseFeature,
    build_rulebook,
    dilate,
    gather,
    sparse_conv,
    sparse_relu,
)
from cascadequery.tensor import ConvWeights, DenseTensor, conv2d

from conftest import dilate_by


def keyset(pairs, h=8, w=8, level=3):
    return KeySet(level, h, w, pairs)


# --- key sets -----------------------------------------------------------------

def test_keyset_sorts_and_dedupes():
    ks = keyset([(3, 1), (0, 0), (3, 1), (1, 0)])
    assert ks.as_tuples() == [(0, 0), (1, 0), (3, 1)]
    assert len(ks) == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=30), st.booleans())
def test_keyset_is_canonical_whatever_the_input_order(pairs, presorted):
    want = sorted(set(pairs), key=lambda p: (p[1], p[0]))
    src = np.array(want if presorted else pairs, dtype=np.int64).reshape(-1, 2)
    ks = KeySet(0, 5, 7, src)
    assert ks.as_tuples() == want
    src[...] = 0  # the set keeps its own copy of the positions
    assert ks.as_tuples() == want


def test_keyset_rejects_out_of_bounds():
    with pytest.raises(ValidationError):
        keyset([(8, 0)], h=8, w=8)
    with pytest.raises(ValidationError):
        keyset([(0, -1)])


def test_keyset_full_and_empty():
    full = KeySet.full(2, 3, 4)
    assert len(full) == 12
    assert full.as_tuples()[:4] == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert len(KeySet(2, 3, 4)) == 0


def test_keyset_equality_includes_bounds():
    assert keyset([(1, 1)]) == keyset([(1, 1)])
    assert keyset([(1, 1)], h=8, w=8) != keyset([(1, 1)], h=8, w=9)


# --- dilation -----------------------------------------------------------------

def chebyshev_oracle(keys, radius):
    """Every grid cell within Chebyshev distance `radius` of a key, row-major."""
    pairs = keys.as_tuples()
    return [(x, y) for y in range(keys.height) for x in range(keys.width)
            if any(max(abs(x - kx), abs(y - ky)) <= radius for kx, ky in pairs)]


@pytest.mark.parametrize("h,w", [(7, 9), (11, 5), (1, 13), (13, 1), (9, 9)])
@pytest.mark.parametrize("radius", [1, 2, 5, 12])
def test_dilate_matches_the_chebyshev_oracle_with_keys_on_every_border(h, w, radius):
    rng = np.random.default_rng([h, w, radius])
    border = [(0, h // 2), (w - 1, h // 3), (w // 2, 0), (w // 3, h - 1)]
    inner = rng.integers(0, [w, h], size=(3, 2)).tolist()
    keys = KeySet(4, h, w, border + inner)
    got = dilate_by(keys, radius)
    assert (got.level, got.height, got.width) == (4, h, w)
    assert got.as_tuples() == chebyshev_oracle(keys, radius)


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), radius=st.integers(0, 6),
       data=st.data())
def test_dilate_matches_the_chebyshev_oracle_on_random_key_sets(h, w, radius, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                               max_size=8))
    keys = KeySet(2, h, w, pairs)
    # the oracle lists cells row-major, so equality also checks canonical order
    assert dilate_by(keys, radius).as_tuples() == chebyshev_oracle(keys, radius)


def test_dilate_by_zero_keeps_the_keys_and_an_empty_set_stays_empty():
    empty = KeySet(3, 8, 8)
    assert len(dilate(empty)) == 0
    assert dilate(empty) == empty


def test_rows_of_finds_each_key_in_a_superset():
    big = KeySet.full(3, 4, 5)
    sub = keyset([(4, 3), (0, 0), (2, 1)], h=4, w=5)
    rows = big.rows_of(sub)
    assert [tuple(p) for p in big.positions[rows].tolist()] == sub.as_tuples()
    assert big.rows_of(KeySet(3, 4, 5)).tolist() == []


def test_rows_of_rejects_keys_outside_the_set_or_grid():
    some = keyset([(1, 1), (3, 2)])
    with pytest.raises(ValidationError, match="subset"):
        some.rows_of(keyset([(1, 1), (2, 2)]))
    with pytest.raises(ValidationError, match="subset"):
        some.rows_of(keyset([(7, 7)]))
    with pytest.raises(ValidationError, match="grid"):
        some.rows_of(keyset([(1, 1)], h=9))


# --- rulebook -----------------------------------------------------------------

def test_rulebook_single_key_has_center_entry_only():
    rb = build_rulebook(keyset([(4, 4)]))
    assert rb.num_entries == 1
    # only the centre tap (offset 4) finds a key, itself; the rest read the
    # zero row, index len(keys)
    assert rb.table.tolist() == [[1, 1, 1, 1, 0, 1, 1, 1, 1]]


def test_rulebook_adjacent_pair():
    # (0,0) and (1,0): each sees itself plus its horizontal neighbor. Key 0
    # reads key 1 through the (dy,dx)=(0,+1) tap (offset 5) and vice versa.
    rb = build_rulebook(keyset([(0, 0), (1, 0)]))
    assert rb.num_entries == 4
    assert rb.table.tolist() == [[2, 2, 2, 2, 0, 1, 2, 2, 2],
                                 [2, 2, 2, 0, 1, 2, 2, 2, 2]]


def test_rulebook_offset_geometry():
    # key (2,3) reads key (1,2) through the (dy,dx)=(-1,-1) tap, offset 0
    rb = build_rulebook(keyset([(1, 2), (2, 3)]))
    assert rb.table[1, 0] == 0
    assert rb.table[0, 8] == 1


def test_rulebook_full_grid_entry_count():
    # with every position active the pair count is the zero-padded tap count
    for h, w in [(1, 1), (2, 5), (5, 9), (7, 3)]:
        rb = build_rulebook(KeySet.full(2, h, w))
        assert rb.num_entries == (3 * h - 2) * (3 * w - 2)


def test_rulebook_isolated_keys_have_one_entry_each():
    ks = keyset([(0, 0), (4, 0), (0, 4), (6, 6)])
    assert build_rulebook(ks).num_entries == 4


def test_rulebook_reads_an_input_set_apart_from_its_output_set():
    # output (1, 1) reads inputs (0, 0) and (2, 1) through taps 0 and 5;
    # output (4, 4) has no input neighbour and reads only the zero row
    rb = build_rulebook(keyset([(1, 1), (4, 4)]), keyset([(0, 0), (2, 1), (6, 6)]))
    assert rb.num_entries == 2
    assert rb.table.tolist() == [[0, 3, 3, 3, 3, 1, 3, 3, 3], [3] * 9]
    with pytest.raises(ValidationError, match="level"):
        build_rulebook(keyset([(1, 1)]), keyset([(1, 1)], h=9))


def rulebook_oracle(keys, inputs):
    """Row of the input at each tap of each output key, taps in (ky, kx)
    order, or len(inputs) where the neighbour is off the grid or no input."""
    row = {p: n for n, p in enumerate(inputs.as_tuples())}
    return [[row.get((x + kx - 1, y + ky - 1), len(inputs))
             for ky in range(3) for kx in range(3)] for x, y in keys.as_tuples()]


# 1x1, 1xN, Nx1 and N x M grids, drawn about equally often
GRIDS = st.one_of(st.just((1, 1)), st.tuples(st.just(1), st.integers(2, 9)),
                  st.tuples(st.integers(2, 9), st.just(1)),
                  st.tuples(st.integers(2, 9), st.integers(2, 9)))


@settings(max_examples=80, deadline=None)
@given(grid=GRIDS, data=st.data())
def test_rulebook_matches_a_per_tap_lookup_on_random_grids(grid, data):
    h, w = grid
    cells = st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)), max_size=20)
    keys, inputs = (KeySet(2, h, w, data.draw(cells)) for _ in range(2))
    rb = build_rulebook(keys, inputs)
    assert rb.table.tolist() == rulebook_oracle(keys, inputs)
    assert rb.num_entries == sum(n < len(inputs) for r in rb.table.tolist() for n in r)


# --- gather ---------------------------------------------------------------------

def test_gather_scatter_roundtrip():
    rng = np.random.default_rng(0)
    dense = DenseTensor(rng.standard_normal((3, 6, 5)).astype(np.float32))
    ks = keyset([(0, 0), (4, 2), (2, 5)], h=6, w=5)
    sf = gather(dense, ks)
    assert sf.features.shape == (3, 3)
    back = np.zeros((3, 6, 5), dtype=np.float32)
    back[:, ks.ys, ks.xs] = sf.features.T
    mask = np.zeros((6, 5), dtype=np.float32)
    mask[ks.ys, ks.xs] = 1.0
    np.testing.assert_array_equal(back, dense.values * mask)


def test_gather_rows_follow_key_order():
    dense = DenseTensor(np.arange(24, dtype=np.float32).reshape(1, 4, 6))
    ks = keyset([(5, 3), (0, 0), (2, 1)], h=4, w=6)
    sf = gather(dense, ks)
    # canonical order is (0,0), (2,1), (5,3)
    np.testing.assert_array_equal(sf.features[:, 0], [0.0, 8.0, 23.0])


# --- submanifold convolution ----------------------------------------------------

def rand_conv(rng, out_c, in_c):
    return ConvWeights(
        rng.standard_normal((out_c, in_c, 3, 3)).astype(np.float32),
        rng.standard_normal(out_c).astype(np.float32),
    )


def test_sparse_conv_keeps_the_active_set():
    rng = np.random.default_rng(1)
    ks = keyset([(1, 1), (2, 1), (5, 6)])
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
        dense = DenseTensor(rng.standard_normal((in_c, h, w)).astype(np.float32))
        conv = ConvWeights(rng.standard_normal((out_c, in_c, 3, 3)).astype(np.float32),
                           rng.standard_normal(out_c).astype(np.float32))
        ks = KeySet.full(3, h, w)
        got = sparse_conv(gather(dense, ks), conv, build_rulebook(ks))
        for _ in range(2):
            want = conv2d(dense, conv).values[:, ks.ys, ks.xs].T
            np.testing.assert_array_equal(got.features, want, err_msg=f"{(in_c, out_c, h, w)}")


def test_sparse_conv_single_key_is_center_tap_only():
    rng = np.random.default_rng(3)
    ks = keyset([(3, 2)])
    x = rng.standard_normal((1, 5)).astype(np.float32)
    w = rand_conv(rng, 2, 5)
    out = sparse_conv(SparseFeature(ks, x), w, build_rulebook(ks))
    want = x @ w.weights[:, :, 1, 1].T + w.bias
    np.testing.assert_allclose(out.features, want, rtol=1e-6)


def test_sparse_conv_far_keys_do_not_interact():
    rng = np.random.default_rng(4)
    ks = keyset([(1, 1), (6, 6)])
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
    ks = keyset([(0, 0), (1, 0), (4, 3), (5, 3), (5, 4)], h=6, w=7)
    sf = SparseFeature(ks, rng.standard_normal((5, 3)).astype(np.float32))
    w = rand_conv(rng, 4, 3)
    got = sparse_conv(sf, w, build_rulebook(ks))
    densified = np.zeros((3, 6, 7), dtype=np.float32)
    densified[:, ks.ys, ks.xs] = sf.features.T
    want = conv2d(DenseTensor(densified), w).values[:, ks.ys, ks.xs].T
    np.testing.assert_allclose(got.features, want, rtol=1e-5, atol=1e-5)


def test_sparse_conv_writes_at_the_output_set():
    # a halo shrinking by one cell: the rows at the output set equal a dense
    # conv of the input rows on a zero canvas
    rng = np.random.default_rng(9)
    outputs = keyset([(0, 0), (3, 2), (7, 7)])
    inputs = dilate(outputs)
    sf = SparseFeature(inputs, rng.standard_normal((len(inputs), 3)).astype(np.float32))
    w = rand_conv(rng, 2, 3)
    got = sparse_conv(sf, w, build_rulebook(outputs, inputs))
    assert got.keys is outputs
    densified = np.zeros((3, 8, 8), dtype=np.float32)
    densified[:, inputs.ys, inputs.xs] = sf.features.T
    want = conv2d(DenseTensor(densified), w).values[:, outputs.ys, outputs.xs].T
    np.testing.assert_allclose(got.features, want, rtol=1e-5, atol=1e-5)


def test_sparse_conv_rejects_rows_off_the_input_set():
    rng = np.random.default_rng(10)
    outputs = keyset([(3, 2)])
    inputs = dilate(outputs)
    rb = build_rulebook(outputs, inputs)
    w = rand_conv(rng, 2, 3)
    for keys in (outputs, dilate_by(outputs, 2), keyset([(3, 2)], h=9)):
        sf = SparseFeature(keys, rng.standard_normal((len(keys), 3)).astype(np.float32))
        with pytest.raises(ValidationError, match="input key set"):
            sparse_conv(sf, w, rb)


def test_sparse_conv_rejects_foreign_rulebook():
    rng = np.random.default_rng(6)
    ks_a = keyset([(1, 1)])
    ks_b = keyset([(2, 2)])
    sf = SparseFeature(ks_a, rng.standard_normal((1, 3)).astype(np.float32))
    with pytest.raises(ValidationError):
        sparse_conv(sf, rand_conv(rng, 1, 3), build_rulebook(ks_b))


def test_rulebook_reuse_is_equivalent_to_rebuilding():
    rng = np.random.default_rng(7)
    ks = keyset([(1, 1), (2, 1), (2, 2), (6, 5)])
    w1, w2 = rand_conv(rng, 3, 3), rand_conv(rng, 3, 3)
    sf = SparseFeature(ks, rng.standard_normal((4, 3)).astype(np.float32))
    rb = build_rulebook(ks)
    chained = sparse_conv(sparse_conv(sf, w1, rb), w2, rb)
    fresh = sparse_conv(sparse_conv(sf, w1, build_rulebook(ks)), w2, build_rulebook(ks))
    np.testing.assert_array_equal(chained.features, fresh.features)


def test_sparse_relu_matches_dense_relu():
    rng = np.random.default_rng(8)
    ks = keyset([(0, 0), (3, 3)])
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
    ys, xs = np.nonzero(mask)
    ks = KeySet(2, h, w, np.stack([xs, ys], axis=1))
    sf = SparseFeature(ks, rng.standard_normal((len(ks), 2)).astype(np.float32))
    w_ = rand_conv(rng, 2, 2)
    got = sparse_conv(sf, w_, build_rulebook(ks))
    densified = np.zeros((2, h, w), dtype=np.float32)
    densified[:, ks.ys, ks.xs] = sf.features.T
    want = conv2d(DenseTensor(densified), w_).values[:, ks.ys, ks.xs].T
    np.testing.assert_allclose(got.features, want, rtol=1e-4, atol=1e-4)
