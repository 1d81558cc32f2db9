import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadequery import ValidationError
from cascadequery.sparse import (
    KeySet,
    SparseFeature,
    build_rulebook,
    gather,
    scatter,
    sparse_conv,
    sparse_relu,
)
from cascadequery.tensor import ConvWeights, DenseTensor, conv2d

from conftest import dense_rows_at


def keyset(pairs, h=8, w=8, level=3):
    return KeySet(level, h, w, pairs)


# --- key sets -----------------------------------------------------------------

def test_keyset_sorts_and_dedupes():
    ks = keyset([(3, 1), (0, 0), (3, 1), (1, 0)])
    assert ks.as_tuples() == [(0, 0), (1, 0), (3, 1)]
    assert len(ks) == 3


def test_keyset_rejects_out_of_bounds():
    with pytest.raises(ValidationError):
        keyset([(8, 0)], h=8, w=8)
    with pytest.raises(ValidationError):
        keyset([(0, -1)])


def test_keyset_full_and_empty():
    full = KeySet.full(2, 3, 4)
    assert len(full) == 12
    assert full.as_tuples()[:4] == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert len(KeySet.empty(2, 3, 4)) == 0


def test_keyset_equality_includes_bounds():
    assert keyset([(1, 1)]) == keyset([(1, 1)])
    assert keyset([(1, 1)], h=8, w=8) != keyset([(1, 1)], h=8, w=9)


# --- rulebook -----------------------------------------------------------------

def test_rulebook_single_key_has_center_entry_only():
    rb = build_rulebook(keyset([(4, 4)]))
    assert rb.num_entries == 1
    assert rb.entries() == [(0, 0, 4)]


def test_rulebook_adjacent_pair():
    # (0,0) and (1,0): each sees itself plus its horizontal neighbor. Key 0
    # reads key 1 through the (dy,dx)=(0,+1) tap (offset 5) and vice versa.
    rb = build_rulebook(keyset([(0, 0), (1, 0)]))
    assert rb.num_entries == 4
    assert set(rb.entries()) == {(0, 0, 4), (1, 1, 4), (0, 1, 5), (1, 0, 3)}


def test_rulebook_offset_geometry():
    # key (2,3) reads key (1,2) through the (dy,dx)=(-1,-1) tap, offset 0
    rb = build_rulebook(keyset([(1, 2), (2, 3)]))
    assert (1, 0, 0) in rb.entries()
    assert (0, 1, 8) in rb.entries()


def test_rulebook_full_grid_entry_count():
    # with every position active the pair count is the zero-padded tap count
    for h, w in [(1, 1), (2, 5), (5, 9), (7, 3)]:
        rb = build_rulebook(KeySet.full(2, h, w))
        assert rb.num_entries == (3 * h - 2) * (3 * w - 2)


def test_rulebook_isolated_keys_have_one_entry_each():
    ks = keyset([(0, 0), (4, 0), (0, 4), (6, 6)])
    assert build_rulebook(ks).num_entries == 4


# --- gather / scatter -----------------------------------------------------------

def test_gather_scatter_roundtrip():
    rng = np.random.default_rng(0)
    dense = DenseTensor(rng.standard_normal((3, 6, 5)).astype(np.float32))
    ks = keyset([(0, 0), (4, 2), (2, 5)], h=6, w=5)
    sf = gather(dense, ks)
    assert sf.features.shape == (3, 3)
    back = scatter(sf, 6, 5)
    np.testing.assert_array_equal(back.values[:, ks.ys, ks.xs], sf.features.T)
    mask = np.ones((6, 5), dtype=bool)
    mask[ks.ys, ks.xs] = False
    assert (back.values[:, mask] == 0).all()


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
    # predictor shapes too
    rng = np.random.default_rng(2)
    for in_c, out_c, h, w, k in [(4, 3, 7, 9, 3), (16, 16, 12, 10, 3), (16, 5, 1, 6, 3),
                                 (64, 64, 9, 11, 3), (64, 1, 8, 8, 3), (16, 16, 5, 7, 1)]:
        dense = DenseTensor(rng.standard_normal((in_c, h, w)).astype(np.float32))
        conv = ConvWeights(rng.standard_normal((out_c, in_c, k, k)).astype(np.float32),
                           rng.standard_normal(out_c).astype(np.float32))
        ks = KeySet.full(3, h, w)
        got = sparse_conv(gather(dense, ks), conv, build_rulebook(ks))
        want = dense_rows_at(conv2d(dense, conv), ks)
        np.testing.assert_array_equal(got.features, want, err_msg=f"{(in_c, out_c, h, w, k)}")


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
    densified = scatter(sf, 6, 7)
    want = dense_rows_at(conv2d(densified, w), ks)
    np.testing.assert_allclose(got.features, want, rtol=1e-5, atol=1e-5)


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
    want = dense_rows_at(conv2d(scatter(sf, h, w), w_), ks)
    np.testing.assert_allclose(got.features, want, rtol=1e-4, atol=1e-4)
