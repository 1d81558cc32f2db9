import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from cascadequery import (
    Blob,
    ConfigurationError,
    FeaturePyramid,
    FormatError,
    GroundTruthObject,
    HeadOutput,
    ValidationError,
    level_dims,
    load_pyramid,
    load_weights,
    make_fixture_weights,
    make_synthetic_pyramid,
    run_dense_head,
    run_sparse_head,
    save_pyramid,
    save_weights,
)
from cascadequery import tensor
from cascadequery.model import (BRANCHES, RECEPTIVE_FIELD, SUBNETS, TOWER_DEPTH,
                                head_flops_dense, head_flops_sparse)
from cascadequery.query import _schedule
from cascadequery.sparse import KeySet, SparseFeature, build_rulebook, gather
from cascadequery.tensor import ConvWeights

from conftest import as_map, conv3x3_f64, dense_rows_at, level_rows, standard_weights


def small_pyramid(seed=0, image=64, channels=8, blobs=()):
    return make_synthetic_pyramid(seed, image, image, 2, 5, channels, list(blobs))


def test_level_dims_ceil_law():
    assert level_dims(512, 512, 2) == (128, 128)
    assert level_dims(512, 512, 7) == (4, 4)
    assert level_dims(500, 300, 3) == (63, 38)
    assert level_dims(500, 300, 5) == (16, 10)
    assert level_dims(1, 1, 7) == (1, 1)


def test_pyramid_validates_level_shapes():
    levels = {2: level_rows(np.zeros((4, 16, 16), dtype=np.float32), 2)}
    with pytest.raises(ConfigurationError, match="expected"):
        FeaturePyramid(60, 64, levels)  # a 60px side has 15 rows at level 2


@pytest.mark.parametrize("keys", [
    KeySet(2, 16, 16, np.arange(255)),  # one cell short of the grid
    KeySet.full(3, 16, 16),             # the full grid, of another level
], ids=["cell-missing", "other-level"])
def test_pyramid_level_rows_sit_at_its_full_grid(keys):
    level = SparseFeature(keys, np.zeros((len(keys), 4), dtype=np.float32))
    with pytest.raises(ConfigurationError, match="level 2 rows are not at its full grid"):
        FeaturePyramid(64, 64, {2: level})


def test_pyramid_validates_channel_agreement():
    levels = {
        2: level_rows(np.zeros((4, 16, 16), dtype=np.float32), 2),
        3: level_rows(np.zeros((3, 8, 8), dtype=np.float32), 3),
    }
    with pytest.raises(ConfigurationError, match="channel"):
        FeaturePyramid(64, 64, levels)


@pytest.mark.parametrize("levels,message", [
    pytest.param({-1: (128, 128)}, "level -1 lies outside [0, 30]", id="level-negative"),
    pytest.param({31: (1, 1)}, "level 31 lies outside [0, 30]", id="level-31"),
    pytest.param({2: (16, 16), 4: (4, 4)}, "levels [2, 4] are not consecutive", id="levels-gap"),
])
def test_pyramid_is_a_consecutive_run_of_levels_in_0_to_30(levels, message):
    tensors = {l: level_rows(np.zeros((1, *hw), dtype=np.float32), l) for l, hw in levels.items()}
    with pytest.raises(ConfigurationError) as exc:
        FeaturePyramid(64, 64, tensors)
    assert message in str(exc.value)


def test_synthetic_pyramid_reaches_levels_0_and_1():
    blob = Blob(cx=3.0, cy=2.0, width=2.0, height=2.0, amplitude=50.0)
    pyr = make_synthetic_pyramid(0, 6, 5, 0, 1, 2, [blob])
    maps = {l: as_map(t) for l, t in pyr.levels.items()}
    assert {l: m.shape for l, m in maps.items()} == {0: (2, 6, 5), 1: (2, 3, 3)}
    assert maps[0][:, 2, 3].max() > 25.0 and maps[1][:, 1, 1].max() > 25.0


def test_synthetic_pyramid_is_deterministic():
    blob = Blob(cx=30.0, cy=30.0, width=8.0, height=8.0, amplitude=10.0)
    a = small_pyramid(seed=5, blobs=[blob])
    b = small_pyramid(seed=5, blobs=[blob])
    c = small_pyramid(seed=6, blobs=[blob])
    for l in a.levels:
        np.testing.assert_array_equal(a.levels[l].features, b.levels[l].features)
    assert not np.array_equal(a.levels[2].features, c.levels[2].features)


def test_synthetic_pyramid_plants_a_peak_at_every_level():
    blob = Blob(cx=32.0, cy=32.0, width=6.0, height=6.0, amplitude=50.0)
    pyr = small_pyramid(seed=1, blobs=[blob])
    for l, t in pyr.levels.items():
        gx, gy = 32 >> l, 32 >> l
        assert as_map(t)[:, gy, gx].max() > 25.0, f"no bump at level {l}"


@pytest.mark.parametrize("cx", [-0.5, -3.9, 64.0])
def test_synthetic_pyramid_plants_nothing_for_an_off_image_center(cx):
    # the center's cell is floor(cx / 2^l), which lies off the grid for a
    # center left or right of the image, so no level changes
    blob = Blob(cx=cx, cy=30.0, width=6.0, height=6.0, amplitude=50.0)
    plain, planted = small_pyramid(seed=3), small_pyramid(seed=3, blobs=[blob])
    for l in plain.levels:
        np.testing.assert_array_equal(planted.levels[l].features, plain.levels[l].features)


def test_fixture_weights_shapes_and_prior_bias():
    w = make_fixture_weights(0, 16, 2, 5)
    assert w.channels == 16
    assert w.cls_pred.out_channels == 10
    assert w.reg_pred.out_channels == 8
    assert w.query_pred.out_channels == 1
    prior = -math.log(99.0)  # sigmoid(prior) == 0.01
    np.testing.assert_allclose(w.cls_pred.bias, prior, rtol=1e-6)
    np.testing.assert_allclose(w.query_pred.bias, prior, rtol=1e-6)
    np.testing.assert_array_equal(w.reg_pred.bias, 0.0)


def test_head_weights_validation_catches_bad_tower():
    w = make_fixture_weights(0, 8, 1, 4)
    bad_tower = list(w.cls_tower[:-1])  # one conv short
    with pytest.raises(ConfigurationError, match="tower"):
        type(w)(bad_tower, w.reg_tower, w.query_tower,
                w.cls_pred, w.reg_pred, w.query_pred, 1, 4)


def _bad_conv(out_c, in_c):
    return ConvWeights(np.zeros((out_c, in_c, 3, 3), dtype=np.float32),
                       np.zeros(out_c, dtype=np.float32))


@pytest.mark.parametrize("branch", ["cls", "reg", "query"])
@pytest.mark.parametrize("field,conv,message", [
    ("tower", lambda w, b: [*getattr(w, f"{b}_tower")[:3], _bad_conv(8, 4)],
     "{b} tower convs must map 8->8"),
    ("pred", lambda w, b: _bad_conv(getattr(w, f"{b}_pred").out_channels, 4),
     "{b}_pred must take 8 input channels"),
    ("pred", lambda w, b: _bad_conv(3, 8), "{b}_pred must emit"),
], ids=["tower-conv-shape", "pred-input", "pred-output"])
def test_head_weights_validation_names_the_branch(branch, field, conv, message):
    w = make_fixture_weights(0, 8, 1, 4)
    with pytest.raises(ConfigurationError, match=message.format(b=branch)):
        dataclasses.replace(w, **{f"{branch}_{field}": conv(w, branch)})


def test_blob_is_a_ground_truth_object_plus_its_amplitude():
    blob = Blob(40.0, 52.0, 7.0, 9.0, 1, 32.0)
    assert isinstance(blob, GroundTruthObject)
    assert (blob.class_id, blob.amplitude, blob.max_side) == (1, 32.0, 9.0)
    assert blob.to_json() == {"cx": 40.0, "cy": 52.0, "w": 7.0, "h": 9.0, "class": 1}
    assert Blob(1.0, 2.0, 3.0, 4.0).amplitude == 8.0


@pytest.mark.parametrize("kwargs,message", [
    ({"class_id": -1}, "class"), ({"width": 0.0}, "sides"), ({"cx": math.nan}, "finite"),
    ({"amplitude": math.inf}, "amplitude"), ({"amplitude": math.nan}, "amplitude"),
    ({"amplitude": 10**400}, "amplitude"),  # an int past float range, not an OverflowError
], ids=["class-negative", "width-zero", "cx-nan", "amplitude-inf", "amplitude-nan",
        "amplitude-huge-int"])
def test_blob_runs_the_object_checks_and_its_own(kwargs, message):
    fields = {"cx": 10.0, "cy": 10.0, "width": 5.0, "height": 5.0} | kwargs
    with pytest.raises(ValidationError, match=message):
        Blob(**fields)


def test_dense_head_output_shapes():
    w = make_fixture_weights(3, 8, 2, 3)
    feature = level_rows(np.random.default_rng(0).standard_normal((8, 6, 7)).astype(np.float32))
    out = run_dense_head(feature, w)
    # the computed rows, at the feature's own full-grid keys
    assert out.keys is feature.keys
    assert out.cls_logits.features.shape == (42, 6)
    assert out.reg_deltas.features.shape == (42, 8)
    assert out.query_logits.features.shape == (42, 1)


def test_untrained_scores_start_near_the_prior():
    # on pure noise the prior bias keeps sigmoid scores close to 0.01
    pyr = small_pyramid(seed=2)
    w = make_fixture_weights(2, 8, 1, 4)
    feature = pyr.levels[3]
    out = run_dense_head(feature, w)
    scores = 1.0 / (1.0 + np.exp(-out.query_logits.features.astype(np.float64)))
    assert np.median(scores) < 0.05


def test_sparse_head_matches_dense_head_on_full_grid():
    pyr = small_pyramid(seed=4)
    w = make_fixture_weights(5, 8, 1, 4)
    feature = pyr.levels[4]
    ks = KeySet.full(4, feature.height, feature.width)
    dense = run_dense_head(feature, w)
    sparse = run_sparse_head(gather(feature, ks), w)
    for d, s in ((dense.cls_logits, sparse.cls_logits),
                 (dense.reg_deltas, sparse.reg_deltas),
                 (dense.query_logits, sparse.query_logits)):
        np.testing.assert_allclose(s.features, dense_rows_at(d, ks), rtol=2e-4, atol=1e-5)


def test_sparse_head_accepts_prebuilt_rulebook():
    pyr = small_pyramid(seed=4)
    w = make_fixture_weights(5, 8, 1, 4)
    feature = pyr.levels[4]
    wd = feature.width
    ks = KeySet(4, feature.height, wd, [0, wd + 1, wd + 2])  # (0, 0), (1, 1), (2, 1)
    vf = gather(feature, ks)
    a = run_sparse_head(vf, w)
    b = run_sparse_head(vf, w, build_rulebook(ks))
    c = run_sparse_head(vf, w, [build_rulebook(ks)] * (TOWER_DEPTH + 1))
    np.testing.assert_array_equal(a.cls_logits.features, b.cls_logits.features)
    np.testing.assert_array_equal(a.cls_logits.features, c.cls_logits.features)
    with pytest.raises(ConfigurationError, match="schedule"):
        run_sparse_head(vf, w, [build_rulebook(ks)] * TOWER_DEPTH)


def test_stem_is_the_three_first_tower_convs_in_branch_order():
    w = make_fixture_weights(5, 8, 1, 4)
    stem = w.stem
    assert stem is w.stem  # built once
    assert (stem.out_channels, stem.in_channels) == (len(BRANCHES) * 8, 8)
    for i, name in enumerate(BRANCHES):
        first = getattr(w, f"{name}_tower")[0]
        np.testing.assert_array_equal(stem.weights[8 * i:8 * (i + 1)], first.weights)
        np.testing.assert_array_equal(stem.bias[8 * i:8 * (i + 1)], first.bias)


def test_subnet_stem_is_the_cls_and_reg_first_convs_and_the_stem_keeps_them_apart():
    w = make_fixture_weights(5, 8, 1, 4)
    sub = w.subnet_stem
    assert sub is w.subnet_stem  # built once
    assert (sub.out_channels, sub.in_channels) == (len(SUBNETS) * 8, 8)
    np.testing.assert_array_equal(sub.weights, w.stem.weights[:16])
    np.testing.assert_array_equal(sub.bias, w.stem.bias[:16])
    # the 3C stem multiplies cls and reg as one part, the 2C stem's, and the
    # query conv as another
    assert w.stem.parts == (16, 8) and sub.parts == ()


# widths at which a GEMM's rounding has changed with its width on some BLAS
# builds (4, 6-10, 12 and 24), and a few around them
GEMM_WIDTHS = [1, 4, 6, 8, 9, 12, 16, 24]


@pytest.mark.parametrize("channels", GEMM_WIDTHS)
def test_subnet_stem_is_the_stems_own_cls_and_reg_part(channels):
    # the structural guard on `ConvWeights.parts`: whether the rows test below
    # sees a missing part depends on the rows, and it misses one at some widths
    w = make_fixture_weights(5, channels, 1, 4)
    assert w.stem.parts == (2 * channels, channels)
    (cols, taps), _ = w.stem.taps
    assert cols == slice(0, 2 * channels)
    np.testing.assert_array_equal(taps, w.subnet_stem.taps[0][1])
    assert np.shares_memory(w.subnet_stem.weights, w.stem.weights)
    assert np.shares_memory(w.subnet_stem.bias, w.stem.bias)


@pytest.mark.parametrize("channels", GEMM_WIDTHS)
@pytest.mark.parametrize("head", ["dense", "sparse"])
def test_cls_and_reg_rows_do_not_depend_on_the_query_branch(channels, head):
    # a GEMM's rounding can change with its width, so the subnets' bits are
    # those of their own GEMM in both passes (`ConvWeights.parts`); the 24x24
    # level's rows span more than one row block
    feature = small_pyramid(seed=4, image=96, channels=channels).levels[2]
    w = make_fixture_weights(5, channels, 1, 4)
    if head == "dense":
        run = lambda query: run_dense_head(feature, w, query=query)
    else:
        ks = KeySet(2, 24, 24, np.flatnonzero(np.arange(24 * 24) % 5))
        vf = gather(feature, ks)
        run = lambda query: run_sparse_head(vf, w, query=query)
    full, subnets = run(True), run(False)
    assert full.branches == BRANCHES and full.query_logits is not None
    assert subnets.branches == SUBNETS and subnets.query_logits is None
    assert list(subnets.branch_rows()) == ["cls_logits", "reg_deltas"]
    assert subnets.keys is subnets.reg_deltas.keys
    np.testing.assert_array_equal(subnets.cls_logits.features, full.cls_logits.features)
    np.testing.assert_array_equal(subnets.reg_deltas.features, full.reg_deltas.features)


def test_the_cost_rule_charges_the_branches_that_run():
    # per cell, C=8, A=2, K=3: towers 4 * 9 * 8 * 8 per branch, predictors
    # 9 * 8 * (6 + 8) for cls and reg and 9 * 8 * 1 for the query logit
    two = head_flops_dense(1, 1, 8, 2, 3, query=False)
    three = head_flops_dense(1, 1, 8, 2, 3)
    assert two == 2 * 4 * 9 * 8 * 8 + 9 * 8 * 14
    assert three - two == 4 * 9 * 8 * 8 + 9 * 8 * 1
    assert head_flops_sparse([5, 4, 3, 2, 1], 8, 2, 3, query=False) == 8 * (2 * 8 * 14 + 14 * 1)
    with pytest.raises(TypeError):  # the flag is keyword-only: a branch count is not read as it
        head_flops_dense(1, 1, 8, 2, 3, 2)


def unfused_head_f64(feature, w, mask=1.0):
    """The head branch by branch, each with its own first conv, in float64:
    (cls, reg, query) maps of shape (out, H, W). A 0/1 cell mask makes every
    conv read and keep only the masked cells, as a submanifold head does."""
    maps = []
    for tower, pred in w.branches:
        x = as_map(feature).astype(np.float64) * mask
        for conv in tower:
            x = np.maximum(conv3x3_f64(x, conv.weights, conv.bias), 0.0) * mask
        maps.append(conv3x3_f64(x, pred.weights, pred.bias))
    return maps


@pytest.mark.parametrize("head", ["dense", "csq", "cq"])
def test_stem_heads_match_an_unfused_float64_head(head):
    # a 32x32 level, 1024 rows, and a 17x17 key square, 289 rows: both span
    # more than one of conv_rows' row blocks
    feature = small_pyramid(seed=4, image=128).levels[2]
    w = make_fixture_weights(5, 8, 1, 4)
    h, wd = feature.height, feature.width
    ys, xs = np.mgrid[6:23, 4:21]
    keys = KeySet(2, h, wd, (ys * wd + xs).ravel())
    assert h * wd > tensor.BLOCK_ROWS and len(keys) > tensor.BLOCK_ROWS
    mask = 1.0
    if head == "dense":
        keys = KeySet.full(2, h, wd)
        out = run_dense_head(feature, w)
    elif head == "csq":  # one submanifold rulebook for every conv
        mask = np.zeros((h, wd))
        mask[keys.ys, keys.xs] = 1.0
        out = run_sparse_head(gather(feature, keys), w, build_rulebook(keys))
    else:  # one rulebook per conv, each a ring narrower, down to the keys
        books = _schedule(keys, RECEPTIVE_FIELD // 2)
        out = run_sparse_head(gather(feature, books[0].inputs), w, books)
    assert out.keys == keys
    for got, want in zip((out.cls_logits, out.reg_deltas, out.query_logits),
                         unfused_head_f64(feature, w, mask)):
        np.testing.assert_allclose(got.features, want[:, keys.ys, keys.xs].T, rtol=0, atol=1e-4)


def test_head_output_rejects_mixed_density():
    pyr = small_pyramid(seed=4)
    w = make_fixture_weights(5, 8, 1, 4)
    feature = pyr.levels[4]
    dense = run_dense_head(feature, w)
    ks = KeySet(4, feature.height, feature.width, [0])
    sparse = run_sparse_head(gather(feature, ks), w)
    with pytest.raises(ValidationError):
        HeadOutput(dense.cls_logits, sparse.reg_deltas, dense.query_logits)


def test_head_output_requires_one_shared_keyset():
    pyr = small_pyramid(seed=4)
    w = make_fixture_weights(5, 8, 1, 4)
    feature = pyr.levels[4]
    out_a = run_sparse_head(gather(feature, KeySet(4, feature.height, feature.width, [0])), w)
    out_b = run_sparse_head(gather(feature, KeySet(4, feature.height, feature.width, [1])), w)
    with pytest.raises(ValidationError):
        HeadOutput(out_a.cls_logits, out_a.reg_deltas, out_b.query_logits)


# --- containers ----------------------------------------------------------------

def test_pyramid_roundtrip(tmp_path):
    pyr = small_pyramid(seed=7)
    p = tmp_path / "pyr.qdpyr"
    save_pyramid(pyr, p)
    back = load_pyramid(p)
    assert back.image_height == pyr.image_height
    assert sorted(back.levels) == sorted(pyr.levels)
    for l in pyr.levels:
        np.testing.assert_array_equal(back.levels[l].features, pyr.levels[l].features)
        assert back.levels[l].keys == KeySet.full(l, pyr.levels[l].height, pyr.levels[l].width)


def test_loaded_level_rows_view_the_channel_major_payload(tmp_path):
    # QDPYR1 stores each level as a (C, H, W) map; the loaded rows are that
    # map viewed as (H * W, C), with no transposing copy
    p = tmp_path / "pyr.qdpyr"
    save_pyramid(small_pyramid(seed=7), p)
    for level in load_pyramid(p).levels.values():
        payload = as_map(level)
        assert payload.flags.c_contiguous and np.shares_memory(payload, level.features)
        assert level.features.shape == (level.height * level.width, 8)


def test_pyramid_save_is_byte_stable(tmp_path):
    pyr = small_pyramid(seed=7)
    a, b = tmp_path / "a.qdpyr", tmp_path / "b.qdpyr"
    save_pyramid(pyr, a)
    save_pyramid(pyr, b)
    assert a.read_bytes() == b.read_bytes()


def test_container_bytes_are_pinned(tmp_path):
    # the on-disk layout of both containers, fixed by sha256
    pyr = make_synthetic_pyramid(11, 64, 64, 2, 5, 4, [Blob(20.0, 30.0, 6.0, 6.0)])
    save_pyramid(pyr, tmp_path / "p.qdpyr")
    save_weights(make_fixture_weights(5, 4, 2, 3), tmp_path / "w.qdwts")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("p.qdpyr", "w.qdwts")}
    assert digests == {
        "p.qdpyr": "a0b85e5389f16f14b717b275164f47e19c5515a92fc46d7b737a2d8081dd8df5",
        "w.qdwts": "0641316a737eb01d0539338b5aada2a093e9d22f83a3c3b8c8f172632396534a",
    }


def test_weights_roundtrip(tmp_path):
    w = standard_weights(16)
    p = tmp_path / "w.qdwts"
    save_weights(w, p)
    back = load_weights(p)
    assert back.num_anchors == w.num_anchors
    assert back.num_classes == w.num_classes
    np.testing.assert_array_equal(back.cls_tower[2].weights, w.cls_tower[2].weights)
    np.testing.assert_array_equal(back.query_pred.bias, w.query_pred.bias)


def test_load_pyramid_rejects_wrong_magic(tmp_path):
    w = standard_weights(16)
    p = tmp_path / "w.qdwts"
    save_weights(w, p)
    with pytest.raises(FormatError, match="magic"):
        load_pyramid(p)  # weights container under the pyramid loader


def test_load_weights_rejects_non_finite_values_naming_the_conv(tmp_path):
    p = tmp_path / "w.qdwts"
    save_weights(standard_weights(16), p)
    data = bytearray(p.read_bytes())
    data[-8:-4] = struct.pack("<f", float("nan"))  # last tap of query_pred's kernel
    p.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="query_pred"):
        load_weights(p)


def test_load_weights_reports_truncation_with_path(tmp_path):
    w = standard_weights(16)
    p = tmp_path / "w.qdwts"
    save_weights(w, p)
    p.write_bytes(p.read_bytes()[:100])
    with pytest.raises(FormatError, match="w.qdwts"):
        load_weights(p)
