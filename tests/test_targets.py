import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadequery import (
    ConfigurationError,
    FormatError,
    GroundTruthObject,
    GroundTruthSet,
    LossConfig,
    TargetMaps,
    ValidationError,
    beta_schedule,
    distance_map,
    focal_loss,
    is_small_for_level,
    level_loss,
    level_scale,
    query_target_for_level,
    small_centers_on_grid,
    smooth_l1,
    total_loss,
)


def gt_of(objects, image=512):
    return GroundTruthSet(image, image, objects)


def obj(cx, cy, side=10.0, cls=0):
    return GroundTruthObject(cx, cy, side, side, cls)


# --- geometry --------------------------------------------------------------------

def test_level_scale_doubles_per_level():
    assert level_scale(2) == 16.0
    assert level_scale(3) == 32.0


def test_small_for_level_is_strict():
    # s_3 = 32: a 32px object is not small, a hair under is
    assert not is_small_for_level(obj(0, 0, side=32.0), 3)
    assert is_small_for_level(obj(0, 0, side=31.999), 3)
    assert is_small_for_level(GroundTruthObject(0, 0, 31.0, 32.0), 3) is False


def test_small_centers_floor_projection():
    gt = gt_of([obj(100.0, 100.0, side=12.0), obj(67.9, 36.2, side=12.0)])
    pts = small_centers_on_grid(gt, 2)
    np.testing.assert_array_equal(pts, [[25.0, 25.0], [16.0, 9.0]])


def test_small_centers_respect_the_size_gate():
    gt = gt_of([obj(100.0, 100.0, side=12.0), obj(200.0, 200.0, side=40.0)])
    assert len(small_centers_on_grid(gt, 2)) == 1  # 40px is not small at s_2=16
    assert len(small_centers_on_grid(gt, 4)) == 2  # both under s_4=64


def test_distance_map_345_triangle():
    gt = gt_of([obj(0.4, 0.4, side=10.0)], image=32)  # grid cell (0, 0) at level 2
    d = distance_map(gt, 2)
    assert d.shape == (8, 8)
    assert d[0, 0] == 0.0
    assert d[4, 3] == 5.0  # 3-4-5
    assert d[0, 1] == 1.0


def test_distance_map_is_pointwise_min_over_objects():
    objs = [obj(30.0, 50.0), obj(400.0, 310.0), obj(211.0, 77.0)]
    joint = distance_map(gt_of(objs), 3)
    singles = [distance_map(gt_of([o]), 3) for o in objs]
    np.testing.assert_array_equal(joint, np.minimum.reduce(singles))


def test_distance_map_empty_is_infinite():
    d = distance_map(gt_of([], image=16), 2)
    assert d.shape == (4, 4) and np.isinf(d).all()
    assert query_target_for_level(gt_of([], image=16), 2).sum() == 0


def test_distance_map_object_order_does_not_matter():
    objs = [obj(30.0, 50.0), obj(400.0, 310.0), obj(211.0, 77.0)]
    a = distance_map(gt_of(objs), 2)
    b = distance_map(gt_of(objs[::-1]), 2)
    np.testing.assert_array_equal(a, b)


def test_query_target_threshold_is_strict():
    # a small object centered on grid cell (12, 12) at level 2: a cell exactly
    # ANCHOR_BASE = 4 cells away is out, and the nearest cells inside it, at
    # sqrt(13) (no cell lies at a distance between sqrt(13) and 4), are in
    v = query_target_for_level(gt_of([obj(50.0, 50.0)], image=128), 2)
    assert v.dtype == np.float32 and v.shape == (32, 32)
    assert v[12, 16] == 0.0 and v[8, 12] == 0.0
    assert v[12 + 2, 12 + 3] == 1.0 and v[12 - 3, 12 - 2] == 1.0
    assert v.sum() == sum(dx * dx + dy * dy < 16
                          for dx in range(-4, 5) for dy in range(-4, 5))


def brute_force_target(gt, level, height, width, base=4.0):
    """Independent oracle: all cells x all objects, plain Python floats."""
    out = np.zeros((height, width), dtype=np.float32)
    stride = 2 ** level
    centers = [
        (math.floor(o.cx / stride), math.floor(o.cy / stride))
        for o in gt.objects
        if max(o.width, o.height) < base * stride
    ]
    for y in range(height):
        for x in range(width):
            for gx, gy in centers:
                if math.hypot(x - gx, y - gy) < base:
                    out[y, x] = 1.0
                    break
    return out


def test_query_target_matches_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(10):
        level = int(rng.integers(2, 8))
        image = int(rng.integers(96, 320))
        h = w = math.ceil(image / 2 ** level)
        objs = [
            obj(float(rng.uniform(0, image)), float(rng.uniform(0, image)),
                side=float(rng.uniform(4.0, 80.0)))
            for _ in range(int(rng.integers(0, 5)))
        ]
        gt = gt_of(objs, image=image)
        got = query_target_for_level(gt, level)
        np.testing.assert_array_equal(got, brute_force_target(gt, level, h, w))


def test_adding_an_object_only_grows_the_target():
    gt_small = gt_of([obj(100.0, 100.0)])
    gt_more = gt_of([obj(100.0, 100.0), obj(300.0, 280.0)])
    a = query_target_for_level(gt_small, 2)
    b = query_target_for_level(gt_more, 2)
    assert ((b - a) >= 0).all()
    assert b.sum() > a.sum()


def test_ground_truth_roundtrip():
    gt = gt_of([obj(10.5, 20.25, side=7.0, cls=3), obj(100.0, 90.0)])
    back = GroundTruthSet.from_json(gt.to_json(), 512, 512)
    assert back == gt
    assert gt.to_json()[0] == {"cx": 10.5, "cy": 20.25, "w": 7.0, "h": 7.0, "class": 3}


def test_ground_truth_validation():
    with pytest.raises(ValidationError):
        gt_of([obj(600.0, 10.0)])
    with pytest.raises(ValidationError):
        gt_of([GroundTruthObject(10.0, 10.0, 0.0, 5.0)])
    with pytest.raises(ValidationError, match="class must be non-negative, got -1"):
        GroundTruthObject(10.0, 10.0, 5.0, 5.0, -1)


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_ground_truth_object_rejects_non_finite_fields(field, value):
    fields = [10.0, 10.0, 5.0, 5.0]
    fields[field] = value
    with pytest.raises(ValidationError, match="finite"):
        GroundTruthObject(*fields)


def test_ground_truth_from_json_names_the_file_and_entry():
    good = {"cx": 10.0, "cy": 10.0, "w": 5.0, "h": 5.0}
    for entries, named in (([good, {"cx": 1.0}], "entry 1"),
                           ([good, dict(good, w=-1.0)], "entry 1: object sides"),
                           ([good, dict(good, **{"class": -3})], "entry 1: object class"),
                           ([dict(good, cx=600.0)], "object 0: center"),
                           ([good, dict(good, **{"class": 1.5})], "entry 1"),
                           ([True], "entry 0"), ("cx", "list")):
        with pytest.raises(FormatError, match=f"^gt.json: .*{named}"):
            GroundTruthSet.from_json(entries, 512, 512, "gt.json")


def test_target_maps_require_binary_values():
    with pytest.raises(ValidationError):
        TargetMaps(2, np.full((4, 4), 0.5, dtype=np.float32))


# --- losses ------------------------------------------------------------------------

def focal_oracle(logits, targets, alpha, gamma):
    """Direct float64 translation of the definition, one scalar at a time."""
    total = 0.0
    lx = np.asarray(logits, dtype=np.float64).ravel()
    lt = np.asarray(targets, dtype=np.float64).ravel()
    for x, t in zip(lx, lt):
        p = 1.0 / (1.0 + math.exp(-x))
        if t == 1.0:
            total += -alpha * (1.0 - p) ** gamma * math.log(p)
        else:
            total += -(1.0 - alpha) * p ** gamma * math.log(1.0 - p)
    return total / lx.size


def test_focal_loss_analytic_point():
    # p = 0.5 positive: 0.25 * 0.5^2 * ln 2
    got = focal_loss(np.array([0.0]), np.array([1.0]))
    assert abs(got - 0.25 * 0.25 * math.log(2.0)) < 1e-12


def test_focal_loss_gamma_zero_is_weighted_bce():
    logits = np.array([0.7, -1.2, 2.0])
    targets = np.array([1.0, 0.0, 1.0])
    got = focal_loss(logits, targets, alpha=0.5, gamma=0.0)
    bce = float(np.mean(np.logaddexp(0.0, -logits) * targets
                        + np.logaddexp(0.0, logits) * (1 - targets)))
    assert abs(got - 0.5 * bce) < 1e-12


def test_focal_loss_matches_oracle():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((32,)) * 4.0
    targets = (rng.random(32) < 0.3).astype(np.float64)
    got = focal_loss(logits, targets)
    assert abs(got - focal_oracle(logits, targets, 0.25, 2.0)) <= 1e-9


def test_focal_loss_extreme_logits_stay_finite():
    got = focal_loss(np.array([60.0, -60.0]), np.array([0.0, 1.0]))
    assert math.isfinite(got) and got > 10.0


def test_smooth_l1_piecewise_points():
    assert smooth_l1(np.array([0.5]), np.array([0.0])) == 0.125
    assert smooth_l1(np.array([1.0]), np.array([0.0])) == 0.5
    assert smooth_l1(np.array([-2.0]), np.array([0.0])) == 1.5
    assert smooth_l1(np.array([3.0]), np.array([3.0])) == 0.0


def test_smooth_l1_matches_oracle():
    rng = np.random.default_rng(4)
    p = rng.standard_normal(64) * 2.0
    t = rng.standard_normal(64) * 2.0
    d = np.abs(p - t)
    want = float(np.mean(np.where(d < 1, 0.5 * d * d, d - 0.5)))
    assert abs(smooth_l1(p, t) - want) <= 1e-9


def test_loss_shape_mismatch_raises():
    with pytest.raises(ValidationError):
        focal_loss(np.zeros(3), np.zeros(4))
    with pytest.raises(ValidationError):
        smooth_l1(np.zeros((2, 2)), np.zeros(4))


@pytest.mark.parametrize("kwargs,message", [
    ({"alpha": 0.0}, "alpha"), ({"alpha": 1.0}, "alpha"), ({"gamma": -0.5}, "gamma"),
], ids=["alpha-0", "alpha-1", "gamma-negative"])
def test_loss_config_rejects_out_of_range_values(kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        LossConfig(**kwargs)


def test_level_loss_needs_full_targets():
    maps = TargetMaps(3, np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ConfigurationError):
        level_loss(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                   maps, LossConfig())


def test_total_loss_weights_levels():
    losses = {2: 1.0, 3: 2.0}
    betas = {2: 3.0, 3: 0.5}
    assert total_loss(losses, betas) == 4.0
    with pytest.raises(ConfigurationError):
        total_loss(losses, {2: 1.0})


# --- beta schedules -----------------------------------------------------------------

def test_beta_schedule_1_to_3_is_exact():
    got = beta_schedule(range(2, 8), 1.0, 3.0)
    assert [got[l] for l in range(2, 8)] == [1.0, 1.4, 1.8, 2.2, 2.6, 3.0]


def test_beta_schedule_1_to_2_6_is_exact():
    got = beta_schedule(range(2, 8), 1.0, 2.6)
    assert [got[l] for l in range(2, 8)] == [1.0, 1.32, 1.64, 1.96, 2.28, 2.6]


def test_beta_schedule_single_level():
    assert beta_schedule([4], 1.0, 3.0) == {4: 1.0}


def test_beta_schedule_rejects_duplicates():
    with pytest.raises(ConfigurationError):
        beta_schedule([2, 2, 3])


@settings(max_examples=50, deadline=None)
@given(
    lo=st.integers(2, 6),
    span=st.integers(1, 5),
    start=st.floats(0.1, 5.0, allow_nan=False),
    stop=st.floats(0.1, 5.0, allow_nan=False),
)
def test_beta_schedule_is_linear_and_monotone(lo, span, start, stop):
    levels = list(range(lo, lo + span + 1))
    got = beta_schedule(levels, start, stop)
    vals = [got[l] for l in levels]
    assert vals[0] == pytest.approx(start, rel=1e-12)
    assert vals[-1] == pytest.approx(stop, rel=1e-12)
    steps = np.diff(vals)
    assert np.allclose(steps, steps[0], atol=1e-9)
