import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadequery import postproc
from cascadequery import (
    AnchorConfig,
    Candidates,
    ConfigurationError,
    Detection,
    QueryConfig,
    ValidationError,
    anchor_boxes,
    box_iou,
    decode_boxes,
    detections_from_output,
    detections_from_result,
    detections_to_json,
    encode_boxes,
    make_synthetic_pyramid,
    nms,
    run_pipeline,
)
from cascadequery.model import HeadOutput
from cascadequery.postproc import SCALE_CLAMP
from cascadequery.sparse import KeySet, SparseFeature
from cascadequery.targets import (ANCHOR_BASE, GroundTruthObject, is_small_for_level,
                                 level_scale)
from conftest import (SPEEDUP_PYRAMID_SEED, SPEEDUP_WEIGHT_SEED, speedup_blobs,
                      standard_pyramid, standard_weights)

CFG = AnchorConfig(num_anchors=1)


def det(box, score, cls=0, level=2):
    return Detection(box=box, score=score, class_id=cls, level=level)


# --- anchors and box coding --------------------------------------------------------

def test_anchor_boxes_are_centered_on_cells():
    boxes = anchor_boxes([0, 3], [0, 1], [0, 0], level=2)
    # cell (0,0) at stride 4 has center (2,2); base side is 4 * 2^2 = 16
    np.testing.assert_allclose(boxes[0], [-6.0, -6.0, 10.0, 10.0])
    np.testing.assert_allclose(boxes[1], [6.0, -2.0, 22.0, 14.0])


def test_anchor_slots_grow_by_cuberoot_of_two():
    b = anchor_boxes([0, 0, 0], [0, 0, 0], [0, 1, 2], level=3)
    sides = b[:, 2] - b[:, 0]
    np.testing.assert_allclose(sides, [32.0, 32.0 * 2 ** (1 / 3), 32.0 * 2 ** (2 / 3)])


def test_anchors_and_query_targets_share_one_scale():
    # an object is small at level l when it is under the slot-0 anchor's side
    for level in range(2, 8):
        box = anchor_boxes([0], [0], [0], level)[0]
        side = level_scale(level)
        assert box[2] - box[0] == box[3] - box[1] == side == ANCHOR_BASE * 2 ** level
        assert is_small_for_level(GroundTruthObject(0.0, 0.0, np.nextafter(side, 0.0), 1.0),
                                  level)
        assert not is_small_for_level(GroundTruthObject(0.0, 0.0, side, 1.0), level)


def test_anchor_config_rejects_zero_anchors_as_a_configuration_error():
    with pytest.raises(ConfigurationError):
        AnchorConfig(num_anchors=0)


def test_decode_zero_deltas_returns_anchor():
    anchors = anchor_boxes([2, 7], [3, 1], [0, 0], level=3)
    got = decode_boxes(np.zeros((2, 4)), anchors)
    np.testing.assert_allclose(got, anchors, atol=1e-9)


def test_decode_log_scale_doubles_the_side():
    anchors = anchor_boxes([0], [0], [0], level=2)
    got = decode_boxes(np.array([[0.0, 0.0, math.log(2.0), 0.0]]), anchors)
    assert (got[0, 2] - got[0, 0]) == pytest.approx(32.0)
    assert (got[0, 3] - got[0, 1]) == pytest.approx(16.0)


def test_decode_unit_dx_shifts_by_one_anchor_width():
    anchors = anchor_boxes([0], [0], [0], level=2)
    got = decode_boxes(np.array([[1.0, 0.0, 0.0, 0.0]]), anchors)
    np.testing.assert_allclose(got[0], anchors[0] + [16.0, 0.0, 16.0, 0.0])


def test_decode_clamps_huge_scale_deltas():
    anchors = anchor_boxes([0], [0], [0], level=2)
    got = decode_boxes(np.array([[0.0, 0.0, 50.0, 50.0]]), anchors)
    side = got[0, 2] - got[0, 0]
    assert side == pytest.approx(16.0 * math.exp(SCALE_CLAMP))


def test_decode_rejects_non_finite():
    anchors = anchor_boxes([0], [0], [0], level=2)
    with pytest.raises(ValidationError):
        decode_boxes(np.array([[np.nan, 0.0, 0.0, 0.0]]), anchors)


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(0)
    anchors = anchor_boxes(rng.integers(0, 30, 16), rng.integers(0, 30, 16),
                           np.zeros(16), level=3)
    centers = rng.uniform(10, 200, (16, 2))
    sides = rng.uniform(4, 60, (16, 2))
    boxes = np.concatenate([centers - sides / 2, centers + sides / 2], axis=1)
    back = decode_boxes(encode_boxes(boxes, anchors), anchors)
    np.testing.assert_allclose(back, boxes, rtol=1e-6, atol=1e-6)


# --- IoU and NMS --------------------------------------------------------------------

def test_box_iou_known_values():
    a = [0.0, 0.0, 2.0, 2.0]
    assert box_iou(a, a) == 1.0
    assert box_iou(a, [5.0, 5.0, 6.0, 6.0]) == 0.0
    assert box_iou(a, [1.0, 0.0, 3.0, 2.0]) == pytest.approx(1.0 / 3.0)
    assert box_iou(a, [2.0, 0.0, 4.0, 2.0]) == 0.0  # touching edges do not overlap


def test_nms_suppresses_overlaps_keeps_best():
    dets = [
        det([0, 0, 10, 10], 0.9),
        det([1, 1, 11, 11], 0.8),    # IoU with first ~0.68 -> suppressed
        det([30, 30, 40, 40], 0.7),  # far away -> kept
    ]
    kept = nms(Candidates.of(dets), iou_threshold=0.5)
    assert [d.score for d in kept] == [0.9, 0.7]


def test_nms_is_per_class():
    dets = [
        det([0, 0, 10, 10], 0.9, cls=0),
        det([0, 0, 10, 10], 0.8, cls=1),  # same box, other class -> survives
    ]
    assert len(nms(Candidates.of(dets))) == 2


def test_nms_score_filter_is_strict():
    dets = [det([0, 0, 5, 5], 0.05), det([20, 20, 25, 25], 0.050001)]
    kept = nms(Candidates.of(dets), score_threshold=0.05)
    assert len(kept) == 1 and kept[0].score > 0.05


def test_nms_top_k_truncates_after_suppression():
    dets = [det([i * 20.0, 0, i * 20.0 + 5, 5], 0.5 + i * 0.01) for i in range(10)]
    kept = nms(Candidates.of(dets), top_k=3)
    assert len(kept) == 3
    assert kept[0].score == pytest.approx(0.59)


def test_nms_rejects_a_negative_top_k():
    dets = [det([i * 20.0, 0, i * 20.0 + 5, 5], 0.5 + i * 0.01) for i in range(3)]
    with pytest.raises(ConfigurationError):
        nms(Candidates.of(dets), top_k=-1)
    assert nms(Candidates.of(dets), top_k=0) == []


def test_nms_tie_break_is_stable():
    # identical scores: class then corners decide, so order of arrival is irrelevant
    a = det([0, 0, 5, 5], 0.5, cls=1)
    b = det([40, 0, 45, 5], 0.5, cls=0)
    ab, ba = Candidates.of([a, b]), Candidates.of([b, a])
    assert nms(ab) == nms(ba)
    assert nms(ab)[0].class_id == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 12))
def test_nms_result_is_permutation_invariant(seed, n):
    rng = np.random.default_rng(seed)
    dets = [
        det([float(x), float(y), float(x + s), float(y + s)],
            round(float(rng.uniform(0.1, 1.0)), 2),
            cls=int(rng.integers(0, 2)))
        for x, y, s in zip(rng.uniform(0, 50, n), rng.uniform(0, 50, n),
                           rng.uniform(2, 20, n))
    ]
    shuffled = list(dets)
    rng.shuffle(shuffled)
    assert nms(Candidates.of(dets)) == nms(Candidates.of(shuffled))


def greedy_nms_oracle(dets, iou_threshold, score_threshold, top_k):
    """Check each candidate against every box kept so far, to the end of the
    list, and truncate afterwards."""
    ordered = sorted((d for d in dets if d.score > score_threshold),
                     key=Detection.sort_key)
    kept = []
    for d in ordered:
        if not any(k.class_id == d.class_id and box_iou(k.box, d.box) > iou_threshold
                   for k in kept):
            kept.append(d)
    return kept[:top_k]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
       classes=st.integers(1, 4), top_k=st.sampled_from([0, 1, 3, 100, None]),
       iou_threshold=st.sampled_from([0.0, 0.5, 1.0]))
def test_nms_matches_the_unbounded_greedy_oracle(seed, n, classes, top_k, iou_threshold):
    rng = np.random.default_rng(seed)
    # boxes on a coarse half-pixel grid in a small field: dense overlaps, exact
    # duplicates and touching edges; a handful of scores, so many ties
    corners = rng.integers(0, 120, (n, 2)) * 0.5
    sides = rng.integers(1, 40, (n, 2)) * 0.5
    sides[rng.random(n) < 0.2] += rng.uniform(0.0, 1.0, 2)
    scores = rng.integers(1, 9, n) / 8.0
    dets = [
        det((float(x), float(y), float(x + w), float(y + h)), float(s),
            cls=int(c), level=int(lvl))
        for (x, y), (w, h), s, c, lvl in zip(corners, sides, scores,
                                             rng.integers(0, classes, n),
                                             rng.integers(2, 4, n))
    ]
    k = n + 5 if top_k is None else top_k
    assert nms(Candidates.of(dets), iou_threshold, 0.05, k) == \
        greedy_nms_oracle(dets, iou_threshold, 0.05, k)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 80))
def test_candidate_order_is_detection_sort_key_order(seed, n):
    # few scores and a small pool of boxes, so scores tie and boxes repeat
    # across classes and levels; the order must still be sorted()'s, row by row
    rng = np.random.default_rng(seed)
    pool = [(float(x), float(y), float(x + w), float(y + h))
            for x, y, w, h in zip(rng.integers(-8, 8, 6) * 0.5, rng.integers(-8, 8, 6) * 0.5,
                                  rng.integers(1, 6, 6) * 0.5, rng.integers(1, 6, 6) * 0.5)]
    dets = [det(pool[int(b)], float(s), cls=int(c), level=int(lvl))
            for b, s, c, lvl in zip(rng.integers(0, len(pool), n), rng.integers(1, 4, n) / 4.0,
                                    rng.integers(0, 3, n), rng.integers(2, 5, n))]
    cands = Candidates.of(dets)
    assert [cands.detection(i) for i in cands.order()] == \
        sorted(dets, key=Detection.sort_key)


def test_candidates_of_and_concat_keep_rows_in_order():
    dets = [det((0.0, 0.0, 4.0, 4.0), 0.25, cls=1, level=3),
            det((1.0, 2.0, 3.5, 9.0), 0.75, cls=0, level=2),
            det((0.0, 0.0, 4.0, 4.0), 0.5, cls=2, level=4)]
    whole = Candidates.of(dets)
    assert len(whole) == 3
    assert [whole.detection(i) for i in range(3)] == dets
    joined = Candidates.concat([Candidates.of(dets[:1]), Candidates.of([]),
                                Candidates.of(dets[1:])])
    assert_same_rows(rows_of(joined), rows_of(whole))
    assert len(Candidates.concat([])) == 0
    assert nms(Candidates.of([])) == []


def test_candidates_reject_mismatched_fields():
    with pytest.raises(ValidationError):
        Candidates(np.zeros((2, 4)), [0.5], [0, 1], [2, 2])
    with pytest.raises(ValidationError):
        Candidates(np.zeros((2, 3)), [0.5, 0.5], [0, 1], [2, 2])


def test_nms_over_both_levels_candidates_is_global():
    lvl2 = [det([0, 0, 10, 10], 0.9, level=2)]
    lvl3 = [det([0, 0, 10, 10], 0.95, level=3)]
    merged = nms(Candidates.of(lvl2 + lvl3))
    assert len(merged) == 1 and merged[0].level == 3


def test_detection_json_is_plain_python():
    d = det([1.0, 2.0, 3.0, 4.0], 0.5, cls=2, level=3)
    j = d.to_json()
    assert j == {"box": [1.0, 2.0, 3.0, 4.0], "score": 0.5, "class": 2, "level": 3}
    assert all(type(v) is float for v in j["box"])


def test_detection_rejects_degenerate_box():
    with pytest.raises(ValidationError):
        det([5.0, 0.0, 5.0, 4.0], 0.5)
    with pytest.raises(ValidationError, match="degenerate box"):  # a batch handed in
        Candidates(np.array([[0.0, 0.0, 4.0, 4.0], [5.0, 0.0, 5.0, 4.0]]),
                   [0.9, 0.8], [0, 0], [3, 3])


# --- candidate extraction ------------------------------------------------------------

def head_output_dense(cls, reg, query, level=3):
    """A dense level's output: the (C, H, W) maps as rows over the full grid."""
    ks = KeySet.full(level, *cls.shape[1:])
    return HeadOutput(*(SparseFeature(ks, m.reshape(len(m), -1).T) for m in (cls, reg, query)))


def rows_of(cands):
    return cands.boxes, cands.scores, cands.classes, cands.levels


def row_sorted(cands):
    """The batch's fields with its rows in Detection.sort_key order."""
    order = cands.order()
    return tuple(f[order] for f in rows_of(cands))


def assert_same_rows(a, b):
    for x, y in zip(a, b, strict=True):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


def test_candidates_respect_the_score_threshold():
    cls = np.full((2, 4, 4), -6.0, dtype=np.float32)
    cls[1, 2, 3] = 2.0  # one confident cell, class 1
    reg = np.zeros((4, 4, 4), dtype=np.float32)
    query = np.zeros((1, 4, 4), dtype=np.float32)
    cands = detections_from_output(head_output_dense(cls, reg, query), CFG, 2)
    assert len(cands) == 1
    d = cands.detection(0)
    assert d.class_id == 1 and d.level == 3
    assert d.score == pytest.approx(1 / (1 + math.exp(-2.0)))
    np.testing.assert_allclose(d.box, anchor_boxes([3], [2], [0], 3)[0])


def test_decode_drops_a_collapsed_box_and_keeps_the_rest():
    # dx = 1e30 moves the center to 3.2e31, where the 32 px anchor width no
    # longer shows: x1 == x2, so that box is dropped; the other cell's stays
    cls = np.full((1, 3, 3), -6.0, dtype=np.float32)
    cls[0, 1, 1] = cls[0, 2, 0] = 2.0
    reg = np.zeros((4, 3, 3), dtype=np.float32)
    reg[0, 1, 1] = 1e30
    query = np.zeros((1, 3, 3), dtype=np.float32)
    cands = detections_from_output(head_output_dense(cls, reg, query), CFG, 1)
    assert len(cands) == 1 and cands.levels.tolist() == [3]
    np.testing.assert_array_equal(cands.boxes, anchor_boxes([0], [2], [0], 3))


def test_sparse_and_dense_candidates_agree_at_keys():
    rng = np.random.default_rng(5)
    cls = rng.uniform(-6, 2, (4, 6, 6)).astype(np.float32)
    reg = rng.uniform(-0.5, 0.5, (4, 6, 6)).astype(np.float32)
    query = np.zeros((1, 6, 6), dtype=np.float32)
    ks = KeySet(3, 6, 6, [c for c in range(36) if (c % 6 + c // 6) % 3])
    sparse = HeadOutput(
        SparseFeature(ks, cls[:, ks.ys, ks.xs].T),
        SparseFeature(ks, reg[:, ks.ys, ks.xs].T),
        SparseFeature(ks, query[:, ks.ys, ks.xs].T),
    )
    # the full grid with every non-key cell scored far below the threshold
    off_keys = np.ones((6, 6), dtype=bool)
    off_keys[ks.ys, ks.xs] = False
    cls[:, off_keys] = -50.0
    dense_cands = detections_from_output(head_output_dense(cls, reg, query), CFG, 4)
    assert 0 < len(dense_cands) < 4 * 36
    assert_same_rows(row_sorted(dense_cands),
                     row_sorted(detections_from_output(sparse, CFG, 4)))


def test_multi_anchor_channel_layout():
    # slot a, class k lives at channel a*K + k; slot boxes at a*4..a*4+3
    cfg2 = AnchorConfig(num_anchors=2)
    cls = np.full((4, 2, 2), -9.0, dtype=np.float32)
    cls[3, 0, 0] = 3.0  # slot 1, class 1 under K=2
    reg = np.zeros((8, 2, 2), dtype=np.float32)
    query = np.zeros((1, 2, 2), dtype=np.float32)
    cands = detections_from_output(head_output_dense(cls, reg, query, level=4), cfg2, 2)
    assert len(cands) == 1
    assert cands.classes[0] == 1
    side = cands.boxes[0, 2] - cands.boxes[0, 0]
    assert side == pytest.approx(4.0 * 16.0 * 2 ** (1 / 3))


def test_decode_rejects_a_head_of_other_widths():
    # an A=1, K=4 head: 4 class and 4 box channels; three anchors would need
    # 12 and 12, two classes 2 and 4
    cls = np.random.default_rng(5).uniform(-4, 2, (4, 3, 3)).astype(np.float32)
    result = SimpleNamespace(records=[SimpleNamespace(
        output=head_output_dense(cls, np.zeros_like(cls), cls[:1]))])
    assert len(detections_from_result(result, CFG, 4)) > 0
    for cfg, classes in ((AnchorConfig(num_anchors=3), 4), (CFG, 2)):
        with pytest.raises(ConfigurationError, match="4 class and 4 box channels"):
            detections_from_result(result, cfg, classes)


def test_only_kept_candidates_become_detections(monkeypatch):
    rng = np.random.default_rng(11)
    cls = rng.uniform(-1, 3, (4, 12, 12)).astype(np.float32)
    reg = rng.uniform(-0.5, 0.5, (4, 12, 12)).astype(np.float32)
    query = np.zeros((1, 12, 12), dtype=np.float32)
    result = SimpleNamespace(records=[
        SimpleNamespace(output=head_output_dense(cls, reg, query))])
    want = detections_to_json(detections_from_result(result, CFG, 4, top_k=5))
    made = []

    class CountingDetection(Detection):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(postproc, "Detection", CountingDetection)
    assert len(detections_from_output(result.records[0].output, CFG, 4)) >= 300
    got = detections_from_result(result, CFG, 4, top_k=5)
    assert len(made) <= 5
    assert detections_to_json(got) == want and len(want) == 5


@pytest.mark.parametrize("kw", [{"score_threshold": 1.5}, {"iou_threshold": -0.1}])
def test_detections_reject_a_bad_setting_as_a_configuration_error(kw):
    # the same kind of fault as a sigma outside [0, 1] in QueryConfig
    cls = np.zeros((4, 3, 3), dtype=np.float32)
    result = SimpleNamespace(records=[SimpleNamespace(
        output=head_output_dense(cls, np.zeros_like(cls), cls[:1]))])
    with pytest.raises(ConfigurationError):
        detections_from_result(result, CFG, 4, **kw)


def test_detections_from_result_calls_decode_and_nms_through_the_module(monkeypatch):
    # the benchmark's trace hooks these two module attributes; inlining either
    # would silently empty its spans and counters
    rng = np.random.default_rng(3)
    records = []
    for level, side in ((3, 6), (4, 3)):
        cls = rng.uniform(-4, 2, (4, side, side)).astype(np.float32)
        reg = rng.uniform(-0.5, 0.5, (4, side, side)).astype(np.float32)
        query = np.zeros((1, side, side), dtype=np.float32)
        records.append(SimpleNamespace(output=head_output_dense(cls, reg, query, level)))
    decoded, nms_calls = [], []
    real_decode, real_nms = postproc.detections_from_output, postproc.nms

    def spy_decode(*args, **kwargs):
        out = real_decode(*args, **kwargs)
        decoded.append(out)
        return out

    def spy_nms(cands, *args, **kwargs):
        nms_calls.append(cands)
        return real_nms(cands, *args, **kwargs)

    monkeypatch.setattr(postproc, "detections_from_output", spy_decode)
    monkeypatch.setattr(postproc, "nms", spy_nms)
    got = postproc.detections_from_result(SimpleNamespace(records=records), CFG, 4,
                                          top_k=5)
    assert len(decoded) == 2 and sum(map(len, decoded)) > 5
    assert len(nms_calls) == 1
    assert_same_rows(rows_of(nms_calls[0]), rows_of(Candidates.concat(decoded)))
    assert got == real_nms(Candidates.concat(decoded), top_k=5)


def report_digest(result) -> str:
    """sha256 of `report()` without its timings."""
    report = result.report()
    del report["total_millis"]
    for level in report["levels"]:
        del level["millis"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def head_digest(result) -> str:
    """sha256 of every level's key positions and the rows of each head branch
    that ran there."""
    h = hashlib.sha256()
    for rec in result.records:
        h.update(rec.output.keys.positions.tobytes())
        for branch in rec.output.branch_rows().values():
            h.update(branch.features.tobytes())
    return h.hexdigest()


def test_detection_json_is_pinned():
    # every strategy's final detections, fixed by sha256 of their JSON, and
    # its report (timings left out) and head-output bytes: weak objects under
    # the tight C=64 gate, bright ones under the broad C=16 gate
    fixtures = {
        "weak64": (make_synthetic_pyramid(SPEEDUP_PYRAMID_SEED, 256, 256, 2, 7, 64,
                                          speedup_blobs(SPEEDUP_PYRAMID_SEED, 256.0)),
                   standard_weights(64, SPEEDUP_WEIGHT_SEED), 0.15),
        "bright16": (standard_pyramid(4, 256, 16), standard_weights(16), 0.02),
    }
    digests, reports, heads = {}, {}, {}
    for name, (pyr, w, sigma) in fixtures.items():
        for strategy in ("dense", "csq", "cq", "ccq"):
            result = run_pipeline(pyr, w, QueryConfig(strategy=strategy, sigma=sigma))
            dets = detections_to_json(detections_from_result(result, CFG, 4))
            digests[f"{name}/{strategy}"] = hashlib.sha256(
                json.dumps(dets).encode()).hexdigest()
            reports[f"{name}/{strategy}"] = report_digest(result)
            heads[f"{name}/{strategy}"] = head_digest(result)
    assert digests == {
        "weak64/dense": "994cfbc7251ee8b1cb796da6e7e60087f260b3d83b2242994902ac73937134be",
        "weak64/csq": "01ebc42e9f093c6facd45b26014d92e38b9d797c2422976af6098981b7ef6016",
        "weak64/cq": "25392e458bca5bb42a66654135206e76d451fa4337942ad3ac7d7e065dbafe90",
        "weak64/ccq": "a32fa0577e4627e068d0e3a37767ee5f0d7a4e5800c604c5b9a7381700f7261b",
        "bright16/dense": "bcb1276464a053e72e72ee6f1aac895dc7c7ef138ef243bc86216305c52fa43e",
        "bright16/csq": "8ff752ff0f9805d069d5eed8f113d66ca0a032da34fd6f1f1111b85fe19e5168",
        "bright16/cq": "bcb1276464a053e72e72ee6f1aac895dc7c7ef138ef243bc86216305c52fa43e",
        "bright16/ccq": "bcb1276464a053e72e72ee6f1aac895dc7c7ef138ef243bc86216305c52fa43e",
    }
    assert reports == {
        "weak64/dense": "7c117557d2486f7f81a8d5695ab605fdeb63c20511e71ae296d92d87cb71378f",
        "weak64/csq": "9a9d45301ecf9ad1aa94ba51d6d34f07832f1e399e666383297e353e00d4b552",
        "weak64/cq": "32f971ba422d761befb8a13cdfe181b76cc6d673f404795341ea582df8b75545",
        "weak64/ccq": "dce22480545d90c1bdb4a26be9e8958898fb0a87f2fd609bda4f385b75acdc03",
        "bright16/dense": "90d867891116f68686d67516c0f74194d5e410d990b7c5b2a5d33e919cb0b0d5",
        "bright16/csq": "162d2304a3bc544b71590689f9bf70507560ea0caed5231a0fa9751e22409d0b",
        "bright16/cq": "58faff26f2d97a4ecc64583684c06a98122469623115195af3cf10a9b143bede",
        "bright16/ccq": "0fbce1a954578050658ef93b362acd49eeb148ab7b3cbd71fed44bae9c597c8b",
    }
    assert heads == {
        "weak64/dense": "21a4cd5aefcb247ce895007b1775a54f1ec1097de26896ea1f437f316a013d38",
        "weak64/csq": "46e5c964b35a6e97fdc49c0c7fe19c66e7689ebfccc7d54c79b36a44da07f474",
        "weak64/cq": "b886eb7b484b79929179c43a03a1811556039f6201f3ccc52442300e2e33a524",
        "weak64/ccq": "a15e3a00e8c528281cf028ce70405afcee96424d31d680cfc7bcc6f4e4398b30",
        "bright16/dense": "3d21a0117fa5eb7f53eb072d187f7633920b9fc123515dbdf4678f78029161bb",
        "bright16/csq": "f1c95a3d52e500d2d593f0aacf19afbfd7c99180266260cb7d6aed8b25d3297b",
        "bright16/cq": "89e78e7f58b734a4af57d1c1216328f8599c7f20e001cb15d0ea19dde70c883f",
        "bright16/ccq": "89e78e7f58b734a4af57d1c1216328f8599c7f20e001cb15d0ea19dde70c883f",
    }
