"""Acceptance checks, one test per shipped guarantee.

Run with -v for a scorecard (one row per criterion) or -s to also see the
per-criterion detail lines. Fixture seeds are frozen in conftest.py; the
docstring there explains how they were chosen.
"""

import statistics
import time

import numpy as np
import pytest

from cascadequery import (
    GroundTruthObject,
    GroundTruthSet,
    KeySet,
    LossConfig,
    QueryConfig,
    TargetMaps,
    beta_schedule,
    build_rulebook,
    focal_loss,
    head_flops_dense,
    head_flops_sparse,
    level_dims,
    level_loss,
    make_synthetic_pyramid,
    p2_cost_increase,
    query_target_for_level,
    run_pipeline,
    smooth_l1,
)
from cascadequery.analysis import run_benchmark, sweep_sigmas
from cascadequery.model import TOWER_DEPTH
from cascadequery.postproc import AnchorConfig, detections_from_result, detections_to_json
from cascadequery.query import map_queries_to_keys
from cascadequery.tensor import sigmoid_above
from conftest import (
    CCQ_SEEDS,
    RECALL_SEEDS,
    SPEEDUP_PYRAMID_SEED,
    SPEEDUP_WEIGHT_SEED,
    SWEEP_PYRAMID_SEED,
    brute_force_target,
    dense_reference,
    dense_rows_at,
    focal_oracle,
    rel_err,
    speedup_blobs,
    standard_blobs,
    standard_pyramid,
    standard_weights,
)

W16 = standard_weights(16)
ANCHORS = AnchorConfig(num_anchors=1)


@pytest.fixture(scope="module")
def suite():
    """The ten frozen 512px fixtures plus their dense-pipeline results."""
    pyrs = {s: standard_pyramid(s) for s in CCQ_SEEDS}
    dense = {s: run_pipeline(pyrs[s], W16, QueryConfig(strategy="dense"))
             for s in CCQ_SEEDS}
    return pyrs, dense


def sparse_records(result):
    return [r for r in result.records if r.computed_keys is not None]


def branch_pairs(rec, pyr, dense):
    """(branch, cascade rows, dense rows at the keys) for every branch the
    cascade level ran: cls and reg against the dense run, query logits against
    a full-map pass of every branch over the level (`dense_reference`)."""
    want = dense_reference(pyr, W16, dense, rec.level)
    return [(attr, got.features, dense_rows_at(want[attr], rec.computed_keys))
            for attr, got in rec.output.branch_rows().items()]


def test_criterion_01_masked_cascade_is_bitwise_dense_and_detections_match():
    t0 = time.perf_counter()
    rows = query_rows = 0
    for seed in CCQ_SEEDS:
        pyr = standard_pyramid(seed)
        dense = run_pipeline(pyr, W16, QueryConfig(strategy="dense"))
        ccq = run_pipeline(pyr, W16, QueryConfig(strategy="ccq", sigma=0.05))
        for rec in sparse_records(ccq):
            for attr, got, want in branch_pairs(rec, pyr, dense):
                assert np.array_equal(got, want), \
                    f"seed {seed} level {rec.level}: {attr} not bitwise equal at keys"
                query_rows += len(got) if attr == "query_logits" else 0
            rows += len(rec.computed_keys)
        d_dense = detections_to_json(detections_from_result(dense, ANCHORS, 4))
        d_ccq = detections_to_json(detections_from_result(ccq, ANCHORS, 4))
        assert d_dense == d_ccq, f"seed {seed}: detection lists differ"
        assert d_dense, f"seed {seed}: empty detection list proves nothing"
    elapsed = time.perf_counter() - t0
    assert query_rows > 0, "no query logits compared on any fixture"
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"
    print(f"[criterion 01] PASS  masked cascade bitwise at {rows} keys "
          f"({query_rows} with query logits), detection "
          f"lists identical on {len(CCQ_SEEDS)} fixtures ({elapsed:.1f}s)")


def test_criterion_02_submanifold_cascade_matches_dense_at_zero_threshold(suite):
    pyrs, dense = suite
    worst, rows, query_rows = 0.0, 0, 0
    for seed in CCQ_SEEDS:
        csq = run_pipeline(pyrs[seed], W16, QueryConfig(strategy="csq", sigma=0.0))
        for rec in sparse_records(csq):
            # sigma=0 keeps every position, so the sparse grid is the full grid
            assert len(rec.computed_keys) == rec.height * rec.width
            for attr, got, want in branch_pairs(rec, pyrs[seed], dense[seed]):
                worst = max(worst, rel_err(got, want))
                query_rows += len(got) if attr == "query_logits" else 0
            rows += len(rec.computed_keys)
    assert query_rows > 0, "no query logits compared on any fixture"
    assert worst <= 1e-5, f"max relative error {worst:.3e} over {rows} rows"
    print(f"[criterion 02] PASS  sigma=0 submanifold outputs within {worst:.1e} "
          f"relative of dense over {rows} rows on {len(CCQ_SEEDS)} fixtures")


def test_criterion_03_halo_cascade_matches_dense_at_every_key(suite):
    pyrs, dense = suite
    margin = 5  # receptive-field radius of five stacked 3x3 convs
    worst, rows, near_border, query_rows = 0.0, 0, 0, 0
    for seed in CCQ_SEEDS:
        cq = run_pipeline(pyrs[seed], W16, QueryConfig(strategy="cq", sigma=0.15))
        for rec in sparse_records(cq):
            keys = rec.computed_keys
            for attr, got, want in branch_pairs(rec, pyrs[seed], dense[seed]):
                worst = max(worst, rel_err(got, want))
                query_rows += len(got) if attr == "query_logits" else 0
            rows += len(keys)
            near_border += int(np.count_nonzero(
                (keys.xs < margin) | (keys.xs >= rec.width - margin)
                | (keys.ys < margin) | (keys.ys >= rec.height - margin)))
    assert rows > 0, "no keys anywhere; fixtures are unusable"
    assert near_border > 0, f"no key within {margin} cells of a border; fixtures are unusable"
    assert query_rows > 0, "no query logits compared on any fixture"
    assert worst <= 1e-5, f"max relative error {worst:.3e} over {rows} rows"
    print(f"[criterion 03] PASS  halo cascade outputs within {worst:.1e} relative of dense "
          f"at all {rows} keys, {near_border} of them within {margin} cells of a border")


def test_criterion_04_stride4_level_triples_the_head_cost():
    t0 = time.perf_counter()
    r512 = p2_cost_increase(512, 512)
    r500 = p2_cost_increase(500, 500)
    elapsed = time.perf_counter() - t0
    assert r512 == pytest.approx(3.00, abs=0.02), f"512px ratio {r512:.4f}"
    assert 2.9 <= r500 <= 3.1, f"500px ratio {r500:.4f}"
    assert elapsed < 1.0
    print(f"[criterion 04] PASS  adding the stride-4 level costs {r512:.4f}x the "
          f"coarser levels at 512px, {r500:.4f}x at 500px ({elapsed * 1000:.0f}ms)")


def test_criterion_05_one_percent_active_cuts_fine_level_cost_to_one_percent():
    t0 = time.perf_counter()
    c = 256
    (h2, w2), (h3, w3) = level_dims(512, 512, 2), level_dims(512, 512, 3)
    k2, k3 = h2 * w2 // 100, h3 * w3 // 100
    # worst case: every key fully surrounded, nine rulebook entries each
    sparse = (head_flops_sparse([9 * k2] * (TOWER_DEPTH + 1), c, 1, 4)
              + head_flops_sparse([9 * k3] * (TOWER_DEPTH + 1), c, 1, 4))
    dense = head_flops_dense(h2, w2, c, 1, 4) + head_flops_dense(h3, w3, c, 1, 4)
    assert sparse <= 0.01 * dense

    # scattered keys from a real rulebook sit far below that bound
    rng = np.random.default_rng(5)
    flat = rng.choice(h2 * w2, size=k2, replace=False)
    rb = build_rulebook(KeySet(2, h2, w2, flat))
    assert rb.num_entries <= 9 * k2
    real = head_flops_sparse([rb.num_entries] * (TOWER_DEPTH + 1), c, 1, 4)
    assert real <= 0.01 * head_flops_dense(h2, w2, c, 1, 4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 05] PASS  at C=256 and 1% active keys the two finest levels "
          f"cost {sparse / dense:.4%} of dense (worst case), "
          f"{real / head_flops_dense(h2, w2, c, 1, 4):.4%} with scattered keys")


def test_criterion_06_sparse_cascade_is_at_least_twice_as_fast():
    t0 = time.perf_counter()
    pyr = make_synthetic_pyramid(SPEEDUP_PYRAMID_SEED, 512, 512, 2, 7, 64,
                                 speedup_blobs(SPEEDUP_PYRAMID_SEED))
    w64 = standard_weights(64, SPEEDUP_WEIGHT_SEED)
    probe = run_pipeline(pyr, w64, QueryConfig(strategy="csq", sigma=0.15))
    fractions = {r.level: len(r.computed_keys) / (r.height * r.width)
                 for r in sparse_records(probe)}
    assert set(fractions) == {2, 3}
    assert all(f <= 0.01 for f in fractions.values()), \
        f"blobs activate more than 1% of a fine level: {fractions}"
    dense_r, csq_r = run_benchmark(
        pyr, w64,
        [QueryConfig(strategy="dense"), QueryConfig(strategy="csq", sigma=0.15)],
        repeats=5)
    # the bound is on the pipeline; the end-to-end time adds decoding and NMS
    speedup = dense_r.pipeline_millis / csq_r.pipeline_millis
    end_to_end = dense_r.end_to_end_millis / csq_r.end_to_end_millis
    elapsed = time.perf_counter() - t0
    assert speedup >= 2.0, (
        f"median speedup {speedup:.2f}x < 2x "
        f"(dense {dense_r.pipeline_millis:.1f}ms, csq {csq_r.pipeline_millis:.1f}ms)")
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 2min"
    print(f"[criterion 06] PASS  C=64 cascade pipeline runs {speedup:.1f}x faster than dense "
          f"(median of 5: {dense_r.pipeline_millis:.0f}ms vs "
          f"{csq_r.pipeline_millis:.0f}ms; active {fractions[2]:.2%}/{fractions[3]:.2%}), "
          f"{end_to_end:.1f}x end to end with decoding and NMS "
          f"({dense_r.end_to_end_millis:.0f}ms vs {csq_r.end_to_end_millis:.0f}ms) "
          f"({elapsed:.1f}s)")


def test_criterion_07_query_targets_match_brute_force_exactly():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    positives = 0
    for case in range(100):
        level = int(rng.integers(2, 8))
        h, w = int(rng.integers(4, 40)), int(rng.integers(4, 40))
        stride = 1 << level
        objs = [
            GroundTruthObject(
                cx=float(rng.uniform(0, w * stride)),
                cy=float(rng.uniform(0, h * stride)),
                # spans the small/large divide so the size gate is exercised
                width=float(rng.uniform(1.0, 6.0 * stride)),
                height=float(rng.uniform(1.0, 6.0 * stride)),
                class_id=int(rng.integers(0, 4)))
            for _ in range(int(rng.integers(0, 6)))
        ]
        gt = GroundTruthSet(h * stride, w * stride, objs)
        fast = query_target_for_level(gt, level)
        slow = brute_force_target(gt, level, h, w, 4.0)
        assert np.array_equal(fast, slow), f"case {case}: maps disagree"
        positives += int(slow.sum())
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"
    assert positives > 0
    print(f"[criterion 07] PASS  query targets equal brute force on 100 random "
          f"cases across levels 2-7 ({positives} positive cells, {elapsed:.1f}s)")


def test_criterion_08_child_mapping_properties_on_random_query_sets():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    checked_children = 0
    for case in range(1000):
        level = int(rng.integers(3, 8))
        ph, pw = int(rng.integers(1, 61)), int(rng.integers(1, 61))
        n = int(rng.integers(0, 51))
        # cells x + pw * y, x drawn before y
        cells = rng.integers(0, pw, n) + pw * rng.integers(0, ph, n) if n else []
        queries = KeySet(level, ph, pw, cells)
        # rotate among the two ceil-pyramid child sizes (the shorter one forces
        # clipping of the odd children) and a grid one cell wider than twice
        # the parent's
        ch, cw = {0: (2 * ph, 2 * pw),
                  1: (2 * ph + 1, 2 * pw + 1),
                  2: (max(1, 2 * ph - 1), max(1, 2 * pw - 1))}[case % 3]
        children = map_queries_to_keys(queries, ch, cw)
        assert children.level == level - 1
        pts = children.positions
        assert len(np.unique(pts, axis=0)) == len(pts), "children not deduplicated"
        if len(pts):
            assert pts[:, 0].min() >= 0 and pts[:, 0].max() < cw
            assert pts[:, 1].min() >= 0 and pts[:, 1].max() < ch
        parents = set(map(tuple, queries.positions.tolist()))
        for x, y in pts.tolist():
            assert (x // 2, y // 2) in parents, f"child ({x},{y}) has no parent query"
        assert len(children) <= 4 * len(queries)
        checked_children += len(pts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget is 5s"
    print(f"[criterion 08] PASS  parentage, dedup, bounds, and the 4x cap hold for "
          f"1000 random query sets ({checked_children} children, {elapsed:.1f}s)")


def test_criterion_09_threshold_sweep_shrinks_keys_exactly_and_time_within_slack():
    pyr = standard_pyramid(SWEEP_PYRAMID_SEED, image=768)
    # Key counts are deterministic, so they gate the first attempt outright.
    # Wall time on a shared CPU is not: the host's speed drifts in phases
    # longer than a threshold's runs, so times taken at different moments do
    # not compare. Each attempt times the 19 thresholds' pipelines
    # (`pipeline_samples`) in nine interleaved rounds, and a neighbouring pair
    # (sigma_i, sigma_i+1) is compared within each round, where its two runs
    # are one image apart and see the same host; the step is the median of
    # the nine per-round ratios. Pairing cancels the host's speed, not the
    # work: a threshold that computes more than its neighbour still shows its
    # full ratio. The sweep may be remeasured up to three times, each attempt
    # a complete fresh run (never a mix of two runs).
    for attempt in range(3):
        results = run_benchmark(pyr, W16, [QueryConfig(strategy="csq", sigma=s)
                                           for s in sweep_sigmas()], repeats=9)
        if attempt == 0:
            for lvl in sorted(results[0].level_keys):
                seq = [r.level_keys[lvl] for r in results]
                assert all(b <= a for a, b in zip(seq, seq[1:])), \
                    f"level {lvl} key counts increased along the sweep: {seq}"
        steps = []
        for a, b in zip(results, results[1:]):
            ratios = [tb / ta for ta, tb in zip(a.pipeline_samples,
                                                b.pipeline_samples)]
            steps.append((statistics.median(ratios), a.sigma, b.sigma, ratios))
        worst_step, lo, hi, ratios = max(steps, key=lambda s: s[0])
        if worst_step <= 1.10:
            break
    else:
        pytest.fail(f"sweep time rose {worst_step:.3f}x from sigma={lo} to sigma={hi} "
                    f"on all 3 attempts (allowed 1.10x); per-round ratios of the "
                    f"last attempt: {', '.join(f'{x:.3f}' for x in ratios)}")
    print(f"[criterion 09] PASS  keys non-increasing at every level across 19 "
          f"thresholds; worst adjacent time step {worst_step:.3f}x "
          f"(sigma {lo}->{hi}, median of 9 paired rounds, attempt {attempt + 1})")


def _smooth_l1_oracle(pred, target):
    total = 0.0
    for p, t in zip(pred.ravel().tolist(), target.ravel().tolist()):
        d = abs(p - t)
        total += 0.5 * d * d if d < 1.0 else d - 0.5
    return total / pred.size


def test_criterion_10_loss_math_matches_oracles_and_weight_grids_exactly():
    rng = np.random.default_rng(10)
    worst_focal = worst_sl1 = 0.0
    for _ in range(25):
        shape = tuple(int(s) for s in rng.integers(1, 9, size=2))
        logits = rng.normal(0.0, 4.0, shape).astype(np.float32)
        targets = (rng.random(shape) < 0.3).astype(np.float32)
        worst_focal = max(worst_focal, abs(
            focal_loss(logits, targets)
            - focal_oracle(logits.astype(np.float64), targets, 0.25, 2.0)))
        pred = rng.normal(0.0, 2.0, shape).astype(np.float32)
        targ = rng.normal(0.0, 2.0, shape).astype(np.float32)
        worst_sl1 = max(worst_sl1, abs(
            smooth_l1(pred, targ)
            - _smooth_l1_oracle(pred.astype(np.float64), targ.astype(np.float64))))
    assert worst_focal <= 1e-9, f"focal loss off oracle by {worst_focal:.2e}"
    assert worst_sl1 <= 1e-9, f"smooth L1 off oracle by {worst_sl1:.2e}"

    # one level's loss, FL(cls) + smooth-L1(reg) + FL(query), at a non-default
    # alpha and gamma, so a dropped or swapped argument shows
    f64 = lambda a: a.astype(np.float64)
    cls_logits, reg = (rng.normal(0.0, 3.0, (4, 6, 5)).astype(np.float32) for _ in range(2))
    query_logits = rng.normal(0.0, 3.0, (6, 5)).astype(np.float32)
    maps = TargetMaps(3, (rng.random((6, 5)) < 0.3).astype(np.float32),
                      cls=(rng.random((4, 6, 5)) < 0.2).astype(np.float32),
                      reg=rng.normal(0.0, 2.0, (4, 6, 5)).astype(np.float32))
    want = (focal_oracle(f64(cls_logits), f64(maps.cls), 0.4, 1.5)
            + _smooth_l1_oracle(f64(reg), f64(maps.reg))
            + focal_oracle(f64(query_logits), f64(maps.query), 0.4, 1.5))
    level_err = abs(level_loss(cls_logits, reg, query_logits, maps,
                               LossConfig(alpha=0.4, gamma=1.5)) - want)
    assert level_err <= 1e-9, f"level loss off the oracles' sum by {level_err:.2e}"

    b1 = beta_schedule(range(2, 8), 1.0, 3.0)
    assert [b1[l] for l in range(2, 8)] == [1.0, 1.4, 1.8, 2.2, 2.6, 3.0]
    b2 = beta_schedule(range(2, 8), 1.0, 2.6)
    assert [b2[l] for l in range(2, 8)] == [1.0, 1.32, 1.64, 1.96, 2.28, 2.6]
    print(f"[criterion 10] PASS  focal within {worst_focal:.1e}, smooth-L1 within "
          f"{worst_sl1:.1e} and one level's loss within {level_err:.1e} of 64-bit oracles; "
          f"both level-weight grids exact")


def test_criterion_11_every_confident_parent_has_its_children_as_keys():
    sigma = 0.15
    evaluated = violations = 0
    for seed in RECALL_SEEDS:
        pyr = standard_pyramid(seed)
        result = run_pipeline(pyr, W16, QueryConfig(strategy="csq", sigma=sigma))
        blobs = standard_blobs(seed)
        for rec in sparse_records(result):
            parent = rec.level + 1
            prec = result.record(parent)
            for b in blobs:
                px, py = int(b.cx) >> parent, int(b.cy) >> parent
                keys = prec.output.keys
                hit = np.nonzero((keys.xs == px) & (keys.ys == py))[0]
                if len(hit) == 0:
                    continue  # parent cell never computed: no score to exceed
                logit = prec.output.query_logits.features[hit[0], :1]
                if not sigmoid_above(logit, sigma)[0]:  # the gate extraction applies
                    continue
                evaluated += 1
                want = {(2 * px + i, 2 * py + j) for i in (0, 1) for j in (0, 1)
                        if 2 * px + i < rec.width and 2 * py + j < rec.height}
                have = set(map(tuple, rec.computed_keys.positions.tolist()))
                if not want <= have:
                    violations += 1
    assert evaluated > 0, "no blob scored above the threshold on any fixture"
    assert violations == 0, f"{violations} of {evaluated} confident parents lost children"
    print(f"[criterion 11] PASS  all {evaluated} above-threshold planted objects "
          f"kept their 2x2 child keys across {len(RECALL_SEEDS)} fixtures")
