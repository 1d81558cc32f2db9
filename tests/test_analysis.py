import json
import os
import statistics
from pathlib import Path

import numpy as np
import pytest

import cascadequery
from cascadequery import (
    Blob,
    ConfigurationError,
    QueryConfig,
    build_rulebook,
    head_flops_dense,
    head_flops_sparse,
    inbounds_pairs,
    make_fixture_weights,
    make_synthetic_pyramid,
    p2_cost_increase,
    run_benchmark,
)
from cascadequery import postproc as postproc_mod
from cascadequery import query as query_mod
from cascadequery.analysis import (
    WARMUP,
    bench_csv,
    bench_json,
    flops_report,
    sweep_sigmas,
    timer_resolution_warning,
)
from cascadequery.model import TOWER_DEPTH
from cascadequery.sparse import KeySet


# --- MAC counting ------------------------------------------------------------------

def test_dense_per_cell_cost():
    # 3 towers x 4 layers of 9*C^2, plus 9*C*(A*K + 4A + 1) for the predictors
    assert head_flops_dense(1, 1, 16, 1, 4) == 108 * 16 * 16 + 9 * 16 * 9
    assert head_flops_dense(1, 1, 16, 1, 4) == 28944
    # other widths: C=8, A=3 anchors, K=5 classes, so 12 tower convs of 8x8
    # and predictors of 15 + 12 + 1 outputs
    assert head_flops_dense(1, 1, 8, 3, 5) == 9 * 8 * (12 * 8 + 15 + 12 + 1)
    assert head_flops_dense(1, 1, 8, 3, 5) == 8928


def test_dense_cost_scales_with_area():
    unit = head_flops_dense(1, 1, 64, 1, 4)
    for h, w in [(3, 5), (128, 128), (62, 37)]:
        assert head_flops_dense(h, w, 64, 1, 4) == h * w * unit


def every_conv(entries):
    """The per-conv entry counts of one rulebook shared by every conv."""
    return [entries] * (TOWER_DEPTH + 1)


def test_sparse_cost_is_zero_without_entries():
    assert head_flops_sparse(every_conv(0), 256, 1, 4) == 0


def test_sparse_cost_charges_each_conv_its_own_entries():
    # the three tower convs at layer j pay 16*16 per entry and the predictors
    # 16*(4 + 4 + 1)
    assert head_flops_sparse([5, 4, 3, 2, 1], 16, 1, 4) == \
        3 * 16 * 16 * (5 + 4 + 3 + 2) + 16 * 9 * 1
    with pytest.raises(ConfigurationError):
        head_flops_sparse([1, 1, 1, 1], 16, 1, 4)


@pytest.mark.parametrize("h,w", [(1, 1), (2, 5), (5, 9), (7, 3), (16, 16)])
def test_inbounds_pairs_counts_real_rulebook_entries(h, w):
    assert inbounds_pairs(h, w) == (3 * h - 2) * (3 * w - 2)
    rb = build_rulebook(KeySet.full(2, h, w))
    assert rb.num_entries == inbounds_pairs(h, w)


def test_one_percent_active_costs_at_most_one_percent():
    h = w = 128
    keys = h * w // 100
    worst_entries = 9 * keys  # every key fully surrounded
    dense = head_flops_dense(h, w, 256, 1, 4)
    assert head_flops_sparse(every_conv(worst_entries), 256, 1, 4) <= 0.01 * dense


def test_stride4_level_triples_the_head_cost():
    assert p2_cost_increase(512, 512) == pytest.approx(3.0029, abs=1e-3)
    assert 2.9 <= p2_cost_increase(500, 500) <= 3.1


# --- report assembly ---------------------------------------------------------------

def test_flops_report_totals_and_fraction():
    rep = flops_report(64, 64, range(2, 8), 16, 1, 4)
    assert rep["dense_total_macs"] == sum(r["dense_total_macs"] for r in rep["levels"])
    assert rep["dense_query_macs"] == sum(r["dense_query_macs"] for r in rep["levels"])
    assert rep["schema"] == "qd/1"
    assert len(rep["levels"]) == 6
    # level 2 is 16x16: 3 towers x 4 convs of 9*16*16 per cell, and the
    # predictors' 9*16*(4 + 4 + 1) per cell; the query branch is one tower
    # and a one-logit predictor
    assert rep["levels"][0] == {"level": 2, "shape": [16, 16],
                                "dense_tower_macs": 256 * 3 * 4 * 9 * 16 * 16,
                                "dense_pred_macs": 256 * 9 * 16 * 9,
                                "dense_query_macs": 256 * 9 * 16 * (4 * 16 + 1),
                                "dense_total_macs": 256 * 28944}
    json.dumps(rep)


def test_every_exported_name_resolves():
    assert [n for n in cascadequery.__all__ if not hasattr(cascadequery, n)] == []


# --- wall-clock harness ------------------------------------------------------------

def test_sweep_grid_is_nineteen_steps():
    grid = sweep_sigmas()
    assert grid == [round(0.05 * i, 2) for i in range(1, 20)]
    assert len(grid) == 19 and grid[0] == 0.05 and grid[-1] == 0.95


def test_benchmark_rejects_thin_sampling():
    with pytest.raises(ConfigurationError, match="repeats"):
        run_benchmark(None, None, [], repeats=1)


def test_timer_warning_thresholds():
    assert timer_resolution_warning([100.0, 200.0], 1e-9) is False
    assert timer_resolution_warning([0.0001], 1e-6) is True  # 0.1us spans, 1us clock
    assert timer_resolution_warning([0.0, 5.0], 1e-9) is True


@pytest.fixture(scope="module")
def tiny_bench():
    blobs = [Blob(cx=40.0, cy=52.0, width=6.0, height=6.0, class_id=1, amplitude=30.0)]
    pyr = make_synthetic_pyramid(3, 128, 128, 2, 7, 8, blobs)
    weights = make_fixture_weights(2, 8, 1, 4)
    cfgs = [QueryConfig(strategy="dense", sigma=0.15),
            QueryConfig(strategy="csq", sigma=0.15)]
    return run_benchmark(pyr, weights, cfgs, repeats=5)


def test_benchmark_runs_warmups_then_interleaved_rounds(monkeypatch):
    real = query_mod.run_pipeline
    calls = []

    def recording(pyr, weights, cfg):
        calls.append(cfg)
        return real(pyr, weights, cfg)

    monkeypatch.setattr(query_mod, "run_pipeline", recording)
    blobs = [Blob(cx=40.0, cy=52.0, width=6.0, height=6.0, class_id=1, amplitude=30.0)]
    pyr = make_synthetic_pyramid(3, 128, 128, 2, 7, 4, blobs)
    weights = make_fixture_weights(2, 4, 1, 4)
    cfgs = [QueryConfig(strategy="dense"), QueryConfig(strategy="csq", sigma=0.1),
            QueryConfig(strategy="csq", sigma=0.5)]
    results = run_benchmark(pyr, weights, cfgs, repeats=6)

    # WARMUP warm-up rounds, then six timed rounds, every round in config order
    assert calls == cfgs * (WARMUP + 6)
    assert [(r.strategy, r.sigma) for r in results] == [(c.strategy, c.sigma)
                                                        for c in cfgs]
    for r in results:
        assert isinstance(r.end_to_end_samples, tuple)
        assert len(r.end_to_end_samples) == 6
        assert min(r.end_to_end_samples) == r.best_end_to_end_millis
        assert statistics.median(r.end_to_end_samples) == r.end_to_end_millis
        assert (r.to_json()["repeats"], r.to_json()["warmup"]) == (6, WARMUP)


def test_benchmark_times_decoding_and_nms_in_each_round(monkeypatch):
    # every run, warm-up or timed, is the pipeline and then its detections;
    # each round's end-to-end time holds its pipeline time
    real = postproc_mod.detections_from_result
    decoded = []

    def recording(result, anchors, num_classes, *args, **kwargs):
        decoded.append((result.strategy, anchors.num_anchors, num_classes, args, kwargs))
        return real(result, anchors, num_classes, *args, **kwargs)

    monkeypatch.setattr(postproc_mod, "detections_from_result", recording)
    pyr = make_synthetic_pyramid(3, 64, 64, 2, 5, 4)
    weights = make_fixture_weights(2, 4, 2, 3)
    cfgs = [QueryConfig(strategy="dense"), QueryConfig(strategy="csq", sigma=0.1)]
    results = run_benchmark(pyr, weights, cfgs, repeats=5)
    assert decoded == [(c.strategy, 2, 3, (), {}) for c in cfgs] * (WARMUP + 5)
    for r in results:
        assert len(r.pipeline_samples) == len(r.end_to_end_samples) == 5
        assert all(0.0 < p <= e for p, e in zip(r.pipeline_samples, r.end_to_end_samples))
        assert r.pipeline_millis == statistics.median(r.pipeline_samples)
        row = r.to_json()
        assert row["pipeline_millis"] == r.pipeline_millis
        assert row["pipeline_samples"] == list(r.pipeline_samples)
        assert row["end_to_end_millis"] == r.end_to_end_millis


def test_benchmark_records_every_level(tiny_bench):
    dense, csq = tiny_bench
    assert dense.strategy == "dense" and csq.strategy == "csq"
    assert sorted(dense.level_millis) == [2, 3, 4, 5, 6, 7]
    # dense runs count the whole grid as computed positions
    assert dense.level_keys[2] == 32 * 32
    assert dense.level_keys[7] == 1  # 128px image leaves a single level-7 cell
    assert all(m >= 0.0 for m in dense.level_millis.values())
    # the dense strategy runs cls and reg alone
    assert dense.level_flops[2] == head_flops_dense(32, 32, 8, 1, 4, query=False)


def test_benchmark_best_run_bounds_the_median(tiny_bench):
    for r in tiny_bench:
        assert r.best_end_to_end_millis <= r.end_to_end_millis
        assert r.best_end_to_end_millis > 0.0


def test_benchmark_sparse_levels_report_key_counts(tiny_bench):
    _, csq = tiny_bench
    for l in (2, 3):
        assert csq.level_keys[l] <= 32 * 32
    assert csq.level_flops[2] < head_flops_dense(32, 32, 8, 1, 4)


def test_bench_serializers(tiny_bench):
    csv_text = bench_csv(tiny_bench)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "strategy,sigma,level,keys,flops,millis"
    assert len(lines) == 1 + 2 * 6
    assert lines[1].startswith("dense,0.15,2,1024,")

    j = bench_json(tiny_bench)
    assert j["schema"] == "qd/1"
    assert j["protocol"]["cpu_count"] == os.cpu_count()
    assert j["protocol"]["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = j["protocol"]["blas"]["threads"]
    assert j["protocol"]["blas"] == {"name": blas["name"], "version": blas["version"],
                                     "threads": threads}
    # the OpenBLAS bundled with numpy reports its thread count; anything else gives None
    if any((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        assert isinstance(threads, int) and threads >= 1
    else:
        assert threads is None
    assert [r["strategy"] for r in j["results"]] == ["dense", "csq"]
    for r in j["results"]:
        assert r["best_end_to_end_millis"] <= r["end_to_end_millis"]
        assert len(r["end_to_end_samples"]) == 5
        assert min(r["end_to_end_samples"]) == r["best_end_to_end_millis"]
        assert {row["level"] for row in r["levels"]} == {2, 3, 4, 5, 6, 7}
    json.dumps(j)
