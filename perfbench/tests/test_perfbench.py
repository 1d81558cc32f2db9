"""Tests of the benchmark's own logic. Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import ast
import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cascadequery as cq  # noqa: E402

import harness  # noqa: E402
import spans as spanlib  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- tail percentiles ---------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert harness.percentile(values, 50) == 5
    assert harness.percentile(values, 90) == 9
    assert harness.percentile(reversed(values), 90) == 9
    assert harness.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("n, beyond", [(100, 10), (99, 9), (110, 11), (20, 2), (1, 0)])
def test_p90_sample_support_follows_the_sample_count(n, beyond):
    assert harness.samples_beyond(n, 90) == beyond
    values = list(range(n))
    assert sum(v > harness.percentile(values, 90) for v in values) == beyond


# --- spans and self time ------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    s = spanlib.Span
    spans = [s("image", 0, 100, -1, 1), s("a", 10, 40, 0, 1), s("b", 15, 25, 1, 1),
             s("c", 50, 90, 0, 1), s("load", 200, 260, -1, None)]
    assert spanlib.self_times(spans) == [30, 20, 10, 40, 60]
    totals = spanlib.layer_totals(spans, {1})
    assert "load" not in totals
    assert sum(t["self_ms"] for t in totals.values()) == pytest.approx(100 / 1e6)
    assert totals["a"] == {"self_ms": 20 / 1e6, "busy_ms": 30 / 1e6, "calls": 1}


def _fake_modules():
    inner_mod = types.ModuleType("fake_inner")
    outer_mod = types.ModuleType("fake_outer")
    inner_mod.inner = lambda x: x + 1
    outer_mod.inner = inner_mod.inner
    outer_mod.outer = lambda x: outer_mod.inner(x) * 2
    return {"inner": inner_mod, "outer": outer_mod}


def test_tracer_nests_spans_and_restores_hooks():
    mods = _fake_modules()
    original = mods["outer"].inner
    hooks = (("outer", "outer", "l.outer", None), ("outer", "inner", "l.inner", None),
             ("outer", "vanished", "l.gone", None))
    tracer = spanlib.Tracer(mods, hooks)
    assert tracer.absent == ["fake_outer.vanished"]
    tracer.image = 3
    with tracer.installed(), tracer.span("image"):
        assert mods["outer"].outer(1) == 4
    assert mods["outer"].inner is original
    assert [(s.name, s.parent, s.image) for s in tracer.spans] == [
        ("image", -1, 3), ("l.outer", 0, 3), ("l.inner", 1, 3)]
    assert tracer.counts == Counter({"l.outer.calls": 1, "l.inner.calls": 1})
    events = spanlib.chrome_trace(tracer.spans)["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [-1, 0, 1]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


# --- recall -----------------------------------------------------------------------

def _det(box, cls, score=0.9):
    return cq.Detection(box=tuple(float(v) for v in box), score=score, class_id=cls, level=3)


def test_det_recall_matches_class_and_iou():
    ref = [_det((0, 0, 10, 10), 0), _det((20, 20, 30, 30), 1), _det((40, 40, 50, 50), 2)]
    got = [_det((0, 0, 10, 10), 0),          # exact
           _det((20, 20, 30, 30), 2),        # right box, wrong class
           _det((40, 40, 50, 54), 2)]        # IoU 100/140 > 0.5
    assert harness.det_recall(ref, got) == pytest.approx(2 / 3)
    half = [_det((0, 0, 10, 5), 0)]          # IoU exactly 0.5 counts
    assert harness.det_recall(ref[:1], half) == 1.0
    assert harness.det_recall(ref[:1], [_det((0, 0, 10, 4), 0)]) == 0.0
    assert harness.det_recall([], got) == 1.0


def test_det_recall_is_one_to_one():
    ref = [_det((0, 0, 10, 10), 0), _det((0, 0, 10, 11), 0)]
    assert harness.det_recall(ref, [_det((0, 0, 10, 10), 0)]) == 0.5
    assert harness.det_recall(ref, ref) == 1.0


# --- MAC identity -------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["dense", "csq", "cq", "ccq"])
def test_conv_span_macs_equal_total_flops(strategy):
    w = cq.make_fixture_weights(2, 8, 1, 4)
    blobs = [cq.Blob(40.0, 50.0, 8.0, 8.0, 1, 30.0)]
    pyr = cq.make_synthetic_pyramid(4, 128, 128, 2, 5, 8, blobs)
    tracer = spanlib.Tracer(harness.MODULES)
    with tracer.installed():
        result, _ = harness.run_image(pyr, w, cq.QueryConfig(strategy=strategy, sigma=0.05))
    counts = tracer.counts
    assert spanlib.mac_identity(counts, result.total_flops)
    wrong = Counter(counts)
    wrong["tensor.conv2d.macs"] -= 4 * 4 * 8 * 8 * 9   # one 4x4 level-5 conv span missing
    assert not spanlib.mac_identity(wrong, result.total_flops)
    if strategy == "csq":
        assert counts["sparse.sparse_conv.calls"] > 0
        wrong = Counter(counts)
        wrong["sparse.sparse_conv.macs"] += 1
        assert not spanlib.mac_identity(wrong, result.total_flops)


# --- smoke runs ----------------------------------------------------------------------

@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_declared_metric(name, trace, tmp_path):
    rec = harness.run_workload(WORKLOADS[name], 5, 0.01, trace, tmp_path,
                               pool_size=1, warmup=1, setup_repeats=1)
    assert rec["correct"], (rec["failure_reasons"], rec["first_error"])
    assert rec["attempted"] >= 1 and rec["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: unit for k, (_, unit) in rec["metrics"].items()}
    if trace:
        assert rec["samples"]["mac_identity_checked"]
        assert rec["samples"]["self_time_reconciled"]
        assert rec["absent_hooks"] == []


def test_traced_run_survives_a_removed_kernel(tmp_path, monkeypatch):
    """A refactor that drops model.sparse_conv: its hook is skipped, its
    metrics are absent and the MAC identity is reported as unchecked."""
    def branch(vf, tower, pred, rb):
        for conv in tower:
            vf = cq.sparse.sparse_relu(cq.sparse.sparse_conv(vf, conv, rb))
        return cq.sparse.sparse_conv(vf, pred, rb)

    monkeypatch.setattr(cq.model, "_sparse_branch", branch)
    monkeypatch.delattr(cq.model, "sparse_conv")
    rec = harness.run_workload(WORKLOADS["csq-busy"], 5, 0.01, True, tmp_path,
                               pool_size=1, warmup=1, setup_repeats=1)
    assert rec["correct"], (rec["failure_reasons"], rec["first_error"])
    assert rec["absent_hooks"] == ["cascadequery.model.sparse_conv"]
    assert not any(k.startswith("sparse.sparse_conv.") for k in rec["metrics"])
    assert "tensor.conv2d.ms" in rec["metrics"]
    assert not rec["samples"]["mac_identity_checked"]


def test_untimed_run_times_whole_cycles_and_spreads_its_set_ups(tmp_path):
    rec = harness.run_workload(WORKLOADS["csq-sparse"], 5, 0.01, False, tmp_path,
                               pool_size=3, warmup=1, setup_repeats=3)
    assert rec["correct"], (rec["failure_reasons"], rec["first_error"])
    samples = rec["samples"]
    assert samples["cycles"] >= 1
    assert samples["images_timed"] == 3 * samples["cycles"]
    assert len(samples["setup_s_each"]) == 3
    wall = samples["wall"]
    assert rec["metrics"]["images_per_ref"][0] > 0 and wall["reference_ms.p50"] > 0


def test_reference_work_is_fixed():
    import reference
    assert reference._suppress() == reference._suppress()
    assert reference._gemm() == reference._gemm()
    assert reference.reference_ms() > 0
    tree = ast.parse((BENCH / "reference.py").read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert imported == {"__future__", "time", "numpy"}


def test_object_amplitudes_do_not_depend_on_the_seed():
    import numpy as np
    from workloads import make_blobs
    for recipe in ("weak2", "bright3"):
        amps = {tuple(b.amplitude for b in make_blobs(recipe, np.random.default_rng(s), 512.0))
                for s in range(5)}
        assert len(amps) == 1
        positions = {tuple(b.cx for b in make_blobs(recipe, np.random.default_rng(s), 512.0))
                     for s in range(5)}
        assert len(positions) == 5


def test_workloads_match_the_declared_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])


def test_run_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, the command must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "results", "tests"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "csq-sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
