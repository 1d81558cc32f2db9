"""One workload, pyramid in to detections out: set-up, timed loop, output
checks and the metric arithmetic.

The loop is closed: one caller in one process sends the next pyramid only
after the previous detection list is back. Pool images are cycled in a fixed
order. A timed image is ``query.run_pipeline`` plus
``postproc.detections_from_result``, looked up on the modules at call time so
that the tracer's hooks see them. In an untraced run each timed image is
preceded by one run of ``reference.reference_ms``, and the end-to-end timings
are the image's wall time divided by it.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import tracemalloc
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import cascadequery as cq
from cascadequery import model, postproc, query, sparse, tensor

import spans as spanlib
from reference import reference_ms
from workloads import NUM_ANCHORS, NUM_CLASSES, Workload, make_pool, make_weights

MODULES = {"tensor": tensor, "sparse": sparse, "model": model, "query": query,
           "postproc": postproc}
ANCHORS = cq.AnchorConfig(num_anchors=NUM_ANCHORS)
WARMUP = 2          # untimed passes at the end of each set-up
SETUP_REPEATS = 5   # set-ups per run; setup_s is their median
IOU_MATCH = 0.5
# tracemalloc makes the Python-heavy NMS 5-10x slower, and the dense reference
# of a 512 px, C=64 image costs more than a second: both run on part of the pool.
PEAK_POOL = 2
PEAK_PASSES = 2
RECALL_POOL = 8


# --- statistics ----------------------------------------------------------------

def _rank(q: int, n: int) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    return max(1, -(-q * n // 100))


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def samples_beyond(n: int, q: int) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - _rank(q, n)


# --- output checks and quality ---------------------------------------------------

def iou(a, b) -> float:
    """Box IoU, kept apart from postproc.box_iou so that the recall reference
    does not change with the code it measures."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def det_recall(reference, candidates, iou_min: float = IOU_MATCH) -> float:
    """Share of reference detections reproduced by a candidate of the same
    class with IoU >= iou_min. Matching is one-to-one: reference detections
    in list order (descending score) each take the best unused candidate."""
    if not reference:
        return 1.0
    used = [False] * len(candidates)
    hits = 0
    for r in reference:
        best, best_j = -1.0, -1
        for j, c in enumerate(candidates):
            if used[j] or c.class_id != r.class_id:
                continue
            v = iou(r.box, c.box)
            if v >= iou_min and v > best:
                best, best_j = v, j
        if best_j >= 0:
            used[best_j] = True
            hits += 1
    return hits / len(reference)


def fingerprint(result, dets):
    """Detection JSON plus the computed key set of every level."""
    keys = [(r.level, None if r.computed_keys is None else r.computed_keys.positions.tobytes())
            for r in result.records]
    return [d.to_json() for d in dets], keys


def key_fraction(result, level: int) -> float:
    rec = result.record(level)
    if rec.computed_keys is None:
        return 1.0
    return len(rec.computed_keys) / (rec.height * rec.width)


def object_coverage(result, blobs) -> tuple[int, int]:
    """(objects whose cell was computed on every cascade level, objects planted)."""
    covered = 0
    for b in blobs:
        ok = True
        for rec in result.records:
            if rec.computed_keys is None:
                continue
            cell = (int(b.cx) >> rec.level, int(b.cy) >> rec.level)
            pos = rec.computed_keys.positions
            if not ((pos[:, 0] == cell[0]) & (pos[:, 1] == cell[1])).any():
                ok = False
                break
        covered += ok
    return covered, len(blobs)


class Checks:
    """Counts passes and failures. The first good pass over a pool image is
    kept as that image's reference; every later pass must reproduce it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.first_error: str | None = None
        self.first: dict[int, tuple] = {}   # pool index -> (result, dets, fingerprint)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] += 1

    def error(self) -> None:
        self.attempted += 1
        self.fail("exception")
        if self.first_error is None:
            self.first_error = traceback.format_exc()

    def check(self, idx: int, result, dets) -> bool:
        self.attempted += 1
        if not dets:
            self.fail("empty detection list")
            return False
        fp = fingerprint(result, dets)
        _, _, ref = self.first.setdefault(idx, (result, dets, fp))
        if fp[0] != ref[0]:
            self.fail("detections differ between passes")
            return False
        if fp[1] != ref[1]:
            self.fail("key sets differ between passes")
            return False
        return True

    def cover(self, pyrs, w, cfg) -> None:
        """An untimed, checked pass over each pool image the loop never reached."""
        for idx, pyr in enumerate(pyrs):
            if idx not in self.first:
                try:
                    self.check(idx, *run_image(pyr, w, cfg))
                except Exception:
                    self.error()


# --- the run -----------------------------------------------------------------------

def run_image(pyr, w, cfg):
    result = query.run_pipeline(pyr, w, cfg)
    return result, postproc.detections_from_result(result, ANCHORS, NUM_CLASSES)


def _write_inputs(wl: Workload, seed: int, pool_size: int | None, workdir: Path):
    """Generate the pool and write it in the library's own file formats."""
    pool = make_pool(wl, seed, pool_size)
    wpath = workdir / "weights.qdwts"
    cq.save_weights(make_weights(wl), wpath)
    ppaths = []
    for k, (pyr, _) in enumerate(pool):
        ppaths.append(workdir / f"pyramid{k}.qdpyr")
        cq.save_pyramid(pyr, ppaths[-1])
    return wpath, ppaths, [blobs for _, blobs in pool]


def _setup(wpath, ppaths, cfg, warmup: int, tracer=None):
    """Load weights and pool, then warm up: everything before the first timed image."""
    t0 = time.perf_counter()
    with tracer.installed() if tracer else nullcontext():
        w = model.load_weights(wpath)
        pyrs = [model.load_pyramid(p) for p in ppaths]
    for k in range(warmup):
        run_image(pyrs[k % len(pyrs)], w, cfg)
    return time.perf_counter() - t0, w, pyrs


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path, *,
                 pool_size: int | None = None, warmup: int = WARMUP,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    cfg = wl.config()
    wpath, ppaths, blobs = _write_inputs(wl, seed, pool_size, workdir)
    tracer = spanlib.Tracer(MODULES) if trace else None

    setups, loads = [], []

    def setup():
        n0 = len(tracer.spans) if tracer else 0
        took, w, pyrs = _setup(wpath, ppaths, cfg, warmup, tracer)
        setups.append(took)
        if tracer:
            loads.append(sum(s.end - s.start for s in tracer.spans[n0:]
                             if s.name == "model.load" and s.parent < 0) / 1e6)
        return w, pyrs

    w, pyrs = setup()
    if trace:
        for _ in range(setup_repeats - 1):
            w = pyrs = None     # free the previous set-up's pool before loading the next
            w, pyrs = setup()
    gc.collect()

    checks = Checks()
    if trace:
        body = _traced_loop(pyrs, w, cfg, seconds, checks, tracer)
        checks.cover(pyrs, w, cfg)
        body["metrics"].update(_pool_counts(checks.first, blobs, pyrs, w, cfg))
        body["metrics"]["model.load.ms"] = (statistics.median(loads), "ms")
    else:
        body = _timed_loop(pyrs, w, cfg, seconds, checks, setup, setup_repeats)
        checks.cover(pyrs, w, cfg)
        body["metrics"].update(_cost(checks, pyrs, w, cfg))
        body["metrics"]["setup_s"] = (statistics.median(setups), "s")
    body["samples"].update({"setup_s_each": setups, "warmup": warmup,
                            "pool_size": len(pyrs),
                            "attempted": checks.attempted, "failed": checks.failed,
                            "error_rate": checks.failed / max(checks.attempted, 1)})
    correct = checks.failed == 0 and checks.attempted > 0 and body.pop("consistent", True)
    return {
        "workload": wl.name, "definition": wl.describe(), "seed": seed,
        "seconds": seconds, "trace": int(trace), "correct": correct,
        "attempted": checks.attempted, "failed": checks.failed,
        "failure_reasons": dict(checks.reasons), "first_error": checks.first_error,
        **body,
    }


def _timed_loop(pyrs, w, cfg, seconds: float, checks: Checks, setup, setup_repeats: int) -> dict:
    """Whole cycles over the pool, so that every pool image is timed equally
    often. A cycle starts only if it is expected to end within `seconds`
    (judged by the previous cycle); the first always runs.

    Each image is preceded by one run of the fixed reference computation, and
    its wall time is also reported divided by that reference time: the host's
    speed swings in phases of seconds, and the ratio cancels the swing.

    One set-up has run before the loop; the other setup_repeats - 1 run
    between images, evenly spaced over `seconds` (their pools are dropped),
    so that the median set-up time spans the host's phases too."""
    lat, refs, rel = [], [], []
    cycles, setups = 0, 1
    start = time.perf_counter()
    cycle_s = 0.0
    while cycles == 0 or time.perf_counter() - start + cycle_s <= seconds:
        c0 = time.perf_counter()
        for idx, pyr in enumerate(pyrs):
            if setups < setup_repeats and (time.perf_counter() - start
                                           >= setups * seconds / setup_repeats):
                setup()
                setups += 1
            ref = reference_ms()
            t0 = time.perf_counter()
            try:
                result, dets = run_image(pyr, w, cfg)
            except Exception:
                checks.error()
                continue
            lat.append((time.perf_counter() - t0) * 1e3)
            refs.append(ref)
            rel.append(lat[-1] / ref)
            checks.check(idx, result, dets)
        cycle_s = time.perf_counter() - c0
        cycles += 1
    for _ in range(setups, setup_repeats):
        setup()
    n = len(lat)
    metrics, wall = {}, {}
    if n:
        metrics = {
            "image_rel.p50": (percentile(rel, 50), "ref"),
            "image_rel.p90": (percentile(rel, 90), "ref"),
            "images_per_ref": (n / sum(rel), "1/ref"),
        }
        wall = {"image_ms.p50": percentile(lat, 50), "image_ms.p90": percentile(lat, 90),
                "images_per_s": n / (sum(lat) / 1e3), "reference_ms.p50": percentile(refs, 50)}
    return {"metrics": metrics,
            "samples": {"images_timed": n, "cycles": cycles,
                        "p90_samples_beyond": samples_beyond(n, 90) if n else 0,
                        "wall": wall}}


def _cost(checks: Checks, pyrs, w, cfg) -> dict:
    """The MAC fraction over the pool, and the peak allocation of one pass:
    the least of PEAK_PASSES checked, untimed passes over each of the first
    PEAK_POOL images (a stray allocation now and then doubles one pass's
    peak), maximum over those images."""
    peaks = []
    for idx, pyr in enumerate(pyrs[:PEAK_POOL]):
        passes = []
        for _ in range(PEAK_PASSES):
            gc.collect()
            tracemalloc.start()
            try:
                result, dets = run_image(pyr, w, cfg)
                passes.append(tracemalloc.get_traced_memory()[1] / 2**20)
            except Exception:
                checks.error()
                continue
            finally:
                tracemalloc.stop()
            checks.check(idx, result, dets)
        if passes:
            peaks.append(min(passes))
    metrics = {}
    if checks.first:
        metrics["mac_fraction"] = (statistics.fmean(
            r.total_flops / r.dense_equiv_flops for r, _, _ in checks.first.values()), "fraction")
    if peaks:
        metrics["peak_alloc_mb"] = (max(peaks), "MB")
    return metrics


def _pool_counts(first: dict, blobs, pyrs, w, cfg) -> dict:
    """Per-image counts that depend only on the inputs, averaged over the pool,
    and recall against the dense pipeline over the first RECALL_POOL images."""
    if not first:
        return {}
    covered = planted = 0
    for idx, (result, _, _) in first.items():
        c, p = object_coverage(result, blobs[idx])
        covered, planted = covered + c, planted + p
    dense_cfg = cq.QueryConfig(strategy="dense", sigma=cfg.sigma)
    recalls = [det_recall(run_image(pyrs[idx], w, dense_cfg)[1], first[idx][1])
               for idx in sorted(first)[:RECALL_POOL]]
    results = [r for r, _, _ in first.values()]
    return {
        "query.key_fraction.L3": (statistics.fmean(key_fraction(r, 3) for r in results),
                                  "fraction"),
        "query.key_fraction.L2": (statistics.fmean(key_fraction(r, 2) for r in results),
                                  "fraction"),
        "query.small_object_coverage": (covered / planted if planted else 1.0, "fraction"),
        "det_recall_vs_dense": (statistics.fmean(recalls), "fraction"),
    }


def _traced_loop(pyrs, w, cfg, seconds: float, checks: Checks, tracer) -> dict:
    """Alternate an untraced and a traced pass of each image, so that the
    tracing overhead is measured under the same host conditions."""
    conv_hooked = set(spanlib.CONV_SPANS) <= tracer.hooked_spans
    plain, traced, image_counts = [], [], []
    first_counts: dict[int, Counter] = {}
    mac_failures = 0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or k < len(pyrs):
        idx = k % len(pyrs)
        k += 1
        t0 = time.perf_counter()
        try:
            result, dets = run_image(pyrs[idx], w, cfg)
        except Exception:
            checks.error()
            continue
        plain.append((time.perf_counter() - t0) * 1e3)
        checks.check(idx, result, dets)

        tracer.counts = Counter()
        tracer.image = k
        try:
            with tracer.installed(), tracer.span("image") as root:
                result, dets = run_image(pyrs[idx], w, cfg)
        except Exception:
            checks.error()
            continue
        finally:
            tracer.image = None
        traced.append((root.end - root.start) / 1e6)
        image_counts.append(tracer.counts)
        if not checks.check(idx, result, dets):
            continue
        if conv_hooked and not spanlib.mac_identity(tracer.counts, result.total_flops):
            mac_failures += 1
            checks.fail("conv-span MACs differ from total_flops")
        elif first_counts.setdefault(idx, tracer.counts) != tracer.counts:
            checks.fail("work counts differ between passes")

    metrics, reconciled = {}, True
    if traced and plain:
        images = {s.image for s in tracer.spans if s.name == "image"}
        totals = spanlib.layer_totals(tracer.spans, images)
        metrics, reconciled = _layer_metrics(totals, len(traced), image_counts, first_counts,
                                             plain, traced, tracer.hooked_spans)
    return {
        "metrics": metrics,
        "consistent": reconciled,
        "samples": {"images_traced": len(traced), "images_untraced": len(plain),
                    "spans": len(tracer.spans), "mac_identity_checked": conv_hooked,
                    "mac_identity_failures": mac_failures, "self_time_reconciled": reconciled},
        "absent_hooks": tracer.absent,
        "chrome_trace": spanlib.chrome_trace(tracer.spans),
    }


def _layer_metrics(totals, n, image_counts, first_counts, plain, traced, hooked):
    def self_ms(*names):
        return sum(totals.get(x, {}).get("self_ms", 0.0) for x in names) / n

    def busy_ms(name):
        return totals.get(name, {}).get("busy_ms", 0.0) / n

    def pool_mean(key):
        return statistics.fmean(c[key] for c in first_counts.values()) if first_counts else 0.0

    def rate(span, key):
        secs = totals.get(span, {}).get("self_ms", 0.0) / 1e3
        return sum(c[key] for c in image_counts) / secs / 1e9 if secs else 0.0

    def ratio(num, den):
        d = pool_mean(den)
        return pool_mean(num) / d if d else 0.0

    # (metric, unit, span it derives from or None, value)
    table = [
        ("tensor.conv2d.calls", "count", "tensor.conv2d", pool_mean("tensor.conv2d.calls")),
        ("tensor.conv2d.ms", "ms", "tensor.conv2d", self_ms("tensor.conv2d")),
        ("tensor.conv2d.macs", "count", "tensor.conv2d", pool_mean("tensor.conv2d.macs")),
        ("tensor.conv2d.gmac_per_s", "GMAC/s", "tensor.conv2d",
         rate("tensor.conv2d", "tensor.conv2d.macs")),
        ("tensor.relu.ms", "ms", "tensor.relu", self_ms("tensor.relu")),
        ("sparse.build_rulebook.ms", "ms", "sparse.build_rulebook",
         self_ms("sparse.build_rulebook")),
        ("sparse.rulebook_entries", "count", "sparse.build_rulebook",
         pool_mean("sparse.rulebook_entries")),
        ("sparse.rulebook_density", "fraction", "sparse.build_rulebook",
         ratio("sparse.rulebook_entries", "sparse.rulebook_keys") / 9.0),
        ("sparse.gather.ms", "ms", "sparse.gather", self_ms("sparse.gather")),
        ("sparse.sparse_conv.calls", "count", "sparse.sparse_conv",
         pool_mean("sparse.sparse_conv.calls")),
        ("sparse.sparse_conv.ms", "ms", "sparse.sparse_conv", self_ms("sparse.sparse_conv")),
        ("sparse.sparse_conv.macs", "count", "sparse.sparse_conv",
         pool_mean("sparse.sparse_conv.macs")),
        ("sparse.sparse_conv.gmac_per_s", "GMAC/s", "sparse.sparse_conv",
         rate("sparse.sparse_conv", "sparse.sparse_conv.macs")),
        ("sparse.sparse_relu.ms", "ms", "sparse.sparse_relu", self_ms("sparse.sparse_relu")),
        ("model.run_dense_head.ms", "ms", "model.run_dense_head",
         busy_ms("model.run_dense_head")),
        ("model.run_sparse_head.ms", "ms", "model.run_sparse_head",
         busy_ms("model.run_sparse_head")),
        ("model.self_ms", "ms", None, self_ms("model.run_dense_head", "model.run_sparse_head")),
        ("query.run_pipeline.ms", "ms", "query.run_pipeline", busy_ms("query.run_pipeline")),
        ("query.self_ms", "ms", "query.run_pipeline", self_ms("query.run_pipeline")),
        ("query.extract_queries.ms", "ms", "query.extract_queries",
         self_ms("query.extract_queries")),
        ("query.queries", "count", "query.extract_queries", pool_mean("query.queries")),
        ("query.map_queries_to_keys.ms", "ms", "query.map_queries_to_keys",
         self_ms("query.map_queries_to_keys")),
        ("query.crop_patch.calls", "count", "query.crop_patch",
         pool_mean("query.crop_patch.calls")),
        ("query.crop_patch.ms", "ms", "query.crop_patch", self_ms("query.crop_patch")),
        ("postproc.self_ms", "ms", "postproc.detections_from_result",
         self_ms("postproc.detections_from_result")),
        ("postproc.decode.ms", "ms", "postproc.decode", self_ms("postproc.decode")),
        ("postproc.candidates", "count", "postproc.nms", pool_mean("postproc.candidates")),
        ("postproc.nms.ms", "ms", "postproc.nms", self_ms("postproc.nms")),
        ("postproc.nms.kept_ratio", "fraction", "postproc.nms",
         ratio("postproc.kept", "postproc.candidates")),
        ("trace.overhead", "fraction", None,
         percentile(traced, 50) / percentile(plain, 50) - 1.0),
        ("trace.unattributed_ms", "ms", None, self_ms("image")),
    ]
    metrics = {name: (value, unit) for name, unit, span, value in table
               if span is None or span in hooked}
    image_ms = sum(traced) / n
    reconciled = math.isclose(sum(t["self_ms"] for t in totals.values()) / n, image_ms,
                              rel_tol=1e-9, abs_tol=1e-6)
    return metrics, reconciled
