"""Command-line front end.

Subcommands: gen-fixture (seeded pyramid/weights/ground-truth files), run (one
pipeline, report + detections JSON), verify (oracle equivalence checks over a
fixture directory), bench (threshold sweep timing), flops (analytic cost
breakdown), targets-check (query-target maps from a ground-truth file).

Option precedence is CLI flag > JSON config file (--config) > built-in default;
unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import analysis
from .errors import CascadeQueryError, ConfigurationError
from .model import (TOWER_DEPTH, Blob, level_dims, load_pyramid, load_weights,
                    make_fixture_weights, make_synthetic_pyramid, save_pyramid, save_weights)
from .postproc import AnchorConfig, detections_from_result, detections_to_json
from .query import STRATEGIES, CascadeResult, QueryConfig, run_pipeline
from .sparse import KeySet, build_rulebook
from .targets import GroundTruthObject, GroundTruthSet, query_target_for_level
from .tensor import DenseTensor, save_tensor, sigmoid_array

PYRAMID_FILE = "pyramid.qdpyr"
WEIGHTS_FILE = "weights.qdwts"
GROUND_TRUTH_FILE = "ground_truth.json"
CHECKSUMS_FILE = "checksums.json"

DEFAULTS = {
    "seed": 0,
    "image_size": 512,
    "channels": 16,
    "anchors": 1,
    "classes": 4,
    "min_level": 2,
    "max_level": 7,
    "start_level": 4,
    "strategy": "csq",
    "sigma": 0.15,
    "repeats": 5,
    "warmup": 2,
    "blobs": 3,
    "base": 4.0,
    "score_threshold": 0.05,
    "iou_threshold": 0.5,
    "top_k": 100,
}
PATH_KEYS = {"pyramid", "weights", "out", "gt", "fixture"}
LIST_KEYS = {"blob"}
ALLOWED_CONFIG_KEYS = set(DEFAULTS) | PATH_KEYS | LIST_KEYS


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - ALLOWED_CONFIG_KEYS)
    if unknown:
        raise ConfigurationError(f"config file {path} has unknown keys: {unknown}")
    return data


def _coerce(key: str, value):
    if key in PATH_KEYS:
        if not isinstance(value, str):
            raise ConfigurationError(f"option {key!r} must be a path string")
        return value
    if key in LIST_KEYS:
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise ConfigurationError(f"option {key!r} must be a list of strings")
        return value
    default = DEFAULTS[key]
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"option {key!r} must be a number, got {value!r}")
        return float(value)
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"option {key!r} must be an integer, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ConfigurationError(f"option {key!r} must be a string, got {value!r}")
    return value


class Options:
    """Merged view of CLI flags, config file, and defaults."""

    def __init__(self, args: argparse.Namespace):
        self._cfg = _load_config(args.config) if getattr(args, "config", None) else {}
        self._args = args

    def get(self, key: str):
        v = getattr(self._args, key, None)
        if v is not None:
            return v
        if key in self._cfg:
            return _coerce(key, self._cfg[key])
        if key in DEFAULTS:
            return DEFAULTS[key]
        return None

    def require(self, key: str):
        v = self.get(key)
        if v is None:
            raise ConfigurationError(f"missing required option --{key.replace('_', '-')}")
        return v

    def query_config(self) -> QueryConfig:
        return QueryConfig(
            strategy=self.get("strategy"),
            sigma=self.get("sigma"),
            start_level=self.get("start_level"),
            min_level=self.get("min_level"),
        )

    def postproc_options(self) -> dict:
        """Validated keyword arguments for detections_from_result."""
        kw = {key: self.get(key) for key in ("iou_threshold", "score_threshold", "top_k")}
        for key in ("iou_threshold", "score_threshold"):
            if not 0.0 <= kw[key] <= 1.0:
                raise ConfigurationError(f"--{key.replace('_', '-')} must lie in [0, 1], "
                                         f"got {kw[key]}")
        if kw["top_k"] < 0:
            raise ConfigurationError(f"--top-k must be non-negative, got {kw['top_k']}")
        return kw


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --- gen-fixture -------------------------------------------------------------

def _parse_blob(text: str, image_size: int) -> Blob:
    parts = text.split(",")
    if len(parts) not in (4, 5, 6):
        raise ConfigurationError(
            f"--blob wants 'cx,cy,w,h[,class[,amplitude]]', got {text!r}"
        )
    try:
        cx, cy, w, h = (float(p) for p in parts[:4])
        cls = int(parts[4]) if len(parts) > 4 else 0
        amp = float(parts[5]) if len(parts) > 5 else 8.0
    except ValueError:
        raise ConfigurationError(f"--blob has non-numeric fields: {text!r}") from None
    if not (0 <= cx < image_size and 0 <= cy < image_size):
        raise ConfigurationError(f"blob center ({cx}, {cy}) outside {image_size}px image")
    return Blob(cx=cx, cy=cy, width=w, height=h, class_id=cls, amplitude=amp)


def _random_blobs(rng: np.random.Generator, count: int, image_size: int,
                  num_classes: int) -> list[Blob]:
    blobs = []
    for _ in range(count):
        cx = float(rng.uniform(0.12, 0.88) * image_size)
        cy = float(rng.uniform(0.12, 0.88) * image_size)
        w = float(rng.uniform(8.0, 14.0))
        h = float(rng.uniform(8.0, 14.0))
        cls = int(rng.integers(0, num_classes))
        amp = float(rng.uniform(7.0, 11.0))
        blobs.append(Blob(cx=cx, cy=cy, width=w, height=h, class_id=cls, amplitude=amp))
    return blobs


def make_fixture(seed: int, image_size: int, channels: int, anchors: int, classes: int,
                 min_level: int, max_level: int, blob_count: int,
                 explicit_blobs: list[Blob] | None = None):
    """Deterministic (pyramid, weights, blobs) triple for one seed."""
    s_blob, s_pyr, s_wts = (int(s) for s in np.random.SeedSequence(seed).generate_state(3))
    blobs = explicit_blobs if explicit_blobs is not None else _random_blobs(
        np.random.default_rng(s_blob), blob_count, image_size, classes)
    pyr = make_synthetic_pyramid(s_pyr, image_size, image_size, min_level, max_level,
                                 channels, blobs)
    weights = make_fixture_weights(s_wts, channels, anchors, classes)
    return pyr, weights, blobs


def cmd_gen_fixture(opts: Options) -> int:
    out_dir = opts.require("out")
    image_size = opts.get("image_size")
    explicit = None
    if opts.get("blob"):
        explicit = [_parse_blob(b, image_size) for b in opts.get("blob")]
    pyr, weights, blobs = make_fixture(
        opts.get("seed"), image_size, opts.get("channels"), opts.get("anchors"),
        opts.get("classes"), opts.get("min_level"), opts.get("max_level"),
        opts.get("blobs"), explicit)
    gt = GroundTruthSet(image_size, image_size, [
        GroundTruthObject(b.cx, b.cy, b.width, b.height, b.class_id) for b in blobs
    ])
    os.makedirs(out_dir, exist_ok=True)
    save_pyramid(pyr, os.path.join(out_dir, PYRAMID_FILE))
    save_weights(weights, os.path.join(out_dir, WEIGHTS_FILE))
    _write_json(os.path.join(out_dir, GROUND_TRUTH_FILE), gt.to_json())
    sums = {
        name: _sha256(os.path.join(out_dir, name))
        for name in (PYRAMID_FILE, WEIGHTS_FILE, GROUND_TRUTH_FILE)
    }
    _write_json(os.path.join(out_dir, CHECKSUMS_FILE), {"schema": "qd/1", "files": sums})
    print(f"fixture written to {out_dir} ({len(blobs)} objects, seed {opts.get('seed')})")
    return 0


# --- run ---------------------------------------------------------------------

def cmd_run(opts: Options) -> int:
    post = opts.postproc_options()
    pyr = load_pyramid(opts.require("pyramid"))
    weights = load_weights(opts.require("weights"))
    out_dir = opts.require("out")
    result = run_pipeline(pyr, weights, opts.query_config())
    anchor_cfg = AnchorConfig(base=opts.get("base"), num_anchors=weights.num_anchors)
    t0 = time.perf_counter()
    dets = detections_from_result(result, anchor_cfg, weights.num_classes, **post)
    postproc_millis = (time.perf_counter() - t0) * 1000.0
    report = result.report()
    report["postproc_millis"] = postproc_millis
    report["detections"] = len(dets)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "report.json"), report)
    _write_json(os.path.join(out_dir, "detections.json"), detections_to_json(dets))
    print(f"{result.strategy}: {len(dets)} detections, "
          f"{result.total_flops} MACs "
          f"({report['flops_fraction_of_dense']:.4f} of dense), "
          f"{result.total_millis:.1f} ms + {postproc_millis:.1f} ms post-processing "
          f"-> {out_dir}")
    return 0


# --- verify ------------------------------------------------------------------

class CheckFailure(Exception):
    pass


def _rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    if actual.size == 0:
        return 0.0
    scale = max(float(np.max(np.abs(expected))), 1e-12)
    return float(np.max(np.abs(actual.astype(np.float64) - expected.astype(np.float64)))) / scale


def _check_against_dense(pyr, weights, dense: CascadeResult | Exception, cfg: QueryConfig,
                         exact: bool) -> tuple[CascadeResult, int, str]:
    """Run `cfg` and compare its rows with the `dense` run at every computed key:
    bitwise if `exact`, else within 1e-5 relative. `dense` is the exception
    instead if the dense run crashed. Returns the run, the number of keys
    compared and a summary."""
    if isinstance(dense, Exception):
        raise dense
    result = run_pipeline(pyr, weights, cfg)
    worst = 0.0
    rows = 0
    for rec in result.records:
        keys = rec.computed_keys
        if keys is None:
            continue
        want = dense.record(rec.level).output
        at = want.keys.rows_of(keys)
        for name in ("cls_logits", "reg_deltas", "query_logits"):
            g = getattr(rec.output, name).features
            e = getattr(want, name).features[at]
            if exact and not np.array_equal(g, e):
                raise CheckFailure(
                    f"level {rec.level} {name} outputs not bitwise equal at kept keys")
            worst = max(worst, _rel_err(g, e))
        rows += len(keys)
    where = f"{rows} keys"
    if exact:
        return result, rows, f"bitwise equal at {where}"
    if worst > 1e-5:
        raise CheckFailure(f"relative error {worst:.3e} exceeds 1e-5 over {where}")
    return result, rows, f"max relative error {worst:.3e} over {where}"


def _check_ccq_exact(pyr, weights, dense: CascadeResult | Exception, cfg: QueryConfig,
                     base: float, post: dict) -> tuple[int, str]:
    ccq, rows, detail = _check_against_dense(pyr, weights, dense,
                                             dataclasses.replace(cfg, strategy="ccq"), True)
    uncovered = 0
    for rec in ccq.records:
        if rec.computed_keys is None:
            continue
        cls = dense.record(rec.level).output.cls_logits
        hot, _ = np.nonzero(sigmoid_array(cls.features) > post["score_threshold"])
        covered = set(rec.computed_keys.as_tuples())
        uncovered += sum(1 for p in map(tuple, cls.keys.positions[hot].tolist())
                         if p not in covered)
    if uncovered:
        return rows, (f"{detail}; {uncovered} above-threshold dense positions uncovered by "
                      f"keys, detections comparison skipped")
    anchor_cfg = AnchorConfig(base=base, num_anchors=weights.num_anchors)
    d1, d2 = (detections_to_json(detections_from_result(r, anchor_cfg, weights.num_classes,
                                                        **post)) for r in (dense, ccq))
    if d1 != d2:
        raise CheckFailure("detections differ between dense and ccq")
    return rows, f"{detail}; {len(d1)} detections identical"


def _brute_force_query_target(gt: GroundTruthSet, level: int, height: int, width: int,
                              base: float) -> np.ndarray:
    """Independent double-loop re-derivation of the query target map."""
    stride = 1 << level
    scale = base * stride
    centers = [
        (math.floor(o.cx / stride), math.floor(o.cy / stride))
        for o in gt.objects if max(o.width, o.height) < scale
    ]
    out = np.zeros((height, width), dtype=np.float32)
    for y in range(height):
        for x in range(width):
            for gx, gy in centers:
                if math.sqrt((x - gx) ** 2 + (y - gy) ** 2) < base:
                    out[y, x] = 1.0
                    break
    return out


def _check_targets(pyr, gt: GroundTruthSet, base: float) -> str:
    cells = 0
    for level in sorted(pyr.levels):
        h, w = pyr.levels[level].height, pyr.levels[level].width
        fast = query_target_for_level(gt, level, h, w, base)
        slow = _brute_force_query_target(gt, level, h, w, base)
        if not np.array_equal(fast, slow):
            bad = int(np.sum(fast != slow))
            raise CheckFailure(f"level {level}: {bad} cells disagree with brute force")
        cells += h * w
    return f"query targets match brute force over {cells} cells"


def _check_flops_identity(pyr, weights) -> str:
    a, k = weights.num_anchors, weights.num_classes
    c = weights.channels
    dims = sorted({(pyr.levels[l].height, pyr.levels[l].width) for l in pyr.levels})[:2]
    dims.append((5, 9))
    for h, w in dims:
        rb = build_rulebook(KeySet.full(0, h, w))
        expect = analysis.inbounds_pairs(h, w)
        if rb.num_entries != expect:
            raise CheckFailure(
                f"full-coverage rulebook at {h}x{w} has {rb.num_entries} entries, "
                f"expected {expect}")
        sparse = analysis.head_flops_sparse(rb.num_entries, c, a, k)
        dense = analysis.head_flops_dense(h, w, c, a, k)
        if sparse > dense:
            raise CheckFailure(f"sparse MACs exceed dense at full coverage ({h}x{w})")
        per_conv = analysis.head_flops_sparse([rb.num_entries] * (TOWER_DEPTH + 1), c, a, k)
        if per_conv != sparse:
            raise CheckFailure(f"a constant schedule at {h}x{w} is charged {per_conv} MACs, "
                               f"one shared rulebook {sparse}")
    if 9 * analysis.head_flops_sparse(1, c, a, k) != analysis.head_flops_dense(1, 1, c, a, k):
        raise CheckFailure("isolated key is not 1/9 of a dense position")
    return (f"entry counts match (3H-2)(3W-2) on {len(dims)} grids; a constant schedule "
            f"costs one shared rulebook; isolated key is dense/9")


def cmd_verify(opts: Options) -> int:
    fdir = opts.require("fixture")
    post = opts.postproc_options()
    warnings = []
    sums_path = os.path.join(fdir, CHECKSUMS_FILE)
    if os.path.exists(sums_path):
        with open(sums_path, "r", encoding="utf-8") as f:
            recorded = json.load(f).get("files", {})
        for name, want in recorded.items():
            path = os.path.join(fdir, name)
            if not os.path.exists(path):
                warnings.append(f"{name}: listed in checksums but missing")
            elif _sha256(path) != want:
                warnings.append(f"{name}: checksum mismatch (file changed since generation)")
    pyr = load_pyramid(os.path.join(fdir, PYRAMID_FILE))
    weights = load_weights(os.path.join(fdir, WEIGHTS_FILE))
    with open(os.path.join(fdir, GROUND_TRUTH_FILE), "r", encoding="utf-8") as f:
        gt = GroundTruthSet.from_json(json.load(f), pyr.image_height, pyr.image_width)

    checks = []

    def run_check(name, fn, *args):
        try:
            detail = fn(*args)
            if isinstance(detail, tuple):  # a comparison with dense: (..., keys, detail)
                compared, detail = detail[-2:]
                if compared == 0:
                    warnings.append(f"{name}: compared 0 keys below the start level, "
                                    f"so it checked nothing on this fixture")
            checks.append({"name": name, "passed": True, "detail": detail})
        except CheckFailure as e:
            checks.append({"name": name, "passed": False, "detail": str(e)})
        except Exception as e:  # a crashed check is a failed check, with context
            checks.append({"name": name, "passed": False,
                           "detail": f"{type(e).__name__}: {e}"})

    cfg, base = opts.query_config(), opts.get("base")
    try:  # one dense reference for the three strategy checks
        dense = run_pipeline(pyr, weights, dataclasses.replace(cfg, strategy="dense"))
    except Exception as e:  # each of those checks then fails with this error
        dense = e
    run_check("ccq-exact", _check_ccq_exact, pyr, weights, dense, cfg, base, post)
    run_check("csq-sigma0", _check_against_dense, pyr, weights, dense,
              dataclasses.replace(cfg, strategy="csq", sigma=0.0), False)
    run_check("cq-dense", _check_against_dense, pyr, weights, dense,
              dataclasses.replace(cfg, strategy="cq"), False)
    run_check("query-targets", _check_targets, pyr, gt, base)
    run_check("flops-identity", _check_flops_identity, pyr, weights)

    verdict = {
        "schema": "qd/1",
        "fixture": fdir,
        "checks": checks,
        "warnings": warnings,
        "passed": all(c["passed"] for c in checks),
    }
    out = opts.get("out")
    if out:
        os.makedirs(out, exist_ok=True)
        _write_json(os.path.join(out, "verify.json"), verdict)
    print(json.dumps(verdict, indent=2))
    return 0 if verdict["passed"] else 1


# --- bench / flops -----------------------------------------------------------

def cmd_bench(opts: Options) -> int:
    pyr = load_pyramid(opts.require("pyramid"))
    weights = load_weights(opts.require("weights"))
    out_dir = opts.require("out")
    repeats, warmup = opts.get("repeats"), opts.get("warmup")
    base_cfg = opts.query_config()
    dense_cfg = QueryConfig(strategy="dense", start_level=base_cfg.start_level,
                            min_level=base_cfg.min_level)
    # One call, so the baseline and the sweep share every timing round.
    configs = [dense_cfg] + [dataclasses.replace(base_cfg, sigma=s)
                             for s in analysis.sweep_sigmas()]
    results = analysis.run_benchmark(pyr, weights, configs, repeats=repeats,
                                     warmup=warmup)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "bench.csv"), "w", encoding="utf-8") as f:
        f.write(analysis.bench_csv(results))
    _write_json(os.path.join(out_dir, "bench.json"), analysis.bench_json(results))
    ref = results[0].end_to_end_millis
    best = min(results[1:], key=lambda r: r.end_to_end_millis)
    print(f"dense: {ref:.2f} ms; fastest {best.strategy} at sigma={best.sigma}: "
          f"{best.end_to_end_millis:.2f} ms ({ref / max(best.end_to_end_millis, 1e-9):.2f}x) "
          f"-> {out_dir}")
    return 0


def cmd_flops(opts: Options) -> int:
    size = opts.get("image_size")
    levels = list(range(opts.get("min_level"), opts.get("max_level") + 1))
    payload = analysis.flops_report(size, size, levels, opts.get("channels"),
                                    opts.get("anchors"), opts.get("classes"))
    payload["image"] = [size, size]
    if min(levels) <= 2 and max(levels) >= 7:
        payload["p2_cost_increase"] = analysis.p2_cost_increase(
            size, size, opts.get("channels"), opts.get("anchors"), opts.get("classes"))
    out = opts.get("out")
    if out:
        _write_json(out, payload)
        print(f"flops report -> {out}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_targets_check(opts: Options) -> int:
    gt_path = opts.require("gt")
    out_dir = opts.require("out")
    size = opts.get("image_size")
    base = opts.get("base")
    with open(gt_path, "r", encoding="utf-8") as f:
        gt = GroundTruthSet.from_json(json.load(f), size, size)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for level in range(opts.get("min_level"), opts.get("max_level") + 1):
        h, w = level_dims(size, size, level)
        vmap = query_target_for_level(gt, level, h, w, base)
        name = f"v_star_l{level}.qdt"
        save_tensor(DenseTensor(vmap[None, :, :]), os.path.join(out_dir, name))
        rows.append({"level": level, "shape": [h, w], "positives": int(vmap.sum()),
                     "total": h * w, "file": name})
    summary = {"schema": "qd/1", "image": [size, size], "base": base,
               "objects": len(gt.objects), "levels": rows}
    _write_json(os.path.join(out_dir, "targets_summary.json"), summary)
    print(f"query targets for {len(gt.objects)} objects -> {out_dir}")
    return 0


# --- argument plumbing -------------------------------------------------------

def _add(p: argparse.ArgumentParser, *names: str) -> None:
    spec = {
        "pyramid": dict(type=str, help="QDPYR1 pyramid file"),
        "weights": dict(type=str, help="QDWTS1 head weights file"),
        "out": dict(type=str, help="output file or directory"),
        "gt": dict(type=str, help="ground-truth JSON file"),
        "fixture": dict(type=str, help="fixture directory from gen-fixture"),
        "config": dict(type=str, help="JSON config file (flags override it)"),
        "seed": dict(type=int),
        "image_size": dict(type=int, help="square image side in pixels"),
        "channels": dict(type=int),
        "anchors": dict(type=int),
        "classes": dict(type=int),
        "min_level": dict(type=int),
        "max_level": dict(type=int),
        "start_level": dict(type=int),
        "strategy": dict(type=str, choices=STRATEGIES),
        "sigma": dict(type=float),
        "repeats": dict(type=int),
        "warmup": dict(type=int),
        "blobs": dict(type=int, help="number of random planted objects"),
        "blob": dict(type=str, action="append", help="explicit object 'cx,cy,w,h[,class[,amplitude]]'"),
        "base": dict(type=float, help="anchor base scale"),
        "score_threshold": dict(type=float),
        "iou_threshold": dict(type=float),
        "top_k": dict(type=int),
    }
    for n in names:
        p.add_argument(f"--{n.replace('_', '-')}", default=None, **spec[n])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadequery",
        description="Sparse query cascade over feature pyramids: fixtures, "
                    "pipelines, verification, and cost analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixture", help="write a seeded pyramid/weights/ground-truth set")
    _add(p, "out", "seed", "image_size", "channels", "anchors", "classes",
         "min_level", "max_level", "blobs", "blob", "config")

    p = sub.add_parser("run", help="run one strategy and write report + detections")
    _add(p, "pyramid", "weights", "out", "strategy", "sigma", "start_level",
         "min_level", "base", "score_threshold", "iou_threshold", "top_k", "config")

    p = sub.add_parser("verify", help="oracle equivalence checks over a fixture")
    _add(p, "fixture", "out", "sigma", "start_level", "min_level", "base",
         "score_threshold", "iou_threshold", "top_k", "config")

    p = sub.add_parser("bench", help="timing sweep across thresholds")
    _add(p, "pyramid", "weights", "out", "strategy", "repeats", "warmup",
         "start_level", "min_level", "config")

    p = sub.add_parser("flops", help="analytic per-level cost breakdown")
    _add(p, "image_size", "channels", "anchors", "classes", "min_level",
         "max_level", "out", "config")

    p = sub.add_parser("targets-check", help="emit per-level query-target maps")
    _add(p, "gt", "out", "image_size", "base", "min_level", "max_level", "config")

    return parser


COMMANDS = {
    "gen-fixture": cmd_gen_fixture,
    "run": cmd_run,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "flops": cmd_flops,
    "targets-check": cmd_targets_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = Options(args)
        return COMMANDS[args.command](opts)
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CascadeQueryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
