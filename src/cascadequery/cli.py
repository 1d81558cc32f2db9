"""Command-line front end.

Subcommands: gen-fixture (seeded pyramid/weights/ground-truth files), run (one
pipeline, report + detections JSON), verify (oracle equivalence checks over a
fixture directory), bench (threshold sweep timing), flops (analytic cost
breakdown), targets-check (query-target maps from a ground-truth file).

Every option is declared once, in OPTIONS: its type, default, bound and help
text. An unset option that sets a library parameter takes the library's
default, which OPTIONS reads rather than restates: QueryConfig's strategy,
sigma and start level, postproc's thresholds and top-k, and analysis's fewest
timed rounds. `main` resolves each option once, CLI flag > JSON config file
(--config) > default, and checks its type and bound before any subcommand
reads or writes a file; a bad value exits 2 naming the flag. A config file
may set any option, whether the subcommand reads it or not, and its values
are checked either way; unknown config keys are rejected.
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
from .errors import CascadeQueryError, ConfigurationError, FormatError, ValidationError
from .model import (Blob, FeaturePyramid, head_flops_dense, level_dims, load_pyramid,
                    load_weights, make_fixture_weights, make_synthetic_pyramid, run_dense_head,
                    save_pyramid, save_weights)
from .postproc import (IOU_THRESHOLD, SCORE_THRESHOLD, TOP_K, AnchorConfig,
                       detections_from_result, detections_to_json)
from .query import STRATEGIES, CascadeResult, QueryConfig, run_pipeline
from .sparse import KeySet, build_rulebook
from .targets import ANCHOR_BASE, MAX_LEVEL, GroundTruthSet, query_target_for_level
from .tensor import sigmoid_above

PYRAMID_FILE = "pyramid.qdpyr"
TARGETS_FILE = "v_star.qdpyr"
WEIGHTS_FILE = "weights.qdwts"
GROUND_TRUTH_FILE = "ground_truth.json"
CHECKSUMS_FILE = "checksums.json"

# name: (type, default, bound, help). A default of None means required or
# unset. A number's bound is an interval, a string's the values it may take;
# sigma is QueryConfig's to check, and a level's bound is targets.MAX_LEVEL.
OPTIONS = {
    "pyramid": (str, None, None, "QDPYR1 pyramid file"),
    "weights": (str, None, None, "QDWTS1 head weights file"),
    "out": (str, None, None, "output file or directory"),
    "gt": (str, None, None, "ground-truth JSON file"),
    "fixture": (str, None, None, "fixture directory from gen-fixture"),
    "seed": (int, 0, "[0, inf)", "fixture seed"),
    "image_size": (int, 512, "[1, inf)", "square image side in pixels"),
    "channels": (int, 16, "[1, inf)", "feature channels per level"),
    "anchors": (int, 1, "[1, inf)", "anchors per grid cell"),
    "classes": (int, 4, "[1, inf)", "object classes"),
    "min_level": (int, 2, f"[0, {MAX_LEVEL}]", "finest pyramid level"),
    "max_level": (int, 7, f"[0, {MAX_LEVEL}]", "coarsest pyramid level"),
    "start_level": (int, QueryConfig.start_level, f"[0, {MAX_LEVEL}]",
                    "finest level the head runs densely"),
    "strategy": (str, QueryConfig.strategy, STRATEGIES, "how the cascade computes query children"),
    "sigma": (float, QueryConfig.sigma, None, "query score threshold"),
    "repeats": (int, analysis.MIN_REPEATS, f"[{analysis.MIN_REPEATS}, inf)", "timed rounds"),
    "blobs": (int, 3, "[0, inf)", "number of random planted objects"),
    "blob": (list, None, None, "explicit object 'cx,cy,w,h[,class[,amplitude]]'"),
    "score_threshold": (float, SCORE_THRESHOLD, "[0, 1]", "least detection score"),
    "iou_threshold": (float, IOU_THRESHOLD, "[0, 1]", "NMS overlap threshold"),
    "top_k": (int, TOP_K, "[0, inf)", "most detections kept"),
}
POSTPROC_KEYS = ("score_threshold", "iou_threshold", "top_k")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(OPTIONS))
    if unknown:
        raise ConfigurationError(f"config file {path} has unknown keys: {unknown}")
    return data


def _config_value(name: str, kind: type, value):
    """A config file's value for `name`, which must have the option's type (an
    integer stands for a float)."""
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or (kind is list and not all(type(v) is str for v in value)):
        what = "a list of strings" if kind is list else kind.__name__
        raise ConfigurationError(f"config key {name!r} must be {what}, got {value!r}")
    return value


def _check_bound(name: str, value, bound) -> None:
    if isinstance(bound, tuple):
        ok = value in bound
    else:  # an interval such as "[0, 1]" or "(0, inf)"; NaN lies in none
        lo, hi = (float(end) for end in bound[1:-1].split(","))
        ok = ((lo < value if bound[0] == "(" else lo <= value)
              and (value < hi if bound[-1] == ")" else value <= hi))
    if not ok:
        raise ConfigurationError(f"{_flag(name)} must lie in {bound}, got {value!r}")


def resolve_options(args: argparse.Namespace, required: list[str]) -> dict:
    """Every option's value, CLI flag > config file > default, each checked
    against OPTIONS; `required` names the options that may not stay None."""
    cfg = _load_config(args.config) if args.config else {}
    opts = {}
    for name, (kind, default, bound, _) in OPTIONS.items():
        value = getattr(args, name, None)
        if value is None:
            value = _config_value(name, kind, cfg[name]) if name in cfg else default
        if value is None and name in required:
            raise ConfigurationError(f"missing required option {_flag(name)}")
        if value is not None and bound is not None:
            _check_bound(name, value, bound)
        opts[name] = value
    return opts


def _query_config(opts: dict) -> QueryConfig:
    return QueryConfig(**{k: opts[k] for k in ("strategy", "sigma", "start_level")})


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _read_json(path: str):
    """A JSON file's contents; text that is not JSON raises FormatError naming the file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise FormatError(f"{path}: not valid JSON: {e}") from e


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --- gen-fixture -------------------------------------------------------------

def _parse_blob(text: str, image_size: int, num_classes: int) -> Blob:
    parts = text.split(",")
    if len(parts) not in (4, 5, 6):
        raise ConfigurationError(
            f"--blob wants 'cx,cy,w,h[,class[,amplitude]]', got {text!r}"
        )
    try:
        fields = [kind(p) for kind, p in zip((float,) * 4 + (int, float), parts)]
    except ValueError:
        raise ConfigurationError(f"--blob has non-numeric fields: {text!r}") from None
    try:
        blob = Blob(*fields)
    except ValidationError as e:
        raise ConfigurationError(f"--blob {text!r}: {e}") from e
    if blob.class_id >= num_classes:
        raise ConfigurationError(f"--blob class {blob.class_id} lies outside "
                                 f"[0, {num_classes}), got {text!r}")
    if not (0 <= blob.cx < image_size and 0 <= blob.cy < image_size):
        raise ConfigurationError(f"--blob center ({blob.cx}, {blob.cy}) outside "
                                 f"{image_size}px image")
    return blob


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


def cmd_gen_fixture(opts: dict) -> int:
    out_dir, size, classes = opts["out"], opts["image_size"], opts["classes"]
    seeds = np.random.SeedSequence(opts["seed"]).generate_state(3)
    s_blob, s_pyr, s_wts = (int(s) for s in seeds)
    blobs = ([_parse_blob(b, size, classes) for b in opts["blob"]] if opts["blob"] else
             _random_blobs(np.random.default_rng(s_blob), opts["blobs"], size, classes))
    pyr = make_synthetic_pyramid(s_pyr, size, size, opts["min_level"], opts["max_level"],
                                 opts["channels"], blobs)
    weights = make_fixture_weights(s_wts, opts["channels"], opts["anchors"], classes)
    gt = GroundTruthSet(size, size, blobs)
    os.makedirs(out_dir, exist_ok=True)
    save_pyramid(pyr, os.path.join(out_dir, PYRAMID_FILE))
    save_weights(weights, os.path.join(out_dir, WEIGHTS_FILE))
    _write_json(os.path.join(out_dir, GROUND_TRUTH_FILE), gt.to_json())
    sums = {
        name: _sha256(os.path.join(out_dir, name))
        for name in (PYRAMID_FILE, WEIGHTS_FILE, GROUND_TRUTH_FILE)
    }
    _write_json(os.path.join(out_dir, CHECKSUMS_FILE), {"schema": "qd/1", "files": sums})
    print(f"fixture written to {out_dir} ({len(blobs)} objects, seed {opts['seed']})")
    return 0


# --- run ---------------------------------------------------------------------

def cmd_run(opts: dict) -> int:
    cfg, post = _query_config(opts), {k: opts[k] for k in POSTPROC_KEYS}
    pyr = load_pyramid(opts["pyramid"])
    weights = load_weights(opts["weights"])
    out_dir = opts["out"]
    result = run_pipeline(pyr, weights, cfg)
    anchor_cfg = AnchorConfig(num_anchors=weights.num_anchors)
    t0 = time.perf_counter()
    dets = detections_from_result(result, anchor_cfg, weights.num_classes, **post)
    postproc_millis = (time.perf_counter() - t0) * 1000.0
    report = result.report()
    report["postproc_millis"] = postproc_millis
    report["detections"] = len(dets)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "report.json"), report)
    _write_json(os.path.join(out_dir, "detections.json"), detections_to_json(dets))
    c, a, k = weights.channels, weights.num_anchors, weights.num_classes
    subnets = head_flops_dense(1, 1, c, a, k, query=False) / head_flops_dense(1, 1, c, a, k)
    print(f"{result.strategy}: {len(dets)} detections, "
          f"{result.total_flops} MACs "
          f"({report['flops_fraction_of_dense']:.4f} of the full three-branch head; "
          f"the dense strategy runs {subnets:.2f} of it), "
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
    """Run `cfg` and compare its rows with dense ones at every computed key:
    bitwise if `exact`, else within 1e-5 relative. Cls and reg rows are
    compared with the `dense` run. The dense strategy runs no query branch, so
    where the cascade has query logits they are compared with a full-map pass
    of every branch over that level. `dense` is the exception instead if the
    dense run crashed. Returns the run, the number of keys compared and a
    summary."""
    if isinstance(dense, Exception):
        raise dense
    result = run_pipeline(pyr, weights, cfg)
    worst = 0.0
    rows = 0
    for rec in result.records:
        keys = rec.computed_keys
        if keys is None:
            continue
        feature = pyr.levels[rec.level]
        want = dense.record(rec.level).output.branch_rows()
        if rec.output.query_logits is not None:
            want["query_logits"] = run_dense_head(feature, weights).query_logits
        at = feature.keys.rows_of(keys)  # every reference holds rows over the full grid
        for name, got in rec.output.branch_rows().items():
            g = got.features
            e = want[name].features[at]
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
                     post: dict) -> tuple[int, str]:
    ccq, rows, detail = _check_against_dense(pyr, weights, dense,
                                             dataclasses.replace(cfg, strategy="ccq"), True)
    uncovered = 0
    for rec in ccq.records:
        if rec.computed_keys is None:
            continue
        cls = dense.record(rec.level).output.cls_logits
        hot, _ = np.nonzero(sigmoid_above(cls.features, post["score_threshold"]))
        uncovered += np.count_nonzero(~np.isin(cls.keys.cells[hot], rec.computed_keys.cells))
    if uncovered:
        return rows, (f"{detail}; {uncovered} above-threshold dense positions uncovered by "
                      f"keys, detections comparison skipped")
    anchor_cfg = AnchorConfig(num_anchors=weights.num_anchors)
    d1, d2 = (detections_to_json(detections_from_result(r, anchor_cfg, weights.num_classes,
                                                        **post)) for r in (dense, ccq))
    if d1 != d2:
        raise CheckFailure("detections differ between dense and ccq")
    return rows, f"{detail}; {len(d1)} detections identical"


def _brute_force_query_target(gt: GroundTruthSet, level: int) -> np.ndarray:
    """Independent double-loop re-derivation of the query target map."""
    height, width = level_dims(gt.image_height, gt.image_width, level)
    stride = 1 << level
    scale = ANCHOR_BASE * stride
    centers = [
        (math.floor(o.cx / stride), math.floor(o.cy / stride))
        for o in gt.objects if max(o.width, o.height) < scale
    ]
    out = np.zeros((height, width), dtype=np.float32)
    for y in range(height):
        for x in range(width):
            for gx, gy in centers:
                if math.sqrt((x - gx) ** 2 + (y - gy) ** 2) < ANCHOR_BASE:
                    out[y, x] = 1.0
                    break
    return out


def _check_targets(pyr, gt: GroundTruthSet) -> str:
    cells = 0
    for level in sorted(pyr.levels):
        fast = query_target_for_level(gt, level)
        slow = _brute_force_query_target(gt, level)
        if not np.array_equal(fast, slow):
            bad = int(np.sum(fast != slow))
            raise CheckFailure(f"level {level}: {bad} cells disagree with brute force")
        cells += fast.size
    return f"query targets match brute force over {cells} cells"


def _check_flops_identity(pyr) -> str:
    dims = sorted({(pyr.levels[l].height, pyr.levels[l].width) for l in pyr.levels})[:2]
    dims.append((5, 9))
    for h, w in dims:
        rb = build_rulebook(KeySet.full(0, h, w))
        expect = analysis.inbounds_pairs(h, w)
        if rb.num_entries != expect:
            raise CheckFailure(
                f"full-coverage rulebook at {h}x{w} has {rb.num_entries} entries, "
                f"expected {expect}")
    return f"entry counts match (3H-2)(3W-2) on {len(dims)} grids"


def cmd_verify(opts: dict) -> int:
    fdir, cfg = opts["fixture"], _query_config(opts)
    post = {k: opts[k] for k in POSTPROC_KEYS}
    warnings = []
    sums_path = os.path.join(fdir, CHECKSUMS_FILE)
    if os.path.exists(sums_path):
        sums = _read_json(sums_path)
        recorded = sums.get("files", {}) if isinstance(sums, dict) else None
        if not (isinstance(recorded, dict)
                and all(isinstance(v, str) for v in recorded.values())):
            raise FormatError(f"{sums_path}: 'files' must map file names to sha256 strings")
        for name, want in recorded.items():
            path = os.path.join(fdir, name)
            if not os.path.exists(path):
                warnings.append(f"{name}: listed in checksums but missing")
            elif _sha256(path) != want:
                warnings.append(f"{name}: checksum mismatch (file changed since generation)")
    pyr = load_pyramid(os.path.join(fdir, PYRAMID_FILE))
    weights = load_weights(os.path.join(fdir, WEIGHTS_FILE))
    gt_path = os.path.join(fdir, GROUND_TRUTH_FILE)
    gt = GroundTruthSet.from_json(_read_json(gt_path), pyr.image_height, pyr.image_width,
                                  gt_path)

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
        except ConfigurationError:  # a bad option or input pair, not a failed check
            raise
        except CheckFailure as e:
            checks.append({"name": name, "passed": False, "detail": str(e)})
        except Exception as e:  # a crashed check is a failed check, with context
            checks.append({"name": name, "passed": False,
                           "detail": f"{type(e).__name__}: {e}"})

    try:  # one dense reference for the three strategy checks
        dense = run_pipeline(pyr, weights, dataclasses.replace(cfg, strategy="dense"))
    except Exception as e:  # each of those checks then fails with this error
        dense = e
    run_check("ccq-exact", _check_ccq_exact, pyr, weights, dense, cfg, post)
    run_check("csq-sigma0", _check_against_dense, pyr, weights, dense,
              dataclasses.replace(cfg, strategy="csq", sigma=0.0), False)
    run_check("cq-dense", _check_against_dense, pyr, weights, dense,
              dataclasses.replace(cfg, strategy="cq"), False)
    run_check("query-targets", _check_targets, pyr, gt)
    run_check("flops-identity", _check_flops_identity, pyr)

    verdict = {
        "schema": "qd/1",
        "fixture": fdir,
        "checks": checks,
        "warnings": warnings,
        "passed": all(c["passed"] for c in checks),
    }
    out = opts["out"]
    if out:
        os.makedirs(out, exist_ok=True)
        _write_json(os.path.join(out, "verify.json"), verdict)
    print(json.dumps(verdict, indent=2))
    return 0 if verdict["passed"] else 1


# --- bench / flops -----------------------------------------------------------

def cmd_bench(opts: dict) -> int:
    base_cfg = _query_config(opts)
    dense_cfg = QueryConfig(strategy="dense")
    # One call, so the baseline and the sweep share every timing round.
    configs = [dense_cfg] + [dataclasses.replace(base_cfg, sigma=s)
                             for s in analysis.sweep_sigmas()]
    pyr = load_pyramid(opts["pyramid"])
    weights = load_weights(opts["weights"])
    out_dir = opts["out"]
    results = analysis.run_benchmark(pyr, weights, configs, repeats=opts["repeats"])
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "bench.csv"), "w", encoding="utf-8") as f:
        f.write(analysis.bench_csv(results))
    _write_json(os.path.join(out_dir, "bench.json"), analysis.bench_json(results))
    ref = results[0]
    best = min(results[1:], key=lambda r: r.end_to_end_millis)
    print(f"dense: {ref.end_to_end_millis:.2f} ms end to end "
          f"({ref.pipeline_millis:.2f} ms pipeline); fastest {best.strategy} at "
          f"sigma={best.sigma}: {best.end_to_end_millis:.2f} ms "
          f"({ref.end_to_end_millis / max(best.end_to_end_millis, 1e-9):.2f}x), "
          f"{best.pipeline_millis:.2f} ms pipeline "
          f"({ref.pipeline_millis / max(best.pipeline_millis, 1e-9):.2f}x) -> {out_dir}")
    return 0


def _level_range(opts: dict) -> list[int]:
    """--min-level through --max-level."""
    lo, hi = opts["min_level"], opts["max_level"]
    if lo > hi:
        raise ConfigurationError(f"--min-level {lo} exceeds --max-level {hi}")
    return list(range(lo, hi + 1))


def cmd_flops(opts: dict) -> int:
    size, levels = opts["image_size"], _level_range(opts)
    payload = analysis.flops_report(size, size, levels, opts["channels"],
                                    opts["anchors"], opts["classes"])
    payload["image"] = [size, size]
    if min(levels) <= 2 and max(levels) >= 7:
        payload["p2_cost_increase"] = analysis.p2_cost_increase(size, size)
    out = opts["out"]
    if out:
        _write_json(out, payload)
        print(f"flops report -> {out}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_targets_check(opts: dict) -> int:
    out_dir, size = opts["out"], opts["image_size"]
    levels = _level_range(opts)
    gt = GroundTruthSet.from_json(_read_json(opts["gt"]), size, size, opts["gt"])
    maps = {level: query_target_for_level(gt, level) for level in levels}
    os.makedirs(out_dir, exist_ok=True)
    save_pyramid(FeaturePyramid.from_maps(size, size, {l: m[None] for l, m in maps.items()}),
                 os.path.join(out_dir, TARGETS_FILE))
    rows = [{"level": l, "shape": list(m.shape), "positives": int(m.sum()), "total": m.size}
            for l, m in maps.items()]
    summary = {"schema": "qd/1", "image": [size, size], "base": ANCHOR_BASE,
               "objects": len(gt.objects), "file": TARGETS_FILE, "levels": rows}
    _write_json(os.path.join(out_dir, "targets_summary.json"), summary)
    print(f"query targets for {len(gt.objects)} objects -> "
          f"{os.path.join(out_dir, TARGETS_FILE)}")
    return 0


# --- argument plumbing -------------------------------------------------------

# subcommand: (handler, help, required options, other options); every
# subcommand also takes --config
COMMANDS = {
    "gen-fixture": (cmd_gen_fixture, "write a seeded pyramid/weights/ground-truth set", "out",
                    "seed image_size channels anchors classes min_level max_level blobs blob"),
    "run": (cmd_run, "run one strategy and write report + detections", "pyramid weights out",
            "strategy sigma start_level score_threshold iou_threshold top_k"),
    "verify": (cmd_verify, "oracle equivalence checks over a fixture", "fixture",
               "out sigma start_level score_threshold iou_threshold top_k"),
    "bench": (cmd_bench, "timing sweep across thresholds", "pyramid weights out",
              "strategy repeats start_level"),
    "flops": (cmd_flops, "analytic per-level cost breakdown", "",
              "image_size channels anchors classes min_level max_level out"),
    "targets-check": (cmd_targets_check, "emit per-level query-target maps", "gt out",
                      "image_size min_level max_level"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadequery",
        description="Sparse query cascade over feature pyramids: fixtures, "
                    "pipelines, verification, and cost analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, required, other) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in (required + " " + other).split():
            kind, _, bound, help_text = OPTIONS[name]
            p.add_argument(_flag(name), type=str if kind is list else kind,
                           action="append" if kind is list else "store",
                           choices=bound if kind is str else None, help=help_text)
        p.add_argument("--config", help="JSON config file (flags override it)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, required, _ = COMMANDS[args.command]
    try:
        return handler(resolve_options(args, required.split()))
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CascadeQueryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
