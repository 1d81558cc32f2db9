"""Digest a source tree's outputs, and say whether two digests differ.

    python tools/output_digest.py record TREE OUT [--cases all|small]
    python tools/output_digest.py compare A B

`record` imports the `cascadequery` package of TREE (TREE/src) and, for
`--cases all`, the benchmark's workloads (TREE/perfbench) and the acceptance
suite's fixture recipes (TREE/tests/conftest.py). It runs:

- per workload, the first IMAGES (8) seed-1 pool images under every
  strategy at the workload's sigma, each pyramid and the weights first saved
  and loaded back with the tree's own container code, as the benchmark does;
- criterion 01's ten fixtures at sigma 0.05 and 0.15 under every strategy.

`--cases small` runs one 64 px fixture instead. Each run is one record of
four fields: `detections` (the detection JSON), `keys` (every level's output,
computed and query key sets), `report` (`report()` without its timings) and
`rows` (every branch's rows at every level). Each load is a record of two:
`file` (the container's bytes) and `loaded` (the arrays read back). OUT gets
`digest.json`, the sha256 of every field, and one `.npz` of arrays per record.

`compare` prints, per field, how many records are identical. For each record
that differs it names the field and gives, for arrays, the largest absolute
and relative difference and where it lies, and for reports the differing JSON
paths. Key sets, reports and files are what no BLAS kernel can move; rows,
detections and loaded arrays are floats. The exit status is 0 when every
field of every record is identical, 1 otherwise. Run `record` once per tree,
in its own process: a process imports one `cascadequery`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

EXACT = ("keys", "report", "file")
IMAGES = 8
SIGMAS_01 = (0.05, 0.15)


# --- record --------------------------------------------------------------------

def _sha(arrays: dict) -> str:
    h = hashlib.sha256()
    for name, a in arrays.items():
        a = np.ascontiguousarray(a)
        h.update(f"{name}:{a.dtype.str}:{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def run_fields(cq, result, w) -> dict:
    """A run's four fields, each (sha256, arrays, extra JSON or None)."""
    dets = cq.detections_from_result(result, cq.AnchorConfig(num_anchors=w.num_anchors),
                                     w.num_classes)
    det_json = json.dumps(cq.detections_to_json(dets))
    det_arrays = {"boxes": np.array([d.box for d in dets], dtype=np.float64).reshape(-1, 4),
                  "scores": np.array([d.score for d in dets], dtype=np.float64),
                  "classes": np.array([d.class_id for d in dets], dtype=np.int64),
                  "levels": np.array([d.level for d in dets], dtype=np.int64)}
    keys, rows = {}, {}
    for rec in result.records:
        keys[f"L{rec.level}.output"] = rec.output.keys.cells
        for name in ("computed_keys", "extracted_queries"):
            ks = getattr(rec, name)
            if ks is not None:
                keys[f"L{rec.level}.{name}"] = ks.cells
        for branch, feature in rec.output.branch_rows().items():
            rows[f"L{rec.level}.{branch}"] = feature.features
    report = result.report()
    del report["total_millis"]
    for level in report["levels"]:
        del level["millis"]
    report_text = json.dumps(report, sort_keys=True)
    return {
        "detections": (hashlib.sha256(det_json.encode()).hexdigest(), det_arrays, None),
        "keys": (_sha(keys), keys, None),
        "report": (hashlib.sha256(report_text.encode()).hexdigest(), {}, report),
        "rows": (_sha(rows), rows, None),
    }


def load_fields(path: Path, loaded: dict) -> dict:
    """A load's two fields: the file's bytes and the arrays read from it."""
    return {"file": (hashlib.sha256(path.read_bytes()).hexdigest(), {}, None),
            "loaded": (_sha(loaded), loaded, None)}


class Recorder:
    """Writes each record's arrays to OUT/arrays/ as it goes, and its
    digests to OUT/digest.json at the end."""

    def __init__(self, out: Path):
        self.out = out
        (out / "arrays").mkdir(parents=True, exist_ok=True)
        self.records: dict[str, dict] = {}

    def add(self, name: str, fields: dict) -> None:
        entry, arrays = {}, {}
        for field, (sha, arrs, extra) in fields.items():
            entry[field] = {"sha256": sha} if extra is None else {"sha256": sha, "json": extra}
            arrays.update({f"{field}/{part}": a for part, a in arrs.items()})
        np.savez(self.out / "arrays" / f"{_file_stem(name)}.npz", **arrays)
        self.records[name] = entry

    def close(self, tree: str) -> None:
        (self.out / "digest.json").write_text(json.dumps(
            {"tree": tree, "records": self.records}, indent=1, sort_keys=True))


def _file_stem(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9.=-]", "_", name)


def record_runs(cq, rec: Recorder, prefix: str, pyr, w, sigma: float) -> None:
    for strategy in cq.query.STRATEGIES:
        result = cq.run_pipeline(pyr, w, cq.QueryConfig(strategy=strategy, sigma=sigma))
        rec.add(f"{prefix}/{strategy}", run_fields(cq, result, w))


def record_loads(cq, rec: Recorder, prefix: str, pyr, w, workdir: Path):
    """Saves and reloads the pyramid and weights with the tree's container
    code, records both loads, and returns what was loaded."""
    ppath, wpath = workdir / "p.qdpyr", workdir / "w.qdwts"
    cq.save_pyramid(pyr, ppath)
    cq.save_weights(w, wpath)
    back_p, back_w = cq.load_pyramid(ppath), cq.load_weights(wpath)
    rec.add(f"{prefix}/load-pyramid", load_fields(
        ppath, {f"L{l}": f.features for l, f in sorted(back_p.levels.items())}))
    convs = {}
    for b, (tower, pred) in zip(cq.model.BRANCHES, back_w.branches):
        for i, conv in enumerate([*tower, pred]):
            convs[f"{b}.{i}.weights"], convs[f"{b}.{i}.bias"] = conv.weights, conv.bias
    rec.add(f"{prefix}/load-weights", load_fields(wpath, convs))
    return back_p, back_w


def small_case(cq):
    """The `--cases small` fixture: a 64 px, C=8 pyramid over L2-L5 with one
    object, and its weights."""
    return (cq.make_synthetic_pyramid(3, 64, 64, 2, 5, 8, [cq.Blob(24.0, 40.0, 6.0, 6.0)]),
            cq.make_fixture_weights(5, 8, 1, 4))


def record_small(cq, rec: Recorder, pyr, w, workdir: Path) -> None:
    pyr, w = record_loads(cq, rec, "small", pyr, w, workdir)
    record_runs(cq, rec, "small", pyr, w, 0.05)


def record_tree(tree: Path, out: Path, cases: str) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench"), str(tree / "tests")]
    import cascadequery as cq
    if Path(cq.__file__).resolve().parent != (tree / "src" / "cascadequery").resolve():
        sys.exit(f"output_digest: imported cascadequery from {cq.__file__}, not {tree}/src")
    rec = Recorder(out)
    with tempfile.TemporaryDirectory() as tmp:
        if cases == "small":
            record_small(cq, rec, *small_case(cq), Path(tmp))
        else:
            from conftest import CCQ_SEEDS, standard_pyramid, standard_weights
            from workloads import SIGMA, WORKLOADS, make_pool, make_weights
            for name, wl in WORKLOADS.items():
                weights = make_weights(wl)
                for k, (pyr, _) in enumerate(make_pool(wl, 1, IMAGES)):
                    p, w = record_loads(cq, rec, f"{name}/{k}", pyr, weights, Path(tmp))
                    record_runs(cq, rec, f"{name}/{k}", p, w, SIGMA)
            for seed in CCQ_SEEDS:
                for sigma in SIGMAS_01:
                    record_runs(cq, rec, f"c01/{seed}/sigma={sigma}", standard_pyramid(seed),
                                standard_weights(16), sigma)
    rec.close(str(tree))


# --- compare -------------------------------------------------------------------

def _json_paths(a, b, path=""):
    """The JSON paths at which a and b differ, with both values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            yield from _json_paths(a.get(k, "<absent>"), b.get(k, "<absent>"),
                                   f"{path}.{k}" if path else str(k))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_paths(x, y, f"{path}[{i}]")
    elif a != b or type(a) is not type(b):
        yield f"{path}: {json.dumps(a)[:60]} -> {json.dumps(b)[:60]}"


def _array_diff(field: str, a: dict, b: dict) -> list[str]:
    """Per differing array of one field: shapes, or the largest absolute and
    relative differences and where they lie."""
    lines = []
    for part in sorted(set(a) | set(b)):
        if not part.startswith(field + "/"):
            continue
        label = part[len(field) + 1:]
        if part not in a or part not in b:
            lines.append(f"{label}: only in {'B' if part not in a else 'A'}")
            continue
        x, y = a[part], b[part]
        if x.shape != y.shape or x.dtype != y.dtype:
            lines.append(f"{label}: {x.dtype}{list(x.shape)} -> {y.dtype}{list(y.shape)}")
        elif not np.array_equal(x, y, equal_nan=x.dtype.kind == "f"):
            d = np.abs(x.astype(np.float64) - y.astype(np.float64))
            d[np.isnan(d)] = np.inf
            rel = d / np.maximum(np.abs(x.astype(np.float64)), np.finfo(np.float64).tiny)
            ia = np.unravel_index(np.argmax(d), d.shape)
            ir = np.unravel_index(np.argmax(rel), rel.shape)
            lines.append(f"{label}: {int((d > 0).sum())} of {d.size} values differ; max abs "
                         f"{d[ia]:.3g} at {list(map(int, ia))}, max rel {rel[ir]:.3g} at "
                         f"{list(map(int, ir))}")
    return lines


def compare(a_dir: Path, b_dir: Path, out=sys.stdout) -> dict[str, list[str]]:
    """Prints the comparison and returns {record: [differing fields]}."""
    ra = json.loads((a_dir / "digest.json").read_text())["records"]
    rb = json.loads((b_dir / "digest.json").read_text())["records"]
    changed: dict[str, list[str]] = {}
    counts: dict[str, list[int]] = {}
    for name in sorted(set(ra) | set(rb)):
        if name not in ra or name not in rb:
            print(f"{name}: only in {'B' if name not in ra else 'A'}", file=out)
            changed[name] = ["<record>"]
            continue
        arrays = None
        for field in sorted(set(ra[name]) | set(rb[name])):
            fa, fb = ra[name].get(field, {}), rb[name].get(field, {})
            same = fa.get("sha256") == fb.get("sha256")
            counts.setdefault(field, [0, 0])[0] += same
            counts[field][1] += 1
            if same:
                continue
            changed.setdefault(name, []).append(field)
            kind = "exact" if field in EXACT else "float"
            print(f"{name}: {field} ({kind}) differs", file=out)
            if "json" in fa and "json" in fb:
                details = list(_json_paths(fa["json"], fb["json"]))
            else:
                if arrays is None:
                    arrays = [dict(np.load(d / "arrays" / f"{_file_stem(name)}.npz"))
                              for d in (a_dir, b_dir)]
                details = _array_diff(field, *arrays)
            for line in details[:8]:
                print(f"    {line}", file=out)
            if len(details) > 8:
                print(f"    ... {len(details) - 8} more", file=out)
    for field, (same, total) in sorted(counts.items()):
        print(f"{field}: {same} of {total} records identical", file=out)
    print("identical" if not changed else f"{len(changed)} records differ", file=out)
    return changed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("record", help="digest a source tree's outputs")
    r.add_argument("tree", type=Path)
    r.add_argument("out", type=Path)
    r.add_argument("--cases", choices=("all", "small"), default="all")
    c = sub.add_parser("compare", help="compare two digests")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = p.parse_args(argv)
    if args.command == "record":
        record_tree(args.tree.resolve(), args.out, args.cases)
        return 0
    return 1 if compare(args.a, args.b) else 0


if __name__ == "__main__":
    sys.exit(main())
