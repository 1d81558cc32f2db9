"""Pyramid-in, detections-out benchmark for cascadequery.

    python3 perfbench/run.py --workload csq-sparse --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics untraced; --trace 1 is a separate
run that hooks every layer and reports per-layer metrics. --workload all runs
every workload in turn. Run from the repository root: the package is imported
from ./src, never from an installed copy. Each run writes its full record, with
the protocol it was measured under, to perfbench/out/, and a traced run also
writes its spans there as Chrome trace-event JSON.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def _import_package():
    src = ROOT / "src"
    if not (src / "cascadequery" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cascadequery package under {src}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(src))
    import cascadequery
    if Path(cascadequery.__file__).resolve().parent != src / "cascadequery":
        sys.exit(f"perfbench: imported cascadequery from {cascadequery.__file__}, not {src}")
    return cascadequery


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def protocol(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "loop": "closed, one caller, one process",
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(np),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "git_commit": _git_commit(),
    }


def _print_record(rec: dict) -> None:
    s = rec["samples"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"{json.dumps(rec['definition'])}")
    for name, (value, unit) in rec["metrics"].items():
        note = ""
        if name == "image_rel.p50":
            note = f"  (n={s['images_timed']})"
        elif name == "image_rel.p90":
            note = f"  (n={s['images_timed']}, {s['p90_samples_beyond']} beyond)"
        print(f"  {name:32s} {value:14.6f} {unit}{note}")
    for name, value in s.get("wall", {}).items():
        print(f"  {name:32s} {value:14.6f} {'1/s' if name == 'images_per_s' else 'ms'}"
              "  (wall clock, host speed not cancelled)")
    print(f"  {'error_rate':32s} {s['error_rate']:14.6f} fraction"
          f"  ({rec['failed']} failed of {rec['attempted']} attempted)")
    if rec["failure_reasons"]:
        print(f"  failures: {rec['failure_reasons']}")
    if rec["first_error"]:
        print(rec["first_error"], end="")
    if rec.get("absent_hooks"):
        print(f"  absent hooks (their metrics are not reported): {rec['absent_hooks']}")


def main(argv=None) -> int:
    cq = _import_package()
    import numpy as np

    import harness
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if os.environ.get("QD_THREADS"):
        sys.exit("perfbench: QD_THREADS must be unset; the protocol runs the library's default")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    proto = {**protocol(np), "cascadequery": cq.__version__}
    print(f"protocol {json.dumps(proto)}")
    OUT_DIR.mkdir(exist_ok=True)
    records = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="inputs-") as tmp:
        for name in names:
            workdir = Path(tmp) / name
            workdir.mkdir()
            rec = harness.run_workload(WORKLOADS[name], args.seed, args.seconds,
                                       bool(args.trace), workdir)
            chrome = rec.pop("chrome_trace", None)
            if chrome is not None:
                path = OUT_DIR / f"{name}-seed{args.seed}.trace.json"
                path.write_text(json.dumps(chrome))
                print(f"  spans written to {path.relative_to(ROOT)}")
            _print_record(rec)
            records[name] = rec
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"protocol": proto, "workloads": records}, indent=1, default=list))

    prefix = (lambda n, m: m) if len(names) == 1 else (lambda n, m: f"{n}.{m}")
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {prefix(n, m): {"value": v, "unit": u}
                    for n, r in records.items() for m, (v, u) in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
