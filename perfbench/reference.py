"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark runs on hosts that share their cores with other work, and their
speed swings by a third or more in phases of a few seconds: the same image can
take twice as long from one second to the next. Interpreted Python and BLAS
slow down together, in step with the library. So every timed image is paired
with one run of this reference, made just before it, and the end-to-end
timings are reported in units of the reference's time (see ``harness``).

The reference uses nothing from cascadequery, so no change to the library can
move it; only the host can. Its work is fixed: a pure-Python greedy box
suppression over a constant list of boxes, like the library's NMS, and a
float32 GEMM the size of an im2col convolution, like the library's conv2d.
The two take about the same time, so that neither dominates the gauge.
"""

from __future__ import annotations

import time

import numpy as np

_N = 140
_rng = np.random.default_rng(20210316)
# (x0, y0, x1, y1, class, score) as Python floats and ints.
_BOXES = [(float(x), float(y), float(x + s), float(y + s), int(c), float(p))
          for x, y, s, c, p in zip(_rng.uniform(0, 480, _N), _rng.uniform(0, 480, _N),
                                   _rng.uniform(4, 32, _N), _rng.integers(0, 4, _N),
                                   _rng.uniform(0, 1, _N))]
_A = _rng.standard_normal((64, 576), dtype=np.float32)
_B = _rng.standard_normal((576, 6144), dtype=np.float32)


def _iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def _suppress() -> int:
    kept = []
    for box in sorted(_BOXES, key=lambda b: -b[5]):
        if not any(k[4] == box[4] and _iou(k, box) > 0.3 for k in kept):
            kept.append(box)
    return len(kept)


def _gemm() -> float:
    out = _A @ _B
    np.maximum(out, 0.0, out=out)
    return float(out[0, 0])


def reference_ms() -> float:
    """Wall time of one run of the reference, in milliseconds."""
    t0 = time.perf_counter()
    _suppress()
    _gemm()
    return (time.perf_counter() - t0) * 1e3
