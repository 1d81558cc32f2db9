"""Outside-in layer tracing: wrap the library's public functions where their
callers look them up, record one span per call, and count work at the same
boundary.

Spans are kept in memory and written out once, as Chrome trace-event JSON
(Perfetto and chrome://tracing open it). Nothing under src/ knows about the
tracer: a hook replaces a module attribute such as ``cascadequery.model.conv2d``
while installed and restores it afterwards. A hooked function that no longer
exists is skipped and listed in ``Tracer.absent``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


def _conv_macs(counts, args, result):
    inp, w = args[0], args[1]
    counts["tensor.conv2d.macs"] += (inp.height * inp.width * w.out_channels
                                     * w.in_channels * w.kernel * w.kernel)


def _sparse_conv_macs(counts, args, result):
    w, rb = args[1], args[2]
    counts["sparse.sparse_conv.macs"] += rb.num_entries * w.in_channels * w.out_channels


def _rulebook(counts, args, result):
    counts["sparse.rulebook_entries"] += result.num_entries
    counts["sparse.rulebook_keys"] += len(args[0])


def _queries(counts, args, result):
    counts["query.queries"] += len(result)


def _nms(counts, args, result):
    counts["postproc.candidates"] += len(args[0])
    counts["postproc.kept"] += len(result)


# (module, attribute where the caller looks it up, span name, work counter)
HOOKS = (
    ("model", "conv2d", "tensor.conv2d", _conv_macs),
    ("model", "relu", "tensor.relu", None),
    ("model", "build_rulebook", "sparse.build_rulebook", _rulebook),
    ("query", "build_rulebook", "sparse.build_rulebook", _rulebook),
    ("query", "gather", "sparse.gather", None),
    ("model", "sparse_conv", "sparse.sparse_conv", _sparse_conv_macs),
    ("model", "sparse_relu", "sparse.sparse_relu", None),
    ("model", "load_weights", "model.load", None),
    ("model", "load_pyramid", "model.load", None),
    ("query", "run_dense_head", "model.run_dense_head", None),
    ("query", "run_sparse_head", "model.run_sparse_head", None),
    ("query", "run_pipeline", "query.run_pipeline", None),
    ("query", "extract_queries", "query.extract_queries", _queries),
    ("query", "map_queries_to_keys", "query.map_queries_to_keys", None),
    ("query", "crop_patch", "query.crop_patch", None),
    ("postproc", "detections_from_result", "postproc.detections_from_result", None),
    ("postproc", "detections_from_output", "postproc.decode", None),
    ("postproc", "nms", "postproc.nms", _nms),
)

# Spans whose work counters make up the analytic MAC model of a head pass.
CONV_SPANS = ("tensor.conv2d", "sparse.sparse_conv")


@dataclass(slots=True)
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int         # index of the enclosing span, -1 at the root
    image: int | None   # timed-image id, None during set-up


class Tracer:
    """Records spans for hooked calls while `installed()` is active."""

    def __init__(self, modules: dict, hooks=HOOKS):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.image: int | None = None
        self._stack: list[int] = []
        self._patches = []
        self.absent: list[str] = []
        for mod_name, attr, span_name, counter in hooks:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod.__name__}.{attr}")
                continue
            self._patches.append((mod, attr, fn, self._wrap(span_name, fn, counter)))

    @property
    def hooked_spans(self) -> set[str]:
        return {wrapper.span_name for _, _, _, wrapper in self._patches}

    def _open(self, name: str) -> Span:
        span = Span(name, 0, 0, self._stack[-1] if self._stack else -1, self.image)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self.counts[calls] += 1
            if counter is not None:
                counter(self.counts, args, result)
            return result

        wrapper.span_name = name
        return wrapper

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    @contextmanager
    def installed(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, fn, _ in self._patches:
                setattr(mod, attr, fn)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children (ns)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_totals(spans: list[Span], images: set[int]) -> dict[str, dict[str, float]]:
    """Per span name over the given images: total self ms, busy ms and calls."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, self_ns in zip(spans, own):
        if s.image not in images:
            continue
        t = out.setdefault(s.name, {"self_ms": 0.0, "busy_ms": 0.0, "calls": 0})
        t["self_ms"] += self_ns / 1e6
        t["busy_ms"] += (s.end - s.start) / 1e6
        t["calls"] += 1
    return out


def mac_identity(counts: Counter, total_flops: int) -> bool:
    """True when the MACs counted at conv spans equal the analytic head cost."""
    return sum(counts[f"{name}.macs"] for name in CONV_SPANS) == total_flops


def chrome_trace(spans: list[Span]) -> dict:
    """Complete ("X") trace events, microsecond timestamps from the first span."""
    t0 = min((s.start for s in spans), default=0)
    events = [
        {"name": s.name, "cat": s.name.split(".", 1)[0], "ph": "X", "pid": 1, "tid": 1,
         "ts": (s.start - t0) / 1e3, "dur": (s.end - s.start) / 1e3,
         "args": {"span": i, "parent": s.parent, "image": s.image}}
        for i, s in enumerate(spans)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
