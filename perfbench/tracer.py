"""Span recorder that wraps the package's public functions from outside.

Only the traced run installs it; ``src/`` is never edited. Each wrapped
name becomes a span ``<module>.<function>`` (or ``<module>.<Class>.
__post_init__``). Every binding of the function object inside the package
is patched, so a caller that imported the name (``pipeline.encoder_forward``,
``cli.read_embeddings``) is traced as well as the defining module.

Self time is wall-clock time: a span's interval minus the union of its
children's intervals. Spans opened on pool worker threads have no parent
on their own thread and are attributed to the span open on the main
thread (the enclosing ``pipeline.embed_images``). Where spans from k
threads own the same instant, each is charged 1/k of it, so the self
times of one op partition its wall time instead of double counting the
overlap. Busy time of worker threads is reported separately.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

MB = 2**20


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end", "error", "extra", "mem0", "peak")

    def __init__(self, name, thread, parent, start=0.0, end=0.0):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = end
        self.error = 0
        self.extra = None
        self.mem0 = None
        self.peak = None


def self_times(spans: list[Span]) -> list[float]:
    """Wall-share self time of each span (see module docstring)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    events = []
    for i, span in enumerate(spans):
        cursor = span.start
        for child in sorted(children[id(span)], key=lambda c: c.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if lo > cursor:
                events += [(cursor, 1, i), (lo, 0, i)]
            cursor = max(cursor, hi)
        if span.end > cursor:
            events += [(cursor, 1, i), (span.end, 0, i)]
    events.sort()  # at equal times, closings (0) come before openings (1)
    out = [0.0] * len(spans)
    active: set[int] = set()
    last = 0.0
    for t, opening, i in events:
        if active and t > last:
            share = (t - last) / len(active)
            for j in active:
                out[j] += share
        last = t
        if opening:
            active.add(i)
        else:
            active.discard(i)
    return out


def _plain(call, args, kwargs):
    return call(*args, **kwargs), None


def _images(call, args, kwargs):
    return call(*args, **kwargs), {"images": len(args[0])}


def _conv2d(call, args, kwargs):
    out = call(*args, **kwargs)
    x, kernel = args[0], args[1]
    b, o, h_out, w_out = out.shape
    flops = 2 * b * o * h_out * w_out * kernel[0].size
    return out, {"flops": flops, "bytes": x.nbytes + kernel.nbytes + out.nbytes}


def _path_bytes(position):
    def measure(call, args, kwargs):
        result = call(*args, **kwargs)
        return result, {"bytes": os.path.getsize(args[position])}
    return measure


def _kmeans(call, args, kwargs):
    history = args[5] if len(args) > 5 else kwargs.get("history")
    if history is None:
        history = kwargs["history"] = []
    before = len(history)
    result = call(*args, **kwargs)
    return result, {"iterations": len(history) - before}


def _hypotheses(call, args, kwargs):
    return call(*args, **kwargs), {"hypotheses": len(args[2])}


# span name -> how to call the original and what counts to record
SPANS = {
    "cli.main": _plain,
    "pipeline.embed_images": _plain,
    "encoder.encoder_forward": _images,
    "encoder.encoder_backward": _plain,
    "stems.stem_forward_cached": _plain,
    "stems.stem_backward": _plain,
    "ops.conv2d": _conv2d,
    "ops.conv2d_backward": _plain,
    "ops.normalize_cached": _plain,
    "ops.normalize_backward": _plain,
    "ops.softmax": _plain,
    "ops.activation": _plain,
    "cfs.score_corpus": _plain,
    "cfs.ScoreTable.__post_init__": _plain,
    "cfs.filter_top": _plain,
    "embeddings.EmbeddingSet.__post_init__": _plain,
    "formats.read_embeddings": _path_bytes(0),
    "formats.write_embeddings": _path_bytes(1),
    "formats.read_report": _path_bytes(0),
    "formats.write_report": _path_bytes(0),
    "formats.read_image_ppm": _plain,
    "selection.kmeans_fit": _kmeans,
    "selection.select_cluster": _plain,
    "selection.compare_strategies": _plain,
    "invariance.invariance_report": _plain,
    "invariance.augment": _plain,
    "invariance.cka_linear": _plain,
    "divergence.build_stumps": _plain,
    "divergence.hdh_empirical": _hypotheses,
}


class Tracer:
    """Records spans in memory; ``collect`` turns one op's spans into
    per-name totals and forgets them. With ``track_memory`` set (and
    tracemalloc running) main-thread spans also record their peak
    allocation above the level at entry."""

    def __init__(self, track_memory=False):
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1] if main else None
        span = Span(name, tid, parent)
        if self.track_memory and tid == self._main:
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].peak = max(stack[-1].peak, peak)
            tracemalloc.reset_peak()
            span.mem0 = span.peak = current
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, error: int) -> None:
        span.end = time.perf_counter()
        span.error = error
        stack = self._stacks[span.thread]
        stack.pop()
        if span.mem0 is not None:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if stack:
                stack[-1].peak = max(stack[-1].peak, span.peak)

    def collect(self) -> dict[str, dict]:
        spans, self.spans = self.spans, []
        totals: dict[str, dict] = {}
        for span, own in zip(spans, self_times(spans)):
            row = totals.setdefault(span.name, defaultdict(float))
            row["self_s"] += own
            row["wall_s"] += span.end - span.start
            row["calls"] += 1
            row["errors"] += span.error
            for key, value in (span.extra or {}).items():
                row[key] += value
            if span.mem0 is not None:
                row["peak_alloc_mb"] = max(row["peak_alloc_mb"], (span.peak - span.mem0) / MB)
            parent = span.parent
            if parent is not None and parent.thread != span.thread:
                totals.setdefault(parent.name, defaultdict(float))["thread_busy_s"] += (
                    span.end - span.start)
        return {name: dict(row) for name, row in totals.items()}

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, original, measure):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            error = 1
            try:
                result, span.extra = measure(original, args, dict(kwargs))
                error = 0
                return result
            finally:
                tracer.close(span, error)

        wrapper.__perfbench_original__ = original
        return wrapper

    def install(self, package) -> None:
        modules = package_modules(package)
        for name, measure in SPANS.items():
            module_name, *attrs = name.split(".")
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            if len(attrs) == 2:
                owner = getattr(module, attrs[0])
                original = owner.__dict__[attrs[1]]
                self._patch(owner, attrs[1], original, self._wrap(name, original, measure))
                continue
            original = getattr(module, attrs[0])
            wrapper = self._wrap(name, original, measure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self, package) -> list[str]:
        """Restore every patched name; return what is still not original."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        problems = [
            f"{getattr(owner, '__name__', owner)}.{attr} is not the original"
            for owner, attr, original in self._patched
            if vars(owner)[attr] is not original
        ]
        self._patched = []
        return problems + find_wrappers(package)


def package_modules(package) -> list:
    prefix = package.__name__ + "."
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(prefix))]


def find_wrappers(package) -> list[str]:
    """Names in the package (module attributes and class attributes) still
    bound to a wrapper."""
    found = []
    for mod in package_modules(package):
        for attr, value in vars(mod).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{a}" for a, v in vars(value).items()
                          if hasattr(v, "__perfbench_original__")]
    return found


# ---------------------------------------------------------------------------
# self-check


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def self_check() -> list[str]:
    """Check the self-time arithmetic and the recorder; return failures."""
    errors = []

    # nested spans on one thread: A[0,10] > B[2,5] > C[3,4], A > D[6,7]
    a = Span("A", 1, None, 0.0, 10.0)
    b = Span("B", 1, a, 2.0, 5.0)
    c = Span("C", 1, b, 3.0, 4.0)
    d = Span("D", 1, a, 6.0, 7.0)
    got = self_times([a, b, c, d])
    if not all(_close(x, y) for x, y in zip(got, [6.0, 2.0, 1.0, 1.0])):
        errors.append(f"nested self times {got}, expected [6, 2, 1, 1]")

    # two worker threads under one parent: P[0,10], W1[1,6] on thread 2
    # (with child X[2,3]), W2[3,8] on thread 3. Union of children is [1,8],
    # so P owns 3; [3,6] is shared between W1 and W2.
    p = Span("P", 1, None, 0.0, 10.0)
    w1 = Span("W1", 2, p, 1.0, 6.0)
    x = Span("X", 2, w1, 2.0, 3.0)
    w2 = Span("W2", 3, p, 3.0, 8.0)
    got = self_times([p, w1, x, w2])
    want = [3.0, 1.0 + 1.5, 1.0, 1.5 + 2.0]
    if not all(_close(g, w) for g, w in zip(got, want)):
        errors.append(f"overlapping self times {got}, expected {want}")
    if not _close(sum(got), 10.0):
        errors.append(f"overlapping self times sum to {sum(got)}, expected 10")

    # live recorder: pool threads attach to the main thread's open span,
    # self times add up to the parent's wall time, memory peaks nest
    tracer = Tracer(track_memory=True)
    tracemalloc.start()
    try:
        outer = tracer.open("outer")
        barrier = threading.Barrier(2)

        def work():
            span = tracer.open("worker")
            barrier.wait(timeout=5)
            time.sleep(0.01)
            tracer.close(span, 0)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        inner = tracer.open("inner")
        block = bytearray(8 * MB)
        tracer.close(inner, 0)
        del block
        tracer.close(outer, 0)
    finally:
        tracemalloc.stop()
    if any(t.is_alive() for t in threads):
        errors.append("self-check worker threads did not finish")
    spans = list(tracer.spans)
    totals = tracer.collect()
    workers = [s for s in spans if s.name == "worker"]
    if len(workers) != 2 or any(s.parent is not outer for s in workers):
        errors.append("worker-thread spans are not attributed to the main-thread span")
    accounted = sum(row["self_s"] for row in totals.values())
    if not _close(accounted, outer.end - outer.start, 1e-6):
        errors.append(f"live self times sum to {accounted}, wall is {outer.end - outer.start}")
    if totals["outer"]["thread_busy_s"] < 0.02:
        errors.append("worker busy time not recorded on the parent span")
    if not (totals["inner"]["peak_alloc_mb"] >= 8 and totals["outer"]["peak_alloc_mb"] >= 8):
        errors.append(f"peak_alloc_mb does not nest: {totals['inner']}, {totals['outer']}")
    return errors
