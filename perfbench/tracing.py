"""Spans around the public entry points of the ``repro`` modules.

The wrappers live here, in benchmark code: nothing under ``src/`` knows
about them. :func:`install` replaces each entry point named in
:data:`ENTRY_POINTS` (a method on its class, or a module-level function
in every module that imported it) with a wrapper that opens a span on
entry and closes it on exit. A span is ``[id, parent id, name, start,
end, attrs, tag]``; start and end come from ``time.monotonic`` (the
system-wide ``CLOCK_MONOTONIC`` on Linux, so spans from different
processes share one time base).

Spans stay in memory. Processes forked after installation (suite pool
workers, the service's record children) inherit the wrappers; because
they leave through ``os._exit``, each appends its spans to
``spans-<pid>.jsonl`` in the span directory whenever its outermost span
closes. The installing process writes its own file on :meth:`SpanLog.flush`.

Per-reference functions (``PageMap.pool_of_page``, the cache model's
per-line access) are deliberately not wrapped: they run hundreds of
thousands of times per workload, and a wrapper there would measure the
wrapper.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import statistics
import sys
import threading
import time

now = time.monotonic


class SpanLog:
    """In-memory span buffer for one process (and, after a fork, the
    child's own fresh buffer)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.owner_pid = os.getpid()
        self.tag = ""
        self._spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # the child starts empty: the parent's buffered spans stay the
        # parent's to write
        self._spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), stack[-1][0] if stack else 0, name,
                now(), 0.0, None, self.tag]
        stack.append(span)
        return span

    def close(self, span: list, attrs: dict | None = None) -> None:
        span[4] = now()
        span[5] = attrs
        stack = self._stack()
        stack.pop()
        self._spans.append(span)
        if not stack and os.getpid() != self.owner_pid:
            self.flush()

    def detached(self, name: str, start: float, end: float) -> None:
        """A span that does not nest on the thread's stack (a coroutine
        interleaving with others on one event loop)."""
        self._spans.append([next(self._ids), 0, name, start, end, None,
                            self.tag])
        if os.getpid() != self.owner_pid:
            self.flush()

    def flush(self) -> None:
        spans, self._spans = self._spans, []
        if not spans:
            return
        pid = os.getpid()
        path = os.path.join(self.out_dir, f"spans-{pid}.jsonl")
        with open(path, "a") as fh:
            fh.writelines(json.dumps([pid, *s]) + "\n" for s in spans)


# -- what gets wrapped ------------------------------------------------------

def _refs_emitted(args, _result):
    return {"refs": int(args[1].refs_emitted)}


def _batch_refs(args, _result):
    return {"refs": len(args[1])}


def _cache_filter(args, result):
    return {"refs": len(args[1]), "out": len(result)}


def _chunks_verified(args, _result):
    return {"chunks": int(args[0].n_chunks)}


def _chunks_replayed(_args, result):
    return {"chunks": int(result.meta.get("n_batches", 0) or 0)}


#: (module, class or None, attribute, span name, attrs hook). The span
#: names are the metric prefixes of the layer table in README.md.
ENTRY_POINTS = (
    ("repro.apps.base", "ModelApp", "__call__", "apps.run", _refs_emitted),
    ("repro.trace.chunked", "ChunkedTraceWriter", "append", "trace.append",
     _batch_refs),
    ("repro.trace.chunked", "ChunkedTraceWriter", "close", "trace.close",
     None),
    ("os", None, "fsync", "trace.fsync", None),
    ("repro.trace.chunked", "ChunkedTraceReader", "read_batch",
     "trace.read_batch", None),
    ("repro.trace.chunked", "ChunkedTraceReader", "verify_stored",
     "trace.verify_stored", _chunks_verified),
    ("repro.engine.engine", "PipelineEngine", "record", "engine.record", None),
    ("repro.engine.engine", "PipelineEngine", "replay", "engine.replay",
     _chunks_replayed),
    ("repro.engine.artifacts", "PendingArtifact", "commit", "engine.commit",
     None),
    ("repro.scavenger.stackfast", "FastStackAnalyzer", "on_batch",
     "scavenger.stackfast", None),
    ("repro.scavenger.stackslow", "SlowStackAnalyzer", "on_batch",
     "scavenger.stackslow", None),
    ("repro.scavenger.heap_analysis", "HeapAnalyzer", "on_batch",
     "scavenger.heap", None),
    ("repro.scavenger.global_analysis", "GlobalAnalyzer", "on_batch",
     "scavenger.globals", None),
    ("repro.scavenger.scavenger", "ScavengerReplaySession", "result",
     "scavenger.result", None),
    ("repro.cachesim.hierarchy", "CacheHierarchy", "process_batch",
     "cachesim.process_batch", _cache_filter),
    ("repro.powersim.system", None, "simulate_power", "powersim.simulate",
     None),
    ("repro.powersim.controller", "MemoryController", "process_batch",
     "powersim.controller", _batch_refs),
    ("repro.perfsim.simulator", "PerformanceSimulator", "counts_from_run",
     "perfsim.simulate", None),
    ("repro.perfsim.simulator", "PerformanceSimulator", "sweep",
     "perfsim.simulate", None),
    ("repro.perfsim.simulator", "PerformanceSimulator", "sweep_latencies",
     "perfsim.simulate", None),
    ("repro.hybrid.pagemap", "PageMap", "pool_of_batch",
     "hybrid.pool_of_batch", None),
    ("repro.hybrid.dramcache", "DRAMCacheModel", "run", "hybrid.dramcache",
     None),
    ("repro.policies.eval", None, "evaluate_policy", "policies.evaluate",
     None),
    ("repro.resilience.engine", "CheckpointEngine", "run",
     "resilience.checkpoint_run", None),
    ("repro.experiments.common", "ExperimentContext", "prefetch",
     "experiments.prefetch", None),
)


def _wrap(log: SpanLog, fn, name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = log.open(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                attrs = hook(args, result)
            return result
        finally:
            log.close(span, attrs)
    return wrapper


def _wrap_task(log: SpanLog, fn):
    """The suite pool worker's entry point: tags the worker's spans with
    its task id."""
    @functools.wraps(fn)
    def wrapper(task_id, *args, **kwargs):
        log.tag = task_id
        span = log.open("sched.task")
        try:
            return fn(task_id, *args, **kwargs)
        finally:
            log.close(span)
    return wrapper


def _wrap_request(log: SpanLog, fn):
    """``AnalysisService.handle_analyze``: requests interleave on one
    event loop, so their spans are recorded detached."""
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = now()
        try:
            return await fn(*args, **kwargs)
        finally:
            log.detached("service.request", start, now())
    return wrapper


class Installation:
    """The wrappers one :func:`install` put in place, and how to undo them."""

    def __init__(self) -> None:
        self._undo: list = []

    def set_attr(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key: str, value) -> None:
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = value

    def patch_function(self, module: str, attr: str, wrapper) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = getattr(sys.modules[module], attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, attr, None) is original:
                self.set_attr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(log: SpanLog) -> Installation:
    """Wrap every entry point; call after importing the modules that
    import them (``repro.cli`` pulls in all of them)."""
    import importlib

    import repro.cli  # noqa: F401 — binds every imported name first
    import repro.sched.suite  # noqa: F401
    import repro.sched.workers as workers
    from repro.experiments.runner import EXPERIMENTS
    from repro.service.server import AnalysisService

    inst = Installation()
    for module, cls, attr, name, hook in ENTRY_POINTS:
        mod = importlib.import_module(module)
        if cls is None:
            inst.patch_function(module, attr,
                                _wrap(log, getattr(mod, attr), name, hook))
        else:
            owner = getattr(mod, cls)
            inst.set_attr(owner, attr,
                          _wrap(log, getattr(owner, attr), name, hook))
    # run_all and the pool workers look experiments up in the registry
    for exp_id, fn in list(EXPERIMENTS.items()):
        inst.set_item(EXPERIMENTS, exp_id,
                      _wrap(log, fn, f"experiments.{exp_id}", None))
    inst.patch_function("repro.sched.workers", "task_process_main",
                        _wrap_task(log, workers.task_process_main))
    inst.set_attr(AnalysisService, "handle_analyze",
                  _wrap_request(log, AnalysisService.handle_analyze))
    return inst


# -- reading spans back -----------------------------------------------------

def load_spans(span_dir: str) -> list[list]:
    """Every span written under *span_dir*, as
    ``[pid, id, parent, name, start, end, attrs, tag]`` rows."""
    rows = []
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            rows.extend(json.loads(line) for line in fh if line.strip())
    return rows


def coverage(spans: list[list], start: float, end: float) -> float:
    """Share of ``[start, end]`` during which at least one span was
    open. For one thread of nested spans this equals the sum of the
    spans' self times over the wall clock."""
    if end <= start:
        return 0.0
    intervals = sorted((max(s[4], start), min(s[5], end)) for s in spans
                       if s[5] > start and s[4] < end)
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered / (end - start)


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(spans: list[list], start: float, end: float,
                  exp_ids) -> dict[str, float]:
    """Per-layer metrics of one timed window: self times (a span's
    duration minus its direct children's), call counts and the counts
    the attrs hooks captured."""
    spans = [s for s in spans if start <= s[4] <= end]
    child_time: dict[tuple[int, int], float] = {}
    children: dict[tuple[int, int], set[str]] = {}
    for s in spans:
        if s[2]:
            key = (s[0], s[2])
            child_time[key] = child_time.get(key, 0.0) + (s[5] - s[4])
            children.setdefault(key, set()).add(s[3])
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    incl: dict[str, list[float]] = {}
    attr_sum: dict[tuple[str, str], int] = {}
    nonempty_appends = 0
    app_runs = 0
    for s in spans:
        pid, sid, _parent, name, t0, t1, attrs = s[:7]
        dur = t1 - t0
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get((pid, sid), 0.0)
        calls[name] = calls.get(name, 0) + 1
        incl.setdefault(name, []).append(dur)
        for k, v in (attrs or {}).items():
            attr_sum[(name, k)] = attr_sum.get((name, k), 0) + v
        if name == "trace.append" and attrs and attrs.get("refs"):
            nonempty_appends += 1
        if name == "engine.record" and "apps.run" in children.get((pid, sid), ()):
            app_runs += 1

    def st(name):
        return self_s.get(name, 0.0)

    def attr(name, key):
        return attr_sum.get((name, key), 0)

    decoded = calls.get("trace.read_batch", 0)
    accessed = attr("engine.replay", "chunks")
    out = {
        "apps.run_s": st("apps.run"),
        "apps.refs": attr("apps.run", "refs"),
        "trace.append_s": st("trace.append") + st("trace.close"),
        "trace.chunks_written": nonempty_appends,
        "trace.fsync_calls": calls.get("trace.fsync", 0),
        "trace.fsync_s": st("trace.fsync"),
        "trace.read_batch_s": st("trace.read_batch"),
        "trace.verify_stored_s": st("trace.verify_stored"),
        "engine.record_s": st("engine.record"),
        "engine.commit_s": st("engine.commit"),
        "engine.replay_s": st("engine.replay"),
        "engine.app_runs": app_runs,
        "engine.cache_hits": calls.get("engine.record", 0) - app_runs,
        "engine.chunks_verified": attr("trace.verify_stored", "chunks"),
        "engine.chunks_decoded": decoded,
        "engine.decode_memo_hit_ratio": (max(0.0, 1.0 - decoded / accessed)
                                         if accessed else 0.0),
        "scavenger.stackfast_s": st("scavenger.stackfast"),
        "scavenger.stackslow_s": st("scavenger.stackslow"),
        "scavenger.heap_s": st("scavenger.heap"),
        "scavenger.globals_s": st("scavenger.globals"),
        "scavenger.result_s": st("scavenger.result"),
        "cachesim.process_batch_s": st("cachesim.process_batch"),
        "cachesim.refs_in": attr("cachesim.process_batch", "refs"),
        "cachesim.refs_out": attr("cachesim.process_batch", "out"),
        "powersim.simulate_s": st("powersim.simulate"),
        "powersim.controller_s": st("powersim.controller"),
        "powersim.refs": attr("powersim.controller", "refs"),
        "perfsim.simulate_s": st("perfsim.simulate"),
        "hybrid.pool_of_batch_s": st("hybrid.pool_of_batch"),
        "hybrid.pool_of_batch_calls": calls.get("hybrid.pool_of_batch", 0),
        "hybrid.dramcache_s": st("hybrid.dramcache"),
        "policies.evaluate_s": st("policies.evaluate"),
        "policies.cells": calls.get("policies.evaluate", 0),
        "policies.cell_p50_ms": _p50_ms(incl.get("policies.evaluate", [])),
        "resilience.checkpoint_run_s": st("resilience.checkpoint_run"),
        "resilience.checkpoint_runs": calls.get("resilience.checkpoint_run", 0),
        "experiments.prefetch_s": sum(incl.get("experiments.prefetch", [])),
        "bench.span_coverage": coverage(spans, start, end),
        # not a reported metric: the divisor of trace.stored_bytes_per_ref
        "trace.append_refs": attr("trace.append", "refs"),
    }
    for exp_id in exp_ids:
        out[f"experiments.{exp_id}_s"] = sum(incl.get(f"experiments.{exp_id}", []))
    return out
