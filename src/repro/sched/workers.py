"""Worker-side task execution for the suite's work queue.

Everything here is **spawn-safe**: the entry points are module-level
functions, and every argument crossing the process boundary is picklable
(the :class:`WorkerConfig` dataclass, run specs, experiment ids). Under
the default ``fork`` start method on POSIX nothing needs pickling at
process start, but the same code runs unchanged under ``spawn``
(macOS/Windows defaults) — experiment callables are resolved from the
:data:`repro.experiments.runner.EXPERIMENTS` registry by id whenever
possible so the callable itself never has to cross the boundary.

Workers coordinate exclusively through the shared on-disk
:class:`~repro.engine.artifacts.ArtifactCache`: each task opens its own
:class:`~repro.engine.PipelineEngine` on ``cache_root`` (the coordinator
running tasks itself at ``jobs=1`` keeps one across them), and the cache's
per-key ``flock`` guarantees a spec is executed once cluster-wide — a
worker losing the record race simply replays the winner's artifact.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.engine import PipelineEngine
from repro.engine.locks import FencingToken
from repro.engine.spec import RunSpec
from repro.resilience.harness import (
    ExperimentBudget,
    HardenedRunner,
    RetryPolicy,
)
from repro.sched.graph import RecordTask, Task

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_SCHED_START"


def default_start_method() -> str:
    """``fork`` where available (fast, pickles nothing at process start),
    else the platform default; override with ``REPRO_SCHED_START``."""
    env = os.environ.get(START_METHOD_ENV)
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild the suite context."""

    cache_root: str
    refs_per_iteration: int
    scale: float
    n_iterations: int
    seed: int
    apps: tuple[str, ...]
    self_heal: bool = True
    #: in-worker experiment retries (HardenedRunner semantics)
    retries: int = 1
    reseed_stride: int = 1000
    #: per-experiment wall budget inside the worker (None = unbounded)
    budget_s: float | None = None
    #: ChaosFS fault scenario installed on the worker's cache (soak and
    #: chaos tests; None = plain OsFS)
    chaos_scenario: str | None = None
    chaos_seed: int = 0
    #: the claimed lease's fencing token, validated on every lock
    #: acquisition and artifact commit (set per task by the queue
    #: worker; None in the published manifest)
    fence: FencingToken | None = None


def _apply_cache_hooks(cache, cfg: WorkerConfig) -> None:
    """Install the per-worker cache extras a task may carry: a ChaosFS
    fault scenario (soak/chaos runs) and a queue lease's fencing token."""
    if getattr(cfg, "chaos_scenario", None):
        from repro.engine.chaos import ChaosFS

        cache.fs = ChaosFS(scenario=cfg.chaos_scenario, seed=cfg.chaos_seed)
    if cfg.fence is not None:
        cache.fence = cfg.fence


def worker_context(cfg: WorkerConfig, seed_offset: int = 0,
                   engine: PipelineEngine | None = None):
    """*cfg*'s context, seeded ``seed_offset`` past the suite seed; on
    *engine*, or a new one with *cfg*'s cache hooks installed."""
    from repro.experiments.common import ExperimentContext

    ctx = ExperimentContext(
        refs_per_iteration=cfg.refs_per_iteration,
        scale=cfg.scale,
        n_iterations=cfg.n_iterations,
        seed=cfg.seed + seed_offset,
        apps=cfg.apps,
        engine=engine,
        cache_dir=cfg.cache_root,
        self_heal=cfg.self_heal,
    )
    if engine is None:
        _apply_cache_hooks(ctx.engine.cache, cfg)
    return ctx


def run_record_task(spec: RunSpec, engine: PipelineEngine) -> dict:
    """Record *spec* into the shared cache (idempotent: a loser of the
    cross-process race gets the winner's artifact as a cache hit).
    Failures are deferred to the payload; the experiment that needs the
    artifact surfaces them under harness isolation."""
    before = engine.stats.snapshot()
    t0 = time.perf_counter()
    error = ""
    try:
        engine.record(spec)
    except Exception as exc:  # noqa: BLE001 — deferred to the experiment
        error = f"{type(exc).__name__}: {exc}"
        # a fenced-out recorder must not report success-shaped payloads:
        # re-raise so the caller (queue worker) can refuse the result
        from repro.errors import FencedOutError

        if isinstance(exc, FencedOutError):
            raise
    return {
        "stats": engine.stats.delta(before),
        "wall_s": round(time.perf_counter() - t0, 6),
        "error": error,
    }


def run_experiment_task(exp_id: str, fn: Callable | None, ctx,
                        cfg: WorkerConfig) -> dict:
    """Run one experiment against *ctx* under the harness.

    ``fn=None`` resolves the callable from the experiment registry by id
    (the spawn-safe path).
    """
    if fn is None:
        from repro.experiments.runner import EXPERIMENTS

        fn = EXPERIMENTS[exp_id]
    runner = HardenedRunner(
        retry=RetryPolicy(retries=cfg.retries, reseed_stride=cfg.reseed_stride),
        budget=(ExperimentBudget(wall_s=cfg.budget_s)
                if cfg.budget_s is not None else None),
        strict=False,  # strictness is enforced suite-wide by the parent
    )
    before = ctx.engine.stats.snapshot()
    t0 = time.perf_counter()
    result = runner.run_one(exp_id, fn, ctx)
    return {
        "result": result,
        "stats": ctx.engine.stats.delta(before),
        "wall_s": round(time.perf_counter() - t0, 6),
    }


def task_process_main(task_id: str, task: Task, cfg: WorkerConfig,
                      seed_offset: int = 0, fn: Callable | None = None,
                      ctx=None) -> dict:
    """Run one claimed task in this process and return its payload.

    Every task a queue worker claims runs through here. *task_id* comes
    first so a tracer wrapping this function can tag the worker's spans
    with it. *ctx* is the context shared by the tasks the coordinator
    runs itself at ``jobs=1`` (``cfg.fence`` goes on its cache first);
    None builds a fresh one from *cfg*. A non-zero ``seed_offset`` (a
    retry) reseeds the experiment's context, as :class:`HardenedRunner`
    does. *fn* is an experiment callable the coordinator handed its
    local workers, or None to resolve it from the registry.
    """
    if ctx is None:
        ctx = worker_context(cfg, seed_offset)
    else:
        ctx.engine.cache.fence = cfg.fence
        if seed_offset:
            ctx = worker_context(cfg, seed_offset, engine=ctx.engine)
    if isinstance(task, RecordTask):
        return run_record_task(task.spec, ctx.engine)
    return run_experiment_task(task.exp_id, fn, ctx, cfg)
