"""Shared experiment infrastructure.

Each application is *executed* at most once per distinct run spec: the
context asks the :class:`~repro.engine.PipelineEngine` for the recorded
artifact (recording on first request). An :class:`AppRun` computes
each analysis on first access, once per context — ``result`` by a
replay into the NV-SCAVENGER analyzers only, ``memory_trace``/
``cache_probe`` from the engine's stored cache-filtered trace (filtered
and stored by the first context, in any process, that asks) — so an
experiment that never reads the memory trace never filters, and one
that reads only the trace never runs the scavenger. Fidelity knobs (reference budget, scale) default to
values that keep the full suite within tens of seconds while preserving
every calibrated statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.apps.base import ModelApp
from repro.cachesim import FilteredTrace
from repro.engine import PipelineEngine, RunSpec
from repro.scavenger import NVScavenger, ScavengerResult
from repro.trace.record import RefBatch

#: Paper presentation order.
APP_ORDER: tuple[str, ...] = ("nek5000", "cam", "gtc", "s3d")


class AppRun:
    """Everything an experiment needs from one application's recorded run.

    ``app`` is an un-executed instance (for its ``info`` and class).
    ``result`` comes from a scavenger-only replay, ``cache_probe`` (and
    its ``memory_trace``) from :meth:`PipelineEngine.memory_trace
    <repro.engine.engine.PipelineEngine.memory_trace>`, ``instructions``
    from the artifact's checked commit marker; each is computed on first
    access.
    """

    def __init__(self, engine: PipelineEngine, spec: RunSpec,
                 n_main_iterations: int) -> None:
        self.app: ModelApp = spec.instantiate()
        self._engine = engine
        self._spec = spec
        self._n_main_iterations = n_main_iterations

    @cached_property
    def result(self) -> ScavengerResult:
        session = NVScavenger().replay_session()
        artifact = self._engine.replay(self._spec, session.probe,
                                       stack=session.stack)
        return session.result(
            footprint_bytes=artifact.meta["footprint_bytes"],
            n_main_iterations=self._n_main_iterations,
        )

    @cached_property
    def cache_probe(self) -> FilteredTrace:
        return self._engine.memory_trace(self._spec)

    @property
    def memory_trace(self) -> list[RefBatch]:
        return self.cache_probe.memory_trace

    @cached_property
    def instructions(self) -> int:
        return self._engine.meta(self._spec)["instructions"]


@dataclass
class ExperimentResult:
    """A rendered experiment: an id, a text table, and raw row data."""

    exp_id: str
    title: str
    text: str
    #: machine-readable rows: list of dicts, one per reported line/series
    rows: list[dict] = field(default_factory=list)
    #: paper-vs-measured notes for EXPERIMENTS.md
    notes: list[str] = field(default_factory=list)
    #: engine stage deltas attributed to this experiment (wall seconds,
    #: reference counts and run counters; filled by the hardened runner)
    timings: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"== {self.exp_id}: {self.title} ==\n{self.text}"


class ExperimentContext:
    """Requests recorded artifacts through a shared pipeline engine and
    caches one replayed analysis per application."""

    def __init__(
        self,
        refs_per_iteration: int = 30_000,
        scale: float = 1.0 / 64.0,
        n_iterations: int = 10,
        seed: int = 0,
        apps: Sequence[str] = APP_ORDER,
        engine: PipelineEngine | None = None,
        cache_dir: str | None = None,
        self_heal: bool = True,
    ) -> None:
        self.refs_per_iteration = refs_per_iteration
        self.scale = scale
        self.n_iterations = n_iterations
        self.seed = seed
        self.apps = tuple(apps)
        # self_heal: scrub each artifact before its first replay and
        # quarantine + re-record on corruption (matters for persistent
        # cache_dir roots that outlive the process writing them)
        self.engine = (engine if engine is not None
                       else PipelineEngine(root=cache_dir, self_heal=self_heal))
        self._runs: dict[str, AppRun] = {}

    # ------------------------------------------------------------------
    def spec_for(self, app_name: str) -> RunSpec:
        """The run spec this context's knobs imply for *app_name* (plain
        app names and ``variant:<app>`` both work)."""
        return RunSpec(
            app=app_name,
            refs_per_iteration=self.refs_per_iteration,
            scale=self.scale,
            n_iterations=self.n_iterations,
            seed=self.seed,
        )

    def prefetch(self, names: Sequence[str] | None = None) -> None:
        """Record artifacts for *names* (default: this context's apps) so
        later experiments only replay. Failures are deferred: a spec that
        cannot record here will raise inside the experiment that needs it,
        where the harness isolates the failure."""
        for name in names if names is not None else self.apps:
            try:
                self.engine.record(self.spec_for(name))
            except Exception:  # noqa: BLE001 — surfaced by the experiment
                pass

    def run(self, app_name: str) -> AppRun:
        """*app_name*'s :class:`AppRun`, whose analyses replay the recorded
        artifact on first access (the run is cached per context;
        recording happens at most once per spec across the whole
        engine)."""
        run = self._runs.get(app_name)
        if run is None:
            run = self._runs[app_name] = AppRun(
                self.engine, self.spec_for(app_name), self.n_iterations)
        return run

    def all_runs(self) -> dict[str, AppRun]:
        return {name: self.run(name) for name in self.apps}
