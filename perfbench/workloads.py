"""The four workloads, one repetition at a time.

Each repetition runs in a forked child of the benchmark process (see
``run.py``), which talks back over a pipe through :class:`Rep`: when
set-up ended, every finished operation with its latency and output
digest, and a closing summary. Set-up covers everything before the
timed region: a fresh artifact cache and context, the sweep's trace
recording, or a daemon start plus key priming.

Why these four (each ROADMAP hot spot works in one and idles in another):

* ``suite`` — ``run_all`` at jobs=1 on an empty cache: every recording,
  one full-probe replay per app and all 20 experiments. The only
  workload that runs ``resilience``, ``powersim`` and ``perfsim``.
* ``suite_jobs2`` — the same suite on the default two-worker pool: the
  only workload that enters ``repro.sched`` (spawn, IPC and fsync cost
  per task).
* ``sweep_warm`` — the ``nvscavenger policies sweep`` path over traces
  recorded during set-up: no app runs in the timed region, most time in
  ``evaluate_policy`` and ``PageMap.pool_of_batch``.
* ``serve_mixed`` — a real ``nvscavenger serve`` daemon under two
  closed-loop keep-alive connections: nine in ten requests hit primed
  keys (lookup, digest, HTTP), one in ten asks for a never-seen spec and
  records in a fork child (app, encode, per-chunk fsync, commit).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import tracing
from checks import result_digest, digest
from tracing import now

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: refs_per_iteration / scale / n_iterations per fidelity and output
#: group. ``baseline`` is the ROADMAP baseline (the sweep runs at 20000
#: refs so its cells are long enough to time); ``tiny`` is the self-test's.
_TINY = {"refs_per_iteration": 2000, "scale": 1 / 256, "n_iterations": 2}
FIDELITY = {
    "baseline": {
        "suite": {"refs_per_iteration": 4000, "scale": 1 / 64, "n_iterations": 10},
        "sweep_warm": {"refs_per_iteration": 20000, "scale": 1 / 64,
                       "n_iterations": 10},
        "serve_mixed": {"refs_per_iteration": 4000, "scale": 1 / 64,
                        "n_iterations": 10},
    },
    "tiny": {"suite": _TINY, "sweep_warm": _TINY, "serve_mixed": _TINY},
}
#: repetitions a run makes at least (of each kind, in a traced run),
#: even when one outlasts --seconds
MIN_REPS = 2

#: requests per daemon session, by fidelity; one in ten is cold
SERVE_REQUESTS = {"baseline": 600, "tiny": 60}
SERVE_CONNECTIONS = 2
SERVE_NAMES = ("cam", "gtc", "nek5000", "s3d", "workload:kvcache",
               "workload:graph", "workload:checkpoint")
_REQUEST_TIMEOUT_S = 60.0


class Rep:
    """The child's side of one repetition."""

    def __init__(self, fd: int, *, seed: int, fidelity: str, traced: bool,
                 work_dir: str, forked_at: float) -> None:
        self._out = os.fdopen(fd, "w", buffering=1)
        self._lock = threading.Lock()
        self.seed = seed
        self.fidelity = fidelity
        self.traced = traced
        self.work_dir = work_dir
        self.forked_at = forked_at
        self.span_dir = os.path.join(work_dir, "spans")
        os.makedirs(self.span_dir)
        self.log: tracing.SpanLog | None = None
        self._inst: tracing.Installation | None = None
        self.t0 = self.t1 = 0.0
        self.extras: dict = {}

    def send(self, msg_type: str, /, **fields) -> None:
        line = json.dumps({"t": msg_type, **fields}) + "\n"
        with self._lock:
            self._out.write(line)

    def knobs(self, group: str) -> dict:
        return dict(FIDELITY[self.fidelity][group])

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work_dir, name)
        os.makedirs(path)
        return path

    def start_tracing(self) -> None:
        if self.traced:
            self.log = tracing.SpanLog(self.span_dir)
            self._inst = tracing.install(self.log)

    def timed_start(self) -> None:
        self.send("setup_done", setup_s=now() - self.forked_at)
        self.t0 = now()

    def timed_end(self) -> None:
        self.t1 = now()

    def op(self, op_id: str, *, ok: bool, digest_: str | None) -> None:
        """One finished operation and the digest of its output."""
        self.send("op", id=op_id, ok=ok, digest=digest_)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.send("check", name=name, ok=ok, detail=detail)

    def finish(self, *, rss_kb: int, stored_bytes: int = 0,
               exp_ids=()) -> None:
        layers = None
        if self.traced:
            if self.log is not None:  # serve_mixed traces the daemon instead
                self.log.flush()
                self._inst.uninstall()
            layers = tracing.layer_metrics(
                tracing.load_spans(self.span_dir), self.t0, self.t1, exp_ids)
            appended = layers.pop("trace.append_refs")
            layers["trace.stored_bytes_per_ref"] = (
                stored_bytes / appended if appended else 0.0)
        self.send("rep", wall_s=self.t1 - self.t0, t0=self.t0, t1=self.t1,
                  rss_mb=rss_kb / 1024.0, extras=self.extras, layers=layers)


def _rss_kb(*who: int) -> int:
    return max(resource.getrusage(w).ru_maxrss for w in who)


def chunk_bytes(root: str) -> int:
    """Stored bytes of every trace chunk under an artifact-cache root."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.startswith("chunk-") and name.endswith(".bin"):
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
    return total


def import_all() -> None:
    """The set-up import phase: everything a repetition touches, so no
    repetition pays a first-import cost inside its timed region."""
    import numpy.random  # noqa: F401 — make_rng's lazy import
    import repro.cli  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.sched.suite  # noqa: F401
    import repro.service.server  # noqa: F401


# -- suite and suite_jobs2 --------------------------------------------------

def _sched_metrics(events, graph, jobs: int, wall_s: float) -> dict:
    from repro.sched.events import TASK_FINISHED, TASK_RETRIED, TASK_STARTED

    started: dict[str, float] = {}
    finished: dict[str, float] = {}
    busy = 0.0
    for ev in events:
        if ev.kind == TASK_STARTED:
            started[ev.task_id] = ev.t
        elif ev.kind == TASK_FINISHED:
            finished[ev.task_id] = ev.t
            busy += ev.t - started.get(ev.task_id, ev.t)
    lags = []
    for tid, t_start in started.items():
        deps = graph.tasks[tid].deps
        if deps and all(d in finished for d in deps):
            lags.append(t_start - max(finished[d] for d in deps))
    return {
        "sched.tasks": len(finished),
        "sched.task_busy_s": busy,
        "sched.busy_share": busy / (jobs * wall_s) if wall_s > 0 else 0.0,
        "sched.start_lag_p50_ms": (statistics.median(lags) * 1000.0
                                   if lags else 0.0),
        "sched.retries": sum(1 for ev in events if ev.kind == TASK_RETRIED),
    }


def suite_rep(rep: Rep, jobs: int) -> None:
    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import EXPERIMENTS, run_all
    from repro.resilience.harness import ExperimentFailure, HardenedRunner
    from repro.sched.suite import build_suite_graph

    cache = rep.fresh_dir("cache")
    ctx = ExperimentContext(**rep.knobs("suite"), seed=rep.seed, cache_dir=cache)
    rep.start_tracing()

    def report(res):
        failed = isinstance(res, ExperimentFailure)
        rep.op(res.exp_id, ok=not failed,
               digest_=None if failed else result_digest(res))

    if jobs == 1:
        run_one = HardenedRunner.run_one

        def reporting_run_one(self, exp_id, fn, ctx):
            # each experiment is reported as it finishes, so the hang
            # guard knows which ones a killed repetition completed
            res = run_one(self, exp_id, fn, ctx)
            report(res)
            return res

        HardenedRunner.run_one = reporting_run_one
        rep.timed_start()
        run_all(ctx)
        rep.timed_end()
    else:
        events = []
        rep.timed_start()
        results = run_all(ctx, jobs=jobs, on_sched_event=events.append)
        rep.timed_end()
        for res in results:
            report(res)
        rep.extras["sched"] = _sched_metrics(
            events, build_suite_graph(ctx, EXPERIMENTS), jobs,
            rep.t1 - rep.t0)
    rep.finish(rss_kb=_rss_kb(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN),
               stored_bytes=chunk_bytes(cache), exp_ids=tuple(EXPERIMENTS))


# -- sweep_warm -------------------------------------------------------------

def sweep_rep(rep: Rep) -> None:
    from repro.experiments import policy_zoo
    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import EXPERIMENTS, run_all
    from repro.resilience.harness import ExperimentFailure

    knobs = rep.knobs("sweep_warm")
    cache = rep.fresh_dir("cache")
    # set-up: record the sweep's three workload traces
    ExperimentContext(**knobs, seed=rep.seed, apps=(),
                      cache_dir=cache).prefetch(policy_zoo.ARTIFACTS)
    rep.start_tracing()
    ctx = ExperimentContext(**knobs, seed=rep.seed, apps=(), cache_dir=cache)
    rep.timed_start()
    (res,) = run_all(ctx, experiments={"policy_zoo": EXPERIMENTS["policy_zoo"]})
    rep.timed_end()
    if isinstance(res, ExperimentFailure):
        rep.check("policy_zoo", False, f"{res.error_type}: {res.message}")
    else:
        rep.send("digest", id="text", digest=digest(res.text))
        for row in res.rows:
            rep.op(row["cell"], ok=True, digest_=digest(row))
    runs = ctx.engine.stats.app_runs
    rep.check("no app runs in the timed region", runs == 0,
              f"{runs} app run(s)")
    rep.finish(rss_kb=_rss_kb(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


# -- serve_mixed ------------------------------------------------------------

def serve_schedule(seed: int, knobs: dict, n_requests: int):
    """``(primed specs, [(kind, op id, spec), ...])`` for one session:
    the same schedule every session of a run."""
    rng = random.Random(seed)

    def spec(name, s):
        return {"app": name, **knobs, "seed": s}

    primed = [(f"{name}@{seed}", spec(name, seed)) for name in SERVE_NAMES]
    cold_at = set(rng.sample(range(n_requests), n_requests // 10))
    schedule, k = [], 0
    for i in range(n_requests):
        if i in cold_at:
            name, s = SERVE_NAMES[k % len(SERVE_NAMES)], seed + 1 + k
            schedule.append(("cold", f"{name}@{s}", spec(name, s)))
            k += 1
        else:
            op_id, body = rng.choice(primed)
            schedule.append(("warm", op_id, body))
    return primed, schedule


class _Client:
    """One keep-alive connection (reconnects after an error)."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port,
                                               timeout=_REQUEST_TIMEOUT_S)

    def call(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            return resp.status, json.loads(resp.read())
        except (OSError, http.client.HTTPException, ValueError):
            self.conn.close()
            raise

    def close(self) -> None:
        self.conn.close()


def _start_daemon(rep: Rep, cache: str) -> tuple[subprocess.Popen, str, int]:
    ready = os.path.join(rep.work_dir, "ready")
    serve_args = ["serve", "--cache-dir", cache, "--port", "0",
                  "--ready-file", ready, "--grace", "2"]
    if rep.traced:
        cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
               rep.span_dir, *serve_args]
    else:
        cmd = [sys.executable, "-m", "repro.cli", *serve_args]
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(os.path.join(rep.work_dir, "daemon.log"), "w") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=log,
                                cwd=rep.work_dir)
    deadline = now() + 60.0
    while not os.path.exists(ready):
        if proc.poll() is not None or now() > deadline:
            _stop_daemon(proc)
            with open(os.path.join(rep.work_dir, "daemon.log")) as log:
                tail = log.read()[-1500:]
            raise RuntimeError(f"daemon not ready (exit {proc.returncode}):\n"
                               f"{tail}")
        time.sleep(0.02)
    with open(ready) as fh:
        host, port = fh.read().split()
    return proc, host, int(port)


def _stop_daemon(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _drive(clients, schedule, on_done) -> None:
    """Closed loop: each connection sends its next request only after
    the previous answer arrived."""
    lock = threading.Lock()
    cursor = iter(schedule)

    def loop(client):
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            kind, op_id, body = item
            t0 = now()
            try:
                status, answer = client.call("POST", "/analyze", body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, answer = 0, {"ok": False, "error": repr(exc)}
            on_done(kind, op_id, now() - t0, status, answer)

    threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _error_count(stats: dict) -> int:
    return sum(v for k, v in stats.items() if k.startswith("err_"))


def serve_rep(rep: Rep) -> None:
    knobs = rep.knobs("serve_mixed")
    primed, schedule = serve_schedule(rep.seed, knobs,
                                      SERVE_REQUESTS[rep.fidelity])
    cache = rep.fresh_dir("cache")
    proc, host, port = _start_daemon(rep, cache)
    clients = [_Client(host, port) for _ in range(SERVE_CONNECTIONS)]
    #: (kind, client latency s, server wall s or None, served from cache)
    samples: list[tuple] = []
    samples_lock = threading.Lock()
    try:
        def prime_done(_kind, op_id, _lat, status, answer):
            rep.send("primed", id=op_id, ok=status == 200 and answer.get("ok"),
                     digest=answer.get("digest"))

        _drive(clients, [("prime", op_id, body) for op_id, body in primed],
               prime_done)
        _s, stats0 = clients[0].call("GET", "/stats")
        bytes0 = chunk_bytes(cache)

        def done(kind, op_id, lat, status, answer):
            ok = status == 200 and bool(answer.get("ok"))
            server = answer.get("wall_s") if ok else None
            with samples_lock:
                samples.append((kind, lat, server,
                                bool(answer.get("cached")) if ok else None))
            rep.op(op_id, ok=ok, digest_=answer.get("digest") if ok else None)

        rep.timed_start()
        _drive(clients, schedule, done)
        rep.timed_end()
        _s, stats1 = clients[0].call("GET", "/stats")
        stored = chunk_bytes(cache) - bytes0
    finally:
        for c in clients:
            c.close()
        _stop_daemon(proc)
    rep.extras["serve"] = {
        "samples": samples,
        "stats": {k: stats1.get(k, 0) - stats0.get(k, 0)
                  for k in ("cache_hits", "records", "coalesced")},
        "errors": _error_count(stats1) - _error_count(stats0),
    }
    rep.check("daemon exit", proc.returncode == 128 + signal.SIGTERM,
              f"exit code {proc.returncode}")
    rep.finish(rss_kb=_rss_kb(resource.RUSAGE_CHILDREN), stored_bytes=stored)


@dataclass(frozen=True)
class Workload:
    name: str
    #: output-check group: workloads in one group must agree
    group: str
    #: operations per repetition (experiments, sweep cells or requests)
    ops_per_rep: int
    #: what an operation is, for the summary lines
    op_name: str
    #: kill a repetition that runs longer than this (the hang guard)
    rep_limit_s: float
    #: one process does all the work, so a repetition is pinned to one
    #: CPU and normalized by that CPU's speed alone (see ``speed.py``)
    solo: bool
    body: Callable[[Rep], None]


def workloads(fidelity: str) -> dict[str, Workload]:
    from repro.experiments import policy_zoo
    from repro.experiments.runner import EXPERIMENTS

    n_exp = len(EXPERIMENTS)
    n_cells = (len(policy_zoo.POLICY_GRID) * len(policy_zoo.WORKLOADS)
               * len(policy_zoo.DEVICES) * len(policy_zoo.BUDGET_FACTORS))
    n_req = SERVE_REQUESTS[fidelity]
    return {w.name: w for w in (
        Workload("suite", "suite", n_exp, "experiments", 60.0, True,
                 lambda rep: suite_rep(rep, 1)),
        Workload("suite_jobs2", "suite", n_exp, "experiments", 60.0, False,
                 lambda rep: suite_rep(rep, 2)),
        Workload("sweep_warm", "sweep_warm", n_cells, "cells", 45.0, True,
                 sweep_rep),
        Workload("serve_mixed", "serve_mixed", n_req, "requests", 45.0, False,
                 serve_rep),
    )}

