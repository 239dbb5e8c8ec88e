"""``nvscavenger`` command-line interface.

Subcommands:

* ``analyze <app>`` — run NV-SCAVENGER on a model application and print
  the per-object report, Table V row, and classification;
* ``power <app>`` — Table VI-style normalized power for one app;
* ``perf <app>`` — Figure 12-style latency sweep for one app;
* ``trace show <path> [--verify]`` — inspect a trace container (the bare
  ``trace <path>`` spelling still works); ``--verify`` checks every
  batch's CRC32 and reports the first corrupt batch;
* ``trace migrate <in> <out>`` — convert a v1/v2 ``.npz`` archive or a
  v3 container (or another v4 one) to the chunked columnar v4 format,
  atomically (tmp directory + one rename); refuses to overwrite an
  existing destination (exit 2);
* ``engine stats <app>`` — record one run spec through the pipeline
  engine, replay it, and print the per-stage wall-time / refs-per-second
  table, including the self-healing ``quarantined`` / ``re-recorded``
  counters (``--cache-dir`` reuses artifacts across invocations);
* ``engine ls`` — list the committed artifacts under a cache root (a
  derived memory trace reads ``memtrace(<app>@<source key prefix>)``;
  quarantined copies are counted, not listed);
* ``engine fsck`` — scrub every artifact's CRCs and commit markers;
  ``--repair`` quarantines corruption and deletes partial leftovers.
  Exit 0 when the cache is clean (partial leftovers alone are clean:
  the commit-marker protocol already hides them), 1 when corruption
  remains in service, 2 on usage errors;
* ``engine gc`` — enforce a cache size budget (``--max-bytes``, with
  K/M/G suffixes) by LRU eviction on each artifact's ``last_access``
  stamp (written on every cache hit; ``meta.json`` mtime is the
  fallback for pre-stamp caches), never evicting artifacts whose
  cross-process lock is held or that a live ``serve`` daemon's
  requests pin; finished suite-run journals under ``<root>/runs/`` are
  evicted first, unfinished (resumable) ones never;
* ``serve`` — run the analysis daemon: JSON-over-HTTP requests answered
  from the artifact cache with admission control, single-flight dedup,
  circuit breakers, and graceful SIGTERM drain (exit ``128 + signum``);
* ``work`` — join a scheduled suite run (``experiments all --jobs N``
  or ``--run-id ID``) as a worker agent: claim leased tasks from
  ``<cache-dir>/runs/<run-id>/queue/``, heartbeat while running them,
  publish results, exit 0 when the coordinator writes the STOP marker
  (a ``--once``/``--max-tasks`` worker fenced out of a task exits 7);
* ``policies ls`` — list the registered placement/migration policies
  with their default parameters;
* ``policies sweep`` — run the ``policy_zoo`` grid (policy x workload x
  device x endurance budget) against a shared artifact cache;
  ``--cache-dir`` makes repeat sweeps replay-only, ``--jobs``
  parallelizes the record phase;
* ``experiments <id>|all`` — regenerate paper tables/figures;
  ``--jobs N`` runs the suite on up to N worker processes, one task
  each, sharing one artifact cache (0 = one per CPU; results identical
  to ``--jobs 1``).
  Scheduled runs append a crash-consistent journal under
  ``<cache-dir>/runs/<run-id>/``; ``--resume <run-id>`` re-executes
  only the tasks that never finished, and SIGINT/SIGTERM drain
  in-flight workers for ``--grace`` seconds before exiting
  ``128 + signum`` (130/143) with a resume hint;
* ``validate`` — run the reproduction gate (DESIGN.md §5 criteria).

Invalid configurations (non-positive ``--refs``/``--iterations``/
``--scale``) are rejected up front with exit code 2 instead of crashing
deep inside the simulator.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import APPLICATIONS, create_app
from repro.errors import ConfigurationError, TraceError
from repro.experiments.__main__ import main as experiments_main
from repro.scavenger import NVScavenger
from repro.scavenger.report import classification_table, objects_table
from repro.util.units import fmt_bytes


def _add_app_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("app", choices=sorted(APPLICATIONS))
    p.add_argument("--refs", type=int, default=30_000)
    p.add_argument("--scale", type=float, default=1.0 / 64.0)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


def _check_app_args(args: argparse.Namespace) -> None:
    """Reject non-positive fidelity knobs before they reach the simulator."""
    for flag, value in (("--refs", args.refs), ("--iterations", args.iterations),
                        ("--scale", args.scale)):
        if value <= 0:
            raise ConfigurationError(
                f"{flag} must be positive, got {value!r}"
            )


def _make_app(args: argparse.Namespace):
    return create_app(
        args.app,
        scale=args.scale,
        refs_per_iteration=args.refs,
        n_iterations=args.iterations,
        seed=args.seed,
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    app = _make_app(args)
    res = NVScavenger().analyze(app, n_main_iterations=args.iterations)
    summ = res.stack_summary
    print(f"{args.app}: {res.total_refs} references, footprint "
          f"{fmt_bytes(res.footprint_bytes)}")
    print(f"stack: r/w ratio {summ.rw_ratio():.2f}, "
          f"{summ.reference_percentage:.1%} of references")
    print()
    print("global/heap objects:")
    print(objects_table(res.object_metrics))
    print()
    print("classification:")
    print(classification_table(res.classified))
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    from repro.cachesim import MemoryTraceProbe
    from repro.instrument import InstrumentedRuntime
    from repro.nvram import DRAM_DDR3, MRAM, PCRAM, STTRAM
    from repro.powersim import normalized_power

    app = _make_app(args)
    probe = MemoryTraceProbe()
    rt = InstrumentedRuntime(probe)
    app(rt)
    rt.finish()
    norm = normalized_power(probe.memory_trace, [PCRAM, STTRAM, MRAM], DRAM_DDR3)
    for name, value in norm.items():
        print(f"{name:8s} {value:.3f}")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.cachesim import MemoryTraceProbe
    from repro.instrument import InstrumentedRuntime
    from repro.nvram import DRAM_DDR3, MRAM, PCRAM, STTRAM
    from repro.perfsim import PerformanceSimulator

    app = _make_app(args)
    probe = MemoryTraceProbe()
    rt = InstrumentedRuntime(probe)
    app(rt)
    rt.finish()
    sim = PerformanceSimulator()
    counts = sim.counts_from_run(rt.instruction_count, probe)
    sweep = sim.sweep(args.app, counts, [DRAM_DDR3, MRAM, STTRAM, PCRAM])
    print(f"MLP {counts.mlp:.1f}, {counts.llc_misses} LLC misses")
    for tech, (lat, rel) in sweep.points.items():
        print(f"{tech:8s} {lat:6.0f}ns  {rel - 1:+.1%}")
    return 0


_BYTE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def _parse_bytes(text: str) -> int:
    """``"500M"``/``"2g"``/``"1048576"`` → a byte count (exit 2 on junk)."""
    s = text.strip().lower().removesuffix("b").removesuffix("i")
    factor = 1
    if s and s[-1] in _BYTE_SUFFIXES:
        factor = _BYTE_SUFFIXES[s[-1]]
        s = s[:-1]
    try:
        value = float(s)
    except ValueError:
        raise ConfigurationError(
            f"cannot parse byte size {text!r} (want e.g. 1048576, 500M, 2G)"
        ) from None
    if value < 0:
        raise ConfigurationError(f"byte size must be >= 0, got {text!r}")
    return int(value * factor)


def cmd_engine(args: argparse.Namespace) -> int:
    from repro.engine import ArtifactCache, PipelineEngine, RunSpec

    if args.action == "fsck":
        cache = ArtifactCache(args.cache_dir)
        report = cache.fsck(repair=args.repair)
        print(report.table())
        return 0 if report.clean else 1

    if args.action == "gc":
        cache = ArtifactCache(args.cache_dir)
        print(cache.gc(_parse_bytes(args.max_bytes)).summary())
        return 0

    if args.action == "ls":
        import os

        from repro.engine.artifacts import COMMITTED, QUARANTINED
        from repro.engine.memtrace import MEMTRACE_KIND
        from repro.errors import TraceError

        cache = ArtifactCache(args.cache_dir)
        found = 0
        total = 0
        quarantined = 0
        for entry in cache.scan():
            if entry.kind == QUARANTINED:
                quarantined += 1  # out of service, kept for forensics
            if entry.kind != COMMITTED:
                continue
            art = entry.artifact()
            try:
                meta = art.meta
            except TraceError:
                meta = {}  # torn marker: engine fsck names the damage
            spec = meta.get("spec", {})
            label = spec.get("app", "?")
            if meta.get("kind") == MEMTRACE_KIND:
                # a derived trace: name the recording it was filtered from
                spec = meta.get("source", {})
                label = (f"memtrace({spec.get('app', '?')}@"
                         f"{str(meta.get('source_key', '?'))[:8]})")
            size = art.size_bytes()
            total += size
            fmt = "tv4" if os.path.isdir(art.refs_path) else "legacy"
            print(f"{art.key[:12]}  "
                  f"{label:18s} "
                  f"refs={meta.get('refs', 0):>8d}  "
                  f"batches={meta.get('n_batches', 0):>4d}  "
                  f"seed={spec.get('seed', '?')}  "
                  f"fmt={fmt}  size={fmt_bytes(size)}")
            found += 1
        if not found:
            print(f"no committed artifacts under {cache.root}")
        else:
            print(f"{found} artifact(s), {fmt_bytes(total)} total")
        if quarantined:
            print(f"{quarantined} quarantined copy(ies) not listed")
        return 0

    # action == "stats": record one spec, replay it, print the stage table.
    _check_app_args(args)
    engine = PipelineEngine(root=args.cache_dir)
    spec = RunSpec(
        app=args.app,
        refs_per_iteration=args.refs,
        scale=args.scale,
        n_iterations=args.iterations,
        seed=args.seed,
    )
    from repro.instrument.api import Probe

    art = engine.replay(spec, Probe())
    print(f"{args.app}: artifact {spec.key[:12]} — {art.meta['refs']} refs, "
          f"{art.meta['n_batches']} batches, footprint "
          f"{fmt_bytes(art.meta['footprint_bytes'])}")
    print()
    print(engine.stats.table())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServeConfig, serve

    if not (0 <= args.port <= 65535):
        raise ConfigurationError(
            f"--port must be 0..65535, got {args.port}")
    if args.max_inflight < 1:
        raise ConfigurationError(
            f"--max-inflight must be >= 1, got {args.max_inflight}")
    if args.max_queue < 0:
        raise ConfigurationError(
            f"--max-queue must be >= 0, got {args.max_queue}")
    if args.grace < 0:
        raise ConfigurationError(
            f"--grace must be >= 0, got {args.grace}")
    for flag, value in (("--default-deadline", args.default_deadline),
                        ("--max-deadline", args.max_deadline)):
        if value <= 0:
            raise ConfigurationError(
                f"{flag} must be positive, got {value!r}")
    if args.breaker_threshold < 1:
        raise ConfigurationError(
            f"--breaker-threshold must be >= 1, got {args.breaker_threshold}")
    if args.chaos is not None:
        from repro.resilience.faults import SCENARIOS

        if args.chaos not in SCENARIOS:
            raise ConfigurationError(
                f"unknown chaos scenario {args.chaos!r}; "
                f"know {sorted(SCENARIOS)}")
    budget = (_parse_bytes(args.cache_budget)
              if args.cache_budget is not None else None)
    cfg = ServeConfig(
        cache_root=args.cache_dir,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_deadline_s=args.default_deadline,
        max_deadline_s=args.max_deadline,
        grace_s=args.grace,
        breaker_threshold=args.breaker_threshold,
        breaker_backoff_s=args.breaker_backoff,
        cache_budget_bytes=budget,
        gc_interval_s=args.gc_interval,
        chaos_scenario=args.chaos,
        chaos_seed=args.chaos_seed,
        ready_file=args.ready_file,
        seed=args.seed,
    )
    return serve(cfg)


def cmd_work(args: argparse.Namespace) -> int:
    import os

    from repro.errors import QueueError
    from repro.sched.queue import QueueWorker

    if not os.path.isdir(args.cache_dir):
        raise ConfigurationError(
            f"--cache-dir {args.cache_dir!r} does not exist (workers need "
            f"the same cache filesystem the coordinator publishes to)")
    if args.poll <= 0:
        raise ConfigurationError(
            f"--poll must be positive, got {args.poll!r}")
    if args.heartbeat is not None and args.heartbeat <= 0:
        raise ConfigurationError(
            f"--heartbeat must be positive, got {args.heartbeat!r}")
    if args.max_tasks is not None and args.max_tasks < 1:
        raise ConfigurationError(
            f"--max-tasks must be >= 1, got {args.max_tasks}")
    if args.chaos is not None:
        from repro.resilience.faults import SCENARIOS

        if args.chaos not in SCENARIOS:
            raise ConfigurationError(
                f"unknown chaos scenario {args.chaos!r}; "
                f"know {sorted(SCENARIOS)}")
    try:
        worker = QueueWorker(
            args.cache_dir,
            args.run_id,
            worker_id=args.worker_id,
            poll_s=args.poll,
            heartbeat_s=args.heartbeat,
            max_tasks=(1 if args.once else args.max_tasks),
            chaos_scenario=args.chaos,
            chaos_seed=args.chaos_seed,
        )
    except QueueError as exc:
        # bad run id, missing/garbled manifest: a usage error, exit 2
        raise ConfigurationError(str(exc)) from exc
    code = worker.run()
    tail = f", {worker.fenced} fenced out" if worker.fenced else ""
    print(f"worker {worker.worker_id}: "
          f"{worker.completed} task(s) completed{tail}")
    return code


def cmd_policies(args: argparse.Namespace) -> int:
    from repro.policies import available_policies, create_policy

    if args.action == "ls":
        rows = []
        for name, _cls in available_policies().items():
            params = create_policy(name).params()
            shown = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            rows.append((name, shown or "-", _cls.summary))
        width = max(len(r[0]) for r in rows)
        pwidth = max(len(r[1]) for r in rows)
        for name, shown, summary in rows:
            print(f"{name:{width}s}  {shown:{pwidth}s}  {summary}")
        return 0

    # action == "sweep": run the policy_zoo grid through the suite
    # machinery (shared artifact cache, optional work queue)
    for flag, value in (("--refs", args.refs), ("--iterations", args.iterations),
                        ("--scale", args.scale)):
        if value <= 0:
            raise ConfigurationError(f"{flag} must be positive, got {value!r}")
    if args.jobs < 0:
        raise ConfigurationError(f"--jobs must be >= 0, got {args.jobs}")

    from repro.experiments import policy_zoo
    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import run_all
    from repro.resilience.harness import ExperimentFailure

    ctx = ExperimentContext(
        refs_per_iteration=args.refs,
        scale=args.scale,
        n_iterations=args.iterations,
        seed=args.seed,
        apps=(),
        cache_dir=args.cache_dir,
    )
    results = run_all(
        ctx,
        experiments={"policy_zoo": policy_zoo.run},
        jobs=args.jobs,
    )
    code = 0
    for res in results:
        if isinstance(res, ExperimentFailure):
            print(f"policy_zoo FAILED: {res.message}", file=sys.stderr)
            code = 1
            continue
        print(res.text)
        for note in res.notes:
            print(f"- {note}")
    print()
    print(ctx.engine.stats.table())
    return code


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace.io import TraceReader

    try:
        with TraceReader(args.path) as reader:
            n_refs = 0
            if args.verify:
                for batch in reader:
                    n_refs += len(batch)
                checked = ("all checksums verified" if reader.version >= 2
                           else "all batches readable (v1: no checksums)")
                print(f"{args.path}: OK — v{reader.version}, "
                      f"{reader.n_batches} batches, {n_refs} references, "
                      f"{checked}")
            else:
                print(f"{args.path}: v{reader.version}, "
                      f"{reader.n_batches} batches")
    except TraceError as exc:
        where = (f" (batch {exc.batch_index})"
                 if exc.batch_index is not None else "")
        print(f"corrupt trace{where}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_trace_migrate(args: argparse.Namespace) -> int:
    import os

    from repro.trace.chunked import migrate_trace, tv4_path

    final = tv4_path(args.dst)
    if os.path.exists(final):
        raise ConfigurationError(
            f"destination {final} already exists (refusing to overwrite)")
    try:
        n_batches, total_refs = migrate_trace(args.src, args.dst)
    except TraceError as exc:
        where = (f" (batch {exc.batch_index})"
                 if exc.batch_index is not None else "")
        print(f"migrate failed{where}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.src} -> {final}: {n_batches} batches, "
          f"{total_refs} references migrated to v4")
    return 0


def cmd_crashcheck(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.crashcheck import PROTOCOLS, run_checker, write_corpus

    if args.list:
        width = max(len(n) for n in PROTOCOLS)
        for name in sorted(PROTOCOLS):
            print(f"{name:{width}s}  {PROTOCOLS[name].description}")
        return 0
    if args.protocol == "all":
        names = sorted(PROTOCOLS)
    elif args.protocol in PROTOCOLS:
        names = [args.protocol]
    else:
        raise ConfigurationError(
            f"unknown protocol {args.protocol!r} — one of "
            f"{', '.join(sorted(PROTOCOLS))}, or 'all'")

    reports = []
    dirty = False
    for name in names:
        with tempfile.TemporaryDirectory(prefix=f"crashcheck-{name}-") as td:
            report = run_checker(
                PROTOCOLS[name], td,
                per_point=args.per_point, max_states=args.max_states,
                block=args.block_size,
                progress=lambda msg: print(f"  {msg}", file=sys.stderr))
        reports.append(report)
        status = "CLEAN" if report.clean else (
            f"{len(report.violations)} VIOLATION"
            f"{'S' if len(report.violations) != 1 else ''}")
        extra = " (state budget hit)" if report.truncated else ""
        print(f"{report.protocol:9s} {status:14s} "
              f"{report.n_unique_states:5d} unique states, "
              f"{report.n_schedules} schedules over "
              f"{report.n_crash_points} crash points "
              f"[{report.elapsed_s:.1f}s]{extra}")
        for v in report.violations:
            dirty = True
            print(f"  - {v.message}")
            print(f"    reproducer: {json.dumps(v.schedule)}")
    if args.corpus:
        write_corpus(reports, args.corpus)
        print(f"reproducer corpus written to {args.corpus}")
    return 1 if dirty else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nvscavenger")
    sub = parser.add_subparsers(dest="command", required=True)
    p_an = sub.add_parser("analyze", help="NV-SCAVENGER analysis of a model app")
    _add_app_args(p_an)
    p_pw = sub.add_parser("power", help="normalized NVRAM power for a model app")
    _add_app_args(p_pw)
    p_pf = sub.add_parser("perf", help="latency-sensitivity sweep for a model app")
    _add_app_args(p_pf)
    p_tr = sub.add_parser("trace", help="inspect/verify/migrate trace files")
    tr_sub = p_tr.add_subparsers(dest="action", required=True)
    p_ts = tr_sub.add_parser("show", help="inspect/verify a trace container")
    p_ts.add_argument("path")
    p_ts.add_argument("--verify", action="store_true",
                      help="checksum every batch; exit 1 on corruption")
    p_tm = tr_sub.add_parser(
        "migrate", help="convert a v1/v2 archive or v3 container to v4")
    p_tm.add_argument("src", help="source trace (.npz archive or .tv3 dir)")
    p_tm.add_argument("dst", help="destination v4 container "
                                  "(.tv4 appended if missing)")
    p_en = sub.add_parser("engine",
                          help="pipeline-engine stats and artifact listing")
    en_sub = p_en.add_subparsers(dest="action", required=True)
    p_es = en_sub.add_parser("stats",
                             help="record+replay one spec; print stage table")
    _add_app_args(p_es)
    p_es.add_argument("--cache-dir", default=None,
                      help="persistent artifact-cache root (default: temp dir)")
    p_el = en_sub.add_parser("ls", help="list committed artifacts in a cache")
    p_el.add_argument("--cache-dir", required=True,
                      help="artifact-cache root to list")
    p_ef = en_sub.add_parser(
        "fsck", help="scrub every artifact's CRCs and commit markers")
    p_ef.add_argument("--cache-dir", required=True,
                      help="artifact-cache root to scrub")
    p_ef.add_argument("--repair", action="store_true",
                      help="quarantine corrupt artifacts, delete partials")
    p_eg = en_sub.add_parser(
        "gc", help="LRU-evict artifacts down to a size budget")
    p_eg.add_argument("--cache-dir", required=True,
                      help="artifact-cache root to collect")
    p_eg.add_argument("--max-bytes", required=True,
                      help="size budget (supports K/M/G suffixes)")
    p_sv = sub.add_parser(
        "serve", help="run the analysis daemon (JSON over HTTP)")
    p_sv.add_argument("--cache-dir", required=True,
                      help="artifact-cache root the daemon serves from")
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=8077,
                      help="listen port (0 = pick a free port)")
    p_sv.add_argument("--max-inflight", type=int, default=2,
                      help="concurrently-executing requests (admission)")
    p_sv.add_argument("--max-queue", type=int, default=16,
                      help="requests allowed to wait for a slot; beyond "
                           "this, shed load with 503 overloaded")
    p_sv.add_argument("--default-deadline", type=float, default=60.0,
                      help="seconds granted a request that sets no deadline_s")
    p_sv.add_argument("--max-deadline", type=float, default=600.0,
                      help="hard cap on any request's deadline_s")
    p_sv.add_argument("--grace", type=float, default=10.0,
                      help="drain window after SIGTERM/SIGINT, seconds")
    p_sv.add_argument("--breaker-threshold", type=int, default=3,
                      help="consecutive failures before a spec's breaker opens")
    p_sv.add_argument("--breaker-backoff", type=float, default=0.5,
                      help="base seconds before an open breaker half-opens")
    p_sv.add_argument("--cache-budget", default=None,
                      help="periodic gc budget (K/M/G suffixes; default: no gc)")
    p_sv.add_argument("--gc-interval", type=float, default=30.0,
                      help="seconds between periodic gc passes")
    p_sv.add_argument("--chaos", default=None,
                      help="inject a registered I/O fault scenario into "
                           "recording workers (soak testing)")
    p_sv.add_argument("--chaos-seed", type=int, default=0)
    p_sv.add_argument("--ready-file", default=None,
                      help="write 'host port' here once listening (for tests)")
    p_sv.add_argument("--seed", type=int, default=0,
                      help="jitter seed for breaker backoff")
    p_wk = sub.add_parser(
        "work", help="join a scheduled suite run as a worker agent")
    p_wk.add_argument("--cache-dir", required=True,
                      help="artifact-cache root shared with the coordinator")
    p_wk.add_argument("--run-id", required=True,
                      help="run whose queue to join "
                           "(<cache-dir>/runs/<run-id>/queue/)")
    p_wk.add_argument("--worker-id", default=None,
                      help="stable worker name (default: host-pid)")
    wk_mx = p_wk.add_mutually_exclusive_group()
    wk_mx.add_argument("--once", action="store_true",
                       help="run at most one task, then exit")
    wk_mx.add_argument("--max-tasks", type=int, default=None,
                       help="exit after this many tasks (default: run "
                            "until the coordinator writes STOP)")
    p_wk.add_argument("--poll", type=float, default=0.25,
                      help="seconds between queue scans while idle")
    p_wk.add_argument("--heartbeat", type=float, default=None,
                      help="lease heartbeat interval (default: TTL/4 "
                           "from the run manifest)")
    p_wk.add_argument("--chaos", default=None,
                      help="inject a registered I/O fault scenario into "
                           "this worker's cache writes (soak testing)")
    p_wk.add_argument("--chaos-seed", type=int, default=0)
    p_po = sub.add_parser(
        "policies", help="list placement policies / run the policy-zoo sweep")
    po_sub = p_po.add_subparsers(dest="action", required=True)
    po_sub.add_parser("ls", help="list registered policies and default params")
    p_ps = po_sub.add_parser(
        "sweep", help="run the policy x workload x device x budget grid")
    p_ps.add_argument("--refs", type=int, default=30_000)
    p_ps.add_argument("--scale", type=float, default=1.0 / 64.0)
    p_ps.add_argument("--iterations", type=int, default=10)
    p_ps.add_argument("--seed", type=int, default=0)
    p_ps.add_argument("--cache-dir", default=None,
                      help="persistent artifact-cache root (default: temp "
                           "dir; reuse for warm-cache sweeps)")
    p_ps.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the sweep's tasks "
                           "(default 1: run in this process; 0 = one per "
                           "CPU); `nvscavenger work` agents can join any "
                           "run")
    p_cc = sub.add_parser(
        "crashcheck",
        help="model-check a durable protocol's crash consistency")
    p_cc.add_argument("protocol", nargs="?", default="all",
                      help="protocol to check (artifact, fence, journal, "
                           "queue, tv4) or 'all'")
    p_cc.add_argument("--list", action="store_true",
                      help="list checkable protocols and exit")
    p_cc.add_argument("--per-point", type=int, default=6,
                      help="crash schedules explored per crash point")
    p_cc.add_argument("--max-states", type=int, default=4000,
                      help="budget: unique persisted states to recover")
    p_cc.add_argument("--block-size", type=int, default=512,
                      help="torn-write granularity in bytes")
    p_cc.add_argument("--corpus", default=None,
                      help="write the reproducer-schedule corpus (JSON) "
                           "to this path")
    p_ex = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_ex.add_argument("rest", nargs=argparse.REMAINDER)
    p_va = sub.add_parser("validate", help="run the reproduction gate")
    p_va.add_argument("rest", nargs=argparse.REMAINDER)

    if argv is None:
        argv = sys.argv[1:]
    # back-compat shim: `trace <path> [--verify]` predates the
    # show/migrate subcommands and must keep working — insert "show"
    # unless an action (or a help flag) is already spelled out
    if (len(argv) >= 2 and argv[0] == "trace"
            and argv[1] not in ("show", "migrate", "-h", "--help")):
        argv = [argv[0], "show", *argv[1:]]
    args = parser.parse_args(argv)
    try:
        if args.command in ("analyze", "power", "perf"):
            _check_app_args(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "power":
            return cmd_power(args)
        if args.command == "perf":
            return cmd_perf(args)
        if args.command == "engine":
            return cmd_engine(args)
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "work":
            return cmd_work(args)
        if args.command == "policies":
            return cmd_policies(args)
        if args.command == "trace":
            if args.action == "migrate":
                return cmd_trace_migrate(args)
            return cmd_trace(args)
        if args.command == "crashcheck":
            return cmd_crashcheck(args)
    except ConfigurationError as exc:
        print(f"nvscavenger: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        from repro.validation import main as validation_main

        return validation_main(args.rest)
    return experiments_main(args.rest)


if __name__ == "__main__":
    sys.exit(main())
