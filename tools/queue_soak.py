"""Work-queue soak: SIGKILL workers mid-record under ChaosFS flips.

The property under test is the queue's headline guarantee: a suite run
over the filesystem work queue produces results **bit-identical** to
each experiment called directly, no matter which workers die, when, or
how rudely — because

* record tasks never reseed (the spec *is* the cache key) and commit
  through the cache's atomic meta.json protocol, so a re-run after a
  SIGKILL reproduces the same artifact bit-for-bit;
* revocation bumps the fencing epoch *before* republishing, so a
  half-dead worker can never commit over its successor;
* experiment tasks fold results in deterministic graph order.

The soak:

1. calls each experiment of the subset directly against one context
   (no work queue, no journal) into a fresh cache — the baseline;
2. runs the same subset over the work queue with up to ``--workers``
   local worker processes, each recording through a ChaosFS that flips
   a bit in its first committed trace container (``io-queue-soak``) —
   so replay verification and self-healing re-record are exercised
   *concurrently* with the lease protocol;
3. a killer thread watches the lease directory and SIGKILLs workers
   that hold ``record:`` leases — mid-record, the worst possible
   moment — up to ``--kills`` times at seeded-random intervals
   (experiment leases are left alone on purpose: a killed experiment
   retries with a deterministic *reseed*, which is the documented
   retry policy, not a reproducibility bug);
4. asserts every experiment completed and its text/rows/notes match
   the baseline byte-for-byte.

Exit 0 on success, 1 with a diagnostic on any violated expectation.
Used by ``make queue-soak`` and the CI ``queue`` job.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.experiments.common import ExperimentContext  # noqa: E402
from repro.experiments.runner import EXPERIMENTS  # noqa: E402
from repro.sched.graph import EXPERIMENT_PREFIX  # noqa: E402
from repro.sched.journal import RunJournal  # noqa: E402
from repro.sched.queue import QueueCoordinator, WorkQueue  # noqa: E402
from repro.sched.suite import build_suite_graph  # noqa: E402
from repro.sched.workers import WorkerConfig  # noqa: E402

FAST = dict(refs_per_iteration=3_000, scale=1.0 / 256.0, n_iterations=3)
SUBSET = ("table1", "fig2", "fig7", "capacity")


def fail(msg: str) -> "None":
    print(f"queue-soak: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


class RecordKiller(threading.Thread):
    """SIGKILL workers caught holding ``record:`` leases."""

    def __init__(self, queue: WorkQueue, max_kills: int, seed: int,
                 own_pid: int) -> None:
        super().__init__(daemon=True)
        self.queue = queue
        self.max_kills = max_kills
        self.rng = random.Random(seed)
        self.own_pid = own_pid
        self.kills: list[tuple[str, int]] = []
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        while not self._halt.is_set() and len(self.kills) < self.max_kills:
            time.sleep(0.05)
            try:
                names = os.listdir(self.queue.leases_dir)
            except OSError:
                continue
            for name in names:
                if len(self.kills) >= self.max_kills:
                    return
                try:
                    with open(os.path.join(self.queue.leases_dir,
                                           name)) as fh:
                        lease = json.load(fh)
                except (OSError, ValueError):
                    continue
                tid = lease.get("task_id", "")
                pid = lease.get("pid")
                if (not tid.startswith("record:") or not pid
                        or pid == self.own_pid):
                    continue
                if self.rng.random() < 0.5:
                    continue  # let some records finish untouched
                try:
                    os.kill(int(pid), signal.SIGKILL)
                except (ProcessLookupError, PermissionError, OSError):
                    continue
                self.kills.append((tid, int(pid)))
                print(f"queue-soak: SIGKILL pid {pid} mid-{tid}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=3,
                    help="local queue workers (default 3)")
    ap.add_argument("--kills", type=int, default=4,
                    help="SIGKILLs to deliver mid-record (default 4)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lease-ttl", type=float, default=2.0,
                    help="lease TTL seconds (small: fast revocation)")
    ap.add_argument("--chaos", default="io-queue-soak",
                    help="ChaosFS scenario installed in every worker")
    ap.add_argument("--keep", action="store_true",
                    help="keep the scratch directory for forensics")
    args = ap.parse_args(argv)

    if args.workers < 3:
        fail(f"--workers must be >= 3 for a meaningful soak, "
             f"got {args.workers}")

    scratch = tempfile.mkdtemp(prefix="queue-soak-")
    print(f"queue-soak: scratch {scratch}")
    exps = {k: EXPERIMENTS[k] for k in SUBSET}

    # -- 1. direct baseline --------------------------------------------
    t0 = time.monotonic()
    base_ctx = ExperimentContext(cache_dir=os.path.join(scratch, "base"),
                                 seed=args.seed, **FAST)
    baseline = [fn(base_ctx) for fn in exps.values()]
    print(f"queue-soak: baseline in {time.monotonic() - t0:.1f}s")

    # -- 2+3. queue run with chaos + killer ----------------------------
    cache_root = os.path.join(scratch, "queue")
    ctx = ExperimentContext(cache_dir=cache_root, seed=args.seed, **FAST)
    graph = build_suite_graph(ctx, exps)
    cfg = WorkerConfig(
        cache_root=ctx.engine.cache.root,
        refs_per_iteration=ctx.refs_per_iteration,
        scale=ctx.scale,
        n_iterations=ctx.n_iterations,
        seed=ctx.seed,
        apps=ctx.apps,
        chaos_scenario=args.chaos,
        chaos_seed=args.seed,
    )
    run_id = "soak"
    jnl = RunJournal.open(ctx.engine.cache.root, run_id)
    jnl.append("run_started", run_id=run_id, fingerprint=graph.fingerprint(),
               jobs=args.workers, seed=args.seed)
    coord = QueueCoordinator(
        graph, cfg,
        cache_root=ctx.engine.cache.root,
        run_id=run_id,
        jobs=args.workers,
        # kills can land on the same task repeatedly; the soak must
        # never fail a task on retry exhaustion
        max_task_retries=max(8, 2 * args.kills),
        lease_ttl_s=args.lease_ttl,
        journal=jnl,
        handle_signals=False,
    )
    killer = RecordKiller(coord.queue, args.kills, args.seed, os.getpid())
    killer.start()
    t0 = time.monotonic()
    outcome = coord.run()
    killer.stop()
    killer.join(timeout=2.0)
    jnl.run_finished(n_failed=len(outcome.failures),
                     n_skipped=len(outcome.skipped))
    jnl.close()
    print(f"queue-soak: queue jobs={args.workers} in "
          f"{time.monotonic() - t0:.1f}s — {outcome.report.summary()}")
    print(f"queue-soak: delivered {len(killer.kills)} SIGKILL(s)")

    # -- 4. verify ------------------------------------------------------
    if outcome.failures:
        fail(f"tasks failed permanently: {sorted(outcome.failures)}")
    if outcome.skipped:
        fail(f"tasks skipped: {sorted(outcome.skipped)}")
    for exp_id, want in zip(exps, baseline):
        payload = outcome.payloads.get(EXPERIMENT_PREFIX + exp_id)
        if payload is None:
            fail(f"experiment {exp_id} produced no payload")
        got = payload["result"]
        for field in ("text", "rows"):
            if getattr(got, field) != getattr(want, field):
                fail(f"{exp_id}.{field} diverged from the baseline")
        # "resilience: …" notes annotate self-healed corruption (the
        # ChaosFS flips we injected on purpose); the *data* above is
        # what must be bit-identical
        notes = [n for n in got.notes if not n.startswith("resilience:")]
        if notes != want.notes:
            fail(f"{exp_id}.notes diverged from the baseline: "
                 f"{notes!r} != {want.notes!r}")
    print("queue-soak: OK — results bit-identical to the baseline under "
          f"{len(killer.kills)} mid-record SIGKILL(s) + ChaosFS flips")
    if not args.keep:
        import shutil

        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
