"""CLI: ``python -m repro.experiments <id>|all [--write]
[--jobs N] [--run-id ID | --resume ID]``.

Exit codes: 0 success, 2 usage/configuration errors (including a
``--resume`` whose journal is missing or belongs to a different suite),
``128 + signum`` when the suite is interrupted — 130 for SIGINT/Ctrl-C,
143 for SIGTERM — after the scheduler's graceful drain has journaled
every in-flight result it could (at ``--jobs 1`` the running task is
abandoned at once)."""

from __future__ import annotations

import argparse
import sys

from repro.engine.engine import CACHE_ENV, is_temporary_root
from repro.errors import ConfigurationError, JournalError, SuiteInterrupted
from repro.experiments.common import ExperimentContext
from repro.experiments.runner import (
    EXPERIMENTS,
    experiments_markdown,
    run_all,
    run_experiment,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help=f"experiment id: {', '.join(EXPERIMENTS)} or 'all'",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="with 'all': also write EXPERIMENTS.md in the current directory",
    )
    parser.add_argument("--refs", type=int, default=30_000,
                        help="references per main-loop iteration (default 30000)")
    parser.add_argument("--scale", type=float, default=1.0 / 64.0,
                        help="footprint scale vs the paper's (default 1/64)")
    parser.add_argument("--iterations", type=int, default=10,
                        help="main-loop iterations (default 10, as in the paper)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent artifact-cache root (default: fresh temp dir, or "
             "$NVSCAVENGER_CACHE); recorded traces there are reused across "
             "invocations",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="with 'all': worker processes for the suite (default 1: "
             "the coordinator runs every task itself, with no crash "
             "isolation or task timeout; 0 = auto: one per CPU, clamped "
             "to the task graph's useful parallelism). Above 1 each task "
             "runs in a fresh worker process. Tasks are published to a "
             "work queue under <cache-dir>/runs/<run-id>/queue/ that "
             "hosts sharing the cache can join via `nvscavenger work "
             "--run-id`. Tasks share the artifact cache, so each distinct "
             "run spec is executed exactly once and results are the same "
             "for any --jobs",
    )
    parser.add_argument(
        "--run-id", default=None, metavar="ID",
        help="with 'all': name this run's write-ahead journal under "
             "<cache-dir>/runs/<ID>/ (default: a fresh timestamped id)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="ID",
        help="with 'all': resume an interrupted run from its journal — "
             "already-finished tasks are not re-executed; refuses if the "
             "suite no longer matches the journal's graph fingerprint",
    )
    parser.add_argument(
        "--grace", type=float, default=10.0, metavar="S",
        help="seconds to let in-flight workers drain after SIGINT/SIGTERM "
             "before they are terminated (default 10; at --jobs 1 the "
             "running task is abandoned at once); the suite exits "
             "128+signum either way and can be resumed with --resume",
    )
    args = parser.parse_args(argv)

    try:
        from repro.sched.suite import resolve_jobs

        # validate (and estimate, for the progress printer below) here;
        # the *effective* worker count for --jobs 0 is decided inside
        # run_suite_parallel, where the task graph's width is known
        jobs_estimate = resolve_jobs(args.jobs)
        if args.resume is not None and args.run_id is not None:
            raise ConfigurationError(
                "--resume and --run-id are mutually exclusive")
        if args.grace < 0:
            raise ConfigurationError(
                f"--grace must be >= 0 seconds, got {args.grace}")
        ctx = ExperimentContext(
            refs_per_iteration=args.refs,
            scale=args.scale,
            n_iterations=args.iterations,
            seed=args.seed,
            cache_dir=args.cache_dir,
        )
        if ((args.resume is not None or args.run_id is not None)
                and is_temporary_root(ctx.engine.cache.root)):
            raise ConfigurationError(
                "--resume/--run-id need a persistent cache: pass "
                f"--cache-dir or set ${CACHE_ENV} (the default temp-dir "
                "cache vanishes with the process, and the journal lives "
                "under it)")
        if args.experiment == "all":
            on_event = None
            if jobs_estimate > 1:
                def on_event(ev):  # live progress on stderr, results on stdout
                    print(f"sched: {ev}", file=sys.stderr)
            results = run_all(ctx, jobs=args.jobs, on_sched_event=on_event,
                              run_id=args.run_id, resume=args.resume,
                              drain_grace_s=args.grace)
            for res in results:
                print(res)
                print()
            print(ctx.engine.stats.table())
            if args.write:
                with open("EXPERIMENTS.md", "w") as fh:
                    fh.write(experiments_markdown(results, ctx))
                print("wrote EXPERIMENTS.md")
        else:
            print(run_experiment(args.experiment, ctx))
    except SuiteInterrupted as exc:
        print(f"nvscavenger: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        # a Ctrl-C outside the suite's own handling (argument parsing,
        # context construction) still exits with the signal convention
        print("nvscavenger: interrupted", file=sys.stderr)
        return 130
    except JournalError as exc:
        print(f"nvscavenger: error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"nvscavenger: error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
