#!/usr/bin/env python3
"""The repository benchmark: one workload, measured for a fixed time.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0

Workloads: ``suite``, ``suite_jobs2``, ``sweep_warm``, ``serve_mixed``
(see ``workloads.py`` and README.md). The run repeats the workload —
each repetition in a forked child with its own set-up, killed with its
whole process group if it outlives its limit — until ``--seconds`` are
used, then prints its provenance, a readable summary and, as the last
line, one JSON object::

    {"correct": true, "attempted": 80, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones. Every operation's
output is checked (``checks.py``); a wrong output, an error or an
operation left unfinished by the hang guard counts as failed.

The end-to-end times are normalized for how fast the CPUs ran while
they were measured: a sampler per CPU times a fixed kernel every 50 ms
(``speed.py``), and each interval's raw time is scaled by the mean
speed sampled during it on the CPUs the interval used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

T_START = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: a run must end within this many seconds, whatever --seconds says
RUN_LIMIT_S = 170.0
#: fresh interpreters whose start-up and imports a run times; setup_s
#: takes their median
IMPORT_SAMPLES = 3
#: tail percentiles are chosen from this ladder (see tail_percentile)
_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_LAYER_UNITS = {
    "apps.run_s": "s", "apps.refs": "count",
    "trace.append_s": "s", "trace.chunks_written": "count",
    "trace.stored_bytes_per_ref": "B/ref", "trace.fsync_calls": "count",
    "trace.fsync_s": "s", "trace.read_batch_s": "s",
    "trace.verify_stored_s": "s",
    "engine.record_s": "s", "engine.commit_s": "s", "engine.replay_s": "s",
    "engine.app_runs": "count", "engine.cache_hits": "count",
    "engine.chunks_verified": "count", "engine.chunks_decoded": "count",
    "engine.decode_memo_hit_ratio": "ratio",
    "scavenger.stackfast_s": "s", "scavenger.stackslow_s": "s",
    "scavenger.heap_s": "s", "scavenger.globals_s": "s",
    "scavenger.result_s": "s",
    "cachesim.process_batch_s": "s", "cachesim.refs_in": "count",
    "cachesim.refs_out": "count",
    "powersim.simulate_s": "s", "powersim.controller_s": "s",
    "powersim.refs": "count",
    "perfsim.simulate_s": "s",
    "hybrid.pool_of_batch_s": "s", "hybrid.pool_of_batch_calls": "count",
    "hybrid.dramcache_s": "s",
    "policies.evaluate_s": "s", "policies.cells": "count",
    "policies.cell_p50_ms": "ms",
    "resilience.checkpoint_run_s": "s", "resilience.checkpoint_runs": "count",
    "experiments.prefetch_s": "s",
    "sched.tasks": "count", "sched.task_busy_s": "s",
    "sched.busy_share": "ratio", "sched.start_lag_p50_ms": "ms",
    "sched.retries": "count",
    "service.server_warm_p50_ms": "ms", "service.server_cold_p50_ms": "ms",
    "service.client_overhead_p50_ms": "ms", "service.cache_hits": "count",
    "service.records": "count", "service.coalesced": "count",
    "service.errors": "count",
    "serve.warm_p50_ms": "ms", "serve.warm_tail_ms": "ms",
    "serve.cold_p50_ms": "ms", "serve.cold_tail_ms": "ms",
    "serve.requests_per_s": "1/s",
    "bench.span_coverage": "ratio", "bench.trace_overhead_share": "ratio",
    "bench.wall_raw_s": "s", "bench.cpu_speed": "ratio",
}
#: a traced run fails when its named spans cover less than this share
#: of the wall clock (median over its traced repetitions)
MIN_SPAN_COVERAGE = 0.9


def layer_units(exp_ids) -> dict[str, str]:
    units = dict(_LAYER_UNITS)
    for exp_id in exp_ids:
        units[f"experiments.{exp_id}_s"] = "s"
    return units


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of *n* samples
    beyond it (nearest-rank)."""
    best = _PERCENTILES[0]
    for p in _PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- one repetition ---------------------------------------------------------

class RepOutcome:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.setup_s: float | None = None
        self.summary: dict | None = None
        #: normalized set-up and timed region (see ``speed.py``), and
        #: the mean CPU speed sampled during the timed region
        self.setup_norm_s = 0.0
        self.wall_norm_s = 0.0
        self.speed = 0.0
        self.n_ops = 0
        self.ok_ops = 0
        self.bad_output = False
        self.problems: list[str] = []


def _stop_group(pid: int, reaped: bool) -> None:
    """SIGKILL what is left of a repetition's process group (the child
    leads it), reap the child, and wait until the group is gone."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if not reaped:
        os.waitpid(pid, 0)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.02)


def run_rep(wl, *, seed: int, fidelity: str, traced: bool, work_dir: str,
            limit_s: float, cpus) -> tuple[list[dict], bool, float]:
    """Run one repetition in a forked child bound to *cpus*; returns its
    messages, whether the hang guard fired, and when it was forked."""
    from workloads import Rep

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    forked_at = time.monotonic()
    pid = os.fork()
    if pid == 0:  # the repetition
        code = 1
        try:
            os.setpgid(0, 0)
            os.sched_setaffinity(0, cpus)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(read_fd)
            rep = Rep(write_fd, seed=seed, fidelity=fidelity, traced=traced,
                      work_dir=work_dir, forked_at=forked_at)
            wl.body(rep)
            code = 0
        except BaseException:  # noqa: BLE001 — reported, then a clean exit
            traceback.print_exc()
            try:
                rep.send("error", message=traceback.format_exc(limit=3))
            except Exception:  # noqa: BLE001 — the pipe may be gone
                pass
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child got there first, or already exited
    messages: list[dict] = []
    pending = b""
    timed_out = False
    exited = False
    deadline = forked_at + limit_s
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([read_fd], [], [],
                                        0.0 if exited else min(left, 0.25))
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                pending += chunk
                *lines, pending = pending.split(b"\n")
                messages.extend(json.loads(line) for line in lines if line)
                continue
            if exited:
                break  # exited and drained; stray holders of the pipe
            exited = os.waitpid(pid, os.WNOHANG)[0] == pid
    finally:
        os.close(read_fd)
        _stop_group(pid, reaped=exited)
    return messages, timed_out, forked_at


def _collect(wl, messages, timed_out, checker, traced) -> RepOutcome:
    out = RepOutcome(traced)
    for msg in messages:
        kind = msg["t"]
        if kind == "setup_done":
            out.setup_s = msg["setup_s"]
        elif kind == "op":
            good = bool(msg["ok"]) and msg["digest"] is not None
            if good and not checker.check(msg["id"], msg["digest"]):
                good = False
                out.problems.append(f"output of {msg['id']} differs from "
                                    f"the reference ({checker.source})")
            out.n_ops += 1
            out.ok_ops += good
        elif kind == "primed":
            if not (msg["ok"] and checker.check(msg["id"], msg["digest"])):
                out.problems.append(f"priming {msg['id']} failed or "
                                    f"answered a wrong digest")
        elif kind == "digest":
            if not checker.check(msg["id"], msg["digest"]):
                out.bad_output = True
                out.problems.append(f"{msg['id']} differs from the "
                                    f"reference ({checker.source})")
        elif kind == "check":
            if not msg["ok"]:
                out.problems.append(f"check failed: {msg['name']}: "
                                    f"{msg['detail']}")
        elif kind == "error":
            out.problems.append(f"repetition failed: {msg['message']}")
        elif kind == "rep":
            out.summary = msg
    if timed_out:
        out.problems.append(
            f"hang guard: repetition killed after {wl.rep_limit_s:.0f}s "
            f"with {out.n_ops}/{wl.ops_per_rep} {wl.op_name} finished")
    elif out.summary is None and not any("repetition failed" in p
                                         for p in out.problems):
        out.problems.append("repetition ended without a summary")
    if out.bad_output:
        out.ok_ops = 0
    out.ok_ops = min(out.ok_ops, wl.ops_per_rep)
    return out


# -- aggregation ------------------------------------------------------------

def import_seconds(samplers, cpu: int) -> float:
    """Median normalized time from spawning a fresh interpreter, on
    *cpu*, to the end of the imports a repetition needs (the first part
    of every set-up)."""
    code = ("import sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import workloads; workloads.import_all(); print(time.monotonic())")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code, HERE, SRC],
                              capture_output=True, text=True, check=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        t1 = float(done.stdout.split()[-1])
        samples.append((t1 - t0) * samplers.speed(t0, t1, [cpu]))
    return statistics.median(samples)


def end_to_end(reps: list[RepOutcome], import_s: float) -> dict:
    done = [r for r in reps if r.summary is not None]
    return {
        "wall_s": median(r.wall_norm_s for r in done),
        "setup_s": import_s + median(r.setup_norm_s for r in done),
        "peak_rss_mb": max((r.summary["rss_mb"] for r in done), default=0.0),
    }


def serve_client(wl, untraced: list[RepOutcome]) -> tuple[dict, list[str]]:
    """Client-side request latencies of the untraced daemon sessions,
    and readable lines naming each tail's percentile and sample count.
    The tail percentile is fixed by the samples a run has at least
    (``MIN_REPS`` sessions), so it is the same in every run."""
    samples = [s for r in untraced if r.summary is not None
               for s in r.summary["extras"].get("serve", {}).get("samples", [])]
    if not samples:
        return {}, []
    from workloads import MIN_REPS

    n_cold = MIN_REPS * (wl.ops_per_rep // 10)
    out, lines = {}, []
    for kind, design_n in (("warm", MIN_REPS * wl.ops_per_rep - n_cold),
                           ("cold", n_cold)):
        lat = [s[1] * 1000.0 for s in samples if s[0] == kind and s[2] is not None]
        tail = tail_percentile(design_n)
        out[f"serve.{kind}_p50_ms"] = median(lat)
        out[f"serve.{kind}_tail_ms"] = percentile(lat, tail)
        lines.append(f"{kind} requests: p50 {median(lat):.2f} ms, "
                     f"p{tail:g} {percentile(lat, tail):.2f} ms over "
                     f"{len(lat)} requests")
    out["serve.requests_per_s"] = median(
        wl.ops_per_rep / r.summary["wall_s"] for r in untraced
        if r.summary is not None)
    return out, lines


def _service_layers(summary: dict) -> dict:
    serve = summary["extras"].get("serve")
    if not serve:
        return {}
    ok = [s for s in serve["samples"] if s[2] is not None]
    return {
        "service.server_warm_p50_ms": median(s[2] * 1000.0 for s in ok if s[3]),
        "service.server_cold_p50_ms": median(
            s[2] * 1000.0 for s in ok if not s[3]),
        "service.client_overhead_p50_ms": median(
            (s[1] - s[2]) * 1000.0 for s in ok),
        "service.cache_hits": serve["stats"]["cache_hits"],
        "service.records": serve["stats"]["records"],
        "service.coalesced": serve["stats"]["coalesced"],
        "service.errors": serve["errors"],
    }


def per_layer(wl, reps: list[RepOutcome], units: dict) -> dict:
    traced = [r for r in reps if r.traced and r.summary is not None]
    untraced = [r for r in reps if not r.traced and r.summary is not None]
    rows = []
    for r in traced:
        row = dict(r.summary["layers"] or {})
        row.update(r.summary["extras"].get("sched", {}))
        row.update(_service_layers(r.summary))
        rows.append(row)
    out = {name: median(row.get(name, 0) for row in rows) for name in units}
    out.update(serve_client(wl, untraced)[0])
    base = median(r.wall_norm_s for r in untraced)
    out["bench.trace_overhead_share"] = (
        median(r.wall_norm_s for r in traced) / base - 1.0
        if base and traced else 0.0)
    out["bench.wall_raw_s"] = median(r.summary["wall_s"] for r in untraced)
    out["bench.cpu_speed"] = median(r.speed for r in untraced)
    return out


def provenance(args, fidelity_knobs: dict) -> dict:
    import hashlib

    import numpy
    from repro.engine.engine import DECODE_CACHE_BYTES, RECORD_BUFFER_CAPACITY

    src_hash = hashlib.sha256()
    for dirpath, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src_hash.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    src_hash.update(fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fidelity": args.fidelity,
        **fidelity_knobs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "record_buffer_capacity": RECORD_BUFFER_CAPACITY,
        "fsync_policy": _fsync_policy(),
        "decode_memo_bytes": DECODE_CACHE_BYTES,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent
    directory's repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def _fsync_policy() -> str:
    """Which trace-writer steps fsync, read off the writer itself."""
    import inspect

    from repro.trace.chunked import ChunkedTraceWriter

    steps = [name for name in ("append", "close")
             if "fsync" in inspect.getsource(getattr(ChunkedTraceWriter, name))]
    return "+".join(f"{s}" for s in steps) or "none"


# -- main -------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fidelity", choices=("baseline", "tiny"),
                        default="baseline",
                        help="tiny: the self-test's fast settings")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    # every temporary file of the run, the daemon's included, stays in
    # the checkout
    work_root = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work_root)
    os.environ["TMPDIR"] = work_root
    # SIGTERM unwinds like an exception, so the running repetition's
    # process group is stopped and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        return measure(args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another run is using it


def measure(args, work_root: str) -> int:
    sys.path.insert(0, SRC)
    import speed
    import workloads

    workloads.import_all()
    table = workloads.workloads(args.fidelity)
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"know {sorted(table)}", file=sys.stderr)
        return 2
    wl = table[args.workload]
    with speed.Samplers(os.sched_getaffinity(0), work_root) as samplers:
        return measure_with(args, work_root, wl, samplers)


def measure_with(args, work_root: str, wl, samplers) -> int:
    import checks
    import workloads

    # a one-process workload runs on one CPU and is normalized by it
    cpus = samplers.cpus[:1] if wl.solo else samplers.cpus
    import_s = import_seconds(samplers, samplers.cpus[0])
    from repro.experiments.runner import EXPERIMENTS

    units = layer_units(EXPERIMENTS)
    checker = checks.Checker(ROOT, wl.group, args.fidelity, args.seed)
    reps: list[RepOutcome] = []
    loop_start = time.monotonic()
    durations: list[float] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        n_untraced = sum(not r.traced for r in reps)
        n_traced = len(reps) - n_untraced
        enough = n_untraced >= workloads.MIN_REPS and (
            not args.trace or n_traced >= workloads.MIN_REPS)
        used = time.monotonic() - loop_start
        if enough and used + median(durations) > args.seconds:
            break
        left = T_START + RUN_LIMIT_S - time.monotonic()
        if reps and left < min(wl.rep_limit_s, 2 * median(durations)):
            break
        work_dir = os.path.join(work_root, f"rep{len(reps)}")
        t0 = time.monotonic()
        messages, timed_out, forked_at = run_rep(
            wl, seed=args.seed, fidelity=args.fidelity, traced=traced,
            work_dir=work_dir, limit_s=min(wl.rep_limit_s, left), cpus=cpus)
        durations.append(time.monotonic() - t0)
        rep = _collect(wl, messages, timed_out, checker, traced)
        if rep.summary is not None:
            s = rep.summary
            rep.setup_norm_s = rep.setup_s * samplers.speed(forked_at, s["t0"], cpus)
            rep.speed = samplers.speed(s["t0"], s["t1"], cpus)
            rep.wall_norm_s = s["wall_s"] * rep.speed
        reps.append(rep)
        shutil.rmtree(work_dir, ignore_errors=True)
    checker.save()

    attempted = wl.ops_per_rep * len(reps)
    failed = attempted - sum(r.ok_ops for r in reps)
    problems = [p for r in reps for p in r.problems]
    untraced = [r for r in reps if not r.traced]
    e2e = end_to_end(untraced, import_s)
    if args.trace:
        values = per_layer(wl, reps, units)
        coverage = values["bench.span_coverage"]
        if coverage < MIN_SPAN_COVERAGE:
            problems.append(f"named spans cover {coverage:.3f} of the "
                            f"wall clock (< {MIN_SPAN_COVERAGE})")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    correct = failed == 0 and not problems

    knobs = workloads.FIDELITY[args.fidelity][wl.group]
    print("# provenance " + json.dumps(provenance(args, knobs)))
    print(f"# {wl.name}: {len(reps)} repetition(s) "
          f"({sum(r.traced for r in reps)} traced), {attempted} "
          f"{wl.op_name} attempted, {failed} failed (failed_share "
          f"{failed / attempted if attempted else 0.0:.4f}); outputs checked "
          f"against {checker.source}")
    for line in serve_client(wl, untraced)[1]:
        print(f"# {line}")
    print(f"# imports: {import_s:.3f} s normalized; repetitions on CPU(s) "
          f"{','.join(map(str, cpus))}")
    for i, r in enumerate(reps):
        if r.summary is not None:
            print(f"# repetition {i}{' (traced)' if r.traced else ''}: "
                  f"set-up {r.setup_s:.3f} s, timed {r.summary['wall_s']:.3f} s"
                  f", CPU speed {r.speed:.3f}, normalized "
                  f"{r.wall_norm_s:.3f} s")
    for problem in problems[:20]:
        print(f"# PROBLEM: {problem}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
