"""A/B comparison of two source trees on the repository benchmark.

Usage (from the root of a checkout; ``make bench-ab`` wraps it)::

    python tools/bench_ab.py --base <rev> [--change <rev>] \\
        --workloads suite,suite_jobs2 --pairs 10 [--seed 0]

Each side is extracted into ``.bench_ab/`` with ``git archive``
(``--change`` defaults to the working tree: tracked and untracked files
that are not ignored). For every workload the tool runs
``perfbench/run.py --trace 0`` in strictly alternating pairs — base
first on even pairs, change first on odd ones — and then one
``--trace 1`` run per side, each for ``BENCHMARK.json``'s
``run_seconds``. It measures nothing itself: every number comes from
the last JSON line of a perfbench run. The two trees share one
``.perfbench_state/``, so at a seed without committed digests the
change's outputs are checked against the digests the base learned in
the first run.

The report gives, per end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles over its untraced runs, the pairs the change
won out of all pairs run, its median change and a verdict: ``OVER
BOUND`` when the median is worse by more than the bound, ``unresolved``
when either side's interquartile range is wider than the bound (relative
to its median) unless every change run beats every base run, else
``ok``. A ``gain`` tag needs at least 10 pairs, wins in at least 9 in 10
of them, and a median better by more than the base's interquartile
range. Then come every run's ``correct``/``failed`` and the per-layer
metrics of the two traced runs side by side. Exit status 1 if any run
failed or any verdict is not ``ok``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(REPO, ".bench_ab")
#: how long one perfbench run may take before it counts as failed (the
#: harness stops itself at 170 s)
RUN_TIMEOUT_S = 600


def extract(rev: str | None, dest: str) -> None:
    """Write *rev*'s tree (the working tree when None) into *dest*."""
    os.makedirs(dest)
    if rev is not None:
        archive = subprocess.run(["git", "archive", rev], cwd=REPO,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
        return
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, check=True, capture_output=True).stdout
    for rel in sorted({p for p in listed.decode().split("\0") if p}):
        src = os.path.join(REPO, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def share_digests(base: str, change: str) -> None:
    """Point *change*'s perfbench digest store at *base*'s, so digests
    the base learns are the ones the change is checked against."""
    state = os.path.join(base, ".perfbench_state")
    os.makedirs(state)
    os.symlink(state, os.path.join(change, ".perfbench_state"))


def perfbench(tree: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One perfbench run in *tree*: its final JSON object, or a failed
    stand-in carrying the error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return failed_run(str(exc))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return failed_run((proc.stderr.strip().splitlines() or ["no output"])[-1])


def failed_run(error: str) -> dict:
    return {"correct": False, "failed": -1, "metrics": {}, "error": error}


def value(run: dict, metric: str) -> float | None:
    entry = run.get("metrics", {}).get(metric)
    return None if entry is None else float(entry["value"])


def passed(run: dict) -> bool:
    return bool(run.get("correct")) and run.get("failed") == 0


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def compare(pairs: list[tuple[dict, dict]], spec: dict) -> dict:
    """Medians, quartiles, wins and verdicts of one end-to-end metric."""
    name, lower = spec["name"], spec["better"] == "lower"
    paired = [(value(b, name), value(c, name)) for b, c in pairs]
    base = [b for b, _ in paired if b is not None]
    change = [c for _, c in paired if c is not None]
    if not base or not change:
        return {"metric": name, "pairs": len(pairs), "verdict": "no values"}

    def better(c: float, b: float) -> bool:
        return c < b if lower else c > b

    bm, cm = statistics.median(base), statistics.median(change)
    bq, cq = quartiles(base), quartiles(change)
    wins = sum(b is not None and c is not None and better(c, b)
               for b, c in paired)
    rel = (cm - bm) / bm if bm else 0.0
    worse = rel if lower else -rel
    spread = max((bq[1] - bq[0]) / bm if bm else 0.0,
                 (cq[1] - cq[0]) / cm if cm else 0.0)
    if worse > spec["bound"]:
        verdict = "OVER BOUND"
    elif spread > spec["bound"] and not all(better(c, b) for c in change
                                            for b in base):
        verdict = "unresolved"
    else:
        verdict = "ok"
    gain = (bm - cm) if lower else (cm - bm)
    return {
        "metric": name, "pairs": len(pairs), "base_median": bm,
        "base_q1": bq[0], "base_q3": bq[1], "change_median": cm,
        "change_q1": cq[0], "change_q3": cq[1], "rel": rel, "wins": wins,
        "bound": spec["bound"], "verdict": verdict,
        "gain": (len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
                 and gain > bq[1] - bq[0]),
    }


def report(workload: str, pairs, traced, benchmark: dict, seed: int) -> bool:
    """Print one workload's comparison; True when every run passed and
    every verdict is ``ok``."""
    ok = True
    print(f"\n== {workload} (seed {seed}, {len(pairs)} pairs)")
    print(f"{'metric':<14}{'base median [q1, q3]':>28}"
          f"{'change median [q1, q3]':>28}{'delta':>9}{'won':>8}"
          f"{'bound':>7}  verdict")
    for spec in benchmark["end_to_end"]:
        row = compare(pairs, spec)
        if row["verdict"] == "no values":
            print(f"{spec['name']:<14}  (no values)")
            continue
        ok &= row["verdict"] == "ok"
        base = (f"{row['base_median']:.3f} [{row['base_q1']:.3f}, "
                f"{row['base_q3']:.3f}]")
        change = (f"{row['change_median']:.3f} [{row['change_q1']:.3f}, "
                  f"{row['change_q3']:.3f}]")
        print(f"{row['metric']:<14}{base:>28}{change:>28}"
              f"{row['rel']:>+9.1%}{row['wins']:>4}/{row['pairs']:<3}"
              f"{row['bound']:>7.0%}  {row['verdict']}"
              f"{'  gain' if row['gain'] else ''}")
    print("runs (correct/failed):")
    for i, (b, c) in enumerate(pairs):
        ok &= passed(b) and passed(c)
        print(f"  pair {i}: base {b.get('correct')}/{b.get('failed')}  "
              f"change {c.get('correct')}/{c.get('failed')}"
              + "".join(f"  [{side} error: {run['error']}]"
                        for side, run in (("base", b), ("change", c))
                        if "error" in run))
    tb, tc = traced
    ok &= passed(tb) and passed(tc)
    print(f"traced: base {tb.get('correct')}/{tb.get('failed')}  "
          f"change {tc.get('correct')}/{tc.get('failed')}")
    print(f"{'per-layer metric':<34}{'base':>14}{'change':>14}{'ratio':>9}")
    names = [m["name"] for m in benchmark["per_layer"]]
    names += sorted((set(tb.get("metrics", {})) | set(tc.get("metrics", {})))
                    - set(names) - {m["name"] for m in benchmark["end_to_end"]})
    for name in names:
        b, c = value(tb, name), value(tc, name)
        if not b and not c:
            continue
        ratio = f"{c / b:>9.2f}" if b and c is not None else f"{'-':>9}"
        print(f"{name:<34}{_num(b):>14}{_num(c):>14}{ratio}")
    return ok


def _num(x: float | None) -> str:
    if x is None:
        return "-"
    return f"{x:.0f}" if x.is_integer() and abs(x) >= 100 else f"{x:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--change", default=None,
                        help="git revision (default: the working tree)")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated perfbench workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = [w for w in args.workloads.split(",") if w]
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]

    if os.path.exists(WORKDIR):
        parser.error(f"{WORKDIR} exists (left by an earlier run?); remove it")
    trees = {"base": os.path.join(WORKDIR, "base"),
             "change": os.path.join(WORKDIR, "change")}
    ok = True
    try:
        extract(args.base, trees["base"])
        extract(args.change, trees["change"])
        share_digests(trees["base"], trees["change"])
        print(f"base {args.base}  change {args.change or '(working tree)'}  "
              f"--seconds {seconds:g}", flush=True)
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                got = {}
                for side in order:
                    got[side] = perfbench(trees[side], workload, args.seed,
                                          seconds, 0)
                    print(f"  {workload} pair {i} {side}: wall_s "
                          f"{value(got[side], 'wall_s')}", flush=True)
                pairs.append((got["base"], got["change"]))
            traced = tuple(perfbench(trees[side], workload, args.seed,
                                     seconds, 1)
                           for side in ("base", "change"))
            ok &= report(workload, pairs, traced, benchmark, args.seed)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
