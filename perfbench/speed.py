"""How fast each CPU runs, sampled while the benchmark measures.

The benchmark runs on shared virtual machines whose CPUs slow down by
up to a factor of three for seconds or minutes at a time, each CPU
independently of the other, while the program does not change (the
slowdown shows in a process's CPU time as much as in its wall clock,
so it is not time spent waiting for the CPU). A raw wall clock then
measures the neighbours as much as the program.

So while a run measures, one sampler process per CPU — pinned to it —
wakes every :data:`PERIOD_S`, times a fixed kernel on its own thread CPU
clock (time spent waiting for the CPU does not count) and appends
``<monotonic time> <seconds> <busy ticks>`` to a file, the last being
the CPU's busy time so far from ``/proc/stat``. The kernel is benchmark
code, never anything under ``src/``, so no change to the program moves
it; it mixes what the workloads spend their time on (interpreter-bound
dict work, small numpy calls from a Python loop, a sort and a unique
over a small array, zlib level-1 compression). A time measured over an
interval on some CPUs is normalized by the speed the samplers saw
there, each CPU's mean weighted by how busy that CPU was::

    speed_c = mean(REFERENCE_S / sample for CPU c's samples in the interval)
    normalized = raw * sum(busy_c * speed_c) / sum(busy_c)

and reads as "seconds on a CPU that runs the kernel in
:data:`REFERENCE_S`". Sampling costs each CPU about 2.5% of its time.

Run as a script, this module is one sampler::

    python3 perfbench/speed.py <cpu> <out file>
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
import zlib

#: seconds one kernel call takes on the CPU normalized times refer to (a
#: round figure near the fastest samples on a 2-vCPU shared VM with
#: Python 3.11 and numpy 2.4)
REFERENCE_S = 0.001
#: seconds between the starts of two samples
PERIOD_S = 0.05
#: an interval with fewer samples borrows the nearest ones
MIN_SAMPLES = 3


def _kernel(small, mid, raw) -> int:
    import numpy as np

    counts: dict[int, int] = {}
    for i in range(3000):
        key = (i * 7919) & 255
        counts[key] = counts.get(key, 0) + 1
    acc = len(counts)
    for i in range(60):
        acc += int((small > i).sum())
    acc += int(np.sort(mid)[0] & 1)
    acc += int(np.unique(mid >> 24).size)
    return acc + len(zlib.compress(raw, 1))


def busy_ticks(cpu: int) -> int:
    """Clock ticks *cpu* has spent busy (user, nice, system, irq,
    softirq) since boot."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(prefix):
                user, nice, system, _idle, _iowait, irq, softirq = map(
                    int, line.split()[1:8])
                return user + nice + system + irq + softirq
    raise LookupError(f"no cpu{cpu} line in /proc/stat")


def sample_forever(cpu: int, out_path: str) -> None:
    """The sampler: runs until its parent is gone or it is terminated."""
    import numpy as np

    os.sched_setaffinity(0, {cpu})
    rng = np.random.default_rng(20240607)
    small = rng.integers(0, 1 << 12, 256, dtype=np.int64)
    mid = rng.integers(0, 1 << 36, 2048, dtype=np.int64)
    raw = mid.tobytes()
    parent = os.getppid()
    with open(out_path, "a", buffering=1) as out:
        _kernel(small, mid, raw)  # warm
        tick = time.monotonic()
        while os.getppid() == parent:
            tick += PERIOD_S
            pause = tick - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            else:
                tick = time.monotonic()  # fell behind: do not catch up
            at = time.monotonic()
            c0 = time.thread_time()
            _kernel(small, mid, raw)
            took = time.thread_time() - c0
            out.write(f"{at:.6f} {took:.9f} {busy_ticks(cpu)}\n")


class Samplers:
    """One sampler per CPU; raw seconds measured over an interval times
    :meth:`speed` of that interval are normalized seconds."""

    def __init__(self, cpus, work_dir: str) -> None:
        self.cpus = sorted(cpus)
        self._paths = {c: os.path.join(work_dir, f"speed-cpu{c}.txt")
                       for c in self.cpus}
        self._offsets = dict.fromkeys(self.cpus, 0)
        #: per CPU, sample times, speeds (REFERENCE_S / sample) and the
        #: CPU's busy ticks at each sample
        self._times: dict[int, list[float]] = {c: [] for c in self.cpus}
        self._speeds: dict[int, list[float]] = {c: [] for c in self.cpus}
        self._busy: dict[int, list[int]] = {c: [] for c in self.cpus}
        self._procs = []
        try:
            for c in self.cpus:
                self._procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(c),
                     self._paths[c]],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))
            deadline = time.monotonic() + 30.0
            while not all(self._times.values()):
                if time.monotonic() > deadline or any(
                        p.poll() is not None for p in self._procs):
                    raise RuntimeError("a speed sampler did not start")
                time.sleep(0.02)
                self._read()
        except BaseException:
            self.close()
            raise

    def _read(self) -> None:
        for c, path in self._paths.items():
            try:
                with open(path, "rb") as fh:
                    fh.seek(self._offsets[c])
                    data = fh.read()
            except FileNotFoundError:
                continue
            end = data.rfind(b"\n") + 1
            self._offsets[c] += end
            for line in data[:end].splitlines():
                at, took, busy = line.split()
                self._times[c].append(float(at))
                self._speeds[c].append(REFERENCE_S / max(float(took), 1e-9))
                self._busy[c].append(int(busy))

    def speed(self, t0: float, t1: float, cpus) -> float:
        """Mean sampled speed over ``[t0, t1]`` on *cpus*, each CPU's
        mean weighted by its busy ticks in the interval (equal weights
        when none were counted); 1.0 is the reference CPU."""
        self._read()
        means, weights = [], []
        for c in cpus:
            times = self._times[c]
            lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
            if hi - lo < MIN_SAMPLES:  # borrow the nearest samples
                mid = bisect.bisect_left(times, (t0 + t1) / 2.0)
                lo = max(0, min(mid - MIN_SAMPLES // 2, len(times) - MIN_SAMPLES))
                hi = min(len(times), lo + MIN_SAMPLES)
            if hi > lo:
                means.append(statistics.fmean(self._speeds[c][lo:hi]))
                weights.append(self._busy[c][hi - 1] - self._busy[c][lo])
        if not means:
            raise RuntimeError("no speed samples")
        if sum(weights) <= 0:
            return statistics.fmean(means)
        return sum(m * w for m, w in zip(means, weights)) / sum(weights)

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "Samplers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    sample_forever(int(sys.argv[1]), sys.argv[2])
