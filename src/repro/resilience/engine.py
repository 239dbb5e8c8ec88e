"""Discrete-event checkpoint/restart simulation under injected faults.

:mod:`repro.hybrid.checkpoint` *predicts* machine efficiency with the
Young/Daly analytic model; this engine *measures* it. It runs an
application's timestep loop against a :class:`CheckpointTarget`, writes
double-buffered CRC-verified checkpoints on a schedule, crashes the node
whenever the :class:`~repro.resilience.faults.FaultInjector` says so,
restores from the newest intact checkpoint (falling back to the older
buffer when the newest one was corrupted by a bit flip or wear-out), and
replays the lost timesteps. The measured efficiency — final useful time
over simulated wall time — validates the analytic prediction empirically,
which is what the ``resilience`` experiment and its test assert.

Time is simulated, not wall-clock: one timestep costs ``timestep_s``
simulated seconds. The engine works one fault-free segment (the run
between two crashes) at a time — one ``numpy`` accumulate lays out its
step and checkpoint times, one search finds where the crash cuts it —
so the real cost is the app's own ``advance`` per executed step (a few
microseconds for :class:`SyntheticTimestepApp`) plus a little integer
bookkeeping per checkpoint, and megaseconds of machine time (hundreds
of failures) simulate in a fraction of a second. The original per-step
loop is kept as the test oracle in :mod:`repro.resilience.reference`.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import CheckpointError, ConfigurationError
from repro.hybrid.checkpoint import CheckpointPlan, CheckpointTarget, plan_checkpoints
from repro.resilience.faults import FaultInjector

#: Upper bound on one planned window's timeline length (entries), so a
#: long fault-free run is planned in bounded chunks.
_WINDOW_ENTRIES = 1 << 16


class SyntheticTimestepApp:
    """A deterministic stand-in for an application's main timestep loop.

    The state vector evolves by a fixed recurrence per step, so two runs
    that execute the same logical steps — regardless of how many crashes
    and replays happened in between — end in bit-identical state. That
    property is what lets tests prove restore-and-replay is *consistent*,
    not merely "finished".
    """

    def __init__(self, n_steps: int, state_doubles: int = 256, seed: int = 0) -> None:
        if n_steps <= 0:
            raise ConfigurationError("n_steps must be positive")
        if state_doubles <= 0:
            raise ConfigurationError("state_doubles must be positive")
        self.n_steps = n_steps
        rng = np.random.default_rng(seed)
        self.state = rng.standard_normal(state_doubles)

    def advance(self, step: int) -> None:
        """Execute logical timestep *step*: apply the recurrence once more.

        Not idempotent — a second call for the same *step* advances the
        state again — which is why the engine calls it exactly once per
        executed step, replays after a restore included.
        """
        self.state = self.state * 0.999 + math.sin(step + 1) * 1e-3

    def snapshot(self) -> np.ndarray:
        return self.state.copy()

    def restore(self, state: np.ndarray) -> None:
        self.state = state.copy()

    def digest(self) -> int:
        """CRC of the current state, for cross-run consistency checks."""
        return zlib.crc32(np.ascontiguousarray(self.state).tobytes())


def _image_crc(state: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(state).tobytes())


@dataclass
class _Slot:
    """One of the two NVRAM checkpoint buffers."""

    step: int = -1  # last completed step captured (-1 = empty)
    state: np.ndarray | None = None
    crc: int = 0  # CRC recorded at write time, before any corruption
    #: checkpoints written to this buffer; each one writes every line of
    #: it once, so this is also each line's write count
    writes: int = 0
    wear_failed: bool = False


@dataclass
class EngineReport:
    """What one simulated run measured, next to what the model predicted."""

    target_name: str
    footprint_bytes: int
    interval_s: float
    useful_s: float
    wall_s: float
    n_steps: int
    n_checkpoints: int
    n_crashes: int
    n_corrupt_injected: int
    n_fallback_restores: int
    n_scratch_restarts: int
    checkpoint_overhead_s: float
    restart_s: float
    rework_s: float
    analytic: CheckpointPlan | None

    @property
    def measured_efficiency(self) -> float:
        return self.useful_s / self.wall_s if self.wall_s > 0 else 1.0

    @property
    def analytic_efficiency(self) -> float | None:
        return self.analytic.efficiency if self.analytic else None

    @property
    def relative_error(self) -> float | None:
        """|measured − analytic| / analytic, the validation quantity."""
        if self.analytic is None:
            return None
        return abs(self.measured_efficiency - self.analytic.efficiency) / self.analytic.efficiency


class CheckpointEngine:
    """Runs a timestep loop with double-buffered checkpoints and faults.

    Parameters
    ----------
    target:
        The device checkpoints are written to (and restarts read from).
    injector:
        Fault source. Its MTBF also feeds the Young/Daly planner when no
        explicit ``interval_s`` is given.
    footprint_bytes:
        Size of one checkpoint image (prices writes/reads on *target*).
    timestep_s:
        Simulated cost of one application timestep.
    interval_s:
        Checkpoint period; defaults to the Young-optimal interval for
        (footprint, MTBF, target). Quantized to whole timesteps.
    max_crashes:
        Forward-progress guard: exceeding it raises
        :class:`~repro.errors.CheckpointError` (e.g. when the MTBF is
        shorter than a single checkpoint write, so the run can never
        finish — the paper's "limited external I/O bandwidth" pathology).
    """

    def __init__(
        self,
        target: CheckpointTarget,
        injector: FaultInjector,
        *,
        footprint_bytes: int,
        timestep_s: float,
        interval_s: float | None = None,
        max_crashes: int = 100_000,
    ) -> None:
        if footprint_bytes <= 0:
            raise ConfigurationError("footprint must be positive")
        if timestep_s <= 0:
            raise ConfigurationError("timestep must be positive")
        if interval_s is not None and interval_s <= 0:
            raise ConfigurationError("checkpoint interval must be positive")
        if max_crashes <= 0:
            raise ConfigurationError("max_crashes must be positive")
        self.target = target
        self.injector = injector
        self.footprint_bytes = footprint_bytes
        self.timestep_s = timestep_s
        self.max_crashes = max_crashes

        self.analytic: CheckpointPlan | None = None
        if injector.mtbf_s is not None:
            self.analytic = plan_checkpoints(footprint_bytes, injector.mtbf_s, target)
        if interval_s is None:
            if self.analytic is None:
                raise CheckpointError(
                    "no checkpoint interval given and the fault scenario has no "
                    "MTBF to derive the Young-optimal one from"
                )
            interval_s = self.analytic.optimal_interval_s
        self.interval_steps = max(1, int(round(interval_s / timestep_s)))
        self.interval_s = self.interval_steps * timestep_s

    # ------------------------------------------------------------------
    def run(self, app) -> EngineReport:
        """Drive *app* to completion through crashes; return measurements.

        Works one fault-free segment at a time, in windows:
        :meth:`_plan_window` finds how far the run gets before the next
        crash, then only that work runs — every step's ``advance``, every
        checkpoint's bookkeeping, and a snapshot plus write-time CRC for
        just the images a restore can read (the window's last two, and
        any the injector corrupts).
        """
        delta = self.target.checkpoint_seconds(self.footprint_bytes)
        restart = delta  # restoring reads one image at device speed
        interval = self.interval_steps
        injector = self.injector
        advance = app.advance
        a, b = _Slot(), _Slot()
        initial_state = app.snapshot()  # the always-valid step -1 fallback

        t = 0.0
        step = 0
        n_checkpoints = 0
        n_crashes = 0
        n_corrupt = 0
        n_fallback = 0
        n_scratch = 0
        ckpt_overhead = 0.0
        restart_total = 0.0
        next_crash = injector.next_crash_time(0.0)

        def write_checkpoint(at_step: int, keep: bool) -> None:
            nonlocal n_checkpoints, n_corrupt, ckpt_overhead
            # Double buffering: overwrite the *older* image so the newer
            # one stays intact while this write is in flight. Pick by step
            # at every write: after a fallback restore the other buffer
            # keeps a stale, higher step, so writes need not alternate.
            slot = a if a.step <= b.step else b
            slot.step = at_step
            slot.writes += 1
            slot.wear_failed = injector.line_worn_out(slot.writes)
            if a.wear_failed and b.wear_failed:
                raise CheckpointError(
                    f"{self.target.name}: both checkpoint buffers worn out "
                    f"after {n_checkpoints + 1} checkpoints (endurance "
                    f"{injector.scenario.endurance_writes} writes/line) — "
                    "the region needs wear leveling or more spare capacity"
                )
            corrupt = injector.corrupts_checkpoint(self.footprint_bytes)
            if keep or corrupt:
                slot.state = app.snapshot()
                slot.crc = _image_crc(slot.state)
                if corrupt:
                    injector.flip_random_byte(slot.state)
                    n_corrupt += 1
            else:
                # a later write of this window overwrites the image
                # before any restore can read it
                slot.state = None
            n_checkpoints += 1
            ckpt_overhead += delta

        def crash() -> None:
            nonlocal t, step, n_crashes, n_fallback, n_scratch, restart_total, next_crash
            n_crashes += 1
            if n_crashes > self.max_crashes:
                raise CheckpointError(
                    f"{self.target.name}: no forward progress after "
                    f"{self.max_crashes} crashes (MTBF {injector.mtbf_s}s vs "
                    f"checkpoint {delta:.3g}s) — checkpointing cannot keep up"
                )
            t = next_crash
            # Try the newest image first; a CRC mismatch or wear-out means
            # the bits rotted in NVRAM, so fall back to the older buffer.
            restored = False
            for slot in (a, b) if a.step >= b.step else (b, a):
                if slot.step < 0:  # empty, or torn by a crash mid-write
                    continue
                t += restart
                restart_total += restart
                assert slot.state is not None, "restore of an unmaterialized image"
                if not slot.wear_failed and _image_crc(slot.state) == slot.crc:
                    app.restore(slot.state)
                    step = slot.step
                    restored = True
                    break
                n_fallback += 1
            if not restored:
                app.restore(initial_state)
                step = 0
                n_scratch += 1
            next_crash = injector.next_crash_time(t)

        while step < app.n_steps:
            n_run, n_written, t_end, torn = self._plan_window(
                t, step, app.n_steps, next_crash, delta)
            last = step + n_written * interval  # the last checkpoint written
            for ckpt in range(step + interval, last + 1, interval):
                for s in range(ckpt - interval, ckpt):
                    advance(s)
                write_checkpoint(ckpt, ckpt >= last - interval)
            for s in range(last, step + n_run):
                advance(s)
            step += n_run
            if t_end is not None:
                t = t_end
                continue
            if torn:
                # Crash mid-write: the in-flight (older) buffer is torn.
                victim = a if a.step <= b.step else b
                victim.step = -1
                victim.state = None
            crash()

        useful = app.n_steps * self.timestep_s
        return EngineReport(
            target_name=self.target.name,
            footprint_bytes=self.footprint_bytes,
            interval_s=self.interval_s,
            useful_s=useful,
            wall_s=t,
            n_steps=app.n_steps,
            n_checkpoints=n_checkpoints,
            n_crashes=n_crashes,
            n_corrupt_injected=n_corrupt,
            n_fallback_restores=n_fallback,
            n_scratch_restarts=n_scratch,
            checkpoint_overhead_s=ckpt_overhead,
            restart_s=restart_total,
            rework_s=max(0.0, t - useful - ckpt_overhead - restart_total),
            analytic=self.analytic,
        )

    def _plan_window(
        self, t: float, step: int, n_steps: int, next_crash: float, delta: float,
    ) -> tuple[int, int, float | None, bool]:
        """Lay out the timeline from (*t*, *step*) and cut it at *next_crash*.

        *step* is a multiple of the interval: segments start from a
        checkpoint (or step 0) and windows end on one. The timeline is
        ``[t, ts × k, δ, ts × k, δ, …]`` accumulated in sequence, so each
        entry is the float the per-step ``t += …`` of the scalar loop
        produces; the first entry past *next_crash* is the increment the
        crash interrupts. Returns ``(steps, checkpoints, t_end, torn)``:
        the steps that execute and the checkpoints completed before the
        crash, the time at the window's end (``None`` when the crash
        falls inside the window), and whether the crash tears the write
        of the next checkpoint.
        """
        k, ts = self.interval_steps, self.timestep_s
        remaining = n_steps - step
        # enough periods to reach the crash, capped to bound the array
        periods = int(min(-(-remaining // k),
                          max(1, _WINDOW_ENTRIES // (k + 1)),
                          (next_crash - t) / (k * ts + delta) + 2))
        n_run = min(remaining, periods * k)
        size = 1 + n_run + n_run // k
        timeline = np.empty(1 + periods * (k + 1))
        timeline[0] = t
        body = timeline[1:].reshape(periods, k + 1)
        body[:, :k] = ts
        body[:, k] = delta
        times = np.add.accumulate(timeline[:size])
        cut = int(times.searchsorted(next_crash, side="right"))
        if cut == size:
            return n_run, n_run // k, float(times[-1]), False
        periods_done, offset = divmod(cut - 1, k + 1)
        if offset < k:  # the crash stops a step from executing
            return periods_done * k + offset, periods_done, None, False
        return (periods_done + 1) * k, periods_done, None, True


def measure_efficiency(
    target: CheckpointTarget,
    footprint_bytes: int,
    *,
    scenario="crashes",
    seed: int = 0,
    useful_s: float = 2_000_000.0,
    timestep_s: float = 40.0,
) -> EngineReport:
    """One-call empirical efficiency for (target, footprint, scenario).

    Sizes the synthetic app so its fault-free runtime is *useful_s*
    simulated seconds — long enough, at the default 6 h MTBF, to average
    over ~90 failures and converge on the analytic prediction.
    """
    injector = FaultInjector(scenario, seed=seed)
    engine = CheckpointEngine(
        target, injector, footprint_bytes=footprint_bytes, timestep_s=timestep_s)
    app = SyntheticTimestepApp(max(1, int(round(useful_s / timestep_s))), seed=seed)
    return engine.run(app)
