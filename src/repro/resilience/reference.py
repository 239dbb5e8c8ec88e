"""Scalar reference implementation of the checkpoint/restart loop.

This is the original :meth:`CheckpointEngine.run`: one Python loop
iteration per timestep, a crash check before every step and every
checkpoint write, and a snapshot plus write-time CRC32 of the app state
at every checkpoint. The production engine
(:mod:`repro.resilience.engine`) plans each fault-free segment with one
``numpy`` accumulate and materializes only the images a restore can
read; this implementation is kept as the ground truth for differential
testing (``tests/test_resilience_oracle.py`` requires identical
:class:`~repro.resilience.engine.EngineReport` fields, final app
digests and errors). Only tests import it.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import CheckpointError
from repro.resilience.engine import CheckpointEngine, EngineReport, _Slot


class ReferenceCheckpointEngine(CheckpointEngine):
    """:class:`CheckpointEngine` with the scalar per-step ``run`` loop."""

    def run(self, app) -> EngineReport:
        """Drive *app* to completion through crashes; return measurements."""
        delta = self.target.checkpoint_seconds(self.footprint_bytes)
        restart = delta  # restoring reads one image at device speed
        slots = [_Slot(), _Slot()]
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
        next_crash = self.injector.next_crash_time(0.0)

        def write_checkpoint(at_step: int) -> None:
            nonlocal n_checkpoints, n_corrupt
            # Double buffering: overwrite the *older* image so the newer
            # one stays intact while this write is in flight.
            slot = min(slots, key=lambda s: s.step)
            slot.step = at_step
            slot.state = app.snapshot()
            slot.crc = zlib.crc32(np.ascontiguousarray(slot.state).tobytes())
            slot.writes += 1
            slot.wear_failed = self.injector.line_worn_out(slot.writes)
            if all(s.wear_failed for s in slots):
                raise CheckpointError(
                    f"{self.target.name}: both checkpoint buffers worn out "
                    f"after {n_checkpoints + 1} checkpoints (endurance "
                    f"{self.injector.scenario.endurance_writes} writes/line) — "
                    "the region needs wear leveling or more spare capacity"
                )
            if self.injector.corrupts_checkpoint(self.footprint_bytes):
                self.injector.flip_random_byte(slot.state)
                n_corrupt += 1
            n_checkpoints += 1

        def crash() -> None:
            nonlocal t, step, n_crashes, n_fallback, n_scratch, restart_total, next_crash
            n_crashes += 1
            if n_crashes > self.max_crashes:
                raise CheckpointError(
                    f"{self.target.name}: no forward progress after "
                    f"{self.max_crashes} crashes (MTBF {self.injector.mtbf_s}s vs "
                    f"checkpoint {delta:.3g}s) — checkpointing cannot keep up"
                )
            t = next_crash
            # Try the newest image first; a CRC mismatch or wear-out means
            # the bits rotted in NVRAM, so fall back to the older buffer.
            restored = False
            for slot in sorted(slots, key=lambda s: s.step, reverse=True):
                if slot.state is None:
                    continue
                t += restart
                restart_total += restart
                ok = (not slot.wear_failed) and (
                    zlib.crc32(np.ascontiguousarray(slot.state).tobytes()) == slot.crc)
                if ok:
                    app.restore(slot.state)
                    step = slot.step
                    restored = True
                    break
                n_fallback += 1
            if not restored:
                app.restore(initial_state)
                step = 0
                n_scratch += 1
            next_crash = self.injector.next_crash_time(t)

        while step < app.n_steps:
            if t + self.timestep_s > next_crash:
                crash()
                continue
            t += self.timestep_s
            app.advance(step)
            step += 1
            if step % self.interval_steps == 0:
                if t + delta > next_crash:
                    # Crash mid-write: the in-flight (older) buffer is torn.
                    victim = min(slots, key=lambda s: s.step)
                    victim.step = -1
                    victim.state = None
                    crash()
                    continue
                t += delta
                ckpt_overhead += delta
                write_checkpoint(step)

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
