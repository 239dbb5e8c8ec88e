"""Scalar reference implementation of the power simulator's controller.

This is the original :meth:`MemoryController.process_batch`: one Python
loop iteration per access that classifies it (row hit, activate, clean
or dirty row conflict), updates the bank state, advances the channel
cursor and the bank's busy time, and accounts the access to its rank;
and the original :meth:`TimedMemorySystem.process_timed`, which scans
the arrivals for idle gaps and runs each busy stretch between two gaps
as its own full-speed batch. The production controller
(:mod:`repro.powersim.controller`) classifies a batch in ``numpy`` and
runs one scalar loop that keeps only the timing recurrence, for every
row policy and for timed runs alike; this implementation is kept as the
ground truth for differential testing
(``tests/test_powersim_oracle.py`` requires equal stats, bank arrays,
rank activity and reports). Only tests import it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.nvram.technology import MemoryTechnology
from repro.powersim.config import DeviceConfig, PowerModelConfig, TABLE3_DEVICE
from repro.powersim.controller import MemoryController
from repro.powersim.timing import TimedMemorySystem
from repro.trace.record import RefBatch


class ReferenceMemoryController(MemoryController):
    """:class:`MemoryController` with the scalar per-access loop."""

    def process_batch(self, batch: RefBatch) -> None:
        """Run one batch of memory accesses through the controller."""
        if len(batch) == 0:
            return
        flat_bank, row = self.mapping.flat_bank_batch(batch.addr)
        is_write = batch.is_write
        open_row = self.banks.open_row
        busy = self.banks.busy_until
        acts = self.banks.activations
        dirty = self.banks.dirty
        n_banks_per_rank = self.device.n_banks
        now = self._now
        st = self.stats
        t_act, t_pre, t_burst, t_wr = self._t_act, self._t_pre, self._t_burst, self._t_wr
        turnaround = self.tech.channel_turnaround_ns
        close_after = self.row_policy == "closed"
        prev_write = self._prev_write
        for i in range(len(batch)):
            b = int(flat_bank[i])
            r = int(row[i])
            w = bool(is_write[i])
            # write-to-read bus turnaround (asymmetric-write devices)
            if prev_write and not w and turnaround > 0.0:
                now += turnaround
            prev_write = w
            # the bank prepares (precharge+activate) independently of the
            # channel; only the burst itself occupies the data bus, so
            # activations overlap with other banks' bursts. Reads and
            # writes both hit the row buffer at bus speed; the technology's
            # long write latency is paid when a *dirty* row is closed
            # (array write-back on precharge), the standard PCM row-buffer
            # organization.
            bank_ready = busy[b]
            cur = open_row[b]
            if cur == r:
                st.row_hits += 1
                col_ready = bank_ready
            else:
                st.row_misses += 1
                delay = t_act
                if cur >= 0:
                    st.precharges += 1
                    delay += t_wr if dirty[b] else t_pre
                dirty[b] = False
                open_row[b] = r
                acts[b] += 1
                col_ready = bank_ready + delay
            if w:
                dirty[b] = True
            if col_ready > now:
                st.bank_stall_ns += col_ready - now
            burst_start = col_ready if col_ready > now else now
            now = burst_start + t_burst
            # a row-buffer hit is a column access at bus speed; the array
            # read latency was already paid by the activate on a miss
            busy[b] = burst_start + t_burst
            rank = self.ranks[b // n_banks_per_rank]
            rank.record_access(w, t_burst, cur != r)
            if w:
                st.writes += 1
            else:
                st.reads += 1
            if close_after:
                # closed-page policy: auto-precharge after every access
                st.precharges += 1
                if dirty[b]:
                    busy[b] += t_wr
                    dirty[b] = False
                open_row[b] = -1
        self._now = now
        self._prev_write = prev_write
        st.elapsed_ns = max(now, float(busy.max()))


class ReferenceTimedMemorySystem(TimedMemorySystem):
    """:class:`TimedMemorySystem` that splits batches at idle gaps and runs
    :class:`ReferenceMemoryController` over each busy stretch."""

    def __init__(
        self,
        tech: MemoryTechnology,
        device: DeviceConfig = TABLE3_DEVICE,
        model: PowerModelConfig | None = None,
        powerdown_fraction: float = 0.4,
    ) -> None:
        super().__init__(tech, device, model, powerdown_fraction)
        self.controller = ReferenceMemoryController(device, tech)

    def process_timed(self, batch: RefBatch, arrival_ns: np.ndarray) -> None:
        """Feed one batch whose references arrive at *arrival_ns*.

        Arrivals must be non-decreasing; idle gaps (arrival beyond the
        channel cursor) advance the clock and accumulate as idle time.
        Implementation: the batch is split at every idle gap and the
        controller's full-speed path runs each busy burst.
        """
        arrival_ns = np.asarray(arrival_ns, dtype=np.float64)
        if arrival_ns.shape != batch.addr.shape:
            raise SimulationError("arrival array must match the batch")
        if np.any(np.diff(arrival_ns) < 0):
            raise SimulationError("arrivals must be non-decreasing")
        if len(batch) == 0:
            return
        ctl = self.controller
        # find gap points: arrival beyond the projected channel time
        start = 0
        for i in range(len(batch)):
            if arrival_ns[i] > ctl._now:
                # flush the contiguous run before the gap
                if i > start:
                    ctl.process_batch(batch.take(np.arange(start, i)))
                gap = arrival_ns[i] - ctl._now
                if gap > 0:
                    self._idle_ns += gap
                    ctl._now = float(arrival_ns[i])
                start = i
        if start < len(batch):
            ctl.process_batch(batch.take(np.arange(start, len(batch))))
        ctl.stats.elapsed_ns = max(
            ctl.stats.elapsed_ns, float(ctl._now), float(ctl.banks.busy_until.max())
        )
