"""Memory controller: transaction flow, address mapping, row policy,
bank-state updates (paper §IV, module 2).

Open-page policy with in-order (FCFS) issue: a transaction becomes

* a column access when its row is open in the target bank (row hit);
* precharge + activate + column access otherwise.

Timing is tracked with a channel cursor plus per-bank busy times: the data
bus serializes bursts; activates and (long NVRAM) write recoveries busy
only their bank, so bank-level parallelism hides them — this is exactly
the mechanism that makes STTRAM/MRAM *busier per unit time* than PCRAM
and reproduces Table VI's "faster NVRAM draws more average power".

A batch runs in two passes. :func:`classify` decides in numpy what each
access does to its bank — row hit, activate of a precharged bank, or a
clean or dirty row conflict — which depends on the access order within
each bank but on neither time nor technology. The scalar loop in
:meth:`MemoryController.process_arrivals` then keeps only what is sequential: the
channel cursor and the per-bank busy times.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from repro.nvram.technology import MemoryTechnology
from repro.powersim.addressing import AddressMapping
from repro.powersim.bankstate import BankArray
from repro.powersim.config import DeviceConfig
from repro.powersim.rank import Rank
from repro.trace.record import RefBatch

#: access kinds, as :func:`classify` codes them; under the closed-page
#: policy every access is ``COLD``, or ``WRITE_BACK`` when it writes (its
#: row is written back as the bank auto-precharges)
HIT, COLD, CLEAN, DIRTY, WRITE_BACK = range(5)


@dataclass
class ControllerStats:
    """Transaction and command counts after a run."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0  # activate (+precharge when a row was open)
    precharges: int = 0
    elapsed_ns: float = 0.0
    bank_stall_ns: float = 0.0  # time the channel waited on busy banks

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


def classify(
    flat_bank: np.ndarray,
    row: np.ndarray,
    is_write: np.ndarray,
    open_row: np.ndarray,
    dirty: np.ndarray,
) -> np.ndarray:
    """Kind of each access of a non-empty batch under the open-page policy.

    ``HIT``: the row is open; ``COLD``: the bank is precharged;
    ``CLEAN``/``DIRTY``: another row is open, and some access wrote to it
    since it was opened (``DIRTY``) or none did. *open_row* and *dirty*
    hold each bank's state before the batch and are updated in place to
    its state after it.
    """
    n = len(flat_bank)
    order = np.argsort(flat_bank, kind="stable")
    bank = flat_bank[order]
    rows = row[order]
    wrote = is_write[order]
    # a bank's accesses are contiguous in sorted order: each one sees the
    # row its predecessor left open, and the bank's first one sees the row
    # carried from earlier batches
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(bank[1:], bank[:-1], out=first[1:])
    first_bank = bank[first]
    prev_row = np.empty(n, dtype=np.int64)
    prev_row[1:] = rows[:-1]
    prev_row[first] = open_row[first_bank]
    hit = rows == prev_row
    # the open row is dirty when any access wrote to it since the miss
    # that opened it (inclusive). A row opened before this batch starts
    # at the bank's first access and carries its dirty flag as a write.
    carried = dirty[first_bank]
    wrote[first] |= carried & hit[first]
    pos = np.arange(n)
    opened_at = np.maximum.accumulate(np.where(hit & ~first, 0, pos))
    wrote_at = np.maximum.accumulate(np.where(wrote, pos, -1))
    dirty_after = wrote_at >= opened_at
    dirty_before = np.empty(n, dtype=bool)
    dirty_before[1:] = dirty_after[:-1]
    dirty_before[first] = carried
    kind = np.where(hit, HIT, np.where(prev_row < 0, COLD,
                                       np.where(dirty_before, DIRTY, CLEAN)))
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = first[1:]
    open_row[bank[last]] = rows[last]
    dirty[bank[last]] = dirty_after[last]
    out = np.empty(n, dtype=np.int8)
    out[order] = kind
    return out


class MemoryController:
    """Processes memory-access batches against one technology's timings."""

    def __init__(
        self,
        device: DeviceConfig,
        tech: MemoryTechnology,
        row_policy: str = "open",
        mapping_scheme: str = "row:rank:bank:col",
    ) -> None:
        if row_policy not in ("open", "closed"):
            raise ValueError(f"row_policy must be 'open' or 'closed', got {row_policy!r}")
        self.device = device
        self.tech = tech
        self.row_policy = row_policy
        self.mapping = AddressMapping(device, scheme=mapping_scheme)
        self.banks = BankArray(device.total_banks)
        self.ranks = [Rank(r) for r in range(device.n_ranks)]
        self.stats = ControllerStats()
        self._now = 0.0  # channel cursor, ns
        self._prev_write = False
        # command timings: activate = row fetch (read-latency class);
        # precharge modelled at half a row access, DRAMSim2-ish tRP ~ tRCD.
        self._t_act = tech.read_latency_ns
        self._t_pre = tech.read_latency_ns * 0.5
        self._t_burst = device.burst_ns
        # closing a dirty row writes back only the written columns, so the
        # array write-back costs a fraction of the full-row write latency
        self._t_wr = tech.write_latency_ns * 0.45

    # ------------------------------------------------------------------
    def process_batch(self, batch: RefBatch) -> None:
        """Run one batch of memory accesses through the controller at full
        speed: every access has arrived by time 0."""
        self.process_arrivals(batch, repeat(0.0), 0.0)

    def process_arrivals(self, batch: RefBatch, arrival_ns: Iterable[float],
                         idle_ns: float) -> float:
        """Run *batch* in order, each access no earlier than its arrival.

        Whenever an access arrives after the channel cursor, the channel
        idles up to the arrival; the idle time is added to *idle_ns* and
        the total returned.
        """
        n = len(batch)
        if n == 0:
            return idle_ns
        flat_bank, row = self.mapping.flat_bank_batch(batch.addr)
        is_write = batch.is_write
        closed = self.row_policy == "closed"
        if closed:
            # auto-precharge after every access: each one activates a
            # precharged bank, and no row stays open or dirty
            kind = np.where(is_write, WRITE_BACK, COLD).astype(np.int8)
        else:
            kind = classify(flat_bank, row, is_write, self.banks.open_row, self.banks.dirty)
        self._count(flat_bank, is_write, kind, closed)

        # write-to-read bus turnaround (asymmetric-write devices)
        turnaround = self.tech.channel_turnaround_ns
        turn = ~is_write
        turn[0] &= self._prev_write
        turn[1:] &= is_write[:-1]
        if not turnaround > 0.0:
            turn[:] = False
        # the bank prepares (precharge+activate) independently of the
        # channel; only the burst itself occupies the data bus, so
        # activations overlap with other banks' bursts. Reads and writes
        # both hit the row buffer at bus speed; the technology's long
        # write latency is paid when a *dirty* row is closed (array
        # write-back on precharge), the standard PCM row-buffer
        # organization. Each delay is summed as t_act + t_x, then added
        # to the bank's busy time, the same float operations in the same
        # order as a per-command model.
        t_act, t_burst, t_wr = self._t_act, self._t_burst, self._t_wr
        delay = (0.0, t_act, t_act + self._t_pre, t_act + t_wr, t_act)
        busy = self.banks.busy_until.tolist()
        now = self._now
        stall = self.stats.bank_stall_ns
        for b, k, t, a in zip(flat_bank.tolist(), kind.tolist(), turn.tolist(), arrival_ns):
            if a > now:
                idle_ns += a - now
                now = a
            if t:
                now += turnaround
            # a hit needs no stall test: hits occur only under the open
            # policy, where busy[b] is the cursor right after b's last
            # burst, which never exceeds the current cursor
            if k:
                col_ready = busy[b] + delay[k]
                if col_ready > now:
                    stall += col_ready - now
                    now = col_ready
            now += t_burst
            busy[b] = now + t_wr if k == WRITE_BACK else now
        self.banks.busy_until[:] = busy
        self._now = now
        self._prev_write = bool(is_write[-1])
        self.stats.bank_stall_ns = stall
        self.stats.elapsed_ns = max(now, max(busy))
        return idle_ns

    def _count(self, flat_bank: np.ndarray, is_write: np.ndarray, kind: np.ndarray,
               closed: bool) -> None:
        """Command counts per controller, bank and rank from the kinds."""
        n = len(kind)
        miss = kind != HIT
        n_miss = int(np.count_nonzero(miss))
        n_writes = int(np.count_nonzero(is_write))
        st = self.stats
        st.reads += n - n_writes
        st.writes += n_writes
        st.row_hits += n - n_miss
        st.row_misses += n_miss
        st.precharges += n if closed else int(np.count_nonzero(kind >= CLEAN))
        self.banks.activations += np.bincount(flat_bank[miss], minlength=self.banks.n_banks)
        n_ranks = len(self.ranks)
        rank_of = flat_bank // self.device.n_banks
        writes = np.bincount(rank_of[is_write], minlength=n_ranks).tolist()
        reads = np.bincount(rank_of[~is_write], minlength=n_ranks).tolist()
        acts = np.bincount(rank_of[miss], minlength=n_ranks).tolist()
        for rank, r, w, a in zip(self.ranks, reads, writes, acts):
            rank.record_batch(r, w, a, self._t_burst)

    @property
    def elapsed_ns(self) -> float:
        return self.stats.elapsed_ns

    def activation_count(self) -> int:
        return int(self.banks.activations.sum())
