"""Bank state machine: open-page row policy.

Each bank is either idle (precharged) or has one row open in its row
buffer. The controller consults this to turn a transaction into commands:
row hit -> column access only; row conflict -> precharge + activate +
column access; bank idle -> activate + column access.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError


class BankStatus(enum.IntEnum):
    PRECHARGED = 0
    ROW_OPEN = 1


@dataclass
class BankState:
    """State of one bank."""

    status: BankStatus = BankStatus.PRECHARGED
    open_row: int = -1
    busy_until_ns: float = 0.0
    activations: int = 0
    precharges: int = 0

    def open(self, row: int) -> None:
        if self.status is BankStatus.ROW_OPEN:
            raise SimulationError("activate on a bank with an open row")
        self.status = BankStatus.ROW_OPEN
        self.open_row = row
        self.activations += 1

    def close(self) -> None:
        if self.status is BankStatus.PRECHARGED:
            raise SimulationError("precharge on an already-precharged bank")
        self.status = BankStatus.PRECHARGED
        self.open_row = -1
        self.precharges += 1


class BankArray:
    """All banks of the memory system in flat numpy arrays (hot path).

    Scalar :class:`BankState` objects exist for inspection/testing; the
    controller classifies each batch against these arrays directly.
    """

    def __init__(self, n_banks_total: int) -> None:
        if n_banks_total <= 0:
            raise SimulationError("need at least one bank")
        self.open_row = np.full(n_banks_total, -1, dtype=np.int64)
        self.busy_until = np.zeros(n_banks_total, dtype=np.float64)
        self.activations = np.zeros(n_banks_total, dtype=np.int64)
        #: row buffer holds unwritten-back data (PCM-style long write on close)
        self.dirty = np.zeros(n_banks_total, dtype=bool)

    @property
    def n_banks(self) -> int:
        return int(self.open_row.shape[0])

    def state_of(self, flat_bank: int) -> BankState:
        """Materialize a scalar view of one bank (inspection only)."""
        row = int(self.open_row[flat_bank])
        st = BankState(
            status=BankStatus.ROW_OPEN if row >= 0 else BankStatus.PRECHARGED,
            open_row=row,
            busy_until_ns=float(self.busy_until[flat_bank]),
            activations=int(self.activations[flat_bank]),
        )
        return st
