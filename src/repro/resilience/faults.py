"""Deterministic fault injection for NVRAM checkpointing studies.

The paper motivates node-local NVRAM with the exascale *resiliency
challenge*: checkpoints must outlive node crashes, yet the devices that
hold them fail in their own ways (bit flips in stored data, cells worn
out by the very write traffic §II's limitation 3 budgets). This module
generates those failures — reproducibly, from a seed — so the
checkpoint/restart engine and the hardened experiment runner can be
exercised against them instead of only against the analytic model.

Four fault classes are modeled (the fourth lives in
:mod:`repro.engine.chaos`, which registers its named I/O scenarios —
torn writes, ``ENOSPC``/``EIO``, crash points, committed-file bit flips —
into this module's :data:`SCENARIOS` registry and draws its randomness
from the same seeded :class:`FaultInjector`):

* **node crashes** — a Poisson process with exponential inter-arrival
  times at a configured MTBF (the same MTBF the Young/Daly planner in
  :mod:`repro.hybrid.checkpoint` consumes);
* **NVRAM bit flips** — each checkpoint image is corrupted with a
  probability that grows with its size (``1 - exp(-rate * GiB)``), and a
  corrupted image has one stored byte flipped so CRC verification at
  restore time actually detects it;
* **wear-out** — cells whose per-line write counts (the quantity the
  Start-Gap leveler in :mod:`repro.nvram.wearlevel` flattens) exceed a
  configured endurance threshold fail permanently.

All randomness flows through one ``numpy`` generator built by
:func:`repro.util.rng.make_rng`, so a (scenario, seed) pair always
replays the identical fault sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import FaultInjectionError
from repro.util.rng import make_rng
from repro.util.units import GiB


@dataclass(frozen=True)
class FaultScenario:
    """A named bundle of fault-model parameters.

    ``mtbf_s=None`` disables crashes, ``bitflip_per_gib=0`` disables
    checkpoint corruption, ``endurance_writes=None`` disables wear-out.
    """

    name: str
    description: str
    mtbf_s: float | None = None
    bitflip_per_gib: float = 0.0
    endurance_writes: int | None = None

    def __post_init__(self) -> None:
        if self.mtbf_s is not None and self.mtbf_s <= 0:
            raise FaultInjectionError(f"{self.name}: MTBF must be positive")
        if self.bitflip_per_gib < 0:
            raise FaultInjectionError(f"{self.name}: bit-flip rate must be >= 0")
        if self.endurance_writes is not None and self.endurance_writes <= 0:
            raise FaultInjectionError(f"{self.name}: endurance must be positive")


#: Registry of named scenarios; extend with :func:`register_scenario`.
SCENARIOS: dict[str, FaultScenario] = {}


def register_scenario(scenario: FaultScenario) -> FaultScenario:
    """Add *scenario* to the registry (names are unique)."""
    if scenario.name in SCENARIOS:
        raise FaultInjectionError(f"scenario {scenario.name!r} already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> FaultScenario:
    """Look a scenario up by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise FaultInjectionError(
            f"unknown fault scenario {name!r}; know {sorted(SCENARIOS)}"
        ) from None


register_scenario(FaultScenario(
    "none", "fault-free baseline (measures pure checkpoint overhead)"))
register_scenario(FaultScenario(
    "crashes", "node crashes at a 6 h MTBF, reliable NVRAM",
    mtbf_s=6 * 3600.0))
register_scenario(FaultScenario(
    "bitflips", "6 h MTBF plus media bit flips in stored checkpoints",
    mtbf_s=6 * 3600.0, bitflip_per_gib=0.02))
register_scenario(FaultScenario(
    "wearout", "6 h MTBF plus cell wear-out at a low endurance budget",
    mtbf_s=6 * 3600.0, endurance_writes=3000))
register_scenario(FaultScenario(
    "hostile", "exascale worst case: 2 h MTBF, bit flips, and wear-out",
    mtbf_s=2 * 3600.0, bitflip_per_gib=0.05, endurance_writes=2000))


class FaultInjector:
    """Seeded source of crash times, checkpoint corruption, and wear-out.

    One injector drives one simulated node. The crash process is sampled
    lazily (``next_crash_time``) so the engine never materializes an
    unbounded event list; corruption draws happen per checkpoint write.
    """

    def __init__(self, scenario: FaultScenario | str = "crashes", seed: int = 0) -> None:
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if not isinstance(scenario, FaultScenario):
            raise FaultInjectionError(f"not a fault scenario: {scenario!r}")
        self.scenario = scenario
        self.seed = seed
        self._rng = make_rng(seed)

    @property
    def mtbf_s(self) -> float | None:
        return self.scenario.mtbf_s

    # -- node crashes ---------------------------------------------------
    def next_crash_time(self, now_s: float) -> float:
        """Absolute time of the next crash after *now_s* (inf if none)."""
        if self.scenario.mtbf_s is None:
            return math.inf
        return now_s + float(self._rng.exponential(self.scenario.mtbf_s))

    # -- bit flips ------------------------------------------------------
    def corrupts_checkpoint(self, nbytes: int) -> bool:
        """Draw whether a freshly written image of *nbytes* is corrupted."""
        if nbytes <= 0:
            raise FaultInjectionError("checkpoint size must be positive")
        rate = self.scenario.bitflip_per_gib
        if rate == 0.0:
            return False
        p = 1.0 - math.exp(-rate * nbytes / GiB)
        return bool(self._rng.random() < p)

    def random_offset(self, n: int) -> int:
        """Uniform draw in ``[0, n)`` from the injector's seeded stream.

        The I/O chaos layer uses this to pick which stored byte (and
        which bit of it) a media fault hits."""
        if n <= 0:
            raise FaultInjectionError("offset range must be positive")
        return int(self._rng.integers(n))

    def flip_random_byte(self, buffer: np.ndarray) -> int:
        """Flip one random bit of one random byte of *buffer*, in place.

        Returns the affected byte offset. The buffer is viewed as raw
        bytes, so any dtype works.
        """
        raw = buffer.reshape(-1).view(np.uint8)
        if raw.size == 0:
            raise FaultInjectionError("cannot corrupt an empty buffer")
        off = int(self._rng.integers(raw.size))
        raw[off] ^= np.uint8(1 << int(self._rng.integers(8)))
        return off

    # -- wear-out -------------------------------------------------------
    def line_worn_out(self, writes: int) -> bool:
        """Whether a line written *writes* times has failed permanently.

        Deterministic given the write count: a cell fails exactly when
        its line's cumulative writes reach ``endurance_writes`` (the
        idealized threshold model :mod:`repro.nvram.endurance` projects
        lifetimes from).
        """
        endurance = self.scenario.endurance_writes
        return endurance is not None and writes >= endurance

    def wearout_failed_lines(self, writes_per_line: np.ndarray) -> np.ndarray:
        """Boolean mask of lines whose wear exceeds the endurance budget
        (:meth:`line_worn_out`, line by line)."""
        counts = np.asarray(writes_per_line, dtype=np.int64)
        return np.array([self.line_worn_out(int(c)) for c in counts.flat],
                        dtype=bool).reshape(counts.shape)
