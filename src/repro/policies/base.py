"""The placement/migration policy contract.

A policy decides, for one evaluated run, which pool holds each page of
the workload's objects. It lays down the initial placement in
:meth:`PlacementPolicy.prepare` through a
:class:`~repro.hybrid.pagemap.PageMap`; from then on the placement is
two arrays over the trace's page index (``ctx.pool`` and ``ctx.wear``),
and the policy watches the replayed stream as per-batch page counts
through :meth:`observe` (and, for emergency demotions,
:meth:`pre_access`) and acts at epoch boundaries in :meth:`end_epoch`.
The shape follows the data-migration strategy base classes of HBM/NVM
serving simulators: a small ABC with a no-op baseline subclass, concrete
strategies overriding one decision method, and every knob passed
explicitly so a policy instance is a pure function of (trace,
parameters, seed).

Policies never read wall clocks, module globals, or unsorted dict/set
iteration order — the sweep's cells must be bit-identical across
processes, hosts, and ``--jobs`` levels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.hybrid.pagemap import MemoryPool, PageMap
from repro.nvram.technology import DRAM_DDR3, MemoryTechnology
from repro.scavenger.classify import Classified


@dataclass(frozen=True)
class ObjectSpan:
    """One placeable object's identity and address range."""

    oid: int
    name: str
    base: int
    size: int


@dataclass
class PolicyContext:
    """Everything a bound policy may consult while it runs.

    A position ``i`` in :attr:`pool`, :attr:`wear` and the hooks' ``pos``
    arguments names the object page ``pages[i]``. Only
    :meth:`PlacementPolicy.prepare` sees :attr:`page_map`: the evaluator
    then reads the placement into :attr:`pool` once and detaches the map,
    so every later decision reads and moves the live arrays.
    """

    #: the map ``prepare()`` fills; ``None`` once the run starts
    page_map: PageMap | None
    device: MemoryTechnology
    objects: tuple[ObjectSpan, ...]
    #: tolerated writes per NVM page over the evaluated window; policies
    #: that respect it keep ``wear.max() <= endurance_budget``
    endurance_budget: int
    rng: np.random.Generator
    #: the page index: sorted ``uint64`` page numbers of the objects
    pages: np.ndarray
    page_bytes: int = 4096
    dram: MemoryTechnology = DRAM_DDR3
    #: NV-SCAVENGER classifications, when the caller ran the analyzers
    #: (oracle-style policies require them; others may ignore them)
    classified: list[Classified] | None = None
    n_iterations: int = 10
    #: ``int8`` :class:`MemoryPool` value per indexed page
    pool: np.ndarray = field(init=False)
    #: ``int64`` accumulated NVM writes per indexed page, maintained by
    #: the evaluator (reference writes) and by
    #: :meth:`PlacementPolicy.migrate` (fills)
    wear: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.pool = np.zeros(len(self.pages), dtype=np.int8)
        self.wear = np.zeros(len(self.pages), dtype=np.int64)


class PlacementPolicy(ABC):
    """ABC for placement/migration policies.

    Subclasses set :attr:`name` (the registry key) and :attr:`summary`,
    accept their knobs in ``__init__`` (forwarding them to
    ``super().__init__(**knobs)`` so :meth:`params` reports the canonical
    parameterization that keys sweep cells), and implement
    :meth:`prepare` plus whichever hooks they need.
    """

    #: registry key (kebab-free snake_case; stable across releases)
    name: str = ""
    #: one-line description for ``nvscavenger policies ls``
    summary: str = ""

    def __init__(self, **params) -> None:
        self._params = {k: params[k] for k in sorted(params)}
        self.ctx: PolicyContext | None = None
        self.to_dram = 0
        self.to_nvram = 0
        self.bytes_moved = 0

    # ------------------------------------------------------------------
    def params(self) -> dict:
        """Canonical parameter dict (sorted keys; cell-key input)."""
        return dict(self._params)

    def bind(self, ctx: PolicyContext) -> None:
        """Attach to a fresh context and lay down the initial placement."""
        self.ctx = ctx
        self.to_dram = self.to_nvram = self.bytes_moved = 0
        self.prepare()

    # -------------------------------------------------- decision hooks
    #
    # A batch reaches the hooks as three parallel arrays: ``pos``, the
    # sorted int32 index positions of the object pages it references,
    # and ``writes`` / ``reads``, its int64 store / load counts per page.
    # References to pages off the index (stacks) are DRAM traffic no
    # policy can move, so the hooks never see them. The arrays are
    # shared by every cell over the trace and are read-only.

    @abstractmethod
    def prepare(self) -> None:
        """Initial placement into ``self.ctx.page_map``."""

    def pre_access(self, pos: np.ndarray, writes: np.ndarray,
                   reads: np.ndarray) -> None:
        """Called before the batch is charged to the pools — the only
        hook that can act ahead of traffic (endurance guards)."""

    def observe(self, pos: np.ndarray, writes: np.ndarray,
                reads: np.ndarray) -> None:
        """Called after the batch is charged; accumulate statistics here."""

    def end_epoch(self, iteration: int) -> None:
        """Called at each iteration boundary; issue migrations here."""

    # ----------------------------------------------------- helpers
    def place_all(self, pool: MemoryPool) -> None:
        """Map every object span to *pool*."""
        assert self.ctx is not None
        for obj in self.ctx.objects:
            self.ctx.page_map.assign_range(obj.base, obj.size, pool)

    def migrate(self, pos: np.ndarray, pool: MemoryPool) -> np.ndarray:
        """Move the pages at the (unique) index positions *pos* to
        *pool*, with the accounting every policy shares: a promotion or
        demotion copies ``page_bytes``, and a page filled into NVM wears
        its cells once. Pages already in *pool* are skipped; returns the
        positions that moved."""
        assert self.ctx is not None
        ctx = self.ctx
        pos = np.asarray(pos)
        moved = pos[ctx.pool[pos] != pool]
        ctx.pool[moved] = pool
        if pool is MemoryPool.NVRAM:
            self.to_nvram += len(moved)
            ctx.wear[moved] += 1
        else:
            self.to_dram += len(moved)
        self.bytes_moved += len(moved) * ctx.page_bytes
        return moved

    @property
    def migrations(self) -> int:
        return self.to_dram + self.to_nvram

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = ", ".join(f"{k}={v!r}" for k, v in self._params.items())
        return f"{type(self).__name__}({kv})"
