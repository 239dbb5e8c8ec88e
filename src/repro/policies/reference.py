"""Scalar reference implementation of policy evaluation.

This is the original dict-based evaluator and the five decision rules,
written as per-page Python loops over a live
:class:`~repro.hybrid.pagemap.PageMap`: every batch is charged through
``PageMap.pool_of_batch``, wear is a ``{page: writes}`` dict, and each
policy walks its ``{page: score}`` dicts in sorted order at every epoch
boundary. The production path (:mod:`repro.policies.eval`,
:mod:`repro.policies.zoo`) evaluates the same rules as array
expressions over a page index built once per trace; this implementation
is kept as the ground truth for differential testing
(``tests/test_policy_eval_oracle.py`` requires identical rows for every
sweep cell and for generated traces). Only tests import it.

Policies here are not registered in :data:`repro.policies.POLICIES`;
:func:`create_policy` resolves them from this module's own
:data:`POLICIES` by the same names and params.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PolicyError
from repro.hybrid.energy import access_energy_nj
from repro.hybrid.pagemap import MemoryPool, PageMap
from repro.hybrid.placement import StaticPlacer
from repro.nvram.technology import DRAM_DDR3, MemoryTechnology
from repro.policies.base import ObjectSpan
from repro.policies.eval import LINE_BYTES, PolicyCellStats
from repro.scavenger.classify import Classified
from repro.trace.record import RefBatch
from repro.util.rng import make_rng
from repro.util.units import GiB


@dataclass
class PolicyContext:
    """Everything a bound policy may consult while it runs."""

    page_map: PageMap
    device: MemoryTechnology
    objects: tuple[ObjectSpan, ...]
    #: tolerated writes per NVM page over the evaluated window; policies
    #: that respect it keep ``max(wear.values()) <= endurance_budget``
    endurance_budget: int
    rng: np.random.Generator
    dram: MemoryTechnology = DRAM_DDR3
    #: NV-SCAVENGER classifications, when the caller ran the analyzers
    #: (oracle-style policies require them; others may ignore them)
    classified: list[Classified] | None = None
    #: page -> accumulated NVM write count, maintained by the evaluator
    #: (reference writes) and by :meth:`PlacementPolicy.migrate` (fills)
    wear: dict[int, int] = field(default_factory=dict)
    n_iterations: int = 10

    @property
    def page_bytes(self) -> int:
        return self.page_map.page_bytes


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
    @abstractmethod
    def prepare(self) -> None:
        """Initial placement into ``self.ctx.page_map``."""

    def pre_access(self, batch: RefBatch) -> None:
        """Called before *batch* is charged to the pools — the only hook
        that can act ahead of traffic (endurance guards)."""

    def observe(self, batch: RefBatch) -> None:
        """Called after *batch* is charged; accumulate statistics here."""

    def end_epoch(self, iteration: int) -> None:
        """Called at each iteration boundary; issue migrations here."""

    # ----------------------------------------------------- helpers
    def place_all(self, pool: MemoryPool) -> None:
        """Map every object span to *pool*."""
        assert self.ctx is not None
        for obj in self.ctx.objects:
            self.ctx.page_map.assign_range(obj.base, obj.size, pool)

    def migrate(self, page: int, pool: MemoryPool) -> bool:
        """Move one page, with the accounting every policy shares: a
        promotion/demotion copies ``page_bytes``, and a page filled into
        NVM wears its cells once."""
        assert self.ctx is not None
        pm = self.ctx.page_map
        if not pm.migrate_page(int(page), pool):
            return False
        if pool is MemoryPool.NVRAM:
            self.to_nvram += 1
            self.ctx.wear[int(page)] = self.ctx.wear.get(int(page), 0) + 1
        else:
            self.to_dram += 1
        self.bytes_moved += pm.page_bytes
        return True

    @property
    def migrations(self) -> int:
        return self.to_dram + self.to_nvram

    # ------------------------------------------------------------------
    @staticmethod
    def page_counts(addrs: np.ndarray, page_bytes: int) -> tuple[list[int], list[int]]:
        """(pages, counts) of the given addresses, page-sorted."""
        if len(addrs) == 0:
            return [], []
        shift = np.uint64(page_bytes.bit_length() - 1)
        uniq, counts = np.unique(np.asarray(addrs, np.uint64) >> shift,
                                 return_counts=True)
        return [int(p) for p in uniq.tolist()], [int(c) for c in counts.tolist()]

    @classmethod
    def write_pages(cls, batch: RefBatch, page_bytes: int) -> tuple[list[int], list[int]]:
        """(pages, counts) of the batch's store references, page-sorted."""
        return cls.page_counts(batch.addr[batch.is_write], page_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = ", ".join(f"{k}={v!r}" for k, v in self._params.items())
        return f"{type(self).__name__}({kv})"


class NoMigration(PlacementPolicy):
    """Everything in one pool, never moved — the sweep's baseline."""

    name = "no_migration"
    summary = "all objects in NVM (or DRAM), no movement"

    def __init__(self, home: str = "nvram") -> None:
        if home not in ("nvram", "dram"):
            raise PolicyError(f"home must be 'nvram' or 'dram', got {home!r}")
        super().__init__(home=home)
        self.home = home

    def prepare(self) -> None:
        self.place_all(
            MemoryPool.NVRAM if self.home == "nvram" else MemoryPool.DRAM)


class StaticOracle(PlacementPolicy):
    """The paper's plan: NV-SCAVENGER classifications through
    :class:`~repro.hybrid.placement.StaticPlacer`, frozen for the run."""

    name = "static_oracle"
    summary = "NV-SCAVENGER static plan (classification-driven, no movement)"

    def __init__(self, capacity_fraction: float | None = None) -> None:
        if capacity_fraction is not None and not (0 < capacity_fraction <= 1):
            raise PolicyError("capacity_fraction must be in (0, 1]")
        super().__init__(capacity_fraction=capacity_fraction)
        self.capacity_fraction = capacity_fraction

    def prepare(self) -> None:
        ctx = self.ctx
        if ctx.classified is None:
            raise PolicyError(
                "static_oracle needs NV-SCAVENGER classifications; "
                "evaluate with classified=...")
        capacity = None
        if self.capacity_fraction is not None:
            capacity = int(self.capacity_fraction
                           * sum(o.size for o in ctx.objects))
        StaticPlacer(ctx.device, capacity).place(ctx.classified, ctx.page_map)


class ThresholdMigration(PlacementPolicy):
    """Reactive hot-page promotion with hysteresis.

    Start everything in NVM; promote a page to DRAM once its decayed
    write score crosses ``write_hot``; demote a promoted page back only
    when its write score has fully cooled *and* it is still being read
    (hysteresis keeps ping-pong fills off the NVM write budget).
    """

    name = "threshold"
    summary = "promote write-hot pages to DRAM; demote on hysteresis cooldown"

    def __init__(self, write_hot: float = 8.0, hysteresis: float = 0.25,
                 decay: float = 0.5) -> None:
        if write_hot <= 0 or not (0 <= hysteresis < 1) or not (0 <= decay < 1):
            raise PolicyError(
                "need write_hot > 0, hysteresis in [0,1), decay in [0,1)")
        super().__init__(write_hot=write_hot, hysteresis=hysteresis, decay=decay)
        self.write_hot = write_hot
        self.hysteresis = hysteresis
        self.decay = decay
        self._w: dict[int, float] = {}
        self._r: dict[int, float] = {}
        self._promoted: set[int] = set()

    def bind(self, ctx) -> None:
        self._w.clear()
        self._r.clear()
        self._promoted.clear()
        super().bind(ctx)

    def prepare(self) -> None:
        self.place_all(MemoryPool.NVRAM)

    def observe(self, batch: RefBatch) -> None:
        pb = self.ctx.page_bytes
        for page, count in zip(*self.page_counts(batch.addr[batch.is_write], pb)):
            self._w[page] = self._w.get(page, 0.0) + count
        for page, count in zip(*self.page_counts(batch.addr[~batch.is_write], pb)):
            self._r[page] = self._r.get(page, 0.0) + count

    def end_epoch(self, iteration: int) -> None:
        pm = self.ctx.page_map
        for page in sorted(set(self._w) | set(self._r)):
            w = self._w.get(page, 0.0)
            r = self._r.get(page, 0.0)
            if w >= self.write_hot and pm.pool_of_page(page) is MemoryPool.NVRAM:
                if self.migrate(page, MemoryPool.DRAM):
                    self._promoted.add(page)
            elif (page in self._promoted and w <= self.write_hot * self.hysteresis
                  and w < 1.0 and r > 0.0):
                if self.migrate(page, MemoryPool.NVRAM):
                    self._promoted.discard(page)
        for score in (self._w, self._r):
            for page in list(score):
                score[page] *= self.decay
                if score[page] < 1e-6:
                    del score[page]


class PredictiveMigration(PlacementPolicy):
    """EWMA write-rate prediction over epoch windows.

    Each epoch folds the window's per-page write count into an
    exponentially-weighted moving average; pages whose *predicted* next
    window crosses ``write_hot`` are promoted ahead of the traffic,
    pages predicted to cool below ``write_hot * demote_margin`` are
    returned to NVM.
    """

    name = "predictive"
    summary = "EWMA write-rate prediction; promote/demote on forecast"

    def __init__(self, alpha: float = 0.6, write_hot: float = 6.0,
                 demote_margin: float = 0.25) -> None:
        if not (0 < alpha <= 1) or write_hot <= 0 or not (0 <= demote_margin < 1):
            raise PolicyError(
                "need alpha in (0,1], write_hot > 0, demote_margin in [0,1)")
        super().__init__(alpha=alpha, write_hot=write_hot,
                         demote_margin=demote_margin)
        self.alpha = alpha
        self.write_hot = write_hot
        self.demote_margin = demote_margin
        self._epoch_w: dict[int, int] = {}
        self._ewma: dict[int, float] = {}
        self._promoted: set[int] = set()

    def bind(self, ctx) -> None:
        self._epoch_w.clear()
        self._ewma.clear()
        self._promoted.clear()
        super().bind(ctx)

    def prepare(self) -> None:
        self.place_all(MemoryPool.NVRAM)

    def observe(self, batch: RefBatch) -> None:
        for page, count in zip(*self.write_pages(batch, self.ctx.page_bytes)):
            self._epoch_w[page] = self._epoch_w.get(page, 0) + count

    def end_epoch(self, iteration: int) -> None:
        pm = self.ctx.page_map
        for page in sorted(set(self._ewma) | set(self._epoch_w)):
            count = self._epoch_w.get(page, 0)
            pred = (self.alpha * count
                    + (1.0 - self.alpha) * self._ewma.get(page, 0.0))
            if pred < 1e-3:
                self._ewma.pop(page, None)
            else:
                self._ewma[page] = pred
            if pred >= self.write_hot:
                if (pm.pool_of_page(page) is MemoryPool.NVRAM
                        and self.migrate(page, MemoryPool.DRAM)):
                    self._promoted.add(page)
            elif (pred < self.write_hot * self.demote_margin
                  and page in self._promoted):
                if self.migrate(page, MemoryPool.NVRAM):
                    self._promoted.discard(page)
        self._epoch_w.clear()


class EnduranceAware(PlacementPolicy):
    """Wear-budgeted placement.

    Threshold-style promotion keeps write-hot pages out of NVM for
    performance, and a hard pre-access guard demotes any NVM page whose
    accumulated wear plus the incoming batch would exceed the per-page
    endurance budget — so ``max_page_wear <= endurance_budget`` is an
    invariant of this policy, not a tendency.
    """

    name = "endurance_aware"
    summary = "wear-budgeted: demote before any page can exceed its endurance budget"

    def __init__(self, write_hot: float = 8.0, decay: float = 0.5) -> None:
        if write_hot <= 0 or not (0 <= decay < 1):
            raise PolicyError("need write_hot > 0 and decay in [0,1)")
        super().__init__(write_hot=write_hot, decay=decay)
        self.write_hot = write_hot
        self.decay = decay
        self._w: dict[int, float] = {}

    def bind(self, ctx) -> None:
        self._w.clear()
        super().bind(ctx)

    def prepare(self) -> None:
        self.place_all(MemoryPool.NVRAM)

    def pre_access(self, batch: RefBatch) -> None:
        ctx = self.ctx
        pm = ctx.page_map
        budget = ctx.endurance_budget
        for page, count in zip(*self.write_pages(batch, ctx.page_bytes)):
            if (pm.pool_of_page(page) is MemoryPool.NVRAM
                    and ctx.wear.get(page, 0) + count > budget):
                self.migrate(page, MemoryPool.DRAM)

    def observe(self, batch: RefBatch) -> None:
        for page, count in zip(*self.write_pages(batch, self.ctx.page_bytes)):
            self._w[page] = self._w.get(page, 0.0) + count

    def end_epoch(self, iteration: int) -> None:
        pm = self.ctx.page_map
        for page in sorted(self._w):
            if (self._w[page] >= self.write_hot
                    and pm.pool_of_page(page) is MemoryPool.NVRAM):
                self.migrate(page, MemoryPool.DRAM)
        for page in list(self._w):
            self._w[page] *= self.decay
            if self._w[page] < 1e-6:
                del self._w[page]


def evaluate_policy(
    policy: PlacementPolicy,
    trace: list[RefBatch],
    objects: list[ObjectSpan],
    device: MemoryTechnology,
    endurance_budget: int,
    *,
    classified=None,
    dram: MemoryTechnology = DRAM_DDR3,
    page_bytes: int = 4096,
    seed: int = 0,
    workload: str = "?",
    n_iterations: int = 10,
) -> PolicyCellStats:
    """Run *policy* over *trace* and account one sweep cell.

    Pure and deterministic: same (trace, policy params, device, budget,
    seed) always yields an identical :class:`PolicyCellStats`.
    """
    page_map = PageMap(page_bytes)
    ctx = PolicyContext(
        page_map=page_map,
        device=device,
        dram=dram,
        objects=tuple(objects),
        classified=classified,
        endurance_budget=int(endurance_budget),
        rng=make_rng(seed),
        n_iterations=n_iterations,
    )
    policy.bind(ctx)

    stats = PolicyCellStats(
        policy=policy.name, workload=workload, device=device.name,
        endurance_budget=int(endurance_budget), params=policy.params())
    shift = np.uint64(page_bytes.bit_length() - 1)
    epoch = None
    for batch in trace:
        if len(batch) == 0:
            continue
        if epoch is None:
            epoch = batch.iteration
        elif batch.iteration != epoch:
            policy.end_epoch(epoch)
            epoch = batch.iteration
        policy.pre_access(batch)
        pools = page_map.pool_of_batch(batch.addr)
        in_nv = pools == int(MemoryPool.NVRAM)
        w = batch.is_write
        nv_w_mask = in_nv & w
        stats.accesses += len(batch)
        stats.nvm_reads += int((in_nv & ~w).sum())
        nv_w = int(nv_w_mask.sum())
        stats.nvm_writes += nv_w
        stats.dram_accesses += int((~in_nv).sum())
        if nv_w:
            pages = batch.addr[nv_w_mask] >> shift
            uniq, counts = np.unique(pages, return_counts=True)
            for p, c in zip(uniq.tolist(), counts.tolist()):
                ctx.wear[int(p)] = ctx.wear.get(int(p), 0) + int(c)
        policy.observe(batch)
    if epoch is not None:
        policy.end_epoch(epoch)

    stats.to_dram = policy.to_dram
    stats.to_nvram = policy.to_nvram
    stats.bytes_moved = policy.bytes_moved
    lines_per_page = page_bytes // LINE_BYTES
    stats.nvm_fill_writes = policy.to_nvram * lines_per_page
    stats.max_page_wear = max(ctx.wear.values(), default=0)

    # residency: object bytes not mapped to NVM live in DRAM (unmapped
    # pages — stacks — are DRAM by definition and excluded here)
    total_bytes = sum(o.size for o in objects)
    stats.nvram_resident_bytes = page_map.bytes_in_pool(MemoryPool.NVRAM)
    stats.dram_resident_bytes = max(0, total_bytes - stats.nvram_resident_bytes)

    # latency: posted NVM writes and all DRAM traffic at DRAM latency
    stats.latency_ns = (stats.nvm_reads * device.read_latency_ns
                        + (stats.nvm_writes + stats.dram_accesses)
                        * dram.read_latency_ns)

    # energy: references + migration copies (each copied page is read
    # from its source and written to its destination in 64 B lines)
    dram_reads = stats.dram_accesses  # symmetric DRAM burst power
    energy = access_energy_nj(device, stats.nvm_reads, stats.nvm_writes)
    energy += access_energy_nj(dram, dram_reads, 0)
    energy += access_energy_nj(device, policy.to_dram * lines_per_page,
                               policy.to_nvram * lines_per_page)
    energy += access_energy_nj(dram, policy.to_nvram * lines_per_page,
                               policy.to_dram * lines_per_page)
    standby_mw = 180.0 * stats.dram_resident_bytes / GiB
    energy += standby_mw * stats.latency_ns / 1e3
    stats.energy_nj = energy

    # all-DRAM baseline: same references, everything at DRAM cost
    total_writes = int(sum(int(b.is_write.sum()) for b in trace))
    total_reads = stats.accesses - total_writes
    base_latency = stats.accesses * dram.read_latency_ns
    base = access_energy_nj(dram, total_reads, total_writes)
    base += 180.0 * total_bytes / GiB * base_latency / 1e3
    stats.baseline_energy_nj = base
    return stats


#: name -> reference policy class (the production registry's names)
POLICIES: dict[str, type[PlacementPolicy]] = {
    cls.name: cls for cls in (NoMigration, StaticOracle, ThresholdMigration,
                              PredictiveMigration, EnduranceAware)
}


def create_policy(name: str, **params) -> PlacementPolicy:
    """Instantiate the reference version of a registered policy."""
    cls = POLICIES.get(name)
    if cls is None:
        raise PolicyError(f"unknown policy {name!r}; know {sorted(POLICIES)}")
    return cls(**params)
