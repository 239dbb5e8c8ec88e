"""The concrete policies.

Six strategies spanning the design space the related work argues about:
a do-nothing baseline, the paper's static NV-SCAVENGER plan, reactive
threshold migration with hysteresis, EWMA-predictive migration, a
wear-budgeted endurance guard, and Ramos-style dynamic page migration.
Each is ~30 lines: the ABC carries the shared accounting, a policy only
encodes its decision rule — as array expressions over the page index,
one score slot per object page. Every page's decision depends only on
its own scores, pool and wear (a migration budget only picks which pages
are decided), so a rule applied to the whole index at once decides
exactly what a page-by-page walk would.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PolicyError
from repro.hybrid.pagemap import MemoryPool
from repro.hybrid.placement import StaticPlacer
from repro.policies.base import PlacementPolicy
from repro.policies.registry import register_policy


@register_policy
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


@register_policy
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


@register_policy
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

    def bind(self, ctx) -> None:
        n = len(ctx.pages)
        self._w = np.zeros(n)
        self._r = np.zeros(n)
        self._promoted = np.zeros(n, dtype=bool)
        super().bind(ctx)

    def prepare(self) -> None:
        self.place_all(MemoryPool.NVRAM)

    def observe(self, pos, writes, reads) -> None:
        self._w[pos] += writes
        self._r[pos] += reads

    def end_epoch(self, iteration: int) -> None:
        w, r = self._w, self._r
        promote = (w >= self.write_hot) & (self.ctx.pool == MemoryPool.NVRAM)
        # a page is demoted only when it is not being promoted
        demote = (~promote & self._promoted
                  & (w <= self.write_hot * self.hysteresis) & (w < 1.0)
                  & (r > 0.0))
        self._promoted[self.migrate(np.flatnonzero(promote), MemoryPool.DRAM)] = True
        self._promoted[self.migrate(np.flatnonzero(demote), MemoryPool.NVRAM)] = False
        for score in (w, r):
            score *= self.decay
            score[score < 1e-6] = 0.0


@register_policy
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

    def bind(self, ctx) -> None:
        n = len(ctx.pages)
        self._epoch_w = np.zeros(n, dtype=np.int64)
        #: the forecast map: 0.0 marks a page without a forecast
        self._ewma = np.zeros(n)
        self._promoted = np.zeros(n, dtype=bool)
        super().bind(ctx)

    def prepare(self) -> None:
        self.place_all(MemoryPool.NVRAM)

    def observe(self, pos, writes, reads) -> None:
        self._epoch_w[pos] += writes

    def end_epoch(self, iteration: int) -> None:
        count = self._epoch_w
        pred = self.alpha * count + (1.0 - self.alpha) * self._ewma
        # only pages with a forecast or writes this epoch are decided: a
        # page that left the forecast map stays put until written again
        live = (self._ewma > 0.0) | (count > 0)
        hot = live & (pred >= self.write_hot)
        promote = hot & (self.ctx.pool == MemoryPool.NVRAM)
        # a forecast dropping below 1e-3 leaves the map in this same step,
        # and the page can still be demoted on it
        demote = (live & ~hot & (pred < self.write_hot * self.demote_margin)
                  & self._promoted)
        self._ewma = np.where(pred < 1e-3, 0.0, pred)
        self._promoted[self.migrate(np.flatnonzero(promote), MemoryPool.DRAM)] = True
        self._promoted[self.migrate(np.flatnonzero(demote), MemoryPool.NVRAM)] = False
        count[:] = 0


@register_policy
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

    def bind(self, ctx) -> None:
        self._w = np.zeros(len(ctx.pages))
        super().bind(ctx)

    def prepare(self) -> None:
        self.place_all(MemoryPool.NVRAM)

    def pre_access(self, pos, writes, reads) -> None:
        ctx = self.ctx
        over = ((writes > 0) & (ctx.pool[pos] == MemoryPool.NVRAM)
                & (ctx.wear[pos] + writes > ctx.endurance_budget))
        self.migrate(pos[over], MemoryPool.DRAM)

    def observe(self, pos, writes, reads) -> None:
        self._w[pos] += writes

    def end_epoch(self, iteration: int) -> None:
        self.migrate(np.flatnonzero(
            (self._w >= self.write_hot) & (self.ctx.pool == MemoryPool.NVRAM)), MemoryPool.DRAM)
        self._w *= self.decay
        self._w[self._w < 1e-6] = 0.0


@register_policy
class RamosMigration(PlacementPolicy):
    """Dynamic page migration after Ramos, Gorbatov & Bianchini.

    The memory controller monitors each page's write intensity and
    popularity as exponentially decayed scores; at every epoch boundary
    it moves frequently-written pages to DRAM and read-popular or
    read-only pages to NVM — the dynamic counterpart the paper's §VII-C
    variance analysis argues is mostly unnecessary. A bounded migration
    engine (``max_migrations_per_epoch``) decides only a seeded sample of
    the epoch's candidates, score-agnostic like a controller scanning a
    window.
    """

    name = "ramos"
    summary = "Ramos-style monitor: write-hot pages to DRAM, read-popular/read-only to NVM"

    def __init__(self, write_hot: float = 64.0, read_popular: float = 256.0,
                 decay: float = 0.5,
                 max_migrations_per_epoch: int | None = None) -> None:
        if not (0 <= decay < 1):
            raise PolicyError("decay must be in [0, 1)")
        if write_hot <= 0 or read_popular <= 0:
            raise PolicyError("thresholds must be positive")
        if max_migrations_per_epoch is not None and max_migrations_per_epoch < 0:
            raise PolicyError("max_migrations_per_epoch must be >= 0")
        super().__init__(write_hot=write_hot, read_popular=read_popular,
                         decay=decay,
                         max_migrations_per_epoch=max_migrations_per_epoch)
        self.write_hot = write_hot
        self.read_popular = read_popular
        self.decay = decay
        self.max_migrations_per_epoch = max_migrations_per_epoch

    def bind(self, ctx) -> None:
        n = len(ctx.pages)
        self._w = np.zeros(n)
        self._r = np.zeros(n)
        super().bind(ctx)

    def prepare(self) -> None:
        self.place_all(MemoryPool.NVRAM)

    def observe(self, pos, writes, reads) -> None:
        self._w[pos] += writes
        self._r[pos] += reads

    def end_epoch(self, iteration: int) -> None:
        w, r = self._w, self._r
        # index order is page order, so one seed samples the same pages
        # as a sorted walk over the scored pages would
        cand = np.flatnonzero((w > 0) | (r > 0))
        budget = self.max_migrations_per_epoch
        if budget is not None and len(cand) > budget:
            cand = cand[self.ctx.rng.choice(len(cand), size=budget, replace=False)]
        wc, rc = w[cand], r[cand]
        hot = wc >= self.write_hot
        cold = ~hot & ((rc >= self.read_popular) | ((rc > 0) & (wc == 0)))
        self.migrate(cand[hot], MemoryPool.DRAM)
        self.migrate(cand[cold], MemoryPool.NVRAM)
        for score in (w, r):
            score *= self.decay
            score[score < 1e-6] = 0.0
