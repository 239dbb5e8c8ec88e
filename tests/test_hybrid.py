"""Hybrid memory: page map, static placement, migration, energy."""

import numpy as np
import pytest

from repro.errors import PlacementError, PolicyError
from repro.hybrid.energy import HybridEnergyModel
from repro.hybrid.pagemap import MemoryPool, PageMap
from repro.hybrid.placement import PlacementPlan, StaticPlacer
from repro.memory.object import ObjectKind
from repro.nvram.technology import DRAM_DDR3, PCRAM, STTRAM
from repro.policies import ObjectSpan, create_policy, evaluate_policy
from repro.scavenger.classify import classify_objects
from repro.scavenger.config import ScavengerConfig
from repro.scavenger.metrics import ObjectMetrics
from repro.trace.record import AccessType, RefBatch


def make_metrics(oid, reads, writes, size=4096, touched=10, write_share=0.0):
    return ObjectMetrics(
        oid=oid, name=f"o{oid}", kind=ObjectKind.GLOBAL, size=size,
        base=0x100000 + oid * 0x10000, reads=reads, writes=writes,
        reference_rate=0.0, write_share=write_share,
        reads_per_iter=np.zeros(11, np.int64),
        writes_per_iter=np.zeros(11, np.int64),
        iterations_touched=touched,
    )


class TestPageMap:
    def test_default_pool_is_dram(self):
        pm = PageMap()
        assert pm.pool_of(0x1234) is MemoryPool.DRAM

    def test_assign_range(self):
        pm = PageMap(page_bytes=4096)
        n = pm.assign_range(0x10000, 3 * 4096, MemoryPool.NVRAM)
        assert n == 3
        assert pm.pool_of(0x10000) is MemoryPool.NVRAM
        assert pm.pool_of(0x10000 + 3 * 4096) is MemoryPool.DRAM

    def test_partial_page_rounds_up(self):
        pm = PageMap(page_bytes=4096)
        assert pm.assign_range(0x1000, 1, MemoryPool.NVRAM) == 1

    def test_migrate_counts_only_changes(self):
        pm = PageMap()
        pm.assign_range(0, 4096, MemoryPool.DRAM)
        assert not pm.migrate_page(0, MemoryPool.DRAM)
        assert pm.migrate_page(0, MemoryPool.NVRAM)
        assert pm.migrations == 1

    def test_pool_of_batch_matches_scalar(self):
        pm = PageMap(page_bytes=4096)
        pm.assign_range(0x10000, 8192, MemoryPool.NVRAM)
        addrs = np.array([0x0, 0x10000, 0x11000, 0x12000, 0x20000], dtype=np.uint64)
        out = pm.pool_of_batch(addrs)
        expected = [int(pm.pool_of(int(a))) for a in addrs]
        assert out.tolist() == expected

    def test_bytes_in_pool(self):
        pm = PageMap(page_bytes=4096)
        pm.assign_range(0, 2 * 4096, MemoryPool.NVRAM)
        assert pm.bytes_in_pool(MemoryPool.NVRAM) == 8192

    def test_invalid_page_size(self):
        with pytest.raises(PlacementError):
            PageMap(page_bytes=1000)

    def test_zero_size_range_owns_no_pages(self):
        pm = PageMap(page_bytes=4096)
        assert pm.pages_of_range(0x1000, 0).size == 0
        assert pm.assign_range(0x1000, 0, MemoryPool.NVRAM) == 0
        assert pm.mapped_pages == 0
        assert pm.pages_of_range(0x1000, -5).size == 0

    def test_exact_page_boundary_is_one_page(self):
        pm = PageMap(page_bytes=4096)
        # [0, 4096) ends exactly at the boundary: page 1 is NOT covered
        assert pm.pages_of_range(0, 4096).tolist() == [0]
        assert pm.pages_of_range(4095, 2).tolist() == [0, 1]

    def test_range_straddling_last_page_of_address_space(self):
        pm = PageMap(page_bytes=4096)
        base = (1 << 64) - 4096  # the final page
        pages = pm.pages_of_range(base, 4096)
        assert pages.tolist() == [(1 << 64) // 4096 - 1]
        assert pm.assign_range(base, 4096, MemoryPool.NVRAM) == 1
        assert pm.pool_of(base) is MemoryPool.NVRAM

    def test_pool_of_batch_at_top_of_address_space(self):
        pm = PageMap(page_bytes=4096)
        top = (1 << 64) - 4096
        pm.assign_range(top, 4096, MemoryPool.NVRAM)
        pm.assign_range(0, 4096, MemoryPool.NVRAM)
        addrs = np.array([0, 4096, top, top + 64], dtype=np.uint64)
        out = pm.pool_of_batch(addrs)
        assert out.tolist() == [int(pm.pool_of(int(a))) for a in addrs]

    def test_pool_of_page(self):
        pm = PageMap(page_bytes=4096)
        pm.assign_range(0x2000, 4096, MemoryPool.NVRAM)
        assert pm.pool_of_page(2) is MemoryPool.NVRAM
        assert pm.pool_of_page(0) is MemoryPool.DRAM  # unmapped default
        assert pm.pool_of_page(np.uint64(2)) is MemoryPool.NVRAM


class TestStaticPlacer:
    CFG = ScavengerConfig()

    def classified(self):
        rows = [
            make_metrics(0, reads=100, writes=0, size=1000),  # read-only
            make_metrics(1, reads=1000, writes=5, size=2000),  # high rw
            make_metrics(2, reads=100, writes=50, size=4000),  # read-leaning
            make_metrics(3, reads=10, writes=100, size=8000),  # write-heavy
        ]
        return rows, classify_objects(rows, self.CFG)

    def test_category1_admits_only_writeless_objects(self):
        _, classified = self.classified()
        plan = StaticPlacer(PCRAM).place(classified)
        # only the read-only object (oid 0) qualifies for category 1
        assert set(plan.nvram_oids) == {0}
        assert plan.nvram_bytes == 1000
        assert plan.nvram_fraction == pytest.approx(1000 / 15000)

    def test_category2_admits_read_leaning(self):
        _, classified = self.classified()
        plan = StaticPlacer(STTRAM).place(classified)
        assert set(plan.nvram_oids) == {0, 1, 2}
        assert 3 in plan.dram_oids

    def test_capacity_spill_largest_first(self):
        _, classified = self.classified()
        plan = StaticPlacer(STTRAM, nvram_capacity=4000).place(classified)
        # largest eligible (oid 2, 4000B) fits; the rest spill
        assert plan.nvram_oids == [2]
        assert set(plan.spilled_oids) == {0, 1}

    def test_page_map_materialization(self):
        rows, classified = self.classified()
        pm = PageMap()
        StaticPlacer(STTRAM).place(classified, page_map=pm)
        assert pm.pool_of(rows[0].base) is MemoryPool.NVRAM
        assert pm.pool_of(rows[3].base) is MemoryPool.DRAM

    def test_dram_tech_rejected(self):
        with pytest.raises(PlacementError):
            StaticPlacer(DRAM_DDR3)


class TestDynamicMigrator:
    """Ramos-style dynamic migration: the ``ramos`` registry policy,
    evaluated over hand-built traces on one object spanning the pages."""

    def batch(self, pages, write=False, iteration=0):
        addrs = np.asarray(pages, dtype=np.uint64) * 4096
        return RefBatch.from_access(addrs, AccessType.WRITE if write else AccessType.READ,
                                    iteration=iteration)

    def run(self, n_pages, epochs, seed=0, **params):
        """Evaluate ``ramos`` (all object pages start in NVM) over
        *epochs*, one list of ``(pages, write)`` pairs per epoch."""
        trace = [self.batch(pages, write, iteration)
                 for iteration, epoch in enumerate(epochs)
                 for pages, write in epoch]
        objects = [ObjectSpan(0, "array", 0, n_pages * 4096)]
        return evaluate_policy(create_policy("ramos", **params), trace, objects,
                               PCRAM, 1_000_000, seed=seed)

    def test_write_hot_page_moves_to_dram(self):
        s = self.run(10, [[([3] * 20, True)]], write_hot=10, read_popular=100)
        assert (s.to_dram, s.to_nvram) == (1, 0)
        assert s.nvram_resident_bytes == 9 * 4096

    def test_read_only_page_moves_to_nvram(self):
        # promoted by its writes, then forgotten (decay 0) and only read
        s = self.run(10, [[([5] * 20, True)], [([5] * 7, False)]],
                     write_hot=10, read_popular=100, decay=0.0)
        assert (s.to_dram, s.to_nvram) == (1, 1)
        assert s.nvram_resident_bytes == 10 * 4096

    def test_decay_forgets_history(self):
        epochs = [[([1] * 10, True)], [([1] * 10, True)]]
        # 10 decays to 5, and 5 + 10 = 15 < 16
        assert self.run(4, epochs, write_hot=16, decay=0.5).to_dram == 0
        # 10 decays to 9, and 9 + 10 = 19 >= 16
        assert self.run(4, epochs, write_hot=16, decay=0.9).to_dram == 1

    def test_stats(self):
        s = self.run(2, [[([0, 1], True)]], write_hot=1, read_popular=1)
        assert s.to_dram == 2
        assert s.migrations == 2
        assert s.bytes_moved == 2 * 4096

    def test_invalid(self):
        with pytest.raises(PolicyError):
            create_policy("ramos", decay=1.0)
        with pytest.raises(PolicyError):
            create_policy("ramos", write_hot=0)
        with pytest.raises(PolicyError):
            create_policy("ramos", max_migrations_per_epoch=-1)

    def run_epochs(self, seed):
        """Three epochs of mixed traffic through a budgeted monitor."""
        rng = np.random.default_rng(99)  # traffic fixed; only *seed* varies
        epochs = [[(rng.integers(0, 64, 200), True), (rng.integers(0, 64, 200), False)]
                  for _ in range(3)]
        return self.run(64, epochs, seed=seed, write_hot=4, read_popular=4,
                        max_migrations_per_epoch=8).as_row()

    def test_same_seed_identical_stats(self):
        assert self.run_epochs(seed=0) == self.run_epochs(seed=0)

    def test_budget_caps_each_epoch(self):
        s = self.run(32, [[(list(range(32)) * 3, True)]], write_hot=1,
                     max_migrations_per_epoch=5)
        # every page is a write-hot candidate: the budget is the cap
        assert s.migrations == 5

    def test_zero_budget_freezes_placement(self):
        s = self.run(8, [[([0, 1, 2] * 10, True)]], write_hot=1,
                     max_migrations_per_epoch=0)
        assert s.migrations == 0
        assert s.nvram_resident_bytes == 8 * 4096

    def test_unbudgeted_path_unchanged(self):
        # without a budget the monitor never consults its RNG, so any
        # seed gives the classic threshold behavior
        rows = []
        for seed in (0, 7):
            s = self.run(4, [[([2] * 20, True)]], seed=seed, write_hot=10)
            assert (s.to_dram, s.to_nvram) == (1, 0)
            rows.append(s.as_row())
        assert rows[0] == rows[1]


class TestEnergyModel:
    def test_all_nvram_read_only_saves_static(self):
        rows = [make_metrics(0, reads=1000, writes=0, size=1 << 20)]
        plan = PlacementPlan(tech_name="PCRAM", nvram_oids=[0], nvram_bytes=1 << 20)
        model = HybridEnergyModel(PCRAM)
        window = model.calibrated_window_ns(rows)
        hybrid = model.energy(rows, plan, window)
        base = model.all_dram_baseline(rows, window)
        assert hybrid.savings_vs(base) > 0.3  # static share was 40%
        assert hybrid.static_nj == 0.0

    def test_write_heavy_nvram_can_cost_energy(self):
        rows = [make_metrics(0, reads=10, writes=10_000, size=4096)]
        plan = PlacementPlan(tech_name="STTRAM", nvram_oids=[0], nvram_bytes=4096)
        model = HybridEnergyModel(STTRAM)
        window = model.calibrated_window_ns(rows)
        hybrid = model.energy(rows, plan, window)
        base = model.all_dram_baseline(rows, window)
        assert hybrid.savings_vs(base) < 0.2  # writes at 150 mA eat the saving

    def test_memory_access_fraction_scales_dynamic(self):
        rows = [make_metrics(0, reads=1000, writes=0)]
        model = HybridEnergyModel(PCRAM)
        full = model.all_dram_baseline(rows, 1e6, memory_access_fraction=1.0)
        tenth = model.all_dram_baseline(rows, 1e6, memory_access_fraction=0.1)
        assert tenth.dynamic_nj == pytest.approx(full.dynamic_nj * 0.1, rel=0.01)

    def test_calibrated_window_hits_static_fraction(self):
        rows = [make_metrics(0, reads=5000, writes=500, size=1 << 20)]
        model = HybridEnergyModel(PCRAM)
        w = model.calibrated_window_ns(rows, static_fraction=0.4)
        base = model.all_dram_baseline(rows, w)
        assert base.static_nj / base.total_nj == pytest.approx(0.4, rel=0.01)

    def test_average_power(self):
        rows = [make_metrics(0, reads=100, writes=0)]
        rep = HybridEnergyModel(PCRAM).all_dram_baseline(rows, 1e6)
        assert rep.average_power_mw == pytest.approx(rep.total_nj / 1e6 * 1e3)

    def test_invalid(self):
        model = HybridEnergyModel(PCRAM)
        with pytest.raises(PlacementError):
            model.energy([], PlacementPlan("x"), 0.0)
        with pytest.raises(PlacementError):
            model.calibrated_window_ns([make_metrics(0, 1, 0)], static_fraction=1.5)
