"""Policy zoo: registry contract, per-policy behavior, determinism.

The distinguishability assertions mirror the sweep's acceptance
criteria: on the KV-cache workload, threshold migration must absorb
strictly less NVM write traffic than the do-nothing baseline, and the
endurance-aware policy must never let any page exceed its wear budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PolicyError
from repro.experiments.common import ExperimentContext
from repro.experiments.policy_zoo import _budget
from repro.hybrid.pagemap import MemoryPool
from repro.nvram.technology import PCRAM, STTRAM
from repro.policies import (
    POLICIES,
    ObjectSpan,
    PageTrace,
    PlacementPolicy,
    PolicyCellStats,
    available_policies,
    cell_key,
    create_policy,
    evaluate_policy,
    register_policy,
)
from repro.trace.record import RefBatch

EXPECTED = {"no_migration", "static_oracle", "threshold", "predictive",
            "endurance_aware", "ramos"}


@pytest.fixture(scope="module")
def kv_run(tmp_path_factory):
    """One recorded KV-cache workload at test fidelity."""
    ctx = ExperimentContext(
        refs_per_iteration=6_000, scale=1.0 / 256.0, apps=(),
        cache_dir=str(tmp_path_factory.mktemp("policies-cache")))
    return ctx.run("workload:kvcache")


def cell(kv_run, policy_name, device=PCRAM, factor=2.0, **params):
    run = kv_run
    objects = [ObjectSpan(m.oid, m.name, m.base, m.size)
               for m in run.result.object_metrics]
    trace = run.memory_trace
    budget = _budget(trace, objects, factor)
    policy = create_policy(policy_name, **params)
    return evaluate_policy(
        policy, trace, objects, device, budget,
        classified=run.result.classified, workload="kvcache")


class TestRegistry:
    def test_zoo_is_registered(self):
        assert set(POLICIES) == EXPECTED
        assert list(available_policies()) == sorted(EXPECTED)

    def test_unknown_policy(self):
        with pytest.raises(PolicyError, match="unknown policy"):
            create_policy("nope")

    def test_duplicate_name_rejected(self):
        with pytest.raises(PolicyError, match="duplicate"):
            @register_policy
            class Clash(PlacementPolicy):  # pragma: no cover - never bound
                name = "no_migration"

                def prepare(self):
                    pass

        assert POLICIES["no_migration"].__name__ == "NoMigration"

    def test_unnamed_policy_rejected(self):
        with pytest.raises(PolicyError, match="no registry name"):
            @register_policy
            class Anonymous(PlacementPolicy):  # pragma: no cover
                def prepare(self):
                    pass

    @pytest.mark.parametrize("name, params", [
        ("no_migration", {"home": "tape"}),
        ("static_oracle", {"capacity_fraction": 1.5}),
        ("threshold", {"write_hot": 0}),
        ("threshold", {"hysteresis": 1.0}),
        ("predictive", {"alpha": 0.0}),
        ("predictive", {"demote_margin": -0.1}),
        ("endurance_aware", {"decay": 1.0}),
        ("ramos", {"decay": 1.0}),
        ("ramos", {"write_hot": 0}),
        ("ramos", {"read_popular": -1.0}),
        ("ramos", {"max_migrations_per_epoch": -1}),
    ])
    def test_invalid_params(self, name, params):
        with pytest.raises(PolicyError):
            create_policy(name, **params)

    def test_params_are_canonical(self):
        p = create_policy("threshold", decay=0.25, write_hot=4.0)
        assert p.params() == {"decay": 0.25, "hysteresis": 0.25,
                              "write_hot": 4.0}


class TestHelpers:
    def test_page_counts_empty(self):
        # empty batches fold to nothing; the index is the objects' pages
        index = PageTrace.build([RefBatch.empty(0), RefBatch.empty(3)],
                                [ObjectSpan(0, "a", 0, 8192)])
        assert index.batches == ()
        assert index.refs == index.total_writes == 0
        assert index.pages.tolist() == [0, 1]

    def test_page_counts(self):
        # object pages 0..2 (b's 100 bytes own page 2); 0x100000 is a
        # stack page off the index: it counts as a reference, not a page
        objects = [ObjectSpan(0, "a", 0, 4097), ObjectSpan(1, "b", 8192, 100)]
        addrs = np.array([0, 100, 4096, 4097, 8192, 0x100000], np.uint64)
        writes = np.array([True, False, False, False, True, True])
        batch = RefBatch(addrs, writes, np.full(6, 8, np.uint8),
                         np.zeros(6, np.int32), iteration=2)
        index = PageTrace.build([batch], objects)
        (b,) = index.batches
        assert b.iteration == 2
        assert b.pos.tolist() == [0, 1, 2]
        assert b.writes.tolist() == [1, 0, 1]
        assert b.reads.tolist() == [1, 2, 0]
        assert (index.refs, index.total_writes) == (6, 3)
        # shared by every cell over the trace, so no hook may write to it
        assert not b.writes.flags.writeable

    def test_page_trace_must_match_objects(self):
        index = PageTrace.build([], [ObjectSpan(0, "a", 0, 8192)])
        with pytest.raises(PolicyError, match="other objects"):
            evaluate_policy(create_policy("no_migration"), index,
                            [ObjectSpan(0, "a", 0, 4096)], PCRAM, 10)

    def test_cell_key_shape_and_sensitivity(self):
        a = cell_key("spec", "threshold", {"write_hot": 8.0}, "PCRAM", 10)
        b = cell_key("spec", "threshold", {"write_hot": 9.0}, "PCRAM", 10)
        c = cell_key("spec", "threshold", {"write_hot": 8.0}, "STTRAM", 10)
        assert len(a) == 64 and int(a, 16) >= 0
        assert len({a, b, c}) == 3


class TestCellStats:
    def test_hand_computed_properties(self):
        s = PolicyCellStats(
            policy="p", workload="w", device="PCRAM", endurance_budget=10,
            accesses=100, dram_accesses=75, nvm_reads=15, nvm_writes=10,
            nvm_fill_writes=64, to_dram=2, to_nvram=1, max_page_wear=4,
            energy_nj=80.0, baseline_energy_nj=100.0)
        assert s.migrations == 3
        assert s.nvm_write_traffic == 74
        assert s.dram_hit_ratio == pytest.approx(0.75)
        assert s.endurance_headroom == pytest.approx(0.6)
        assert s.energy_savings == pytest.approx(0.2)

    def test_empty_and_degenerate(self):
        s = PolicyCellStats("p", "w", "PCRAM", endurance_budget=0)
        assert s.dram_hit_ratio == 0.0
        assert s.endurance_headroom == 0.0
        assert s.energy_savings == 0.0

    def test_row_is_plain_types(self):
        s = PolicyCellStats("p", "w", "PCRAM", endurance_budget=3,
                            accesses=7, dram_accesses=2)
        row = s.as_row()
        for value in row.values():
            assert isinstance(value, (str, int, float, dict))


class TestPolicies:
    def test_no_migration_dram_home_never_touches_nvm(self, kv_run):
        s = cell(kv_run, "no_migration", home="dram")
        assert s.nvm_write_traffic == 0
        assert s.nvm_reads == 0
        assert s.migrations == 0
        assert s.dram_hit_ratio == pytest.approx(1.0)

    def test_no_migration_nvram_home_takes_all_object_traffic(self, kv_run):
        s = cell(kv_run, "no_migration")
        assert s.migrations == 0
        assert s.nvm_write_traffic > 0
        # stacks are unmapped (DRAM); object traffic dominates this app
        assert s.dram_hit_ratio < 0.1

    def test_static_oracle_needs_classifications(self, kv_run):
        run = kv_run
        objects = [ObjectSpan(m.oid, m.name, m.base, m.size)
                   for m in run.result.object_metrics]
        with pytest.raises(PolicyError, match="classifications"):
            evaluate_policy(create_policy("static_oracle"), run.memory_trace,
                            objects, PCRAM, 10, classified=None)

    def test_static_oracle_category1_is_write_clean(self, kv_run):
        pcram = cell(kv_run, "static_oracle", device=PCRAM)
        sttram = cell(kv_run, "static_oracle", device=STTRAM)
        base = cell(kv_run, "no_migration")
        # category 1 admits only write-free objects: nearly no NVM writes
        assert pcram.nvm_write_traffic < base.nvm_write_traffic / 100
        assert pcram.dram_hit_ratio > 0.9
        # category 2 admits read-leaning objects too, so it absorbs more
        assert sttram.nvm_write_traffic >= pcram.nvm_write_traffic
        assert sttram.nvram_resident_bytes >= pcram.nvram_resident_bytes

    def test_threshold_beats_no_migration_on_kvcache(self, kv_run):
        base = cell(kv_run, "no_migration")
        thr = cell(kv_run, "threshold")
        assert thr.migrations > 0
        assert thr.to_dram > 0
        # the acceptance criterion: strictly fewer NVM writes
        assert thr.nvm_write_traffic < base.nvm_write_traffic
        assert thr.dram_hit_ratio > base.dram_hit_ratio

    def test_predictive_is_distinguishable(self, kv_run):
        thr = cell(kv_run, "threshold")
        pred = cell(kv_run, "predictive")
        assert pred.policy == "predictive"
        rows = (thr.as_row(), pred.as_row())
        assert rows[0]["nvm_write_traffic"] != rows[1]["nvm_write_traffic"]

    @pytest.mark.parametrize("factor", [2.0, 64.0])
    def test_endurance_budget_is_an_invariant(self, kv_run, factor):
        s = cell(kv_run, "endurance_aware", factor=factor)
        assert s.max_page_wear <= s.endurance_budget
        assert s.endurance_headroom >= 0.0

    def test_endurance_never_fills_into_nvm(self, kv_run):
        s = cell(kv_run, "endurance_aware")
        assert s.to_nvram == 0
        assert s.nvm_fill_writes == 0

    def test_no_migration_can_exceed_tight_budget(self, kv_run):
        # the guard in endurance_aware is doing real work: without it the
        # same trace blows through the tight budget
        s = cell(kv_run, "no_migration", factor=2.0)
        assert s.max_page_wear > s.endurance_budget

    def test_all_policies_distinguishable(self, kv_run):
        rows = [cell(kv_run, name).as_row() for name in sorted(EXPECTED)]
        fingerprints = {(r["nvm_write_traffic"], r["migrations"],
                         r["dram_hit_ratio"]) for r in rows}
        assert len(fingerprints) == len(EXPECTED)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_same_cell_same_row(self, kv_run, name):
        a = cell(kv_run, name).as_row()
        b = cell(kv_run, name).as_row()
        assert a == b

    def test_rebind_resets_state(self, kv_run):
        run = kv_run
        objects = [ObjectSpan(m.oid, m.name, m.base, m.size)
                   for m in run.result.object_metrics]
        trace = run.memory_trace
        budget = _budget(trace, objects, 2.0)
        policy = create_policy("threshold")
        first = evaluate_policy(policy, trace, objects, PCRAM, budget)
        second = evaluate_policy(policy, trace, objects, PCRAM, budget)
        assert first.as_row() == second.as_row()


class TestPlacementAccounting:
    @staticmethod
    def bound(home: str) -> PlacementPolicy:
        """A policy left bound to a four-page index after a run."""
        policy = create_policy("no_migration", home=home)
        evaluate_policy(policy, [], [ObjectSpan(0, "a", 0, 4 * 4096)],
                        PCRAM, 10)
        assert policy.ctx.page_map is None  # hooks see only the arrays
        return policy

    def test_migrate_counts_and_wear(self):
        policy = self.bound("dram")
        assert policy.migrate(np.array([1]), MemoryPool.NVRAM).tolist() == [1]
        assert policy.to_nvram == 1
        assert policy.bytes_moved == 4096
        assert policy.ctx.wear.tolist() == [0, 1, 0, 0]  # the fill wore it once

    def test_page_already_in_pool_is_not_counted(self):
        policy = self.bound("dram")
        policy.migrate(np.array([1]), MemoryPool.NVRAM)
        assert policy.migrate(np.array([1]), MemoryPool.NVRAM).size == 0
        assert policy.migrate(np.array([0]), MemoryPool.DRAM).size == 0
        assert (policy.to_dram, policy.to_nvram) == (0, 1)
        assert policy.bytes_moved == 4096
        assert policy.ctx.wear.tolist() == [0, 1, 0, 0]

    def test_mixed_array_moves_only_changed_pages(self):
        policy = self.bound("nvram")
        policy.migrate(np.array([1, 3]), MemoryPool.DRAM)
        moved = policy.migrate(np.arange(4), MemoryPool.DRAM)
        assert moved.tolist() == [0, 2]
        assert policy.ctx.pool.tolist() == [0, 0, 0, 0]
        assert policy.to_dram == 4
        moved = policy.migrate(np.array([0, 1, 2]), MemoryPool.NVRAM)
        assert moved.tolist() == [0, 1, 2]
        assert policy.ctx.pool.tolist() == [1, 1, 1, 0]
        # fills wear; demotions do not
        assert policy.ctx.wear.tolist() == [1, 1, 1, 0]
        assert (policy.to_dram, policy.to_nvram) == (4, 3)
        assert policy.bytes_moved == 7 * 4096
