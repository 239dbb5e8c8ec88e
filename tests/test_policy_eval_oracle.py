"""Differential tests: the page-indexed evaluator vs the dict reference.

:func:`repro.policies.evaluate_policy` must produce the same row as
:func:`repro.policies.reference.evaluate_policy` — the original
per-page dict walk over a live ``PageMap`` — for every ``policy_zoo``
cell and for generated traces. Equality (not a tolerance) is the
contract: each page's decision depends only on that page's own scores,
pool and wear, every counter is a sum, and every score is updated by
the same float operations in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import policy_zoo
from repro.experiments.common import ExperimentContext
from repro.memory.object import ObjectKind
from repro.nvram.technology import PCRAM, STTRAM
from repro.policies import ObjectSpan, PageTrace, create_policy, evaluate_policy
from repro.policies import reference
from repro.scavenger.classify import Classified, NVRAMClass, Placement
from repro.scavenger.metrics import ObjectMetrics
from repro.trace.record import RefBatch

PAGE = 4096
TOP_PAGE = (1 << 64) // PAGE - 1
#: an unmapped stack page
STACK_PAGE = 0x7FFF0
#: writes the generated traces aim at the stack page: above every
#: threshold and budget the generated policies use
STACK_BURST = 64

FIDELITIES = {
    "short": dict(refs_per_iteration=2_000, scale=1.0 / 256.0, n_iterations=3),
    "full": dict(refs_per_iteration=6_000, scale=1.0 / 256.0, n_iterations=10),
}


def assert_rows_agree(name, params, index, trace, objects, device, budget,
                      classified):
    """Evaluate one cell both ways — the production evaluator over the
    shared page index, the reference over the raw batches."""
    new = evaluate_policy(create_policy(name, **params), index, objects,
                          device, budget, classified=classified)
    ref = reference.evaluate_policy(reference.create_policy(name, **params),
                                    trace, objects, device, budget,
                                    classified=classified)
    assert new.as_row() == ref.as_row(), (name, params, device.name, budget)
    return new


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fidelity", sorted(FIDELITIES))
def test_sweep_cells_match_reference(fidelity, seed, tmp_path):
    ctx = ExperimentContext(cache_dir=str(tmp_path / "cache"), apps=(),
                            seed=seed, **FIDELITIES[fidelity])
    rows = iter(policy_zoo.run(ctx).rows)
    migrations = 0
    for wname in policy_zoo.WORKLOADS:
        run = ctx.run("workload:" + wname)
        objects = [ObjectSpan(m.oid, m.name, m.base, m.size)
                   for m in run.result.object_metrics]
        trace = run.memory_trace
        for device in policy_zoo.DEVICES:
            for factor in policy_zoo.BUDGET_FACTORS:
                budget = policy_zoo._budget(trace, objects, factor)
                for pname, params in policy_zoo.POLICY_GRID:
                    ref = reference.evaluate_policy(
                        reference.create_policy(pname, **params), trace,
                        objects, device, budget,
                        classified=run.result.classified, seed=seed,
                        workload=wname, n_iterations=ctx.n_iterations)
                    row = dict(next(rows))
                    assert row.pop("budget_factor") == factor
                    row.pop("cell")
                    assert row == ref.as_row(), (wname, pname, device.name,
                                                 factor)
                    migrations += ref.migrations
    assert next(rows, None) is None
    assert migrations > 0  # the rules fired, so the equality has teeth


# -- generated traces ---------------------------------------------------------

def metrics(obj: ObjectSpan) -> ObjectMetrics:
    return ObjectMetrics(
        oid=obj.oid, name=obj.name, kind=ObjectKind.HEAP, size=obj.size,
        base=obj.base, reads=1, writes=1, reference_rate=0.0,
        write_share=0.0, reads_per_iter=np.zeros(1, np.int64),
        writes_per_iter=np.zeros(1, np.int64))


def ref_batch(pages_written, iteration: int) -> RefBatch:
    """A batch from ``(page, is_write, repeat)`` triples."""
    addr = [p * PAGE + (k * 64) % PAGE
            for p, _, n in pages_written for k in range(n)]
    write = [w for _, w, n in pages_written for _ in range(n)]
    n = len(addr)
    return RefBatch(np.array(addr, np.uint64), np.array(write, bool),
                    np.full(n, 8, np.uint8), np.zeros(n, np.int32),
                    iteration=iteration)


@st.composite
def cases(draw):
    """(objects, trace, classified): contiguous objects whose first two
    share a boundary page, at the bottom or the top of the address space,
    and batches over object pages and unmapped pages — with empty batches,
    skipped iteration numbers and a write burst on a stack page."""
    first = draw(st.sampled_from([0x10, TOP_PAGE - 64]))
    base = first * PAGE + draw(st.integers(0, PAGE - 1))
    objects = []
    for oid in range(draw(st.integers(2, 4))):
        size = draw(st.integers(1 if oid == 0 else 0, 5 * PAGE))
        if oid == 0 and (base + size) % PAGE == 0:
            size += 1  # end mid-page: object 1 starts on the same page
        objects.append(ObjectSpan(oid, f"o{oid}", base, size))
        base += size
    object_pages = sorted({p for o in objects if o.size
                           for p in range(o.base // PAGE,
                                          (o.base + o.size - 1) // PAGE + 1)})
    # unmapped: a stack page, the page past the last object, the top page
    unmapped = sorted({STACK_PAGE, object_pages[-1] + 1, TOP_PAGE}
                      - set(object_pages))
    ref = st.tuples(st.sampled_from(object_pages + unmapped), st.booleans(),
                    st.integers(1, 12))
    trace, iteration = [], 0
    for i in range(draw(st.integers(1, 16))):
        iteration += draw(st.integers(0, 3))
        refs = draw(st.lists(ref, max_size=6))
        if i == 0:
            refs.append((STACK_PAGE, True, STACK_BURST))
        trace.append(ref_batch(refs, iteration))
    placements = draw(st.lists(st.sampled_from(list(Placement)),
                               min_size=len(objects), max_size=len(objects)))
    classified = [Classified(metrics(o), NVRAMClass.READ_LEANING, p)
                  for o, p in zip(objects, placements)]
    return objects, trace, classified


#: one parameterization per policy, over the edges of each rule: scores
#: that decay to their floor within a few epochs, a predictive demote
#: line below the 1e-3 forecast floor, migration budgets that cut an
#: epoch's candidates (unmapped pages among them)
policy_params = st.fixed_dictionaries({
    "no_migration": st.fixed_dictionaries(
        {"home": st.sampled_from(["nvram", "dram"])}),
    "static_oracle": st.fixed_dictionaries(
        {"capacity_fraction": st.sampled_from([None, 0.5])}),
    "threshold": st.fixed_dictionaries({
        "write_hot": st.sampled_from([0.5, 1.0, 2.0, 8.0]),
        "hysteresis": st.sampled_from([0.0, 0.25, 0.9]),
        "decay": st.sampled_from([0.0, 0.01, 0.5, 0.9])}),
    "predictive": st.fixed_dictionaries({
        "alpha": st.sampled_from([0.1, 0.6, 0.9, 1.0]),
        "write_hot": st.sampled_from([0.5, 2.0, 6.0]),
        "demote_margin": st.sampled_from([0.0, 1e-4, 0.25, 0.9])}),
    "endurance_aware": st.fixed_dictionaries({
        "write_hot": st.sampled_from([1.0, 8.0]),
        "decay": st.sampled_from([0.0, 0.01, 0.5])}),
    "ramos": st.fixed_dictionaries({
        "write_hot": st.sampled_from([1.0, 4.0, 64.0]),
        "read_popular": st.sampled_from([1.0, 16.0, 256.0]),
        "decay": st.sampled_from([0.0, 0.01, 0.5, 0.9]),
        "max_migrations_per_epoch": st.sampled_from([None, 0, 1, 3])}),
})


@settings(max_examples=150, deadline=None)
@given(case=cases(), params=policy_params,
       device=st.sampled_from([PCRAM, STTRAM]),
       # -1: every written NVM page trips the guard, a read one does not
       budget=st.sampled_from([-1, 0, 1, 3, STACK_BURST]))
def test_generated_traces_match_reference(case, params, device, budget):
    objects, trace, classified = case
    # one index shared by all six cells, as the sweep shares it
    index = PageTrace.build(trace, objects)
    for name in sorted(params):
        assert_rows_agree(name, params[name], index, trace, objects, device,
                          budget, classified)


def test_budget_of_one_is_held_against_stack_bursts():
    """Budget 1: every second write to an NVM page trips the guard, and
    a write burst on an unmapped page moves nothing."""
    objects = [ObjectSpan(0, "a", 0, 2 * PAGE)]
    trace = [ref_batch([(0, True, 1), (STACK_PAGE, True, STACK_BURST)], 1),
             RefBatch.empty(2),
             ref_batch([(0, True, 1), (1, True, 1)], 4)]
    index = PageTrace.build(trace, objects)
    s = assert_rows_agree("endurance_aware", {}, index, trace, objects,
                          PCRAM, 1, None)
    assert s.to_dram == 1  # page 0's second write
    assert s.max_page_wear == 1
    assert s.nvm_writes == 2
    assert s.dram_accesses == STACK_BURST + 1


@pytest.mark.parametrize("params, demoted", [
    # the forecast falls from 1 to 0: it leaves the map, and the page is
    # demoted in that same step
    ({"alpha": 1.0, "write_hot": 0.5, "demote_margin": 0.25}, 1),
    # it leaves the map at 9e-4, above the 5e-5 demote line, so the page
    # stays in DRAM until it is written again
    ({"alpha": 0.9, "write_hot": 0.5, "demote_margin": 1e-4}, 0),
])
def test_predictive_forecast_floor(params, demoted):
    objects = [ObjectSpan(0, "a", 0, 2 * PAGE)]
    # page 0 is written once, then only page 1 is read for six epochs
    trace = [ref_batch([(0, True, 1)], 1)]
    trace += [ref_batch([(1, False, 1)], i) for i in range(2, 8)]
    index = PageTrace.build(trace, objects)
    s = assert_rows_agree("predictive", params, index, trace, objects,
                          PCRAM, 10, None)
    assert (s.to_dram, s.to_nvram) == (1, demoted)


def test_threshold_demotes_once_the_write_score_floors():
    """hysteresis 0: a promoted page returns only when its write score
    has decayed below the 1e-6 floor to exactly zero."""
    objects = [ObjectSpan(0, "a", 0, PAGE)]
    trace = [ref_batch([(0, True, 1)], 1)]
    trace += [ref_batch([(0, False, 1)], i) for i in range(2, 7)]
    index = PageTrace.build(trace, objects)
    s = assert_rows_agree("threshold", {"write_hot": 1.0, "hysteresis": 0.0,
                                        "decay": 0.01},
                          index, trace, objects, PCRAM, 10, None)
    assert (s.to_dram, s.to_nvram) == (1, 1)


def test_static_oracle_awards_shared_boundary_page_to_nvm():
    """Objects a (DRAM) and b (NVRAM) share page 1; §II gives it to NVM."""
    a, b = ObjectSpan(0, "a", 0, 6000), ObjectSpan(1, "b", 6000, 6000)
    classified = [Classified(metrics(a), NVRAMClass.WRITE_HEAVY, Placement.DRAM),
                  Classified(metrics(b), NVRAMClass.READ_ONLY, Placement.NVRAM)]
    trace = [ref_batch([(0, True, 3), (1, True, 5), (2, False, 2)], 1)]
    index = PageTrace.build(trace, [a, b])
    s = assert_rows_agree("static_oracle", {}, index, trace, [a, b], PCRAM,
                          10, classified)
    assert s.nvram_resident_bytes == 2 * PAGE  # pages 1 and 2
    assert (s.nvm_writes, s.nvm_reads, s.dram_accesses) == (5, 2, 3)
    assert s.max_page_wear == 5
