"""Differential tests: the classified power controller vs the scalar loop.

:class:`repro.powersim.controller.MemoryController` classifies each batch
in numpy and runs one scalar timing loop; it must leave exactly the same
state as :class:`repro.powersim.reference.ReferenceMemoryController`, the
original per-access loop: every :class:`ControllerStats` field, the bank
arrays, every rank's activity, the channel cursor and the last access's
direction. Timed runs must give the same :class:`TimedPowerReport` as
:class:`repro.powersim.reference.ReferenceTimedMemorySystem`, which splits
batches at idle gaps. Equality, not a tolerance, is the contract: every
simulated time is produced by the same float additions in the same order.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import capacity, table6
from repro.experiments.common import APP_ORDER, ExperimentContext
from repro.nvram.technology import DRAM_DDR3, MRAM, PCRAM, STTRAM
from repro.powersim.addressing import SCHEMES, AddressMapping
from repro.powersim.bankstate import BankArray
from repro.powersim.config import TABLE3_DEVICE, DeviceConfig
from repro.powersim.controller import CLEAN, COLD, DIRTY, HIT, MemoryController, classify
from repro.powersim.reference import ReferenceMemoryController, ReferenceTimedMemorySystem
from repro.powersim.system import MemorySystem, simulate_power
from repro.powersim.timing import TimedMemorySystem
from repro.trace.record import RefBatch

TECHS = (DRAM_DDR3, PCRAM, STTRAM, MRAM)
SIZES = (1, 2, 4, 16)
#: address spans, in lines: narrow ones revisit rows (hits and conflicts),
#: wide ones scatter over many rows and banks (cold activates)
SPAN_BITS = (4, 8, 12, 16, 20, 26)
#: chance that an access stays near the previous one (row-buffer locality)
LOCALITIES = (0.0, 0.5, 0.9)


def make_batch(seed: int, n: int, span_bits: int, locality: float,
               write_share: float) -> RefBatch:
    """*n* accesses: random jumps within the span, or short steps."""
    rng = np.random.default_rng(seed)
    jumps = rng.integers(0, 1 << span_bits, n)
    steps = rng.integers(0, 4, n)
    near = rng.random(n) < locality
    lines = np.empty(n, dtype=np.int64)
    for i in range(n):
        lines[i] = lines[i - 1] + steps[i] if i and near[i] else jumps[i]
    return RefBatch(
        addr=lines.astype(np.uint64) * np.uint64(64),
        is_write=rng.random(n) < write_share,
        size=np.full(n, 64, np.uint8),
        oid=np.full(n, -1, np.int32),
    )


def split(batch: RefBatch, cuts: list[float]) -> list[RefBatch]:
    """Cut *batch* at fractions of its length; equal cuts give empty batches."""
    n = len(batch)
    points = [0, *sorted(int(c * n) for c in cuts), n]
    return [batch.take(np.arange(a, b)) for a, b in zip(points, points[1:])]


def assert_same_state(ref: MemoryController, new: MemoryController) -> None:
    assert dataclasses.asdict(new.stats) == dataclasses.asdict(ref.stats)
    for name in ("open_row", "busy_until", "activations", "dirty"):
        a, b = getattr(new.banks, name), getattr(ref.banks, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert [r.activity for r in new.ranks] == [r.activity for r in ref.ranks]
    assert new._now == ref._now
    assert new._prev_write == ref._prev_write


def assert_hits_never_stall(ctl: MemoryController) -> None:
    # the invariant the loop's hit path relies on: under the open policy a
    # bank's busy time is the cursor right after its last burst
    if ctl.row_policy == "open":
        assert (ctl.banks.busy_until <= ctl._now).all()


streams = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(0, 600),  # accesses
    st.sampled_from(SPAN_BITS),
    st.sampled_from(LOCALITIES),
    st.floats(0.0, 1.0),  # write share
)
cuts = st.lists(st.floats(0.0, 1.0), max_size=8)


@given(
    stream=streams,
    ref_cuts=cuts,
    new_cuts=cuts,
    row_policy=st.sampled_from(["open", "closed"]),
    scheme=st.sampled_from(SCHEMES),
    n_ranks=st.sampled_from(SIZES),
    n_banks=st.sampled_from(SIZES),
    tech=st.sampled_from(TECHS),
)
@settings(max_examples=300, deadline=None)
def test_controller_matches_reference(stream, ref_cuts, new_cuts, row_policy, scheme,
                                      n_ranks, n_banks, tech):
    device = DeviceConfig(n_ranks=n_ranks, n_banks=n_banks)
    batch = make_batch(*stream)
    ref = ReferenceMemoryController(device, tech, row_policy, scheme)
    new = MemoryController(device, tech, row_policy, scheme)
    for part in split(batch, ref_cuts):
        ref.process_batch(part)
    for part in split(batch, new_cuts):
        new.process_batch(part)
        assert_hits_never_stall(new)
    assert_same_state(ref, new)


@given(
    stream=streams,
    n_batches=st.integers(1, 5),
    mean_gap_ns=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
    back_to_back=st.floats(0.0, 1.0),
    tech=st.sampled_from(TECHS),
)
@settings(max_examples=150, deadline=None)
def test_timed_matches_reference(stream, n_batches, mean_gap_ns, back_to_back, tech):
    batch = make_batch(*stream)
    rng = np.random.default_rng(stream[0])
    gaps = rng.exponential(mean_gap_ns, len(batch))
    gaps[rng.random(len(batch)) < back_to_back] = 0.0
    arrivals = np.cumsum(gaps)
    ref = ReferenceTimedMemorySystem(tech)
    new = TimedMemorySystem(tech)
    points = np.linspace(0, len(batch), n_batches + 1).astype(int)
    for a, b in zip(points, points[1:]):
        idx = np.arange(a, b)
        ref.process_timed(batch.take(idx), arrivals[a:b])
        new.process_timed(batch.take(idx), arrivals[a:b])
    assert_same_state(ref.controller, new.controller)
    assert new.report() == ref.report()


def test_timed_case_with_idle_gaps_across_batches():
    rng = np.random.default_rng(11)
    batches = [make_batch(s, 400, 16, 0.5, 0.4) for s in range(6)]
    for tech in TECHS:
        ref = ReferenceTimedMemorySystem(tech)
        new = TimedMemorySystem(tech)
        t = 0.0
        for batch in batches:
            gaps = rng.choice([0.0, 3.3, 41.7, 2500.1], size=len(batch))
            arrivals = t + np.cumsum(gaps)
            t = float(arrivals[-1])
            ref.process_timed(batch, arrivals)
            new.process_timed(batch, arrivals)
        rep = new.report()
        assert rep == ref.report()
        assert rep.idle_ns > 0 and rep.breakdown.total_mw > 0
        assert_same_state(ref.controller, new.controller)


def test_inputs_reach_every_kind_and_the_turnaround():
    kinds = np.zeros(4, dtype=np.int64)
    write_then_read = 0
    for seed, (span_bits, locality) in enumerate(
            (s, loc) for s in SPAN_BITS for loc in LOCALITIES):
        batch = make_batch(seed, 400, span_bits, locality, 0.5)
        for device in (DeviceConfig(n_ranks=1, n_banks=1), TABLE3_DEVICE):
            mapping = AddressMapping(device)
            banks = BankArray(device.total_banks)
            for part in split(batch, [0.5]):
                flat_bank, row = mapping.flat_bank_batch(part.addr)
                kind = classify(flat_bank, row, part.is_write, banks.open_row,
                                banks.dirty)
                kinds += np.bincount(kind, minlength=4)
        w = batch.is_write
        write_then_read += int(np.count_nonzero(w[:-1] & ~w[1:]))
    assert min(kinds[[HIT, COLD, CLEAN, DIRTY]]) > 0, kinds
    assert write_then_read > 0
    assert PCRAM.channel_turnaround_ns > 0


# ----------------------------------------------------------------------
# the full-size runs: Table VI and the capacity sweep at the benchmark's
# suite fidelity
SUITE_FIDELITY = dict(refs_per_iteration=4000, scale=1 / 64, n_iterations=10)


@pytest.fixture(scope="module", params=[0, 7])
def suite_traces(request, tmp_path_factory):
    ctx = ExperimentContext(
        seed=request.param,
        cache_dir=str(tmp_path_factory.mktemp(f"cache{request.param}")),
        **SUITE_FIDELITY,
    )
    return {name: ctx.run(name).memory_trace for name in APP_ORDER}


def reference_power(trace, tech, device=TABLE3_DEVICE):
    system = MemorySystem(tech, device)
    system.controller = ReferenceMemoryController(device, tech)
    for batch in trace:
        system.process_batch(batch)
    return system.report()


def test_table6_simulations_match_reference(suite_traces):
    for name in APP_ORDER:
        trace = suite_traces[name]
        for tech in (DRAM_DDR3, *table6.TECHS):
            assert simulate_power(trace, tech) == reference_power(trace, tech)


def test_capacity_simulations_match_reference(suite_traces):
    trace = suite_traces["cam"]
    for n_ranks in capacity.RANK_SWEEP:
        device = replace(TABLE3_DEVICE, n_ranks=n_ranks)
        for tech in (DRAM_DDR3, PCRAM):
            assert (simulate_power(trace, tech, device=device)
                    == reference_power(trace, tech, device))


def test_package_import_leaves_the_oracle_out():
    # Every process, the serve daemon included, imports the package; the
    # oracle is for tests only and must not add to that start-up.
    code = ("import sys, repro, repro.powersim; "
            "print('repro.powersim.reference' in sys.modules)")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
