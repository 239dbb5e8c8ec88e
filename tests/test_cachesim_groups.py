"""Differential tests: the grouped MemoryTraceProbe vs a per-batch filter.

:class:`~repro.cachesim.filtered.MemoryTraceProbe` gathers consecutive
batches into groups of at most ``GROUP_REFS`` references, filters each
group in one ``CacheHierarchy.process_batch`` call and splits the output
back per input batch. Whatever the batch sizes, its outputs must equal
:class:`~repro.cachesim.reference.ReferenceCacheHierarchy` run one batch
at a time — same batches, arrays and ``iteration`` — with equal stats.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cachesim import (
    CacheHierarchy,
    ReferenceCacheHierarchy,
    TABLE2_CONFIG,
    filtered,
)
from repro.cachesim.filtered import GROUP_REFS, MemoryTraceProbe
from repro.trace.record import RefBatch
from repro.util.rng import make_rng
from tests.test_cachesim_vectorized import CONFIGS as ALL_CONFIGS

#: small 1- and 2-level configs, with and without write-allocate, that the
#: generated address spans overflow
CONFIGS = {k: v for k, v in ALL_CONFIGS.items() if v is not TABLE2_CONFIG}


def make_batches(seed, sizes, iterations, span_lines, write_ratio):
    rng = make_rng(seed)
    out = []
    for n, it in zip(sizes, iterations):
        lines = rng.integers(0, span_lines, n, dtype=np.uint64)
        out.append(RefBatch(
            addr=lines * np.uint64(64) + rng.integers(0, 64, n, dtype=np.uint64),
            is_write=rng.random(n) < write_ratio,
            size=np.full(n, 8, np.uint8),
            oid=rng.integers(-1, 20, n, dtype=np.int32),
            iteration=it,
        ))
    return out


def assert_same_batches(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g.addr, e.addr)
        np.testing.assert_array_equal(g.is_write, e.is_write)
        np.testing.assert_array_equal(g.size, e.size)
        np.testing.assert_array_equal(g.oid, e.oid)
        assert g.iteration == e.iteration


def assert_same_stats(got, expected):
    assert got.refs == expected.refs
    assert got.memory_reads == expected.memory_reads
    assert got.memory_writes == expected.memory_writes
    assert got.levels == expected.levels


def check_probe(config, batches, *, cap=GROUP_REFS, sink=False,
                keep_trace=True, flush_at_end=True, stats_at=None):
    """Drive the probe and the per-batch reference in lockstep; compare
    outputs (and, after batch *stats_at*, the drained stats) exactly."""
    ref = ReferenceCacheHierarchy(config)
    expected = []
    sunk = []
    with mock.patch.object(filtered, "GROUP_REFS", cap):
        probe = MemoryTraceProbe(config, sink=sunk.append if sink else None,
                                 keep_trace=keep_trace,
                                 flush_at_end=flush_at_end)
        for i, batch in enumerate(batches):
            mem = ref.process_batch(batch)
            if len(mem):
                expected.append(mem)
            probe.on_batch(batch)
            if i == stats_at:
                assert_same_stats(probe.stats(), ref.stats())
                if keep_trace:
                    assert_same_batches(probe.memory_trace, expected)
        probe.on_finish()
    if flush_at_end:
        mem = ref.flush()
        if len(mem):
            expected.append(mem)
    assert_same_batches(probe.memory_trace, expected if keep_trace else [])
    if sink:
        assert_same_batches(sunk, expected)
    assert_same_stats(probe.stats(), ref.stats())


@st.composite
def streams(draw):
    cap = draw(st.sampled_from([1, 7, 64, 300]))
    sizes = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, cap), st.integers(cap + 1, 3 * cap)),
        max_size=12))
    steps = draw(st.lists(st.integers(0, 2), min_size=len(sizes),
                          max_size=len(sizes)))
    iterations = np.cumsum(steps).tolist()
    return dict(
        cap=cap,
        sizes=sizes,
        iterations=iterations,
        seed=draw(st.integers(0, 2**16)),
        span_lines=draw(st.sampled_from([8, 64, 512])),
        write_ratio=draw(st.sampled_from([0.0, 0.4, 1.0])),
    )


@settings(max_examples=120, deadline=None)
@given(stream=streams(), config=st.sampled_from(sorted(CONFIGS)),
       sink=st.booleans(), keep_trace=st.booleans(),
       flush_at_end=st.booleans(), stats_at=st.integers(-1, 12))
def test_grouped_probe_matches_per_batch_reference(
        stream, config, sink, keep_trace, flush_at_end, stats_at):
    batches = make_batches(stream["seed"], stream["sizes"],
                           stream["iterations"], stream["span_lines"],
                           stream["write_ratio"])
    check_probe(CONFIGS[config], batches, cap=stream["cap"], sink=sink,
                keep_trace=keep_trace, flush_at_end=flush_at_end,
                stats_at=stats_at)


def test_table2_at_the_real_cap():
    """Empty batches, groups crossing iterations and the cap, and one
    batch over the cap, through the Table II hierarchy."""
    sizes = [0, 300, 5000, 9000, 0, 3000, 20000, 100, 16384, 40, 2]
    iterations = [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    batches = make_batches(3, sizes, iterations, 1 << 14, 0.3)
    check_probe(TABLE2_CONFIG, batches, sink=True, stats_at=3)


def expected_groups(sizes, cap):
    """Greedy grouping: consecutive non-empty batches while they fit in
    *cap*; a batch larger than *cap* is a group of its own."""
    groups, cur = [], []
    for n in sizes:
        if n == 0:
            continue
        if cur and sum(cur) + n > cap:
            groups.append(cur)
            cur = []
        cur.append(n)
    if cur:
        groups.append(cur)
    return [sum(g) for g in groups]


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(0, 200), max_size=30),
       cap=st.sampled_from([1, 50, 128]))
@example(sizes=[25, 0, 25, 10, 40, 200, 50], cap=50)
def test_groups_are_capped_and_greedy(sizes, cap):
    """Each ``process_batch`` call filters one greedy group: at most *cap*
    refs unless it is a single larger batch, and never splittable into
    fewer calls."""
    calls = []
    real = CacheHierarchy.process_batch

    def spy(self, batch):
        calls.append(len(batch))
        return real(self, batch)

    batches = make_batches(0, sizes, [0] * len(sizes), 64, 0.5)
    with mock.patch.object(filtered, "GROUP_REFS", cap), \
            mock.patch.object(CacheHierarchy, "process_batch", spy):
        probe = MemoryTraceProbe(CONFIGS["tiny_two_level"])
        for batch in batches:
            probe.on_batch(batch)
        probe.on_finish()
    assert calls == expected_groups(sizes, cap)
