"""Record-then-replay through the engine's event log (paper §III-D).

The paper rejects recording a raw trace and analyzing it offline as the
primary design; the pipeline engine keeps that path anyway so one
execution feeds many consumers. A run recorded by
:class:`~repro.engine.events.EventLogProbe` into a v4 container and
re-delivered by :func:`~repro.engine.events.replay_events` must leave
fresh analyzers in exactly the state the live ones reached.
"""

import os

import numpy as np

from repro.engine.events import EventLogProbe, replay_events
from repro.instrument.api import FanoutProbe
from repro.instrument.runtime import InstrumentedRuntime
from repro.scavenger.global_analysis import GlobalAnalyzer
from repro.scavenger.heap_analysis import HeapAnalyzer
from repro.trace.chunked import ChunkedTraceReader, ChunkedTraceWriter
from tests.conftest import make_app

#: raw column bytes per reference: addr u64 + oid i32 + size u8 + is_write
RAW_BYTES_PER_REF = 8 + 4 + 1 + 1


def analyzers(rt):
    return (HeapAnalyzer(rt.space.layout.heap_segment),
            GlobalAnalyzer(rt.space.layout.global_segment))


def record_and_replay(tmp_path, program):
    """Run *program* once with live analyzers and the event log, then
    replay the log into fresh analyzers."""
    fan = FanoutProbe([])
    rt = InstrumentedRuntime(fan)
    live = analyzers(rt)
    writer = ChunkedTraceWriter(tmp_path / "raw")
    recorder = EventLogProbe(writer.append, rt.space.stack)
    for p in (*live, recorder):
        fan.add(p)
    program(rt)
    rt.finish()
    writer.close()
    replayed = analyzers(rt)
    with ChunkedTraceReader(writer.path) as reader:
        replay_events(recorder.events, iter(reader), FanoutProbe(list(replayed)))
    return live, replayed, recorder, writer.path


def assert_same_state(live, replayed):
    for a, b in zip(live, replayed):
        assert np.array_equal(a.stats.reads, b.stats.reads)
        assert np.array_equal(a.stats.writes, b.stats.writes)
        assert (a.total_refs, a.unattributed) == (b.total_refs, b.unattributed)
    heap, heap_replayed = live[0], replayed[0]
    assert ({oid: o.name for oid, o in heap.objects.items()}
            == {oid: o.name for oid, o in heap_replayed.objects.items()})
    assert heap.freed_in == heap_replayed.freed_in
    assert heap.allocated_in == heap_replayed.allocated_in


def simple_program(rt):
    g = rt.global_array("table", 500)
    h = rt.malloc(200, "x:1")
    for it in (1, 2):
        rt.begin_iteration(it)
        rt.load(g, np.arange(500))
        rt.store(h, np.arange(200))
    rt.free(h)
    h2 = rt.malloc(200, "y:1")  # aliases h's address
    rt.begin_iteration(3)
    rt.load(h2, np.arange(100))
    rt.begin_iteration(0)


def test_offline_matches_online_counts(tmp_path):
    live, replayed, _, _ = record_and_replay(tmp_path, simple_program)
    assert_same_state(live, replayed)
    assert sum(a.unattributed for a in replayed) == 0
    assert sum(int(a.stats.refs.sum()) for a in replayed) == 500 * 2 + 200 * 2 + 100


def test_offline_respects_free_alias_timeline(tmp_path):
    """Refs to the freed object and the aliasing successor stay separate."""
    _, (heap, _), _, _ = record_and_replay(tmp_path, simple_program)
    oids = {o.name: oid for oid, o in heap.objects.items()}
    x, y = oids["heap:x:1"], oids["heap:y:1"]
    assert heap.objects[x].base == heap.objects[y].base
    r, w = heap.stats.totals_per_object()
    assert w[x] == 400
    assert r[y] == 100
    assert w[y] == 0


def test_offline_on_model_app(tmp_path):
    live, replayed, recorder, path = record_and_replay(
        tmp_path, make_app("gtc", refs=4000, iters=3))
    assert_same_state(live, replayed)
    with ChunkedTraceReader(path) as reader:
        assert reader.total_refs == recorder.refs
    assert all(a.total_refs == recorder.refs for a in replayed)


def test_trace_size_metric(tmp_path):
    _, _, recorder, path = record_and_replay(tmp_path, simple_program)
    sizes = {f: os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)}
    bytes_per_ref = sum(sizes.values()) / recorder.refs
    # a recorded trace costs real bytes per reference — the paper's
    # scalability argument against the offline design
    assert bytes_per_ref > 0.05
    # chunks are stored raw or smaller, each padded to 8 bytes
    with ChunkedTraceReader(path) as reader:
        n_chunks = reader.n_chunks
    assert sizes["chunk-data.bin"] <= recorder.refs * RAW_BYTES_PER_REF + 7 * n_chunks
