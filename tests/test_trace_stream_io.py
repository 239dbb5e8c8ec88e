"""Trace file round-trips."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.io import TraceReader, TraceWriter, read_trace, write_trace
from repro.trace.record import AccessType, RefBatch


def make_batch(n, iteration=0):
    return RefBatch.from_access(np.arange(n, dtype=np.uint64) * 8, AccessType.READ,
                                iteration=iteration)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.npz"
        batches = [make_batch(5, 0), make_batch(7, 1)]
        write_trace(path, batches)
        back = read_trace(path)
        assert len(back) == 2
        for orig, rt in zip(batches, back):
            assert np.array_equal(orig.addr, rt.addr)
            assert np.array_equal(orig.is_write, rt.is_write)
            assert orig.iteration == rt.iteration

    def test_empty_batches_skipped(self, tmp_path):
        path = tmp_path / "t.npz"
        write_trace(path, [RefBatch.empty(), make_batch(3)])
        assert len(read_trace(path)) == 1

    def test_writer_context_manager(self, tmp_path):
        path = tmp_path / "t.npz"
        with TraceWriter(path) as w:
            w.append(make_batch(4))
        with TraceReader(path) as r:
            assert r.n_batches == 1

    def test_append_after_close(self, tmp_path):
        path = tmp_path / "t.npz"
        w = TraceWriter(path)
        w.close()
        with pytest.raises(TraceError):
            w.append(make_batch(1))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, foo=np.arange(3))
        with pytest.raises(TraceError):
            TraceReader(path)
