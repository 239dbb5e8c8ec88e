"""Trace format v4: chunked columnar container, lazy mmap reader."""

import os
import zlib

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.chunked import (
    CODEC_RAW,
    CODEC_ZLIB,
    DATA_FILE,
    INDEX_FILE,
    ChunkedTraceReader,
    ChunkedTraceWriter,
    is_chunked,
    migrate_trace,
    tv4_path,
)
from repro.trace.fsio import _batch_crc, content_digest_from_crcs
from repro.trace.io import NpzTraceWriter, TraceReader, TraceWriter
from repro.trace.record import RefBatch


def make_batch(n, iteration=0, seed=None):
    """A batch with every column varying; seeded ⇒ incompressible addrs."""
    if seed is not None:
        rng = np.random.default_rng(seed)
        return RefBatch(
            addr=rng.integers(0, 2**63, size=n, dtype=np.uint64),
            is_write=rng.integers(0, 2, size=n).astype(bool),
            size=rng.integers(0, 256, size=n).astype(np.uint8),
            oid=rng.integers(-1, 2**31 - 1, size=n, dtype=np.int32),
            iteration=iteration,
        )
    return RefBatch(
        addr=np.arange(n, dtype=np.uint64) * 8 + iteration,
        is_write=(np.arange(n) % 3 == 0),
        size=np.full(n, 8, np.uint8),
        oid=np.arange(n, dtype=np.int32) % 7 - 1,
        iteration=iteration,
    )


def assert_batches_equal(a, b):
    assert a.iteration == b.iteration
    np.testing.assert_array_equal(a.addr, b.addr)
    np.testing.assert_array_equal(a.is_write, b.is_write)
    np.testing.assert_array_equal(a.size, b.size)
    np.testing.assert_array_equal(a.oid, b.oid)


@pytest.fixture
def batches():
    return [make_batch(100, i) for i in range(4)]


@pytest.fixture
def container(tmp_path, batches):
    path = str(tmp_path / "trace")
    with ChunkedTraceWriter(path) as w:
        for b in batches:
            w.append(b)
    return w.path


# ----------------------------------------------------------------------
class TestPaths:
    def test_tv4_path_appends_suffix_once(self):
        assert tv4_path("t") == "t.tv4"
        assert tv4_path("t.tv4") == "t.tv4"

    def test_is_chunked_accepts_stem_and_dir(self, container):
        stem = container[: -len(".tv4")]
        assert is_chunked(container) == container
        assert is_chunked(stem) == container
        assert is_chunked(container + "-nope") is None

    def test_factory_dispatch(self, tmp_path, batches):
        # suffix-less → v4 container; .npz → legacy monolith
        v3 = TraceWriter(str(tmp_path / "a"))
        assert isinstance(v3, ChunkedTraceWriter)
        v3.append(batches[0])
        v3.close()
        npz = TraceWriter(str(tmp_path / "b.npz"))
        assert isinstance(npz, NpzTraceWriter)
        npz.append(batches[0])
        npz.close()
        assert TraceReader(str(tmp_path / "a")).version == 4
        assert TraceReader(str(tmp_path / "b.npz")).version == 2


class TestRoundtrip:
    def test_batches_come_back_bit_identical(self, container, batches):
        with ChunkedTraceReader(container) as r:
            assert r.n_batches == len(batches)
            assert r.total_refs == sum(len(b) for b in batches)
            for orig, got in zip(batches, r):
                assert_batches_equal(orig, got)

    def test_empty_trace_roundtrips(self, tmp_path):
        with ChunkedTraceWriter(str(tmp_path / "e")) as w:
            w.append(RefBatch.empty())  # empty batches are skipped
        with ChunkedTraceReader(str(tmp_path / "e")) as r:
            assert r.n_batches == 0 and r.total_refs == 0
            assert list(r) == []

    def test_zero_chunk_container_opens_without_mapping(self, tmp_path):
        with ChunkedTraceWriter(str(tmp_path / "z")):
            pass
        data = os.path.join(tv4_path(str(tmp_path / "z")), DATA_FILE)
        assert os.path.getsize(data) == 0  # mmap would refuse it
        with ChunkedTraceReader(str(tmp_path / "z")) as r:
            assert r.verify_stored() == 0
            assert r.verify() == 0
            assert list(r) == [] and r.payload_crcs() == []
            assert r.n_mapped == 0

    def test_overwrite_replaces_existing_container(self, container):
        with ChunkedTraceWriter(container) as w:
            w.append(make_batch(10, 5))
        with ChunkedTraceReader(container) as r:
            assert r.n_batches == 1
            assert r.records[0].iteration == 5

    def test_append_after_close_and_discard_poisons(self, tmp_path):
        w = ChunkedTraceWriter(str(tmp_path / "t"))
        w.append(make_batch(4))
        w.close()
        with pytest.raises(TraceError, match="closed"):
            w.append(make_batch(4))
        w2 = ChunkedTraceWriter(str(tmp_path / "u"))
        w2.append(make_batch(4))
        w2.discard()
        assert not os.path.exists(tv4_path(str(tmp_path / "u")))
        assert not os.path.exists(tv4_path(str(tmp_path / "u")) + ".tmp")
        with pytest.raises(TraceError, match="closed"):
            w2.append(make_batch(4))
        w2.close()  # inert, resurrects nothing
        assert not os.path.exists(tv4_path(str(tmp_path / "u")))


class TestCodec:
    def test_auto_compresses_regular_payloads(self, container):
        with ChunkedTraceReader(container) as r:
            assert all(rec.codec == CODEC_ZLIB for rec in r.records)

    def test_auto_stores_incompressible_payloads_raw(self, tmp_path):
        path = str(tmp_path / "rnd")
        with ChunkedTraceWriter(path) as w:
            w.append(make_batch(2000, seed=42))
        with ChunkedTraceReader(path) as r:
            assert r.records[0].codec == CODEC_RAW

    def test_raw_decode_is_zero_copy_and_read_only(self, tmp_path):
        batch = make_batch(500, seed=7)
        path = str(tmp_path / "raw")
        with ChunkedTraceWriter(path, codec="raw") as w:
            w.append(batch)
        r = ChunkedTraceReader(path)
        got = r.read_batch(0)
        # views straight into the mmap: no private buffer, not writable
        assert got.addr.base is not None
        assert not got.addr.flags.writeable
        with pytest.raises(ValueError):
            got.addr[0] = 1
        assert_batches_equal(batch, got)

    def test_raw_chunks_with_odd_counts_decode_aligned(self, tmp_path):
        """Every stored chunk is padded to 8 bytes, so a raw chunk that
        follows one of an odd reference count still starts aligned and
        every column decodes as an aligned zero-copy view."""
        batches = [make_batch(n, i, seed=i)
                   for i, n in enumerate((5, 7, 3, 9))]
        path = str(tmp_path / "odd")
        with ChunkedTraceWriter(path, codec="raw") as w:
            for b in batches:
                w.append(b)
        with ChunkedTraceReader(path) as r:
            for orig, got in zip(batches, r):
                assert_batches_equal(orig, got)
                for col in (got.addr, got.oid, got.size, got.is_write):
                    assert col.flags.aligned
                    assert not col.flags.writeable  # still a map view
            assert [rec.stored_len % 8 for rec in r.records] == [0] * 4

    def test_unknown_codec_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="codec"):
            ChunkedTraceWriter(str(tmp_path / "x"), codec="lz4")


class TestLaziness:
    def test_open_touches_no_chunk(self, container):
        with ChunkedTraceReader(container) as r:
            assert (r.n_mapped, r.n_verified, r.n_decoded) == (0, 0, 0)

    def test_read_batch_advances_state_machine_once(self, container):
        with ChunkedTraceReader(container) as r:
            r.read_batch(1)
            assert (r.n_mapped, r.n_verified, r.n_decoded) == (1, 1, 1)
            r.read_batch(1)  # map + stored-CRC work is cached
            assert (r.n_mapped, r.n_verified, r.n_decoded) == (1, 1, 2)

    def test_verify_stored_sweeps_without_decoding(self, container):
        with ChunkedTraceReader(container) as r:
            assert r.verify_stored() == r.n_chunks
            assert r.n_decoded == 0
            assert r.verify_stored() == 0  # nothing newly verified

    def test_payload_crcs_need_no_decode(self, container, batches):
        with ChunkedTraceReader(container) as r:
            crcs = r.payload_crcs()
            assert r.n_decoded == 0
        assert crcs == [
            _batch_crc(b.addr, b.is_write, b.size, b.oid, b.iteration)
            for b in batches
        ]


class TestCorruption:
    def _flip(self, path, offset):
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0x10]))

    @staticmethod
    def _chunk_start(container, i):
        with ChunkedTraceReader(container) as r:
            return sum(rec.stored_len for rec in r.records[:i])

    def test_chunk_bitflip_detected_with_batch_index(self, container):
        self._flip(os.path.join(container, DATA_FILE),
                   self._chunk_start(container, 2) + 5)
        with ChunkedTraceReader(container) as r:
            r.read_batch(0)  # intact chunks still decode
            with pytest.raises(TraceError, match="checksum") as exc:
                r.read_batch(2)
            assert exc.value.batch_index == 2

    def test_index_header_bitflip_detected_at_open(self, container):
        self._flip(os.path.join(container, INDEX_FILE), 20)
        with pytest.raises(TraceError, match="header"):
            ChunkedTraceReader(container)

    def test_index_record_bitflip_detected_at_open(self, container):
        with ChunkedTraceReader(container):
            pass
        self._flip(os.path.join(container, INDEX_FILE), 64 + 10)
        with pytest.raises(TraceError, match="index"):
            ChunkedTraceReader(container)

    def test_truncated_chunk_reports_truncation(self, container, batches):
        last = len(batches) - 1
        with open(os.path.join(container, DATA_FILE), "r+b") as fh:
            fh.truncate(self._chunk_start(container, last) + 5)
        with ChunkedTraceReader(container) as r:
            with pytest.raises(TraceError, match="truncated") as exc:
                r.read_batch(last)
            assert exc.value.batch_index == last
            for i in range(last):  # chunks wholly inside still decode
                assert_batches_equal(batches[i], r.read_batch(i))

    def test_data_file_truncated_to_zero_fails_chunk_0(self, container):
        with open(os.path.join(container, DATA_FILE), "r+b") as fh:
            fh.truncate(0)
        with ChunkedTraceReader(container) as r:
            with pytest.raises(TraceError, match="truncated") as exc:
                r.verify_stored()
            assert exc.value.batch_index == 0

    def test_data_file_longer_than_index_is_refused(self, container):
        """No CRC would cover bytes past the last chunk."""
        with open(os.path.join(container, DATA_FILE), "ab") as fh:
            fh.write(bytes(8))
        with ChunkedTraceReader(container) as r:
            with pytest.raises(TraceError, match="declares"):
                r.read_batch(0)
            with pytest.raises(TraceError, match="declares"):
                r.verify_stored()

    def test_missing_container_is_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot open"):
            ChunkedTraceReader(str(tmp_path / "absent"))


class TestMigration:
    def test_v2_to_v4_is_bit_identical_batch_by_batch(self, tmp_path, batches):
        src = str(tmp_path / "old.npz")
        with TraceWriter(src) as w:
            for b in batches:
                w.append(b)
        dst = str(tmp_path / "new")
        n, total = migrate_trace(src, dst)
        assert n == len(batches)
        assert total == sum(len(b) for b in batches)
        with TraceReader(src) as old, TraceReader(dst) as new:
            assert new.version == 4
            for a, b in zip(old, new):
                assert_batches_equal(a, b)

    def test_migration_preserves_content_digest(self, tmp_path, batches):
        src = str(tmp_path / "old.npz")
        with TraceWriter(src) as w:
            for b in batches:
                w.append(b)
        migrate_trace(src, str(tmp_path / "new"))
        with TraceReader(src) as old, TraceReader(str(tmp_path / "new")) as new:
            assert old.payload_crcs() == new.payload_crcs()
            events_crc = zlib.crc32(b"[]")
            assert (content_digest_from_crcs(events_crc, old.payload_crcs())
                    == content_digest_from_crcs(events_crc, new.payload_crcs()))

    def test_v4_to_v4_recompression(self, tmp_path, batches):
        src = str(tmp_path / "a")
        with ChunkedTraceWriter(src, codec="raw") as w:
            for b in batches:
                w.append(b)
        n, _total = migrate_trace(src, str(tmp_path / "b"), codec="zlib")
        assert n == len(batches)
        with ChunkedTraceReader(str(tmp_path / "b")) as r:
            assert all(rec.codec == CODEC_ZLIB for rec in r.records)
            for orig, got in zip(batches, r):
                assert_batches_equal(orig, got)

    def test_failed_migration_leaves_no_container(self, tmp_path):
        src = str(tmp_path / "bad.npz")
        with open(src, "wb") as fh:
            fh.write(b"not an archive")
        with pytest.raises(TraceError):
            migrate_trace(src, str(tmp_path / "out"))
        assert not os.path.exists(tv4_path(str(tmp_path / "out")))
        assert not os.path.exists(tv4_path(str(tmp_path / "out")) + ".tmp")
