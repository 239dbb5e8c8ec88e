"""Format compatibility against *committed* v1/v2 archives and v3
containers.

These fixtures are frozen bytes written by the historical formats (see
``tests/fixtures/make_fixtures.py``). Every test migrates them through
the v4 writer and checks the result batch-by-batch against both the
fixture bytes and the canonical in-memory content — so a change to the
v4 codec, the column layout, or the CRC formula that silently altered
replayed data would fail here even if the self-roundtrip tests pass.
"""

import os
import shutil
import sys

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.chunked import (
    CHUNK_ALIGN,
    ChunkedTraceReader,
    _read_index,
    migrate_trace,
    tv4_path,
)
from repro.trace.fsio import _batch_crc
from repro.trace.io import TraceReader

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
sys.path.insert(0, FIXTURES)

from make_fixtures import fixture_batches  # noqa: E402


def fixture(name):
    return os.path.join(FIXTURES, name)


def assert_batches_equal(a, b):
    assert a.iteration == b.iteration
    np.testing.assert_array_equal(a.addr, b.addr)
    np.testing.assert_array_equal(a.is_write, b.is_write)
    np.testing.assert_array_equal(a.size, b.size)
    np.testing.assert_array_equal(a.oid, b.oid)


@pytest.mark.parametrize("name,version", [
    ("trace-v1.npz", 1),
    ("trace-v2.npz", 2),
])
class TestCommittedFixtures:
    def test_fixture_still_loads_and_matches_generator(self, name, version):
        with TraceReader(fixture(name)) as reader:
            assert reader.version == version
            got = list(reader)
        want = fixture_batches()
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert_batches_equal(a, b)

    def test_migration_to_v4_is_bit_identical(self, name, version, tmp_path):
        dst = str(tmp_path / "migrated")
        n, total = migrate_trace(fixture(name), dst)
        with TraceReader(fixture(name)) as old, TraceReader(dst) as new:
            assert new.version == 4
            assert n == old.n_batches
            old_batches = list(old)
            new_batches = list(new)
        assert total == sum(len(b) for b in old_batches)
        for a, b in zip(old_batches, new_batches):
            assert_batches_equal(a, b)

    def test_migration_preserves_payload_crcs(self, name, version, tmp_path):
        dst = str(tmp_path / "migrated")
        migrate_trace(fixture(name), dst)
        with TraceReader(fixture(name)) as old, TraceReader(dst) as new:
            # v2 stored these CRCs on disk; v1 recomputes from content.
            # Either way the migrated index must carry the same values,
            # which keeps the service content digest stable across formats.
            assert old.payload_crcs() == new.payload_crcs()
        want = [
            _batch_crc(b.addr, b.is_write, b.size, b.oid, b.iteration)
            for b in fixture_batches()
        ]
        with TraceReader(dst) as new:
            assert new.payload_crcs() == want


def fixture_crcs():
    return [_batch_crc(b.addr, b.is_write, b.size, b.oid, b.iteration)
            for b in fixture_batches()]


@pytest.mark.parametrize("name", ["trace-v3-raw.tv3", "trace-v3-zlib.tv3"])
class TestCommittedV3Fixtures:
    """v3 containers are not read directly any more; ``migrate_trace``
    copies their stored chunks into v4 without decoding them."""

    def test_not_readable_without_migration(self, name):
        with pytest.raises(TraceError, match="migrate"):
            TraceReader(fixture(name))

    def test_migration_to_v4_is_bit_identical(self, name, tmp_path):
        dst = str(tmp_path / "migrated")
        n, total = migrate_trace(fixture(name), dst)
        want = fixture_batches()
        assert (n, total) == (len(want), sum(len(b) for b in want))
        with TraceReader(dst) as new:
            assert new.version == 4
            got = list(new)
            assert new.payload_crcs() == fixture_crcs()
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert_batches_equal(a, b)

    def test_migration_copies_every_chunk_unchanged(self, name, tmp_path):
        dst = str(tmp_path / "migrated")
        migrate_trace(fixture(name), dst, codec="zlib")  # codec ignored
        version, old, _total = _read_index(fixture(name), name)
        assert version == 3
        with ChunkedTraceReader(dst) as new:
            for a, b in zip(old, new.records, strict=True):
                assert (a.n_refs, a.iteration, a.codec, a.payload_crc32,
                        a.raw_len) == (b.n_refs, b.iteration, b.codec,
                                       b.payload_crc32, b.raw_len)
                # the stored bytes gain only their zero padding
                assert b.stored_len == -(-a.stored_len // CHUNK_ALIGN) \
                    * CHUNK_ALIGN

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_damaged_chunk_fails_with_its_batch_index(self, name, damage,
                                                      tmp_path):
        src = str(tmp_path / name)
        shutil.copytree(fixture(name), src)
        chunk = os.path.join(src, "chunk-000001.bin")
        with open(chunk, "r+b") as fh:
            if damage == "flip":
                fh.seek(7)
                byte = fh.read(1)
                fh.seek(7)
                fh.write(bytes([byte[0] ^ 0x04]))
            else:
                fh.truncate(os.path.getsize(chunk) - 1)
        dst = str(tmp_path / "migrated")
        with pytest.raises(TraceError) as exc:
            migrate_trace(src, dst)
        assert exc.value.batch_index == 1
        assert not os.path.exists(tv4_path(dst))
        assert not os.path.exists(tv4_path(dst) + ".tmp")
