"""Crash-point sweep over ``nvscavenger trace migrate``.

Kill the migration at every single filesystem operation: the
destination must be either completely absent or a fully valid,
checksum-verified v4 container — never a half-published directory —
and a retry from the crashed state must converge to a migrated trace
bit-identical to an uninterrupted run. Sources are a v1 npz archive and
the committed v3 fixture containers (whose chunks migrate by copy).
"""

import os

import numpy as np
import pytest

from repro.engine.chaos import ChaosFS, IOFault, SimulatedCrash
from repro.trace.chunked import (
    ChunkedTraceReader,
    is_chunked,
    migrate_trace,
)
from repro.trace.io import write_trace
from repro.trace.record import AccessType, RefBatch


N_BATCHES = 3
#: References in the committed fixture traces (batches of 50, 60, 70).
FIXTURE_REFS = 180
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    """One v1 npz trace shared across the sweep (sources are read-only)."""
    path = str(tmp_path_factory.mktemp("src") / "trace.npz")
    rng = np.random.default_rng(7)
    batches = [
        RefBatch.from_access(
            rng.integers(0, 1 << 40, size=64, dtype=np.uint64),
            AccessType.WRITE if i % 2 else AccessType.READ,
            iteration=i,
        )
        for i in range(N_BATCHES)
    ]
    write_trace(path, batches)
    return path


def assert_absent_or_valid(dst):
    """The migrate invariant at any crash point."""
    container = is_chunked(dst)
    if container is None:
        return
    reader = ChunkedTraceReader(container)
    assert reader.verify_stored() == N_BATCHES
    batches = list(reader)
    assert len(batches) == N_BATCHES


def sweep_crash_points(tmp_path, source, total_refs):
    # enumerate the op sequence of one clean migration
    probe_fs = ChaosFS()
    probe_dst = str(tmp_path / "probe")
    migrate_trace(source, probe_dst, fs=probe_fs)
    ops = list(probe_fs.ops)
    # the publish protocol we are sweeping must actually be present
    assert any(o.startswith("replace:") for o in ops)
    assert ops[-1].startswith("fsync_dir:")
    assert len(ops) > 2 * N_BATCHES

    for i, label in enumerate(ops):
        dst = str(tmp_path / f"crash-{i}")
        fs = ChaosFS(faults=[IOFault("crash", index=i)])
        with pytest.raises(SimulatedCrash):
            migrate_trace(source, dst, fs=fs)
        assert fs.dead, f"crash point {i} ({label}) never fired"
        assert_absent_or_valid(dst)
        # retry on the crashed state (leftover .tmp and all) must
        # converge to the same container a clean run produces
        n, refs = migrate_trace(source, dst)
        assert (n, refs) == (N_BATCHES, total_refs)
        assert_absent_or_valid(dst)


class TestMigrateCrashSweep:
    def test_every_crash_point_leaves_none_or_valid(self, tmp_path, source):
        sweep_crash_points(tmp_path, source, N_BATCHES * 64)

    @pytest.mark.parametrize("name", ["trace-v3-raw.tv3",
                                      "trace-v3-zlib.tv3"])
    def test_v3_source_crash_points_leave_none_or_valid(self, tmp_path,
                                                        name):
        sweep_crash_points(tmp_path, os.path.join(FIXTURES, name),
                           FIXTURE_REFS)

    def test_torn_index_write_never_publishes(self, tmp_path, source):
        """A torn index.bin (machine died mid-write) must not leave a
        readable-looking container behind."""
        dst = str(tmp_path / "torn")
        fs = ChaosFS(faults=[IOFault("torn", op="write:index.bin",
                                     offset=16)])
        with pytest.raises(SimulatedCrash):
            migrate_trace(source, dst, fs=fs)
        assert_absent_or_valid(dst)
        assert is_chunked(dst) is None  # torn before publish: no dst
