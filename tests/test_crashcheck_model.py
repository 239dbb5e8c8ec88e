"""The crash-consistency model itself: recorder, durability coverage,
enumeration, materialization — and the end-to-end property that the
checker *flags* a protocol missing its fsyncs.

The model is only trustworthy if it is adversarial enough to catch the
classic tmp+rename-without-fsync bug and conservative enough not to
flag the correct sequence; both directions are pinned here.
"""

import json
import os

import pytest

from repro.crashcheck import (
    BLOCK,
    ProtocolSpec,
    RecordingFS,
    Schedule,
    annotate,
    enumerate_schedules,
    materialize,
    run_checker,
    snapshot_tree,
)
from repro.crashcheck.model import NEVER
from repro.errors import CrashConsistencyError


def record(tmp_path, body):
    """Run *body(root, fs)* against a RecordingFS; returns the log."""
    root = tmp_path / "root"
    root.mkdir(parents=True)
    snapshot = snapshot_tree(str(root))
    fs = RecordingFS(str(root))
    body(str(root), fs)
    return annotate(snapshot, fs.ops)


# ----------------------------------------------------------------------
class TestRecorder:
    def test_write_coalescing(self, tmp_path):
        def body(root, fs):
            with fs.open(os.path.join(root, "f"), "w") as fh:
                for piece in ("ab", "cd", "ef"):
                    fh.write(piece)

        log = record(tmp_path, body)
        writes = [o for o in log.ops if o.kind == "write"]
        assert len(writes) == 1
        assert writes[0].data == b"abcdef"

    def test_fsync_breaks_coalescing(self, tmp_path):
        def body(root, fs):
            with fs.open(os.path.join(root, "f"), "wb") as fh:
                fh.write(b"one")
                fs.fsync(fh)
                fh.write(b"two")

        log = record(tmp_path, body)
        assert [o.kind for o in log.ops] == ["creat", "write", "fsync",
                                             "write"]

    def test_makedirs_logs_each_missing_level(self, tmp_path):
        def body(root, fs):
            fs.makedirs(os.path.join(root, "a", "b", "c"))

        log = record(tmp_path, body)
        assert [o.label for o in log.ops] == ["mkdir:a", "mkdir:b",
                                              "mkdir:c"]

    def test_escape_raises(self, tmp_path):
        (tmp_path / "root").mkdir()
        fs = RecordingFS(str(tmp_path / "root"))
        with pytest.raises(ValueError):
            fs.open(str(tmp_path / "outside.txt"), "w")

    def test_rename_label_names_destination(self, tmp_path):
        def body(root, fs):
            with fs.open(os.path.join(root, "f.tmp"), "wb") as fh:
                fh.write(b"x")
            fs.replace(os.path.join(root, "f.tmp"),
                       os.path.join(root, "f"))

        log = record(tmp_path, body)
        assert log.ops[-1].label == "rename:f"


# ----------------------------------------------------------------------
class TestDurability:
    def test_fsync_covers_earlier_same_file_writes_only(self, tmp_path):
        def body(root, fs):
            with fs.open(os.path.join(root, "a"), "wb") as fa, \
                    fs.open(os.path.join(root, "b"), "wb") as fb:
                fa.write(b"aaa")
                fb.write(b"bbb")
                fs.fsync(fa)
                fa.write(b"after")

        log = record(tmp_path, body)
        write_a = log.find_op("write", "a")
        write_b = log.find_op("write", "b")
        fsync_i = next(o.index for o in log.ops if o.kind == "fsync")
        assert log.covered_at[write_a.index] == fsync_i + 1
        assert log.covered_at[write_b.index] == NEVER
        # the write after the fsync is not covered by it
        late = log.find_op("write", "a", nth=1)
        assert log.covered_at[late.index] == NEVER

    def test_file_creation_needs_parent_fsync_dir(self, tmp_path):
        def body(root, fs):
            with fs.open(os.path.join(root, "f"), "wb") as fh:
                fh.write(b"payload")
                fs.fsync(fh)  # data durable, the *name* is not

        log = record(tmp_path, body)
        creat = log.find_op("creat", "f")
        assert log.covered_at[creat.index] == NEVER

        def body2(root, fs):
            body(root, fs)
            fs.fsync_dir(root)

        log2 = record(tmp_path / "2", body2)
        creat2 = log2.find_op("creat", "f")
        assert log2.is_durable(creat2.index)

    def test_rename_across_dirs_needs_both_parents(self, tmp_path):
        def body(root, fs):
            fs.makedirs(os.path.join(root, "src"))
            fs.makedirs(os.path.join(root, "dst"))
            with fs.open(os.path.join(root, "src", "f"), "wb") as fh:
                fh.write(b"x")
            fs.rename(os.path.join(root, "src", "f"),
                      os.path.join(root, "dst", "f"))
            fs.fsync_dir(os.path.join(root, "dst"))

        log = record(tmp_path, body)
        rename = log.find_op("rename", "f")
        # only the destination parent was fsync'd: the unlink half of
        # the rename (in src/) can still be lost
        assert log.covered_at[rename.index] == NEVER

    def test_same_dir_metadata_is_prefix_ordered(self, tmp_path):
        def body(root, fs):
            for name in ("one", "two", "three"):
                with fs.open(os.path.join(root, name), "wb") as fh:
                    fh.write(b"x")

        log = record(tmp_path, body)
        k = log.n_ops
        for sched in enumerate_schedules(log, k, per_point=64):
            tree = materialize(log, sched)
            names = set(tree.children[0])
            # "two" without "one" (or "three" without "two") is not a
            # reachable state: entry ops in one dir persist in order
            assert not ("two" in names and "one" not in names)
            assert not ("three" in names and "two" not in names)

    def test_all_dropped_state_is_enumerated(self, tmp_path):
        def body(root, fs):
            with fs.open(os.path.join(root, "f"), "wb") as fh:
                fh.write(b"x")

        log = record(tmp_path, body)
        trees = [materialize(log, s).children[0]
                 for s in enumerate_schedules(log, log.n_ops,
                                              per_point=16)]
        assert {} in trees  # the crash lost everything


# ----------------------------------------------------------------------
class TestMaterialization:
    def test_data_follows_inode_through_rename(self, tmp_path):
        def body(root, fs):
            with fs.open(os.path.join(root, "f.tmp"), "wb") as fh:
                fh.write(b"payload")
                fs.fsync(fh)
            fs.replace(os.path.join(root, "f.tmp"), os.path.join(root, "f"))
            fs.fsync_dir(root)

        log = record(tmp_path, body)
        tree = materialize(log, Schedule(crash_index=log.n_ops))
        node = tree.children[0]["f"]
        assert bytes(tree.content[node]) == b"payload"

    def test_torn_write_keeps_block_prefix(self, tmp_path):
        payload = bytes(range(256)) * 8  # 2 KiB: 4 blocks

        def body(root, fs):
            with fs.open(os.path.join(root, "f"), "wb") as fh:
                fh.write(payload)

        log = record(tmp_path, body)
        write = log.find_op("write", "f")
        tree = materialize(log, Schedule(
            crash_index=log.n_ops, tears=((write.index, BLOCK),)))
        node = tree.children[0]["f"]
        assert bytes(tree.content[node]) == payload[:BLOCK]

    def test_drop_of_a_durable_op_is_ignored(self, tmp_path):
        def body(root, fs):
            with fs.open(os.path.join(root, "f"), "wb") as fh:
                fh.write(b"x")
            fs.fsync_dir(root)

        log = record(tmp_path, body)
        creat = log.find_op("creat", "f")
        tree = materialize(log, Schedule(crash_index=log.n_ops,
                                         drops=(creat.index,)))
        assert "f" in tree.children[0]

    def test_emit_writes_the_tree(self, tmp_path):
        def body(root, fs):
            fs.makedirs(os.path.join(root, "d"))
            with fs.open(os.path.join(root, "d", "f"), "wb") as fh:
                fh.write(b"hello")

        log = record(tmp_path, body)
        dest = tmp_path / "emitted"
        dest.mkdir()
        materialize(log, Schedule(crash_index=log.n_ops)).emit(str(dest))
        assert (dest / "d" / "f").read_bytes() == b"hello"


# ----------------------------------------------------------------------
# the end-to-end property: a missing fsync is *found*
# ----------------------------------------------------------------------
PAYLOAD = {"value": list(range(400))}  # > one block once serialized


def _broken_workload(root, fs, mark):
    # the classic bug: tmp + atomic rename, but neither the file data
    # nor the directory entry is ever fsync'd before acking
    tmp = os.path.join(root, "data.json.tmp")
    with fs.open(tmp, "w") as fh:
        json.dump(PAYLOAD, fh)
    fs.replace(tmp, os.path.join(root, "data.json"))
    mark("saved")


def _fixed_workload(root, fs, mark):
    tmp = os.path.join(root, "data.json.tmp")
    with fs.open(tmp, "w") as fh:
        json.dump(PAYLOAD, fh)
        fs.fsync(fh)
    fs.replace(tmp, os.path.join(root, "data.json"))
    fs.fsync_dir(root)
    mark("saved")


def _json_recover(root, acked):
    if not any(m.label == "saved" for m in acked):
        return
    try:
        with open(os.path.join(root, "data.json")) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CrashConsistencyError(
            f"acked save unreadable: {type(exc).__name__}: {exc}",
            protocol="json")
    if data != PAYLOAD:
        raise CrashConsistencyError("acked save replays wrong payload",
                                    protocol="json")


class TestCheckerFindsMissingFsync:
    def test_broken_protocol_is_flagged(self, tmp_path):
        spec = ProtocolSpec(name="json", description="broken tmp+rename",
                            setup=lambda root: None,
                            workload=_broken_workload,
                            recover=_json_recover)
        report = run_checker(spec, str(tmp_path / "w"))
        assert not report.clean
        v = report.violations[0]
        # the minimized schedule names the un-fsync'd op(s) it dropped
        assert v.schedule["drops"] or v.schedule["tears"]
        labels = set(v.schedule["labels"].values())
        assert labels & {"rename:data.json", "write:data.json.tmp",
                         "creat:data.json.tmp"}

    def test_fixed_protocol_is_clean(self, tmp_path):
        spec = ProtocolSpec(name="json", description="fixed tmp+rename",
                            setup=lambda root: None,
                            workload=_fixed_workload,
                            recover=_json_recover)
        report = run_checker(spec, str(tmp_path / "w"))
        assert report.clean
        assert report.n_unique_states >= 4
