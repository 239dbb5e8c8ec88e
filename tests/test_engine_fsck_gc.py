"""``engine fsck`` / ``engine gc``: cache scrubbing and budget eviction."""

import json
import os
import shutil
import subprocess
import time

import numpy as np
import pytest

from repro import cli
from repro.engine import ArtifactCache, PipelineEngine, RunSpec
from repro.engine.chaos import flip_file_bit
from repro.engine.locks import unpin
from repro.engine.artifacts import (
    STAGE_MARKER,
    STAGE_TTL_S,
    _host_tag,
)
from repro.errors import ConfigurationError
from repro.trace.record import RefBatch

SPEC = dict(refs_per_iteration=800, scale=1.0 / 256.0, n_iterations=2)


def make_spec(app="gtc", seed=0):
    return RunSpec(app=app, seed=seed, **SPEC)


def leave_partial(cache, seed=99):
    """A crashed recording of ``make_spec(seed)``: no commit marker."""
    pending = cache.begin(make_spec(seed=seed))
    pending.writer.close()
    pending._finish()


def populate(root, n=3):
    """Commit *n* distinct artifacts; returns (cache, specs)."""
    cache = ArtifactCache(root)
    eng = PipelineEngine(cache=cache)
    specs = [make_spec(seed=s) for s in range(n)]
    for spec in specs:
        eng.record(spec)
    return cache, specs


# ----------------------------------------------------------------------
class TestFsck:
    def test_clean_cache_is_clean(self, tmp_path):
        cache, specs = populate(tmp_path)
        report = cache.fsck()
        assert report.clean
        assert len(report.ok) == len(specs)
        assert not report.partial and not report.corrupt
        assert "3 ok" in report.table()

    def test_detects_every_injected_bitflip(self, tmp_path):
        """100% detection: a flip in any committed file, over many seeds,
        always surfaces as a corrupt entry."""
        cache, specs = populate(tmp_path, n=1)
        spec = specs[0]
        pristine = tmp_path / "pristine"
        shutil.copytree(cache.dir_for(spec.key), pristine)
        detected = 0
        trials = 0
        for target in ("refs.tv4", "events.json", "meta.json"):
            for seed in range(8):
                shutil.rmtree(cache.dir_for(spec.key))
                shutil.copytree(pristine, cache.dir_for(spec.key))
                flip_file_bit(os.path.join(cache.dir_for(spec.key), target),
                              seed=seed)
                trials += 1
                report = cache.fsck()
                if not report.clean:
                    detected += 1
        assert detected == trials, f"missed {trials - detected}/{trials} flips"

    def test_partial_does_not_make_cache_unclean(self, tmp_path):
        cache, specs = populate(tmp_path, n=1)
        pending = cache.begin(make_spec(seed=99))
        pending.writer.close()  # refs.tv4 exists, no commit marker
        pending._finish()
        report = cache.fsck()
        assert report.clean  # the commit protocol already hides partials
        assert len(report.partial) == 1
        assert "no meta.json" in report.partial[0].detail

    def test_repair_quarantines_corrupt_and_removes_partial(self, tmp_path):
        cache, specs = populate(tmp_path, n=2)
        bad = specs[0]
        flip_file_bit(cache.get(bad).refs_path, seed=1)
        pending = cache.begin(make_spec(seed=99))
        pending.writer.close()
        pending._finish()
        report = cache.fsck(repair=True)
        assert report.clean  # everything found was repaired this pass
        assert report.corrupt[0].action == "quarantined"
        assert report.partial[0].action == "removed"
        assert cache.get(bad) is None  # out of service
        # the forensic copy exists next to where the artifact lived
        shard = os.path.dirname(cache.dir_for(bad.key))
        assert any(".quarantine" in d for d in os.listdir(shard))
        # a second pass sees a healthy cache (+1 quarantine dir)
        again = cache.fsck()
        assert again.clean
        assert again.quarantined_dirs == 1
        assert not again.partial

    def test_repair_keeps_a_partial_whose_key_lock_is_held(self, tmp_path):
        """--repair removes a partial only under its key lock, as gc
        does: a live recorder's in-progress files survive, and it can
        still commit them."""
        cache, _specs = populate(tmp_path, n=1)
        spec = make_spec(seed=97)
        pending = cache.begin(spec)  # holds the key lock
        try:
            report = cache.fsck(repair=True)
            (entry,) = report.partial
            assert entry.key == spec.key and not entry.action
            assert os.path.isdir(pending.directory)
            pending.writer.append(RefBatch(
                addr=np.arange(8), is_write=np.zeros(8, bool),
                size=np.full(8, 8), oid=np.zeros(8)))
            art = pending.commit([], {"key": spec.key, "n_batches": 1})
        except BaseException:
            pending.abort()
            raise
        assert art.verify() == 1
        # with the lock free, the same repair removes a partial
        leave_partial(cache, seed=96)
        report = cache.fsck(repair=True)
        assert [e.action for e in report.partial] == ["removed"]

    def test_older_cache_container_is_corrupt(self, tmp_path):
        """An artifact whose trace an older cache wrote (``refs.tv3``)
        is reported corrupt, and ``--repair`` takes it out of service."""
        cache, specs = populate(tmp_path, n=2)
        old = cache.get(specs[0])
        os.rename(old.refs_path, os.path.join(old.directory, "refs.tv3"))
        report = cache.fsck()
        assert not report.clean
        assert [e.key for e in report.corrupt] == [specs[0].key]
        assert "no v4 container" in report.corrupt[0].detail
        report = cache.fsck(repair=True)
        assert report.clean
        assert report.corrupt[0].action == "quarantined"
        assert cache.get(specs[0]) is None
        assert len(report.ok) == 1

    def test_unrepaired_corruption_is_unclean(self, tmp_path):
        cache, specs = populate(tmp_path, n=1)
        flip_file_bit(cache.get(specs[0]).refs_path, seed=2)
        report = cache.fsck(repair=False)
        assert not report.clean
        assert report.corrupt and not report.corrupt[0].action

    def test_stray_tmp_files_reported_and_removed(self, tmp_path):
        cache, specs = populate(tmp_path, n=1)
        art = cache.get(specs[0])
        stray = os.path.join(art.directory, "meta.json.tmp")
        with open(stray, "w") as fh:
            fh.write("{}")
        report = cache.fsck()
        assert report.clean  # stray tmp alongside a valid commit is benign
        assert "stray tmp" in report.ok[0].detail
        cache.fsck(repair=True)
        assert not os.path.exists(stray)

    def test_misfiled_artifact_is_corrupt(self, tmp_path):
        """meta.json naming a different key (copied/moved by hand)."""
        cache, specs = populate(tmp_path, n=1)
        src = cache.dir_for(specs[0].key)
        fake_key = "ab" + "0" * 62
        dest = cache.dir_for(fake_key)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copytree(src, dest)
        report = cache.fsck()
        assert not report.clean
        assert any(e.key == fake_key and "misfiled" in e.detail
                   for e in report.corrupt)


# ----------------------------------------------------------------------
class TestGc:
    def test_under_budget_evicts_nothing(self, tmp_path):
        cache, specs = populate(tmp_path)
        report = cache.gc(max_bytes=1 << 30)
        assert not report.evicted and not report.over_budget
        assert report.before_bytes == report.after_bytes
        for spec in specs:
            assert cache.get(spec) is not None

    def test_lru_order_by_last_access_stamp(self, tmp_path):
        cache, specs = populate(tmp_path)
        sizes = {s.key: cache.get(s).size_bytes() for s in specs}
        # pin explicit last-use stamps: specs[1] oldest, specs[0] newest
        for rank, spec in zip((2, 0, 1), specs):
            t = 1_000_000_000 + rank * 1_000
            os.utime(cache.get(spec).last_access_path, (t, t))
        budget = sum(sizes.values()) - 1  # must evict exactly the oldest
        report = cache.gc(budget)
        assert report.evicted == [specs[1].key]
        assert cache.get(specs[1]) is None
        assert cache.get(specs[0]) is not None
        assert cache.get(specs[2]) is not None
        assert not report.over_budget

    def test_get_refreshes_lru_stamp(self, tmp_path):
        cache, specs = populate(tmp_path)
        old = 1_000_000_000
        for spec in specs:
            os.utime(cache.get(spec).last_access_path, (old, old))
        # a hit on specs[0] must move it to the back of the eviction queue
        cache.get(specs[0])
        total = sum(cache.get(s).size_bytes() for s in specs)
        report = cache.gc(total - 1)
        assert specs[0].key not in report.evicted
        assert len(report.evicted) >= 1

    def test_pre_stamp_cache_falls_back_to_meta_mtime(self, tmp_path):
        """A cache written before the last_access stamp existed (no
        sidecar files) must still evict in a sensible order — by
        meta.json mtime, never atime."""
        cache, specs = populate(tmp_path)
        sizes = {}
        for spec in specs:
            art = cache.get(spec)
            sizes[spec.key] = art.size_bytes()
            os.unlink(art.last_access_path)  # simulate a pre-stamp cache
        for rank, spec in zip((1, 2, 0), specs):
            t = 1_000_000_000 + rank * 1_000
            meta = os.path.join(cache.dir_for(spec.key), "meta.json")
            # pin mtime but give atime a *contradictory* (newest) value:
            # ordering must ignore it, as it would on a noatime mount
            os.utime(meta, (2_000_000_000 - rank, t))
        report = cache.gc(sum(sizes.values()) - 1)
        assert report.evicted == [specs[2].key]

    def test_in_use_artifact_never_evicted(self, tmp_path):
        cache, specs = populate(tmp_path, n=2)
        lock = cache.lock_for(specs[0].key)
        lock.acquire(timeout=1.0)
        try:
            report = cache.gc(max_bytes=0)
            assert specs[0].key in report.skipped_in_use
            assert specs[0].key not in report.evicted
            assert cache.get(specs[0]) is not None
            assert report.over_budget
            assert "still over budget" in report.summary()
        finally:
            lock.release()
        assert cache.get(specs[1]) is None  # the free one was evicted

    def test_protect_keys(self, tmp_path):
        """A pinned key is kept and reported in use until unpinned."""
        cache, specs = populate(tmp_path, n=2)
        fd = cache.pin(specs[1].key)
        try:
            report = cache.gc(max_bytes=0)
        finally:
            unpin(fd)
        assert cache.get(specs[1]) is not None
        assert report.skipped_in_use == [specs[1].key]
        assert cache.get(specs[0]) is None
        assert cache.gc(max_bytes=0).evicted == [specs[1].key]

    def test_evicting_every_key_leaves_no_lock_files(self, tmp_path):
        """A key's .lock and .pin files go with the key."""
        cache, specs = populate(tmp_path)
        for spec in specs:
            unpin(cache.pin(spec.key))
        locks = os.path.join(cache.root, ".locks")
        assert len(os.listdir(locks)) == 2 * len(specs)
        assert len(cache.gc(max_bytes=0).evicted) == len(specs)
        assert os.listdir(locks) == []
        # and a removed partial's lock goes too
        leave_partial(cache)
        assert cache.gc(max_bytes=0).removed_partial == 1
        assert os.listdir(locks) == []

    def test_pin_taken_after_the_scan_still_blocks_eviction(
            self, tmp_path, monkeypatch):
        """gc checks the pin while it holds it across the removal, so a
        pin landing between the scan and the eviction keeps the key."""
        cache, specs = populate(tmp_path, n=1)
        fds = []
        scan = cache.scan

        def scan_then_pin():
            yield from scan()
            fds.append(cache.pin(specs[0].key))

        monkeypatch.setattr(cache, "scan", scan_then_pin)
        try:
            report = cache.gc(max_bytes=0)
        finally:
            for fd in fds:
                unpin(fd)
        assert fds and report.skipped_in_use == [specs[0].key]
        assert cache.get(specs[0]) is not None

    def test_pinned_partial_dir_is_kept(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        spec = make_spec(seed=99)
        pending = cache.begin(spec)
        pending.writer.close()
        pending._finish()  # a crashed recording: no commit marker
        fd = cache.pin(spec.key)
        try:
            report = cache.gc(max_bytes=0)
        finally:
            unpin(fd)
        assert report.removed_partial == 0
        assert report.skipped_in_use == [spec.key]
        assert cache.gc(max_bytes=0).removed_partial == 1

    def test_key_lock_taken_after_the_scan_keeps_a_partial(
            self, tmp_path, monkeypatch):
        """gc removes a partial directory only while it holds the key's
        lock, so a builder that takes the lock between the scan and the
        removal keeps its in-progress files."""
        cache = ArtifactCache(tmp_path)
        spec = make_spec(seed=99)
        pending = cache.begin(spec)
        pending.writer.close()
        pending._finish()  # a crashed recording: no commit marker
        builder = cache.lock_for(spec.key)
        scan = cache.scan

        def scan_then_lock():
            yield from scan()
            assert builder.try_acquire()

        monkeypatch.setattr(cache, "scan", scan_then_lock)
        try:
            report = cache.gc(max_bytes=0)
        finally:
            builder.release()
        assert report.removed_partial == 0
        assert report.skipped_in_use == [spec.key]
        assert os.path.isdir(os.path.join(cache.dir_for(spec.key), "refs.tv4"))
        monkeypatch.undo()
        assert cache.gc(max_bytes=0).removed_partial == 1

    def test_partial_committed_after_the_scan_is_kept(
            self, tmp_path, monkeypatch):
        """A builder that commits a scanned partial before gc reaches it
        keeps its artifact."""
        cache = ArtifactCache(tmp_path)
        spec = make_spec(seed=98)
        pending = cache.begin(spec)
        pending.writer.close()
        pending._finish()
        scan = cache.scan

        def scan_then_commit():
            yield from scan()
            PipelineEngine(cache=cache).record(spec)

        monkeypatch.setattr(cache, "scan", scan_then_commit)
        report = cache.gc(max_bytes=1 << 30)
        assert report.removed_partial == 0
        assert cache.get(spec).verify() > 0

    def test_partials_are_removed_first(self, tmp_path):
        cache, specs = populate(tmp_path, n=1)
        pending = cache.begin(make_spec(seed=99))
        pending.writer.close()
        pending._finish()
        report = cache.gc(max_bytes=1 << 30)
        assert report.removed_partial == 1
        assert not report.evicted  # the committed artifact survived
        assert cache.get(specs[0]) is not None

    def test_quarantine_dirs_evicted_before_artifacts(self, tmp_path):
        cache, specs = populate(tmp_path, n=2)
        flip_file_bit(cache.get(specs[0]).refs_path, seed=3)
        cache.fsck(repair=True)  # specs[0] -> quarantine dir
        live = cache.get(specs[1])
        budget = live.size_bytes()  # room for exactly the live artifact
        report = cache.gc(budget)
        assert len(report.evicted_quarantine) == 1
        assert not report.evicted
        assert cache.get(specs[1]) is not None


# ----------------------------------------------------------------------
class TestCliFsckGc:
    def test_fsck_exit_0_on_clean(self, tmp_path, capsys):
        populate(tmp_path, n=1)
        rc = cli.main(["engine", "fsck", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "1 ok" in capsys.readouterr().out

    def test_fsck_exit_1_on_corruption(self, tmp_path, capsys):
        cache, specs = populate(tmp_path, n=1)
        flip_file_bit(cache.get(specs[0]).refs_path, seed=4)
        rc = cli.main(["engine", "fsck", "--cache-dir", str(tmp_path)])
        assert rc == 1
        assert "corrupt" in capsys.readouterr().out

    def test_fsck_repair_then_clean(self, tmp_path, capsys):
        cache, specs = populate(tmp_path, n=1)
        flip_file_bit(cache.get(specs[0]).refs_path, seed=4)
        rc = cli.main(["engine", "fsck", "--cache-dir", str(tmp_path),
                       "--repair"])
        assert rc == 0  # repaired this very pass: nothing left in service
        assert "quarantined" in capsys.readouterr().out
        assert cli.main(["engine", "fsck", "--cache-dir",
                         str(tmp_path)]) == 0

    def test_gc_exit_0_and_reports(self, tmp_path, capsys):
        populate(tmp_path, n=2)
        rc = cli.main(["engine", "gc", "--cache-dir", str(tmp_path),
                       "--max-bytes", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "evicted 2 artifact(s)" in out

    def test_gc_bad_budget_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["engine", "gc", "--cache-dir", str(tmp_path),
                       "--max-bytes", "lots"])
        assert rc == 2
        assert "cannot parse byte size" in capsys.readouterr().err

    @pytest.mark.parametrize("text,expect", [
        ("1048576", 1 << 20),
        ("500K", 500 << 10),
        ("2g", 2 << 30),
        ("1.5M", int(1.5 * (1 << 20))),
        ("10MiB", 10 << 20),
        ("0", 0),
    ])
    def test_parse_bytes(self, text, expect):
        assert cli._parse_bytes(text) == expect

    @pytest.mark.parametrize("text", ["", "-1", "4x", "M"])
    def test_parse_bytes_rejects_junk(self, text):
        with pytest.raises(ConfigurationError):
            cli._parse_bytes(text)

    def test_gc_respects_suffix_budget(self, tmp_path):
        cache, specs = populate(tmp_path, n=1)
        rc = cli.main(["engine", "gc", "--cache-dir", str(tmp_path),
                       "--max-bytes", "1G"])
        assert rc == 0
        assert cache.get(specs[0]) is not None

    def test_engine_stats_prints_healing_counters(self, tmp_path, capsys):
        rc = cli.main(["engine", "stats", "gtc", "--refs", "500",
                       "--iterations", "2", "--scale", str(1.0 / 256.0),
                       "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "quarantined: 0" in out and "re-recorded: 0" in out

    def test_fsck_survives_junk_files_in_cache_root(self, tmp_path, capsys):
        cache, _specs = populate(tmp_path, n=1)
        # files (not dirs) and odd names must not crash the walk
        with open(tmp_path / "README", "w") as fh:
            fh.write("not an artifact\n")
        os.makedirs(tmp_path / "zz" / "not-a-key-either", exist_ok=True)
        with open(tmp_path / "zz" / "stray-file", "w") as fh:
            fh.write("x")
        rc = cli.main(["engine", "fsck", "--cache-dir", str(tmp_path)])
        # the stray dir has no commit marker: a partial, still clean
        assert rc == 0

    def test_quarantine_meta_readable_for_forensics(self, tmp_path):
        """The quarantined copy keeps its files for post-mortem."""
        cache, specs = populate(tmp_path, n=1)
        art = cache.get(specs[0])
        flip_file_bit(art.refs_path, seed=5)
        cache.fsck(repair=True)
        shard = os.path.dirname(cache.dir_for(specs[0].key))
        qdir = next(os.path.join(shard, d) for d in os.listdir(shard)
                    if ".quarantine" in d)
        with open(os.path.join(qdir, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta["key"] == specs[0].key


# ----------------------------------------------------------------------
class TestStageEviction:
    """Fenced staged recordings (``<key>.stage.<epoch>-<pid>-<tag>/``):
    fsck and gc evict a stage whose *local* recorder pid is gone
    immediately, fall back to the TTL for remote or old-format names,
    and never touch a stage whose recorder is still alive."""

    @staticmethod
    def make_stage(cache, key, suffix, age_s=0.0):
        path = cache.dir_for(key) + STAGE_MARKER + suffix
        os.makedirs(path)
        with open(os.path.join(path, "refs.tv4"), "w") as fh:
            fh.write("half-written stage payload")
        if age_s:
            t = time.time() - age_s
            os.utime(path, (t, t))
        return path

    @staticmethod
    def dead_pid():
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        return proc.pid

    def test_fsck_evicts_local_dead_pid_stage_immediately(self, tmp_path):
        cache, specs = populate(tmp_path, n=1)
        stage = self.make_stage(cache, specs[0].key,
                                f"3-{self.dead_pid()}-{_host_tag()}")
        report = cache.fsck()
        assert any("orphaned fenced stage" in e.detail
                   for e in report.partial)
        cache.fsck(repair=True)
        assert not os.path.exists(stage)
        assert cache.get(specs[0]) is not None  # the artifact survived

    def test_live_and_remote_stages_are_kept(self, tmp_path):
        cache, specs = populate(tmp_path, n=1)
        remote_tag = "0" * 8 if _host_tag() != "0" * 8 else "1" * 8
        kept = [
            # a live local recorder owns this stage
            self.make_stage(cache, specs[0].key,
                            f"3-{os.getpid()}-{_host_tag()}"),
            # remote host: its pid table means nothing here, TTL only
            self.make_stage(cache, specs[0].key,
                            f"4-{self.dead_pid()}-{remote_tag}"),
            # pre-host-tag name format: TTL only
            self.make_stage(cache, specs[0].key, f"5-{self.dead_pid()}"),
        ]
        report = cache.fsck(repair=True)
        assert report.clean
        for path in kept:
            assert os.path.isdir(path), f"live/remote stage evicted: {path}"

    def test_ttl_still_reaps_old_format_and_remote_stages(self, tmp_path):
        cache, specs = populate(tmp_path, n=1)
        old = STAGE_TTL_S + 60
        stale = [
            self.make_stage(cache, specs[0].key,
                            f"6-{self.dead_pid()}", age_s=old),
            self.make_stage(cache, specs[0].key,
                            f"7-{self.dead_pid()}-{'0' * 8}", age_s=old),
        ]
        report = cache.fsck()
        assert sum("stale fenced stage" in e.detail
                   for e in report.partial) == 2
        cache.fsck(repair=True)
        for path in stale:
            assert not os.path.exists(path)

    def test_gc_removes_dead_pid_stage_under_any_budget(self, tmp_path):
        cache, specs = populate(tmp_path, n=1)
        dead = self.make_stage(cache, specs[0].key,
                               f"8-{self.dead_pid()}-{_host_tag()}")
        live = self.make_stage(cache, specs[0].key,
                               f"9-{os.getpid()}-{_host_tag()}")
        report = cache.gc(max_bytes=1 << 30)
        assert report.removed_partial == 1
        assert not os.path.exists(dead)
        assert os.path.isdir(live)
        assert cache.get(specs[0]) is not None


# ----------------------------------------------------------------------
class TestOneScan:
    """fsck, gc and ``engine ls`` read one classified scan of the
    fan-out and one vanish-tolerant byte count."""

    def test_gc_fsck_and_ls_survive_a_file_that_vanished(
            self, tmp_path, monkeypatch, capsys):
        """Every ``publish_file`` temporary is renamed away: one the walk
        listed may be gone before its size is read."""
        cache, specs = populate(tmp_path, n=2)
        sizes = sum(cache.get(s).size_bytes() for s in specs)
        real_walk = os.walk

        def walk_listing_a_ghost(top, *args, **kwargs):
            for dirpath, dirnames, filenames in real_walk(top, *args,
                                                          **kwargs):
                yield dirpath, dirnames, filenames + ["meta.json.tmp"]

        monkeypatch.setattr(os, "walk", walk_listing_a_ghost)
        report = cache.gc(max_bytes=1 << 30)
        assert report.before_bytes == sizes and not report.evicted
        assert cache.fsck().clean
        assert cli.main(["engine", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "2 artifact(s)" in capsys.readouterr().out

    def test_engine_ls_skips_an_orphaned_stage_holding_meta(
            self, tmp_path, capsys):
        """A fenced stage that got as far as its commit marker is not a
        second copy of the artifact."""
        cache, specs = populate(tmp_path, n=1)
        key = specs[0].key
        dead = TestStageEviction.dead_pid()
        stage = cache.dir_for(key) + STAGE_MARKER + f"3-{dead}-{_host_tag()}"
        shutil.copytree(cache.dir_for(key), stage)
        assert cli.main(["engine", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert sum(ln.startswith(key[:12]) for ln in out.splitlines()) == 1
        assert "1 artifact(s)" in out

    def test_scan_classifies_each_entry_once(self, tmp_path):
        cache, specs = populate(tmp_path, n=2)
        flip_file_bit(cache.get(specs[0]).refs_path, seed=1)
        cache.fsck(repair=True)  # specs[0] -> quarantine dir
        leave_partial(cache)
        stage = cache.dir_for(specs[1].key) + STAGE_MARKER + "4-1"
        os.makedirs(stage)
        kinds = sorted(e.kind for e in cache.scan())
        assert kinds == ["committed", "partial", "quarantined", "staged"]
