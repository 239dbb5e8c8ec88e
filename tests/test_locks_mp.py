"""KeyLock under *real* multi-process contention.

The single-process lock tests elsewhere exercise the flock semantics
through two handles in one process; these tests put actual processes on
the lock, because that is the deployment story for ``run_all(jobs=N)``:

* N processes racing to record the same spec on one shared cache root
  must produce exactly one application execution (``app_runs`` sums to
  1 across the pool) — the losers replay the winner's artifact;
* a lock holder that dies ungracefully (SIGKILL — no ``finally``, no
  ``atexit``) must not deadlock anyone: the kernel releases ``flock``
  on process death;
* gc unlinks an evicted key's lock files while it holds them: a process
  blocked on one of them ends up holding the file now at the path.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import shutil
import signal
import time

import pytest

from repro.engine import PipelineEngine, RunSpec
from repro.engine.artifacts import ArtifactCache
from repro.engine.locks import KeyLock, unpin, unpinned
from repro.errors import CacheLockError

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="contention tests need real processes sharing a cache root",
)

SPEC = dict(app="gtc", refs_per_iteration=2_000, scale=1.0 / 256.0,
            n_iterations=3, seed=11)


def _race_record(root: str, barrier, q) -> None:
    eng = PipelineEngine(root=root)
    barrier.wait()  # line everyone up on the same starting gun
    eng.record(RunSpec(**SPEC))
    q.put(eng.stats.snapshot())


def _hold_lock_until_killed(lock_path: str, ready) -> None:
    KeyLock(lock_path).acquire()
    ready.set()
    time.sleep(3600)  # killed long before this returns


def _begin_then_die(root: str, ready) -> None:
    cache = ArtifactCache(root)
    pending = cache.begin(RunSpec(**SPEC))
    # leave something partial so the next writer must clean up after us
    with open(os.path.join(pending.directory, "events.json"), "wb") as fh:
        fh.write(b"partial garbage")
    ready.set()
    time.sleep(3600)


def _is_at(fd: int, path: str) -> bool:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return False
    fst = os.fstat(fd)
    return (st.st_dev, st.st_ino) == (fst.st_dev, fst.st_ino)


def _wait_on_key(root: str, key: str, what: str, timeout, gc_holds,
                 waiting, done, q) -> None:
    """Once gc holds *key*, block on its lock (or pin) file, which gc is
    about to unlink; report whether what we got is the file at the
    path, then hold it until *done*."""
    cache = ArtifactCache(root)
    assert gc_holds.wait(30)
    waiting.set()
    if what == "lock":
        lock = cache.lock_for(key)
        lock.acquire(timeout=timeout)
        q.put(_is_at(lock._fd, lock.path))
        done.wait(60)
        lock.release()
    else:
        fd = cache.pin(key)
        q.put(_is_at(fd, cache._pin_path(key)))
        done.wait(60)
        unpin(fd)


class TestMultiProcessContention:
    N = 4

    def test_n_racers_one_execution(self, tmp_path):
        mp = multiprocessing.get_context("fork")
        barrier = mp.Barrier(self.N)
        q = mp.Queue()
        procs = [mp.Process(target=_race_record,
                            args=(str(tmp_path / "cache"), barrier, q))
                 for _ in range(self.N)]
        for p in procs:
            p.start()
        stats = [q.get(timeout=120) for _ in range(self.N)]
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        total_runs = sum(s["app_runs"] for s in stats)
        total_hits = sum(s["cache_hits"] for s in stats)
        assert total_runs == 1, f"spec executed {total_runs} times"
        assert total_hits == self.N - 1
        # the one committed artifact is intact and replayable
        eng = PipelineEngine(root=str(tmp_path / "cache"))
        art = eng.cache.get(RunSpec(**SPEC))
        assert art is not None
        assert art.verify() > 0

    def test_killed_holder_releases_lock(self, tmp_path):
        mp = multiprocessing.get_context("fork")
        lock_path = str(tmp_path / "locks" / "k.lock")
        ready = mp.Event()
        holder = mp.Process(target=_hold_lock_until_killed,
                            args=(lock_path, ready))
        holder.start()
        assert ready.wait(timeout=30)
        # while the holder lives, the lock is genuinely contended
        assert not KeyLock(lock_path).try_acquire()
        os.kill(holder.pid, signal.SIGKILL)
        holder.join(timeout=30)
        lock = KeyLock(lock_path)
        lock.acquire(timeout=10.0)  # kernel released it: no deadlock
        assert lock.held
        lock.release()

    def test_killed_holder_times_out_others_while_alive(self, tmp_path):
        mp = multiprocessing.get_context("fork")
        lock_path = str(tmp_path / "locks" / "k.lock")
        ready = mp.Event()
        holder = mp.Process(target=_hold_lock_until_killed,
                            args=(lock_path, ready))
        holder.start()
        try:
            assert ready.wait(timeout=30)
            with pytest.raises(CacheLockError):
                KeyLock(lock_path).acquire(timeout=0.2)
        finally:
            os.kill(holder.pid, signal.SIGKILL)
            holder.join(timeout=30)

    def test_recorder_killed_mid_write_does_not_wedge_cache(self, tmp_path):
        """A recorder SIGKILLed while holding the key lock with a partial
        artifact on disk must not block the next recorder."""
        mp = multiprocessing.get_context("fork")
        root = str(tmp_path / "cache")
        ready = mp.Event()
        victim = mp.Process(target=_begin_then_die, args=(root, ready))
        victim.start()
        assert ready.wait(timeout=30)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)
        eng = PipelineEngine(root=root)
        art = eng.record(RunSpec(**SPEC))  # cleans up, re-records
        assert eng.stats.app_runs == 1
        assert art.verify() > 0

    @pytest.mark.parametrize("what,timeout", [
        ("lock", None), ("lock", 60.0), ("pin", None)])
    def test_waiter_on_a_file_gc_unlinks_holds_the_new_one(
            self, tmp_path, monkeypatch, what, timeout):
        """gc evicts a key, unlinking its .lock and .pin while it holds
        them, as a recorder (blocking or polling) or a reader waits on
        one, and a second holder takes the new file at the path before
        gc lets go of the old one: the waiter ends up on the new file
        too, so it waits out the second holder's lock, and its pin keeps
        a later gc away."""
        mp = multiprocessing.get_context("fork")
        root = str(tmp_path / "cache")
        spec = RunSpec(**SPEC)
        PipelineEngine(root=root).record(spec)
        cache = ArtifactCache(root)
        target = (cache.lock_for(spec.key).path if what == "lock"
                  else cache._pin_path(spec.key))
        gc_holds, waiting, done = mp.Event(), mp.Event(), mp.Event()
        q = mp.Queue()
        waiter = mp.Process(target=_wait_on_key, args=(
            root, spec.key, what, timeout, gc_holds, waiting, done, q))
        waiter.start()
        rmtree, unlink = shutil.rmtree, os.unlink
        second = []

        def rmtree_while_waited_on(path, *args, **kwargs):
            # gc holds the key's lock and pin here
            gc_holds.set()
            assert waiting.wait(30)
            time.sleep(0.3)  # let the waiter block on the old file
            rmtree(path, *args, **kwargs)

        def unlink_then_take_the_new_file(path, *args, **kwargs):
            unlink(path, *args, **kwargs)
            if path == target:
                if what == "lock":
                    second.append(cache.lock_for(spec.key))
                    assert second[0].try_acquire()
                else:
                    second.append(cache.pin(spec.key))

        monkeypatch.setattr(shutil, "rmtree", rmtree_while_waited_on)
        monkeypatch.setattr(os, "unlink", unlink_then_take_the_new_file)
        try:
            assert cache.gc(max_bytes=0).evicted == [spec.key]
            monkeypatch.undo()
            assert second, "gc did not unlink the file"
            if what == "lock":
                # the waiter waits on the second holder's file
                with pytest.raises(queue.Empty):
                    q.get(timeout=0.5)
                second[0].release()
                assert q.get(timeout=30) is True
                assert not cache.lock_for(spec.key).try_acquire()
            else:
                assert q.get(timeout=30) is True
                unpin(second[0])
                with unpinned(target) as free:
                    assert not free
        finally:
            done.set()
            waiter.join(timeout=30)
        assert waiter.exitcode == 0
