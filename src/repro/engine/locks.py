"""Cross-process artifact locks and fencing tokens.

Two recorders pointed at the same cache root and the same
:class:`~repro.engine.spec.RunSpec` must never interleave inside one
artifact directory: ``PendingArtifact`` starts by clearing partial files,
so an unsynchronized second writer would delete the first writer's
half-written trace out from under it. :class:`KeyLock` serializes them
with one ``flock``-ed lock file per content key, kept under
``<root>/.locks/`` so artifact directories stay exactly three files.
The cache removes a key's lock files together with its directory, while
it holds them (:meth:`~repro.engine.artifacts.ArtifactCache.gc`); so
whoever gets a lock checks, once the ``flock`` lands, that its
descriptor is still the file at the path, and re-opens it if not.

``flock`` locks are advisory, per open-file-description (so two handles
in one process conflict just like two processes do), and — crucially for
crash robustness — released automatically by the kernel when the holder
dies, so a crashed recorder can never wedge the cache.

A ``flock`` alone cannot defend against a *zombie*: a worker that is
alive but frozen (SIGSTOP, NFS stall, a VM pause) keeps its lock while
the distributed queue reassigns its task, and when it thaws it would
happily clobber the new owner's work. :class:`FencingToken` closes that
hole with the classic lease-fencing protocol: every claim of a task
carries a monotonically increasing epoch, the current minimum valid
epoch is stored durably in a fence file, and revoking a lease bumps the
fence *before* the task is handed to anyone else. A lock acquisition or
an artifact commit made under a stale token is refused with
:class:`~repro.errors.FencedOutError` — the resurrected holder can only
discard its work.

A **pin** is the shared counterpart: :func:`pin` takes a shared
``flock`` on a key's ``.pin`` file (never its ``.lock``, which a
recorder holds exclusively), so any number of readers can hold a key
while :func:`unpinned` — the garbage collector's exclusive try-lock —
fails until the last of them lets go. The kernel drops a dead holder's
pins like its locks.

On platforms without ``fcntl`` (Windows) the lock degrades to a no-op:
single-process use stays correct, and the cache's commit-marker protocol
still bounds the damage of a true multi-writer race to a wasted
re-record.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.errors import CacheLockError, FencedOutError

#: Poll interval while waiting on a contended lock with a timeout.
_POLL_S = 0.01

#: Descriptors of the pins this process holds. A forked child inherits
#: them, and a ``flock`` lasts while any descriptor of its open file
#: does, so a child that outlives a release would keep the key pinned:
#: it calls :func:`drop_inherited_pins` first.
_PINS: set[int] = set()


# ----------------------------------------------------------------------
def read_fence(path: str) -> int:
    """The minimum fencing epoch *path* currently accepts (0 = no fence
    written yet, every epoch is valid)."""
    try:
        with open(path, "rb") as fh:
            return int(fh.read().strip() or 0)
    except FileNotFoundError:
        return 0
    except (OSError, ValueError):
        # an unreadable or torn fence fails safe: treat it as maximally
        # restrictive so no stale holder slips through on garbage
        return (1 << 62)


def write_fence(path: str, epoch: int, fs=None) -> None:
    """Durably publish *epoch* as the minimum valid fencing epoch.

    Atomic and fsync'd (:func:`~repro.trace.fsio.publish_file`, so one
    writer per fence file: the run's coordinator), and never moves
    backwards: a crashed writer can leave only the old value or the new
    one, and revocation-then-regrant always reads its own bump. The
    fence directory's own entry is fsync'd in its parent every time — a
    fence directory that vanished in a crash would silently regress a
    revoked epoch to 0.

    *fs* is an optional :class:`~repro.trace.fsio.OsFS`-shaped shim so
    fault injection (ChaosFS) and the crashcheck model cover the write.
    """
    from repro.trace.fsio import OsFS, ensure_dir_chain, publish_file

    fs = fs if fs is not None else OsFS()
    current = read_fence(path)
    if current >= (1 << 62):
        current = 0  # replacing a torn fence file is the repair
    directory = os.path.dirname(os.path.abspath(path))
    ensure_dir_chain(directory, os.path.dirname(directory), fs)
    publish_file(path, str(max(epoch, current)), fs)


def pid_alive(pid: int) -> bool:
    """True unless *pid* is certainly gone on this host (a pid owned by
    another user counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


@dataclass(frozen=True)
class FencingToken:
    """One claim's right to act, checkable against the durable fence.

    ``epoch`` is the monotonic claim number the coordinator granted;
    ``path`` is the fence file holding the minimum epoch still valid.
    The token is valid while ``epoch >= read_fence(path)`` — revoking
    the lease bumps the fence past ``epoch``, permanently invalidating
    this token no matter when its holder wakes up.
    """

    path: str
    epoch: int
    #: diagnostic only: who holds the token (worker id, task id, ...)
    owner: str = ""

    def current(self) -> int:
        return read_fence(self.path)

    def valid(self) -> bool:
        return self.epoch >= self.current()

    def check(self, what: str = "operation") -> None:
        """Raise :class:`~repro.errors.FencedOutError` if stale."""
        current = self.current()
        if self.epoch < current:
            raise FencedOutError(
                f"fenced out: {what} under epoch {self.epoch} refused — "
                f"the fence at {self.path} requires epoch >= {current} "
                f"(lease revoked and work reassigned"
                f"{'; holder ' + self.owner if self.owner else ''})",
                epoch=self.epoch, current=current,
            )


class KeyLock:
    """An exclusive ``flock`` on one lock file (one artifact key).

    With ``fence=`` set, the lock composes with lease fencing: the fence
    is validated *after* the flock lands (the wait may have outlasted the
    holder's lease), and a stale token releases the lock immediately and
    raises :class:`~repro.errors.FencedOutError` — a zombie can block on
    a lock, but it can never *hold* one.
    """

    def __init__(self, path: str | os.PathLike,
                 fence: FencingToken | None = None) -> None:
        self.path = os.fspath(path)
        self.fence = fence
        self._fd: int | None = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def _acquired(self) -> "KeyLock":
        """Post-acquisition fence validation: a stale token never holds."""
        if self.fence is not None:
            try:
                self.fence.check(f"lock {self.path}")
            except FencedOutError:
                self.release()
                raise
        return self

    def acquire(self, timeout: float | None = None) -> "KeyLock":
        """Take the lock, waiting at most *timeout* seconds (forever when
        ``None``); raises :class:`~repro.errors.CacheLockError` on
        timeout and :class:`~repro.errors.FencedOutError` when the
        lock's fencing token went stale while waiting."""
        if self._fd is not None:
            return self
        deadline = None if timeout is None else time.monotonic() + timeout
        self._fd = _open_locked(self.path, os.O_RDWR,
                                lambda fd: self._flock(fd, timeout, deadline))
        return self._acquired()

    def _flock(self, fd: int, timeout: float | None,
               deadline: float | None) -> None:
        if deadline is None:
            fcntl.flock(fd, fcntl.LOCK_EX)
            return
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return
            except OSError:
                if time.monotonic() >= deadline:
                    raise CacheLockError(
                        f"timed out after {timeout:.3f}s waiting for "
                        f"artifact lock {self.path}"
                    ) from None
                time.sleep(_POLL_S)

    def try_acquire(self) -> bool:
        """Non-blocking attempt; True iff the lock is now held."""
        try:
            self.acquire(timeout=0.0)
            return True
        except CacheLockError:
            return False

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def __enter__(self) -> "KeyLock":
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


def _open_locked(path: str, flags: int, lock) -> int:
    """Open *path* (created if missing) and apply *lock* to the
    descriptor; once it lands, return the descriptor if it is still the
    file at *path*. A file unlinked meanwhile guards nothing, so the one
    now at the path is opened and locked instead."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    while True:
        fd = os.open(path, os.O_CREAT | flags, 0o644)
        try:
            if fcntl is not None:
                lock(fd)
            st, fst = os.stat(path), os.fstat(fd)
        except FileNotFoundError:
            os.close(fd)
            continue
        except BaseException:
            os.close(fd)
            raise
        if (st.st_dev, st.st_ino) == (fst.st_dev, fst.st_ino):
            return fd
        os.close(fd)


# ----------------------------------------------------------------------
def pin(path: str) -> int:
    """Take a shared ``flock`` on *path* (created if missing) and return
    its descriptor; :func:`unpin` it to let go. Waits only while
    :func:`unpinned` holds the file, that is while a gc removes this
    very key (and then pins the file gc leaves at the path)."""
    fd = _open_locked(path, os.O_RDONLY,
                      lambda fd: fcntl.flock(fd, fcntl.LOCK_SH))
    _PINS.add(fd)
    return fd


def unpin(fd: int) -> None:
    _PINS.discard(fd)
    os.close(fd)


def drop_inherited_pins() -> None:
    """In a forked child: close the pin descriptors copied from the
    parent. Closing (never ``LOCK_UN``, which would unlock the parent's
    open file too) leaves the parent's pins exactly as they were."""
    for fd in _PINS:
        os.close(fd)
    _PINS.clear()


@contextlib.contextmanager
def unpinned(path: str) -> Iterator[bool]:
    """Yield False while any process pins *path*; else yield True and
    hold it exclusively for the block, so no pin lands meanwhile. The
    file is created if missing, so the block may unlink it: a pinner
    waiting on it then pins the file at the path instead."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd = os.open(path, os.O_CREAT | os.O_RDONLY, 0o644)
    try:
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            free = True
        except BlockingIOError:
            free = False
        yield free
    finally:
        os.close(fd)
