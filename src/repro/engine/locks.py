"""Cross-process artifact locks and fencing tokens.

Two recorders pointed at the same cache root and the same
:class:`~repro.engine.spec.RunSpec` must never interleave inside one
artifact directory: ``PendingArtifact`` starts by clearing partial files,
so an unsynchronized second writer would delete the first writer's
half-written trace out from under it. :class:`KeyLock` serializes them
with one ``flock``-ed lock file per content key, kept under
``<root>/.locks/`` so artifact directories stay exactly three files.

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

On platforms without ``fcntl`` (Windows) the lock degrades to a no-op:
single-process use stays correct, and the cache's commit-marker protocol
still bounds the damage of a true multi-writer race to a wasted
re-record.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.errors import CacheLockError, FencedOutError

#: Poll interval while waiting on a contended lock with a timeout.
_POLL_S = 0.01


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

    def _open(self) -> int:
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        return os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)

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
        fd = self._open()
        # once fd is handed to self._fd its lifecycle belongs to
        # release() — the cleanup below must not double-close it (a
        # fence refusal inside _acquired() already released the lock)
        owned = True
        try:
            if fcntl is None:
                self._fd, owned = fd, False
                return self._acquired()
            if timeout is None:
                fcntl.flock(fd, fcntl.LOCK_EX)
                self._fd, owned = fd, False
                return self._acquired()
            deadline = time.monotonic() + timeout
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    if time.monotonic() >= deadline:
                        raise CacheLockError(
                            f"timed out after {timeout:.3f}s waiting for "
                            f"artifact lock {self.path}"
                        ) from None
                    time.sleep(_POLL_S)
                    continue
                self._fd, owned = fd, False
                return self._acquired()
        except BaseException:
            if owned:
                os.close(fd)
            raise

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
