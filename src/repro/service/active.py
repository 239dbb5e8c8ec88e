"""Advertising in-flight spec keys so ``engine gc`` never evicts them.

The cache's ``gc(protect=...)`` mechanism already refuses to evict
named keys, and keys whose ``flock`` is held are safe while a recorder
is *inside* the critical section — but a service request that is
queued, coalesced, or between its cache-hit check and its read holds no
lock, and an operator running ``engine gc`` against a live daemon's
root could evict the artifact out from under it.

The daemon therefore maintains ``<root>/service/active_keys.json``: an
atomically-replaced snapshot of every spec key currently referenced by
an admitted request, refreshed on change and heartbeat-stamped.
:func:`read_active_keys` returns those keys only while the file is
*fresh* (a crashed daemon must not protect its keys forever), and the
``engine gc`` CLI folds them into ``protect=`` automatically. The
daemon's own periodic gc passes its live set directly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Iterable

from repro.trace.fsio import OsFS, publish_file, read_json_or_none

#: Subdirectory of the cache root owned by the service layer.
SERVICE_DIR = "service"
#: The active-keys snapshot file.
ACTIVE_FILE = "active_keys.json"
#: A snapshot older than this is a dead daemon's leftovers: ignore it.
DEFAULT_MAX_AGE_S = 60.0

#: The daemon publishes snapshots from several executor threads, and
#: :func:`~repro.trace.fsio.publish_file` allows one writer per path.
_write_lock = threading.Lock()


def service_dir(root: str | os.PathLike) -> str:
    return os.path.join(os.fspath(root), SERVICE_DIR)


def active_keys_path(root: str | os.PathLike) -> str:
    return os.path.join(service_dir(root), ACTIVE_FILE)


def write_active_keys(root: str | os.PathLike, keys: Iterable[str],
                      fs: OsFS | None = None) -> None:
    """Atomically publish the daemon's current in-flight key set.

    Safe to call from several threads at once: writes are serialized.
    Failure is non-fatal by design at call sites: a read-only cache
    root degrades gc protection, not request serving. Writes go through
    the injectable *fs* shim so ChaosFS and the crashcheck model cover
    them.
    """
    fs = fs if fs is not None else OsFS()
    payload = {
        "pid": os.getpid(),
        "updated": time.time(),
        "keys": sorted(set(keys)),
    }
    with _write_lock:
        fs.makedirs(service_dir(root))
        publish_file(active_keys_path(root),
                     json.dumps(payload, separators=(",", ":")), fs)


def clear_active_keys(root: str | os.PathLike) -> None:
    try:
        os.unlink(active_keys_path(root))
    except OSError:
        pass


def read_active_keys(root: str | os.PathLike,
                     max_age_s: float = DEFAULT_MAX_AGE_S) -> tuple[str, ...]:
    """The keys a live daemon is currently serving, or ``()``.

    A snapshot whose heartbeat is older than *max_age_s* is treated as
    absent: the daemon that wrote it is gone (or wedged), and honouring
    a dead daemon's protection list would make gc silently useless.
    Unreadable or malformed files are likewise ``()`` — gc must not
    fail because a snapshot was torn.
    """
    payload = read_json_or_none(active_keys_path(root))
    try:
        updated = float(payload["updated"])
        keys = payload["keys"]
    except (ValueError, KeyError, TypeError):
        return ()
    if time.time() - updated > max_age_s:
        return ()
    return tuple(str(k) for k in keys)
