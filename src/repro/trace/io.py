"""Durable trace containers, behind one writer/reader API.

The paper notes (§III-D) that storing raw traces does not scale — NV-
SCAVENGER computes statistics on-the-fly — but the power simulator is
trace-driven, so filtered (post-cache) traces still need a durable form.
Two containers exist behind the :func:`TraceWriter` / :func:`TraceReader`
dispatch:

* **v4 (default)** — the chunked, compressed, columnar directory format
  of :mod:`repro.trace.chunked`: one append-only data file per trace, a
  CRC-covered chunk index, memory-mapped zero-copy reads with lazy
  per-chunk verification. Any path *not* ending in ``.npz`` gets a v4
  container.
* **v1/v2 (legacy)** — monolithic ``.npz`` archives holding one group
  of arrays per batch (:class:`NpzTraceWriter` / :class:`NpzTraceReader`
  below). Paths ending in ``.npz`` keep producing them, and existing
  archives always load read-only; ``nvscavenger trace migrate``
  converts them (and v3 containers) to v4.

Shared durability properties (both formats):

* every batch carries a CRC32 checksum over its payload arrays (the
  same :func:`~repro.trace.fsio._batch_crc` formula in both formats, so
  content digests survive migration); a flipped byte anywhere in a
  batch is detected on read and reported as a
  :class:`~repro.errors.TraceError` carrying ``batch_index``;
* writes are crash-consistent: data goes to a ``.tmp`` sibling and one
  atomic rename publishes it (:func:`~repro.trace.fsio.publish_file` /
  :func:`~repro.trace.fsio.publish_dir`), so an interrupted run never
  leaves a truncated trace at the final path;
* v1 files (pre-checksum) still load — they simply skip verification.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.trace.chunked import (
    ChunkedTraceReader,
    ChunkedTraceWriter,
    is_chunked,
)
from repro.trace.fsio import OsFS, _batch_crc  # noqa: F401  (re-exports)
from repro.trace.fsio import publish_file
from repro.trace.record import RefBatch

_MAGIC_V1 = "nvscavenger-trace-v1"
_MAGIC_V2 = "nvscavenger-trace-v2"


def _npz_path(path: str) -> str:
    return path if path.endswith(".npz") else path + ".npz"


class NpzTraceWriter:
    """Accumulates batches and writes one compressed v2 archive on close.

    The close is atomic: :func:`~repro.trace.fsio.publish_file` writes
    a temporary sibling first and only its rename publishes the archive
    under the final name.
    """

    def __init__(self, path: str | os.PathLike, fs: OsFS | None = None) -> None:
        self._path = os.fspath(path)
        self._fs = fs if fs is not None else OsFS()
        self._batches: list[RefBatch] = []
        self._closed = False

    def append(self, batch: RefBatch) -> None:
        if self._closed:
            raise TraceError("append to a closed TraceWriter")
        if len(batch):
            self._batches.append(batch)

    def discard(self) -> None:
        """Drop all buffered batches and mark the writer closed without
        publishing anything. Used by ``PendingArtifact.abort`` so a
        later stray ``close()`` cannot resurrect an aborted recording
        (and so no handle is held when the caller unlinks files, which
        matters on Windows)."""
        self._batches.clear()
        self._closed = True

    def close(self) -> None:
        if self._closed:
            return
        arrays: dict[str, np.ndarray] = {
            "magic": np.array([_MAGIC_V2]),
            "n_batches": np.array([len(self._batches)], dtype=np.int64),
        }
        for i, b in enumerate(self._batches):
            arrays[f"b{i}_addr"] = b.addr
            arrays[f"b{i}_w"] = b.is_write
            arrays[f"b{i}_sz"] = b.size
            arrays[f"b{i}_oid"] = b.oid
            arrays[f"b{i}_it"] = np.array([b.iteration], dtype=np.int64)
            arrays[f"b{i}_crc"] = np.array(
                [_batch_crc(b.addr, b.is_write, b.size, b.oid, b.iteration)],
                dtype=np.uint32,
            )
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
        publish_file(_npz_path(self._path), buf.getvalue(), self._fs)
        self._closed = True

    def __enter__(self) -> "NpzTraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class NpzTraceReader:
    """Iterates the batches of a v1/v2 archive, verifying v2 checksums."""

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = os.fspath(path)
        try:
            self._npz = np.load(_npz_path(self._path))
        except Exception as exc:
            # OSError, ValueError, zipfile.BadZipFile (truncated archive), …
            raise TraceError(f"{self._path}: cannot open trace file: {exc}") from exc
        try:
            try:
                magic = self._npz.get("magic")
                arr = None if magic is None else np.asarray(magic).reshape(-1)
                magic_s = str(arr[0]) if arr is not None and arr.size else ""
            except TraceError:
                raise
            except Exception as exc:  # zlib/zipfile → corrupt header member
                raise TraceError(
                    f"{self._path}: corrupt trace header: {exc}"
                ) from exc
            if magic_s not in (_MAGIC_V1, _MAGIC_V2):
                raise TraceError(f"{self._path}: not an NV-SCAVENGER trace file")
            self.version = 1 if magic_s == _MAGIC_V1 else 2
            try:
                self.n_batches = int(np.asarray(self._npz["n_batches"]).reshape(-1)[0])
            except Exception as exc:
                raise TraceError(f"{self._path}: corrupt trace header: {exc}") from exc
        except BaseException:
            self._npz.close()
            raise

    def _read_batch(self, i: int) -> RefBatch:
        try:
            addr = self._npz[f"b{i}_addr"]
            is_write = self._npz[f"b{i}_w"]
            size = self._npz[f"b{i}_sz"]
            oid = self._npz[f"b{i}_oid"]
            iteration = int(self._npz[f"b{i}_it"][0])
            stored = (int(self._npz[f"b{i}_crc"][0])
                      if self.version >= 2 else None)
        except TraceError:
            raise
        except Exception as exc:  # zlib/zipfile/KeyError → undecodable batch
            raise TraceError(
                f"{self._path}: batch {i} is unreadable: {exc}", batch_index=i
            ) from exc
        if stored is not None:
            actual = _batch_crc(addr, is_write, size, oid, iteration)
            if stored != actual:
                raise TraceError(
                    f"{self._path}: batch {i} failed checksum verification "
                    f"(stored {stored:#010x}, computed {actual:#010x})",
                    batch_index=i,
                )
        return RefBatch(addr=addr, is_write=is_write, size=size, oid=oid,
                        iteration=iteration)

    def read_batch(self, i: int) -> RefBatch:
        """Decode (and checksum-verify) batch *i*."""
        return self._read_batch(i)

    def __iter__(self) -> Iterator[RefBatch]:
        for i in range(self.n_batches):
            yield self._read_batch(i)

    def verify(self) -> int:
        """Checksum every batch; return the count, raise on the first bad one."""
        for i in range(self.n_batches):
            self._read_batch(i)
        return self.n_batches

    def payload_crcs(self) -> list[int]:
        """Each batch's payload CRC32: stored members for v2 (no array
        decode), recomputed from decoded batches for v1."""
        if self.version >= 2:
            try:
                return [int(self._npz[f"b{i}_crc"][0])
                        for i in range(self.n_batches)]
            except Exception as exc:
                raise TraceError(
                    f"{self._path}: corrupt batch checksums: {exc}") from exc
        out = []
        for i in range(self.n_batches):
            b = self._read_batch(i)
            out.append(_batch_crc(b.addr, b.is_write, b.size, b.oid,
                                  b.iteration))
        return out

    def close(self) -> None:
        self._npz.close()

    def __enter__(self) -> "NpzTraceReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def TraceWriter(path: str | os.PathLike, fs: OsFS | None = None):
    """Open a trace writer for *path*, dispatching on the suffix.

    ``.npz`` paths keep producing the legacy monolithic v2 archive;
    everything else gets a chunked columnar v4 container (the path is
    normalized to end in ``.tv4``).
    """
    path = os.fspath(path)
    if path.endswith(".npz"):
        return NpzTraceWriter(path, fs=fs)
    return ChunkedTraceWriter(path, fs=fs)


def TraceReader(path: str | os.PathLike):
    """Open a trace reader for *path*, sniffing the container format.

    A directory holding an ``index.bin`` (or a stem whose ``.tv4``
    sibling is one) opens as v4; anything else falls back to the npz
    reader, which raises the usual :class:`~repro.errors.TraceError`
    for missing or corrupt files.
    """
    if is_chunked(path) is not None:
        return ChunkedTraceReader(path)
    return NpzTraceReader(path)


def write_trace(path: str | os.PathLike, batches: Iterable[RefBatch]) -> None:
    """Convenience one-shot writer."""
    with TraceWriter(path) as w:
        for b in batches:
            w.append(b)


def read_trace(path: str | os.PathLike) -> list[RefBatch]:
    """Convenience one-shot reader."""
    with TraceReader(path) as r:
        return list(r)
