"""Trace format v4: a chunked, compressed, columnar trace container.

The monolithic v2 ``.npz`` archive has to be inflated wholesale on every
read — replaying a 50M-reference trace to look at one iteration decodes
all of it. The chunked format lays the trace out the way
byte-addressable storage wants to be read (the NVM-era follow-ups to
the paper make the same point about durable data): fixed layout,
per-chunk independence, memory-mapped access, verification deferred
until first touch.

On-disk layout — ``<name>.tv4/`` is a directory::

    <name>.tv4/
        index.bin          # 64-byte header + one 48-byte record per chunk
        chunk-data.bin     # every chunk's stored bytes, back to back

One chunk holds one reference batch, columns stored contiguously in the
order ``addr`` (u64) | ``oid`` (i32) | ``size`` (u8) | ``is_write``
(bool) — 14 bytes per reference. A chunk is stored raw, or
zlib-compressed when that actually shrinks it (codec ``auto``). Chunk
*i* starts at the sum of ``stored_len`` over the chunks before it.
Every stored chunk is zero-padded to a multiple of 8 bytes: a raw chunk
is ``14 * n_refs`` bytes, and without the padding the columns of the
chunk after an odd-sized one would decode as unaligned views. Raw
decode reads the first ``raw_len`` bytes; ``zlib.decompress`` ignores
the zeros after its stream.

The 64-byte index header (``<8sIIQQI24sI``, little-endian)::

    magic "NVSCTRV4" | version | header_size | n_chunks | total_refs
    | index_crc32 (over the record region) | reserved ×24
    | header_crc32 (over bytes 0..59)

and each 48-byte chunk record (``<QqB3xIIQQ4x``)::

    n_refs | iteration | codec (0=raw, 1=zlib) | stored_crc32 (over the
    chunk's stored bytes, padding included) | payload_crc32 (the
    format-independent :func:`~repro.trace.fsio._batch_crc`)
    | stored_len (padding included) | raw_len

Every byte of both files is covered by some CRC, so a single flipped
bit anywhere is detectable without decoding anything; a data file
longer than the index declares is refused, since no CRC covers its
tail.

Durability: the writer appends to ``<final>.tmp/chunk-data.bin``
without syncing, and ``close()`` fsyncs it once, writes and fsyncs
``index.bin``, then publishes the directory with
:func:`~repro.trace.fsio.publish_dir`. One fsync is enough: nothing
under ``<final>.tmp/`` is visible before the publish rename, which
comes after it. (Written bytes leave the process on ``write()`` either
way; syncing each chunk only decided when they reached the disk.)

Reading is **lazy**: opening validates only the index. The first chunk
touched maps the data file once; a chunk then moves through ``mapped →
verified → decoded`` — a slice of the map, checked against its stored
CRC32, decoded into arrays (raw chunks as zero-copy views into the map;
zlib chunks inflate and re-check the payload CRC). A data file shorter
than declared fails only the chunks that extend past its end.

Format v3 stored each chunk in its own ``chunk-NNNNNN.bin`` file with
the same index layout (magic ``NVSCTRV3``). It has no reader any more:
:func:`migrate_trace` copies its stored chunks into v4 unchanged.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import shutil
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.fsio import OsFS, _batch_crc, publish_dir
from repro.trace.record import RefBatch

#: Directory suffix identifying a v4 trace container.
TV4_SUFFIX = ".tv4"
#: The chunk index file inside the container directory.
INDEX_FILE = "index.bin"
#: The append-only file holding every chunk's stored bytes.
DATA_FILE = "chunk-data.bin"
#: A v3 container's per-chunk file name (chunk 0 is ``chunk-000000.bin``).
_V3_CHUNK_NAME = "chunk-{:06d}.bin"

_MAGIC_V3 = b"NVSCTRV3"
_MAGIC_V4 = b"NVSCTRV4"
_VERSIONS = {_MAGIC_V3: 3, _MAGIC_V4: 4}
_VERSION = 4
_HEADER = struct.Struct("<8sIIQQI24sI")  # 64 bytes
_RECORD = struct.Struct("<QqB3xIIQQ4x")  # 48 bytes
HEADER_SIZE = _HEADER.size
RECORD_SIZE = _RECORD.size

#: Chunk payload codecs.
CODEC_RAW = 0
CODEC_ZLIB = 1

#: ``auto`` compresses a chunk only when it shrinks below this ratio —
#: a barely-compressible chunk is better left raw for zero-copy replay.
COMPRESS_RATIO = 0.9

#: Every stored chunk is zero-padded to a multiple of this many bytes.
CHUNK_ALIGN = 8

#: Bytes per reference in the columnar layout (8 + 4 + 1 + 1).
_REF_BYTES = 14


def tv4_path(path: str | os.PathLike) -> str:
    """Normalize *path* to carry the ``.tv4`` suffix."""
    path = os.fspath(path)
    return path if path.endswith(TV4_SUFFIX) else path + TV4_SUFFIX


def is_chunked(path: str | os.PathLike) -> str | None:
    """The container directory for *path* if it names a chunked trace.

    Accepts the directory itself, the suffix-less stem, or any
    directory holding an ``index.bin`` (an artifact's ``refs.tv4``).
    """
    path = os.fspath(path)
    for candidate in (path, path + TV4_SUFFIX):
        if os.path.isdir(candidate) and os.path.exists(
                os.path.join(candidate, INDEX_FILE)):
            return candidate
    return None


@dataclass(slots=True)
class _ChunkRecord:
    """One parsed (or pending) chunk-index record."""

    n_refs: int
    iteration: int
    codec: int
    stored_crc32: int
    payload_crc32: int
    stored_len: int
    raw_len: int

    def pack(self) -> bytes:
        return _RECORD.pack(self.n_refs, self.iteration, self.codec,
                            self.stored_crc32, self.payload_crc32,
                            self.stored_len, self.raw_len)

    @classmethod
    def unpack(cls, blob: bytes) -> "_ChunkRecord":
        return cls(*_RECORD.unpack(blob))


def _pack_index(records: list[_ChunkRecord], total_refs: int) -> bytes:
    body = b"".join(r.pack() for r in records)
    head = _HEADER.pack(_MAGIC_V4, _VERSION, HEADER_SIZE, len(records),
                        total_refs, zlib.crc32(body), b"\x00" * 24, 0)
    # header_crc32 covers everything before itself (bytes 0..59)
    return head[:-4] + struct.pack("<I", zlib.crc32(head[:-4])) + body


def _read_index(directory: str,
                where: str) -> tuple[int, list[_ChunkRecord], int]:
    """Parse and CRC-check a v3 or v4 ``index.bin``; returns
    ``(version, records, total_refs)``. *where* names the trace in
    error messages."""
    try:
        with open(os.path.join(directory, INDEX_FILE), "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise TraceError(f"{where}: cannot open trace file: {exc}") from exc
    if len(blob) < HEADER_SIZE:
        raise TraceError(
            f"{where}: corrupt trace header: index.bin truncated to "
            f"{len(blob)} bytes")
    (magic, version, header_size, n_chunks, total_refs, index_crc,
     _reserved, header_crc) = _HEADER.unpack(blob[:HEADER_SIZE])
    if magic not in _VERSIONS:
        raise TraceError(f"{where}: not an NV-SCAVENGER trace file")
    if header_crc != zlib.crc32(blob[:HEADER_SIZE - 4]):
        raise TraceError(
            f"{where}: corrupt trace header: index header failed checksum "
            f"verification")
    if version != _VERSIONS[magic] or header_size < HEADER_SIZE:
        raise TraceError(
            f"{where}: unsupported chunked-trace revision "
            f"(version={version}, header_size={header_size})")
    body = blob[header_size:]
    if len(body) != n_chunks * RECORD_SIZE:
        raise TraceError(
            f"{where}: corrupt trace header: index declares {n_chunks} "
            f"chunks but holds {len(body)} record bytes")
    if index_crc != zlib.crc32(body):
        raise TraceError(
            f"{where}: corrupt trace header: chunk index failed checksum "
            f"verification")
    records = [_ChunkRecord.unpack(body[i * RECORD_SIZE:(i + 1) * RECORD_SIZE])
               for i in range(n_chunks)]
    refs = sum(r.n_refs for r in records)
    if refs != total_refs:
        raise TraceError(
            f"{where}: corrupt trace header: chunk reference counts sum to "
            f"{refs}, header declares {total_refs}")
    return version, records, int(total_refs)


class ChunkedTraceWriter:
    """Streams batches into a v4 container; ``close()`` publishes it.

    The data file is opened once, in a temporary sibling directory, and
    each ``append()`` adds one chunk to it, so recording never holds
    the trace in memory; ``close()`` makes the data file durable, writes
    the index and atomically renames the directory into place.
    ``discard()`` drops everything and poisons the writer, mirroring
    the npz writer's abort semantics.
    """

    def __init__(self, path: str | os.PathLike, fs: OsFS | None = None,
                 codec: str = "auto") -> None:
        if codec not in ("auto", "raw", "zlib"):
            raise TraceError(f"unknown v4 codec {codec!r}")
        self._final = tv4_path(path)
        self._tmp = self._final + ".tmp"
        self._fs = fs if fs is not None else OsFS()
        self._codec = codec
        self._records: list[_ChunkRecord] = []
        self._total_refs = 0
        self._closed = False
        if os.path.isdir(self._tmp):  # leftover of an interrupted writer
            self._fs.rmtree(self._tmp)
        self._fs.makedirs(self._tmp)
        self._data = self._fs.open(os.path.join(self._tmp, DATA_FILE), "wb")

    @property
    def path(self) -> str:
        return self._final

    def append(self, batch: RefBatch) -> None:
        if self._closed:
            raise TraceError("append to a closed TraceWriter")
        n = len(batch)
        if not n:
            return
        # __post_init__ already made the columns contiguous
        raw = (batch.addr.tobytes() + batch.oid.tobytes()
               + batch.size.tobytes() + batch.is_write.tobytes())
        payload_crc = _batch_crc(batch.addr, batch.is_write, batch.size,
                                 batch.oid, batch.iteration)
        codec = CODEC_RAW
        stored = raw
        if self._codec in ("auto", "zlib"):
            packed = zlib.compress(raw, 1)
            if self._codec == "zlib" or len(packed) <= COMPRESS_RATIO * len(raw):
                codec = CODEC_ZLIB
                stored = packed
        self._write_chunk(stored, _ChunkRecord(
            n, int(batch.iteration), codec, 0, payload_crc, 0, len(raw)))

    def _write_chunk(self, stored: bytes, rec: _ChunkRecord) -> None:
        """Pad *stored* to :data:`CHUNK_ALIGN`, append it to the data
        file and index it as *rec*, whose stored length and CRC this
        sets."""
        stored += bytes(-len(stored) % CHUNK_ALIGN)
        self._data.write(stored)
        rec.stored_len, rec.stored_crc32 = len(stored), zlib.crc32(stored)
        self._records.append(rec)
        self._total_refs += rec.n_refs

    def discard(self) -> None:
        """Drop everything written so far and mark the writer closed
        without publishing. A later stray ``close()`` is inert, and a
        later ``append()`` raises."""
        self._records.clear()
        self._closed = True
        with contextlib.suppress(OSError):
            self._data.close()
        with contextlib.suppress(OSError):
            self._fs.rmtree(self._tmp)

    def close(self) -> None:
        if self._closed:
            return
        fs = self._fs
        try:
            fs.fsync(self._data)
            self._data.close()
            index_path = os.path.join(self._tmp, INDEX_FILE)
            with fs.open(index_path, "wb") as fh:
                fh.write(_pack_index(self._records, self._total_refs))
                fs.fsync(fh)
            # publish_dir requires both files to be fsync'd already; it
            # makes their entries durable itself
            publish_dir(self._tmp, self._final, fs)
        except BaseException:
            with contextlib.suppress(OSError):
                self._data.close()
            shutil.rmtree(self._tmp, ignore_errors=True)
            raise
        self._closed = True

    def __enter__(self) -> "ChunkedTraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ChunkedTraceReader:
    """Random-access reader over a v4 container, lazy per chunk.

    Opening validates the index eagerly (header CRC, record CRC,
    reference totals); chunk payloads are untouched until first use.
    Per chunk the reader tracks the ``mapped → verified → decoded``
    progression in the ``n_mapped`` / ``n_verified`` / ``n_decoded``
    counters the engine surfaces, and :meth:`verify_stored` sweeps all
    stored CRCs without decoding — the cheap structural scrub fsck and
    the warm service path use.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = os.fspath(path)
        directory = is_chunked(self._path)
        if directory is None:
            raise TraceError(
                f"{self._path}: cannot open trace file: no v4 container "
                f"(index.bin) here")
        self.directory = directory
        version, self.records, self.total_refs = _read_index(
            directory, self._path)
        if version != _VERSION:
            raise TraceError(
                f"{self._path}: trace format v{version} container; "
                f"convert it with `nvscavenger trace migrate`")
        self.version = version
        self.n_chunks = self.n_batches = len(self.records)
        # chunk i's slice of the data file is [_starts[i], _starts[i+1])
        self._starts = [0, *itertools.accumulate(
            r.stored_len for r in self.records)]
        self._mm: mmap.mmap | None = None
        self._data: memoryview | None = None
        self._views: dict[int, memoryview] = {}
        self._stored_ok: set[int] = set()
        self.n_mapped = 0
        self.n_verified = 0
        self.n_decoded = 0

    # -- lazy chunk state machine ---------------------------------------
    def _map_data(self, i: int) -> memoryview:
        """The whole data file, mapped on the first chunk touched (*i*)."""
        if self._data is not None:
            return self._data
        declared = self._starts[-1]
        try:
            with open(os.path.join(self.directory, DATA_FILE), "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                # mmap refuses empty files; every chunk of an empty data
                # file then reads as truncated
                mm = (mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
                      if 0 < size <= declared else None)
        except OSError as exc:
            raise TraceError(
                f"{self._path}: batch {i} is unreadable: {exc}",
                batch_index=i) from exc
        if size > declared:
            raise TraceError(
                f"{self._path}: corrupt trace: {DATA_FILE} holds {size} "
                f"bytes, index declares {declared} (no checksum covers the "
                f"tail)")
        self._mm = mm
        self._data = memoryview(mm) if mm is not None else memoryview(b"")
        return self._data

    def _map(self, i: int) -> memoryview:
        """mapped: the chunk's stored bytes, a slice of the data map."""
        view = self._views.get(i)
        if view is not None:
            return view
        data = self._map_data(i)
        start, end = self._starts[i], self._starts[i + 1]
        if end > len(data):
            raise TraceError(
                f"{self._path}: batch {i} is unreadable: {DATA_FILE} holds "
                f"{len(data)} bytes, chunk spans [{start}, {end}) "
                f"(truncated chunk)", batch_index=i)
        view = data[start:end]
        self._views[i] = view
        self.n_mapped += 1
        return view

    def _verify(self, i: int) -> memoryview:
        """verified: stored bytes match the index's stored_crc32."""
        view = self._map(i)
        if i not in self._stored_ok:
            rec = self.records[i]
            actual = zlib.crc32(view)
            if actual != rec.stored_crc32:
                raise TraceError(
                    f"{self._path}: batch {i} failed checksum verification "
                    f"(stored {rec.stored_crc32:#010x}, computed "
                    f"{actual:#010x})", batch_index=i)
            self._stored_ok.add(i)
            self.n_verified += 1
        return view

    def read_batch(self, i: int) -> RefBatch:
        """decoded: column views over the (verified) chunk payload.

        Raw chunks decode as zero-copy read-only views into the map;
        compressed chunks inflate and re-check the payload CRC of the
        inflated bytes.
        """
        if not 0 <= i < self.n_chunks:
            raise TraceError(f"{self._path}: no batch {i} "
                             f"(trace holds {self.n_chunks})", batch_index=i)
        rec = self.records[i]
        view = self._verify(i)
        if rec.codec == CODEC_ZLIB:
            try:
                raw: bytes | memoryview = zlib.decompress(view)
            except zlib.error as exc:
                raise TraceError(
                    f"{self._path}: batch {i} is unreadable: {exc}",
                    batch_index=i) from exc
        elif rec.codec == CODEC_RAW:
            raw = view[:rec.raw_len]
        else:
            raise TraceError(
                f"{self._path}: batch {i} uses unknown codec {rec.codec}",
                batch_index=i)
        n = rec.n_refs
        if len(raw) != rec.raw_len or rec.raw_len != n * _REF_BYTES:
            raise TraceError(
                f"{self._path}: batch {i} decodes to {len(raw)} bytes, "
                f"expected {n * _REF_BYTES}", batch_index=i)
        addr = np.frombuffer(raw, dtype=np.uint64, count=n, offset=0)
        oid = np.frombuffer(raw, dtype=np.int32, count=n, offset=8 * n)
        size = np.frombuffer(raw, dtype=np.uint8, count=n, offset=12 * n)
        is_write = np.frombuffer(raw, dtype=np.bool_, count=n, offset=13 * n)
        if rec.codec == CODEC_ZLIB:
            # stored_crc32 covered the compressed bytes; cross-check the
            # inflated payload against the format-independent batch CRC
            actual = _batch_crc(addr, is_write, size, oid, rec.iteration)
            if actual != rec.payload_crc32:
                raise TraceError(
                    f"{self._path}: batch {i} failed checksum verification "
                    f"(stored {rec.payload_crc32:#010x}, computed "
                    f"{actual:#010x})", batch_index=i)
        self.n_decoded += 1
        return RefBatch(addr=addr, is_write=is_write, size=size, oid=oid,
                        iteration=rec.iteration)

    # -- whole-trace operations -----------------------------------------
    def __iter__(self):
        for i in range(self.n_chunks):
            yield self.read_batch(i)

    def verify(self) -> int:
        """Fully decode-verify every chunk; returns the chunk count."""
        for i in range(self.n_chunks):
            self.read_batch(i)
        return self.n_chunks

    def verify_stored(self) -> int:
        """CRC-sweep every chunk's stored bytes without decoding; returns
        how many chunks were *newly* verified by this call."""
        before = self.n_verified
        for i in range(self.n_chunks):
            self._verify(i)
        return self.n_verified - before

    def payload_crcs(self) -> list[int]:
        """Every chunk's format-independent payload CRC32, from the
        index — the content digest needs no decode."""
        return [r.payload_crc32 for r in self.records]

    def close(self) -> None:
        self._views.clear()
        self._data = None
        if self._mm is None:
            return
        try:
            self._mm.close()
        except BufferError:
            # a zero-copy batch view is still alive somewhere; the map
            # stays until that array is garbage-collected
            return
        self._mm = None

    def __enter__(self) -> "ChunkedTraceReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _read_v3_chunk(directory: str, i: int, rec: _ChunkRecord,
                   where: str) -> bytes:
    """Chunk *i*'s stored bytes from a v3 container, checked against its
    index record."""
    try:
        with open(os.path.join(directory, _V3_CHUNK_NAME.format(i)),
                  "rb") as fh:
            stored = fh.read()
    except OSError as exc:
        raise TraceError(f"{where}: batch {i} is unreadable: {exc}",
                         batch_index=i) from exc
    crc = zlib.crc32(stored)
    if (len(stored), crc) != (rec.stored_len, rec.stored_crc32):
        raise TraceError(
            f"{where}: batch {i} failed verification: chunk file holds "
            f"{len(stored)} bytes (CRC {crc:#010x}), index declares "
            f"{rec.stored_len} ({rec.stored_crc32:#010x})", batch_index=i)
    return stored


def migrate_trace(src: str | os.PathLike, dst: str | os.PathLike,
                  fs: OsFS | None = None, codec: str = "auto") -> tuple[int, int]:
    """Convert a v1/v2/v3 (or v4) trace at *src* into a v4 container at
    *dst*; returns ``(n_batches, total_refs)``.

    A v3 container's stored chunks are appended unchanged — no decode,
    no recompression, *codec* does not apply — so codecs, payload CRCs
    and raw lengths carry over; any other source is decoded batch by
    batch and re-encoded with *codec*. Place-safe by construction: the
    writer streams into ``<dst>.tmp/`` and publishes with one atomic
    rename, so an interrupted migration never leaves a half-written
    container at the final path. Every format stores the same payload
    CRC, so the migrated trace keeps the original's content digest.
    """
    from repro.trace.io import TraceReader  # late: io dispatches onto us

    src = os.fspath(src)
    directory = is_chunked(src)
    version, records, _ = (_read_index(directory, src) if directory
                           else (0, [], 0))
    with (contextlib.nullcontext() if version == 3
          else TraceReader(src)) as reader:
        writer = ChunkedTraceWriter(dst, fs=fs, codec=codec)
        try:
            if version == 3:
                for i, rec in enumerate(records):
                    writer._write_chunk(
                        _read_v3_chunk(directory, i, rec, src), rec)
            else:
                for batch in reader:
                    writer.append(batch)
            writer.close()
        except BaseException:
            writer.discard()
            raise
    return len(writer._records), writer._total_refs
