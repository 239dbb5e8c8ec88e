"""Trace format v3: a chunked, compressed, columnar trace container.

The monolithic v2 ``.npz`` archive has to be inflated wholesale on every
read — replaying a 50M-reference trace to look at one iteration decodes
all of it. Format v3 lays the trace out the way byte-addressable storage
wants to be read (the NVM-era follow-ups to the paper make the same
point about durable data): fixed layout, per-chunk independence,
memory-mapped access, verification deferred until first touch.

On-disk layout — ``<name>.tv3/`` is a directory::

    <name>.tv3/
        index.bin          # 64-byte header + one 48-byte record per chunk
        chunk-000000.bin   # columnar payload of batch 0
        chunk-000001.bin   # ...

One chunk holds one reference batch, columns stored contiguously in the
order ``addr`` (u64) | ``oid`` (i32) | ``size`` (u8) | ``is_write``
(bool) — 14 bytes per reference, each column's offset computable from
the reference count alone, and the two wide columns always naturally
aligned so mmap-backed views need no copy. A chunk is stored raw, or
zlib-compressed when that actually shrinks it (codec ``auto``).

The 64-byte index header (``<8sIIQQI24sI``, little-endian)::

    magic "NVSCTRV3" | version | header_size | n_chunks | total_refs
    | index_crc32 (over the record region) | reserved ×24
    | header_crc32 (over bytes 0..59)

and each 48-byte chunk record (``<QqB3xIIQQ4x``)::

    n_refs | iteration | codec (0=raw, 1=zlib) | stored_crc32 (over the
    chunk file's bytes) | payload_crc32 (the format-independent
    :func:`~repro.trace.fsio._batch_crc`) | stored_len | raw_len

Every byte of every v3 file is covered by some CRC — header by
``header_crc32``, records by ``index_crc32``, chunk files by their
``stored_crc32`` — so a single flipped bit anywhere is always
detectable without decoding anything.

Durability follows the same protocol as the rest of the store: chunks
stream into ``<final>.tmp/`` (each fsynced as written, so a recording
never buffers the whole trace in memory), and ``close()`` writes
``index.bin`` and publishes the directory with
:func:`~repro.trace.fsio.publish_dir`.

Reading is **lazy**: opening a trace validates only the index (header +
record CRCs). A chunk moves through ``unmapped → mapped → verified →
decoded`` states the first time a reader touches it — mapped with
``mmap``, verified by CRC32 over the mapped bytes, decoded into arrays.
Raw chunks decode as zero-copy ``np.frombuffer`` views straight into
the map; compressed chunks inflate once and additionally check the
payload CRC of the inflated bytes.
"""

from __future__ import annotations

import mmap
import os
import shutil
import struct
import zlib

import numpy as np

from repro.errors import TraceError
from repro.trace.fsio import OsFS, _batch_crc, publish_dir
from repro.trace.record import RefBatch

#: Directory suffix identifying a v3 trace container.
TV3_SUFFIX = ".tv3"
#: The chunk index file inside the container directory.
INDEX_FILE = "index.bin"
#: Chunk file name pattern (chunk 0 is ``chunk-000000.bin``).
CHUNK_NAME = "chunk-{:06d}.bin"

_MAGIC_V3 = b"NVSCTRV3"
_VERSION = 3
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

#: Bytes per reference in the columnar layout (8 + 4 + 1 + 1).
_REF_BYTES = 14


def tv3_path(path: str | os.PathLike) -> str:
    """Normalize *path* to carry the ``.tv3`` suffix."""
    path = os.fspath(path)
    return path if path.endswith(TV3_SUFFIX) else path + TV3_SUFFIX


def is_chunked(path: str | os.PathLike) -> str | None:
    """The container directory for *path* if it names a v3 trace.

    Accepts the directory itself, the suffix-less stem, or any
    directory holding an ``index.bin`` (an artifact's ``refs.tv3``).
    """
    path = os.fspath(path)
    for candidate in (path, path + TV3_SUFFIX):
        if os.path.isdir(candidate) and os.path.exists(
                os.path.join(candidate, INDEX_FILE)):
            return candidate
    return None


class _ChunkRecord:
    """One parsed (or pending) chunk-index record."""

    __slots__ = ("n_refs", "iteration", "codec", "stored_crc32",
                 "payload_crc32", "stored_len", "raw_len")

    def __init__(self, n_refs: int, iteration: int, codec: int,
                 stored_crc32: int, payload_crc32: int,
                 stored_len: int, raw_len: int) -> None:
        self.n_refs = n_refs
        self.iteration = iteration
        self.codec = codec
        self.stored_crc32 = stored_crc32
        self.payload_crc32 = payload_crc32
        self.stored_len = stored_len
        self.raw_len = raw_len

    def pack(self) -> bytes:
        return _RECORD.pack(self.n_refs, self.iteration, self.codec,
                            self.stored_crc32, self.payload_crc32,
                            self.stored_len, self.raw_len)

    @classmethod
    def unpack(cls, blob: bytes) -> "_ChunkRecord":
        return cls(*_RECORD.unpack(blob))


def _pack_index(records: list[_ChunkRecord], total_refs: int) -> bytes:
    body = b"".join(r.pack() for r in records)
    head = _HEADER.pack(_MAGIC_V3, _VERSION, HEADER_SIZE, len(records),
                        total_refs, zlib.crc32(body), b"\x00" * 24, 0)
    # header_crc32 covers everything before itself (bytes 0..59)
    return head[:-4] + struct.pack("<I", zlib.crc32(head[:-4])) + body


class ChunkedTraceWriter:
    """Streams batches into a v3 container; ``close()`` publishes it.

    Each ``append()`` writes (and fsyncs) one chunk file into a
    temporary sibling directory, so recording never holds the trace in
    memory; ``close()`` writes the index and atomically renames the
    directory into place. ``discard()`` drops everything and poisons
    the writer, mirroring the npz writer's abort semantics.
    """

    def __init__(self, path: str | os.PathLike, fs: OsFS | None = None,
                 codec: str = "auto") -> None:
        if codec not in ("auto", "raw", "zlib"):
            raise TraceError(f"unknown v3 codec {codec!r}")
        self._final = tv3_path(path)
        self._tmp = self._final + ".tmp"
        self._fs = fs if fs is not None else OsFS()
        self._codec = codec
        self._records: list[_ChunkRecord] = []
        self._total_refs = 0
        self._closed = False
        if os.path.isdir(self._tmp):  # leftover of an interrupted writer
            self._fs.rmtree(self._tmp)
        self._fs.makedirs(self._tmp)

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
        fs = self._fs
        chunk_path = os.path.join(self._tmp, CHUNK_NAME.format(len(self._records)))
        with fs.open(chunk_path, "wb") as fh:
            fh.write(stored)
            fs.fsync(fh)
        self._records.append(_ChunkRecord(
            n_refs=n, iteration=int(batch.iteration), codec=codec,
            stored_crc32=zlib.crc32(stored), payload_crc32=payload_crc,
            stored_len=len(stored), raw_len=len(raw)))
        self._total_refs += n

    def discard(self) -> None:
        """Drop everything written so far and mark the writer closed
        without publishing. A later stray ``close()`` is inert, and a
        later ``append()`` raises."""
        self._records.clear()
        self._closed = True
        try:
            self._fs.rmtree(self._tmp)
        except OSError:
            pass

    def close(self) -> None:
        if self._closed:
            return
        fs = self._fs
        try:
            index_path = os.path.join(self._tmp, INDEX_FILE)
            with fs.open(index_path, "wb") as fh:
                fh.write(_pack_index(self._records, self._total_refs))
                fs.fsync(fh)
            # publish_dir requires every chunk file and the index to be
            # fsync'd already; it makes their entries durable itself
            publish_dir(self._tmp, self._final, fs)
        except BaseException:
            shutil.rmtree(self._tmp, ignore_errors=True)
            raise
        self._closed = True

    def __enter__(self) -> "ChunkedTraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ChunkedTraceReader:
    """Random-access reader over a v3 container, lazy per chunk.

    Opening validates the index eagerly (header CRC, record CRC, file
    size); chunk payloads are untouched until first use. Per chunk the
    reader tracks the ``mapped → verified → decoded`` progression in
    the ``n_mapped`` / ``n_verified`` / ``n_decoded`` counters the
    engine surfaces, and :meth:`verify_stored` sweeps all stored CRCs
    without decoding — the cheap structural scrub fsck and the warm
    service path use.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = os.fspath(path)
        directory = is_chunked(self._path)
        if directory is None:
            raise TraceError(
                f"{self._path}: cannot open trace file: no v3 container "
                f"(index.bin) here")
        self.directory = directory
        index_path = os.path.join(directory, INDEX_FILE)
        try:
            with open(index_path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise TraceError(
                f"{self._path}: cannot open trace file: {exc}") from exc
        if len(blob) < HEADER_SIZE:
            raise TraceError(
                f"{self._path}: corrupt trace header: index.bin truncated "
                f"to {len(blob)} bytes")
        (magic, version, header_size, n_chunks, total_refs, index_crc,
         _reserved, header_crc) = _HEADER.unpack(blob[:HEADER_SIZE])
        if magic != _MAGIC_V3:
            raise TraceError(f"{self._path}: not an NV-SCAVENGER trace file")
        if header_crc != zlib.crc32(blob[:HEADER_SIZE - 4]):
            raise TraceError(
                f"{self._path}: corrupt trace header: index header failed "
                f"checksum verification")
        if version != _VERSION or header_size < HEADER_SIZE:
            raise TraceError(
                f"{self._path}: unsupported v3 revision "
                f"(version={version}, header_size={header_size})")
        body = blob[header_size:]
        if len(body) != n_chunks * RECORD_SIZE:
            raise TraceError(
                f"{self._path}: corrupt trace header: index declares "
                f"{n_chunks} chunks but holds {len(body)} record bytes")
        if index_crc != zlib.crc32(body):
            raise TraceError(
                f"{self._path}: corrupt trace header: chunk index failed "
                f"checksum verification")
        self.records = [
            _ChunkRecord.unpack(body[i * RECORD_SIZE:(i + 1) * RECORD_SIZE])
            for i in range(n_chunks)
        ]
        self.version = 3
        self.n_chunks = self.n_batches = n_chunks
        self.total_refs = int(total_refs)
        #: cumulative reference offsets; chunk i covers
        #: ``[ref_offsets[i], ref_offsets[i+1])`` — the window index.
        self.ref_offsets = np.concatenate((
            [0], np.cumsum([r.n_refs for r in self.records], dtype=np.int64)))
        if int(self.ref_offsets[-1]) != self.total_refs:
            raise TraceError(
                f"{self._path}: corrupt trace header: chunk reference "
                f"counts sum to {int(self.ref_offsets[-1])}, header "
                f"declares {self.total_refs}")
        self._maps: dict[int, mmap.mmap] = {}
        self._views: dict[int, memoryview] = {}
        self._stored_ok: set[int] = set()
        self.n_mapped = 0
        self.n_verified = 0
        self.n_decoded = 0

    # -- lazy chunk state machine ---------------------------------------
    def _chunk_path(self, i: int) -> str:
        return os.path.join(self.directory, CHUNK_NAME.format(i))

    def _map(self, i: int) -> memoryview:
        """mapped: the chunk's stored bytes, via mmap (no read yet)."""
        view = self._views.get(i)
        if view is not None:
            return view
        rec = self.records[i]
        path = self._chunk_path(i)
        try:
            with open(path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                if size != rec.stored_len:
                    raise TraceError(
                        f"{self._path}: batch {i} is unreadable: chunk file "
                        f"holds {size} bytes, index declares "
                        f"{rec.stored_len} (truncated chunk)", batch_index=i)
                mm = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
        except TraceError:
            raise
        except (OSError, ValueError) as exc:
            raise TraceError(
                f"{self._path}: batch {i} is unreadable: {exc}",
                batch_index=i) from exc
        self._maps[i] = mm
        view = memoryview(mm)
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
            raw = view
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
        for i, mm in list(self._maps.items()):
            try:
                mm.close()
            except BufferError:
                # a zero-copy batch view is still alive somewhere; the
                # map stays until that array is garbage-collected
                continue
            del self._maps[i]

    def __enter__(self) -> "ChunkedTraceReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def migrate_trace(src: str | os.PathLike, dst: str | os.PathLike,
                  fs: OsFS | None = None, codec: str = "auto") -> tuple[int, int]:
    """Convert a v1/v2 (or v3) trace at *src* into a v3 container at
    *dst*; returns ``(n_batches, total_refs)``.

    Place-safe by construction: the writer streams into ``<dst>.tmp/``
    and publishes with one atomic rename, so an interrupted migration
    never leaves a half-written container at the final path. Payload
    CRCs are recomputed with the same formula v2 stored, so the content
    digest of the migrated trace matches the original's.
    """
    from repro.trace.io import TraceReader  # late: io dispatches onto us

    n_batches = 0
    total = 0
    with TraceReader(src) as reader:
        writer = ChunkedTraceWriter(dst, fs=fs, codec=codec)
        try:
            for batch in reader:
                writer.append(batch)
                n_batches += 1
                total += len(batch)
            writer.close()
        except BaseException:
            writer.discard()
            raise
    return n_batches, total
