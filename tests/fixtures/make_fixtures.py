"""Regenerate the committed trace-format fixtures in this directory.

Run from the repo root::

    PYTHONPATH=src python tests/fixtures/make_fixtures.py

The fixtures pin the *historical* on-disk formats — ``trace-v1.npz``
(pre-checksum), ``trace-v2.npz`` (per-batch CRC32), and the v3
containers ``trace-v3-raw.tv3/`` and ``trace-v3-zlib.tv3/`` (one file
per chunk, every chunk stored raw or zlib-compressed) — so the v4
migration path is exercised against bytes an old deployment actually
wrote, not against whatever today's writer happens to emit. The batch
content is seeded and must never change: ``test_trace_fixtures.py``
asserts bit-identity through migration.

The v3 writer no longer exists in this tree; commit 65d2842 is the last
one that has it. Write the v3 containers with that commit's sources on
the path::

    mkdir /tmp/v3src && git archive 65d2842 src | tar -x -C /tmp/v3src
    PYTHONPATH=/tmp/v3src/src python tests/fixtures/make_fixtures.py --v3

Their raw chunks hold 700, 840 and 980 bytes, so two of the three need
padding when migrated to v4.
"""

import os
import sys

import numpy as np

from repro.trace.io import _MAGIC_V1, NpzTraceWriter
from repro.trace.record import RefBatch

HERE = os.path.dirname(os.path.abspath(__file__))


def fixture_batches():
    """The canonical fixture content: 3 batches, every column varying."""
    out = []
    for i in range(3):
        rng = np.random.default_rng(1000 + i)
        n = 50 + 10 * i
        out.append(RefBatch(
            addr=rng.integers(0, 2**48, size=n, dtype=np.uint64),
            is_write=rng.integers(0, 2, size=n).astype(bool),
            size=rng.choice(np.array([1, 4, 8, 64], np.uint8), size=n),
            oid=rng.integers(-1, 32, size=n, dtype=np.int32),
            iteration=i,
        ))
    return out


def write_v1(path, batches):
    arrays = {
        "magic": np.array([_MAGIC_V1]),
        "n_batches": np.array([len(batches)], dtype=np.int64),
    }
    for i, b in enumerate(batches):
        arrays[f"b{i}_addr"] = b.addr
        arrays[f"b{i}_w"] = b.is_write
        arrays[f"b{i}_sz"] = b.size
        arrays[f"b{i}_oid"] = b.oid
        arrays[f"b{i}_it"] = np.array([b.iteration], dtype=np.int64)
    np.savez_compressed(path, **arrays)


def write_v2(path, batches):
    writer = NpzTraceWriter(path)
    for b in batches:
        writer.append(b)
    writer.close()


def write_v3(path, batches, codec):
    from repro.trace import chunked

    if not hasattr(chunked, "TV3_SUFFIX"):
        sys.exit("make_fixtures --v3 needs the v3 writer: put the sources "
                 "of commit 65d2842 on PYTHONPATH (see the module docstring)")
    writer = chunked.ChunkedTraceWriter(path, codec=codec)
    for b in batches:
        writer.append(b)
    writer.close()


def main(argv):
    batches = fixture_batches()
    if argv == ["--v3"]:
        for codec in ("raw", "zlib"):
            write_v3(os.path.join(HERE, f"trace-v3-{codec}.tv3"), batches,
                     codec)
        print("wrote trace-v3-raw.tv3 and trace-v3-zlib.tv3")
        return
    write_v1(os.path.join(HERE, "trace-v1.npz"), batches)
    write_v2(os.path.join(HERE, "trace-v2.npz"), batches)
    print("wrote trace-v1.npz and trace-v2.npz")


if __name__ == "__main__":
    main(sys.argv[1:])
