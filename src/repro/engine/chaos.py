"""Chaos I/O: deterministic filesystem fault injection for the cache.

The artifact cache is the suite's single source of truth, so its
durability protocol (tmp-write → fsync → rename → directory fsync, with
``meta.json`` as the commit marker) has to be *demonstrated*, not
assumed. :class:`ChaosFS` substitutes for the plain
:class:`~repro.trace.io.OsFS` passthrough and injects, at exact,
replayable points in the write path:

* **torn writes** — only the first *offset* bytes of a file reach the
  disk before the simulated machine dies;
* **``ENOSPC`` / ``EIO``** — the error-return paths every ``write``/
  ``fsync``/``rename`` caller must survive;
* **crash points** — the filesystem goes *dead* at a chosen operation
  (every later call raises :class:`SimulatedCrash`), modelling a process
  kill: cleanup code does not get to run its unlinks;
* **bit flips in committed files** — media corruption injected right
  after a rename publishes a file, which CRC verification, replay
  self-healing, and ``engine fsck`` must all catch.

Fault points are deterministic: operations are labelled
``"<op>:<basename>"`` (e.g. ``"replace:meta.json"``) and counted, and an
:class:`IOFault` matches by label glob or by absolute operation index —
so a sweep test can first record a clean run's operation sequence and
then kill a fresh recording at *every* point in it. Randomness (which
bit a flip hits) flows through a seeded
:class:`~repro.resilience.faults.FaultInjector`, and the named I/O
scenarios below live in the same
:data:`~repro.resilience.faults.SCENARIOS` registry as the
checkpoint-level fault models.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from fnmatch import fnmatch

from repro.errors import FaultInjectionError
from repro.resilience.faults import FaultInjector, FaultScenario, register_scenario
from repro.trace.io import OsFS

#: Fault kinds ChaosFS understands.
FAULT_KINDS = ("torn", "enospc", "eio", "crash", "bitflip")


class SimulatedCrash(OSError):
    """The simulated machine died; the filesystem is gone.

    Derives from :class:`OSError` on purpose: best-effort cleanup code
    (``PendingArtifact.abort``) swallows ``OSError``, so after a crash
    point fires its unlinks become no-ops — exactly like a real process
    kill — and the on-disk state the next process sees is precisely what
    was durable at the crash point.
    """

    def __init__(self, message: str) -> None:
        super().__init__(errno.EIO, message)


@dataclass(frozen=True)
class IOFault:
    """One injected filesystem fault.

    ``op`` is a label glob (``"write:meta.json.tmp"``, ``"replace:*"``);
    ``index`` selects the Nth labelled operation instead. ``offset`` is
    the number of payload bytes that survive for ``torn`` (and, when
    set on ``enospc``/``eio``, the bytes written before the error).
    ``repeat`` keeps the fault armed after it fires (persistent media
    problems rather than one-shot glitches).
    """

    kind: str
    op: str | None = None
    index: int | None = None
    offset: int | None = None
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown I/O fault kind {self.kind!r}; know {FAULT_KINDS}"
            )
        if (self.op is None) == (self.index is None):
            raise FaultInjectionError(
                "an IOFault needs exactly one of op= (label glob) or index="
            )
        if self.kind == "torn" and self.offset is None:
            raise FaultInjectionError("a torn-write fault needs offset=")
        if self.offset is not None and self.offset < 0:
            raise FaultInjectionError("fault offset must be >= 0")

    def matches(self, label: str, index: int) -> bool:
        if self.op is not None:
            return fnmatch(label, self.op)
        return index == self.index


@dataclass(frozen=True)
class IOFaultScenario(FaultScenario):
    """A named bundle of I/O faults, registered alongside the checkpoint
    fault scenarios so ``get_scenario("io-…")`` works everywhere."""

    faults: tuple[IOFault, ...] = ()


register_scenario(IOFaultScenario(
    "io-torn-refs",
    "torn write: only 512 bytes of the trace data file survive",
    faults=(IOFault("torn", op="write:chunk-data.bin", offset=512),)))
register_scenario(IOFaultScenario(
    "io-enospc-meta", "disk full while writing the meta.json commit marker",
    faults=(IOFault("enospc", op="write:meta.json.tmp"),)))
register_scenario(IOFaultScenario(
    "io-eio-events", "media error while writing the event log",
    faults=(IOFault("eio", op="write:events.json.tmp"),)))
register_scenario(IOFaultScenario(
    "io-crash-commit", "process killed at the meta.json publish rename",
    faults=(IOFault("crash", op="replace:meta.json"),)))
register_scenario(IOFaultScenario(
    "io-bitflip-refs", "one bit flips in the committed trace container",
    faults=(IOFault("bitflip", op="replace:refs.tv4"),)))
register_scenario(IOFaultScenario(
    "io-bitflip-refs-persistent",
    "every re-recorded trace container is corrupted again (bad media)",
    faults=(IOFault("bitflip", op="replace:refs.tv4", repeat=True),)))
register_scenario(IOFaultScenario(
    "io-queue-soak",
    "queue soak: each worker's first committed trace container takes a "
    "bit flip (replay verification + self-healing re-record repair it "
    "mid-suite, under concurrent claims and worker kills)",
    faults=(IOFault("bitflip", op="replace:refs.tv4"),)))


def _flip_payload_bit(path: str, injector: FaultInjector) -> int:
    """Flip one injector-drawn bit of *path*'s stored payload, in place.

    For a trace container *directory* the flip lands anywhere across
    its files' total bytes (index and data file alike — every byte is
    covered by a CRC32, so any flip is detectable); for a file,
    anywhere in it. Returns the affected byte offset (within the chosen
    file, for directories).
    """
    if os.path.isdir(path):
        files = sorted(
            os.path.join(dp, f)
            for dp, _dn, fns in os.walk(path) for f in fns
        )
        total = sum(os.path.getsize(f) for f in files)
        if total == 0:
            raise FaultInjectionError(f"cannot corrupt empty container {path}")
        k = injector.random_offset(total)
        for fpath in files:
            size = os.path.getsize(fpath)
            if k < size:
                with open(fpath, "rb") as fh:
                    data = bytearray(fh.read())
                data[k] ^= 1 << injector.random_offset(8)
                with open(fpath, "wb") as fh:
                    fh.write(data)
                return k
            k -= size
        raise AssertionError("unreachable: offset within total size")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if not data:
        raise FaultInjectionError(f"cannot corrupt empty file {path}")
    off = injector.random_offset(len(data))
    data[off] ^= 1 << injector.random_offset(8)
    with open(path, "wb") as fh:
        fh.write(data)
    return off


def flip_file_bit(path: str | os.PathLike, seed: int = 0) -> int:
    """Flip one seeded-random bit of the file at *path*, in place.

    Returns the affected byte offset. The injection tests and the fsck
    coverage sweep use this to model at-rest media corruption.
    """
    return _flip_payload_bit(os.fspath(path), FaultInjector("none", seed=seed))


class _ChaosFile:
    """File handle wrapper applying an armed write fault.

    Exposes ``read`` (so ``np.savez`` treats it as a file object) but
    deliberately **not** ``tell``/``seek``: ``zipfile`` then falls back
    to its non-seekable streaming mode, keeping every write strictly
    sequential so the torn-write byte budget is an exact file prefix.
    """

    def __init__(self, fh, fs: "ChaosFS", fault: IOFault | None) -> None:
        self._fh = fh
        self._fs = fs
        self._fault = fault
        self._written = 0

    @property
    def name(self) -> str:
        return self._fh.name

    def write(self, data) -> int:
        if self._fs.dead:
            raise SimulatedCrash("chaos: write after simulated crash")
        f = self._fault
        if f is None:
            return self._fh.write(data)
        if f.offset is None:
            # no survival budget: the write fails before any byte lands
            err = errno.ENOSPC if f.kind == "enospc" else errno.EIO
            raise OSError(err, f"chaos: injected {f.kind} during write")
        keep = max(0, min(len(data), f.offset - self._written))
        if keep:
            self._fh.write(data[:keep])
            self._written += keep
        if self._written < f.offset and keep == len(data):
            return keep  # still under the survival budget
        if f.kind == "torn":
            self._fh.flush()
            self._fs.dead = True
            raise SimulatedCrash(
                f"chaos: torn write after {self._written} bytes"
            )
        err = errno.ENOSPC if f.kind == "enospc" else errno.EIO
        raise OSError(err, f"chaos: injected {f.kind} during write")

    def read(self, *args):
        if self._fs.dead:
            raise SimulatedCrash("chaos: read after simulated crash")
        return self._fh.read(*args)

    def flush(self) -> None:
        self._fh.flush()

    def fileno(self) -> int:
        return self._fh.fileno()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "_ChaosFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ChaosFS(OsFS):
    """An :class:`~repro.trace.io.OsFS` that injects scripted faults.

    ``faults`` and/or a registered ``scenario`` (name or
    :class:`IOFaultScenario`) supply the script; ``seed`` drives the
    bit-flip randomness. ``ops`` records every labelled operation so a
    clean pass enumerates the crash points a sweep then targets, and
    ``fired`` records which faults actually triggered.
    """

    def __init__(
        self,
        faults: tuple[IOFault, ...] | list[IOFault] = (),
        *,
        scenario: IOFaultScenario | str | None = None,
        seed: int = 0,
    ) -> None:
        plan = list(faults)
        if scenario is not None:
            if isinstance(scenario, str):
                from repro.resilience.faults import get_scenario

                scenario = get_scenario(scenario)  # type: ignore[assignment]
            if not isinstance(scenario, IOFaultScenario):
                raise FaultInjectionError(
                    f"{getattr(scenario, 'name', scenario)!r} is not an "
                    f"I/O fault scenario"
                )
            plan.extend(scenario.faults)
        self._pending: list[IOFault] = plan
        self.fired: list[tuple[IOFault, str]] = []
        self.ops: list[str] = []
        self.dead = False
        self._injector = FaultInjector("none", seed=seed)

    # -- fault matching -------------------------------------------------
    def _op(self, op: str, path: str) -> IOFault | None:
        if self.dead:
            raise SimulatedCrash(
                f"chaos: {op} on {os.path.basename(path)} after simulated crash"
            )
        label = f"{op}:{os.path.basename(path)}"
        index = len(self.ops)
        self.ops.append(label)
        for f in self._pending:
            if f.matches(label, index):
                if not f.repeat:
                    self._pending.remove(f)
                self.fired.append((f, label))
                return f
        return None

    def _crash(self, why: str) -> None:
        self.dead = True
        raise SimulatedCrash(f"chaos: simulated crash at {why}")

    # -- the OsFS surface -----------------------------------------------
    def open(self, path: str, mode: str = "wb"):
        if "r" in mode and "+" not in mode:
            if self.dead:
                raise SimulatedCrash("chaos: read after simulated crash")
            return open(path, mode)
        fault = self._op("write", path)
        if fault is not None and fault.kind == "crash":
            self._crash(f"open of {os.path.basename(path)}")
        return _ChaosFile(open(path, mode), self, fault)

    def fsync(self, fh) -> None:
        path = getattr(getattr(fh, "_fh", fh), "name", "?")
        fault = self._op("fsync", path)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(f"fsync of {os.path.basename(path)}")
            err = errno.ENOSPC if fault.kind == "enospc" else errno.EIO
            raise OSError(err, f"chaos: injected {fault.kind} during fsync")
        fh.flush()
        os.fsync(fh.fileno())

    def replace(self, src: str, dst: str) -> None:
        fault = self._op("replace", dst)
        if fault is not None and fault.kind == "crash":
            self._crash(f"rename to {os.path.basename(dst)}")
        if fault is not None and fault.kind in ("enospc", "eio"):
            err = errno.ENOSPC if fault.kind == "enospc" else errno.EIO
            raise OSError(err, f"chaos: injected {fault.kind} during rename")
        os.replace(src, dst)
        if fault is not None and fault.kind == "bitflip":
            _flip_payload_bit(dst, self._injector)

    def rename(self, src: str, dst: str) -> None:
        fault = self._op("rename", dst)
        if fault is not None and fault.kind == "crash":
            self._crash(f"rename to {os.path.basename(dst)}")
        if fault is not None and fault.kind in ("enospc", "eio"):
            err = errno.ENOSPC if fault.kind == "enospc" else errno.EIO
            raise OSError(err, f"chaos: injected {fault.kind} during rename")
        os.rename(src, dst)

    def open_excl(self, path: str):
        fault = self._op("create", path)
        if fault is not None and fault.kind == "crash":
            self._crash(f"exclusive create of {os.path.basename(path)}")
        if fault is not None and fault.kind in ("enospc", "eio"):
            err = errno.ENOSPC if fault.kind == "enospc" else errno.EIO
            raise OSError(err, f"chaos: injected {fault.kind} during create")
        return super().open_excl(path)

    def rmtree(self, path: str) -> None:
        fault = self._op("rmtree", path)
        if fault is not None and fault.kind == "crash":
            self._crash(f"rmtree of {os.path.basename(path)}")
        super().rmtree(path)

    def unlink(self, path: str) -> None:
        fault = self._op("unlink", path)
        if fault is not None and fault.kind == "crash":
            self._crash(f"unlink of {os.path.basename(path)}")
        os.unlink(path)

    def exists(self, path: str) -> bool:
        if self.dead:
            raise SimulatedCrash("chaos: stat after simulated crash")
        return os.path.exists(path)

    def makedirs(self, path: str) -> None:
        if self.dead:
            raise SimulatedCrash("chaos: mkdir after simulated crash")
        os.makedirs(path, exist_ok=True)

    def fsync_dir(self, path: str) -> None:
        fault = self._op("fsync_dir", path)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(f"fsync of directory {os.path.basename(path)}")
            err = errno.ENOSPC if fault.kind == "enospc" else errno.EIO
            raise OSError(
                err, f"chaos: injected {fault.kind} during directory fsync")
        super().fsync_dir(path)
