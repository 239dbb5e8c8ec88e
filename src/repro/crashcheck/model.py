"""POSIX-ish persistence model over a recorded op log.

Given the op log a :class:`~repro.crashcheck.recorder.RecordingFS`
captured, this module answers: *which on-disk states could a crash
expose?* The model is adversarial but stays inside what journaling
filesystems actually promise:

* **fsync scope is the inode.** ``fsync(file)`` persists that file's
  earlier data writes/truncates — and nothing else; in particular not
  the directory entry naming the file. ``fsync_dir(dir)`` persists the
  earlier entry operations (create/mkdir/rename/unlink/rmtree) *in that
  directory* — and nothing about file contents.
* **Un-fsynced data reorders freely.** Any subset of the pending data
  ops may have reached the medium, and a multi-block write may *tear*:
  only a prefix of whole :data:`BLOCK` -byte blocks lands (sub-block
  writes are assumed atomic, matching sector-atomicity).
* **Un-fsynced metadata is ordered per directory only.** Entry ops on
  one directory persist as a prefix in issue order (what ext4/xfs
  journaling actually gives you); entry ops on *different* directories,
  and metadata vs. data, reorder without constraint. Renames are atomic
  (the entry points at the old or the new inode, never half).

Because a ``rename`` moves an *inode* while the recorder logs *paths*,
an annotation pass first simulates the log against a snapshot of the
pre-workload tree, resolving every op to inode identities. Crash-state
materialization then replays a chosen subset of resolved ops onto a
copy of the base tree, so data written to ``a.tmp`` correctly follows
the inode through a later ``rename(a.tmp → a)`` even when unrelated
ops between them are dropped.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

from repro.crashcheck.recorder import DATA_KINDS, META_KINDS, DurableOp

#: Tear granularity: writes land in whole blocks of this many bytes.
BLOCK = 512
#: A data/metadata op never covered by a later fsync/fsync_dir.
NEVER = 1 << 60


# ----------------------------------------------------------------------
# base-tree snapshot
# ----------------------------------------------------------------------
def snapshot_tree(root: str) -> dict[str, bytes | None]:
    """Map of root-relative path → file bytes (None for directories),
    taken before the workload runs: the durable state every crash state
    builds on."""
    snap: dict[str, bytes | None] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        if rel_dir != ".":
            snap[rel_dir] = None
        for name in filenames:
            rel = os.path.join(rel_dir, name) if rel_dir != "." else name
            with open(os.path.join(dirpath, name), "rb") as fh:
                snap[rel] = fh.read()
    return snap


# ----------------------------------------------------------------------
# annotation: resolve paths to inode identities
# ----------------------------------------------------------------------
@dataclass
class AnnOp:
    """One op with its path arguments resolved to inode ids."""

    index: int
    kind: str
    label: str
    node: int = -1         # file inode (data/fsync) or dir inode (fsync_dir)
    parent: int = -1       # dir holding the entry (creat/mkdir/unlink/rmtree,
                           # and the *source* entry of a rename)
    name: str = ""
    dst_parent: int = -1   # rename: dir receiving the entry
    dst_name: str = ""
    data: bytes = b""
    offset: int = 0

    @property
    def meta_dirs(self) -> tuple[int, ...]:
        """Directories whose fsync_dir covers this metadata op."""
        if self.kind == "rename":
            if self.dst_parent == self.parent:
                return (self.dst_parent,)
            return (self.dst_parent, self.parent)
        return (self.parent,)

    @property
    def order_dir(self) -> int:
        """The directory whose per-dir issue order this op obeys (the
        destination parent for renames)."""
        return self.dst_parent if self.kind == "rename" else self.parent


class AnnotatedLog:
    """The op log resolved against inode identities, plus coverage."""

    def __init__(self, snapshot: dict[str, bytes | None],
                 ops: list[DurableOp]) -> None:
        self.n_ops = len(ops)
        # inode tables ------------------------------------------------
        self.kind: dict[int, str] = {0: "dir"}          # node id -> file|dir
        self.base_children: dict[int, dict[str, int]] = {0: {}}
        self.base_content: dict[int, bytes] = {}
        self._next_id = 1

        def new_node(node_kind: str) -> int:
            node = self._next_id
            self._next_id += 1
            self.kind[node] = node_kind
            if node_kind == "dir":
                self.base_children.setdefault(node, {})
            return node

        # seed the base tree (all of it is durable by definition);
        # sorted order puts every directory before its children
        live_children: dict[int, dict[str, int]] = {0: {}}
        for rel in sorted(snapshot):
            blob = snapshot[rel]
            parent = self._resolve_dir(live_children, os.path.dirname(rel))
            node = new_node("dir" if blob is None else "file")
            if blob is None:
                live_children.setdefault(node, {})
            else:
                self.base_content[node] = blob
            name = os.path.basename(rel)
            live_children[parent][name] = node
            self.base_children.setdefault(parent, {})[name] = node

        # annotate, simulating full application ------------------------
        self.ops: list[AnnOp] = []
        for op in ops:
            self.ops.append(self._annotate(live_children, new_node, op))

        self._compute_coverage()

    @staticmethod
    def _resolve_dir(children: dict[int, dict[str, int]], rel: str) -> int:
        node = 0
        if rel in (".", ""):
            return node
        for part in rel.split(os.sep):
            node = children[node][part]
        return node

    def _resolve(self, children: dict[int, dict[str, int]],
                 rel: str) -> tuple[int, int, str]:
        """``(node_or_-1, parent, name)`` for *rel* in the live tree."""
        parent = self._resolve_dir(children, os.path.dirname(rel))
        name = os.path.basename(rel)
        return children[parent].get(name, -1), parent, name

    def _annotate(self, children, new_node, op: DurableOp) -> AnnOp:
        ann = AnnOp(index=op.index, kind=op.kind, label=op.label,
                    data=op.data, offset=op.offset)
        if op.kind == "creat":
            node, parent, name = self._resolve(children, op.path)
            if node < 0:
                node = new_node("file")
            ann.node, ann.parent, ann.name = node, parent, name
            children[parent][name] = node
        elif op.kind == "mkdir":
            node, parent, name = self._resolve(children, op.path)
            if node < 0:
                node = new_node("dir")
            ann.node, ann.parent, ann.name = node, parent, name
            children.setdefault(node, {})
            children[parent][name] = node
        elif op.kind in ("write", "trunc"):
            node, _parent, _name = self._resolve(children, op.path)
            if node < 0:
                raise ValueError(
                    f"op {op.index}: {op.kind} on unknown path {op.path!r}")
            ann.node = node
        elif op.kind == "fsync":
            node, _parent, _name = self._resolve(children, op.path)
            ann.node = node  # -1 when renamed away before fsync: covers nothing
        elif op.kind == "fsync_dir":
            node = self._resolve_dir(children, op.path)
            ann.node = node
        elif op.kind == "rename":
            node, src_parent, src_name = self._resolve(children, op.path)
            if node < 0:
                raise ValueError(
                    f"op {op.index}: rename of unknown path {op.path!r}")
            _dst_node, dst_parent, dst_name = self._resolve(children, op.dst)
            ann.node, ann.parent, ann.name = node, src_parent, src_name
            ann.dst_parent, ann.dst_name = dst_parent, dst_name
            del children[src_parent][src_name]
            children[dst_parent][dst_name] = node
        elif op.kind in ("unlink", "rmtree"):
            node, parent, name = self._resolve(children, op.path)
            if node < 0:
                raise ValueError(
                    f"op {op.index}: {op.kind} of unknown path {op.path!r}")
            ann.node, ann.parent, ann.name = node, parent, name
            del children[parent][name]
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        return ann

    # -- durability coverage -------------------------------------------
    def _compute_coverage(self) -> None:
        """``covered_at[i]`` = smallest crash index k at which op i is
        guaranteed durable (:data:`NEVER` when no later barrier covers
        it). Op i is durable at crash point k iff covered_at[i] <= k."""
        fsync_points: dict[int, list[int]] = {}
        fsync_dir_points: dict[int, list[int]] = {}
        for ann in self.ops:
            if ann.kind == "fsync" and ann.node >= 0:
                fsync_points.setdefault(ann.node, []).append(ann.index)
            elif ann.kind == "fsync_dir":
                fsync_dir_points.setdefault(ann.node, []).append(ann.index)

        def next_after(points: list[int] | None, i: int) -> int:
            if points:
                for j in points:
                    if j > i:
                        return j + 1
            return NEVER

        self.covered_at: list[int] = []
        for ann in self.ops:
            if ann.kind in DATA_KINDS:
                self.covered_at.append(
                    next_after(fsync_points.get(ann.node), ann.index))
            elif ann.kind in META_KINDS:
                self.covered_at.append(max(
                    next_after(fsync_dir_points.get(d), ann.index)
                    for d in ann.meta_dirs))
            else:
                self.covered_at.append(ann.index + 1)

    def is_durable(self, index: int, crash_index: int | None = None) -> bool:
        """Is op *index* guaranteed on disk at *crash_index* (log end by
        default)? Barrier ops count as durable once issued."""
        k = self.n_ops if crash_index is None else crash_index
        return index < k and self.covered_at[index] <= k

    def pending(self, crash_index: int) -> list[AnnOp]:
        """Issued-but-not-guaranteed ops at *crash_index*, in issue order."""
        return [self.ops[i] for i in range(crash_index)
                if self.covered_at[i] > crash_index
                and self.ops[i].kind in DATA_KINDS + META_KINDS]

    def find_op(self, kind: str, path_suffix: str, nth: int = 0) -> AnnOp:
        """The *nth* logged op of *kind* whose path (rename: destination)
        ends with *path_suffix* — how regression schedules name ops."""
        seen = 0
        for ann in self.ops:
            target = ann.label.split(":", 1)[1]
            if ann.kind == kind and (target == path_suffix
                                     or ann.label.endswith(path_suffix)):
                if seen == nth:
                    return ann
                seen += 1
        raise KeyError(f"no {kind!r} op matching {path_suffix!r} (#{nth})")


def annotate(snapshot: dict[str, bytes | None],
             ops: list[DurableOp]) -> AnnotatedLog:
    return AnnotatedLog(snapshot, ops)


# ----------------------------------------------------------------------
# schedules: one chosen crash state, serializable
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Schedule:
    """A reproducible crash state: crash after ``crash_index`` ops, with
    the pending ops in ``drops`` absent and each ``(op, keep)`` in
    ``tears`` torn to its first *keep* bytes."""

    crash_index: int
    drops: tuple[int, ...] = ()
    tears: tuple[tuple[int, int], ...] = ()

    def to_dict(self, log: AnnotatedLog | None = None) -> dict:
        d: dict = {"crash_index": self.crash_index,
                   "drops": list(self.drops),
                   "tears": [list(t) for t in self.tears]}
        if log is not None:
            d["labels"] = {str(i): log.ops[i].label
                           for i in (*self.drops,
                                     *(t[0] for t in self.tears))}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        return cls(crash_index=int(d["crash_index"]),
                   drops=tuple(int(i) for i in d.get("drops", ())),
                   tears=tuple((int(i), int(k))
                               for i, k in d.get("tears", ())))


# ----------------------------------------------------------------------
# materialization
# ----------------------------------------------------------------------
class MemTree:
    """One materialized crash state, in memory."""

    def __init__(self, log: AnnotatedLog) -> None:
        self._log = log
        self.children: dict[int, dict[str, int]] = {
            d: dict(entries) for d, entries in log.base_children.items()}
        self.content: dict[int, bytearray] = {
            n: bytearray(b) for n, b in log.base_content.items()}

    def _apply(self, ann: AnnOp, keep: int | None = None) -> None:
        if ann.kind == "creat":
            self.content.setdefault(ann.node, bytearray())
            self.children.setdefault(ann.parent, {})[ann.name] = ann.node
        elif ann.kind == "mkdir":
            self.children.setdefault(ann.node, {})
            self.children.setdefault(ann.parent, {})[ann.name] = ann.node
        elif ann.kind == "trunc":
            buf = self.content.setdefault(ann.node, bytearray())
            if ann.offset < len(buf):
                del buf[ann.offset:]
            else:
                buf.extend(b"\0" * (ann.offset - len(buf)))
        elif ann.kind == "write":
            buf = self.content.setdefault(ann.node, bytearray())
            if ann.offset > len(buf):
                buf.extend(b"\0" * (ann.offset - len(buf)))
            data = ann.data if keep is None else ann.data[:keep]
            buf[ann.offset:ann.offset + len(data)] = data
        elif ann.kind == "rename":
            src = self.children.get(ann.parent, {})
            if src.get(ann.name) == ann.node:
                del src[ann.name]
            self.children.setdefault(ann.dst_parent, {})[
                ann.dst_name] = ann.node
        elif ann.kind in ("unlink", "rmtree"):
            entries = self.children.get(ann.parent, {})
            if entries.get(ann.name) == ann.node:
                del entries[ann.name]

    def tree_hash(self) -> str:
        """Content hash of the visible tree (dedup key for states)."""
        h = hashlib.sha256()
        self._walk_hash(0, "", h)
        return h.hexdigest()

    def _walk_hash(self, node: int, prefix: str, h) -> None:
        for name in sorted(self.children.get(node, ())):
            child = self.children[node][name]
            path = f"{prefix}/{name}"
            if self._log.kind.get(child) == "dir":
                h.update(f"D {path}\n".encode())
                self._walk_hash(child, path, h)
            else:
                data = bytes(self.content.get(child, b""))
                h.update(f"F {path} {len(data)} ".encode())
                h.update(hashlib.sha256(data).digest())
                h.update(b"\n")

    def emit(self, dest: str) -> None:
        """Write the visible tree into (empty, existing) *dest*."""
        self._emit_dir(0, dest)

    def _emit_dir(self, node: int, dest: str) -> None:
        for name, child in self.children.get(node, {}).items():
            path = os.path.join(dest, name)
            if self._log.kind.get(child) == "dir":
                os.makedirs(path, exist_ok=True)
                self._emit_dir(child, path)
            else:
                with open(path, "wb") as fh:
                    fh.write(bytes(self.content.get(child, b"")))


def materialize(log: AnnotatedLog, schedule: Schedule) -> MemTree:
    """Build the crash state *schedule* describes.

    Durable ops always apply; pending ops apply unless dropped (torn
    writes apply their kept prefix). A drop of an op the model proves
    durable is ignored — which is exactly what makes post-fix regression
    schedules pass: the once-droppable op is now covered.
    """
    drops = set(schedule.drops)
    tears = dict(schedule.tears)
    tree = MemTree(log)
    for i in range(schedule.crash_index):
        ann = log.ops[i]
        if ann.kind not in DATA_KINDS + META_KINDS:
            continue
        durable = log.covered_at[i] <= schedule.crash_index
        if not durable and i in drops:
            continue
        if not durable and i in tears and ann.kind == "write":
            tree._apply(ann, keep=tears[i])
            continue
        tree._apply(ann)
    return tree


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def _op_choices(ann: AnnOp, block: int) -> list[tuple[str, int]]:
    """The non-default outcomes a pending op can take ("apply" is the
    default and not listed): drop it, or tear it at block boundaries."""
    out: list[tuple[str, int]] = [("drop", 0)]
    if ann.kind == "write" and len(ann.data) > block:
        n_blocks = len(ann.data) // block
        keeps = {block, (n_blocks // 2) * block, n_blocks * block}
        out.extend(("tear", k) for k in sorted(keeps)
                   if 0 < k < len(ann.data))
    return out


def enumerate_schedules(log: AnnotatedLog, crash_index: int,
                        per_point: int = 8,
                        block: int = BLOCK) -> Iterator[Schedule]:
    """Yield up to *per_point* distinct schedules for one crash point.

    Pending *metadata* ops persist per-directory as issue-order
    prefixes; pending *data* ops drop or tear independently. States are
    generated in increasing deviation count from the all-applied state
    (weight 0), so the budget is spent on the near-miss states where
    single missing-fsync bugs live; the all-dropped prefix-crash state
    is always included last.
    """
    pending = log.pending(crash_index)
    # decision items: one per pending data op; one per directory with
    # pending metadata ops (choice = how much of its prefix survives)
    data_items = [a for a in pending if a.kind in DATA_KINDS]
    meta_groups: dict[int, list[AnnOp]] = {}
    for a in pending:
        if a.kind in META_KINDS:
            meta_groups.setdefault(a.order_dir, []).append(a)

    # each item's option list; index 0 is the default (fully applied)
    items: list[list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]] = []
    for a in data_items:
        opts = [((), ())]
        for choice, keep in _op_choices(a, block):
            if choice == "drop":
                opts.append(((a.index,), ()))
            else:
                opts.append(((), ((a.index, keep),)))
        items.append(opts)
    for _dir_node, group in sorted(meta_groups.items()):
        opts = [((), ())]
        for cut in range(len(group) - 1, -1, -1):
            # prefix of length `cut` survives: drop group[cut:]
            opts.append((tuple(a.index for a in group[cut:]), ()))
        items.append(opts)

    emitted = 0
    seen: set[tuple] = set()

    def emit(combo: tuple[int, ...]) -> Schedule:
        drops: list[int] = []
        tears: list[tuple[int, int]] = []
        for item, opt_i in zip(items, combo):
            d, t = item[opt_i]
            drops.extend(d)
            tears.extend(t)
        return Schedule(crash_index=crash_index,
                        drops=tuple(sorted(drops)),
                        tears=tuple(sorted(tears)))

    n = len(items)
    all_dropped = tuple(len(item) - 1 if len(item) > 1 else 0
                        for item in items)
    for weight in range(0, n + 1):
        if emitted >= per_point:
            break
        for positions in combinations(range(n), weight):
            if emitted >= per_point:
                break
            option_lists = [range(1, len(items[p])) for p in positions]
            for chosen in product(*option_lists):
                combo = [0] * n
                for p, c in zip(positions, chosen):
                    combo[p] = c
                key = tuple(combo)
                if key in seen:
                    continue
                seen.add(key)
                yield emit(key)
                emitted += 1
                if emitted >= per_point:
                    break
    if all_dropped not in seen and n > 0:
        yield emit(all_dropped)
