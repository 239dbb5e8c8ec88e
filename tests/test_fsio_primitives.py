"""Crash checks of the four durable-write primitives in repro.trace.fsio.

Every durable protocol in the repository is composed from
``publish_file``, ``publish_dir``, ``ensure_dir_chain`` and
``read_json_or_none``, so each primitive gets its own harness here, run
straight through :func:`~repro.crashcheck.run_checker` (they are not
registered in ``PROTOCOLS``: ``crashcheck --list`` names the
application protocols). Each must come back clean at the same coverage
floor as the protocols, and hand-written copies that skip a parent
fsync must be caught.
"""

import json
import os

import pytest

from repro.crashcheck import ProtocolSpec, run_checker
from repro.errors import CrashConsistencyError
from repro.trace.fsio import (
    ensure_dir_chain,
    publish_dir,
    publish_file,
    read_json_or_none,
)

#: The coverage floor the application protocols are held to.
MIN_STATES = 500
VERSIONS = 150


def _fail(message: str, protocol: str) -> None:
    raise CrashConsistencyError(message, protocol=protocol)


def _doc(version: int) -> str:
    # longer than one 512-byte block, so writes can tear
    return json.dumps({"version": version, "pad": "x" * (600 + version)})


def _last(acked, label: str) -> int:
    versions = [m.info["version"] for m in acked if m.label == label]
    return max(versions) if versions else -1


# ----------------------------------------------------------------------
# publish_file: versions of one file in a freshly made directory chain
# ----------------------------------------------------------------------
def _file_workload(publish):
    def workload(root, fs, mark):
        directory = os.path.join(root, "a", "b")
        ensure_dir_chain(directory, root, fs)
        for v in range(VERSIONS):
            publish(os.path.join(directory, "state.json"), _doc(v), fs)
            mark("published", version=v)
    return workload


def _file_recover(root, acked):
    last = _last(acked, "published")
    path = os.path.join(root, "a", "b", "state.json")
    if not os.path.exists(path):
        if last >= 0:
            _fail(f"acked version {last} vanished", "publish_file")
        return
    with open(path) as fh:
        try:
            version = json.load(fh)["version"]
        except ValueError as exc:
            _fail(f"torn file at the final path: {exc}", "publish_file")
    if version < last:
        _fail(f"reads version {version} after {last} was acked",
              "publish_file")


# ----------------------------------------------------------------------
# publish_dir: a three-file directory replaced version by version
# ----------------------------------------------------------------------
_MEMBERS = ("one", "two", "three")
DIR_VERSIONS = 40


def _dir_workload(root, fs, mark):
    dst = os.path.join(root, "out")
    tmp = dst + ".tmp"
    for v in range(DIR_VERSIONS):
        fs.makedirs(tmp)
        for name in _MEMBERS:
            with fs.open(os.path.join(tmp, name), "wb") as fh:
                fh.write(f"{v}:{name}:".encode() + b"y" * 700)
                fs.fsync(fh)
        mark("replacing", version=v)
        publish_dir(tmp, dst, fs)
        mark("published", version=v)


def _dir_recover(root, acked):
    last = _last(acked, "published")
    # mid-publish the old directory is removed before the new one is
    # renamed in: absent is legal until that publish is acked
    replacing = bool(acked) and acked[-1].label == "replacing"
    dst = os.path.join(root, "out")
    if not os.path.isdir(dst):
        if last >= 0 and not replacing:
            _fail(f"acked version {last} vanished", "publish_dir")
        return
    versions = set()
    for name in _MEMBERS:
        try:
            with open(os.path.join(dst, name), "rb") as fh:
                head, member, rest = fh.read().split(b":", 2)
        except (OSError, ValueError) as exc:
            _fail(f"member {name} unreadable: {exc}", "publish_dir")
        if member != name.encode() or rest != b"y" * 700:
            _fail(f"member {name} is torn", "publish_dir")
        versions.add(int(head))
    if len(versions) != 1:
        _fail(f"members mix versions {sorted(versions)}", "publish_dir")
    if versions.pop() < last:
        _fail(f"published directory regressed below {last}", "publish_dir")


# ----------------------------------------------------------------------
# ensure_dir_chain: fresh chains, plus chains an earlier process made
# and died before syncing
# ----------------------------------------------------------------------
CHAINS = 30
#: How far ahead of the chain being ensured the "dead process" has
#: already made (and never synced) directories.
AHEAD = 3


def _chain_path(root, i):
    return os.path.join(root, f"t{i % 4}", f"c{i}", "leaf")


def _chain_workload(ensure):
    def workload(root, fs, mark):
        for i in range(CHAINS):
            # the first chains are made fresh; every later one was made,
            # never synced, by a process that died before ensuring it
            fs.makedirs(_chain_path(root, i + AHEAD))
            ensure(_chain_path(root, i), root, fs)
            mark("made", version=i)
    return workload


def _chain_recover(root, acked):
    for m in acked:
        path = _chain_path(root, m.info["version"])
        if not os.path.isdir(path):
            _fail(f"acked chain {os.path.relpath(path, root)} vanished",
                  "ensure_dir_chain")


# ----------------------------------------------------------------------
# read_json_or_none: what a reader polling through every crash state sees
# ----------------------------------------------------------------------
def _read_workload(root, fs, mark):
    publish_file(os.path.join(root, "list.json"), "[1, 2]", fs)
    for v in range(VERSIONS):
        publish_file(os.path.join(root, "state.json"), _doc(v), fs)
        mark("published", version=v)
        # rewritten in place, no rename: torn until its fsync lands
        with fs.open(os.path.join(root, "inplace.json"), "wb") as fh:
            fh.write(_doc(v).encode())
            fs.fsync(fh)


def _read_recover(root, acked):
    last = _last(acked, "published")
    if read_json_or_none(os.path.join(root, "list.json")) is not None:
        _fail("a JSON list read as an object", "read_json_or_none")
    if read_json_or_none(os.path.join(root, "missing.json")) is not None:
        _fail("a missing file read as an object", "read_json_or_none")
    state = read_json_or_none(os.path.join(root, "state.json"))
    if last >= 0 and (state is None or state["version"] < last):
        _fail(f"acked version {last} reads as {state and state['version']}",
              "read_json_or_none")
    # whatever shape a crash tore the in-place file into, the reader
    # answers (an object or None) instead of raising
    read_json_or_none(os.path.join(root, "inplace.json"))


SPECS = {
    "publish_file": ProtocolSpec(
        name="publish_file", description="file versions in a new chain",
        setup=lambda root: None, workload=_file_workload(publish_file),
        recover=_file_recover),
    "publish_dir": ProtocolSpec(
        name="publish_dir", description="directory replaced per version",
        setup=lambda root: None, workload=_dir_workload,
        recover=_dir_recover),
    "ensure_dir_chain": ProtocolSpec(
        name="ensure_dir_chain", description="fresh and half-made chains",
        setup=lambda root: None, workload=_chain_workload(ensure_dir_chain),
        recover=_chain_recover),
    "read_json_or_none": ProtocolSpec(
        name="read_json_or_none", description="reads of every crash state",
        setup=lambda root: None, workload=_read_workload,
        recover=_read_recover),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_primitive_is_crash_consistent(name, tmp_path):
    report = run_checker(SPECS[name], str(tmp_path))
    detail = "; ".join(f"{v.message} (schedule {v.schedule})"
                       for v in report.violations[:3])
    assert report.clean, f"{name}: {detail}"
    assert not report.truncated
    assert report.n_unique_states >= MIN_STATES, (
        f"{name} explored only {report.n_unique_states} unique states")
    assert report.n_recovered == report.n_unique_states


# ----------------------------------------------------------------------
# the harnesses have teeth: the omission the primitives exist to rule
# out is found the moment it is written by hand
# ----------------------------------------------------------------------
def _publish_file_no_parent_fsync(path, data, fs):
    with fs.open(path + ".tmp", "wb") as fh:
        fh.write(data.encode())
        fs.fsync(fh)
    fs.replace(path + ".tmp", path)


def _ensure_dir_chain_new_levels_only(path, root, fs):
    missing = []
    level = path
    while not os.path.isdir(level):
        missing.append(level)
        level = os.path.dirname(level)
    fs.makedirs(path)
    for made in missing:
        fs.fsync_dir(os.path.dirname(made))


BROKEN = {
    "publish_file": (_file_workload(_publish_file_no_parent_fsync),
                     _file_recover),
    "ensure_dir_chain": (_chain_workload(_ensure_dir_chain_new_levels_only),
                         _chain_recover),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_missing_parent_fsync_is_caught(name, tmp_path):
    workload, recover = BROKEN[name]
    spec = ProtocolSpec(name=name, description="hand-written, unsynced",
                        setup=lambda root: None, workload=workload,
                        recover=recover)
    report = run_checker(spec, str(tmp_path), max_violations=1)
    assert not report.clean
    assert "vanished" in report.violations[0].message
