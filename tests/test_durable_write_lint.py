"""Lint: every durable write in ``src/`` goes through repro.trace.fsio.

The crash checker's five directory-fsync findings were one omission
(a rename or mkdir whose parent was never fsync'd) written by hand at
five call sites. The four fsio primitives make that omission impossible
to write, and this scan keeps hand-written sequences from coming back:
outside ``fsio.py`` and the two filesystem shims, no module may call
``os.replace``/``os.rename``/``os.fsync``, or ``replace``/``rename`` on
a filesystem shim (``fs``, ``self.fs``, ``self._fs``, ``<anything>.fs``).
Run by ``make lint`` beside ``ruff check``.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
#: The primitives themselves and the two shims that implement the
#: OsFS surface.
ALLOWED = ("repro/trace/fsio.py", "repro/engine/chaos.py",
           "repro/crashcheck/recorder.py")
OS_CALLS = {"replace", "rename", "fsync"}
SHIM_CALLS = {"replace", "rename"}
SHIM_NAMES = {"fs", "_fs"}


def _is_shim(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in SHIM_NAMES
    return isinstance(node, ast.Attribute) and node.attr in SHIM_NAMES


def violations(source: str, filename: str) -> list[str]:
    """``file:line: what`` for every hand-written durable step."""
    tree = ast.parse(source, filename)
    os_names = {"os"} | {
        alias.asname for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
        if alias.name == "os" and alias.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{filename}:{node.lineno}: from os import "
                      f"{alias.name}" for alias in node.names
                      if alias.name in OS_CALLS]
        if not isinstance(node, ast.Attribute):
            continue
        if (node.attr in OS_CALLS and isinstance(node.value, ast.Name)
                and node.value.id in os_names):
            found.append(f"{filename}:{node.lineno}: os.{node.attr}")
        elif node.attr in SHIM_CALLS and _is_shim(node.value):
            found.append(f"{filename}:{node.lineno}: "
                         f"{ast.unparse(node)} on a filesystem shim")
    return found


def _src_files():
    for dirpath, _dirnames, filenames in os.walk(SRC):
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, SRC).replace(os.sep, "/"), path


def test_src_writes_only_through_fsio_primitives():
    found = []
    for rel, path in _src_files():
        if rel in ALLOWED:
            continue
        with open(path) as fh:
            found += violations(fh.read(), rel)
    assert not found, (
        "hand-written durable writes (use repro.trace.fsio.publish_file, "
        "publish_dir or ensure_dir_chain):\n" + "\n".join(found))


def test_allowed_files_exist():
    # a moved shim must not silently leave a hole in the scan
    present = {rel for rel, _path in _src_files()}
    assert set(ALLOWED) <= present


def test_lint_flags_each_pattern():
    for bad in ("os.replace(a, b)", "os.rename(a, b)", "os.fsync(fd)",
                "import os as o\no.fsync(fd)", "from os import replace",
                "fs.replace(a, b)", "self.fs.rename(a, b)",
                "self._fs.replace(a, b)", "service.cache.fs.replace(a, b)",
                "f = os.fsync"):
        assert violations(bad, "x.py"), bad
    for ok in ("name.replace('a', 'b')", "dataclasses.replace(spec)",
               "self.message.replace('|', '')", "fs.fsync(fh)",
               "fs.fsync_dir(d)", "publish_file(path, data, fs)"):
        assert not violations(ok, "x.py"), ok
