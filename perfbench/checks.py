"""Output checks: what each workload's user gets, hashed and compared.

Every operation reports a digest of its output. A digest is checked
against, in order of preference:

* ``digests.json`` next to this file, for the default seed at baseline
  fidelity (the committed reference);
* a per-seed record under ``.perfbench_state/`` at the checkout root,
  written by the first run that saw that seed (so ``suite`` and
  ``suite_jobs2`` cross-check each other for any seed);
* nothing yet: the digest becomes the reference for the rest of the run
  and for later runs.

A mismatch makes the operation count as failed.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "digests.json")
#: the seed whose digests are committed in digests.json
DEFAULT_SEED = 0


def digest(obj) -> str:
    """sha256 of *obj* as canonical JSON (numpy scalars via ``repr``)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def result_digest(res) -> str:
    """An experiment result as its user reads it: everything but the
    timings, which differ on every run."""
    return digest({"exp_id": res.exp_id, "text": res.text, "rows": res.rows,
                   "notes": res.notes})


class Checker:
    """Known digests for one (output group, fidelity, seed)."""

    def __init__(self, root: str, group: str, fidelity: str, seed: int) -> None:
        self.group = group
        self.fidelity = fidelity
        self.seed = seed
        self.state_path = os.path.join(
            root, ".perfbench_state", f"{group}-{fidelity}-seed{seed}.json")
        self.known: dict[str, str] = {}
        self.source = "none"
        reference = self._reference()
        if reference is not None:
            self.known, self.source = reference, "digests.json"
        elif os.path.exists(self.state_path):
            with open(self.state_path) as fh:
                self.known, self.source = json.load(fh), "earlier run"
        self._learned = False

    def _reference(self) -> dict | None:
        if self.seed != DEFAULT_SEED or self.fidelity != "baseline":
            return None
        try:
            with open(REFERENCE_FILE) as fh:
                return json.load(fh).get(self.group)
        except FileNotFoundError:
            return None

    def check(self, op_id: str, value: str) -> bool:
        """True when *value* matches what is known for *op_id* (or
        nothing is known yet, in which case it becomes the reference)."""
        expected = self.known.get(op_id)
        if expected is None:
            self.known[op_id] = value
            self._learned = True
            return True
        return expected == value

    def save(self) -> None:
        """Persist newly learned digests for later runs (never for the
        committed reference)."""
        if not self._learned or self.source == "digests.json":
            return
        os.makedirs(os.path.dirname(self.state_path), exist_ok=True)
        tmp = f"{self.state_path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.known, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.state_path)
