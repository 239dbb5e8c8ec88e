"""Deterministic random-number-generator plumbing.

Every stochastic component in the package takes an explicit
``numpy.random.Generator``; nothing touches numpy's global RNG state. These
helpers build generators from seeds and derive independent child streams so
that, e.g., each application and each synthetic workload draws from its own
reproducible stream.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# numpy >= 2 loads ``numpy.random`` (its Cython extensions, ``secrets``,
# ``hmac``) on first attribute access. Loading it with this module means a
# process forked after ``import repro`` -- the serve daemon's record
# children -- inherits it instead of importing it again on every request.
import numpy.random  # noqa: F401


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a ``Generator`` for *seed*.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (OS entropy — only for interactive exploration; library code
    always passes a seed).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | np.random.Generator | None, n: int) -> list[np.random.Generator]:
    """Derive *n* statistically independent child generators.

    Uses ``SeedSequence.spawn`` under the hood so children never collide
    regardless of how many draws each makes.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.Generator):
        seeds = seed.bit_generator.seed_seq.spawn(n)  # type: ignore[union-attr]
    else:
        seeds = np.random.SeedSequence(seed).spawn(n)
    return [np.random.default_rng(s) for s in seeds]


#: 64-bit FNV-1a constants
_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


def stable_hash32(parts: Sequence[object]) -> int:
    """A process-stable 32-bit hash of a tuple of printable parts.

    Used to derive per-object seeds from object signatures; Python's builtin
    ``hash`` is salted per process and therefore unsuitable.
    """
    acc = _FNV_OFFSET
    for part in parts:
        for byte in str(part).encode():
            acc = ((acc ^ byte) * _FNV_PRIME) & _MASK64
    return acc & 0xFFFFFFFF
