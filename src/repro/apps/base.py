"""Data-driven model-application engine.

An application is a declarative table of *structures* (global / common /
heap memory objects) and *routines* (stack frames with locals), each with a
per-iteration read/write weight. The engine normalizes weights into a
reference budget per iteration, so an app's aggregate statistics (stack
reference share, read/write ratios, per-object reference rates) are set
directly by its spec — which is how we transplant the paper's measured
characteristics onto executable programs.

Weights are *fractions of all references in one main-loop iteration*; the
sum over all specs need not be 1 (it is normalized), but writing specs so
they sum to ~1 keeps them readable as "share of traffic".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.instrument.runtime import InstrumentedRuntime, SimArray
from repro.util.rng import make_rng, stable_hash32
from repro.util.units import MiB
from repro.workloads import synthetic


@dataclass(frozen=True)
class AppInfo:
    """Table I row."""

    name: str
    input_description: str
    description: str
    paper_footprint_mb: float


@dataclass(frozen=True)
class StructureSpec:
    """One global/common/heap memory object of the model app.

    ``footprint_fraction`` — share of the app's (scaled) footprint.
    ``reads`` / ``writes`` — per-iteration reference weights (fractions of
    the iteration budget).
    ``phase`` — "main" data is touched in main-loop iterations; "pre" /
    "post" data is touched only outside the loop (Figure 7's x = 0 mass).
    ``active_iterations`` — restrict main-phase accesses to some iterations
    (Figure 7's unevenly-touched objects).
    ``rate_jitter`` — log-uniform per-iteration multiplicative jitter on
    the reference counts (Nek5000's "quite diverse reference rates").
    ``short_term`` — heap object allocated and freed inside every
    iteration (excluded from Figure 7 by the analyzer).
    """

    name: str
    segment: str  # "global" | "common" | "heap"
    footprint_fraction: float
    reads: float
    writes: float
    pattern: str = "sequential"
    phase: str = "main"
    active_iterations: tuple[int, ...] | None = None
    rate_jitter: float = 0.0
    short_term: bool = False
    tags: frozenset[str] = field(default_factory=frozenset)
    #: for "common": member name/fraction pairs re-partitioning the block
    members: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.segment not in ("global", "common", "heap"):
            raise ConfigurationError(f"{self.name}: bad segment {self.segment!r}")
        if self.phase not in ("pre", "main", "post"):
            raise ConfigurationError(f"{self.name}: bad phase {self.phase!r}")
        if self.pattern not in ("sequential", "strided", "random", "hotspot", "gather"):
            raise ConfigurationError(f"{self.name}: bad pattern {self.pattern!r}")
        if self.footprint_fraction <= 0:
            raise ConfigurationError(f"{self.name}: footprint fraction must be positive")
        if self.reads < 0 or self.writes < 0:
            raise ConfigurationError(f"{self.name}: weights must be non-negative")
        if self.short_term and self.segment != "heap":
            raise ConfigurationError(f"{self.name}: only heap objects can be short-term")


@dataclass(frozen=True)
class RoutineSpec:
    """One routine whose stack frame the app exercises.

    ``first_iteration_scale`` multiplies (reads, writes) in iteration 1 —
    CAM's stack behaves differently on the first time step (r/w 11.46
    vs 20.39 afterwards).
    """

    name: str
    local_kb: float
    reads: float
    writes: float
    first_iteration_scale: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.local_kb <= 0:
            raise ConfigurationError(f"{self.name}: local_kb must be positive")
        if self.reads < 0 or self.writes < 0:
            raise ConfigurationError(f"{self.name}: weights must be non-negative")


class ModelApp:
    """Executable model application (a `Program`).

    Parameters
    ----------
    scale:
        Footprint scale relative to the paper's per-task footprint
        (default 1/64: Nek5000's 824 MB becomes ~12.9 MB).
    refs_per_iteration:
        Total memory references issued per main-loop iteration.
    n_iterations:
        Main-loop length (the paper instruments 10).
    """

    info: AppInfo
    structures: Sequence[StructureSpec]
    routines: Sequence[RoutineSpec]
    #: calibration constants: uniform multipliers applied to all structure
    #: (global/heap) traffic and to all stack write traffic, used to pin the
    #: aggregate Table V numbers without perturbing per-object ratios
    structure_traffic_scale: float = 1.0
    stack_write_scale: float = 1.0
    #: non-memory instructions accounted per emitted reference: each
    #: recorded reference stands for one inner-loop body (FLOPs, address
    #: arithmetic, control) of the real code, so this sets the app's
    #: compute-to-memory balance for the performance model (Fig 12)
    instructions_per_ref: float = 100.0

    def __init__(
        self,
        scale: float = 1.0 / 64.0,
        refs_per_iteration: int = 100_000,
        n_iterations: int = 10,
        seed: int = 0,
    ) -> None:
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        if refs_per_iteration <= 0:
            raise ConfigurationError("refs_per_iteration must be positive")
        if n_iterations <= 0:
            raise ConfigurationError("n_iterations must be positive")
        self.scale = scale
        self.refs_per_iteration = refs_per_iteration
        self.n_iterations = n_iterations
        self.seed = seed
        self._validate_spec()

    # ------------------------------------------------------------------
    def _validate_spec(self) -> None:
        names = [s.name for s in self.structures] + [r.name for r in self.routines]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"{self.info.name}: duplicate spec names")

    @property
    def footprint_bytes(self) -> int:
        return int(self.info.paper_footprint_mb * MiB * self.scale)

    def _struct_bytes(self, s: StructureSpec) -> int:
        b = int(self.footprint_bytes * s.footprint_fraction)
        return max(b - b % 8, 64)

    def _weight_norm(self) -> float:
        sts, sws = self.structure_traffic_scale, self.stack_write_scale
        total = sum(
            (s.reads + s.writes) * sts for s in self.structures if s.phase == "main"
        )
        total += sum(r.reads + r.writes * sws for r in self.routines)
        if total <= 0:
            raise ConfigurationError(f"{self.info.name}: zero total access weight")
        return total

    def _count(self, weight: float, norm: float) -> int:
        return int(round(weight / norm * self.refs_per_iteration))

    def _offsets(self, pattern: str, n: int, count: int, rng, phase: int = 0) -> np.ndarray:
        if count <= 0:
            return np.empty(0, np.int64)
        if pattern == "sequential":
            # sweep the WHOLE array each iteration, the way a solver streams
            # its fields: when the array is larger than the access budget,
            # stride so coverage stays complete (each access a new region);
            # when smaller, wrap densely (a hot, cache-resident buffer).
            # The per-iteration phase keeps successive sweeps from landing
            # on the cached remnants of the previous one — the emitted
            # references are samples of a full-array traversal.
            step = max(1, n // count)
            return (np.arange(count, dtype=np.int64) * step + phase) % n
        if pattern == "strided":
            # line-granular strided sweep (8 doubles = one 64 B line)
            step = max(8, n // count)
            return (np.arange(count, dtype=np.int64) * step + phase) % n
        if pattern == "random":
            return synthetic.random_uniform(n, count, rng)
        if pattern == "gather":
            return synthetic.gather_indices(n, count, clustering=0.6, rng=rng)
        return synthetic.hotspot(n, count, rng=rng)

    def _jitter(self, s: StructureSpec, iteration: int) -> float:
        """Deterministic per-(structure, iteration) rate multiplier."""
        if s.rate_jitter <= 0:
            return 1.0
        h = stable_hash32((self.info.name, s.name, iteration, self.seed))
        u = (h / 0xFFFFFFFF) * 2.0 - 1.0  # [-1, 1]
        return math.exp(u * s.rate_jitter)

    # ------------------------------------------------------------------
    def __call__(self, rt: InstrumentedRuntime) -> None:
        norm = self._weight_norm()
        rng = make_rng(self.seed)
        handles: dict[str, SimArray] = {}

        # -------------------- pre-computing phase (iteration 0)
        rt.begin_iteration(0)
        for s in self.structures:
            nbytes = self._struct_bytes(s)
            n_el = max(1, nbytes // 8)
            if s.segment == "global":
                handles[s.name] = rt.global_array(s.name, n_el, tags=s.tags)
            elif s.segment == "common":
                members = list(s.members) or [("data", 1.0)]
                mem = [(mn, max(1, int(n_el * fr))) for mn, fr in members]
                handles[s.name] = rt.common_block(s.name, mem, tags=s.tags)
            elif not s.short_term:
                handles[s.name] = rt.malloc(
                    n_el, callsite=f"{self.info.name}:{s.name}", tags=s.tags
                )
        # initialization and post-processing traffic falls outside the
        # instrumented window (the paper's §VI protocol): the runtime would
        # drop it unread, so neither phase issues any

        # -------------------- main computation loop
        for it in range(1, self.n_iterations + 1):
            rt.begin_iteration(it)
            self._run_iteration(rt, it, norm, handles, rng)

        # -------------------- post-processing phase
        rt.begin_iteration(0)

    # ------------------------------------------------------------------
    def _run_iteration(
        self,
        rt: InstrumentedRuntime,
        it: int,
        norm: float,
        handles: dict[str, SimArray],
        rng,
    ) -> None:
        # short-term heap objects live within the iteration
        short_lived: list[SimArray] = []
        for s in self.structures:
            if s.segment == "heap" and s.short_term:
                nbytes = self._struct_bytes(s)
                arr = rt.malloc(
                    max(1, nbytes // 8), callsite=f"{self.info.name}:{s.name}", tags=s.tags
                )
                handles[s.name] = arr
                short_lived.append(arr)

        # global / heap structure traffic
        for s in self.structures:
            if s.phase != "main":
                continue
            if s.active_iterations is not None and it not in s.active_iterations:
                continue
            arr = handles[s.name]
            jit = self._jitter(s, it) * self.structure_traffic_scale
            n_r = self._count(s.reads * jit, norm)
            n_w = self._count(s.writes * jit, norm)
            phase = stable_hash32((self.info.name, s.name, "phase", it)) % max(
                arr.n_elements, 1
            )
            if n_w:
                rt.store(arr, self._offsets(s.pattern, arr.n_elements, n_w, rng, phase))
            if n_r:
                rt.load(arr, self._offsets(s.pattern, arr.n_elements, n_r, rng, phase))

        # routine stack traffic
        for r in self.routines:
            rs, ws = (r.first_iteration_scale if it == 1 else (1.0, 1.0))
            n_r = self._count(r.reads * rs, norm)
            n_w = self._count(r.writes * ws * self.stack_write_scale, norm)
            if n_r == 0 and n_w == 0:
                continue
            frame_bytes = int(r.local_kb * 1024) + 128
            with rt.call(r.name, frame_bytes=frame_bytes):
                n_el = max(1, int(r.local_kb * 1024) // 8)
                loc = rt.local_array("locals", n_el)
                if n_w:
                    rt.store(loc, synthetic.sequential(n_el, n_w))
                if n_r:
                    rt.load(loc, synthetic.sequential(n_el, n_r))

        # non-memory work proportional to the iteration's reference budget
        rt.compute(int(self.instructions_per_ref * self.refs_per_iteration))

        for arr in short_lived:
            rt.free(arr)
