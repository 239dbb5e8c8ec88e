"""Streaming statistics and small histogram/CDF helpers.

The analyzers process the reference stream in batches and must never hold
the full stream; these accumulators summarize batches incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class StreamingStats:
    """Single-pass mean/variance/min/max accumulator (Chan et al. merge).

    Supports scalar updates, batch updates, and merging two accumulators,
    which the analyzers use when combining per-bucket partial results.
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def update(self, x: float) -> None:
        """Fold one observation in."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def update_batch(self, xs: np.ndarray) -> None:
        """Fold a batch of observations in (vectorized)."""
        xs = np.asarray(xs, dtype=np.float64).ravel()
        if xs.size == 0:
            return
        other = StreamingStats(
            count=int(xs.size),
            mean=float(xs.mean()),
            _m2=float(((xs - xs.mean()) ** 2).sum()),
            min=float(xs.min()),
            max=float(xs.max()),
        )
        self.merge(other)

    def merge(self, other: "StreamingStats") -> None:
        """Fold another accumulator into this one."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        n = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / n
        self.mean += delta * other.count / n
        self.count = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def variance(self) -> float:
        """Population variance of the observations seen so far."""
        if self.count == 0:
            return float("nan")
        return self._m2 / self.count


@dataclass
class Histogram:
    """Fixed-bin histogram over ``[lo, hi)`` with overflow/underflow bins."""

    lo: float
    hi: float
    nbins: int
    counts: np.ndarray = field(init=False)
    underflow: int = field(init=False, default=0)
    overflow: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not (self.hi > self.lo):
            raise ValueError(f"empty histogram range [{self.lo}, {self.hi})")
        if self.nbins <= 0:
            raise ValueError(f"nbins must be positive, got {self.nbins}")
        self.counts = np.zeros(self.nbins, dtype=np.int64)

    def add(self, xs: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Accumulate observations (optionally weighted)."""
        xs = np.asarray(xs, dtype=np.float64).ravel()
        if weights is None:
            weights = np.ones_like(xs)
        weights = np.asarray(weights, dtype=np.int64).ravel()
        idx = np.floor((xs - self.lo) / (self.hi - self.lo) * self.nbins).astype(np.int64)
        under = idx < 0
        over = idx >= self.nbins
        self.underflow += int(weights[under].sum())
        self.overflow += int(weights[over].sum())
        ok = ~(under | over)
        np.add.at(self.counts, idx[ok], weights[ok])

    @property
    def total(self) -> int:
        """All observations including under/overflow."""
        return int(self.counts.sum()) + self.underflow + self.overflow

    def bin_edges(self) -> np.ndarray:
        """The ``nbins + 1`` bin edge positions."""
        return np.linspace(self.lo, self.hi, self.nbins + 1)


def weighted_cdf(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted unique values, cumulative weight)``.

    Used for Figure-7-style cumulative distributions ("y MB of objects are
    used in no more than x iterations"): pass iteration counts as *values*
    and object sizes as *weights*.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if values.shape != weights.shape:
        raise ValueError("values and weights must have the same shape")
    if values.size == 0:
        return np.empty(0), np.empty(0)
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    uniq, start = np.unique(values, return_index=True)
    cum = np.cumsum(weights)
    # cumulative weight *through* each unique value = cumsum at the last
    # element of that value's run.
    ends = np.append(start[1:], values.size) - 1
    return uniq, cum[ends]
