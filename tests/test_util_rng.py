"""Deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.util.rng import make_rng, spawn_rngs, stable_hash32


def test_make_rng_from_int_deterministic():
    a = make_rng(42).integers(0, 1_000_000, 10)
    b = make_rng(42).integers(0, 1_000_000, 10)
    assert np.array_equal(a, b)


def test_make_rng_passthrough():
    g = np.random.default_rng(0)
    assert make_rng(g) is g


def test_spawn_rngs_independent_and_deterministic():
    rngs1 = spawn_rngs(7, 4)
    rngs2 = spawn_rngs(7, 4)
    draws1 = [g.integers(0, 1 << 30) for g in rngs1]
    draws2 = [g.integers(0, 1 << 30) for g in rngs2]
    assert draws1 == draws2
    assert len(set(draws1)) == 4  # children differ from each other


def test_spawn_rngs_negative_raises():
    with pytest.raises(ValueError):
        spawn_rngs(0, -1)


def test_spawn_rngs_zero():
    assert spawn_rngs(0, 0) == []


def test_stable_hash32_process_stable_values():
    # pinned values guard against accidental algorithm changes, which would
    # silently reshuffle every app's jitter/phase patterns
    assert stable_hash32(("nek5000", "velocity_fields", 3)) == 1297065780
    assert stable_hash32(("a",)) == 1942853894
    assert stable_hash32((1, 2)) == 3318749324
    assert stable_hash32(()) == 1939669891
    assert stable_hash32(("a",)) != stable_hash32(("b",))


def test_stable_hash32_order_sensitive():
    assert stable_hash32((1, 2)) != stable_hash32((2, 1))
