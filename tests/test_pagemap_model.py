"""PageMap under mixed updates, checked against a plain-dict model.

Random sequences of ``assign_range`` and ``migrate_page`` — with pages
at the top of the 64-bit address space, migrations of pages that were
never mapped, zero-size ranges and ``np.uint64`` page numbers — and,
after every step, ``pool_of_batch`` must agree with the scalar
``pool_of`` and with a ``{page: pool}`` dict, as must ``mapped_pages``
and ``bytes_in_pool``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hybrid.pagemap import MemoryPool, PageMap

PAGE = 4096
#: the last page of the 64-bit address space
TOP_PAGE = (1 << 64) // PAGE - 1

#: a low window and the last pages of the address space
pages = st.one_of(st.integers(0, 40), st.integers(TOP_PAGE - 40, TOP_PAGE))
pools = st.sampled_from(list(MemoryPool))
assign = st.tuples(st.just("assign"), pages, st.integers(0, PAGE - 1),
                   st.integers(0, 4 * PAGE), pools)
migrate = st.tuples(st.just("migrate"), pages, pools, st.booleans())


def step(pm: PageMap, model: dict, op: tuple) -> bool:
    """Apply *op* to the map and the model, checking what it returns;
    True when it was a migration that changed a page's pool."""
    if op[0] == "assign":
        _, page, offset, size, pool = op
        base = page * PAGE + offset
        size = min(size, (1 << 64) - base)  # stay inside the address space
        covered = (range(base // PAGE, (base + size - 1) // PAGE + 1)
                   if size > 0 else range(0))
        assert pm.assign_range(base, size, pool) == len(covered)
        for p in covered:
            model[p] = pool
        return False
    _, page, pool, as_uint64 = op
    changed = model.get(page, MemoryPool.DRAM) is not pool
    key = np.uint64(page) if as_uint64 else page
    assert pm.migrate_page(key, pool) == changed
    if changed:
        model[page] = pool
    return changed


def check(pm: PageMap, model: dict) -> None:
    probe = sorted({0, TOP_PAGE} | {q for p in model for q in (p - 1, p, p + 1)
                                     if 0 <= q <= TOP_PAGE})
    addrs = np.array([p * PAGE + p % PAGE for p in probe], dtype=np.uint64)
    expected = [int(model.get(p, MemoryPool.DRAM)) for p in probe]
    assert pm.pool_of_batch(addrs).tolist() == expected
    assert [int(pm.pool_of(int(a))) for a in addrs] == expected
    assert [int(pm.pool_of_page(np.uint64(p))) for p in probe] == expected
    assert pm.mapped_pages == len(model)
    for pool in MemoryPool:
        n = sum(1 for v in model.values() if v is pool)
        assert pm.bytes_in_pool(pool) == n * PAGE


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.one_of(assign, migrate), max_size=25))
def test_mixed_updates_match_dict_model(ops):
    pm, model = PageMap(PAGE), {}
    check(pm, model)
    migrations = 0
    for op in ops:
        migrations += step(pm, model, op)
        check(pm, model)
    assert pm.migrations == migrations
