"""The data-driven application engine itself (repro.apps.base)."""

import tracemalloc

import numpy as np
import pytest

from repro.apps.base import AppInfo, ModelApp, RoutineSpec, StructureSpec
from repro.engine.engine import PipelineEngine
from repro.engine.spec import RunSpec
from repro.scavenger import NVScavenger
from repro.util.units import MiB


class TinyApp(ModelApp):
    """A minimal spec exercising every engine feature."""

    info = AppInfo("tiny", "unit-test input", "engine test", 16.0)
    structures = (
        StructureSpec("ro", "global", 0.10, reads=0.10, writes=0.0,
                      tags=frozenset({"read_only"})),
        StructureSpec("field", "global", 0.30, reads=0.20, writes=0.10,
                      pattern="sequential"),
        StructureSpec("blk", "common", 0.10, reads=0.05, writes=0.01,
                      members=(("a", 0.5), ("b", 0.5))),
        StructureSpec("hp", "heap", 0.20, reads=0.08, writes=0.04,
                      pattern="random"),
        StructureSpec("tmp", "heap", 0.05, reads=0.02, writes=0.02,
                      short_term=True),
        StructureSpec("pre_only", "global", 0.10, reads=0.01, writes=0.01,
                      phase="pre"),
        StructureSpec("post_only", "heap", 0.05, reads=0.01, writes=0.01,
                      phase="post"),
        StructureSpec("sparse", "global", 0.10, reads=0.04, writes=0.0,
                      active_iterations=(2, 4)),
    )
    routines = (
        RoutineSpec("kern_a", local_kb=4, reads=0.20, writes=0.05),
        RoutineSpec("kern_b", local_kb=2, reads=0.06, writes=0.01,
                    first_iteration_scale=(1.0, 3.0)),
    )


def analyze(refs=5000, iters=5, seed=0, cls=TinyApp):
    app = cls(scale=1.0 / 4.0, refs_per_iteration=refs, n_iterations=iters, seed=seed)
    return NVScavenger().analyze(app, n_main_iterations=iters), app


class TestEngine:
    def test_reference_budget_respected(self):
        res, app = analyze(refs=5000, iters=5)
        per_iter = res.total_refs / 5
        # rounding and first-iteration scaling perturb mildly
        assert per_iter == pytest.approx(5000, rel=0.08)

    def test_pre_post_structures_never_referenced_in_loop(self):
        res, _ = analyze()
        pre = res.metrics_by_name("pre_only")
        assert pre.refs == 0
        assert pre.iterations_touched == 0
        post = next(m for m in res.object_metrics if "post_only" in m.name)
        assert post.refs == 0

    def test_sparse_structure_touched_only_when_active(self):
        res, _ = analyze()
        sparse = res.metrics_by_name("sparse")
        assert sparse.iterations_touched == 2
        assert np.all(sparse.reads_per_iter[[1, 3, 5]] == 0)
        assert sparse.reads_per_iter[2] > 0 and sparse.reads_per_iter[4] > 0

    def test_read_only_structure_stays_read_only(self):
        res, _ = analyze()
        assert res.metrics_by_name("ro").read_only

    def test_common_block_merged(self):
        res, _ = analyze()
        blk = next(m for m in res.object_metrics if "blk" in m.name)
        assert "%a" in blk.name and "%b" in blk.name

    def test_short_term_heap_excluded_from_usage(self):
        res, _ = analyze()
        usage_names = set()
        # usage excludes short-term heap; total bytes must be less than the
        # sum over all objects
        all_bytes = sum(m.size for m in res.object_metrics)
        assert res.usage.total_bytes < all_bytes

    def test_first_iteration_write_scale(self):
        res, _ = analyze(refs=20_000)
        s = res.stack_summary
        # kern_b triples its writes in iteration 1: the aggregate stack
        # ratio is lower there
        assert s.rw_ratio(iteration=1) < s.rw_ratio(iteration=2)

    def test_jitter_zero_means_identical_iterations(self):
        res, _ = analyze()
        field = res.metrics_by_name("field")
        main = field.reads_per_iter[1:]
        assert np.all(main == main[0])

    def test_footprint_scales(self):
        _, app4 = analyze()
        app2 = TinyApp(scale=1.0 / 2.0, refs_per_iteration=1000, n_iterations=2)
        assert app2.footprint_bytes == 2 * app4.footprint_bytes

    def test_seed_changes_random_patterns_not_counts(self):
        res_a, _ = analyze(seed=1)
        res_b, _ = analyze(seed=2)
        assert res_a.total_refs == res_b.total_refs
        hp_a = next(m for m in res_a.object_metrics if "hp" in m.name)
        hp_b = next(m for m in res_b.object_metrics if "hp" in m.name)
        assert hp_a.reads == hp_b.reads  # weights drive counts

    def test_recording_memory_does_not_grow_with_footprint(self, tmp_path):
        """Only main-loop references are recorded, so a recording holds
        memory for the references it keeps, not for its structures:
        gtc at scale 1/4 has a 48.5 MiB footprint and records about
        4,000 references. Offsets built for unrecorded initialization or
        post-processing sweeps would cost memory in proportion to the
        footprint."""
        engine = PipelineEngine(root=tmp_path)
        spec = RunSpec("gtc", refs_per_iteration=2000, scale=1 / 4,
                       n_iterations=2)
        tracemalloc.start()
        try:
            art = engine.record(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert art.meta["footprint_bytes"] > 40 * MiB
        assert peak < 8 * MiB, f"record peaked at {peak / MiB:.1f} MiB"


class JitterApp(ModelApp):
    info = AppInfo("jittery", "x", "x", 4.0)
    structures = (
        StructureSpec("wobbly", "global", 0.5, reads=0.5, writes=0.1,
                      rate_jitter=0.8),
    )
    routines = (RoutineSpec("k", local_kb=1, reads=0.3, writes=0.1),)


class TestJitter:
    def test_jitter_varies_across_iterations(self):
        res, _ = analyze(cls=JitterApp, refs=8000, iters=6)
        wobbly = res.metrics_by_name("wobbly")
        main = wobbly.reads_per_iter[1:]
        assert len(set(main.tolist())) > 1

    def test_jitter_deterministic_per_seed(self):
        res_a, _ = analyze(cls=JitterApp, seed=3)
        res_b, _ = analyze(cls=JitterApp, seed=3)
        a = res_a.metrics_by_name("wobbly").reads_per_iter
        b = res_b.metrics_by_name("wobbly").reads_per_iter
        assert np.array_equal(a, b)


class TestOffsetPatterns:
    @pytest.mark.parametrize(
        "pattern", ["sequential", "strided", "random", "hotspot", "gather"]
    )
    def test_offsets_in_bounds_and_counted(self, pattern):
        app = TinyApp(scale=0.25, refs_per_iteration=1000, n_iterations=1)
        rng = np.random.default_rng(0)
        out = app._offsets(pattern, 1000, 137, rng, phase=13)
        assert len(out) == 137
        assert out.min() >= 0 and out.max() < 1000

    def test_sequential_covers_large_arrays(self):
        """The full-sweep property: offsets spread over the whole array."""
        app = TinyApp(scale=0.25, refs_per_iteration=1000, n_iterations=1)
        rng = np.random.default_rng(0)
        out = app._offsets("sequential", 100_000, 100, rng)
        assert out.max() > 90_000
