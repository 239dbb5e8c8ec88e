#!/usr/bin/env python3
"""Hybrid DRAM+NVRAM placement: static (classification-driven) vs dynamic
(Ramos-style migration).

The paper's point: NV-SCAVENGER's per-object analysis makes *static*
placement viable for these applications because access patterns are stable
across iterations — dynamic migration machinery is mostly unnecessary.
This example places Nek5000's objects statically for a category-1 and a
category-2 NVRAM and prices both, then evaluates the static plan, the
``ramos`` dynamic-migration policy and a never-migrate baseline over the
analysis run's own memory trace, on one cost model.

Run:  python examples/hybrid_placement.py
"""

from repro import create_app
from repro.cachesim import MemoryTraceProbe
from repro.hybrid import HybridEnergyModel, StaticPlacer
from repro.hybrid.pagemap import PageMap
from repro.nvram import PCRAM, STTRAM
from repro.policies import ObjectSpan, PageTrace, create_policy, evaluate_policy
from repro.scavenger import NVScavenger
from repro.util.units import fmt_bytes

#: tolerated writes per NVM page; loose enough that no policy here is
#: constrained by it (none of the three consults it)
ENDURANCE_BUDGET = 1_000_000


def main() -> None:
    app = create_app("nek5000", refs_per_iteration=30_000)
    cache_probe = MemoryTraceProbe(keep_trace=True)
    result = NVScavenger(extra_probes=[cache_probe]).analyze(app, n_main_iterations=10)
    frac_mem = cache_probe.stats().memory_accesses_per_ref

    print(f"{app.info.name}: footprint {fmt_bytes(result.footprint_bytes)}, "
          f"{len(result.object_metrics)} global/heap objects")
    print()

    # ---- static placement per NVRAM category
    for tech in (PCRAM, STTRAM):
        page_map = PageMap()
        plan = StaticPlacer(tech).place(result.classified, page_map=page_map)
        model = HybridEnergyModel(tech)
        window = model.calibrated_window_ns(result.object_metrics, frac_mem)
        hybrid = model.energy(result.object_metrics, plan, window, frac_mem)
        baseline = model.all_dram_baseline(result.object_metrics, window, frac_mem)
        print(f"static placement on {tech.name} (category {tech.category.value}):")
        print(f"  NVRAM-resident: {fmt_bytes(plan.nvram_bytes)} "
              f"({plan.nvram_fraction:.1%} of the working set, "
              f"{len(plan.nvram_oids)} objects)")
        print(f"  energy vs all-DRAM: {hybrid.savings_vs(baseline):+.1%}")
        top = sorted(plan.nvram_oids,
                     key=lambda oid: -next(m.size for m in result.object_metrics
                                           if m.oid == oid))[:4]
        names = [next(m.name for m in result.object_metrics if m.oid == oid)
                 for oid in top]
        print(f"  largest NVRAM residents: {', '.join(names)}")
        print()

    # ---- the same trace through the policy registry: the static plan
    # vs Ramos-style dynamic migration vs never moving anything
    objects = [ObjectSpan(m.oid, m.name, m.base, m.size)
               for m in result.object_metrics]
    trace = PageTrace.build(cache_probe.memory_trace, objects)
    policies = (("static_oracle", {}),
                ("ramos", {"write_hot": 256.0, "read_popular": 1024.0}),
                ("no_migration", {}))
    print(f"placement policies over the run's {trace.refs:,} memory "
          f"references on STT-RAM:")
    cells = {}
    for name, params in policies:
        s = evaluate_policy(create_policy(name, **params), trace, objects,
                            STTRAM, ENDURANCE_BUDGET,
                            classified=result.classified)
        cells[name] = s
        print(f"  {name:14s} NVM writes {s.nvm_write_traffic:7,d}   "
              f"migrations {s.migrations:5,d}   "
              f"energy saved vs all-DRAM {s.energy_savings:+.1%}")
    print()
    static, dynamic = cells["static_oracle"], cells["ramos"]
    if (static.nvm_write_traffic <= dynamic.nvm_write_traffic
            and static.energy_nj <= dynamic.energy_nj):
        print(f"the static plan absorbs fewer NVM writes and less energy than "
              f"Ramos-style migration ({dynamic.migrations:,} page "
              f"migrations) and moves no page: with stable access patterns "
              f"(Figs 8-11) the migration machinery buys nothing.")
    else:
        print(f"dynamic migration ({dynamic.migrations:,} page migrations) "
              f"beats the static plan on this trace: NVM writes "
              f"{dynamic.nvm_write_traffic:,} vs {static.nvm_write_traffic:,}, "
              f"energy saved {dynamic.energy_savings:+.1%} vs "
              f"{static.energy_savings:+.1%}.")


if __name__ == "__main__":
    main()
