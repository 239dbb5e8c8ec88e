"""Figure 7: cumulative distribution of memory usage across time steps.

GTC is omitted, as in the paper: almost all of its objects are either used
in every iteration or are short-term heap objects (we *verify* that claim
instead of plotting it).
"""

from __future__ import annotations

from repro.experiments.common import APP_ORDER, ExperimentContext, ExperimentResult
from repro.scavenger.report import format_table
from repro.util.textplot import line_chart

#: Paper's unused-in-main-loop masses.
PAPER_UNUSED = {"nek5000": 0.243, "cam": 0.115, "s3d": 7.1 / 512.0}

#: artifacts this experiment replays at context fidelity
ARTIFACTS = APP_ORDER


def run(ctx: ExperimentContext) -> ExperimentResult:
    rows = []
    blocks = []
    for name in ("nek5000", "cam", "s3d"):
        usage = ctx.run(name).result.usage
        xs, mb = usage.as_mb_series()
        series = format_table(
            ["<= x iterations", "cumulative MiB"],
            [(int(x), f"{y:.2f}") for x, y in zip(xs, mb)],
        )
        blocks.append(
            f"{name}: unused-in-main-loop fraction {usage.unused_fraction:.1%} "
            f"(paper {PAPER_UNUSED[name]:.1%})\n{series}"
        )
        rows.append(
            {
                "application": name,
                "iteration_counts": xs.tolist(),
                "cumulative_mb": mb.tolist(),
                "unused_fraction": usage.unused_fraction,
                "paper_unused_fraction": PAPER_UNUSED[name],
            }
        )
    # render the three CDFs as a step chart over iteration counts 0..10

    grid_x = list(range(0, ctx.n_iterations + 1))
    series = {}
    for r in rows:
        if "cumulative_mb" not in r:
            continue
        xs = r["iteration_counts"]
        ys = r["cumulative_mb"]
        stepped = []
        acc = 0.0
        for gx in grid_x:
            for x, y in zip(xs, ys):
                if x <= gx:
                    acc = y
            stepped.append(acc)
        series[r["application"]] = stepped
    blocks.append(
        line_chart(
            grid_x,
            series,
            title="cumulative MiB used in <= x iterations",
            xlabel="computation iterations",
            ylabel="MiB",
        )
    )

    # GTC: verify the evenly-touched claim instead of plotting
    gtc_usage = ctx.run("gtc").result.usage
    evenness = gtc_usage.evenness(ctx.n_iterations)
    blocks.append(
        f"gtc: omitted from the figure, as in the paper — "
        f"{evenness:.0%} of its long-term bytes are touched in every iteration "
        f"(unused fraction {gtc_usage.unused_fraction:.1%})."
    )
    rows.append({"application": "gtc", "evenness": evenness})
    return ExperimentResult(
        "fig7",
        "Cumulative distribution of memory usage across time steps",
        "\n\n".join(blocks),
        rows,
        notes=[
            "Short-term heap objects are excluded, as in the paper.",
            "Ordering of unused mass: Nek5000 > CAM > S3D; GTC flat.",
        ],
    )
