#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation in one run.

This is the headline script of the reproduction: Figure 11 (performance
across six CNNs and four configurations), Table 4 (partitioning-scheme
profile of InceptionV3), Table 5 (Halo vs Stratum on the stem), and the
Figure 12 halo-first accounting.  Takes ~15 s.
"""

import statistics

from repro.analysis import (
    exposed_waits,
    format_table,
    region_summary,
    run_configuration,
    sweep_configurations,
    table4_profiles,
)
from repro.compiler import CommandKind, CompileOptions, compile_model
from repro.hw import exynos2100_like
from repro.models import ZOO, get_model, inception_v3_stem
from repro.partition import PartitionPolicy
from repro.sim import simulate


def figure11(npu):
    labels = ["1-core", "Base", "+Halo", "+Stratum"]
    rows = []
    ratios = {"base": [], "halo": [], "stratum": [], "total": []}
    for info in ZOO:
        sweep = sweep_configurations(info.factory(), npu)
        lat = {l: sweep[l].latency_us for l in labels}
        ratios["base"].append(lat["1-core"] / lat["Base"])
        ratios["halo"].append(lat["Base"] / lat["+Halo"])
        ratios["stratum"].append(lat["Base"] / lat["+Stratum"])
        ratios["total"].append(lat["1-core"] / lat["+Stratum"])
        rows.append(
            [info.name] + [f"{lat[l]:,.0f}" for l in labels]
            + [f"{lat['1-core'] / lat['+Stratum']:.2f}x"]
        )
    print(
        format_table(
            ["Model"] + [f"{l} (us)" for l in labels] + ["speedup"],
            rows,
            title="Figure 11: latency per configuration",
        )
    )
    g = statistics.geometric_mean
    print(
        f"\ngeomean: Base/1c {g(ratios['base']):.2f}x (paper ~1.71) | "
        f"+Halo/Base {g(ratios['halo']):.3f}x (paper ~1.07) | "
        f"+Stratum/Base {g(ratios['stratum']):.3f}x (paper ~1.23) | "
        f"total {g(ratios['total']):.2f}x (paper ~2.1)"
    )


def table4(npu):
    profiles = table4_profiles(get_model("InceptionV3"), npu)
    rows = []
    for policy in (
        PartitionPolicy.SPATIAL_ONLY,
        PartitionPolicy.CHANNEL_ONLY,
        PartitionPolicy.ADAPTIVE,
    ):
        p = profiles[policy]
        rows.append(
            [
                p.policy.value,
                f"{p.total_transfer_kb:,.0f}KB",
                f"{p.transfer_mean_kb:,.0f} +- {p.transfer_std_kb:,.0f}",
                f"{p.idle_mean_us:,.0f} +- {p.idle_std_us:,.0f} us",
                f"{p.latency_us:,.0f}us",
            ]
        )
    print()
    print(
        format_table(
            ["Scheme", "Total transfer", "Per-core KB (mu +- sd)", "Idle (mu +- sd)", "Latency"],
            rows,
            title="Table 4: InceptionV3 partitioning-scheme profile",
        )
    )


def table5(npu):
    stem = inception_v3_stem()
    rows = []
    for label, opts in (
        ("+Halo", CompileOptions.halo()),
        ("+Stratum", CompileOptions.stratum_only()),
        ("Combined", CompileOptions.stratum_config()),
    ):
        s = region_summary(run_configuration(stem, npu, opts))
        rows.append(
            [
                label,
                f"{s.latency_us:,.1f}us",
                f"{s.compute_gmacs:.2f}G",
                f"mu:{s.sync_mean_us:.1f} sd:{s.sync_std_us:.1f} us",
            ]
        )
    print()
    print(
        format_table(
            ["Configuration", "Latency", "Computation", "Sync overhead"],
            rows,
            title="Table 5: Halo vs Stratum (InceptionV3 stem)",
        )
    )


def figure12(npu):
    stem = inception_v3_stem()
    layers = ("stem_conv0", "stem_conv1")
    rows = []
    for label, opts in (
        ("(a) halo, no halo-first", CompileOptions(halo_exchange=True)),
        ("(b) + halo-first", CompileOptions(halo_exchange=True, halo_first=True)),
        (
            "(c) + feature-map fwd",
            CompileOptions(
                halo_exchange=True, halo_first=True, feature_map_forwarding=True
            ),
        ),
    ):
        compiled = compile_model(stem, npu, opts)
        trace = simulate(compiled.program, npu).trace
        positions = [p for layer in layers for p in trace.positions("layer", layer)]
        starts, ends, kinds, num_bytes = map(
            trace.column, ("start", "end", "kind", "num_bytes")
        )
        span = max(ends[p] for p in positions) - min(starts[p] for p in positions)
        stall = exposed_waits(trace, layers).get(CommandKind.HALO_RECV, 0.0)
        loads = sum(
            num_bytes[p]
            for p in trace.positions("layer", layers[1])
            if kinds[p] is CommandKind.LOAD_INPUT
        )
        rows.append(
            [label, f"{span:,.0f}cy", f"{stall:,.0f}cy", f"{loads:,}B"]
        )
    print()
    print(
        format_table(
            ["Variant", "Two-layer span", "Exposed halo wait", "conv1 input loads"],
            rows,
            title="Figure 12: halo-first policy on the first two convolutions",
        )
    )


if __name__ == "__main__":
    npu = exynos2100_like()
    figure11(npu)
    table4(npu)
    table5(npu)
    figure12(npu)
