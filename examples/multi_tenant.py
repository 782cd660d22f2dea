#!/usr/bin/env python
"""Concurrent DNNs on one multicore NPU -- the paper's other motivation.

Section 1 motivates multicore NPUs not only by single-inference latency
but by "concurrent execution of multiple DNNs".  This example runs a
camera-style pipeline -- a classifier and a detector live at the same
time -- on the 3-core machine, assigning two cores to the latency-
critical detector and one to the classifier, and quantifies the bus
interference between them.  A second experiment oversubscribes the bus
deliberately to show where isolation breaks down.
"""

from repro.analysis import format_table
from repro.compiler import CompileOptions
from repro.hw import exynos2100_like, homogeneous
from repro.models import get_model
from repro.sim import Tenant, run_concurrent


def report(title, result):
    rows = [
        [
            t.name,
            f"{t.isolated_latency_us:,.1f}us",
            f"{t.latency_us:,.1f}us",
            f"{t.interference:.3f}x",
            len(t.compiled.npu.cores),
        ]
        for t in result.tenants
    ]
    print()
    print(
        format_table(
            ["Tenant", "Alone", "Shared", "Interference", "Cores"],
            rows,
            title=title,
        )
    )
    print(f"makespan: {result.makespan_us:,.1f}us")


def main():
    npu = exynos2100_like()
    result = run_concurrent(
        npu,
        [
            Tenant(
                "detector",
                get_model("MobileNetV2-SSD"),
                cores=(0, 1),
                options=CompileOptions.stratum_config(),
            ),
            Tenant(
                "classifier",
                get_model("MobileNetV2"),
                cores=(2,),
                options=CompileOptions.single_core(),
            ),
        ],
    )
    report(
        "Camera pipeline on exynos2100-like (links undersubscribe the bus)",
        result,
    )

    # Oversubscribed variant: four fat-linked cores against a narrow bus.
    fat = homogeneous(
        4, dma_bytes_per_cycle=20.0, bus_bytes_per_cycle=40.0,
        macs_per_cycle=4096, spm_bytes=2 << 20,
    )
    result = run_concurrent(
        fat,
        [
            Tenant(
                "net-a",
                get_model("MobileNetV2"),
                cores=(0, 1),
                options=CompileOptions.stratum_config(),
            ),
            Tenant(
                "net-b",
                get_model("MobileNetV2"),
                cores=(2, 3),
                options=CompileOptions.stratum_config(),
            ),
        ],
    )
    report(
        "Two copies of MobileNetV2 on 4 cores, 80 B/cy of demand vs a "
        "40 B/cy bus",
        result,
    )


if __name__ == "__main__":
    main()
