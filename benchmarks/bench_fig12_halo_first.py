"""Figure 12: pipelining profile of the first two convolution layers of
InceptionV3 -- (a) halo-exchange without the halo-first policy exposes an
idle wait for the halo transfer, (b) halo-first hides it, (c) halo-first
plus feature-map forwarding removes the input loads entirely so only the
halo data moves through global memory.

The regenerated artifact is the textual Gantt chart of the two layers per
variant plus the exposed-wait accounting.
"""

from __future__ import annotations

import pytest

from repro.analysis import exposed_waits, render_gantt
from repro.compiler import CommandKind, CompileOptions, compile_model
from repro.models import inception_v3_stem
from repro.sim import simulate

from benchmarks.conftest import emit

LAYERS = ("stem_conv0", "stem_conv1")

VARIANTS = [
    (
        "a_no_halo_first",
        CompileOptions(halo_exchange=True, halo_first=False),
    ),
    (
        "b_halo_first",
        CompileOptions(halo_exchange=True, halo_first=True),
    ),
    (
        "c_halo_first_and_forwarding",
        CompileOptions(
            halo_exchange=True, halo_first=True, feature_map_forwarding=True
        ),
    ),
]

_runs = {}


def _window(trace):
    """(two-layer span, exposed halo wait, stem_conv1 input-load bytes)."""
    positions = [p for layer in LAYERS for p in trace.positions("layer", layer)]
    starts, ends, kinds, num_bytes = map(trace.column, ("start", "end", "kind", "num_bytes"))
    span = max(ends[p] for p in positions) - min(starts[p] for p in positions)
    halo_wait = exposed_waits(trace, LAYERS).get(CommandKind.HALO_RECV, 0.0)
    loads = sum(
        num_bytes[p]
        for p in trace.positions("layer", "stem_conv1")
        if kinds[p] is CommandKind.LOAD_INPUT
    )
    return span, halo_wait, loads


def _run(npu, name):
    if name not in _runs:
        opts = dict(VARIANTS)[name]
        compiled = compile_model(inception_v3_stem(), npu, opts)
        sim = simulate(compiled.program, npu)
        _runs[name] = (compiled, sim)
    return _runs[name]


@pytest.mark.parametrize("variant", [name for name, _ in VARIANTS])
def test_fig12_variant(benchmark, npu, variant):
    compiled, sim = benchmark.pedantic(
        lambda: _run(npu, variant), rounds=1, iterations=1
    )
    span, halo_wait, _ = _window(sim.trace)
    benchmark.extra_info["two_layer_span_cycles"] = round(span)
    benchmark.extra_info["exposed_halo_wait_cycles"] = round(halo_wait)


def test_fig12_report(benchmark, npu, out_dir):
    # uses the benchmark fixture so the report also runs (and is timed)
    # under --benchmark-only.
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sections = []
    spans = {}
    halo_stalls = {}
    input_loads = {}
    for name, _ in VARIANTS:
        compiled, sim = _run(npu, name)
        spans[name], halo_stalls[name], input_loads[name] = _window(sim.trace)
        gantt = render_gantt(sim.trace, npu.num_cores, width=96, layers=LAYERS)
        waits = exposed_waits(sim.trace, LAYERS)
        wait_text = ", ".join(
            f"{k.value}: {v:,.0f}cy" for k, v in sorted(waits.items(), key=str)
        )
        sections.append(
            f"--- variant {name} "
            f"(two-layer span {spans[name]:,.0f} cycles; "
            f"exposed waits {wait_text or 'none'})\n{gantt}"
        )
    text = "Figure 12: halo-first pipelining profile, first two convs of InceptionV3\n\n"
    text += "\n\n".join(sections)
    emit(out_dir, "fig12_halo_first.txt", text)

    # (b) halo-first must not be slower than (a), and it must shrink the
    # exposed halo stall; (c) eliminates conv1's input loads entirely.
    assert spans["b_halo_first"] <= spans["a_no_halo_first"] * 1.02
    assert (
        halo_stalls["b_halo_first"] <= halo_stalls["a_no_halo_first"]
    )
    assert input_loads["c_halo_first_and_forwarding"] == 0
    assert input_loads["a_no_halo_first"] > 0
