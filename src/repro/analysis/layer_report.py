"""Per-layer latency attribution from a simulated trace.

Answers the profiling question behind Figure 12 and Table 4: *where does
the time go, layer by layer?*  For each layer the report aggregates, over
all cores, its compute time, its DMA time, the synchronization exposure
it caused (barriers emitted on its behalf plus halo stalls), and its
span (first command start to last command end).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.compiler.program import CommandKind
from repro.hw.config import NPUConfig
from repro.sim.trace import Trace

_DMA = (
    CommandKind.LOAD_INPUT,
    CommandKind.LOAD_WEIGHT,
    CommandKind.STORE_OUTPUT,
    CommandKind.HALO_SEND,
    CommandKind.HALO_RECV,
)


@dataclasses.dataclass
class LayerProfile:
    """Aggregated timing of one layer across all cores (cycles)."""

    layer: str
    span_start: float
    span_end: float
    compute_cycles: float = 0.0
    dma_cycles: float = 0.0
    sync_cycles: float = 0.0
    transfer_bytes: int = 0
    macs: int = 0

    @property
    def span_cycles(self) -> float:
        return self.span_end - self.span_start


_FIELDS = ("layer", "kind", "start", "end", "own_ready", "num_bytes", "macs")


def profile_layers(trace: Trace) -> Dict[str, LayerProfile]:
    """Build per-layer profiles from a trace."""
    profiles: Dict[str, LayerProfile] = {}
    for layer, kind, start, end, own_ready, num_bytes, macs in zip(
        *map(trace.column, _FIELDS)
    ):
        name = layer or "(untagged)"
        p = profiles.get(name)
        if p is None:
            p = LayerProfile(layer=name, span_start=start, span_end=end)
            profiles[name] = p
        p.span_start = min(p.span_start, start)
        p.span_end = max(p.span_end, end)
        if kind is CommandKind.COMPUTE:
            p.compute_cycles += end - start
            p.macs += macs
        elif kind in _DMA:
            p.dma_cycles += end - start
            p.transfer_bytes += num_bytes
        if kind is CommandKind.BARRIER:
            p.sync_cycles += (end - start) + max(0.0, start - own_ready)
        elif kind is CommandKind.HALO_RECV:
            p.sync_cycles += max(0.0, start - own_ready)

    return profiles


def top_layers(
    trace: Trace,
    npu: NPUConfig,
    n: int = 10,
    by: str = "span",
) -> List[LayerProfile]:
    """The ``n`` most expensive layers, ordered by the chosen metric."""
    if n < 1:
        raise ValueError(f"need at least one layer, got n={n}")
    keys = {
        "span": lambda p: p.span_cycles,
        "compute": lambda p: p.compute_cycles,
        "dma": lambda p: p.dma_cycles,
        "sync": lambda p: p.sync_cycles,
    }
    if by not in keys:
        raise ValueError(f"unknown metric {by!r}; use one of {sorted(keys)}")
    profiles = profile_layers(trace)
    return sorted(profiles.values(), key=keys[by], reverse=True)[:n]


def render_layer_report(
    trace: Trace, npu: NPUConfig, n: int = 10, by: str = "span"
) -> str:
    """ASCII table of the hottest layers."""
    from repro.analysis.tables import format_table

    rows = []
    for p in top_layers(trace, npu, n=n, by=by):
        rows.append(
            [
                p.layer,
                f"{npu.cycles_to_us(p.span_cycles):8.1f}us",
                f"{npu.cycles_to_us(p.compute_cycles):8.1f}us",
                f"{npu.cycles_to_us(p.dma_cycles):8.1f}us",
                f"{npu.cycles_to_us(p.sync_cycles):7.1f}us",
                f"{p.transfer_bytes / 1024:9.0f}KB",
                f"{p.macs / 1e6:8.1f}M",
            ]
        )
    return format_table(
        ["Layer", "Span", "Compute", "DMA", "Sync", "Transfer", "MACs"],
        rows,
        title=f"Hottest layers by {by}",
    )
