"""Profile-guided rebalancing (Section 3.1.3).

The NPU compiler compiles sub-layers independently, so analytical load
balancing can leave cores idle at layer boundaries ("profiling execution
assists to detect unwanted idle times and fix the unbalance").  This
module closes that loop against the simulator:

1. compile and simulate;
2. for each partitioned layer, measure every core's busy time on its
   sub-layer (compute plus its exclusive DMA);
3. where the imbalance exceeds a threshold, derive new per-core rate
   weights ``share / measured_time`` and recompile with them;
4. repeat until converged or the iteration budget runs out, keeping the
   best program seen.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.compiler.compiler import CompiledModel, compile_model
from repro.compiler.options import CompileOptions
from repro.compiler.program import CommandKind
from repro.hw.config import NPUConfig
from repro.ir.graph import Graph
from repro.partition.direction import PartitionDirection
from repro.sim.simulator import SimResult, simulate
from repro.sim.trace import Trace

#: rebalance a layer only when the slowest core takes this much longer
#: than the fastest.
IMBALANCE_THRESHOLD = 1.15

#: ignore layers whose slowest sub-layer is shorter than this (cycles);
#: their imbalance is noise against launch overheads.
MIN_SIGNIFICANT_CYCLES = 500.0


@dataclasses.dataclass
class LayerImbalance:
    """Measured per-core busy time of one partitioned layer."""

    layer: str
    core_cycles: Tuple[float, ...]

    @property
    def ratio(self) -> float:
        active = [c for c in self.core_cycles if c > 0]
        if len(active) < 2:
            return 1.0
        return max(active) / min(active)


@dataclasses.dataclass
class RebalanceReport:
    """Outcome of a profile-guided rebalancing run."""

    iterations_run: int
    initial_latency_us: float
    final_latency_us: float
    adjusted_layers: int
    history: List[float]

    @property
    def improvement(self) -> float:
        if self.final_latency_us <= 0:
            return 1.0
        return self.initial_latency_us / self.final_latency_us


def measure_layer_imbalances(
    compiled: CompiledModel, trace: Trace
) -> Dict[str, LayerImbalance]:
    """Per-layer, per-core busy cycles (compute work of the sub-layer)."""
    cycles: Dict[str, List[float]] = {}
    n = compiled.npu.num_cores
    layers, cores, starts, ends = map(trace.column, ("layer", "core", "start", "end"))
    for p in trace.positions("kind", CommandKind.COMPUTE):
        if not layers[p]:
            continue
        per_core = cycles.setdefault(layers[p], [0.0] * n)
        per_core[cores[p]] += ends[p] - starts[p]
    return {
        name: LayerImbalance(layer=name, core_cycles=tuple(per_core))
        for name, per_core in cycles.items()
    }


def derive_weights(
    compiled: CompiledModel, imbalances: Dict[str, LayerImbalance]
) -> Dict[str, Tuple[float, ...]]:
    """New balance weights for layers whose measured imbalance is large.

    A core's observed processing *rate* is its assigned share divided by
    the time it took; feeding rates back as weights levels the next
    compile's split.
    """
    overrides: Dict[str, Tuple[float, ...]] = {}
    for name, imbalance in imbalances.items():
        part = compiled.partition.partition(name)
        if part.direction is PartitionDirection.NONE:
            continue
        if any(c <= 0 for c in imbalance.core_cycles):
            continue
        if max(imbalance.core_cycles) < MIN_SIGNIFICANT_CYCLES:
            continue
        if imbalance.ratio <= IMBALANCE_THRESHOLD:
            continue
        shares = []
        for sub in part.sub_layers:
            if part.direction is PartitionDirection.SPATIAL:
                shares.append(sub.out_region.rows.length if not sub.is_empty else 0)
            else:
                shares.append(sub.out_region.chans.length if not sub.is_empty else 0)
        if any(s == 0 for s in shares):
            continue
        rates = tuple(
            share / cycles
            for share, cycles in zip(shares, imbalance.core_cycles)
        )
        overrides[name] = rates
    return overrides


def profile_guided_rebalance(
    graph: Graph,
    npu: NPUConfig,
    options: Optional[CompileOptions] = None,
    max_iterations: int = 3,
    seed: int = 0,
) -> Tuple[CompiledModel, SimResult, RebalanceReport]:
    """Iteratively recompile with measured balance weights.

    Returns the best (lowest-latency) compiled model seen, its
    simulation, and a report.  Monotone by construction: a rebalanced
    compile that regresses is discarded.
    """
    options = options or CompileOptions.base()
    compiled = compile_model(graph, npu, options)
    sim = simulate(compiled.program, npu, seed=seed)
    best = (compiled, sim)
    initial_latency = sim.latency_us
    history = [initial_latency]
    adjusted_total = 0
    overrides: Dict[str, Tuple[float, ...]] = {}

    iterations = 0
    for _ in range(max_iterations):
        imbalances = measure_layer_imbalances(best[0], best[1].trace)
        new_overrides = derive_weights(best[0], imbalances)
        if not new_overrides:
            break
        overrides.update(new_overrides)
        iterations += 1
        adjusted_total += len(new_overrides)
        candidate = compile_model(graph, npu, options, weight_overrides=overrides)
        candidate_sim = simulate(candidate.program, npu, seed=seed)
        history.append(candidate_sim.latency_us)
        if candidate_sim.latency_us < best[1].latency_us:
            best = (candidate, candidate_sim)
        else:
            break

    report = RebalanceReport(
        iterations_run=iterations,
        initial_latency_us=initial_latency,
        final_latency_us=best[1].latency_us,
        adjusted_layers=adjusted_total,
        history=history,
    )
    return best[0], best[1], report
