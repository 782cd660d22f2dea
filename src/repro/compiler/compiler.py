"""The user-facing compiler entry point.

``compile_model(graph, npu, options)`` runs the full pipeline of the
paper: adaptive partitioning (h1-h5) -> layer scheduling (Algorithm 1) ->
stratum construction (Algorithm 2, when enabled) -> forwarding/halo
planning -> tiling and lowering to per-core command streams.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, cast

from repro.hw.config import NPUConfig
from repro.ir.graph import Graph
from repro.ir.tensor import Region
from repro.compiler.allocator import ForwardingPlan, InputMode, plan_forwarding
from repro.compiler.lowering import exec_regions_for, lower
from repro.compiler.options import CompileOptions, ScheduleStrategy
from repro.compiler.program import CommandKind, Program
from repro.ir.traversal import breadth_first_order, depth_first_order
from repro.partition.partitioner import GraphPartition, partition_graph
from repro.schedule.layer_order import schedule_layers
from repro.schedule.stratum import StratumPlan, build_strata


@dataclasses.dataclass
class CompiledModel:
    """Everything the compiler decided, plus the executable program."""

    graph: Graph
    npu: NPUConfig
    options: CompileOptions
    partition: GraphPartition
    schedule: List[str]
    strata: StratumPlan
    forwarding: ForwardingPlan
    exec_regions: Dict[str, Tuple[Region, ...]]
    program: Program

    # ------------------------------------------------------------- summaries

    @property
    def num_barriers(self) -> int:
        """Number of synchronization points in the program
        (:func:`repro.sim.stats.program_barrier_groups`)."""
        # repro.sim imports this module: import it at call time.
        from repro.sim.stats import program_barrier_groups

        return program_barrier_groups(self.program)

    @property
    def num_halo_exchanges(self) -> int:
        return self.program.count(CommandKind.HALO_RECV)

    @property
    def total_macs(self) -> int:
        """Scheduled MACs including stratum redundancy."""
        return self.program.total_macs()

    @property
    def redundant_macs(self) -> int:
        return self.total_macs - self.graph.total_macs()

    def num_forwarded_edges(self) -> int:
        return sum(
            1
            for d in self.forwarding.decisions.values()
            if d.mode is not InputMode.GLOBAL
        )

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"model {self.graph.name!r} on {self.npu.name} "
            f"({self.npu.num_cores} cores), config {self.options.label}",
            f"  layers: {len(self.graph)}, commands: {len(self.program)}",
            f"  partition directions: "
            + ", ".join(
                f"{d.value}={n}"
                for d, n in sorted(
                    self.partition.directions_summary().items(),
                    key=lambda kv: kv[0].value,
                )
            ),
            f"  barriers: {self.num_barriers}, halo exchanges: {self.num_halo_exchanges}, "
            f"forwarded edges: {self.num_forwarded_edges()}",
            f"  strata: {len(self.strata.strata)} "
            f"(syncs eliminated: {self.strata.num_eliminated_syncs})",
            f"  MACs: {self.total_macs:,} "
            f"(+{self.redundant_macs:,} redundant)",
        ]
        return "\n".join(lines)


def compile_model(
    graph: Graph,
    npu: NPUConfig,
    options: Optional[CompileOptions] = None,
    weight_overrides: Optional[Dict[str, Tuple[float, ...]]] = None,
) -> CompiledModel:
    """Compile ``graph`` for ``npu`` under ``options`` (Base by default).

    ``weight_overrides`` feeds measured per-core rates back into the
    balancer (profile-guided rebalancing; see
    :func:`repro.compiler.feedback.profile_guided_rebalance`).

    The compile runs inside ``graph.decision_scope()``.  Outside any
    caller's scope it starts and ends cold: every receptive field it
    memoizes and the partition it keeps are forgotten when it returns
    or raises.  Inside a caller's scope, compiles of the graph share
    receptive fields, and those that partition alike (same machine,
    policy, heuristics and direction pins, no ``weight_overrides``)
    share one read-only :class:`GraphPartition`.
    """
    options = options or CompileOptions.base()
    graph.validate()
    with graph.decision_scope():
        return _compile(graph, npu, options, weight_overrides)


def _partition(
    graph: Graph,
    npu: NPUConfig,
    options: CompileOptions,
    weight_overrides: Optional[Dict[str, Tuple[float, ...]]],
) -> GraphPartition:
    """The graph's partition, kept in its decision scope unless
    ``weight_overrides`` rebalances it.

    The key is everything :func:`partition_graph` reads besides the
    graph and the weights.
    """
    key = (
        npu,
        options.partition_policy,
        options.enabled_heuristics,
        options.direction_overrides,
    )
    kept = None if weight_overrides else graph.decision_memo.get(key)
    if kept is not None:
        return cast(GraphPartition, kept)
    partition = partition_graph(
        graph,
        npu,
        options.partition_policy,
        options.enabled_heuristics,
        weight_overrides=weight_overrides,
        direction_overrides=options.direction_override_map() or None,
    )
    if not weight_overrides:
        graph.decision_memo[key] = partition
    return partition


def _compile(
    graph: Graph,
    npu: NPUConfig,
    options: CompileOptions,
    weight_overrides: Optional[Dict[str, Tuple[float, ...]]],
) -> CompiledModel:
    """The pipeline of :func:`compile_model`, run inside its decision scope."""
    partition = _partition(graph, npu, options, weight_overrides)
    if options.schedule_strategy is ScheduleStrategy.DEPTH_FIRST:
        schedule = depth_first_order(graph)
    elif options.schedule_strategy is ScheduleStrategy.BREADTH_FIRST:
        schedule = breadth_first_order(graph)
    else:
        schedule = schedule_layers(graph, partition)

    if options.stratum and npu.num_cores > 1:
        strata = build_strata(
            graph,
            partition,
            schedule,
            npu,
            include_roundtrip_gain=options.stratum_roundtrip_gain,
            blocked=options.stratum_block_set() or None,
        )
    else:
        strata = StratumPlan(strata=(), membership={})

    exec_regions = exec_regions_for(graph, partition, strata)
    forwarding = plan_forwarding(
        graph, npu, options, partition, schedule, strata, exec_regions
    )
    program = lower(
        graph, npu, options, partition, schedule, strata, forwarding, exec_regions
    )
    compiled = CompiledModel(
        graph=graph,
        npu=npu,
        options=options,
        partition=partition,
        schedule=schedule,
        strata=strata,
        forwarding=forwarding,
        exec_regions=exec_regions,
        program=program,
    )
    if options.verify:
        # Imported lazily: repro.verify depends on this module.
        from repro.verify import VerificationError, verify_model

        report = verify_model(compiled)
        if not report.ok:
            raise VerificationError(report)
    return compiled
