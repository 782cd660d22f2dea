"""Whole-graph partitioning: direction choice + balancing + slicing.

The result, a :class:`GraphPartition`, is the compiler's source of truth
for "which core owns which piece of which tensor".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Optional, Tuple

from repro.hw.config import NPUConfig
from repro.ir.graph import Graph, Layer
from repro.ir.tensor import Interval, Region
from repro.partition.direction import PartitionDirection, PartitionPolicy
from repro.partition.heuristics import (
    ALL_HEURISTICS,
    DirectionChoice,
    channel_feasible,
    choose_direction,
    spatial_feasible,
)
from repro.partition.balance import balance_intervals
from repro.partition.slicer import (
    LayerPartition,
    build_sub_layers,
    output_regions,
    validate_partition_covers_output,
)


def _fastest_core(npu: NPUConfig) -> int:
    weights = npu.compute_weights()
    return max(range(len(weights)), key=lambda i: weights[i])


def _single_core_regions(layer: Layer, npu: NPUConfig, core: int) -> Tuple[Region, ...]:
    full = Region.full(layer.output_shape)
    zero = Interval(0, 0)
    empty = Region(zero, zero, zero)
    return tuple(full if i == core else empty for i in range(npu.num_cores))


def _override_direction(
    layer: Layer,
    npu: NPUConfig,
    pinned: PartitionDirection,
) -> Optional[DirectionChoice]:
    """A per-layer direction pin, honored only when feasible.

    Autotune candidates pin directions freely over the knob grid; an
    infeasible pin (op constraint, alignment, shape) simply falls back
    to the policy/heuristic choice so every candidate still compiles to
    a valid program -- returning ``None`` here means "no effect".
    """
    if pinned is PartitionDirection.NONE:
        return DirectionChoice(PartitionDirection.NONE, "pinned")
    if pinned is PartitionDirection.SPATIAL and spatial_feasible(layer, npu):
        return DirectionChoice(PartitionDirection.SPATIAL, "pinned")
    if pinned is PartitionDirection.CHANNEL and channel_feasible(layer, npu):
        return DirectionChoice(PartitionDirection.CHANNEL, "pinned")
    return None


def _policy_direction(
    layer: Layer,
    npu: NPUConfig,
    policy: PartitionPolicy,
    enabled: FrozenSet[str],
) -> DirectionChoice:
    if policy is PartitionPolicy.SINGLE_CORE or npu.num_cores == 1:
        return DirectionChoice(PartitionDirection.NONE, "single-core")
    if policy is PartitionPolicy.ADAPTIVE:
        return choose_direction(layer, npu, enabled)
    if policy is PartitionPolicy.SPATIAL_ONLY:
        if spatial_feasible(layer, npu):
            return DirectionChoice(PartitionDirection.SPATIAL, "forced-spatial")
        if channel_feasible(layer, npu):
            return DirectionChoice(PartitionDirection.CHANNEL, "spatial-infeasible")
        return DirectionChoice(PartitionDirection.NONE, "infeasible")
    if policy is PartitionPolicy.CHANNEL_ONLY:
        if channel_feasible(layer, npu):
            return DirectionChoice(PartitionDirection.CHANNEL, "forced-channel")
        if spatial_feasible(layer, npu):
            return DirectionChoice(PartitionDirection.SPATIAL, "channel-infeasible")
        return DirectionChoice(PartitionDirection.NONE, "infeasible")
    raise ValueError(f"unknown policy {policy}")


def partition_layer(
    layer: Layer,
    npu: NPUConfig,
    policy: PartitionPolicy = PartitionPolicy.ADAPTIVE,
    enabled_heuristics: FrozenSet[str] = ALL_HEURISTICS,
    weight_override: Optional[Tuple[float, ...]] = None,
    direction_override: Optional[PartitionDirection] = None,
) -> LayerPartition:
    """Partition one layer across the machine's cores.

    ``weight_override`` replaces the analytical balance with measured
    per-core rates (profile-guided rebalancing).  ``direction_override``
    pins the partition direction when feasible (autotune candidates);
    the single-core policy always wins over a pin.
    """
    choice = None
    if (
        direction_override is not None
        and policy is not PartitionPolicy.SINGLE_CORE
        and npu.num_cores > 1
    ):
        choice = _override_direction(layer, npu, direction_override)
    if choice is None:
        choice = _policy_direction(layer, npu, policy, enabled_heuristics)
    if choice.direction is PartitionDirection.NONE:
        core = 0 if npu.num_cores == 1 else _fastest_core(npu)
        regions = _single_core_regions(layer, npu, core)
    else:
        intervals = balance_intervals(
            layer, choice.direction, npu, weights=weight_override
        )
        regions = output_regions(layer, choice.direction, intervals)
    validate_partition_covers_output(layer, regions)
    return LayerPartition(
        layer_name=layer.name,
        direction=choice.direction,
        reason=choice.reason,
        sub_layers=build_sub_layers(layer, regions),
    )


@dataclasses.dataclass(frozen=True)
class GraphPartition:
    """Partitioning decisions for every layer of a graph.

    The compiles of one :meth:`~repro.ir.graph.Graph.decision_scope`
    share one partition, so every stage after partitioning only reads it.
    """

    graph: Graph
    npu: NPUConfig
    policy: PartitionPolicy
    layers: Dict[str, LayerPartition]

    def partition(self, layer_name: str) -> LayerPartition:
        return self.layers[layer_name]

    def direction(self, layer_name: str) -> PartitionDirection:
        return self.layers[layer_name].direction

    def directions_summary(self) -> Dict[PartitionDirection, int]:
        counts: Dict[PartitionDirection, int] = {}
        for part in self.layers.values():
            counts[part.direction] = counts.get(part.direction, 0) + 1
        return counts

    def reasons_summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for part in self.layers.values():
            counts[part.reason] = counts.get(part.reason, 0) + 1
        return counts


def partition_graph(
    graph: Graph,
    npu: NPUConfig,
    policy: PartitionPolicy = PartitionPolicy.ADAPTIVE,
    enabled_heuristics: FrozenSet[str] = ALL_HEURISTICS,
    weight_overrides: Optional[Dict[str, Tuple[float, ...]]] = None,
    direction_overrides: Optional[Dict[str, PartitionDirection]] = None,
) -> GraphPartition:
    """Partition every layer of ``graph`` under ``policy``.

    ``weight_overrides`` maps layer names to measured per-core rate
    weights, replacing the analytical balance for those layers.
    ``direction_overrides`` pins the partition direction of individual
    layers where feasible (the autotuner's first knob axis).
    """
    graph.validate()
    overrides = weight_overrides or {}
    pins = direction_overrides or {}
    layers: Dict[str, LayerPartition] = {}
    for layer in graph.layers():
        layers[layer.name] = partition_layer(
            layer,
            npu,
            policy,
            enabled_heuristics,
            weight_override=overrides.get(layer.name),
            direction_override=pins.get(layer.name),
        )
    return GraphPartition(graph=graph, npu=npu, policy=policy, layers=layers)
