"""Slicing a layer's output among cores and deriving input requirements.

Given a direction and per-core intervals, this module produces the exact
Regions each core computes, reads, and (for spatial partitions) must
obtain from its neighbours (halo).  All downstream byte/MAC accounting --
and the functional correctness oracle -- flows through these Regions.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from repro.ir.graph import Layer
from repro.ir.tensor import Interval, Region
from repro.partition.direction import PartitionDirection


@dataclasses.dataclass(frozen=True)
class SubLayer:
    """The share of one layer assigned to one core.

    ``out_region`` may be empty when the core received no work (e.g. too
    few channels to split).  ``input_regions`` has one Region per layer
    input, already clamped to valid data (padding is computed, not loaded).
    """

    layer_name: str
    core_index: int
    out_region: Region
    input_regions: Tuple[Region, ...]
    weight_elements: int
    macs: int

    @property
    def is_empty(self) -> bool:
        return self.out_region.is_empty


@dataclasses.dataclass(frozen=True)
class LayerPartition:
    """A layer split across all cores of the machine."""

    layer_name: str
    direction: PartitionDirection
    reason: str
    sub_layers: Tuple[SubLayer, ...]

    @property
    def num_active_cores(self) -> int:
        return sum(1 for s in self.sub_layers if not s.is_empty)

    def out_regions(self) -> Tuple[Region, ...]:
        return tuple(s.out_region for s in self.sub_layers)


def output_regions(
    layer: Layer,
    direction: PartitionDirection,
    intervals: Sequence[Interval],
) -> Tuple[Region, ...]:
    """Per-core output Regions from per-core intervals along ``direction``."""
    shape = layer.output_shape
    full = Region.full(shape)
    if direction is PartitionDirection.NONE:
        if len(intervals) != 1:
            raise ValueError("NONE direction expects a single interval")
        return (full,)
    regions = []
    for iv in intervals:
        if direction is PartitionDirection.SPATIAL:
            if iv.stop > shape.h:
                raise ValueError(f"interval {iv} exceeds output height {shape.h}")
            regions.append(Region(iv, Interval(0, shape.w), Interval(0, shape.c)))
        else:
            if iv.stop > shape.c:
                raise ValueError(f"interval {iv} exceeds output channels {shape.c}")
            regions.append(Region(Interval(0, shape.h), Interval(0, shape.w), iv))
    return tuple(regions)


def build_sub_layers(
    layer: Layer,
    out_regions: Sequence[Region],
    owner_core: int = 0,
) -> Tuple[SubLayer, ...]:
    """SubLayer records (input regions, weights, MACs) for each core."""
    subs = []
    for core_index, region in enumerate(out_regions):
        if region.is_empty:
            subs.append(
                SubLayer(
                    layer_name=layer.name,
                    core_index=core_index,
                    out_region=region,
                    input_regions=tuple(
                        _empty_region() for _ in layer.inputs
                    ),
                    weight_elements=0,
                    macs=0,
                )
            )
            continue
        input_regions = tuple(
            layer.input_region(region, i) for i in range(len(layer.inputs))
        )
        subs.append(
            SubLayer(
                layer_name=layer.name,
                core_index=core_index,
                out_region=region,
                input_regions=input_regions,
                weight_elements=layer.op.weight_elements_for_output(
                    region, layer.output_shape
                ),
                macs=layer.macs(region),
            )
        )
    return tuple(subs)


def _empty_region() -> Region:
    zero = Interval(0, 0)
    return Region(zero, zero, zero)


def spatial_halo_rows(layer: Layer) -> int:
    """Input rows of overlap between adjacent spatial partitions.

    For a windowed op this is ``effective_kernel - stride`` (when positive);
    for pointwise ops it is zero.  Computed from the real receptive-field
    math rather than a formula so it stays correct for every op.
    """
    shape = layer.output_shape
    if shape.h < 2:
        return 0
    mid = shape.h // 2
    top = Region(Interval(0, mid), Interval(0, shape.w), Interval(0, shape.c))
    bottom = Region(Interval(mid, shape.h), Interval(0, shape.w), Interval(0, shape.c))
    overlap = 0
    for i in range(len(layer.inputs)):
        r_top = layer.input_region(top, i)
        r_bottom = layer.input_region(bottom, i)
        overlap = max(overlap, r_top.rows.intersect(r_bottom.rows).length)
    return overlap


def halo_regions(
    consumer: Layer,
    consumer_input_index: int,
    consumer_out_regions: Sequence[Region],
    producer_out_regions: Sequence[Region],
) -> List[List[Region]]:
    """What each core must fetch from every other core's partition.

    ``result[i][j]`` is the Region of the producer's output that core ``i``
    needs for its share of ``consumer`` but that core ``j`` owns
    (``i != j``; ``result[i][i]`` is the locally available part).  This is
    the exact data moved by *halo-exchange* (Section 3, Figure 7a).
    """
    n = len(consumer_out_regions)
    if len(producer_out_regions) != n:
        raise ValueError("producer/consumer core counts differ")
    table: List[List[Region]] = []
    for i in range(n):
        row: List[Region] = []
        out_region = consumer_out_regions[i]
        if out_region.is_empty:
            table.append([_empty_region()] * n)
            continue
        needed = consumer.input_region(out_region, consumer_input_index)
        for j in range(n):
            row.append(needed.intersect(producer_out_regions[j]))
        table.append(row)
    return table


def halo_exchange_bytes(
    consumer: Layer,
    consumer_input_index: int,
    consumer_out_regions: Sequence[Region],
    producer_out_regions: Sequence[Region],
    producer: Layer,
) -> List[int]:
    """Bytes each core must *receive* from remote cores via halo-exchange."""
    table = halo_regions(
        consumer, consumer_input_index, consumer_out_regions, producer_out_regions
    )
    esize = producer.dtype.size_bytes
    received = []
    for i, row in enumerate(table):
        remote = sum(r.num_elements for j, r in enumerate(row) if j != i)
        received.append(remote * esize)
    return received


def validate_partition_covers_output(
    layer: Layer, out_regions: Sequence[Region]
) -> None:
    """Check the partition tiles the output exactly (no gap, no overlap).

    Raises ValueError otherwise.  Used as an internal assertion and heavily
    exercised by property-based tests.
    """
    shape = layer.output_shape
    total = sum(r.num_elements for r in out_regions)
    if total != shape.num_elements:
        raise ValueError(
            f"partition of {layer.name} covers {total} elements, "
            f"expected {shape.num_elements}"
        )
    for i, a in enumerate(out_regions):
        if a.is_empty:
            continue
        if not a.within(shape):
            raise ValueError(f"region {a} of {layer.name} exceeds output {shape}")
        for b in out_regions[i + 1 :]:
            if not b.is_empty and not a.intersect(b).is_empty:
                raise ValueError(f"regions {a} and {b} of {layer.name} overlap")
