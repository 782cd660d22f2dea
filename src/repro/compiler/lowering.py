"""Lowering: schedule + partitions + strata + forwarding -> command streams.

This is where every execution model of the paper becomes concrete machine
work:

* each sub-layer becomes a ``load / compute / store`` tile pipeline with
  double-buffer dependencies (Figure 4);
* layer boundaries that cross cores become barriers, emitted lazily only
  when a consumer actually reads another core's freshly stored data
  (extending the span between synchronization points, Section 3);
* forwarding edges drop the store/load round trip; their remote residue
  becomes ``HALO_SEND``/``HALO_RECV`` pairs whose dependency structure
  *is* the implicit synchronization the paper attributes to
  halo-exchange (Figure 9);
* strata run with no barriers and no global traffic between their layers
  (Figure 10).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cost.memory import aligned_region_bytes, transfer_bytes
from repro.hw.config import NPUConfig
from repro.ir.graph import Graph, Layer
from repro.ir.tensor import Region
from repro.compiler.allocator import ForwardingPlan, InputDecision, InputMode
from repro.compiler.options import CompileOptions
from repro.compiler.program import CommandKind, Program, ProgramBuilder
from repro.partition.partitioner import GraphPartition
from repro.schedule.stratum import StratumPlan
from repro.schedule.tiling import plan_tiles


def exec_regions_for(
    graph: Graph,
    partition: GraphPartition,
    strata: StratumPlan,
) -> Dict[str, Tuple[Region, ...]]:
    """Per-core output regions each layer actually computes.

    Stratum members use their (inflated) stratum entry regions; everything
    else uses the balanced partition regions.
    """
    regions: Dict[str, Tuple[Region, ...]] = {}
    for layer in graph.layers():
        stratum = strata.stratum_of(layer.name)
        if stratum is not None:
            regions[layer.name] = stratum.entry(layer.name).out_regions
        else:
            regions[layer.name] = partition.partition(layer.name).out_regions()
    return regions


@dataclasses.dataclass
class _LoweringState:
    """Mutable bookkeeping while walking the schedule."""

    #: layers stored to global memory since the last barrier.
    unsynced: Set[str] = dataclasses.field(default_factory=set)
    #: layer -> per-core barrier command ids that ordered its stores.
    synced_by: Dict[str, Tuple[int, ...]] = dataclasses.field(default_factory=dict)
    #: (layer, core) -> id of the *last* store command of that sub-layer.
    last_store: Dict[Tuple[str, int], int] = dataclasses.field(default_factory=dict)
    #: (consumer, input_index, producer_core) -> HALO_SEND command id.
    halo_sends: Dict[Tuple[str, int, int], int] = dataclasses.field(default_factory=dict)


def lower(
    graph: Graph,
    npu: NPUConfig,
    options: CompileOptions,
    partition: GraphPartition,
    schedule: Sequence[str],
    strata: StratumPlan,
    forwarding: ForwardingPlan,
    exec_regions: Dict[str, Tuple[Region, ...]],
) -> Program:
    """Emit the full command program for one inference.

    ``partition`` is not read: every per-core region arrives through
    ``exec_regions`` (see :func:`exec_regions_for`).
    """
    builder = ProgramBuilder(npu.num_cores)
    state = _LoweringState()

    for name in schedule:
        layer = graph.layer(name)
        if layer.is_input:
            continue
        _maybe_emit_barrier(
            builder, state, graph, npu, layer, forwarding, exec_regions
        )
        for core in range(npu.num_cores):
            region = exec_regions[name][core]
            if region.is_empty:
                continue
            _emit_sub_layer(
                builder,
                state,
                graph,
                npu,
                options,
                forwarding,
                exec_regions,
                strata,
                layer,
                core,
                region,
            )
        if forwarding.stores.get(name, False):
            state.unsynced.add(name)

    return builder.build()


def _needs_remote_data(
    layer: Layer,
    input_index: int,
    cons_regions: Sequence[Region],
    prod_regions: Sequence[Region],
) -> bool:
    """Does any core's input window overlap data another core produced?"""
    for c, out_region in enumerate(cons_regions):
        if out_region.is_empty:
            continue
        needed = layer.input_region(out_region, input_index)
        for j, owned in enumerate(prod_regions):
            if j == c or owned.is_empty:
                continue
            if not needed.intersect(owned).is_empty:
                return True
    return False


def _maybe_emit_barrier(
    builder: ProgramBuilder,
    state: _LoweringState,
    graph: Graph,
    npu: NPUConfig,
    layer: Layer,
    forwarding: ForwardingPlan,
    exec_regions: Dict[str, Tuple[Region, ...]],
) -> None:
    """Emit one global barrier when this layer reads unsynced remote data."""
    if npu.num_cores == 1:
        return
    needed = False
    for i, producer_name in enumerate(layer.inputs):
        producer = graph.layer(producer_name)
        if producer.is_input:
            continue
        decision = forwarding.decision(layer.name, i)
        if decision is not None and not decision.mode.needs_barrier:
            continue
        if producer_name not in state.unsynced:
            continue
        if _needs_remote_data(
            layer, i, exec_regions[layer.name], exec_regions[producer_name]
        ):
            needed = True
            break
    if not needed:
        return
    cids = builder.barrier(npu.sync_cost_cycles(), layer=layer.name, tag="sync")
    for lname in state.unsynced:
        state.synced_by[lname] = tuple(cids)
    state.unsynced.clear()


def _halo_duties_as_producer(
    graph: Graph,
    forwarding: ForwardingPlan,
    layer: Layer,
) -> List[InputDecision]:
    """FORWARD_HALO edges on which this layer is the sender."""
    duties = []
    for consumer_name in graph.consumers(layer.name):
        consumer = graph.layer(consumer_name)
        for i, src in enumerate(consumer.inputs):
            if src != layer.name:
                continue
            decision = forwarding.decision(consumer_name, i)
            if decision is not None and decision.mode.uses_halo:
                duties.append(decision)
    return duties


def _emit_sub_layer(
    builder: ProgramBuilder,
    state: _LoweringState,
    graph: Graph,
    npu: NPUConfig,
    options: CompileOptions,
    forwarding: ForwardingPlan,
    exec_regions: Dict[str, Tuple[Region, ...]],
    strata: StratumPlan,
    layer: Layer,
    core: int,
    region: Region,
) -> None:
    name = layer.name
    core_cfg = npu.core(core)
    esize = layer.dtype.size_bytes
    decisions = [
        forwarding.decision(name, i) for i in range(len(layer.inputs))
    ]
    stream_mask = [
        d is None or not d.mode.is_forwarding for d in decisions
    ]
    stores = forwarding.stores.get(name, False)
    output_resident = name in forwarding.resident_outputs

    # --- halo duties -------------------------------------------------------
    send_duties = _halo_duties_as_producer(graph, forwarding, layer)
    send_regions: List[Region] = []
    send_bytes = 0
    for duty in send_duties:
        send_regions.extend(duty.send_region_rows(core))
        send_bytes += duty.send_bytes(core, esize)

    halo_at_start = any(
        not r.is_empty and r.rows.start <= region.rows.start for r in send_regions
    )
    halo_at_end = any(
        not r.is_empty and r.rows.stop >= region.rows.stop for r in send_regions
    )

    # --- SPM residents ----------------------------------------------------
    resident_bytes = 0
    recv_total = 0
    for i, decision in enumerate(decisions):
        if decision is None:
            continue
        if decision.mode.is_forwarding:
            producer_region = exec_regions[decision.producer][core]
            resident_bytes += aligned_region_bytes(
                producer_region, layer.dtype, core_cfg
            )
        if decision.mode.uses_halo:
            recv_total += decision.recv_bytes(core, esize)
    resident_bytes += recv_total
    if output_resident:
        resident_bytes += aligned_region_bytes(region, layer.dtype, core_cfg)
    if strata.stratum_of(name) is not None:
        # Stratum members run tile-interleaved (fused) across layers; the
        # stratum builder already validated the fused working set, and
        # intermediate tensors occupy ring buffers, not whole-tensor
        # residents.  Give the tiler the full budget minus any halo
        # buffer a stratum-top receive still needs.
        resident_bytes = recv_total

    plan = plan_tiles(
        layer,
        region,
        core,
        npu,
        halo_first=options.halo_first,
        halo_at_start=halo_at_start,
        halo_at_end=halo_at_end,
        input_stream_mask=stream_mask,
        stores_output=stores and not output_resident,
        resident_bytes=resident_bytes,
        pipeline_tiles=options.tile_override_map().get(name),
    )

    # --- kernel loads ------------------------------------------------------
    # One load per weight band (normally a single band covering the whole
    # sub-layer; weight-dominated layers are banded by the tiler and
    # reload a slice per band).  The first band prefetches ahead of any
    # halo receive so kernels stream early (Figure 9b); later bands are
    # emitted lazily when their first tile appears.
    has_weights = (
        layer.op.weight_elements_for_output(region, layer.output_shape) > 0
    )
    band_weight_cids: Dict[int, int] = {}

    def band_weight_cid(tile) -> Optional[int]:
        if not has_weights:
            return None
        band = tile.weight_band
        if band not in band_weight_cids:
            wregion = Region(region.rows, region.cols, tile.out_region.chans)
            elems = layer.op.weight_elements_for_output(
                wregion, layer.output_shape
            )
            tag = f"w{band}" if plan.num_weight_bands > 1 else "w"
            band_weight_cids[band] = builder.add(
                core,
                CommandKind.LOAD_WEIGHT,
                num_bytes=elems * layer.dtype.size_bytes,
                layer=name,
                tag=tag,
            )
        return band_weight_cids[band]

    if has_weights and plan.tiles:
        band_weight_cid(plan.tiles[0])

    # --- halo receive ------------------------------------------------------
    recv_cids: List[int] = []
    recv_pieces_by_input: Dict[int, Tuple[Region, ...]] = {}
    for i, decision in enumerate(decisions):
        if decision is None or not decision.mode.uses_halo:
            continue
        nbytes = decision.recv_bytes(core, esize)
        if nbytes == 0:
            continue
        deps = []
        for j in range(npu.num_cores):
            if j == core:
                continue
            if decision.pieces and not decision.pieces[core][j].is_empty:
                send_cid = state.halo_sends.get((name, i, j))
                if send_cid is not None:
                    deps.append(send_cid)
        cid = builder.add(
            core,
            CommandKind.HALO_RECV,
            deps=deps,
            num_bytes=nbytes,
            cycles=npu.halo_exchange_base_cycles,
            layer=name,
            tag="halo",
        )
        recv_cids.append(cid)
        recv_pieces_by_input[i] = tuple(
            r for j, r in enumerate(decision.pieces[core]) if j != core
        )

    # --- per-input global-load dependencies --------------------------------
    common_load_deps: List[int] = []
    for i, decision in enumerate(decisions):
        if not stream_mask[i]:
            continue
        producer_name = layer.inputs[i]
        producer = graph.layer(producer_name)
        if producer.is_input:
            continue
        synced = state.synced_by.get(producer_name)
        if synced is not None:
            common_load_deps.append(synced[core])
        store_cid = state.last_store.get((producer_name, core))
        if store_cid is not None:
            common_load_deps.append(store_cid)

    # --- tile pipeline ------------------------------------------------------
    any_stream = any(stream_mask[i] for i in range(len(layer.inputs)))
    streams_store = stores and not output_resident

    # Input-resident plans load the whole streamed input once; the tiles
    # then only stream weights and outputs.
    resident_load_cid: Optional[int] = None
    if plan.input_resident and any_stream:
        nbytes = 0
        for i in range(len(layer.inputs)):
            if not stream_mask[i]:
                continue
            in_region = layer.input_region(region, i)
            decision = decisions[i]
            if decision is not None and decision.mode is InputMode.GLOBAL_HALO:
                in_region = in_region.intersect(exec_regions[decision.producer][core])
                if in_region.is_empty:
                    continue
            nbytes += transfer_bytes(in_region, layer.dtype)
        if nbytes > 0:
            resident_load_cid = builder.add(
                core,
                CommandKind.LOAD_INPUT,
                deps=common_load_deps,
                num_bytes=nbytes,
                layer=name,
                tag="in",
            )
    compute_cids: List[int] = []
    store_cids: List[Optional[int]] = []
    sent = False
    covered_sends: Set[int] = set()
    send_total = sum(r.num_elements for r in send_regions)
    send_produced = 0

    multi_band = plan.num_weight_bands > 1
    for k, tile in enumerate(plan.tiles):
        weight_cid = band_weight_cid(tile)
        tile_tag = (
            f"b{tile.weight_band}t{tile.index}" if multi_band else f"t{tile.index}"
        )
        # Load this tile's streamed inputs.
        load_cid: Optional[int] = None
        if plan.input_resident:
            load_cid = resident_load_cid
        elif any_stream:
            nbytes = 0
            for i in range(len(layer.inputs)):
                if not stream_mask[i]:
                    continue
                in_region = layer.input_region(tile.out_region, i)
                decision = decisions[i]
                if decision is not None and decision.mode is InputMode.GLOBAL_HALO:
                    # Only the locally produced slice streams from global
                    # memory; the rest arrives via halo-exchange.
                    own = exec_regions[decision.producer][core]
                    in_region = in_region.intersect(own)
                    if in_region.is_empty:
                        continue
                nbytes += transfer_bytes(in_region, layer.dtype)
            if nbytes > 0:
                deps = list(common_load_deps)
                if k >= 2 and compute_cids:
                    # double buffering: the buffer of tile k-2 must be free.
                    idx = min(k - 2, len(compute_cids) - 1)
                    deps.append(compute_cids[idx])
                load_cid = builder.add(
                    core,
                    CommandKind.LOAD_INPUT,
                    deps=deps,
                    num_bytes=nbytes,
                    layer=name,
                    tag=tile_tag,
                )

        # Compute.
        deps = []
        if load_cid is not None:
            deps.append(load_cid)
        if weight_cid is not None:
            deps.append(weight_cid)
        for i, pieces in recv_pieces_by_input.items():
            tile_in = layer.input_region(tile.out_region, i)
            if any(not tile_in.intersect(p).is_empty for p in pieces):
                deps.extend(recv_cids)
        if streams_store and k >= 2 and len(store_cids) >= k - 1:
            prev_store = store_cids[k - 2]
            if prev_store is not None:
                deps.append(prev_store)
        compute_cid = builder.add(
            core,
            CommandKind.COMPUTE,
            deps=deps,
            macs=tile.macs,
            layer=name,
            tag=tile_tag,
        )
        compute_cids.append(compute_cid)

        # Store.
        store_cid: Optional[int] = None
        if stores:
            store_cid = builder.add(
                core,
                CommandKind.STORE_OUTPUT,
                deps=[compute_cid],
                num_bytes=transfer_bytes(tile.out_region, layer.dtype),
                layer=name,
                tag=tile_tag,
            )
            state.last_store[(name, core)] = store_cid
        store_cids.append(store_cid)

        # Track which send-region tiles have computed; emit the halo send
        # as soon as the last contributor is in flight.
        if send_bytes > 0 and not sent:
            overlaps = [
                tile.out_region.intersect(r).num_elements for r in send_regions
            ]
            if any(overlaps):
                covered_sends.add(compute_cid)
            send_produced += sum(overlaps)
            if send_produced >= send_total:
                send_cid = builder.add(
                    core,
                    CommandKind.HALO_SEND,
                    deps=sorted(covered_sends),
                    num_bytes=send_bytes,
                    cycles=npu.halo_exchange_base_cycles,
                    layer=name,
                    tag="halo",
                )
                for duty in send_duties:
                    if duty.send_bytes(core, esize) > 0:
                        state.halo_sends[
                            (duty.consumer, duty.input_index, core)
                        ] = send_cid
                sent = True
