"""Tiling sub-layers for pipelined execution within a core (Section 3.1.3).

A sub-layer is decomposed into tiles when (1) its working set exceeds the
SPM or (2) overlapping DMA with compute pays off.  Tiles run as a
``load / compute / store`` software pipeline with double buffering, so
the SPM only holds two tiles of each streamed tensor plus the resident
weights.

The *halo-first policy* reorders tiles so the ones producing halo data
for the next layer run first, letting the halo-exchange overlap the
remaining tiles' computation (Figures 9 and 12).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

from repro.cost.compute import layer_compute_cycles
from repro.cost.memory import (
    aligned_region_bytes,
    aligned_weight_bytes,
    align_up,
    transfer_cycles,
)
from repro.hw.config import CoreConfig, NPUConfig
from repro.ir.graph import Layer
from repro.ir.tensor import Interval, Region

#: Pipelining is worth it when the smaller of (DMA, compute) is at least
#: this fraction of the larger -- otherwise one stage dwarfs the other and
#: overlap saves nothing measurable.
OVERLAP_BENEFIT_THRESHOLD = 0.05

#: Default pipeline depth target when overlap is beneficial.
PIPELINE_TILES = 4


@dataclasses.dataclass(frozen=True)
class Tile:
    """One fragment of a sub-layer, in absolute output coordinates.

    ``weight_band`` groups tiles that share one resident weight slice:
    when a sub-layer's weights alone overflow the SPM, the output
    channels are cut into bands, each band loading its own weights and
    streaming row tiles (2-D tiling).
    """

    index: int
    out_region: Region
    macs: int
    produces_halo: bool = False
    weight_band: int = 0


@dataclasses.dataclass(frozen=True)
class TilePlan:
    """The tiling of one sub-layer on one core.

    ``input_resident``: the streamed input is loaded once and kept in the
    SPM while tiles stream weights/outputs -- the pattern for layers whose
    receptive-field halo (large dilation) makes row tiles as big as the
    whole input.
    """

    layer_name: str
    core_index: int
    axis: str  # 'h', 'c', 'hc' (banded 2-D), or 'none'
    tiles: Tuple[Tile, ...]
    halo_first: bool
    input_resident: bool = False

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    @property
    def num_weight_bands(self) -> int:
        return max((t.weight_band for t in self.tiles), default=-1) + 1


def _split_region(
    out_region: Region, axis: str, num_tiles: int, alignment: int
) -> List[Region]:
    """Cut ``out_region`` into ``num_tiles`` aligned slices along ``axis``."""
    if axis == "h":
        iv = out_region.rows
    elif axis == "c":
        iv = out_region.chans
    else:
        return [out_region]
    total = iv.length
    chunk = align_up(math.ceil(total / num_tiles), alignment)
    pieces: List[Region] = []
    start = iv.start
    while start < iv.stop:
        stop = min(start + chunk, iv.stop)
        piece_iv = Interval(start, stop)
        if axis == "h":
            pieces.append(Region(piece_iv, out_region.cols, out_region.chans))
        else:
            pieces.append(Region(out_region.rows, out_region.cols, piece_iv))
        start = stop
    return pieces


def _streaming_bytes(
    layer: Layer,
    out_region: Region,
    core: CoreConfig,
    input_stream_mask: Optional[Sequence[bool]] = None,
) -> Tuple[int, int, int, int, int]:
    """Stream sizes for a sub-layer on ``core``.

    Returns ``(in_spm, w_spm, out_spm, in_dense, out_dense)``: the SPM
    footprints (alignment-padded -- what double buffers occupy) and the
    dense byte counts (what the DMA actually moves).  ``input_stream_mask[i]``
    is False when input ``i`` is forwarded in the SPM (feature-map
    forwarding / stratum) and therefore not streamed.
    """
    in_spm = 0
    in_dense = 0
    for i in range(len(layer.inputs)):
        if input_stream_mask is not None and not input_stream_mask[i]:
            continue
        region = layer.input_region(out_region, i)
        in_spm += aligned_region_bytes(region, layer.dtype, core)
        if not region.is_empty:
            in_dense += region.size_bytes(layer.dtype)
    weights = layer.op.weight_elements_for_output(out_region, layer.output_shape)
    w_spm = aligned_weight_bytes(weights, layer.dtype, core)
    out_spm = aligned_region_bytes(out_region, layer.dtype, core)
    out_dense = out_region.size_bytes(layer.dtype)
    return in_spm, w_spm, out_spm, in_dense, out_dense


def _min_tiles_for_spm(
    in_bytes: int, w_bytes: int, out_bytes: int, spm: int
) -> Optional[int]:
    """Smallest tile count fitting double-buffered streams plus weights.

    SPM must hold the resident weights and two buffers each for the input
    and output streams: ``w + 2 * (in + out) / n <= spm``.  Returns None
    when even infinitely fine tiling cannot fit (weights alone overflow).
    """
    if w_bytes >= spm:
        return None
    stream = 2 * (in_bytes + out_bytes)
    if stream == 0:
        return 1
    avail = spm - w_bytes
    return max(1, math.ceil(stream / avail))


def _axis_capacity(out_region: Region, axis: str, alignment: int) -> int:
    """Maximum number of aligned tiles the axis supports.

    Ceil division: 33 rows at alignment 2 can be cut into 17 pieces (the
    last one short), which is what lets the finest tiles reach the
    alignment quantum.
    """
    length = out_region.rows.length if axis == "h" else out_region.chans.length
    return max(1, math.ceil(length / max(1, alignment)))


def _tile_stream_spm(
    layer: Layer,
    region: Region,
    core: CoreConfig,
    input_stream_mask: Optional[Sequence[bool]],
    stores_output: bool,
) -> int:
    """SPM bytes one tile's streamed input + output occupy (aligned)."""
    total = 0
    for i in range(len(layer.inputs)):
        if input_stream_mask is not None and not input_stream_mask[i]:
            continue
        total += aligned_region_bytes(
            layer.input_region(region, i), layer.dtype, core
        )
    if stores_output:
        total += aligned_region_bytes(region, layer.dtype, core)
    return total


def _grow_until_fit(
    layer: Layer,
    out_region: Region,
    axis: str,
    alignment: int,
    num_tiles: int,
    cap: int,
    resident_w: int,
    budget: int,
    core: CoreConfig,
    input_stream_mask: Optional[Sequence[bool]],
    stores_output: bool,
) -> Tuple[List[Region], int]:
    """Split into at least ``num_tiles`` pieces, growing the count until
    the *actual* worst tile (halo rows and alignment rounding included)
    fits the double-buffered budget, or the axis runs out of room.

    Returns the pieces and the worst piece's streamed SPM bytes.
    """
    num_tiles = max(1, min(num_tiles, cap))
    while True:
        regions = (
            _split_region(out_region, axis, num_tiles, alignment)
            if num_tiles > 1
            else [out_region]
        )
        worst = max(
            _tile_stream_spm(layer, r, core, input_stream_mask, stores_output)
            for r in regions
        )
        if resident_w + 2 * worst <= budget or num_tiles >= cap:
            return regions, worst
        num_tiles += 1


def plan_tiles(
    layer: Layer,
    out_region: Region,
    core_index: int,
    npu: NPUConfig,
    prefer_axis: str = "h",
    halo_first: bool = False,
    halo_at_start: bool = False,
    halo_at_end: bool = False,
    input_stream_mask: Optional[Sequence[bool]] = None,
    stores_output: bool = True,
    resident_bytes: int = 0,
    pipeline_tiles: Optional[int] = None,
) -> TilePlan:
    """Tile one sub-layer for pipelined execution.

    ``input_stream_mask`` and ``stores_output`` reflect feature-map
    forwarding and stratum membership: forwarded tensors neither stream
    through DMA nor occupy double buffers.  ``resident_bytes`` is SPM
    already claimed by resident tensors (forwarded inputs, a resident
    output kept for the next layer) and shrinks the budget available to
    the streaming double buffers.

    ``pipeline_tiles`` pins the pipeline-depth target, replacing the
    fixed :data:`PIPELINE_TILES`-when-beneficial heuristic for this
    sub-layer (the autotuner's tile-size knob).  SPM capacity still
    dominates: the count only ever grows beyond the pin to fit the
    double buffers, and the axis capacity caps it, so a pinned plan is
    exactly as valid as a heuristic one.
    """
    core = npu.core(core_index)
    if out_region.is_empty:
        return TilePlan(layer.name, core_index, "none", (), halo_first)

    streamed_in, w_bytes, out_bytes, in_dense, out_dense = _streaming_bytes(
        layer, out_region, core, input_stream_mask
    )
    streamed_out = out_bytes if stores_output else 0
    dense_traffic = in_dense + (out_dense if stores_output else 0)

    budget = max(1, core.spm_bytes - resident_bytes)
    n_spm = _min_tiles_for_spm(streamed_in, w_bytes, streamed_out, budget)

    # Pick the tiling axis: follow the partition direction when spatial
    # (hides halo transfer -- Section 3.1.3), otherwise whatever axis has
    # room; 'c' also shrinks the resident weights when 'h' cannot fit.
    axis = prefer_axis
    if axis == "h" and out_region.rows.length < 2 * core.spatial_alignment:
        axis = "c"
    if axis == "c" and out_region.chans.length < 2 * core.channel_alignment:
        axis = "h" if out_region.rows.length >= 2 * core.spatial_alignment else "none"

    if n_spm is None:
        # Weights alone overflow the SPM: 2-D banded tiling.  Output
        # channels split into bands so each band's weight slice fits;
        # within a band, row tiles stream the input/output.
        return _plan_banded(
            layer,
            out_region,
            core_index,
            npu,
            budget,
            halo_first=halo_first,
            halo_at_start=halo_at_start,
            halo_at_end=halo_at_end,
            input_stream_mask=input_stream_mask,
            stores_output=stores_output,
        )
    else:
        # Overlap heuristic: pipeline only when DMA and compute are within
        # the same order of magnitude.  DMA time is priced on the dense
        # bytes the bus actually carries.
        dma = transfer_cycles(dense_traffic, core, npu)
        comp = layer_compute_cycles(layer, out_region, core)
        hi, lo = max(dma, comp), min(dma, comp)
        beneficial = hi > 0 and lo / hi >= OVERLAP_BENEFIT_THRESHOLD
        if pipeline_tiles is not None:
            n_pipe = pipeline_tiles
        else:
            n_pipe = PIPELINE_TILES if beneficial else 1
        alignment = core.spatial_alignment if axis == "h" else core.channel_alignment
        cap = _axis_capacity(out_region, axis, alignment) if axis != "none" else 1
        num_tiles = min(max(n_spm, n_pipe), cap)
        if num_tiles > 1 and axis == "none":
            num_tiles = 1

    alignment = core.spatial_alignment if axis == "h" else core.channel_alignment
    cap = _axis_capacity(out_region, axis, alignment) if axis != "none" else 1
    regions, worst = _grow_until_fit(
        layer,
        out_region,
        axis,
        alignment,
        num_tiles,
        cap,
        w_bytes,
        budget,
        core,
        input_stream_mask,
        stores_output,
    )

    # The axis ran out of room before the worst tile fit (halo-dominated
    # inputs, coarse alignment): fall back to weight banding or to the
    # input-resident pattern.
    if w_bytes + 2 * worst > budget:
        if (
            w_bytes > budget // 2
            and out_region.chans.length >= 2 * core.channel_alignment
        ):
            return _plan_banded(
                layer, out_region, core_index, npu, budget,
                halo_first=halo_first, halo_at_start=halo_at_start,
                halo_at_end=halo_at_end, input_stream_mask=input_stream_mask,
                stores_output=stores_output,
            )
        resident_plan = _plan_input_resident(
            layer, out_region, core_index, npu, budget,
            halo_at_start=halo_at_start, halo_at_end=halo_at_end,
            input_stream_mask=input_stream_mask, stores_output=stores_output,
        )
        if resident_plan is not None:
            return resident_plan
        # Nothing fits cleanly; keep the finest streaming plan (the SPM
        # audit will surface the transient).

    tiles = []
    for i, region in enumerate(regions):
        produces_halo = axis == "h" and (
            (halo_at_start and i == 0) or (halo_at_end and i == len(regions) - 1)
        )
        tiles.append(
            Tile(
                index=i,
                out_region=region,
                macs=layer.macs(region),
                produces_halo=produces_halo,
            )
        )

    if halo_first and axis == "h":
        tiles = order_halo_first(tiles)

    return TilePlan(
        layer_name=layer.name,
        core_index=core_index,
        axis=axis if len(tiles) > 1 else ("none" if len(tiles) == 1 else axis),
        tiles=tuple(tiles),
        halo_first=halo_first,
    )


def order_halo_first(tiles: Sequence[Tile]) -> List[Tile]:
    """Halo-producing tiles first, the rest in their original order."""
    halo = [t for t in tiles if t.produces_halo]
    rest = [t for t in tiles if not t.produces_halo]
    return halo + rest


def _plan_input_resident(
    layer: Layer,
    out_region: Region,
    core_index: int,
    npu: NPUConfig,
    budget: int,
    halo_at_start: bool,
    halo_at_end: bool,
    input_stream_mask: Optional[Sequence[bool]],
    stores_output: bool,
) -> Optional[TilePlan]:
    """Input-resident channel tiling.

    The whole streamed input loads once and stays resident; output
    channels split into bands so each band's weights and double-buffered
    output fit next to it.  Returns None when even that cannot fit.
    """
    core = npu.core(core_index)
    in_spm = 0
    for i in range(len(layer.inputs)):
        if input_stream_mask is not None and not input_stream_mask[i]:
            continue
        in_spm += aligned_region_bytes(
            layer.input_region(out_region, i), layer.dtype, core
        )
    cap = _axis_capacity(out_region, "c", core.channel_alignment)
    chosen = None
    for n in range(1, cap + 1):
        bands = _split_region(out_region, "c", n, core.channel_alignment)
        usage = in_spm + max(
            aligned_weight_bytes(
                layer.op.weight_elements_for_output(b, layer.output_shape),
                layer.dtype,
                core,
            )
            + 2 * (aligned_region_bytes(b, layer.dtype, core) if stores_output else 0)
            for b in bands
        )
        if usage <= budget:
            chosen = bands
            break
    if chosen is None:
        return None

    tiles = []
    for band_idx, band in enumerate(chosen):
        tiles.append(
            Tile(
                index=band_idx,
                out_region=band,
                macs=layer.macs(band),
                # with a single spatial extent per band, every band owns
                # both boundaries.
                produces_halo=halo_at_start or halo_at_end,
                weight_band=band_idx,
            )
        )
    return TilePlan(
        layer_name=layer.name,
        core_index=core_index,
        axis="c" if len(tiles) > 1 else "none",
        tiles=tuple(tiles),
        halo_first=False,
        input_resident=True,
    )


def _plan_banded(
    layer: Layer,
    out_region: Region,
    core_index: int,
    npu: NPUConfig,
    budget: int,
    halo_first: bool,
    halo_at_start: bool,
    halo_at_end: bool,
    input_stream_mask: Optional[Sequence[bool]],
    stores_output: bool,
) -> TilePlan:
    """2-D tiling for weight-dominated sub-layers.

    Each *weight band* is a channel slice whose weights stay resident
    while its row tiles stream; bands execute back to back, reloading
    weights per band (the extra weight traffic is the real cost such
    layers pay on small-SPM hardware).
    """
    core = npu.core(core_index)
    chans = out_region.chans

    # Find the coarsest channel banding whose *actual* aligned bands can
    # each hold their weights next to a double-buffered minimal row tile.
    max_bands = max(1, math.ceil(chans.length / core.channel_alignment))
    if max_bands < 2:
        w_all = aligned_weight_bytes(
            layer.op.weight_elements_for_output(out_region, layer.output_shape),
            layer.dtype,
            core,
        )
        if w_all > budget:
            raise ValueError(
                f"sub-layer {layer.name} cannot fit SPM of core {core.name}: "
                f"weights exceed the budget and channels cannot split"
            )

    bands = None
    for n in range(2, max_bands + 1):
        candidate = _split_region(out_region, "c", n, core.channel_alignment)
        feasible = True
        for band in candidate:
            _, w_spm, _, _, _ = _streaming_bytes(
                layer, band, core, input_stream_mask
            )
            cap = _axis_capacity(band, "h", core.spatial_alignment)
            finest = _split_region(band, "h", cap, core.spatial_alignment)
            worst = max(
                _tile_stream_spm(layer, r, core, input_stream_mask, stores_output)
                for r in finest
            )
            if w_spm + 2 * worst > budget:
                feasible = False
                break
        if feasible:
            bands = candidate
            break
    if bands is None:
        # Streaming row tiles cannot fit even at the finest banding; try
        # keeping the input resident instead.
        resident = _plan_input_resident(
            layer, out_region, core_index, npu, budget,
            halo_at_start=halo_at_start, halo_at_end=halo_at_end,
            input_stream_mask=input_stream_mask, stores_output=stores_output,
        )
        if resident is not None:
            return resident
        # Best effort: the finest banding; the SPM audit reports the
        # residual transient for genuinely over-constrained layers.
        bands = _split_region(out_region, "c", max_bands, core.channel_alignment)

    tiles: List[Tile] = []
    index = 0
    for band_idx, band in enumerate(bands):
        in_spm, w_spm, out_spm, _, _ = _streaming_bytes(
            layer, band, core, input_stream_mask
        )
        band_budget = max(1, budget - w_spm)
        streamed_out = out_spm if stores_output else 0
        stream = 2 * (in_spm + streamed_out)
        n_rows = max(1, math.ceil(stream / band_budget)) if stream else 1
        cap = _axis_capacity(band, "h", core.spatial_alignment)
        n_rows = min(max(n_rows, 2 if cap >= 2 else 1), cap)
        row_tiles, _ = _grow_until_fit(
            layer,
            band,
            "h",
            core.spatial_alignment,
            n_rows,
            cap,
            w_spm,
            budget,
            core,
            input_stream_mask,
            stores_output,
        )
        band_tiles = []
        for i, region in enumerate(row_tiles):
            produces_halo = (halo_at_start and i == 0) or (
                halo_at_end and i == len(row_tiles) - 1
            )
            band_tiles.append(
                Tile(
                    index=index,
                    out_region=region,
                    macs=layer.macs(region),
                    produces_halo=produces_halo,
                    weight_band=band_idx,
                )
            )
            index += 1
        if halo_first:
            band_tiles = order_halo_first(band_tiles)
        tiles.extend(band_tiles)

    return TilePlan(
        layer_name=layer.name,
        core_index=core_index,
        axis="hc",
        tiles=tuple(tiles),
        halo_first=halo_first,
    )
