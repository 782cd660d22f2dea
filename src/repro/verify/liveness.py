"""SPM buffer-liveness pass (RPR30x): double-buffer phase discipline.

The tiler sizes each sub-layer's streams for *double* buffering: at most
two input-tile buffers and two output-tile buffers of a stream are live
at once.  The lowering realises that bound with dependency edges -- the
load of tile ``k`` must wait for the compute of tile ``k-2`` (its buffer
is then free), and -- when the output streams rather than staying SPM
resident -- the compute of tile ``k`` must wait for the store of tile
``k-2``.  This pass re-derives the per-sub-layer tile pipeline from
the command stream (program order of the compute queue defines the tile
sequence; tags pair loads/stores with their tile) and checks those phase
edges in the happens-before relation.  A violation means three buffers
of one stream can be live simultaneously -- the program can exceed the
SPM budget the capacity pass (RPR310) validated.

Codes:

* ``RPR301`` -- tile load not ordered after the compute that frees its
  double-buffer slot (3+ input buffers live)
* ``RPR302`` -- tile compute not ordered after the store that frees its
  output buffer slot (3+ output buffers live)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.compiler.program import CommandKind
from repro.verify.diagnostics import PassResult
from repro.verify.hb import HappensBefore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compiler import CompiledModel

_TILE_KINDS = (CommandKind.LOAD_INPUT, CommandKind.COMPUTE, CommandKind.STORE_OUTPUT)


def check_liveness(compiled: "CompiledModel", hb: HappensBefore) -> PassResult:
    """Check double-buffer phase edges for every tiled sub-layer."""
    result = PassResult(name="liveness")
    program = compiled.program
    groups = program.groups()
    tags = program.columns().tag
    checked = 0

    # Sub-layers in order of their first load, compute or store.
    sublayers = dict.fromkeys(
        (layer, core) for layer, core, kind in groups if kind in _TILE_KINDS
    )
    for layer, core in sublayers:
        computes = groups.get((layer, core, CommandKind.COMPUTE), [])
        if len(computes) < 3:
            continue  # at most two tiles in flight: double buffering trivially holds
        # Program order of the compute queue *is* the tile order (the
        # lowering emits one compute per tile, halo-first reordering
        # included); tags pair the surrounding loads/stores to tiles.
        position = {tags[cmd]: k for k, cmd in enumerate(computes)}

        loads = groups.get((layer, core, CommandKind.LOAD_INPUT), [])
        tile_loads = [ld for ld in loads if tags[ld] in position]
        for ld in tile_loads:
            k = position[tags[ld]]
            if k < 2:
                continue
            checked += 1
            freeing = computes[k - 2]
            if not hb.ordered(freeing, ld):
                result.emit(
                    "RPR301",
                    f"tile load #{ld} ({tags[ld]}) is not ordered after "
                    f"compute #{freeing} ({tags[freeing]}); three input "
                    f"buffers of the stream can be live at once",
                    layer=layer,
                    core=core,
                    cid=ld,
                    hint="the lowering must add the double-buffer dependency "
                    "load[k] -> compute[k-2]",
                )

        stores = groups.get((layer, core, CommandKind.STORE_OUTPUT), [])
        tile_stores = {tags[cmd]: cmd for cmd in stores if tags[cmd] in position}
        streamed = layer not in compiled.forwarding.resident_outputs
        if streamed and len(tile_stores) >= len(computes):
            # Per-tile streamed stores: the output side double-buffers too.
            # (A resident output keeps the whole tensor in SPM -- its
            # stores drain lazily and need no phase edge.)
            by_pos = sorted(
                (position[tag], cmd) for tag, cmd in tile_stores.items()
            )
            for k, compute in enumerate(computes):
                if k < 2:
                    continue
                checked += 1
                freeing = by_pos[k - 2][1]
                if not hb.ordered(freeing, compute):
                    result.emit(
                        "RPR302",
                        f"tile compute #{compute} ({tags[compute]}) is not "
                        f"ordered after store #{freeing} ({tags[freeing]}); "
                        f"three output buffers of the stream can be live at once",
                        layer=layer,
                        core=core,
                        cid=compute,
                        hint="the lowering must add the double-buffer dependency "
                        "compute[k] -> store[k-2]",
                    )

    result.stats["phase_checks"] = checked
    return result
