"""Halo pairing and tile-coverage pass (RPR5xx).

Halo-exchange only replaces the store--sync--load round trip (Figure 9)
when every receive has a matched peer send moving exactly the bytes the
region algebra says must move, and when the per-core sub-slices of every
layer actually tile the layer's output.  This pass checks both halves:

**Pairing** (against the forwarding plan's piece tables, re-derived from
the slicer's region algebra):

* ``RPR501`` -- a halo receive with no peer send among its dependencies
* ``RPR502`` -- a halo send no receive waits for (dead traffic)
* ``RPR503`` -- receive byte count disagrees with the piece table
* ``RPR504`` -- send byte count disagrees with the piece table (or an
  expected send is missing entirely)

**Coverage** (per layer, over the executed regions):

* ``RPR510`` -- the per-core sub-slices of a materializing layer leave
  part of the output uncomputed (stratum-interior layers are exempt:
  they compute only what the layer below consumes)
* ``RPR511`` -- sub-slices of a non-stratum layer overlap (duplicate
  work the balancer did not ask for)
* ``RPR512`` -- a stratum member's inflated slice does not cover its
  successor's input window (the halo the inflation was meant to localize)
* ``RPR513`` -- a sub-slice reaches outside the layer's output shape
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.compiler.program import CommandKind
from repro.ir.tensor import Region
from repro.partition.slicer import halo_regions
from repro.verify.diagnostics import PassResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compiler import CompiledModel


def check_halo(compiled: "CompiledModel") -> PassResult:
    """Run halo pairing + coverage checks over one compiled model."""
    result = PassResult(name="halo")
    _check_pairing(result, compiled)
    _check_coverage(result, compiled)
    return result


# --------------------------------------------------------------- pairing


def _check_pairing(result: PassResult, compiled: "CompiledModel") -> None:
    program = compiled.program
    graph = compiled.graph
    npu = compiled.npu
    cols = program.columns()
    kinds, cores, layers, deps = cols.kind, cols.core, cols.layer, cols.deps
    n = len(kinds)

    # Halo commands by (layer, core), in order of first appearance.
    recvs: Dict[Tuple[str, int], List[int]] = {}
    sends: Dict[Tuple[str, int], List[int]] = {}
    for (layer, core, kind), members in program.groups().items():
        if kind is CommandKind.HALO_RECV:
            recvs[layer, core] = members
        elif kind is CommandKind.HALO_SEND:
            sends[layer, core] = members

    def is_send(d: int) -> bool:
        # The pass also runs on programs the structure pass rejects:
        # a dependency that names no command pairs with nothing.
        return 0 <= d < n and kinds[d] is CommandKind.HALO_SEND

    # Expected transfer volumes from the region algebra, independently
    # re-derived with the slicer (identical math to the planner's piece
    # tables -- the point is the *commands* are audited against it).
    expected_recv: Dict[Tuple[str, int], int] = {}
    expected_send: Dict[Tuple[str, int], int] = {}
    halo_edges = []
    for name in compiled.schedule:
        layer = graph.layer(name)
        if layer.is_input:
            continue
        for i, producer_name in enumerate(layer.inputs):
            decision = compiled.forwarding.decision(name, i)
            if decision is None or not decision.mode.uses_halo:
                continue
            pieces = halo_regions(
                layer,
                i,
                list(compiled.exec_regions[name]),
                list(compiled.exec_regions[producer_name]),
            )
            esize = layer.dtype.size_bytes
            halo_edges.append((name, i, producer_name, pieces))
            for c in range(npu.num_cores):
                for j in range(npu.num_cores):
                    if j == c:
                        continue
                    nbytes = pieces[c][j].num_elements * esize
                    expected_recv[(name, c)] = (
                        expected_recv.get((name, c), 0) + nbytes
                    )
                    expected_send[(producer_name, j)] = (
                        expected_send.get((producer_name, j), 0) + nbytes
                    )

    # Emitted receive bytes match the piece tables.
    keys = set(expected_recv) | {k for k in recvs}
    for key in sorted(keys):
        name, c = key
        want = expected_recv.get(key, 0)
        got = sum(cols.num_bytes[r] for r in recvs.get(key, []))
        if want != got:
            result.emit(
                "RPR503",
                f"halo receives move {got:,} B but the piece table "
                f"requires {want:,} B",
                layer=name,
                core=c,
                hint="recv_bytes disagrees with the region algebra; check "
                "InputDecision.pieces against the emitted command",
            )

    # Emitted send bytes match the piece tables.
    keys = set(expected_send) | {k for k in sends}
    for key in sorted(keys):
        name, j = key
        want = expected_send.get(key, 0)
        got = sum(cols.num_bytes[s] for s in sends.get(key, []))
        if want != got:
            result.emit(
                "RPR504",
                f"halo sends move {got:,} B but the piece table "
                f"requires {want:,} B",
                layer=name,
                core=j,
                hint="a send is missing, duplicated, or mis-sized for the "
                "halo its consumers expect",
            )

    # Structural rendezvous: each receive lists a peer send dependency
    # for every core it takes data from.
    for (name, i, producer_name, pieces) in halo_edges:
        for c in range(len(pieces)):
            remote_cores = [
                j
                for j in range(len(pieces[c]))
                if j != c and not pieces[c][j].is_empty
            ]
            if not remote_cores:
                continue
            core_recvs = recvs.get((name, c), [])
            for j in remote_cores:
                paired = any(
                    is_send(d) and cores[d] == j and layers[d] == producer_name
                    for r in core_recvs
                    for d in deps[r]
                )
                if not paired:
                    result.emit(
                        "RPR501",
                        f"no halo receive of {name!r} on core {c} depends on "
                        f"a send of {producer_name!r} from core {j}",
                        layer=name,
                        core=c,
                        hint="without the send dependency the rendezvous is "
                        "not a synchronization -- the receive can read "
                        "stale data",
                    )

    # Dead sends: every send must be awaited by at least one receive.
    awaited = {
        d for core_recvs in recvs.values() for r in core_recvs for d in deps[r] if is_send(d)
    }
    for (layer, core), core_sends in sends.items():
        for s in core_sends:
            if s not in awaited:
                result.emit(
                    "RPR502",
                    f"halo send #{s} is not awaited by any receive",
                    layer=layer,
                    core=core,
                    cid=s,
                    hint="a dropped peer: the consumer will read whatever "
                    "was in its halo buffer",
                )

    result.stats["halo_edges"] = len(halo_edges)
    result.stats["receives"] = sum(len(v) for v in recvs.values())
    result.stats["sends"] = sum(len(v) for v in sends.values())


# -------------------------------------------------------------- coverage


def _covers(regions: List[Region], full: Region) -> bool:
    """Exact box coverage via coordinate compression (few regions)."""
    boxes = [r for r in regions if not r.is_empty]
    if not boxes:
        return full.is_empty
    rows = sorted({full.rows.start, full.rows.stop}
                  | {b.rows.start for b in boxes} | {b.rows.stop for b in boxes})
    cols = sorted({full.cols.start, full.cols.stop}
                  | {b.cols.start for b in boxes} | {b.cols.stop for b in boxes})
    chans = sorted({full.chans.start, full.chans.stop}
                   | {b.chans.start for b in boxes} | {b.chans.stop for b in boxes})
    for r0, r1 in zip(rows, rows[1:]):
        if r1 <= full.rows.start or r0 >= full.rows.stop:
            continue
        for c0, c1 in zip(cols, cols[1:]):
            if c1 <= full.cols.start or c0 >= full.cols.stop:
                continue
            for k0, k1 in zip(chans, chans[1:]):
                if k1 <= full.chans.start or k0 >= full.chans.stop:
                    continue
                if not any(
                    b.rows.start <= r0 and b.rows.stop >= r1
                    and b.cols.start <= c0 and b.cols.stop >= c1
                    and b.chans.start <= k0 and b.chans.stop >= k1
                    for b in boxes
                ):
                    return False
    return True


def _check_coverage(result: PassResult, compiled: "CompiledModel") -> None:
    graph = compiled.graph
    strata = compiled.strata
    layers_checked = 0

    for name in compiled.schedule:
        layer = graph.layer(name)
        if layer.is_input:
            continue
        regions = list(compiled.exec_regions[name])
        full = Region.full(layer.output_shape)
        layers_checked += 1

        for c, region in enumerate(regions):
            if not region.is_empty and not full.contains(region):
                result.emit(
                    "RPR513",
                    f"core {c} slice {region} exceeds the output shape "
                    f"{layer.output_shape}",
                    layer=name,
                    core=c,
                )

        if not strata.is_interior(name) and not _covers(regions, full):
            # Interior stratum layers legitimately compute only what the
            # layer below consumes (e.g. a crop discards the border);
            # RPR512 checks that sufficiency per core.  Every layer that
            # materializes its output must tile it exactly.
            result.emit(
                "RPR510",
                "per-core sub-slices do not cover the layer output; part "
                "of the tensor is never computed",
                layer=name,
                hint="the partitioner must tile the output exactly "
                "(weighted interval split)",
            )

        in_stratum = strata.stratum_of(name) is not None
        if not in_stratum:
            for a in range(len(regions)):
                if regions[a].is_empty:
                    continue
                for b in range(a + 1, len(regions)):
                    inter = regions[a].intersect(regions[b])
                    if not inter.is_empty:
                        result.emit(
                            "RPR511",
                            f"cores {a} and {b} both compute {inter} "
                            f"({inter.num_elements:,} elements of duplicate "
                            f"work outside any stratum)",
                            layer=name,
                            hint="overlap is only legitimate as stratum halo "
                            "inflation; the direction heuristic produced "
                            "disjoint slices",
                        )

    # Stratum inflation must localize every interior halo.
    for stratum in strata.strata:
        entries = stratum.entries
        for upper, lower in zip(entries, entries[1:]):
            lower_layer = graph.layer(lower.layer_name)
            for c, lower_region in enumerate(lower.out_regions):
                if lower_region.is_empty:
                    continue
                window = lower_layer.input_region(lower_region, 0)
                upper_region = upper.out_regions[c]
                if not upper_region.contains(window):
                    result.emit(
                        "RPR512",
                        f"inflated slice of {upper.layer_name!r} on core {c} "
                        f"({upper_region}) does not cover the input window "
                        f"{window} of {lower.layer_name!r}",
                        layer=upper.layer_name,
                        core=c,
                        hint="stratum inflation must equal the successor's "
                        "receptive field; otherwise the 'local' read races",
                    )

    result.stats["layers_covered"] = layers_checked
