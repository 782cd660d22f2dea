"""Race / synchronization pass (RPR1xx).

The paper's central claim is that its cheaper coordination mechanisms --
lazy barriers, halo-exchange rendezvous, SPM forwarding -- order every
cross-core read after the write that produced the data (Figures 9/12).
This pass proves it from first principles: it re-derives, from the
graph, the partition regions, and the forwarding plan, *which* remote
data every consumer sub-layer reads, and then checks in the
happens-before relation that the consumer's load / receive / compute is
ordered after the producer's store / send / compute.

Codes:

* ``RPR101`` -- consumer load not ordered after a remote producer store
* ``RPR102`` -- consumer load not ordered after the same-core producer store
* ``RPR103`` -- remote data is read but no transport exists (missing
  halo receive, or a FORWARD edge whose local slice does not cover)
* ``RPR104`` -- halo receive not ordered after its peer's send
* ``RPR105`` -- halo receive never consumed by any compute
* ``RPR106`` -- halo send not ordered after any producing compute
* ``RPR107`` -- forwarded SPM input: producer computes not ordered
  before consumer computes on the core
* ``RPR108`` -- consumer streams an input but emits no load commands
* ``RPR109`` -- consumer streams an input whose producer never stores
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.compiler.allocator import InputMode
from repro.compiler.program import CommandKind
from repro.verify.diagnostics import PassResult
from repro.verify.hb import HappensBefore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compiler import CompiledModel

#: command positions of each (layer, core, kind) (:meth:`Program.groups`)
_Groups = Dict[Tuple[str, int, CommandKind], List[int]]


def check_races(compiled: "CompiledModel", hb: HappensBefore) -> PassResult:
    """Run the race/sync pass over one compiled model."""
    result = PassResult(name="race")
    program = compiled.program
    graph = compiled.graph
    npu = compiled.npu
    forwarding = compiled.forwarding
    regions = compiled.exec_regions

    groups = program.groups()
    edges = 0
    pairs = 0

    for name in compiled.schedule:
        layer = graph.layer(name)
        if layer.is_input:
            continue
        for i, producer_name in enumerate(layer.inputs):
            producer = graph.layer(producer_name)
            if producer.is_input:
                continue
            decision = forwarding.decision(name, i)
            mode = decision.mode if decision is not None else InputMode.GLOBAL
            streams = not mode.is_forwarding
            cons_regions = regions[name]
            prod_regions = regions[producer_name]
            edges += 1

            for c in range(npu.num_cores):
                out_region = cons_regions[c]
                if out_region.is_empty:
                    continue
                needed = layer.input_region(out_region, i)
                if needed.is_empty:
                    continue
                owned_local = prod_regions[c] if c < len(prod_regions) else None
                loads = groups.get((name, c, CommandKind.LOAD_INPUT), [])
                computes = groups.get((name, c, CommandKind.COMPUTE), [])
                recvs = groups.get((name, c, CommandKind.HALO_RECV), [])

                # ---- local slice: stream ordered after same-core store
                local_part = (
                    needed.intersect(owned_local) if owned_local is not None else None
                )
                if (
                    streams
                    and local_part is not None
                    and not local_part.is_empty
                    and forwarding.stores.get(producer_name, False)
                ):
                    local_stores = groups.get(
                        (producer_name, c, CommandKind.STORE_OUTPUT), []
                    )
                    if local_stores:
                        last_store = local_stores[-1]
                        if not loads:
                            result.emit(
                                "RPR108",
                                f"input {i} ({producer_name}) is streamed but "
                                f"the sub-layer emits no load commands",
                                layer=name,
                                core=c,
                            )
                        for ld in loads:
                            pairs += 1
                            if not hb.ordered(last_store, ld):
                                result.emit(
                                    "RPR102",
                                    f"load #{ld} reads {producer_name} from "
                                    f"global memory but is not ordered after "
                                    f"the same core's store #{last_store}",
                                    layer=name,
                                    core=c,
                                    cid=ld,
                                    hint="the lowering must add the last-store "
                                    "dependency (or a barrier) to every load",
                                )

                # ---- forwarded (SPM-resident) local slice
                if mode.is_forwarding:
                    prod_computes = groups.get(
                        (producer_name, c, CommandKind.COMPUTE), []
                    )
                    if prod_computes and computes:
                        pairs += 1
                        if not hb.ordered(prod_computes[-1], computes[0]):
                            result.emit(
                                "RPR107",
                                f"forwarded input {i} ({producer_name}): producer "
                                f"computes are not ordered before consumer computes",
                                layer=name,
                                core=c,
                                cid=computes[0],
                                hint="same-core compute order must follow the "
                                "schedule when feature maps stay in the SPM",
                            )

                # ---- remote slices, one producer core at a time
                for j in range(npu.num_cores):
                    if j == c or j >= len(prod_regions):
                        continue
                    owned_remote = prod_regions[j]
                    if owned_remote.is_empty:
                        continue
                    remote = needed.intersect(owned_remote)
                    if remote.is_empty:
                        continue
                    if owned_local is not None and owned_local.contains(remote):
                        # Locally recomputed (stratum inflation): nothing moves.
                        continue
                    pairs += 1
                    if mode.uses_halo:
                        _check_halo_edge(
                            result, hb, groups, name, producer_name,
                            c, j, recvs, computes,
                        )
                    elif streams:
                        _check_global_edge(
                            result, hb, groups, name, producer_name, i,
                            c, j, loads, forwarding,
                        )
                    else:
                        result.emit(
                            "RPR103",
                            f"FORWARD input {i} ({producer_name}) needs remote "
                            f"data from core {j} but forwarding keeps only the "
                            f"local slice resident",
                            layer=name,
                            core=c,
                            hint="the edge should have been GLOBAL or *_HALO, "
                            "or the producer regions must cover locally",
                        )

    # ---- every receive must feed some compute
    for (lname, core, kind), cmds in groups.items():
        if kind is not CommandKind.HALO_RECV:
            continue
        computes = groups.get((lname, core, CommandKind.COMPUTE), [])
        for recv in cmds:
            if not any(hb.ordered(recv, k) for k in computes):
                result.emit(
                    "RPR105",
                    f"halo receive #{recv} is never consumed by any "
                    f"compute of its sub-layer",
                    layer=lname,
                    core=core,
                    cid=recv,
                    hint="received data that no compute waits for is either "
                    "dead traffic or an ordering bug",
                )

    result.stats["edges"] = edges
    result.stats["ordering_checks"] = pairs
    return result


def _check_global_edge(
    result: PassResult,
    hb: HappensBefore,
    groups: _Groups,
    name: str,
    producer_name: str,
    input_index: int,
    c: int,
    j: int,
    loads: List[int],
    forwarding,
) -> None:
    """Store-sync-load path: loads on ``c`` after stores on ``j``."""
    if not forwarding.stores.get(producer_name, False):
        result.emit(
            "RPR109",
            f"input {input_index} ({producer_name}) is streamed from global "
            f"memory but its producer never stores",
            layer=name,
            core=c,
            hint="forwarding.stores disagrees with the input mode",
        )
        return
    remote_stores = groups.get((producer_name, j, CommandKind.STORE_OUTPUT), [])
    if not remote_stores:
        result.emit(
            "RPR109",
            f"core {c} reads {producer_name} data owned by core {j}, "
            f"which emitted no store commands",
            layer=name,
            core=c,
        )
        return
    if not loads:
        result.emit(
            "RPR108",
            f"input {input_index} ({producer_name}) is streamed but the "
            f"sub-layer emits no load commands",
            layer=name,
            core=c,
        )
        return
    last_store = remote_stores[-1]
    for ld in loads:
        if not hb.ordered(last_store, ld):
            result.emit(
                "RPR101",
                f"load #{ld} reads {producer_name} data stored by core "
                f"{j} (store #{last_store}) without a happens-before "
                f"ordering -- a cross-core data race",
                layer=name,
                core=c,
                cid=ld,
                hint="a barrier (or halo exchange) must order the consumer "
                "after the remote store",
            )


def _check_halo_edge(
    result: PassResult,
    hb: HappensBefore,
    groups: _Groups,
    name: str,
    producer_name: str,
    c: int,
    j: int,
    recvs: List[int],
    computes: List[int],
) -> None:
    """Halo rendezvous: recv on ``c`` after send on ``j`` after compute."""
    if not recvs:
        result.emit(
            "RPR103",
            f"core {c} needs halo data of {producer_name} from core {j} "
            f"but emits no halo receive",
            layer=name,
            core=c,
            hint="the lowering must emit a HALO_RECV for every non-empty "
            "remote piece",
        )
        return
    sends = groups.get((producer_name, j, CommandKind.HALO_SEND), [])
    matched = [
        (s, r)
        for r in recvs
        for s in sends
        if hb.ordered(s, r)
    ]
    if not matched:
        result.emit(
            "RPR104",
            f"no halo receive on core {c} is ordered after a matching "
            f"send of {producer_name} on core {j}",
            layer=name,
            core=c,
            cid=recvs[0],
            hint="the receive must list the peer send as a dependency "
            "(the rendezvous is the synchronization)",
        )
        return
    prod_computes = groups.get((producer_name, j, CommandKind.COMPUTE), [])
    for s, _ in matched:
        if prod_computes and not any(
            hb.ordered(k, s) for k in prod_computes
        ):
            result.emit(
                "RPR106",
                f"halo send #{s} of {producer_name} on core {j} is not "
                f"ordered after any compute that produces the sent data",
                layer=producer_name,
                core=j,
                cid=s,
                hint="the send must depend on the computes covering the "
                "halo region",
            )
