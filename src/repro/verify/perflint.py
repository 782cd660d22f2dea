"""Performance lint over compiled command streams (RPR8xx).

Where the bounds pass (:mod:`repro.verify.bounds`) prices a schedule,
this pass pattern-matches the *shapes* that make schedules slow on a
multicore NPU -- each rule is a static, simulation-free diagnostic with
a stable code:

========= ==========================================================
RPR801    per-core compute imbalance above threshold
RPR802    serialized halo chain on the static critical path
RPR803    redundant barrier (removal proven safe via happens-before)
RPR804    double-buffer stall: load[k] serialized behind compute[k-1]
RPR805    sustained bus oversubscription window
========= ==========================================================

RPR801 and RPR805 price commands as the bounds pass does, from the
simulator's plan for the (program, machine) pair.

Every finding is a WARNING: the program is correct, it is just leaving
latency on the table.  Thresholds are tuned so all shipped h1--h8
compiler outputs over the model zoo lint clean; the corruption tests in
``tests/verify/test_perflint.py`` pin that each rule still fires on a
seeded bad schedule.

The RPR803 proof is conservative and sound: a barrier group is only
reported when (pre-filter) every dependency of every member is itself a
barrier command, and (proof) rebuilding the happens-before relation
over a copy of the program's deps column with the group's edges
stripped shows every ordering the group provided -- each (dependency,
consumer) pair -- still holds through other edges.  No false positives;
exotic redundancy that fails the pre-filter is simply not reported.

Every rule reads the program's columns, a command by its position.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.analysis.critical_path import longest_path_times
from repro.compiler.program import CommandKind, Engine, Program
from repro.sim.simulator import _JOIN_BUS, _plan_for
from repro.verify.bounds import _durations, bounds_for
from repro.verify.diagnostics import PassResult, Severity
from repro.verify.hb import HappensBefore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compiler import CompiledModel

#: RPR801 fires when (max - min) / max per-core compute cycles exceeds
#: this (across cores that run any compute at all).  Shipped h1-h8
#: schedules on the heterogeneous exynos2100-like cores reach ~30%
#: (whole-tile granularity + per-op launch overhead), so the threshold
#: flags only genuinely lopsided partitions.
IMBALANCE_THRESHOLD = 0.40

#: RPR802 fires on this many *consecutive* halo commands on the static
#: lower-bound critical path (send -> recv pairs chain in twos; three or
#: more means cross-core halo traffic has serialized).
HALO_CHAIN_MIN = 3

#: RPR805 fires when instantaneous DMA-link demand exceeds the bus
#: bandwidth by this factor ...  (shipped schedules peak at ~1.64x for
#: under 30% of the makespan, so both gates must trip together)
BUS_OVERSUB_RATIO = 2.0
#: ... for at least this fraction of the optimistic makespan.
BUS_OVERSUB_FRACTION = 0.4

_LOAD_KINDS = (CommandKind.LOAD_INPUT, CommandKind.LOAD_WEIGHT)
_HALO_KINDS = (CommandKind.HALO_SEND, CommandKind.HALO_RECV)


def _check_imbalance(compiled: "CompiledModel", result: PassResult) -> None:
    """RPR801: per-core compute work spread."""
    base_delay = _plan_for(compiled.program, compiled.npu).base_delay
    cols = compiled.program.columns()
    per_core: Dict[int, float] = {}
    for core, kind, macs, delay in zip(cols.core, cols.kind, cols.macs, base_delay):
        if kind is CommandKind.COMPUTE and macs > 0:
            per_core[core] = per_core.get(core, 0.0) + delay
    if len(per_core) < 2:
        result.stats["compute_imbalance_pct"] = 0
        return
    hi = max(per_core.values())
    lo = min(per_core.values())
    imbalance = (hi - lo) / hi if hi > 0 else 0.0
    result.stats["compute_imbalance_pct"] = int(round(imbalance * 100))
    if imbalance > IMBALANCE_THRESHOLD:
        slow = max(per_core, key=lambda c: (per_core[c], -c))
        fast = min(per_core, key=lambda c: (per_core[c], c))
        result.emit(
            "RPR801",
            f"compute imbalance {imbalance:.0%} across cores: core {slow} "
            f"runs {per_core[slow]:,.0f} cycles vs {per_core[fast]:,.0f} on "
            f"core {fast} (threshold {IMBALANCE_THRESHOLD:.0%})",
            severity=Severity.WARNING,
            core=slow,
            hint="repartition sub-layers toward the idle cores "
            "(per-core shares should track effective MACs/cycle)",
        )


def _check_halo_chains(compiled: "CompiledModel", result: PassResult) -> None:
    """RPR802: consecutive halo commands on the static critical path."""
    cols = compiled.program.columns()
    report = bounds_for(compiled.program, compiled.npu)
    longest = 0
    run: List[int] = []
    flagged: List[List[int]] = []
    # path_cids is last-command-first; chain order does not matter for
    # run detection.
    for cid in report.path_cids:
        if cols.kind[cid] in _HALO_KINDS:
            run.append(cid)
        else:
            if len(run) >= HALO_CHAIN_MIN:
                flagged.append(run)
            longest = max(longest, len(run))
            run = []
    if len(run) >= HALO_CHAIN_MIN:
        flagged.append(run)
    longest = max(longest, len(run))
    result.stats["halo_chain_longest"] = longest
    for chain in flagged:
        head = chain[-1]  # earliest command of the run
        layer = cols.layer[head]
        result.emit(
            "RPR802",
            f"{len(chain)} consecutive halo exchanges on the critical path "
            f"starting at {layer or '#' + str(head)}",
            severity=Severity.WARNING,
            layer=layer,
            core=cols.core[head],
            cid=head,
            hint="serialized halo traffic: inflate tiles (redundant "
            "compute) or re-partition so exchanges overlap compute",
        )


def _barrier_groups(program: Program) -> Dict[Tuple[str, str], List[int]]:
    cols = program.columns()
    groups: Dict[Tuple[str, str], List[int]] = {}
    for cid, (kind, layer, tag) in enumerate(zip(cols.kind, cols.layer, cols.tag)):
        if kind is CommandKind.BARRIER:
            groups.setdefault((layer, tag), []).append(cid)
    return groups


def _check_redundant_barriers(
    compiled: "CompiledModel", result: PassResult
) -> None:
    """RPR803: barrier groups whose removal is provably safe."""
    program = compiled.program
    cols = program.columns()
    deps_of, kinds = cols.deps, cols.kind
    consumers = _plan_for(program, compiled.npu).consumers

    redundant = 0
    for (layer, tag), members in sorted(_barrier_groups(program).items()):
        member_set = set(members)
        # Pre-filter: the group only re-synchronizes other barriers --
        # the one shape where removal can be cheaply proven safe.
        deps = [
            d
            for b in members
            for d in deps_of[b]
            if d not in member_set
        ]
        if not deps or any(
            kinds[d] is not CommandKind.BARRIER for d in deps
        ):
            continue
        provided = [
            (d, x)
            for b in members
            for d in deps_of[b]
            if d not in member_set
            for x in consumers[b]
            if x not in member_set
        ]
        # Proof: strip the group's edges and re-derive happens-before.
        stripped = list(deps_of)
        for b in members:
            for x in consumers[b]:
                stripped[x] = tuple(d for d in deps_of[x] if d not in member_set)
        for b in members:
            stripped[b] = ()
        hb2 = HappensBefore(program, deps=stripped)
        if all(hb2.ordered(d, x) for d, x in provided):
            redundant += 1
            head = members[0]
            result.emit(
                "RPR803",
                f"barrier group ({layer!r}, {tag!r}) over {len(members)} "
                "core(s) is redundant: every ordering it provides already "
                "holds without it",
                severity=Severity.WARNING,
                layer=layer,
                core=cols.core[head],
                cid=head,
                hint="remove the barrier; the happens-before relation of "
                "the remaining edges is unchanged",
            )
    result.stats["redundant_barriers"] = redundant


def _check_double_buffer(
    compiled: "CompiledModel", hb: HappensBefore, result: PassResult
) -> None:
    """RPR804: load[k] ordered after compute[k-1] within one layer."""
    program = compiled.program
    cols = program.columns()
    layers, kinds = cols.layer, cols.kind
    stalls = 0
    flagged: set = set()
    queues = program.engine_queues()
    for (core, engine), queue in zip(queues.keys, queues.members):
        if engine is not Engine.COMPUTE:
            continue
        for prev, cur in zip(queue, queue[1:]):
            if layers[cur] != layers[prev]:
                continue  # double buffering applies within a layer's tiles
            for d in cols.deps[cur]:
                kind = kinds[d]
                if (
                    kind in _LOAD_KINDS
                    and cols.num_bytes[d] > 0
                    and cols.core[d] == core
                    and hb.ordered(prev, d)
                ):
                    stalls += 1
                    if (core, layers[cur]) not in flagged:
                        flagged.add((core, layers[cur]))
                        result.emit(
                            "RPR804",
                            f"double-buffer stall: {kind.value} #{d} for "
                            f"compute #{cur} cannot start until compute "
                            f"#{prev} finishes -- load and compute of "
                            "consecutive tiles are serialized",
                            severity=Severity.WARNING,
                            layer=layers[cur],
                            core=core,
                            cid=d,
                            hint="prefetch tile k during compute of tile k-1 "
                            "(depend on compute[k-2], not compute[k-1])",
                        )
                    break
    result.stats["double_buffer_stalls"] = stalls


def _check_bus_oversubscription(
    compiled: "CompiledModel", result: PassResult
) -> None:
    """RPR805: sustained DMA-link demand beyond the bus bandwidth.

    Uses the optimistic (lower-bound) timeline: each ``bytes > 0``
    transfer demands its link cap from the moment its fixed latency
    elapses until its optimistic completion.  Demand above the bus
    bandwidth means water-filling will throttle transfers; a schedule
    that oversubscribes by :data:`BUS_OVERSUB_RATIO` for
    :data:`BUS_OVERSUB_FRACTION` of its best-case makespan is leaving
    the bus as its bottleneck.
    """
    program = compiled.program
    npu = compiled.npu
    bw = npu.bus_bytes_per_cycle
    result.stats["bus_peak_ratio_pct"] = 0
    result.stats["bus_oversub_pct"] = 0
    plan = _plan_for(program, npu)
    if not plan.total:
        return
    lo, _, _, _ = _durations(plan, npu)
    starts, finishes, _ = longest_path_times(program, lo)
    makespan = max(finishes)
    if makespan <= 0:
        return

    deltas: List[Tuple[float, float]] = []
    for cid, evkind in enumerate(plan.evkind):
        if evkind != _JOIN_BUS:
            continue
        begin = starts[cid] + plan.base_delay[cid]
        end = finishes[cid]
        if end <= begin:
            continue
        cap = min(plan.dma_cap[cid], bw)
        deltas.append((begin, cap))
        deltas.append((end, -cap))
    if not deltas:
        return
    deltas.sort()
    demand = 0.0
    peak = 0.0
    over_time = 0.0
    prev_t = deltas[0][0]
    for t, delta in deltas:
        if t > prev_t and demand > bw:
            over_time += t - prev_t
        prev_t = t
        demand += delta
        peak = max(peak, demand)
    peak_ratio = peak / bw
    over_fraction = over_time / makespan
    result.stats["bus_peak_ratio_pct"] = int(round(peak_ratio * 100))
    result.stats["bus_oversub_pct"] = int(round(over_fraction * 100))
    if peak_ratio >= BUS_OVERSUB_RATIO and over_fraction >= BUS_OVERSUB_FRACTION:
        result.emit(
            "RPR805",
            f"bus oversubscribed: peak DMA-link demand {peak_ratio:.1f}x "
            f"the bus bandwidth for {over_fraction:.0%} of the best-case "
            "makespan",
            severity=Severity.WARNING,
            hint="stagger transfers (smaller tiles, earlier prefetch) or "
            "keep activations resident to cut concurrent DMA demand",
        )


def check_perflint(
    compiled: "CompiledModel", hb: HappensBefore
) -> PassResult:
    """Run every RPR8xx rule over one compiled model."""
    result = PassResult(name="perflint")
    _check_imbalance(compiled, result)
    _check_halo_chains(compiled, result)
    _check_redundant_barriers(compiled, result)
    _check_double_buffer(compiled, hb, result)
    _check_bus_oversubscription(compiled, result)
    return result
