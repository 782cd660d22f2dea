"""The retained object-based event-driven scheduler core.

This is the previous generation of :func:`repro.sim.simulate`'s hot
loop, kept verbatim -- per-object :class:`~tests.sim.fluid_bus.FluidBus`
transfers, eager water-filling on every membership change, and trace
readiness fields computed inside the loop -- for the same reason
:mod:`tests.sim.reference_scheduler` keeps the queue-scanning original:
each generation pins the next one.  The flat struct-of-arrays core in
:mod:`repro.sim.simulator` must produce bit-identical traces to this
implementation for equal seeds (``tests/sim/test_flat_core.py``), and
``benchmarks/bench_sim_speed.py`` measures both on the same machine so
the speed ordering reference < event-driven < flat is a tested
invariant rather than a stale number in a JSON file.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.compiler.program import Program
from repro.hw.config import NPUConfig
from repro.sim.simulator import _EPS, _END, SimResult, _plan_for

from tests.sim.fluid_bus import FluidBus
from tests.sim.trace_rows import oracle_trace


def dependencies(
    program: Program,
) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]:
    """Each command's dependencies and its same-core ones, derived from
    the program's columns here rather than read from the simulator's
    plan, so the readiness fields these cores compute check the plan's
    readiness rows independently."""
    cols = program.columns()
    core_of = cols.core
    own = [
        tuple(d for d in deps if core_of[d] == core)
        for core, deps in zip(core_of, cols.deps)
    ]
    return cols.deps, own


def simulate_event_driven(program: Program, npu: NPUConfig, seed: int = 0) -> SimResult:
    """Clean (fault-free) simulation on the retained object-based core.

    Bit-identical to :func:`repro.sim.simulate` with ``memo=None`` for
    equal seeds; exists only as a pinning target and benchmark baseline.
    """
    if program.num_cores > npu.num_cores:
        raise ValueError(
            f"program targets {program.num_cores} cores, machine has {npu.num_cores}"
        )
    plan = _plan_for(program, npu)
    commands = program.commands
    total = plan.total

    qcids = plan.qcids
    nq = len(qcids)
    qid_of = plan.qid_of
    deps_of, own_deps_of = dependencies(program)
    consumers = plan.consumers
    indeg = list(plan.indeg0)
    evkind = plan.evkind
    dma_cap = plan.dma_cap
    delay = plan.delays_for(seed)

    qhead = [0] * nq
    qbusy = [False] * nq
    qfree_at = [0.0] * nq

    done_at = [0.0] * total
    r_start = [0.0] * total
    r_own = [0.0] * total
    r_dep = [0.0] * total
    running: set = set()
    completed = 0

    heap: List[Tuple[float, int, int, int]] = []  # (time, seq, evkind, cid)
    seq = 0
    bus = FluidBus(npu.bus_bytes_per_cycle)
    bus_active = bus._active  # alias: skip property/len calls in the loop
    clock = 0.0

    check: List[int] = list(range(nq))

    inf = float("inf")
    heappush = heapq.heappush
    heappop = heapq.heappop
    bus_eta = bus.eta
    bus_advance = bus.advance
    bus_add = bus.add

    def complete(cid: int, now: float) -> None:
        nonlocal completed
        running.discard(cid)
        done_at[cid] = now
        completed += 1
        qid = qid_of[cid]
        qbusy[qid] = False
        qfree_at[qid] = now
        check.append(qid)
        for consumer in consumers[cid]:
            left = indeg[consumer] - 1
            indeg[consumer] = left
            if not left:
                check.append(qid_of[consumer])

    while completed < total:
        while check:
            qid = check.pop()
            if qbusy[qid]:
                continue
            idx = qhead[qid]
            cids = qcids[qid]
            if idx >= len(cids):
                continue
            cid = cids[idx]
            if indeg[cid]:
                continue
            dep_ready = 0.0
            for d in deps_of[cid]:
                t = done_at[d]
                if t > dep_ready:
                    dep_ready = t
            own_ready = qfree_at[qid]
            for d in own_deps_of[cid]:
                t = done_at[d]
                if t > own_ready:
                    own_ready = t
            r_start[cid] = clock
            r_own[cid] = own_ready
            r_dep[cid] = dep_ready
            running.add(cid)
            qbusy[qid] = True
            qhead[qid] = idx + 1
            heappush(heap, (clock + delay[cid], seq, evkind[cid], cid))
            seq += 1

        t_heap = heap[0][0] if heap else inf
        t_bus = clock + bus_eta() if bus_active else inf
        t_next = t_heap if t_heap <= t_bus else t_bus
        if t_next == inf:
            stuck = [str(commands[c]) for c in running]
            waiting = [
                str(commands[qcids[qid][qhead[qid]]])
                for qid in range(nq)
                if not qbusy[qid] and qhead[qid] < len(qcids[qid])
            ]
            raise RuntimeError(
                f"simulation deadlock at t={clock}: running={stuck}, "
                f"blocked heads={waiting[:8]}"
            )
        dt = t_next - clock
        finished_dma = bus_advance(dt) if bus_active else ()
        if (
            not finished_dma
            and t_next == t_bus
            and t_next <= clock
        ):
            # eta underflowed the clock's float resolution: retire the
            # nearest transfer directly rather than spinning at dt == 0.
            finished_dma = bus.force_min_completion()
        clock = t_next
        for cid in finished_dma:
            complete(cid, clock)
        threshold = clock + _EPS
        while heap and heap[0][0] <= threshold:
            _, _, kind, cid = heappop(heap)
            if kind == _END:
                complete(cid, clock)
            else:
                bus_add(cid, commands[cid].num_bytes, dma_cap[cid])

    # The static fields come from the commands, not the plan, so they
    # check the plan's trace columns independently.
    trace = oracle_trace(commands, r_start, done_at, r_own, r_dep)
    return SimResult(trace=trace, makespan_cycles=trace.makespan, npu=npu)
