"""The retained queue-scanning reference scheduler.

This is the original simulator core, kept verbatim as the behavioral
oracle for the event-driven scheduler in :mod:`repro.sim.simulator`.
Its main loop re-scans every (core, engine) queue head and re-checks
every dependency list on each iteration -- O(commands x queues) -- which
is what the event-driven rewrite eliminates.  The two must produce
bit-identical traces for equal seeds; ``tests/sim/test_scheduler_
equivalence.py`` pins that down across the model zoo, the paper
configurations, and random programs.

Do not optimize this module: its value is that it stays simple enough to
audit by eye.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Tuple

from repro.compiler.program import Command, CommandKind, Engine, Program
from repro.cost.compute import compute_cycles
from repro.hw.config import NPUConfig
from repro.sim.simulator import _EPS, _END, _JOIN_BUS

from tests.sim.fluid_bus import FluidBus
from tests.sim.trace_rows import oracle_trace


class _Running:
    __slots__ = ("cmd", "start", "own_ready", "dep_ready")

    def __init__(self, cmd: Command, start: float, own_ready: float, dep_ready: float):
        self.cmd = cmd
        self.start = start
        self.own_ready = own_ready
        self.dep_ready = dep_ready


def simulate_reference(program: Program, npu: NPUConfig, seed: int = 0):
    """Run ``program`` with the reference scheduler; returns a SimResult.

    Semantics are identical to :func:`repro.sim.simulator.simulate`; only
    the scheduling data structures differ.
    """
    from repro.sim.simulator import SimResult

    program.validate()
    if program.num_cores > npu.num_cores:
        raise ValueError(
            f"program targets {program.num_cores} cores, machine has {npu.num_cores}"
        )

    queues: Dict[Tuple[int, Engine], List[Command]] = {}
    for cmd in program.commands:
        queues.setdefault((cmd.core, cmd.engine), []).append(cmd)
    head: Dict[Tuple[int, Engine], int] = {key: 0 for key in queues}
    engine_free_at: Dict[Tuple[int, Engine], float] = {key: 0.0 for key in queues}
    engine_busy: Dict[Tuple[int, Engine], bool] = {key: False for key in queues}

    done_at: Dict[int, float] = {}
    running: Dict[int, _Running] = {}
    total = len(program.commands)
    r_start = [0.0] * total
    r_own = [0.0] * total
    r_dep = [0.0] * total

    heap: List[Tuple[float, int, int, int]] = []  # (time, seq, evkind, cid)
    seq = 0
    bus = FluidBus(npu.bus_bytes_per_cycle)
    clock = 0.0

    core_of = {c.cid: c.core for c in program.commands}

    def jitter(cmd: Command) -> float:
        """Deterministic per-command service-time jitter.

        Cross-core coordination runs through the host driver, whose
        service time varies; hardware-timed compute and plain DMA do not
        draw jitter (it would hit every configuration equally).
        """
        if cmd.kind is CommandKind.BARRIER:
            bound = npu.sync_jitter_cycles
        elif cmd.kind in (CommandKind.HALO_SEND, CommandKind.HALO_RECV):
            bound = npu.halo_jitter_cycles
        else:
            return 0.0
        if bound <= 0:
            return 0.0
        rng = random.Random((seed << 32) ^ (cmd.cid * 2654435761))
        return rng.uniform(0.0, bound)

    def duration_fixed(cmd: Command) -> float:
        if cmd.kind is CommandKind.COMPUTE:
            return compute_cycles(cmd.macs, npu.core(cmd.core))
        if cmd.kind is CommandKind.BARRIER:
            return cmd.cycles + jitter(cmd)
        raise ValueError(f"{cmd} has no fixed duration")

    def try_start(now: float) -> bool:
        nonlocal seq
        started = False
        for key, cmds in queues.items():
            if engine_busy[key]:
                continue
            idx = head[key]
            if idx >= len(cmds):
                continue
            cmd = cmds[idx]
            if any(dep not in done_at for dep in cmd.deps):
                continue
            dep_ready = max((done_at[d] for d in cmd.deps), default=0.0)
            own_dep_ready = max(
                (done_at[d] for d in cmd.deps if core_of[d] == cmd.core),
                default=0.0,
            )
            own_ready = max(engine_free_at[key], own_dep_ready)
            running[cmd.cid] = _Running(cmd, now, own_ready, dep_ready)
            engine_busy[key] = True
            head[key] = idx + 1
            if cmd.is_dma:
                # Fixed first-byte latency (plus any command-specific setup
                # like the halo-exchange rendezvous), then the fluid bus.
                latency = npu.dram_latency_cycles + cmd.cycles + jitter(cmd)
                if cmd.num_bytes > 0:
                    heapq.heappush(heap, (now + latency, seq, _JOIN_BUS, cmd.cid))
                else:
                    heapq.heappush(heap, (now + latency, seq, _END, cmd.cid))
            else:
                heapq.heappush(
                    heap, (now + duration_fixed(cmd), seq, _END, cmd.cid)
                )
            seq += 1
            started = True
        return started

    def complete(cid: int, now: float) -> None:
        run = running.pop(cid)
        cmd = run.cmd
        done_at[cid] = now
        key = (cmd.core, cmd.engine)
        engine_busy[key] = False
        engine_free_at[key] = now
        r_start[cid] = run.start
        r_own[cid] = run.own_ready
        r_dep[cid] = run.dep_ready

    while len(done_at) < total:
        if try_start(clock):
            continue
        t_heap = heap[0][0] if heap else float("inf")
        t_bus = clock + bus.eta() if bus.num_active else float("inf")
        t_next = min(t_heap, t_bus)
        if t_next == float("inf"):
            stuck = [str(program.command(c)) for c in running]
            waiting = [
                str(cmds[head[key]])
                for key, cmds in queues.items()
                if not engine_busy[key] and head[key] < len(cmds)
            ]
            raise RuntimeError(
                f"simulation deadlock at t={clock}: running={stuck}, "
                f"blocked heads={waiting[:8]}"
            )
        dt = t_next - clock
        finished_dma = bus.advance(dt) if bus.num_active else []
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
        while heap and heap[0][0] <= clock + _EPS:
            _, _, evkind, cid = heapq.heappop(heap)
            if evkind == _END:
                complete(cid, clock)
            else:
                cmd = running[cid].cmd
                bus.add(cid, cmd.num_bytes, npu.core(cmd.core).dma_bytes_per_cycle)

    done = [done_at[cid] for cid in range(total)]
    trace = oracle_trace(program.commands, r_start, done, r_own, r_dep)
    return SimResult(trace=trace, makespan_cycles=trace.makespan, npu=npu)
