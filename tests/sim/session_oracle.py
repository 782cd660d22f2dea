"""Test-only oracles: the object-bus session and fault loops.

These are the :class:`~repro.sim.session.SimSession` event loop and the
one-shot fault loop as they stood before both were rebuilt on the
flat-array core: per-object :class:`~tests.sim.fluid_bus.FluidBus`
transfers, ``(injection id, command id)`` tuples as heap and bus keys,
and readiness fields computed inside the loop.  They exist only to pin
the rebuilt loop bit-for-bit (``tests/sim/test_session_oracle.py``),
the way :mod:`tests.sim.event_core` pins one-shot clean runs.  The memo fast
path and the static-bracket check are left out: they bypass or observe
the loop rather than being part of it.

Do not optimize this module: its value is that it stays simple enough to
audit by eye.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.compiler.program import Command, CommandKind, Engine, Program
from repro.faults.plan import FaultPlan, FaultStats
from repro.hw.config import NPUConfig
from repro.sim.session import InjectionOutcome
from repro.sim.simulator import _EPS, _END, _JOIN_BUS, SimResult, _plan_for, _SimPlan
from repro.sim.trace import STATIC_FIELDS, Trace, TraceColumns

from tests.sim.event_core import dependencies
from tests.sim.fluid_bus import FluidBus

#: heap event kinds beyond the plan's command kinds (_END, _JOIN_BUS)
_WAKE = 2
_OFFLINE = 3

#: heap/bus payload for a command: (injection id, command id).
Gid = Tuple[int, int]


def _finished_columns(
    commands: Sequence[Command],
    finished_cids: List[int],
    r_start: List[float],
    done_at: List[float],
    r_own: List[float],
    r_dep: List[float],
) -> TraceColumns:
    """Columnar trace payload for a finished subset of ``commands``.

    ``finished_cids`` must be ascending: the stable sort on start then
    equals ordering by (start, cid), the event order every core emits.
    The static fields come from the commands, not from the plan.
    """
    order = sorted(finished_cids, key=r_start.__getitem__)
    return TraceColumns(
        cids=order,
        start=[r_start[c] for c in order],
        end=[done_at[c] for c in order],
        own_ready=[r_own[c] for c in order],
        dep_ready=[r_dep[c] for c in order],
        static={name: [getattr(c, name) for c in commands] for name in STATIC_FIELDS},
    )


def _merge_windows(
    windows: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _stalled_until(windows: List[Tuple[float, float]], t: float) -> float:
    """End of the window containing ``t`` (half-open), else 0."""
    for start, end in windows:
        if start <= t < end:
            return end
        if start > t:
            break
    return 0.0


class _Queue:
    """One physical in-order (core, engine) command queue."""

    __slots__ = ("core", "engine", "cids", "head", "busy", "free_at")

    def __init__(self, core: int, engine: Engine) -> None:
        self.core = core
        self.engine = engine
        self.cids: List[Gid] = []
        self.head = 0
        self.busy = False
        self.free_at = 0.0


class _Active:
    """Per-injection scheduling state (the mutable half of a _SimPlan)."""

    __slots__ = (
        "iid", "label", "meta", "program", "plan", "commands", "deps_of",
        "own_deps_of", "delay",
        "indeg", "done_at", "r_start", "r_own", "r_dep", "finished",
        "doomed", "qpos", "pqids", "completed", "num_doomed", "total",
        "origin_us", "injected_at",
    )

    def __init__(
        self,
        iid: int,
        program: Program,
        plan: _SimPlan,
        seed: int,
        label: str,
        meta: Any,
        origin_us: float,
        injected_at: float,
    ) -> None:
        self.iid = iid
        self.label = label
        self.meta = meta
        self.program = program
        self.plan = plan
        self.commands = program.commands
        self.deps_of, self.own_deps_of = dependencies(program)
        total = plan.total
        self.total = total
        self.indeg = list(plan.indeg0)
        self.done_at = [0.0] * total
        self.r_start = [0.0] * total
        self.r_own = [0.0] * total
        self.r_dep = [0.0] * total
        self.finished = [False] * total
        self.doomed = [False] * total
        self.completed = 0
        self.num_doomed = 0
        self.origin_us = origin_us
        self.injected_at = injected_at
        # Same seeded coordination jitter as the one-shot simulators
        # (shared cached table; read-only).
        self.delay = plan.delays_for(seed)
        # Position of each command within its plan queue (for dooming
        # in-order successors under core-offline faults).
        qpos = [0] * total
        for cids in plan.qcids:
            for pos, cid in enumerate(cids):
                qpos[cid] = pos
        self.qpos = qpos
        #: plan qid -> session qid; filled in by the session at inject.
        self.pqids: List[int] = []


class OracleSession:
    """A resumable simulation timeline accepting program injections.

    ``faults`` (a non-empty :class:`~repro.faults.plan.FaultPlan`) arms
    the fault machinery on the session's
    absolute clock: stall windows and core-offline events are placed at
    their plan times, heat accumulates across injections and cools
    through idle gaps.  A clean session keeps every fault structure
    empty, so the hot loop runs the exact arithmetic of the clean
    simulator.
    """

    def __init__(self, npu: NPUConfig, faults: Optional[FaultPlan] = None) -> None:
        self.npu = npu
        self.faults = faults if (faults is not None and not faults.is_empty) else None
        self.origin_us = 0.0
        self.clock = 0.0
        self._queues: List[_Queue] = []
        self._qid_of_key: Dict[Tuple[int, Engine], int] = {}
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self._bus = FluidBus(npu.bus_bytes_per_cycle)
        self._check: List[int] = []
        self._active: Dict[int, _Active] = {}
        self._completions: List[InjectionOutcome] = []
        self._next_id = 0
        self._running: set = set()
        self._running_core: Dict[Gid, int] = {}
        self._cancelled: set = set()

        # ---- fault state (all empty / inert on clean sessions) -----
        n = npu.num_cores
        self.dead = [False] * n
        self.heat = [0.0] * n
        self._heat_t = [0.0] * n
        self.busy_cycles = [0.0] * n
        self.throttled_cycles = [0.0] * n
        self.stall_cycles = 0.0
        self._core_windows: Dict[int, List[Tuple[float, float]]] = {}
        self._bus_windows: List[Tuple[float, float]] = []
        self._throttled: set = set()
        if self.faults is not None:
            plan = self.faults
            bus_windows: List[Tuple[float, float]] = []
            core_windows: Dict[int, List[Tuple[float, float]]] = {}
            for stall in plan.stalls:
                window = (
                    npu.us_to_cycles(max(0.0, stall.start_us)),
                    npu.us_to_cycles(stall.end_us),
                )
                if stall.core is None:
                    bus_windows.append(window)
                else:
                    core_windows.setdefault(stall.core, []).append(window)
            self._bus_windows = _merge_windows(bus_windows)
            self._core_windows = {
                c: _merge_windows(w) for c, w in core_windows.items()
            }
            self._throttled = set(plan.throttled_cores(n))
            for event in plan.offline_events:
                if event.core >= n:
                    raise ValueError(
                        f"offline core {event.core} out of range "
                        f"(machine has {n})"
                    )
                t = npu.us_to_cycles(max(0.0, event.at_us))
                if t <= 0:
                    self._doom_core(event.core, 0.0)
                else:
                    heapq.heappush(self._heap, (t, self._seq, _OFFLINE, event.core))
                    self._seq += 1

    # ---- public surface --------------------------------------------

    @property
    def now_us(self) -> float:
        """Current absolute serving time of the session."""
        return self.origin_us + self.npu.cycles_to_us(self.clock)

    @property
    def idle(self) -> bool:
        """True when no injection is in flight."""
        return not self._active

    @property
    def num_active(self) -> int:
        return len(self._active)

    def alive_cores(self) -> Tuple[int, ...]:
        """Cores not (yet) taken offline by a processed fault event."""
        return tuple(c for c in range(self.npu.num_cores) if not self.dead[c])

    def inject(
        self,
        program: Program,
        at_us: float,
        seed: int = 0,
        label: str = "",
        meta: Any = None,
    ) -> int:
        """Admit ``program`` onto the timeline at serving time ``at_us``.

        The program's commands name physical cores (a placed program
        from :func:`repro.sim.multitenant.place_program`); the session
        does not check that those cores are free -- overlapping
        injections on one core simply queue behind each other in their
        (core, engine) streams, so the *caller* owns core accounting.

        Returns an injection id; the matching
        :class:`InjectionOutcome` is delivered by :meth:`run_until`.
        """
        if program.num_cores > self.npu.num_cores:
            raise ValueError(
                f"program targets {program.num_cores} cores, "
                f"machine has {self.npu.num_cores}"
            )
        if self.faults is None and not self._active:
            self._reset_frame(at_us)
        else:
            target = self.npu.us_to_cycles(at_us - self.origin_us)
            if target < self.clock - 1e-6:
                raise ValueError(
                    f"cannot inject at {at_us}us: session already at "
                    f"{self.now_us}us"
                )
            if target > self.clock:
                self._run(limit=target, stop_on_completion=False)
                if self.clock < target:
                    self.clock = target
        plan = _plan_for(program, self.npu)
        iid = self._next_id
        self._next_id += 1
        inj = _Active(
            iid, program, plan, seed, label, meta, self.origin_us, self.clock
        )
        self._active[iid] = inj

        # Map plan queues onto session queues by (core, engine) and
        # enqueue the commands; queue scan order (plan order) matches
        # the one-shot simulators' seeding of the check stack.
        for plan_qid, cids in enumerate(plan.qcids):
            cmd = inj.commands[cids[0]]
            key = (cmd.core, cmd.engine)
            qid = self._qid_of_key.get(key)
            if qid is None:
                qid = len(self._queues)
                self._qid_of_key[key] = qid
                self._queues.append(_Queue(cmd.core, cmd.engine))
            q = self._queues[qid]
            q.cids.extend((iid, cid) for cid in cids)
            inj.pqids.append(qid)
            self._check.append(qid)

        # A core already offline dooms its share of the program now.
        if self.faults is not None and any(self.dead):
            for core in range(self.npu.num_cores):
                if self.dead[core]:
                    self._doom_injection_core(inj, core)
            if inj.total == inj.completed + inj.num_doomed:
                self._finish_injection(iid, self.clock)
        return iid

    def run_until(
        self,
        until_us: Optional[float] = None,
        stop_on_completion: bool = True,
    ) -> List[InjectionOutcome]:
        """Advance the timeline; return injections that completed.

        Stops at the first timestamp where at least one injection
        completed (after processing every same-time event), at
        ``until_us``, or when the session drains -- whichever comes
        first.  With ``stop_on_completion=False`` it runs through
        completions to the limit (or to full drain when no limit).
        """
        limit = None
        if until_us is not None:
            limit = self.npu.us_to_cycles(until_us - self.origin_us)
        self._run(limit=limit, stop_on_completion=stop_on_completion)
        out = self._completions
        self._completions = []
        return out

    # ---- internals -------------------------------------------------

    def _reset_frame(self, at_us: float) -> None:
        """Restart the local clock (clean session, machine fully idle)."""
        self.origin_us = at_us
        self.clock = 0.0
        self._check.clear()
        for q in self._queues:
            q.cids.clear()
            q.head = 0
            q.busy = False
            q.free_at = 0.0

    def _cool(self, core: int, now: float) -> None:
        dt = now - self._heat_t[core]
        if dt > 0:
            h = self.heat[core] - self.npu.core(core).cool_per_cycle * dt
            self.heat[core] = h if h > 0 else 0.0
            self._heat_t[core] = now

    def _doom_injection_core(self, inj: _Active, core: int) -> None:
        """Abandon ``inj``'s commands that (transitively) need ``core``."""
        iid = inj.iid
        commands = inj.commands
        finished = inj.finished
        doomed = inj.doomed
        stack = [
            cid for cid in range(inj.total)
            if commands[cid].core == core and not finished[cid] and not doomed[cid]
        ]
        while stack:
            cid = stack.pop()
            if doomed[cid] or finished[cid]:
                continue
            gid = (iid, cid)
            if gid in self._running and self._running_core.get(gid) != core:
                # In flight on a live core: its dependencies already
                # completed, so it finishes normally.
                continue
            doomed[cid] = True
            inj.num_doomed += 1
            if gid in self._running:
                self._running.discard(gid)
                self._cancelled.add(gid)
                if gid in self._bus._active:
                    self._bus.cancel(gid)
                qid = inj.pqids[inj.plan.qid_of[cid]]
                self._queues[qid].busy = False
            for consumer in inj.plan.consumers[cid]:
                if not finished[consumer] and not doomed[consumer]:
                    stack.append(consumer)
            pos = inj.qpos[cid]
            plan_q = inj.plan.qcids[inj.plan.qid_of[cid]]
            if pos + 1 < len(plan_q):
                successor = plan_q[pos + 1]
                if not finished[successor] and not doomed[successor]:
                    stack.append(successor)

    def _doom_core(self, core: int, now: float) -> None:
        """Mark ``core`` dead and abandon everything that needs it."""
        if self.dead[core]:
            return
        self.dead[core] = True
        for iid in list(self._active):
            inj = self._active[iid]
            self._doom_injection_core(inj, core)
            if inj.total == inj.completed + inj.num_doomed:
                self._finish_injection(iid, now)
        # A queue whose head was doomed must be rescanned.
        self._check.extend(range(len(self._queues)))

    def _complete(self, gid: Gid, now: float) -> None:
        iid, cid = gid
        inj = self._active[iid]
        self._running.discard(gid)
        self._running_core.pop(gid, None)
        inj.finished[cid] = True
        inj.done_at[cid] = now
        inj.completed += 1
        qid = inj.pqids[inj.plan.qid_of[cid]]
        q = self._queues[qid]
        q.busy = False
        q.free_at = now
        self._check.append(qid)
        for consumer in inj.plan.consumers[cid]:
            left = inj.indeg[consumer] - 1
            inj.indeg[consumer] = left
            if not left:
                self._check.append(inj.pqids[inj.plan.qid_of[consumer]])
        if inj.completed + inj.num_doomed == inj.total:
            self._finish_injection(iid, now)

    def _finish_injection(self, iid: int, now: float) -> None:
        inj = self._active.pop(iid)
        trace = Trace(
            columns=_finished_columns(
                inj.commands,
                [cid for cid in range(inj.total) if inj.finished[cid]],
                inj.r_start,
                inj.done_at,
                inj.r_own,
                inj.r_dep,
            )
        )
        self._completions.append(
            InjectionOutcome(
                injection_id=iid,
                label=inj.label,
                origin_us=inj.origin_us,
                injected_at_cycles=inj.injected_at,
                completed_at_cycles=now,
                trace=trace,
                failed=inj.num_doomed > 0,
                num_abandoned=inj.num_doomed,
                meta=inj.meta,
            )
        )

    def _start_heads(self) -> None:
        """Start every startable queue head reachable from the check set."""
        check = self._check
        queues = self._queues
        dead = self.dead
        active = self._active
        clock = self.clock
        heappush = heapq.heappush
        while check:
            qid = check.pop()
            q = queues[qid]
            if q.busy:
                continue
            core = q.core
            if dead[core]:
                continue
            idx = q.head
            cids = q.cids
            # Doomed commands never start, and a finished injection's
            # only leftover queue entries are doomed ones: skip forward.
            while idx < len(cids):
                iid, cid = cids[idx]
                inj = active.get(iid)
                if inj is None or inj.doomed[cid]:
                    idx += 1
                    continue
                break
            q.head = idx
            if idx >= len(cids):
                continue
            gid = cids[idx]
            iid, cid = gid
            inj = active[iid]
            if inj.indeg[cid]:
                continue
            windows = self._core_windows.get(core)
            if windows:
                until = _stalled_until(windows, clock)
                if until > clock:
                    self.stall_cycles += until - clock
                    heappush(self._heap, (until, self._seq, _WAKE, qid))
                    self._seq += 1
                    continue
            done_at = inj.done_at
            dep_ready = 0.0
            for d in inj.deps_of[cid]:
                t = done_at[d]
                if t > dep_ready:
                    dep_ready = t
            own_ready = q.free_at
            for d in inj.own_deps_of[cid]:
                t = done_at[d]
                if t > own_ready:
                    own_ready = t
            dur = inj.delay[cid]
            if inj.commands[cid].kind is CommandKind.COMPUTE:
                if core in self._throttled:
                    self._cool(core, clock)
                    cc = self.npu.core(core)
                    level = cc.dvfs_level_for_heat(self.heat[core])
                    speed = cc.dvfs_steps[level]
                    dur = dur / speed
                    self.heat[core] += dur * cc.heat_per_busy_cycle
                    if level > 0:
                        self.throttled_cycles[core] += dur
                self.busy_cycles[core] += dur
            inj.r_start[cid] = clock
            inj.r_own[cid] = own_ready
            inj.r_dep[cid] = dep_ready
            self._running.add(gid)
            self._running_core[gid] = core
            q.busy = True
            q.head = idx + 1
            heappush(self._heap, (clock + dur, self._seq, inj.plan.evkind[cid], gid))
            self._seq += 1

    def _deadlock(self) -> RuntimeError:
        stuck = [
            str(self._active[iid].commands[cid])
            for (iid, cid) in self._running
        ]
        labels = [inj.label or str(iid) for iid, inj in self._active.items()]
        return RuntimeError(
            f"session deadlock at t={self.now_us}us: "
            f"injections={labels[:8]}, running={stuck[:8]}"
        )

    def _run(
        self, limit: Optional[float] = None, stop_on_completion: bool = False
    ) -> None:
        heap = self._heap
        bus = self._bus
        bus_active = bus._active  # alias: skip property/len calls in the loop
        inf = float("inf")
        heappop = heapq.heappop
        heappush = heapq.heappush
        bus_eta = bus.eta
        bus_advance = bus.advance
        bus_add = bus.add

        while True:
            self._start_heads()
            t_heap = heap[0][0] if heap else inf
            t_bus = self.clock + bus_eta() if bus_active else inf
            t_next = t_heap if t_heap <= t_bus else t_bus
            if t_next == inf:
                if self._active:
                    raise self._deadlock()
                if limit is not None and self.clock < limit:
                    self.clock = limit
                break
            if limit is not None and t_next > limit:
                # Stop at the limit: progress in-flight transfers to it
                # (a partial advance; never taken by barrier-equivalent
                # callers, who run each wave to completion instead).
                dt = limit - self.clock
                if bus_active and dt > 0:
                    finished_dma = bus_advance(dt)
                else:
                    finished_dma = ()
                self.clock = max(self.clock, limit)
                for gid in finished_dma:
                    self._complete(gid, self.clock)
                break
            dt = t_next - self.clock
            finished_dma = bus_advance(dt) if bus_active else ()
            if not finished_dma and t_next == t_bus and t_next <= self.clock:
                # eta underflowed the clock's float resolution: retire
                # the nearest transfer rather than spinning at dt == 0.
                finished_dma = bus.force_min_completion()
            self.clock = t_next
            clock = self.clock
            for gid in finished_dma:
                self._complete(gid, clock)
            threshold = clock + _EPS
            while heap and heap[0][0] <= threshold:
                _, _, kind, payload = heappop(heap)
                if kind == _OFFLINE:
                    self._doom_core(payload, clock)
                elif kind == _WAKE:
                    self._check.append(payload)
                elif payload in self._cancelled:
                    self._cancelled.discard(payload)
                elif kind == _END:
                    self._complete(payload, clock)
                else:  # _JOIN_BUS
                    if self._bus_windows:
                        until = _stalled_until(self._bus_windows, clock)
                        if until > clock:
                            self.stall_cycles += until - clock
                            heappush(heap, (until, self._seq, _JOIN_BUS, payload))
                            self._seq += 1
                            continue
                    iid, cid = payload
                    inj = self._active[iid]
                    bus_add(payload, inj.commands[cid].num_bytes, inj.plan.dma_cap[cid])
            if stop_on_completion and self._completions:
                break


def simulate_faulted_oracle(
    program: Program,
    npu: NPUConfig,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    initial_heat: Optional[Sequence[float]] = None,
    time_offset_us: float = 0.0,
) -> SimResult:
    """The one-shot fault loop, memo left out."""
    plan = plan or FaultPlan()
    if program.num_cores > npu.num_cores:
        raise ValueError(
            f"program targets {program.num_cores} cores, machine has {npu.num_cores}"
        )
    splan = _plan_for(program, npu)
    commands = program.commands
    total = splan.total

    qcids = splan.qcids
    nq = len(qcids)
    qid_of = splan.qid_of
    deps_of, own_deps_of = dependencies(program)
    consumers = splan.consumers
    indeg = list(splan.indeg0)
    evkind = splan.evkind
    dma_cap = splan.dma_cap

    # Queue geometry the clean loop does not need: the owning core of
    # each queue and each command's position within its queue (for
    # dooming in-order successors of an abandoned command).
    qcore = [commands[cids[0]].core for cids in qcids]
    qpos = [0] * total
    for cids in qcids:
        for pos, cid in enumerate(cids):
            qpos[cid] = pos

    # Same seeded coordination jitter as the clean scheduler (shared
    # cached table; read-only -- throttling adjusts a local copy of the
    # duration, never the list).
    delay = splan.delays_for(seed)

    # ---- fault state -----------------------------------------------
    def local_cycles(at_us: float) -> float:
        return max(0.0, npu.us_to_cycles(at_us - time_offset_us))

    core_windows: Dict[int, List[Tuple[float, float]]] = {}
    bus_windows: List[Tuple[float, float]] = []
    for stall in plan.stalls:
        start = stall.start_us - time_offset_us
        end = stall.end_us - time_offset_us
        if end <= 0:
            continue
        window = (npu.us_to_cycles(max(0.0, start)), npu.us_to_cycles(end))
        if stall.core is None:
            bus_windows.append(window)
        else:
            core_windows.setdefault(stall.core, []).append(window)
    bus_windows = _merge_windows(bus_windows)
    core_windows = {c: _merge_windows(w) for c, w in core_windows.items()}

    throttled_cores = set(plan.throttled_cores(npu.num_cores))
    heat = [0.0] * npu.num_cores
    if initial_heat is not None:
        for c, h in enumerate(initial_heat):
            if c < npu.num_cores:
                heat[c] = float(h)
    heat_t = [0.0] * npu.num_cores
    busy_cycles = [0.0] * npu.num_cores
    throttled_cycles = [0.0] * npu.num_cores
    stall_cycles = 0.0

    dead = [False] * npu.num_cores
    doomed = [False] * total
    finished = [False] * total
    cancelled: set = set()
    num_abandoned = 0

    qhead = [0] * nq
    qbusy = [False] * nq
    qfree_at = [0.0] * nq

    done_at = [0.0] * total
    r_start = [0.0] * total
    r_own = [0.0] * total
    r_dep = [0.0] * total
    running: set = set()
    running_core: Dict[int, int] = {}
    completed = 0

    heap: List[Tuple[float, int, int, int]] = []  # (time, seq, evkind, cid/core)
    seq = 0
    bus = FluidBus(npu.bus_bytes_per_cycle)
    bus_active = bus._active
    clock = 0.0

    check: List[int] = list(range(nq))

    inf = float("inf")
    heappush = heapq.heappush
    heappop = heapq.heappop
    bus_eta = bus.eta
    bus_advance = bus.advance
    bus_add = bus.add

    def cool(core: int, now: float) -> None:
        dt = now - heat_t[core]
        if dt > 0:
            h = heat[core] - npu.core(core).cool_per_cycle * dt
            heat[core] = h if h > 0 else 0.0
            heat_t[core] = now

    def doom_core(core: int, now: float) -> None:
        """Mark ``core`` dead and abandon everything that needs it."""
        nonlocal num_abandoned
        if dead[core]:
            return
        dead[core] = True
        stack = [
            cid for cid in range(total)
            if commands[cid].core == core and not finished[cid] and not doomed[cid]
        ]
        while stack:
            cid = stack.pop()
            if doomed[cid] or finished[cid]:
                continue
            if cid in running and running_core.get(cid) != core:
                # In flight on a live core: its dependencies already
                # completed, so it finishes normally.
                continue
            doomed[cid] = True
            num_abandoned += 1
            if cid in running:
                # Abort: drop the pending completion (or bus transfer).
                running.discard(cid)
                cancelled.add(cid)
                if cid in bus_active:
                    bus.cancel(cid)
                qid = qid_of[cid]
                qbusy[qid] = False
            for consumer in consumers[cid]:
                if not finished[consumer] and not doomed[consumer]:
                    stack.append(consumer)
            pos = qpos[cid]
            cids = qcids[qid_of[cid]]
            if pos + 1 < len(cids):
                successor = cids[pos + 1]
                if not finished[successor] and not doomed[successor]:
                    stack.append(successor)

    # Pre-seed the fault event queue.
    for event in plan.offline_events:
        t = local_cycles(event.at_us)
        if event.core >= npu.num_cores:
            raise ValueError(
                f"offline core {event.core} out of range "
                f"(machine has {npu.num_cores})"
            )
        if t <= 0:
            doom_core(event.core, 0.0)
        else:
            heappush(heap, (t, seq, _OFFLINE, event.core))
            seq += 1

    def complete(cid: int, now: float) -> None:
        nonlocal completed
        running.discard(cid)
        running_core.pop(cid, None)
        finished[cid] = True
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

    while completed < total - num_abandoned:
        while check:
            qid = check.pop()
            if qbusy[qid]:
                continue
            core = qcore[qid]
            if dead[core]:
                continue
            idx = qhead[qid]
            cids = qcids[qid]
            # Doomed commands never start; in-order queues mean the
            # whole tail behind one is doomed too, so skip forward.
            while idx < len(cids) and doomed[cids[idx]]:
                idx += 1
            qhead[qid] = idx
            if idx >= len(cids):
                continue
            cid = cids[idx]
            if indeg[cid]:
                continue
            windows = core_windows.get(core)
            if windows:
                until = _stalled_until(windows, clock)
                if until > clock:
                    stall_cycles += until - clock
                    heappush(heap, (until, seq, _WAKE, qid))
                    seq += 1
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
            dur = delay[cid]
            if commands[cid].kind is CommandKind.COMPUTE:
                if core in throttled_cores:
                    cool(core, clock)
                    cc = npu.core(core)
                    level = cc.dvfs_level_for_heat(heat[core])
                    speed = cc.dvfs_steps[level]
                    dur = dur / speed
                    heat[core] += dur * cc.heat_per_busy_cycle
                    if level > 0:
                        throttled_cycles[core] += dur
                busy_cycles[core] += dur
            r_start[cid] = clock
            r_own[cid] = own_ready
            r_dep[cid] = dep_ready
            running.add(cid)
            running_core[cid] = core
            qbusy[qid] = True
            qhead[qid] = idx + 1
            heappush(heap, (clock + dur, seq, evkind[cid], cid))
            seq += 1

        t_heap = heap[0][0] if heap else inf
        t_bus = clock + bus_eta() if bus_active else inf
        t_next = t_heap if t_heap <= t_bus else t_bus
        if t_next == inf:
            stuck = [str(commands[c]) for c in running]
            raise RuntimeError(
                f"simulation deadlock under faults at t={clock}: "
                f"running={stuck[:8]}"
            )
        dt = t_next - clock
        finished_dma = bus_advance(dt) if bus_active else ()
        if not finished_dma and t_next == t_bus and t_next <= clock:
            finished_dma = bus.force_min_completion()
        clock = t_next
        for cid in finished_dma:
            complete(cid, clock)
        threshold = clock + _EPS
        while heap and heap[0][0] <= threshold:
            _, _, kind, payload = heappop(heap)
            if kind == _OFFLINE:
                doom_core(payload, clock)
                # Abandoning work may unblock nothing, but a queue whose
                # head was doomed must be rescanned.
                check.extend(range(nq))
            elif kind == _WAKE:
                check.append(payload)
            elif payload in cancelled:
                cancelled.discard(payload)
            elif kind == _END:
                complete(payload, clock)
            else:  # _JOIN_BUS
                until = _stalled_until(bus_windows, clock)
                if until > clock:
                    stall_cycles += until - clock
                    heappush(heap, (until, seq, _JOIN_BUS, payload))
                    seq += 1
                else:
                    bus_add(payload, commands[payload].num_bytes, dma_cap[payload])

    for core in throttled_cores:
        cool(core, clock)

    trace = Trace(
        columns=_finished_columns(
            commands,
            [cid for cid in range(total) if finished[cid]],
            r_start,
            done_at,
            r_own,
            r_dep,
        )
    )
    stats = FaultStats(
        plan=plan.describe(),
        dead_cores=tuple(c for c in range(npu.num_cores) if dead[c]),
        abandoned_cids=tuple(cid for cid in range(total) if doomed[cid]),
        throttled_busy_cycles=tuple(throttled_cycles),
        busy_cycles=tuple(busy_cycles),
        stall_cycles=stall_cycles,
        heat=tuple(heat),
    )
    result = SimResult(
        trace=trace, makespan_cycles=trace.makespan, npu=npu, faults=stats
    )
    return result
