"""Resumable simulation sessions: one shared timeline, overlapping programs.

A work-conserving serving runtime must *inject* a program onto whichever
core group just freed up, at an arbitrary point in simulated time, while
programs admitted earlier keep running -- and all of them share the one
contended resource, the bus to global memory.

:class:`SimSession` is that substrate, and its event loop is the
package's only one: the one-shot :func:`repro.sim.simulator.simulate`,
clean or under a fault plan, is a one-injection session.  The loop keeps
flat struct-of-arrays state -- per-(core, engine) in-order command
queues, a reverse-dependency index, one time heap, the bus as parallel
lists driven by the epoch kernels of :mod:`repro.sim.bus` -- and gives
every injected program a contiguous range of *slots* in session-wide
arrays (dependency counters, completion times, jittered delays, ...), so
any number of programs can be in flight at once while the hot loop
indexes plain lists.  Ranges are recycled as injections finish and
reset when the session idles.  Fault hooks -- stall windows, DVFS heat,
offline dooming, bus cancel -- sit behind checks a clean session skips.

Reproducibility contract: a session that injects exactly one program
per idle period replays the one-shot simulator bit-for-bit, whatever
the injection times.  Two mechanisms make that exact rather than
approximate:

* **frame reset** -- when a clean session is fully idle, the next
  injection restarts the local clock at zero and records the serving
  time as the frame's ``origin_us``.  Event arithmetic inside the frame
  is then the *same float operations* as a standalone ``simulate()``
  call; absolute times are reconstructed as ``origin_us +
  cycles_to_us(local)``, exactly the expression the gang-scheduled
  server uses.  Fault-injected sessions never reset (fault windows and
  heat live on the session clock, whose zero is the ``origin_us`` the
  session was built with).
* **no partial bus advances inside a frame** -- ``run_until`` only
  splits a bus advance at the limit time, which barrier-equivalent
  callers never hit mid-wave (they run each wave to completion).

The contract also lets a solo fresh-frame injection skip this loop when
:mod:`repro.sim.memo` holds its one-shot outcome; on a miss the loop
runs and stores the outcome for the next time.

Trace events of a finished injection are reported in frame-local cycles
together with the frame origin, mirroring how the gang server consumes
``simulate()`` results.  So are its span and per-core busy cycles,
which the serving loop reads instead of the trace: they are reduced
from the injection's completion times on first request, and the trace
itself stays deferred until something reads it.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.compiler.program import Engine, EngineQueues, Program
from repro.hw.config import NPUConfig
from repro.sim import memo as memo_mod
from repro.sim.bus import advance_eta, force_min, refill_eta
from repro.sim.memo import USE_DEFAULT_MEMO, SimMemo
from repro.sim.simulator import _EPS, SimResult, _finished_columns, _plan_for, _SimPlan
from repro.sim.trace import Trace, merge_intervals, trace_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan

_INF = float("inf")

#: Heap entries are ``(time, seq, x)``: ``x >= 0`` is a command slot,
#: whose event kind the plan's ``evkind`` gives; fault events carry
#: ``~(payload << 2 | tag)`` with one of these tags.
_WAKE = 0  # a stall window on a queue's core closed (payload: queue)
_OFFLINE = 1  # a core goes offline (payload: core)
_CANCELLED = 2  # an aborted command's event: still ends an epoch, no effect

#: A slot's completion time doubles as its state: it holds one of these
#: until the command completes (a start time below zero likewise means
#: "not started").  Only fault handling asks.
_NOT_DONE = -1.0
_ABANDONED = -2.0


def _stalled_until(windows: List[Tuple[float, float]], t: float) -> float:
    """End of the window containing ``t`` (half-open), else 0."""
    for start, end in windows:
        if start <= t < end:
            return end
        if start > t:
            break
    return 0.0


class _Usage:
    """Span and per-core busy cycles of a finished injection's completed
    commands, reduced on first request from its slot slices; ``queues``
    are the injected program's, whose keys name physical cores."""

    def __init__(
        self,
        queues: EngineQueues,
        finished: Optional[List[int]],
        start: List[float],
        done: List[float],
    ) -> None:
        self.queues = queues
        #: completed commands, ascending (``None``: all of them)
        self.finished = finished
        self.start = start
        self.done = done

    @functools.cached_property
    def span(self) -> Tuple[float, float]:
        start, done, finished = self.start, self.done, self.finished
        if finished is not None:
            start = [start[c] for c in finished]
            done = [done[c] for c in finished]
        return (min(start), max(done)) if done else (0.0, 0.0)

    @functools.cached_property
    def busy(self) -> Dict[int, float]:
        start, done = self.start, self.done
        spans: Dict[int, List[Tuple[float, float]]] = {}
        for (core, _), cids in zip(self.queues.keys, self.queues.members):
            # An abandoned command's completion time is below any start,
            # so the filter keeps completed commands only.
            spans.setdefault(core, []).extend(
                [(start[c], done[c]) for c in cids if done[c] > start[c]]
            )
        # Trace.busy_time's float order: sort, merge, sum left to right.
        return {
            core: sum(end - begin for begin, end in merge_intervals(pairs))
            for core, pairs in spans.items()
        }


@dataclasses.dataclass(frozen=True)
class InjectionOutcome:
    """Completion record of one injected program.

    Times are split the way the serving layer consumes them: ``origin_us``
    is the serving time of the session frame the injection ran in, and
    every cycle count (including the trace's event times) is local to
    that frame.  Absolute serving time of a local cycle count ``c`` is
    ``origin_us + npu.cycles_to_us(c)``.

    :meth:`span_cycles` and :meth:`busy_cycles` report what the serving
    loop needs without deriving the trace: they equal
    ``trace_span(trace)`` and ``trace.busy_time(core)``.
    """

    injection_id: int
    label: str
    #: serving time of the frame origin.
    origin_us: float
    #: frame-local cycle at which the program was injected.
    injected_at_cycles: float
    #: frame-local cycle at which the last command completed (or the
    #: injection was abandoned).
    completed_at_cycles: float
    #: events of the completed commands, frame-local cycles.
    trace: Trace = dataclasses.field(repr=False)
    #: True when fault injection abandoned at least one command.
    failed: bool = False
    #: number of abandoned commands.
    num_abandoned: int = 0
    #: opaque caller payload handed to :meth:`SimSession.inject`.
    meta: Any = None
    #: the abandoned commands' ids, ascending.
    abandoned_cids: Tuple[int, ...] = ()
    #: the session's reduction of span and busy cycles (``None``: the
    #: outcome came from the memo, or from outside a session, and the
    #: two are read from the trace).
    _usage: Optional[_Usage] = dataclasses.field(default=None, repr=False, compare=False)

    def span_cycles(self) -> Tuple[float, float]:
        """(first start, last end) of the completed commands, frame-local
        cycles; ``(0.0, 0.0)`` when none completed."""
        if self._usage is None:
            return trace_span(self.trace)
        return self._usage.span

    def busy_cycles(self, core: int) -> float:
        """Cycles physical ``core`` was busy with completed commands: the
        length of the union of their (start, end) intervals."""
        if self._usage is None:
            return self.trace.busy_time(core)
        return self._usage.busy.get(core, 0.0)


class _Injection:
    """Bookkeeping of one in-flight injection; its commands own the
    session slots ``base .. base + total - 1`` (slot = base + cid)."""

    __slots__ = (
        "iid", "label", "meta", "program", "plan", "base", "total", "left",
        "num_doomed", "origin_us", "injected_at", "pqids", "solo", "memo_key",
    )

    def __init__(
        self,
        iid: int,
        label: str,
        meta: Any,
        program: Program,
        plan: _SimPlan,
        base: int,
        origin_us: float,
        injected_at: float,
    ) -> None:
        self.iid = iid
        self.label = label
        self.meta = meta
        self.program = program
        self.plan = plan
        self.base = base
        self.total = plan.total
        #: commands neither completed nor abandoned yet
        self.left = plan.total
        self.num_doomed = 0
        self.origin_us = origin_us
        self.injected_at = injected_at
        #: session queue of each plan queue
        self.pqids: Tuple[int, ...] = ()
        #: True while this injection provably replays a one-shot
        #: ``simulate()`` bit-for-bit (solo in a fresh clean frame, no
        #: partial bus advances); gates the bracket check and the memo.
        self.solo = False
        #: clean memo key, set for solo injections of a memo session
        self.memo_key: Optional[Tuple] = None


class SimSession:
    """A resumable simulation timeline accepting program injections.

    ``faults`` (a non-empty :class:`~repro.faults.plan.FaultPlan`) arms
    the fault machinery on the session clock: stall windows and
    core-offline events are placed at their plan times, heat accumulates
    across injections and cools through idle gaps.  ``origin_us`` is the
    serving time of session cycle zero (fault times are relative to it)
    and ``initial_heat`` the per-core heat carried in; both let a caller
    place a fresh faulted session on a longer serving clock, as gang
    serving does for each wave.  A clean session keeps every fault
    structure empty, so the hot loop skips the fault hooks.
    """

    def __init__(
        self,
        npu: NPUConfig,
        faults: "Optional[FaultPlan]" = None,
        memo: Optional[SimMemo] = USE_DEFAULT_MEMO,  # type: ignore[assignment]
        check_bounds: bool = False,
        origin_us: float = 0.0,
        initial_heat: Optional[Sequence[float]] = None,
    ) -> None:
        self.npu = npu
        self.faults = faults if (faults is not None and not faults.is_empty) else None
        if check_bounds and self.faults is not None:
            raise ValueError(
                "check_bounds applies to clean sessions only: fault "
                "injection escapes the static bracket"
            )
        #: Assert solo fresh-frame injections (the case that replays a
        #: one-shot ``simulate()`` bit-for-bit) against their static
        #: latency bracket (:mod:`repro.verify.bounds`), with or without
        #: a memo.  Overlapping injections contend for cores and the
        #: bus, so per-program brackets do not apply there.
        self.check_bounds = check_bounds
        if memo is USE_DEFAULT_MEMO:
            memo = memo_mod.default_memo()
        #: consulted (clean sessions only) when an injection lands solo
        #: in a fresh frame -- exactly the case the reproducibility
        #: contract pins to one-shot ``simulate()``, so cached one-shot
        #: results can be delivered without running the event loop.
        self.memo = memo
        self._fast_iid: Optional[int] = None
        self.origin_us = origin_us
        self.clock = 0.0
        self._active: Dict[int, _Injection] = {}
        self._completions: List[InjectionOutcome] = []
        self._next_id = 0
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = 0
        self._check: List[int] = []

        # ---- engine queues, by session queue id ----------------------
        self._qid_of_key: Dict[Tuple[int, Engine], int] = {}
        self._q_core: List[int] = []
        self._q_compute: List[bool] = []
        self._q_slots: List[List[int]] = []  # enqueued command slots
        self._q_head: List[int] = []
        self._q_busy: List[bool] = []
        self._q_free: List[float] = []  # when the engine last freed up
        #: (plan, session queues) -> session queue of each command
        self._qmaps: Dict[Tuple[_SimPlan, Tuple[int, ...]], List[int]] = {}

        # ---- command slots -------------------------------------------
        self._indeg: List[int] = []
        self._delay: List[float] = []
        self._evkind: List[int] = []
        self._bytes: List[float] = []
        self._dma_cap: List[float] = []
        self._consumers: List[List[int]] = []  # plan-local cids
        self._qmap: List[int] = []
        self._owner: List[_Injection] = []
        self._done: List[float] = []
        self._start: List[float] = []
        self._free_at: List[float] = []
        self._top = 0
        #: recycled slot ranges by size
        self._spare: Dict[int, List[int]] = {}

        # ---- the bus, as parallel lists (see repro.sim.bus) ----------
        self._b_slot: List[int] = []
        self._b_rem: List[float] = []
        self._b_cap: List[float] = []
        self._b_rate: List[float] = []
        self._b_dirty = False
        self._t_bus = _INF
        caps = {c.dma_bytes_per_cycle for c in npu.cores}
        self._uniform_cap = len(caps) <= 1

        # ---- fault state (all empty / inert on clean sessions) -------
        n = npu.num_cores
        self.dead = [False] * n
        self.heat = [0.0] * n
        if initial_heat is not None:
            for c, h in enumerate(initial_heat):
                if c < n:
                    self.heat[c] = float(h)
        self._heat_t = [0.0] * n
        self.busy_cycles = [0.0] * n
        self.throttled_cycles = [0.0] * n
        self.stall_cycles = 0.0
        #: merged stall windows per core (empty: never stalled) and bus
        self._core_windows: List[List[Tuple[float, float]]] = [[] for _ in range(n)]
        self._bus_windows: List[Tuple[float, float]] = []
        self._throttled = [False] * n
        if self.faults is not None:
            plan = self.faults
            bus_windows: List[Tuple[float, float]] = []
            core_windows: Dict[int, List[Tuple[float, float]]] = {}
            for stall in plan.stalls:
                start = stall.start_us - origin_us
                end = stall.end_us - origin_us
                if end <= 0:
                    continue
                window = (npu.us_to_cycles(max(0.0, start)), npu.us_to_cycles(end))
                if stall.core is None:
                    bus_windows.append(window)
                else:
                    core_windows.setdefault(stall.core, []).append(window)
            self._bus_windows = merge_intervals(bus_windows)
            for core, windows in core_windows.items():
                self._core_windows[core] = merge_intervals(windows)
            for core in plan.throttled_cores(n):
                self._throttled[core] = True
            for event in plan.offline_events:
                if event.core >= n:
                    raise ValueError(
                        f"offline core {event.core} out of range (machine has {n})"
                    )
                t = max(0.0, npu.us_to_cycles(event.at_us - origin_us))
                if t <= 0:
                    self._doom_core(event.core, 0.0)
                else:
                    heapq.heappush(
                        self._heap, (t, self._seq, ~(event.core << 2 | _OFFLINE))
                    )
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

    def cool(self, cycles: float) -> None:
        """Cool every throttled core's heat accumulator to session cycle
        ``cycles`` (heat otherwise only updates when compute starts)."""
        for core in range(self.npu.num_cores):
            if self._throttled[core]:
                self._cool(core, cycles)

    def inject(
        self,
        program: Program,
        at_us: float,
        seed: int = 0,
        label: str = "",
        meta: Any = None,
        cid_base: int = 0,
    ) -> int:
        """Admit ``program`` onto the timeline at serving time ``at_us``.

        The program's commands name physical cores (a placed program
        from :func:`repro.sim.multitenant.place_program`); the session
        does not check that those cores are free -- overlapping
        injections on one core simply queue behind each other in their
        (core, engine) streams, so the *caller* owns core accounting.
        Everything the session needs comes from the program's plan --
        a placed program's is its source's -- and the program's engine
        queues, so a placed program's commands are never built here.

        ``cid_base`` offsets the command ids that seed jitter draws;
        only :func:`repro.sim.multitenant.inject_wave` sets it.

        Returns an injection id; the matching
        :class:`InjectionOutcome` is delivered by :meth:`run_until`.  A
        program with nothing to run -- no commands, or all of them on
        cores already offline -- completes at injection time.
        """
        npu = self.npu
        # Built (and so checked) before anything moves: a rejected
        # program leaves the session as it found it.
        plan = _plan_for(program, npu)
        solo = self.faults is None and not self._active
        if solo:
            self._reset_frame(at_us)
        else:
            target = npu.us_to_cycles(at_us - self.origin_us)
            if target < self.clock - 1e-6:
                raise ValueError(
                    f"cannot inject at {at_us}us: session already at "
                    f"{self.now_us}us"
                )
            if target > self.clock:
                self._run(limit=target, stop_on_completion=False)
                if self.clock < target:
                    self.clock = target
            # Overlapping injections end the solo-replay guarantee for
            # everything in flight (their event interleaving diverges
            # from any one-shot run).
            for other in self._active.values():
                other.solo = False
            self._fast_iid = None
            if not self._active:
                self._reset_slots()
        n = plan.total
        spare = self._spare.get(n)
        if spare:
            base = spare.pop()
        else:
            base = self._top
            self._top = base + n
        iid = self._next_id
        self._next_id += 1
        inj = _Injection(iid, label, meta, program, plan, base, self.origin_us, self.clock)
        if solo:
            inj.solo = True
            # The memo holds one-shot runs, whose draws start at cid 0.
            if self.memo is not None and not cid_base:
                inj.memo_key = memo_mod.clean_key(program, npu, seed)
                self._fast_iid = iid
        self._active[iid] = inj

        # Map plan queues onto session queues by the program's queue
        # keys (physical core, engine), and enqueue the commands' slots;
        # queue scan order (plan order) matches the one-shot simulator's
        # seeding of the check stack.
        pqids = []
        for key, cids in zip(program.engine_queues().keys, plan.qcids):
            qid = self._qid_of_key.get(key)
            if qid is None:
                qid = self._add_queue(*key)
            self._q_slots[qid].extend(map(base.__add__, cids) if base else cids)
            pqids.append(qid)
            self._check.append(qid)
        inj.pqids = pq = tuple(pqids)
        if pq == tuple(range(len(pq))):  # queues created in plan order
            qmap = plan.qid_of
        else:
            qmap = self._qmaps.get((plan, pq))
            if qmap is None:
                qmap = self._qmaps[(plan, pq)] = [pq[q] for q in plan.qid_of]

        end = base + n
        unset = [_NOT_DONE] * n
        self._indeg[base:end] = plan.indeg0
        self._delay[base:end] = plan.delays_for(seed, cid_base)
        self._evkind[base:end] = plan.evkind
        self._bytes[base:end] = plan.num_bytes_f
        self._dma_cap[base:end] = plan.dma_cap
        self._consumers[base:end] = plan.consumers
        self._qmap[base:end] = qmap
        self._owner[base:end] = [inj] * n
        self._done[base:end] = unset
        self._start[base:end] = unset
        self._free_at[base:end] = unset
        if self.faults is not None:
            # A core already offline dooms its share of the program now.
            for core in range(npu.num_cores):
                if self.dead[core]:
                    self._doom(inj, core)
        if not inj.left:
            self._finish(inj, self.clock)
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

    def _add_queue(self, core: int, engine: Engine) -> int:
        qid = len(self._q_core)
        self._qid_of_key[(core, engine)] = qid
        self._q_core.append(core)
        self._q_compute.append(engine is Engine.COMPUTE)
        self._q_slots.append([])
        self._q_head.append(0)
        self._q_busy.append(False)
        self._q_free.append(0.0)
        return qid

    def _reset_slots(self) -> None:
        """Reuse every slot from zero (no injection in flight).

        Leftover queue entries can only be abandoned commands; aborted
        commands' heap events were already neutralized (``_CANCELLED``).
        """
        self._top = 0
        self._spare.clear()
        for slots in self._q_slots:
            slots.clear()
        self._q_head[:] = [0] * len(self._q_head)

    def _reset_frame(self, at_us: float) -> None:
        """Restart the local clock (clean session, machine fully idle)."""
        self.origin_us = at_us
        self.clock = 0.0
        self._check.clear()
        self._reset_slots()
        nq = len(self._q_core)
        self._q_busy[:] = [False] * nq
        self._q_free[:] = [0.0] * nq

    def _cool(self, core: int, now: float) -> None:
        dt = now - self._heat_t[core]
        if dt > 0:
            h = self.heat[core] - self.npu.core(core).cool_per_cycle * dt
            self.heat[core] = h if h > 0 else 0.0
            self._heat_t[core] = now

    def _doom(self, inj: _Injection, core: int) -> bool:
        """Abandon ``inj``'s commands that (transitively) need ``core``.

        Returns True when an aborted transfer left the bus (its rates
        need a refill).
        """
        plan = inj.plan
        base = inj.base
        done = self._done
        started = self._start
        core_of = inj.program.columns().core
        consumers = plan.consumers
        successor = plan.queue_successors()
        bus_changed = False
        stack = [
            cid for cid in range(inj.total)
            if core_of[cid] == core and done[base + cid] == _NOT_DONE
        ]
        while stack:
            cid = stack.pop()
            slot = base + cid
            if done[slot] != _NOT_DONE:  # completed or already abandoned
                continue
            running = started[slot] >= 0.0
            if running and core_of[cid] != core:
                # In flight on a live core: its dependencies already
                # completed, so it finishes normally.
                continue
            done[slot] = _ABANDONED
            inj.num_doomed += 1
            inj.left -= 1
            if running:
                bus = self._b_slot
                if slot in bus:
                    i = bus.index(slot)
                    del bus[i], self._b_rem[i], self._b_cap[i], self._b_rate[i]
                    bus_changed = True
                else:
                    self._cancel_event(slot)
                self._q_busy[self._qmap[slot]] = False
            for consumer in consumers[cid]:
                if done[base + consumer] == _NOT_DONE:
                    stack.append(consumer)
            nxt = successor[cid]
            if nxt >= 0 and done[base + nxt] == _NOT_DONE:
                stack.append(nxt)
        return bus_changed

    def _cancel_event(self, slot: int) -> None:
        """Neutralize an aborted command's pending heap event in place.

        The event stays (same time and sequence, so the heap order is
        untouched): the epoch boundary it marks is part of the bus's
        float sequence.
        """
        heap = self._heap
        for i, (t, seq, x) in enumerate(heap):
            if x == slot:
                heap[i] = (t, seq, ~_CANCELLED)
                return

    def _doom_core(self, core: int, now: float) -> bool:
        """Mark ``core`` dead and abandon everything that needs it.

        Returns True when the bus lost a transfer.
        """
        if self.dead[core]:
            return False
        self.dead[core] = True
        bus_changed = False
        for inj in list(self._active.values()):
            if self._doom(inj, core):
                bus_changed = True
            if not inj.left:
                self._finish(inj, now)
        # A queue whose head was doomed must be rescanned.
        self._check.extend(range(len(self._q_core)))
        return bus_changed

    def _finish(self, inj: _Injection, now: float) -> None:
        del self._active[inj.iid]
        if self._fast_iid == inj.iid:
            self._fast_iid = None
        plan = inj.plan
        base = inj.base
        n = inj.total
        end = base + n
        done = self._done[base:end]
        finished: Optional[List[int]] = None
        abandoned: Tuple[int, ...] = ()
        if inj.num_doomed:
            finished = [c for c in range(n) if done[c] >= 0.0]
            abandoned = tuple(c for c in range(n) if done[c] == _ABANDONED)
        else:
            # Every slot retired cleanly: the range is free for reuse.
            # (Abandoned commands may still sit in queues, so a failed
            # injection's range waits for the next idle reset.)
            self._spare.setdefault(n, []).append(base)
        start = self._start[base:end]
        free_at = self._free_at[base:end]
        program = inj.program
        trace = Trace(lambda: _finished_columns(plan, program, finished, start, done, free_at))
        if inj.solo and self.check_bounds:
            from repro.verify.bounds import bounds_for

            bounds_for(program, self.npu).assert_contains(
                now, context=f"session injection {inj.label!r}"
            )
        if inj.solo and self.memo is not None and inj.memo_key is not None:
            # The frame replayed a one-shot simulate() bit-for-bit, so
            # the outcome is exactly the clean entry for this key.
            self.memo.put(
                inj.memo_key,
                SimResult(trace=trace, makespan_cycles=now, npu=self.npu),
            )
        usage = _Usage(program.engine_queues(), finished, start, done)
        self._deliver(inj, now, trace, abandoned, usage)

    def _deliver(
        self,
        inj: _Injection,
        now: float,
        trace: Trace,
        abandoned: Tuple[int, ...] = (),
        usage: Optional[_Usage] = None,
    ) -> None:
        """Queue ``inj``'s outcome for the next :meth:`run_until`."""
        self._completions.append(
            InjectionOutcome(
                injection_id=inj.iid,
                label=inj.label,
                origin_us=inj.origin_us,
                injected_at_cycles=inj.injected_at,
                completed_at_cycles=now,
                trace=trace,
                failed=inj.num_doomed > 0,
                num_abandoned=inj.num_doomed,
                meta=inj.meta,
                abandoned_cids=abandoned,
                _usage=usage,
            )
        )

    def _deadlock(self) -> RuntimeError:
        blocked = []
        for qid, slots in enumerate(self._q_slots):
            head = self._q_head[qid]
            if not self._q_busy[qid] and head < len(slots):
                slot = slots[head]
                inj = self._owner[slot]
                blocked.append(str(inj.program.commands[slot - inj.base]))
        labels = [inj.label or str(iid) for iid, inj in self._active.items()]
        return RuntimeError(
            f"session deadlock at t={self.now_us}us: "
            f"injections={labels[:8]}, blocked heads={blocked[:8]}"
        )

    def _try_fast_path(self, limit: Optional[float]) -> bool:
        """Deliver a one-shot result for a solo fresh-frame injection
        without running the event loop.

        Only fires in the state the reproducibility contract covers:
        clean session, exactly one injection, frame clock at zero,
        nothing started yet (empty heap and bus), a memoized result, and
        no limit short of its makespan.  The result is delivered as the
        shared memo object, identical to what the loop would produce.
        """
        iid = self._fast_iid
        if iid is None or self.memo is None:
            return False
        inj = self._active.get(iid)
        if (
            inj is None
            or not inj.solo
            or inj.memo_key is None
            or len(self._active) != 1
            or self.clock != 0.0
            or self._heap
            or self._b_slot
        ):
            return False
        result = self.memo.get(inj.memo_key)
        if result is None or (limit is not None and limit < result.makespan_cycles):
            return False
        if self.check_bounds:
            from repro.verify.bounds import bounds_for

            bounds_for(inj.program, self.npu).assert_contains(
                result.makespan_cycles,
                context=f"solo session injection {inj.label!r}",
            )
        self._fast_iid = None
        del self._active[iid]
        # Retire this frame's queue entries (all enqueued at inject;
        # the frame reset on the next idle inject clears them anyway).
        for qid in inj.pqids:
            self._q_head[qid] = len(self._q_slots[qid])
            self._q_busy[qid] = False
        self._check.clear()
        self.clock = result.makespan_cycles
        self._deliver(inj, result.makespan_cycles, result.trace)
        return True

    def _run(
        self, limit: Optional[float] = None, stop_on_completion: bool = False
    ) -> None:
        """The event loop: run to ``limit`` (session cycles), to the first
        completion (``stop_on_completion``), or until nothing is left.

        Each epoch: start every startable queue head, take the next heap
        or bus event, advance the bus to it, retire completions and
        every heap event inside the epsilon window.  The start-time
        fault hooks (dead cores, stall windows) run only once the plan
        has one to apply.
        """
        if self._try_fast_path(limit):
            if limit is not None and self.clock < limit and not stop_on_completion:
                self.clock = limit
            return
        inf = _INF
        lim = inf if limit is None else limit
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        check = self._check
        check_pop = check.pop
        check_append = check.append
        active = self._active
        completions = self._completions
        finish = self._finish

        q_core = self._q_core
        q_compute = self._q_compute
        q_slots = self._q_slots
        q_head = self._q_head
        q_busy = self._q_busy
        q_free = self._q_free
        indeg = self._indeg
        delay = self._delay
        evkind = self._evkind
        num_bytes = self._bytes
        dma_cap = self._dma_cap
        consumers = self._consumers
        qmap = self._qmap
        owner = self._owner
        done_at = self._done
        start_at = self._start
        free_at = self._free_at
        busy_cycles = self.busy_cycles

        b_slot = self._b_slot
        b_rem = self._b_rem
        b_cap = self._b_cap
        b_rate = self._b_rate
        b_dirty = self._b_dirty
        t_bus = self._t_bus
        bw = self.npu.bus_bytes_per_cycle
        uniform_cap = self._uniform_cap
        drained: List[int] = []  # transfers an epoch kernel retired

        dead = self.dead
        any_dead = any(dead)
        throttled = self._throttled
        core_windows = self._core_windows
        core_stalls = any(core_windows)
        start_hooks = any_dead or core_stalls
        bus_windows = self._bus_windows
        stall_cycles = self.stall_cycles

        clock = self.clock
        seq = self._seq
        try:
            while True:
                # Start every startable queue head reachable from the
                # check set.
                while check:
                    qid = check_pop()
                    if q_busy[qid]:
                        continue
                    idx = q_head[qid]
                    slots = q_slots[qid]
                    if idx >= len(slots):
                        continue
                    slot = slots[idx]
                    if start_hooks:
                        if any_dead:
                            if dead[q_core[qid]]:
                                continue
                            if done_at[slot] == _ABANDONED:
                                # Abandoned commands never start: skip.
                                n_slots = len(slots)
                                while idx < n_slots and done_at[slots[idx]] == _ABANDONED:
                                    idx += 1
                                q_head[qid] = idx
                                if idx >= n_slots:
                                    continue
                                slot = slots[idx]
                        if indeg[slot]:
                            continue
                        if core_stalls:
                            windows = core_windows[q_core[qid]]
                            if windows:
                                until = _stalled_until(windows, clock)
                                if until > clock:
                                    stall_cycles += until - clock
                                    heappush(heap, (until, seq, ~(qid << 2 | _WAKE)))
                                    seq += 1
                                    continue
                    elif indeg[slot]:
                        continue
                    dur = delay[slot]
                    if q_compute[qid]:
                        core = q_core[qid]
                        if throttled[core]:
                            self._cool(core, clock)
                            cc = self.npu.core(core)
                            level = cc.dvfs_level_for_heat(self.heat[core])
                            dur = dur / cc.dvfs_steps[level]
                            self.heat[core] += dur * cc.heat_per_busy_cycle
                            if level > 0:
                                self.throttled_cycles[core] += dur
                        busy_cycles[core] += dur
                    start_at[slot] = clock
                    free_at[slot] = q_free[qid]
                    q_busy[qid] = True
                    q_head[qid] = idx + 1
                    heappush(heap, (clock + dur, seq, slot))
                    seq += 1

                t_heap = heap[0][0] if heap else inf
                if b_dirty:
                    t_bus = clock + refill_eta(b_cap, b_rem, b_rate, bw, uniform_cap)
                    b_dirty = False
                t_next = t_heap if t_heap <= t_bus else t_bus
                if t_next == inf:
                    if active:
                        self.clock = clock
                        raise self._deadlock()
                    if limit is not None and clock < limit:
                        clock = limit
                    break
                at_limit = t_next > lim
                if at_limit:
                    # Stop at the limit: progress in-flight transfers to
                    # it (a partial advance; never taken by barrier-
                    # equivalent callers, who run each wave to
                    # completion instead).
                    if b_slot and lim > clock:
                        # A split advance changes the residual float
                        # chain, so the frame no longer replays a
                        # one-shot run.
                        for inj in active.values():
                            inj.solo = False
                        eta = advance_eta(b_slot, b_rem, b_cap, b_rate, lim - clock, drained)
                        if not drained:
                            t_bus = lim + eta
                        elif b_slot:
                            b_dirty = True
                        else:
                            t_bus = inf
                    if clock < lim:
                        clock = lim
                else:
                    if b_slot:
                        if t_next > clock:
                            eta = advance_eta(
                                b_slot, b_rem, b_cap, b_rate, t_next - clock, drained
                            )
                            if not drained:
                                t_bus = t_next + eta
                            elif b_slot:
                                b_dirty = True
                            else:
                                t_bus = inf
                        elif t_next == t_bus:
                            force_min(b_slot, b_rem, b_cap, b_rate, bw, drained)
                            if b_slot:
                                b_dirty = True
                            else:
                                t_bus = inf
                    clock = t_next
                if drained:
                    for slot in drained:
                        done_at[slot] = clock
                        qid = qmap[slot]
                        q_busy[qid] = False
                        q_free[qid] = clock
                        check_append(qid)
                        inj = owner[slot]
                        base = inj.base
                        for consumer in consumers[slot]:
                            consumer += base
                            left = indeg[consumer] - 1
                            indeg[consumer] = left
                            if not left:
                                check_append(qmap[consumer])
                        inj.left -= 1
                        if not inj.left:
                            finish(inj, clock)
                    drained.clear()
                if at_limit:
                    break
                if heap:
                    # Retire every heap event inside this epoch's epsilon
                    # window (one peek per pop).
                    threshold = clock + _EPS
                    h0 = heap[0]
                    while h0[0] <= threshold:
                        slot = heappop(heap)[2]
                        if slot < 0:
                            code = ~slot
                            tag = code & 3
                            if tag == _WAKE:
                                check_append(code >> 2)
                            elif tag == _OFFLINE:
                                if self._doom_core(code >> 2, clock):
                                    b_dirty = True
                                any_dead = start_hooks = True
                        elif evkind[slot]:
                            until = _stalled_until(bus_windows, clock) if bus_windows else 0.0
                            if until > clock:
                                stall_cycles += until - clock
                                heappush(heap, (until, seq, slot))
                                seq += 1
                            else:
                                b_slot.append(slot)
                                b_rem.append(num_bytes[slot])
                                b_cap.append(dma_cap[slot])
                                b_rate.append(0.0)
                                b_dirty = True
                        else:
                            done_at[slot] = clock
                            qid = qmap[slot]
                            q_busy[qid] = False
                            q_free[qid] = clock
                            check_append(qid)
                            inj = owner[slot]
                            base = inj.base
                            for consumer in consumers[slot]:
                                consumer += base
                                left = indeg[consumer] - 1
                                indeg[consumer] = left
                                if not left:
                                    check_append(qmap[consumer])
                            inj.left -= 1
                            if not inj.left:
                                finish(inj, clock)
                        if not heap:
                            break
                        h0 = heap[0]
                if stop_on_completion and completions:
                    break
        finally:
            self.clock = clock
            self._seq = seq
            self._b_dirty = b_dirty
            self._t_bus = t_bus
            self.stall_cycles = stall_cycles
