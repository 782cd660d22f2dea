"""Discrete-event simulation of a Program on an NPU machine description.

Engines (load DMA, compute, store DMA, control) process their command
queues strictly in order; a command starts when it is the queue head,
its engine is free, and all dependencies have completed.  Compute and
barrier commands have deterministic durations from the cost model; DMA
commands pay a fixed first-byte latency and then stream through the
shared-bus fluid model, so concurrent transfers slow each other down
exactly as on the real memory system.

:func:`simulate` is the one-shot entry point: it runs the program as
the only injection of a fresh :class:`repro.sim.session.SimSession`,
whose event loop is the package's one scheduler -- flat
struct-of-arrays state (a reverse-dependency index, outstanding-
dependency counters) and the bus as parallel lists driven *per decision
epoch* by the kernels in :mod:`repro.sim.bus`.  A fault plan arms the
same loop's fault hooks; a clean run skips them.

This module holds what that loop is built from.  The seed-independent
part of the precomputation (queues, reverse-dependency index,
durations) is a :class:`_SimPlan`, built from the program's columns
once per (compiled program, machine) and cached on the program; a
placed program runs on its source's plan (:func:`_plan_for`).  Per-seed
jitter tables are cached on the plan, so sweeping repeated seeds -- the
shape of every serving experiment -- pays only for the event loop.
Above all of that sits :mod:`repro.sim.memo`: repeated (program,
machine, seed, fault plan) requests return the cached result without
entering the loop at all.

Trace assembly is *columnar and lazy*.  The loop records start,
completion and engine-free times only; the readiness fields
(``own_ready``, ``dep_ready``) are selections among completion times --
outputs, never scheduling inputs -- derived by batched numpy reductions
(``maximum.reduceat``) over the plan's flattened dependency rows, and
only when a consumer first reads the trace (:func:`_finished_columns`);
the rows themselves are built on the first such read
(:meth:`_SimPlan.readiness`), so a run whose trace nobody reads never
builds them.

Two retired generations of this scheduler -- the queue-scanning
original and the object-based event-driven core -- are kept under
``tests/sim/`` as bit-identity references: every trace must match them
for equal seeds (``tests/sim/test_scheduler_equivalence.py`` and
``tests/sim/test_flat_core.py``).
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.program import CommandKind, Program
from repro.cost.compute import compute_cycles
from repro.faults.plan import FaultPlan, FaultStats
from repro.hw.config import NPUConfig
from repro.sim import memo as memo_mod
from repro.sim.memo import USE_DEFAULT_MEMO, SimMemo
from repro.sim.trace import STATIC_FIELDS, Trace, TraceColumns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.session import SimSession
    from repro.verify.bounds import BoundsReport

#: heap events within this many cycles of the clock retire together.
_EPS = 1e-9

#: command event kinds: a command ends when its delay elapses, or
#: (DMA with a payload) joins the bus then and ends when it drains.
_END = 0
_JOIN_BUS = 1

#: attribute under which per-machine scheduling plans are cached on a Program
_PLAN_ATTR = "_sim_plans"

#: per-plan jitter tables kept per seed (serving sweeps reuse few seeds)
_DELAY_CACHE_LIMIT = 64


@dataclasses.dataclass
class SimResult:
    """Outcome of one simulated inference.

    ``faults`` is populated only by runs under a non-empty fault plan
    (:mod:`repro.faults`); clean simulation leaves it ``None``.

    Results returned through :mod:`repro.sim.memo` are shared objects:
    treat the trace as immutable.
    """

    trace: Trace
    makespan_cycles: float
    npu: NPUConfig
    faults: Optional[FaultStats] = None

    @property
    def latency_us(self) -> float:
        return self.npu.cycles_to_us(self.makespan_cycles)


class _SimPlan:
    """Seed-independent scheduling state for one (program, machine) pair.

    Everything here is derived from the program's columns
    (:meth:`~repro.compiler.program.Program.columns`, kept as
    ``columns``, shared, not copied) and the machine description only:
    the engine queues, the reverse-dependency index, outstanding-
    dependency counts, fixed durations and DMA link caps -- what the
    event loop and the static bracket read.  A placed program runs on
    its source's plan (:func:`_plan_for`), so what a trace or a session
    needs to know about the *injected* program -- queue keys, cores,
    the static trace fields -- is read from that program, never from
    the plan.  The readiness rows trace derivation reduces over are
    built by :meth:`readiness` on the first trace read and kept.
    Per-seed jitter tables are layered on top by :meth:`delays_for` and
    cached, since serving and sweep workloads revisit a handful of seeds.
    """

    __slots__ = (
        "total",
        "columns",
        "qcids",
        "qid_of",
        "prev_q",
        "consumers",
        "indeg0",
        "base_delay",
        "evkind",
        "dma_cap",
        "num_bytes_f",
        "jittered",
        "bounds",
        "_delay_cache",
        "_next_q",
        "_readiness",
    )

    def __init__(self, program: Program, npu: NPUConfig) -> None:
        self.columns = cols = program.columns()
        cores, kinds, deps_of = cols.core, cols.kind, cols.deps
        total = len(kinds)
        self.total = total

        queues = program.engine_queues()
        self.qid_of = queues.qid_of
        self.qcids = queues.members
        #: in-queue predecessor of each command (-1 for queue heads)
        self.prev_q = queues.prev

        self.consumers = consumers = [[] for _ in range(total)]
        self.indeg0 = list(map(len, deps_of))
        self.base_delay = base_delay = [0.0] * total
        self.evkind = evkind = [_END] * total
        self.dma_cap = dma_cap = [0.0] * total
        self.num_bytes_f = num_bytes_f = [0.0] * total
        #: (cid, jitter bound) for commands that draw service-time jitter
        self.jittered: List[Tuple[int, float]] = []
        self._delay_cache: Dict[Tuple[int, int], List[float]] = {}

        sync_bound = npu.sync_jitter_cycles
        halo_bound = npu.halo_jitter_cycles
        dram_latency = npu.dram_latency_cycles
        core_config = npu.cores

        for cid, (core, kind, deps, num_bytes, macs, cycles) in enumerate(
            zip(cores, kinds, deps_of, cols.num_bytes, cols.macs, cols.cycles)
        ):
            for dep in deps:
                consumers[dep].append(cid)
            if kind is CommandKind.COMPUTE:
                base_delay[cid] = compute_cycles(macs, core_config[core])
            elif kind is CommandKind.BARRIER:
                base_delay[cid] = cycles
                if sync_bound > 0:
                    self.jittered.append((cid, sync_bound))
            else:  # DMA: fixed first-byte latency (plus command-specific
                # setup like the halo-exchange rendezvous), then the bus.
                base_delay[cid] = dram_latency + cycles
                if kind in (CommandKind.HALO_SEND, CommandKind.HALO_RECV):
                    if halo_bound > 0:
                        self.jittered.append((cid, halo_bound))
                if num_bytes > 0:
                    evkind[cid] = _JOIN_BUS
                dma_cap[cid] = core_config[core].dma_bytes_per_cycle
                num_bytes_f[cid] = float(num_bytes)
        self._next_q: Optional[List[int]] = None
        self._readiness: Optional[Tuple[np.ndarray, ...]] = None
        #: the static latency bracket, kept by
        #: :func:`repro.verify.bounds.bounds_for` on first use.
        self.bounds: Optional["BoundsReport"] = None

    def readiness(self) -> Tuple[np.ndarray, ...]:
        """The flattened (CSR-style) dependency rows trace derivation
        reduces over: ``(dep_flat, dep_starts, dep_cids, own_flat,
        own_starts, own_cids)``.

        ``dep_*`` holds every command's dependencies and ``own_*`` its
        same-core ones, non-empty rows only: ``*_flat`` concatenates the
        rows, ``*_starts`` is where each begins and ``*_cids`` whose it
        is.  :func:`_finished_columns` reduces completion times over them
        with ``np.maximum.reduceat`` instead of a per-command scan.  Only
        a trace read needs them, so they are built on the first one and
        kept; an injective core renaming keeps every same-core relation,
        so a placed program's trace reads its source's rows.
        """
        rows = self._readiness
        if rows is None:
            cols = self.columns
            cores = cols.core
            dep_flat: List[int] = []
            dep_starts: List[int] = []
            dep_cids: List[int] = []
            own_flat: List[int] = []
            own_starts: List[int] = []
            own_cids: List[int] = []
            for cid, (core, deps) in enumerate(zip(cores, cols.deps)):
                if not deps:
                    continue
                dep_starts.append(len(dep_flat))
                dep_cids.append(cid)
                dep_flat.extend(deps)
                own = [d for d in deps if cores[d] == core]
                if own:
                    own_starts.append(len(own_flat))
                    own_cids.append(cid)
                    own_flat.extend(own)
            rows = self._readiness = tuple(
                np.array(row, dtype=np.intp)
                for row in (dep_flat, dep_starts, dep_cids, own_flat, own_starts, own_cids)
            )
        return rows

    def queue_successors(self) -> List[int]:
        """In-queue successor of each command (-1 for queue tails).

        Only fault handling needs it (abandoning a command dooms the
        rest of its in-order queue), so it is built on first use.
        """
        nxt = self._next_q
        if nxt is None:
            nxt = [-1] * self.total
            for cid, prev in enumerate(self.prev_q):
                if prev >= 0:
                    nxt[prev] = cid
            self._next_q = nxt
        return nxt

    def delays_for(self, seed: int, base: int = 0) -> List[float]:
        """Per-command durations with this seed's jitter applied.

        The returned list is shared and cached: callers must treat it
        as read-only (sessions copy it into their slot arrays).
        Cross-core coordination runs through the host driver, whose
        service time varies; hardware-timed compute and plain DMA draw
        no jitter.  One reseeded generator replaces the per-command
        ``random.Random`` construction of the reference scheduler;
        reseeding is equivalent to construction, so the draws are
        bit-identical.  Draws are seeded by ``cid + base``, so a wave's
        later programs draw as if numbered after the earlier ones
        (:func:`repro.sim.multitenant.inject_wave`).
        """
        if not self.jittered:
            return self.base_delay
        cache = self._delay_cache
        delay = cache.get((seed, base))
        if delay is None:
            delay = list(self.base_delay)
            rng = random.Random()
            hi = seed << 32
            for cid, bound in self.jittered:
                rng.seed(hi ^ ((cid + base) * 2654435761))
                delay[cid] += rng.uniform(0.0, bound)
            if len(cache) >= _DELAY_CACHE_LIMIT:
                cache.pop(next(iter(cache)))
            cache[seed, base] = delay
        return delay


def _plan_for(program: Program, npu: NPUConfig) -> _SimPlan:
    """Fetch or build the cached scheduling plan for (program, npu).

    The cache lives on the program object, keyed by the (hashable,
    frozen) machine description, so a program swept across seeds or
    machines keeps one plan per machine and the whole thing is garbage
    collected with the program.  A program cannot change, so a plan,
    once built, is kept with no validity check.

    Every reader of a (program, machine) pair comes through here -- the
    event loop, the static bracket and the performance lint -- so this
    is where the pair is checked: the core count on every call, the
    program's well-formedness when its plan is built, through the
    verdict the program keeps (:meth:`Program.structure`; a built
    program already has one).  There is one plan per compiled program
    and machine: a placed program's plan *is* its source's plan on the
    group machine (:func:`_placed_plan`), the same object, so the two
    share the bracket and the jitter tables too.
    """
    if program.num_cores > npu.num_cores:
        raise ValueError(
            f"program targets {program.num_cores} cores, machine has {npu.num_cores}"
        )
    plans: Dict[NPUConfig, _SimPlan] = vars(program).setdefault(_PLAN_ATTR, {})
    plan = plans.get(npu)
    if plan is None:
        placement = program.placement()
        # An empty program has nothing to derive (nor any group machine).
        if placement is None or not len(program):
            program.validate()
            plan = _SimPlan(program, npu)
        else:
            plan = _placed_plan(placement.source, placement.cores, npu)
        plans[npu] = plan
    return plan


def _placed_plan(source: Program, cores: Tuple[int, ...], npu: NPUConfig) -> _SimPlan:
    """The plan ``source`` placed on ``cores`` of ``npu`` runs on: the
    source's own plan on the group machine.

    Core ``i`` of the source runs as core ``cores[i]`` of ``npu``, so
    the source's plan on the *group machine* -- ``npu`` with cores
    ``npu.cores[c] for c in cores``, the bus and the clock kept --
    prices every command exactly as a plan of the placed program would:
    an injective core renaming keeps every dependency, queue and price.
    Compile machines name their group differently by caller
    (:func:`repro.sim.multitenant.sub_machine`), so a plan the source
    already has on a machine equal to the group machine in everything
    but its name is returned; otherwise the source's plan on the group
    machine is built.  Map entries past the source's core count name no
    command and are left out.
    """
    cores = cores[: source.num_cores]
    group = dataclasses.replace(npu, cores=tuple(npu.cores[c] for c in cores))
    plans = vars(source).get(_PLAN_ATTR, {})
    machine = next(
        (m for m in plans if dataclasses.replace(m, name=npu.name) == group), group
    )
    return _plan_for(source, machine)


def simulate(
    program: Program,
    npu: NPUConfig,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
    memo: Optional[SimMemo] = USE_DEFAULT_MEMO,  # type: ignore[assignment]
    check_bounds: bool = False,
) -> SimResult:
    """Run ``program`` to completion and return the trace.

    ``seed`` drives the deterministic pseudo-random jitter applied to
    cross-core coordination commands (barriers, halo rendezvous); runs
    with equal seeds are bit-identical.

    The run is the one injection, at t=0, of a fresh
    :class:`~repro.sim.session.SimSession` armed with ``faults``
    (throttling, stalls, core death); the result then carries the run's
    :class:`~repro.faults.plan.FaultStats`.  An empty or absent plan
    leaves every fault hook off, so the clean run is bit-identical --
    and shares memo entries -- whether or not a plan object was passed.

    ``memo`` defaults to the process-wide :func:`repro.sim.memo.default_memo`;
    pass ``None`` to force a fresh run (benchmarks measuring raw core
    speed do) or a private :class:`~repro.sim.memo.SimMemo` to isolate
    an experiment's cache.  Memoized results are shared objects.

    ``check_bounds=True`` asserts the makespan against the program's
    static latency bracket (:mod:`repro.verify.bounds`), raising
    :class:`~repro.verify.bounds.BoundsViolation` on escape -- the
    oracle that guards rewrites of the event loop.  Faulted runs
    deliberately violate the bracket, so combining the two is refused.
    """
    if faults is not None and faults.is_empty:
        faults = None
    if faults is not None and check_bounds:
        raise ValueError(
            "check_bounds applies to clean runs only: fault injection "
            "(throttling, stalls, core death) escapes the static bracket"
        )
    if memo is USE_DEFAULT_MEMO:
        memo = memo_mod.default_memo()
    result = None
    if memo is not None:
        if faults is None:
            key = memo_mod.clean_key(program, npu, seed)
        else:
            key = memo_mod.faulted_key(program, npu, seed, faults)
        result = memo.get(key)
    if result is None:
        # session.py imports this module: import it at call time.
        from repro.sim.session import SimSession

        result = _one_shot(SimSession(npu, faults=faults, memo=None), program, seed)
        if memo is not None:
            memo.put(key, result)
    if check_bounds:
        from repro.verify.bounds import bounds_for

        bounds_for(program, npu).assert_contains(
            result.makespan_cycles, context=f"seed {seed} on {npu.name}"
        )
    return result


def _one_shot(session: "SimSession", program: Program, seed: int) -> SimResult:
    """Run ``program`` as the only injection of the fresh ``session``,
    injected at the session's origin, and collect its result."""
    session.inject(program, at_us=session.origin_us, seed=seed)
    # A program with nothing left to run (empty, or wholly on cores dead
    # from the start) completed at injection: running on would process
    # fault events this run never reached.
    (out,) = session.run_until(session.now_us if session.idle else None)
    npu = session.npu
    stats = None
    if session.faults is not None:
        session.cool(out.completed_at_cycles)
        stats = FaultStats(
            plan=session.faults.describe(),
            dead_cores=tuple(c for c in range(npu.num_cores) if session.dead[c]),
            abandoned_cids=out.abandoned_cids,
            throttled_busy_cycles=tuple(session.throttled_cycles),
            busy_cycles=tuple(session.busy_cycles),
            stall_cycles=session.stall_cycles,
            heat=tuple(session.heat),
        )
    # Abandoned commands leave no events: the makespan is the last
    # completion, which precedes an abandonment that ended the run.
    makespan = out.span_cycles()[1] if out.failed else out.completed_at_cycles
    return SimResult(trace=out.trace, makespan_cycles=makespan, npu=npu, faults=stats)


def _finished_columns(
    plan: _SimPlan,
    program: Program,
    finished: Optional[Sequence[int]],
    start: List[float],
    done_at: List[float],
    free_at: List[float],
) -> TraceColumns:
    """Columnar trace payload of a session injection's finished commands.

    ``program`` is the injected program, run on ``plan``: the static
    trace fields are its columns (a placed program's ``core`` column is
    built here, on its first trace read).  Sessions record each
    command's start and the time its engine last freed up (``free_at``)
    as it starts -- both depend on other injections and on faults.  The
    readiness fields are derived here, over the plan's
    :meth:`~_SimPlan.readiness` rows: ``dep_ready`` is the latest
    dependency completion (0 without deps); ``own_ready`` folds the
    same-core dependencies into ``free_at``.  Both are *selections*
    among completion times, never arithmetic, so the segmented
    ``maximum.reduceat`` reductions produce the exact floats of a
    per-command scan.  ``finished`` lists the completed commands in
    ascending order (``None``: all of them); the stable sort on start
    then equals ordering by (start, cid), the event order every core
    emits.
    """
    dep_flat, dep_starts, dep_cids, own_flat, own_starts, own_cids = plan.readiness()
    start_a = np.array(start)
    done = np.array(done_at)
    r_own = np.array(free_at)
    r_dep = np.zeros(plan.total)
    if len(dep_flat):
        r_dep[dep_cids] = np.maximum.reduceat(done[dep_flat], dep_starts)
    if len(own_flat):
        red = np.maximum.reduceat(done[own_flat], own_starts)
        np.maximum(r_own[own_cids], red, out=red)
        r_own[own_cids] = red
    if finished is None:
        order = np.argsort(start_a, kind="stable")
    else:
        fin = np.array(finished, dtype=np.intp)
        order = fin[np.argsort(start_a[fin], kind="stable")]
    cols = program.columns()
    # .tolist() yields plain Python floats: downstream consumers (stats
    # sums, json dumps) must never see numpy scalars.
    return TraceColumns(
        cids=order.tolist(),
        start=start_a[order].tolist(),
        end=done[order].tolist(),
        own_ready=r_own[order].tolist(),
        dep_ready=r_dep[order].tolist(),
        static={name: getattr(cols, name) for name in STATIC_FIELDS},
    )
