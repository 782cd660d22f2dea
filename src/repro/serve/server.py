"""The request-level serving simulator: one admission loop.

Layers a queueing loop over the compiler and the event-driven machine
simulator: requests arrive open-loop, a policy decides which queued
requests start on which core groups, and each admission is a *wave*:
one :class:`~repro.sim.session.SimSession` injection per request of its
placed, statically verified program, all at one instant
(:func:`repro.sim.multitenant.inject_wave`), so concurrent requests
contend for the one resource they physically share: the bus to global
memory.  Each injection reports its own request's outcome; a wave
retires when its last injection is delivered.  The two modes differ
only in how waves are formed:

* ``"gang"`` -- with nothing in flight, the policy's
  :meth:`~repro.serve.policies.SchedulingPolicy.plan` picks one wave
  over the free cores, and the wave runs to completion in a fresh
  session frame before the next one is planned; the serving clock moves
  only when the whole wave is done.  Admission is therefore
  conservative; the queueing delays reported are an upper bound
  relative to a runtime that backfills cores the moment they free up.
* ``"continuous"`` -- whenever cores are free and work is queued,
  :meth:`~repro.serve.policies.SchedulingPolicy.admit` places requests
  on them, one one-request wave each, onto one shared session timeline
  where in-flight requests keep running.  The report's
  :class:`~repro.serve.metrics.ContinuousStats` section carries the
  admission trace, per-core idle time and ``policy_stall_us`` -- time
  cores sat free while admissible work was queued.

Everything else is one code path: arrival intake, dead-core removal,
SLO shedding, retries of requests whose injection a fault abandoned,
results and the report.  A non-empty :class:`~repro.faults.plan.FaultPlan`
arms the session with throttling, stall windows and core-offline
events; a request that loses commands to a dead core is retried with
exponential backoff onto the surviving cores (the policy just sees a
smaller free set, and the fingerprint-keyed program cache absorbs the
recompiles) or, past ``retry_limit``, shed.  Nothing is dropped
silently: every request ends served (a
:class:`~repro.serve.request.RequestResult`) or shed (a
:class:`~repro.serve.metrics.ShedRecord` with a reason).

Determinism: the arrival stream is seeded, policies are deterministic
functions of the queue and the (cached) latency predictions, and each
wave simulates with a seed derived from (server seed, device id, wave
index) -- see :mod:`repro.serve.seeding`.  Running the same workload
twice produces identical reports.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.cache import ProgramCache
from repro.compiler.options import CompileOptions
from repro.hw.config import NPUConfig
from repro.serve.metrics import (
    AdmissionRecord,
    ContinuousStats,
    DegradedStats,
    ServeReport,
    ShedRecord,
    build_report,
    results_sorted,
)
from repro.serve.policies import (
    POLICY_NAMES,
    Assignment,
    PolicyError,
    SchedulingPolicy,
    get_policy,
    validate_assignments,
)
from repro.serve.predictor import LatencyPredictor
from repro.serve.request import (
    MixEntry,
    Request,
    RequestResult,
    generate_requests,
)
from repro.serve.seeding import wave_seed
from repro.sim.multitenant import inject_wave
from repro.sim.session import InjectionOutcome, SimSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan

_EPS = 1e-9


@dataclasses.dataclass
class _InFlight:
    """One admitted wave; each of its injections carries ``(wave, slot)``
    as its session ``meta``."""

    index: int
    pairs: Assignment
    admitted_us: float
    #: delivered outcomes by slot.
    outcomes: Dict[int, InjectionOutcome] = dataclasses.field(default_factory=dict)


def _idle_per_core(
    occupancy: Sequence[List[Tuple[float, float]]], makespan_us: float
) -> Tuple[float, ...]:
    """Per-core time not covered by any admission, over the makespan."""
    idle = []
    for intervals in occupancy:
        covered = 0.0
        last_end = 0.0
        for start, end in sorted(intervals):
            start = max(start, last_end)
            end = min(end, makespan_us)
            if end > start:
                covered += end - start
                last_end = end
            last_end = max(last_end, min(end, makespan_us), start)
        idle.append(max(0.0, makespan_us - covered))
    return tuple(idle)


def _continuous_stats(
    admissions: Sequence[AdmissionRecord],
    policy_stall_us: float,
    occupancy: Sequence[List[Tuple[float, float]]],
    makespan_us: float,
) -> ContinuousStats:
    backfills = [a.backfill_us for a in admissions]
    return ContinuousStats(
        num_admissions=len(admissions),
        policy_stall_us=policy_stall_us,
        core_idle_us=_idle_per_core(occupancy, makespan_us),
        mean_backfill_us=sum(backfills) / len(backfills) if backfills else 0.0,
        max_backfill_us=max(backfills) if backfills else 0.0,
        admissions=tuple(admissions),
    )


def serve(
    models: Sequence[MixEntry],
    npu: NPUConfig,
    policy: Union[str, SchedulingPolicy] = "fifo",
    rps: float = 800.0,
    duration_us: float = 20_000.0,
    seed: int = 0,
    options: Optional[CompileOptions] = None,
    slo_scale: float = 5.0,
    max_requests: int = 0,
    predictor: Optional[LatencyPredictor] = None,
    cache: Optional[ProgramCache] = None,
    faults: "Optional[FaultPlan]" = None,
    retry_limit: int = 3,
    backoff_us: float = 200.0,
    shed_slo: bool = False,
    mode: str = "gang",
    requests: Optional[Sequence[Request]] = None,
    device_id: int = 0,
) -> ServeReport:
    """Serve one generated workload under one policy.

    ``slo_scale`` sets each request's SLO to ``slo_scale`` times its
    model's isolated whole-machine latency (0 disables SLOs).  Passing a
    shared ``predictor`` (or ``cache``) lets several policy runs reuse
    compilations and isolated simulations.

    ``requests`` bypasses the internal arrival generator with an
    externally-built stream (already carrying arrival times and SLOs) --
    the fleet router (:mod:`repro.serve.fleet`) uses this to hand each
    device its routed share of one fleet-wide workload.  ``device_id``
    names this server within a fleet; per-injection simulation seeds
    derive from ``(seed, device_id, index)`` so no two devices share a
    jitter stream (see :func:`repro.serve.seeding.wave_seed`; device 0,
    the single-server default, keeps the historical derivation).

    ``mode`` selects the admission discipline (see the module
    docstring): ``"gang"`` (the default) starts requests in waves and
    waits for each wave to drain; ``"continuous"`` backfills cores the
    moment they free up, which is work-conserving and strictly kinder to
    queue times under backlog.

    A non-empty ``faults`` plan injects faults on the serving clock:
    requests a fault abandoned are retried (``retry_limit`` executions
    max, exponential ``backoff_us`` from the injection's completion)
    onto the surviving cores, and -- with ``shed_slo`` -- requests whose
    queueing delay alone already exceeds their SLO are shed.  The
    report then carries a :class:`~repro.serve.metrics.DegradedStats`
    section.  An empty or absent plan is a clean run.
    """
    if mode not in ("gang", "continuous"):
        raise ValueError(f"unknown serving mode {mode!r}; 'gang' or 'continuous'")
    if retry_limit < 1:
        raise ValueError("retry_limit must be >= 1")
    if not backoff_us >= 0:
        raise ValueError("backoff_us must be >= 0")
    if isinstance(policy, str):
        policy = get_policy(policy)
    if predictor is None:
        predictor = LatencyPredictor(npu, options, cache=cache, seed=seed)

    if requests is None:
        requests = generate_requests(
            models,
            rps=rps,
            duration_us=duration_us,
            seed=seed,
            max_requests=max_requests,
            slo_of=predictor.slo_of(slo_scale),
        )

    plan = faults if faults is not None and not faults.is_empty else None
    gang = mode == "gang"
    num_cores = npu.num_cores
    cycles_to_us = npu.cycles_to_us
    # Continuous mode's one timeline; gang mode gives each wave a fresh
    # session frame at the wave's start (a faulted session never resets
    # its clock, so sharing one across waves would shift every event's
    # float arithmetic).
    session = SimSession(npu, faults=plan)
    pending = deque(requests)
    queue: List[Request] = []
    results: List[RequestResult] = []
    shed: List[ShedRecord] = []
    attempts: Dict[int, int] = {}
    #: earliest serving time a failed request may be re-admitted.
    eligible_us: Dict[int, float] = {}
    busy_cycles = [0.0] * num_cores
    patterns_used: set = set()
    free = list(range(num_cores))
    free_since = [0.0] * num_cores
    occupancy: List[List[Tuple[float, float]]] = [[] for _ in range(num_cores)]
    admissions: List[AdmissionRecord] = []
    policy_stall_us = 0.0
    clock = 0.0
    makespan_us = 0.0
    index = 0
    in_flight = 0
    num_retries = 0
    num_failed = 0
    stall_cycles = 0.0
    throttled_busy = 0.0
    total_busy = 0.0

    def fold_session() -> None:
        nonlocal stall_cycles, throttled_busy, total_busy
        stall_cycles += session.stall_cycles
        throttled_busy += sum(session.throttled_cycles)
        total_busy += sum(session.busy_cycles)

    def inject(pairs: Assignment, free_t: Tuple[int, ...]) -> None:
        nonlocal session, index, in_flight
        patterns_used.add(tuple((r.model, cores) for r, cores in pairs))
        if gang:
            # The wave's frame carries the previous wave's heat, cooled
            # to its end and then through the idle gap.
            session.cool(session.clock)
            heat = session.heat
            dt = npu.us_to_cycles(clock - session.now_us)
            if dt > 0:
                heat = [
                    max(0.0, h - npu.core(core).cool_per_cycle * dt)
                    for core, h in enumerate(heat)
                ]
            fold_session()
            session = SimSession(
                npu, faults=plan, origin_us=clock, initial_heat=heat
            )
        wave = _InFlight(index, pairs, clock)
        inject_wave(
            session,
            [predictor.placed_for(r.model, cores) for r, cores in pairs],
            at_us=clock,
            seed=wave_seed(seed, device_id, index),
            metas=[(wave, slot) for slot in range(len(pairs))],
        )
        for request, cores in pairs:
            queue.remove(request)
            attempts[request.rid] = attempts.get(request.rid, 0) + 1
            if not gang:
                admissions.append(
                    AdmissionRecord(
                        rid=request.rid,
                        t_us=clock,
                        cores=cores,
                        queue_len=len(queue) + 1,
                        free_cores=free_t,
                        backfill_us=clock - min(free_since[c] for c in cores),
                    )
                )
            for c in cores:
                free.remove(c)
        index += 1
        in_flight += 1

    def retire(wave: _InFlight) -> None:
        nonlocal makespan_us, in_flight, num_retries, num_failed
        in_flight -= 1
        outcomes = [wave.outcomes[slot] for slot in range(len(wave.pairs))]
        # The wave is done with its latest completion; a failed
        # injection ends when its last command completed or was
        # abandoned: a core death that aborts running work ends it.
        done_us = max(
            out.origin_us + cycles_to_us(out.completed_at_cycles) for out in outcomes
        )
        if any(out.failed for out in outcomes):
            num_failed += 1
        for (request, cores), out in zip(wave.pairs, outcomes):
            for c in cores:
                busy_cycles[c] += out.busy_cycles(c)
                occupancy[c].append((wave.admitted_us, done_us))
                # Cores return to the pool only while they are alive.
                if not session.dead[c]:
                    free.append(c)
                    free_since[c] = done_us
            if out.failed:
                n = attempts[request.rid]
                if n >= retry_limit:
                    shed.append(ShedRecord(request, shed_us=done_us, reason="retries"))
                else:
                    num_retries += 1
                    eligible_us[request.rid] = done_us + backoff_us * (2 ** (n - 1))
                    queue.append(request)
                continue
            start_cy, finish_cy = out.span_cycles()
            finish_us = out.origin_us + cycles_to_us(finish_cy)
            results.append(
                RequestResult(
                    request=request,
                    start_us=out.origin_us + cycles_to_us(start_cy),
                    finish_us=finish_us,
                    cores=cores,
                    wave=wave.index,
                    attempts=attempts[request.rid],
                )
            )
            makespan_us = max(makespan_us, finish_us)
        free.sort()

    while pending or queue or in_flight:
        if not in_flight:
            # Jump to the next actionable instant: an arrival, or a
            # retried request leaving its backoff window.
            horizons = [eligible_us.get(r.rid, 0.0) for r in queue]
            if pending:
                horizons.append(pending[0].arrival_us)
            if horizons:
                clock = max(clock, min(horizons))
        while pending and pending[0].arrival_us <= clock + _EPS:
            queue.append(pending.popleft())

        if plan is not None:
            dead = plan.dead_cores_at(clock)
            if len(dead) >= num_cores:
                # Offline cores never come back: what is in flight fails
                # at the death, and everything else is shed.  The clock
                # follows the failed injections, not the session, whose
                # drain also fires aborted commands' leftover events.
                for out in session.run_until(None, stop_on_completion=False):
                    wave, slot = out.meta
                    request, cores = wave.pairs[slot]
                    for core in cores:
                        busy_cycles[core] += out.busy_cycles(core)
                    shed_us = out.origin_us + cycles_to_us(out.completed_at_cycles)
                    clock = max(clock, shed_us)
                    shed.append(ShedRecord(request, shed_us, "no-cores"))
                for r in queue:
                    shed.append(ShedRecord(r, shed_us=clock, reason="no-cores"))
                for r in pending:
                    shed.append(
                        ShedRecord(r, shed_us=max(clock, r.arrival_us), reason="no-cores")
                    )
                queue.clear()
                pending.clear()
                break
            if dead:
                free[:] = [c for c in free if c not in dead]

        if shed_slo and plan is not None:
            hopeless = [
                r
                for r in queue
                if r.slo_us > 0 and clock - r.arrival_us > r.slo_us + _EPS
            ]
            for r in hopeless:
                queue.remove(r)
                shed.append(ShedRecord(r, shed_us=clock, reason="slo"))

        ready = [r for r in queue if eligible_us.get(r.rid, 0.0) <= clock + _EPS]
        if ready and free and not (gang and in_flight):
            free_t = tuple(free)
            if gang:
                assigned = policy.plan(ready, npu, predictor, cores=free_t)
            else:
                assigned = policy.admit(ready, npu, predictor, free_cores=free_t)
            # Declining to backfill is legal (it shows up as policy
            # stall time); an empty wave would never make progress.
            validate_assignments(
                policy, assigned, ready, npu,
                allowed_cores=free_t, allow_empty=not gang,
            )
            batches = [assigned] if gang else [[pair] for pair in assigned]
            for pairs in batches:
                inject(pairs, free_t)
            if batches:
                continue

        horizons = []
        if pending:
            horizons.append(pending[0].arrival_us)
        waiting = [
            eligible_us[r.rid]
            for r in queue
            if eligible_us.get(r.rid, 0.0) > clock + _EPS
        ]
        if waiting:
            horizons.append(min(waiting))
        if in_flight:
            # Nothing admissible now: run to the next completion -- in
            # continuous mode no further than the next arrival or
            # backoff expiry, either of which may unblock work.
            stalled = bool(ready) and bool(free)
            t_prev = clock
            until = min(horizons) if horizons and not gang else None
            outcomes = session.run_until(until)
            while gang and session.num_active:
                # A gang wave retires whole: the clock skips the
                # completions of its earlier injections.
                outcomes += session.run_until()
            if outcomes:
                clock = session.now_us
            elif until is not None:
                clock = max(clock, until)
            if stalled:
                policy_stall_us += max(0.0, clock - t_prev)
            for out in outcomes:
                wave, slot = out.meta
                wave.outcomes[slot] = out
                if len(wave.outcomes) == len(wave.pairs):
                    retire(wave)
        elif ready and free:
            raise PolicyError(
                f"policy {policy.name!r} admitted nothing with cores "
                f"{tuple(free)} free, no work in flight, and {len(ready)} "
                "admissible request(s) queued: the serving loop cannot "
                "make progress"
            )
        elif horizons and min(horizons) > clock:
            clock = min(horizons)
        elif not queue and not pending:
            break

    degraded = None
    if plan is not None:
        fold_session()
        degraded = DegradedStats(
            faults=plan.describe(),
            num_retries=num_retries,
            num_failed_waves=num_failed,
            num_shed=len(shed),
            shed_rate=len(shed) / len(requests) if requests else 0.0,
            dead_cores=plan.dead_cores_at(max(clock, makespan_us)),
            throttled_fraction=(
                throttled_busy / total_busy if total_busy > 0 else 0.0
            ),
            stall_cycles=stall_cycles,
        )
    return build_report(
        policy=policy.name,
        machine=npu.name,
        models=[m if isinstance(m, str) else m[0] for m in models],
        seed=seed,
        rps=rps,
        duration_us=duration_us,
        results=results_sorted(results),
        num_waves=index,
        busy_cycles=busy_cycles,
        makespan_cycles=npu.us_to_cycles(makespan_us),
        latency_us_per_cycle=cycles_to_us(1.0),
        verified_programs=len(patterns_used),
        degraded=degraded,
        shed=tuple(sorted(shed, key=lambda s: s.request.rid)),
        continuous=None
        if gang
        else _continuous_stats(admissions, policy_stall_us, occupancy, makespan_us),
    )


def serve_policies(
    models: Sequence[MixEntry],
    npu: NPUConfig,
    policies: Optional[Sequence[Union[str, SchedulingPolicy]]] = None,
    **kwargs,
) -> List[ServeReport]:
    """Serve the identical workload under several policies.

    One shared predictor means the compile and isolated-simulation work
    is paid once; the per-policy runs then differ only in scheduling.
    """
    policies = list(policies) if policies is not None else list(POLICY_NAMES)
    predictor = kwargs.pop("predictor", None)
    if predictor is None:
        predictor = LatencyPredictor(
            npu,
            kwargs.get("options"),
            cache=kwargs.pop("cache", None),
            seed=kwargs.get("seed", 0),
        )
    return [
        serve(models, npu, policy=p, predictor=predictor, **kwargs)
        for p in policies
    ]
