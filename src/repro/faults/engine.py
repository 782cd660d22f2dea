"""One-shot fault-injected simulation.

:func:`simulate_faulted` runs a single program under a
:class:`~repro.faults.plan.FaultPlan` as a one-injection
:class:`~repro.sim.session.SimSession`: the session's event loop owns
the three injection points --

* **DVFS / thermal** -- compute commands on throttled cores run at the
  frequency step implied by the core's heat accumulator (quasi-static:
  the speed is fixed at command start), and heat rises with busy cycles
  and falls with wall-clock time;
* **stall windows** -- commands on a stalled core cannot start, and DMA
  transfers cannot join a stalled bus, until the window closes;
* **core-offline** -- at the death time, commands running on the core
  abort and every incomplete command that depends on the core (through
  dataflow edges or in-order queue position) is *abandoned*; surviving
  cores run their streams to completion.

Those hooks sit behind checks a clean session skips, so there is one
event loop for faulted runs and serving alike, and ``simulate`` routes
here only for a non-empty plan -- an empty plan runs the clean core,
untouched.  This module adds what a one-shot call needs on top of the
session: memoization under the fault signature, the run's placement on
the serving clock, and its :class:`~repro.faults.plan.FaultStats`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.compiler.program import Program
from repro.faults.plan import FaultPlan, FaultStats
from repro.hw.config import NPUConfig
from repro.sim import memo as memo_mod
from repro.sim.memo import USE_DEFAULT_MEMO, SimMemo
from repro.sim.session import SimSession
from repro.sim.simulator import SimResult


def simulate_faulted(
    program: Program,
    npu: NPUConfig,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    initial_heat: Optional[Sequence[float]] = None,
    time_offset_us: float = 0.0,
    memo: Optional[SimMemo] = USE_DEFAULT_MEMO,  # type: ignore[assignment]
) -> SimResult:
    """Run ``program`` under a fault plan; deterministic per seed.

    ``time_offset_us`` places this run on the serving clock: fault event
    times are absolute serving time and are shifted into the local frame
    (events wholly in the past take effect at t=0, e.g. a core that died
    during an earlier wave is dead from the start).  ``initial_heat``
    carries per-core thermal state in from previous waves; the returned
    heat is cooled to the end of the run.

    Results are memoized under a fault-signature key -- the frozen plan
    plus the offset and carried heat -- which can never alias a clean
    entry (see :mod:`repro.sim.memo`); pass ``memo=None`` to disable.
    """
    plan = plan or FaultPlan()
    if program.num_cores > npu.num_cores:
        raise ValueError(
            f"program targets {program.num_cores} cores, machine has {npu.num_cores}"
        )
    if memo is USE_DEFAULT_MEMO:
        memo = memo_mod.default_memo()
    key = None
    if memo is not None:
        key = memo_mod.faulted_key(
            program, npu, seed, plan, time_offset_us, initial_heat
        )
        cached = memo.get(key)
        if cached is not None:
            return cached
    session = SimSession(
        npu,
        faults=plan,
        memo=None,
        origin_us=time_offset_us,
        initial_heat=initial_heat,
    )
    session.inject(program, at_us=time_offset_us, seed=seed)
    # A program with nothing left to run (empty, or wholly on cores dead
    # from the start) completed at injection: running on would process
    # fault events this run never reached.
    (out,) = session.run_until(session.now_us if session.idle else None)
    session.cool(out.completed_at_cycles)
    stats = FaultStats(
        plan=plan.describe(),
        dead_cores=tuple(c for c in range(npu.num_cores) if session.dead[c]),
        abandoned_cids=out.abandoned_cids,
        throttled_busy_cycles=tuple(session.throttled_cycles),
        busy_cycles=tuple(session.busy_cycles),
        stall_cycles=session.stall_cycles,
        heat=tuple(session.heat),
    )
    # Abandoned commands leave no events: the makespan is the last
    # completion, which precedes an abandonment that ended the run.
    makespan = out.trace.makespan if out.failed else out.completed_at_cycles
    result = SimResult(trace=out.trace, makespan_cycles=makespan, npu=npu, faults=stats)
    if memo is not None and key is not None:
        memo.put(key, result)
    return result
