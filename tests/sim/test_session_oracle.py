"""The flat-array session loop replays the object-bus loops exactly.

:mod:`tests.sim.session_oracle` keeps the session loop and the one-shot
fault loop as they stood before both were rebuilt on flat arrays.
Random overlapping schedules -- random programs on random core groups,
injected at random times, interleaved with random ``run_until`` limits,
clean and under stall windows, throttling and core death -- must give
the same outcomes, trace columns and fault counters in both, float for
float; so must one-shot faulted sessions placed on a serving clock with
carried-in heat, the frame every gang wave runs in.
"""

from __future__ import annotations

import dataclasses
import random

from hypothesis import Phase, given, settings, strategies as st

from repro.compiler.program import CommandKind, Program, ProgramBuilder
from repro.faults import CoreOffline, FaultPlan, ThermalThrottle, TransientStall
from repro.hw import CoreConfig, NPUConfig
from repro.sim import SimSession
from repro.sim.simulator import _one_shot

from tests.sim.session_oracle import OracleSession, simulate_faulted_oracle
from tests.sim.test_scheduler_equivalence import random_program
from tests.sim.trace_rows import rows

NUM_CORES = 4
#: no shrink phase: a divergence is reported at once, not after minutes
#: spent minimizing it (the deterministic tests above the hypothesis
#: ones run first for the same reason)
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)
#: per-core DMA link caps differ, so the water-filling sort is exercised
DMA_CAPS = (4.0, 25.0, 10.0, 10.0)


def _machine() -> NPUConfig:
    """Jittery, heterogeneous, and hot: a throttle threshold small
    enough that random programs actually step DVFS down."""
    return NPUConfig(
        name="oracle",
        cores=tuple(
            CoreConfig(
                name=f"c{i}",
                macs_per_cycle=100,
                dma_bytes_per_cycle=cap,
                spm_bytes=1 << 20,
                channel_alignment=1,
                spatial_alignment=1,
                compute_efficiency=1.0,
                heat_per_busy_cycle=1.0,
                cool_per_cycle=0.2,
                throttle_threshold=40.0,
            )
            for i, cap in enumerate(DMA_CAPS)
        ),
        bus_bytes_per_cycle=24.0,
        frequency_ghz=1.0,
        dram_latency_cycles=3,
        sync_jitter_cycles=50,
        halo_jitter_cycles=25,
    )


def _place(program: Program, cores) -> Program:
    """The program with its core ``i`` mapped onto physical ``cores[i]``."""
    return Program(
        num_cores=NUM_CORES,
        commands=[dataclasses.replace(c, core=cores[c.core]) for c in program.commands],
    )


@st.composite
def placed_programs(draw):
    program, width = draw(random_program())
    cores = draw(st.permutations(range(NUM_CORES)))[:width]
    return _place(program, cores)


#: one schedule step: ("inject", program index, gap us, seed) or
#: ("run", gap us or None for "no limit", stop_on_completion)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("inject"),
            st.integers(0, 3),
            st.floats(0.0, 3.0, allow_nan=False),
            st.integers(0, 3),
        ),
        st.tuples(
            st.just("run"),
            st.one_of(st.none(), st.floats(0.0, 4.0, allow_nan=False)),
            st.booleans(),
        ),
    ),
    min_size=1,
    max_size=12,
)


@st.composite
def fault_plans(draw):
    events = []
    for _ in range(draw(st.integers(0, 3))):
        events.append(
            TransientStall(
                start_us=draw(st.floats(0.0, 6.0, allow_nan=False)),
                duration_us=draw(st.floats(0.01, 2.0, allow_nan=False)),
                core=draw(st.one_of(st.none(), st.integers(0, NUM_CORES - 1))),
            )
        )
    if draw(st.booleans()):
        cores = draw(st.lists(st.integers(0, NUM_CORES - 1), max_size=3, unique=True))
        events.append(ThermalThrottle(cores=tuple(cores)))
    for core in draw(st.lists(st.integers(0, NUM_CORES - 1), max_size=2, unique=True)):
        events.append(
            CoreOffline(core=core, at_us=draw(st.floats(0.0, 8.0, allow_nan=False)))
        )
    return FaultPlan(events=tuple(events))


def assert_outcomes_equal(new, ref) -> None:
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        for field in (
            "injection_id", "label", "origin_us", "injected_at_cycles",
            "completed_at_cycles", "failed", "num_abandoned", "meta",
        ):
            assert getattr(a, field) == getattr(b, field), field
        assert rows(a.trace) == rows(b.trace)
        assert len(a.abandoned_cids) == a.num_abandoned


def assert_sessions_equal(new: SimSession, ref: OracleSession) -> None:
    assert new.clock == ref.clock
    assert new.origin_us == ref.origin_us
    assert new.num_active == ref.num_active
    assert new.busy_cycles == ref.busy_cycles
    assert new.throttled_cycles == ref.throttled_cycles
    assert new.stall_cycles == ref.stall_cycles
    assert new.heat == ref.heat
    assert new.dead == ref.dead


def replay(programs, schedule, plan=None) -> None:
    """Drive both loops through one schedule, comparing after each step."""
    npu = _machine()
    new = SimSession(npu, faults=plan, memo=None)
    ref = OracleSession(npu, faults=plan)
    for step in schedule:
        if step[0] == "inject":
            _, index, gap_us, seed = step
            at_us = ref.now_us + gap_us
            iid = new.inject(programs[index], at_us, seed=seed, label=f"p{index}", meta=index)
            assert iid == ref.inject(
                programs[index], at_us, seed=seed, label=f"p{index}", meta=index
            )
        else:
            _, gap_us, stop = step
            until = None if gap_us is None else ref.now_us + gap_us
            assert_outcomes_equal(new.run_until(until, stop), ref.run_until(until, stop))
        assert_sessions_equal(new, ref)
    assert_outcomes_equal(
        new.run_until(None, stop_on_completion=False),
        ref.run_until(None, stop_on_completion=False),
    )
    assert_sessions_equal(new, ref)
    assert new.idle


def test_dma_heavy_staggered_injections_match_oracle():
    """Four DMA-heavy programs injected 0.05 us apart, then one injected
    again after a limited run, crowd the shared bus: identical to the
    oracle, clean and under stalls, throttling and a core death."""
    rng = random.Random(7)
    programs = []
    for _ in range(4):
        width = rng.randint(1, 3)
        builder = ProgramBuilder(width)
        for i in range(40):
            core = rng.randrange(width)
            if rng.random() < 0.3:
                builder.add(core, CommandKind.COMPUTE, deps=[], macs=rng.randrange(8000))
            else:
                deps = [rng.randrange(i)] if i and rng.random() < 0.5 else []
                builder.add(
                    core,
                    rng.choice([CommandKind.LOAD_INPUT, CommandKind.STORE_OUTPUT]),
                    deps=deps,
                    num_bytes=rng.randrange(1, 6000),
                )
        cores = rng.sample(range(NUM_CORES), width)
        programs.append(_place(builder.build(), cores))
    schedule = [("inject", i, 0.05 * i, i) for i in range(4)]
    schedule += [("run", 0.3, True), ("inject", 0, 0.1, 3), ("run", None, True)]
    plan = FaultPlan(
        events=(
            TransientStall(start_us=0.2, duration_us=0.5),
            TransientStall(start_us=0.1, duration_us=0.4, core=1),
            ThermalThrottle(),
            CoreOffline(core=2, at_us=0.9),
        )
    )
    replay(programs, schedule)
    replay(programs, schedule, plan)


def test_aborted_command_keeps_its_epoch_boundary():
    """A compute aborted by core death leaves its end event in the heap:
    the bus advance still splits there, and with inexact water-filling
    rates the split shows in the last bits of the surviving transfers'
    completion times."""
    npu = NPUConfig(
        name="odd",
        cores=tuple(
            CoreConfig(
                name=f"c{i}",
                macs_per_cycle=100,
                dma_bytes_per_cycle=9.7,
                spm_bytes=1 << 20,
                channel_alignment=1,
                spatial_alignment=1,
                compute_efficiency=1.0,
            )
            for i in range(3)
        ),
        bus_bytes_per_cycle=17.3,
        frequency_ghz=1.0,
        dram_latency_cycles=3,
    )
    builder = ProgramBuilder(3)
    builder.add(0, CommandKind.COMPUTE, deps=[], macs=100 * 3001)
    builder.add(0, CommandKind.LOAD_INPUT, deps=[], num_bytes=20011)
    builder.add(1, CommandKind.LOAD_INPUT, deps=[], num_bytes=70001)
    builder.add(2, CommandKind.LOAD_WEIGHT, deps=[], num_bytes=53333)
    program = builder.build()
    plan = FaultPlan(events=(CoreOffline(core=0, at_us=0.7),))
    new = SimSession(npu, faults=plan, memo=None)
    ref = OracleSession(npu, faults=plan)
    for session in (new, ref):
        session.inject(program, at_us=0.0)
    assert_outcomes_equal(
        new.run_until(stop_on_completion=False), ref.run_until(stop_on_completion=False)
    )


@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
@given(st.lists(placed_programs(), min_size=4, max_size=4), steps)
def test_clean_overlapping_schedules_match_oracle(programs, schedule):
    replay(programs, schedule)


@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
@given(st.lists(placed_programs(), min_size=4, max_size=4), steps, fault_plans())
def test_faulted_overlapping_schedules_match_oracle(programs, schedule, plan):
    replay(programs, schedule, plan)


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(
    placed_programs(),
    fault_plans(),
    st.integers(0, 3),
    st.floats(0.0, 5.0, allow_nan=False),
    st.lists(st.floats(0.0, 500.0, allow_nan=False), min_size=NUM_CORES, max_size=NUM_CORES),
)
def test_one_shot_faulted_runs_match_oracle(program, plan, seed, offset_us, heat):
    npu = _machine()
    session = SimSession(
        npu, faults=plan, memo=None, origin_us=offset_us, initial_heat=heat
    )
    new = _one_shot(session, program, seed)
    ref = simulate_faulted_oracle(
        program, npu, seed=seed, plan=plan, initial_heat=heat, time_offset_us=offset_us
    )
    assert new.makespan_cycles == ref.makespan_cycles
    assert rows(new.trace) == rows(ref.trace)
    # An empty plan is a clean run, which reports no fault stats.
    assert new.faults == (None if plan.is_empty else ref.faults)
