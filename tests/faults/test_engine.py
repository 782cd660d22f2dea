"""Fault engine semantics on hand-built programs with known timings.

The machine runs at 1 MHz so one microsecond of fault-plan time is
exactly one simulator cycle, making every expected makespan readable.
"""

from __future__ import annotations

import pytest

from repro.compiler.program import CommandKind, ProgramBuilder
from repro.faults import CoreOffline, FaultPlan, ThermalThrottle, TransientStall
from repro.hw import CoreConfig, NPUConfig
from repro.sim import SimSession, simulate

from tests.sim.trace_rows import rows


def machine(cores: int = 1, **core_kw) -> NPUConfig:
    core_list = tuple(
        CoreConfig(
            name=f"c{i}",
            macs_per_cycle=100,
            dma_bytes_per_cycle=10.0,
            spm_bytes=1 << 20,
            channel_alignment=1,
            spatial_alignment=1,
            compute_efficiency=1.0,
            **core_kw,
        )
        for i in range(cores)
    )
    return NPUConfig(
        name="t",
        cores=core_list,
        bus_bytes_per_cycle=10.0,
        frequency_ghz=0.001,  # 1 us == 1 cycle
        sync_base_cycles=50,
        sync_per_core_cycles=0,
        dram_latency_cycles=0,
    )


def compute_program(cores: int = 1, macs: int = 10_000, per_core: int = 1):
    """``per_core`` independent 250-cycle computes on each core.

    (10k MACs / 100 MACs-per-cycle plus the 150-cycle launch overhead.)
    """
    b = ProgramBuilder(cores)
    for core in range(cores):
        for _ in range(per_core):
            b.add(core, CommandKind.COMPUTE, macs=macs)
    return b.build()


def trace_tuples(result):
    return rows(result.trace)


class TestCleanEquivalence:
    def test_empty_plan_routes_to_clean_scheduler(self):
        npu = machine(2)
        program = compute_program(2, per_core=2)
        clean = simulate(program, npu, seed=3)
        empty = simulate(program, npu, seed=3, faults=FaultPlan())
        assert empty.faults is None
        assert trace_tuples(clean) == trace_tuples(empty)

    def test_fault_loop_matches_clean_loop_without_faults(self):
        """Armed fault hooks that never fire reproduce clean timings
        exactly (the core dies long after the 750-cycle run)."""
        npu = machine(2)
        program = compute_program(2, per_core=3)
        clean = simulate(program, npu, seed=5)
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=10_000.0),))
        faulted = simulate(program, npu, seed=5, faults=plan)
        assert trace_tuples(clean) == trace_tuples(faulted)
        assert faulted.makespan_cycles == clean.makespan_cycles
        assert faulted.faults.dead_cores == ()

    def test_deterministic_under_faults(self):
        npu = machine(2)
        program = compute_program(2, per_core=2)
        plan = FaultPlan(
            events=(
                ThermalThrottle(),
                TransientStall(start_us=10.0, duration_us=20.0, core=0),
            )
        )
        a = simulate(program, npu, seed=1, faults=plan)
        b = simulate(program, npu, seed=1, faults=plan)
        assert trace_tuples(a) == trace_tuples(b)


class TestStalls:
    def test_core_stall_delays_start(self):
        npu = machine()
        plan = FaultPlan(events=(TransientStall(start_us=0.0, duration_us=30.0, core=0),))
        result = simulate(compute_program(), npu, faults=plan)
        assert result.makespan_cycles == pytest.approx(280.0)  # 30 stall + 250
        assert result.faults.stall_cycles == pytest.approx(30.0)

    def test_stall_after_start_has_no_effect(self):
        """In-flight commands finish; the window only blocks starts."""
        npu = machine()
        plan = FaultPlan(events=(TransientStall(start_us=50.0, duration_us=30.0, core=0),))
        result = simulate(compute_program(), npu, faults=plan)
        assert result.makespan_cycles == pytest.approx(250.0)

    def test_bus_stall_defers_dma_join(self):
        npu = machine()
        b = ProgramBuilder(1)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=100)  # 10 cycles on the bus
        plan = FaultPlan(events=(TransientStall(start_us=0.0, duration_us=30.0),))
        result = simulate(b.build(), npu, faults=plan)
        assert result.makespan_cycles == pytest.approx(40.0)

    def test_stall_on_other_core_is_free(self):
        npu = machine(2)
        plan = FaultPlan(events=(TransientStall(start_us=0.0, duration_us=30.0, core=1),))
        b = ProgramBuilder(2)
        b.add(0, CommandKind.COMPUTE, macs=10_000)
        result = simulate(b.build(), npu, faults=plan)
        assert result.makespan_cycles == pytest.approx(250.0)


class TestThrottling:
    def test_quasi_static_dvfs_step(self):
        """Heat from command 1 halves command 2's frequency."""
        npu = machine(
            dvfs_steps=(1.0, 0.5),
            heat_per_busy_cycle=1.0,
            cool_per_cycle=0.0,
            throttle_threshold=50.0,
        )
        program = compute_program(per_core=2)  # two 250-cycle computes
        plan = FaultPlan(events=(ThermalThrottle(),))
        result = simulate(program, npu, faults=plan)
        assert result.makespan_cycles == pytest.approx(250.0 + 500.0)
        stats = result.faults
        assert stats.throttled_busy_cycles[0] == pytest.approx(500.0)
        assert stats.busy_cycles[0] == pytest.approx(750.0)
        assert stats.throttled_fraction == pytest.approx(500.0 / 750.0)

    def test_cooling_recovers_full_speed(self):
        """A long idle gap drains the accumulator back below threshold."""
        npu = machine(
            dvfs_steps=(1.0, 0.5),
            heat_per_busy_cycle=1.0,
            cool_per_cycle=10.0,
            throttle_threshold=150.0,
        )
        b = ProgramBuilder(1)
        c1 = b.add(0, CommandKind.COMPUTE, macs=10_000)
        barrier = b.add(0, CommandKind.BARRIER, deps=[c1], cycles=500.0)
        b.add(0, CommandKind.COMPUTE, deps=[barrier], macs=10_000)
        plan = FaultPlan(events=(ThermalThrottle(),))
        result = simulate(b.build(), npu, faults=plan)
        # 250 heat cools off completely during the 500-cycle barrier.
        assert result.faults.throttled_busy_cycles[0] == pytest.approx(0.0)

    def test_unthrottled_core_untouched(self):
        npu = machine(
            2,
            dvfs_steps=(1.0, 0.5),
            heat_per_busy_cycle=10.0,
            cool_per_cycle=0.0,
            throttle_threshold=50.0,
        )
        plan = FaultPlan(events=(ThermalThrottle(cores=(1,)),))
        result = simulate(compute_program(2, per_core=2), npu, faults=plan)
        assert result.faults.throttled_busy_cycles[0] == pytest.approx(0.0)
        assert result.faults.throttled_busy_cycles[1] > 0.0

    def test_initial_heat_carries_in(self):
        npu = machine(
            dvfs_steps=(1.0, 0.5),
            heat_per_busy_cycle=0.0,
            cool_per_cycle=0.0,
            throttle_threshold=50.0,
        )
        plan = FaultPlan(events=(ThermalThrottle(),))
        session = SimSession(npu, faults=plan, memo=None, initial_heat=(60.0,))
        session.inject(compute_program(), at_us=0.0)
        (hot,) = session.run_until()
        assert hot.completed_at_cycles == pytest.approx(500.0)  # 250 / 0.5


class TestCoreOffline:
    def test_dead_from_start_runs_survivors(self):
        npu = machine(2)
        program = compute_program(2)
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=0.0),))
        result = simulate(program, npu, faults=plan)
        stats = result.faults
        assert stats.failed
        assert stats.dead_cores == (0,)
        assert len(stats.abandoned_cids) == 1
        assert set(result.trace.column("core")) == {1}
        assert result.makespan_cycles == pytest.approx(250.0)

    def test_mid_run_death_aborts_running_command(self):
        npu = machine()
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=50.0),))
        result = simulate(compute_program(macs=20_000), npu, faults=plan)
        assert result.faults.abandoned_cids == (0,)
        assert len(result.trace) == 0

    def test_doom_propagates_through_dependencies(self):
        npu = machine(2)
        b = ProgramBuilder(2)
        c0 = b.add(0, CommandKind.COMPUTE, macs=20_000)  # dies at t=50
        b.add(1, CommandKind.COMPUTE, macs=10_000)  # independent: survives
        b.add(1, CommandKind.COMPUTE, deps=[c0], macs=10_000)
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=50.0),))
        result = simulate(b.build(), npu, faults=plan)
        assert len(result.faults.abandoned_cids) == 2
        assert len(result.trace) == 1

    def test_doom_propagates_to_queue_successors(self):
        """In-order streams cannot run past an abandoned command."""
        npu = machine(2)
        b = ProgramBuilder(2)
        c0 = b.add(0, CommandKind.COMPUTE, macs=20_000)  # dies at t=50
        b.add(1, CommandKind.COMPUTE, deps=[c0], macs=10_000)
        b.add(1, CommandKind.COMPUTE, macs=10_000)  # queued behind: doomed
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=50.0),))
        result = simulate(b.build(), npu, faults=plan)
        assert len(result.faults.abandoned_cids) == 3
        assert len(result.trace) == 0

    def test_in_flight_on_live_core_completes(self):
        """A started command whose deps are done survives the producer core."""
        npu = machine(2)
        b = ProgramBuilder(2)
        c0 = b.add(0, CommandKind.COMPUTE, macs=5_000)  # done at t=200
        b.add(1, CommandKind.COMPUTE, deps=[c0], macs=10_000)  # runs 200..450
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=300.0),))
        result = simulate(b.build(), npu, faults=plan)
        assert result.faults.abandoned_cids == ()
        assert result.makespan_cycles == pytest.approx(450.0)

    def test_offline_out_of_range_rejected(self):
        npu = machine(2)
        plan = FaultPlan(events=(CoreOffline(core=5, at_us=0.0),))
        with pytest.raises(ValueError):
            simulate(compute_program(2), npu, faults=plan)

    def test_time_offset_shifts_events(self):
        """An event in this wave's past takes effect at local t=0."""
        npu = machine(2)
        program = compute_program(2)
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=500.0),))
        late = SimSession(npu, faults=plan, memo=None, origin_us=1000.0)
        late.inject(program, at_us=1000.0)
        late.run_until()
        assert late.alive_cores() == (1,)
        early = SimSession(npu, faults=plan, memo=None, origin_us=0.0)
        early.inject(program, at_us=0.0)
        (out,) = early.run_until()
        assert out.abandoned_cids == ()
