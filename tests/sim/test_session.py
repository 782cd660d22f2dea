"""SimSession: bit-exact replay of the one-shot simulators, plus overlap."""

from __future__ import annotations

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.compiler.program import Program
from repro.faults import CoreOffline, FaultPlan
from repro.hw import tiny_test_machine
from repro.sim import SimSession, place_program, simulate, sub_machine
from repro.sim.session import InjectionOutcome

from tests.conftest import make_chain_graph, make_mixed_graph
from tests.sim.trace_rows import rows


@pytest.fixture(scope="module")
def npu():
    return tiny_test_machine(3)


@pytest.fixture(scope="module")
def full_program(npu):
    return compile_model(make_mixed_graph(), npu, CompileOptions.stratum_config()).program


def placed(npu, cores, label):
    """A chain program compiled for -- and placed on -- ``cores``."""
    sub = sub_machine(npu, list(cores), label)
    opts = (
        CompileOptions.single_core() if len(cores) == 1 else CompileOptions.base()
    )
    prog = compile_model(make_chain_graph(), sub, opts).program
    return place_program(prog, cores, npu.num_cores)


def events_of(trace):
    return rows(trace)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_single_injection_replays_simulate(self, npu, full_program, seed):
        ref = simulate(full_program, npu, seed=seed)
        session = SimSession(npu)
        session.inject(full_program, at_us=0.0, seed=seed, label="w0")
        (out,) = session.run_until()
        assert isinstance(out, InjectionOutcome)
        assert out.completed_at_cycles == ref.makespan_cycles
        assert events_of(out.trace) == events_of(ref.trace)
        assert not out.failed

    def test_sequential_frames_replay_simulate_at_offsets(self, npu, full_program):
        """Each idle-period injection resets the frame: the arithmetic of
        every wave is the standalone simulate() float ops, regardless of
        the (arbitrary, non-representable) serving-time offset."""
        ref = simulate(full_program, npu, seed=3)
        session = SimSession(npu)
        for at_us in (0.0, 5000.1, 12345.678):
            iid = session.inject(full_program, at_us=at_us, seed=3)
            (out,) = session.run_until()
            assert out.injection_id == iid
            assert out.origin_us == at_us
            assert out.completed_at_cycles == ref.makespan_cycles
            assert events_of(out.trace) == events_of(ref.trace)
            assert session.idle

    def test_absolute_time_matches_gang_expression(self, npu, full_program):
        session = SimSession(npu)
        session.inject(full_program, at_us=777.25, seed=0)
        (out,) = session.run_until()
        ref = simulate(full_program, npu, seed=0)
        assert session.now_us == 777.25 + npu.cycles_to_us(ref.makespan_cycles)


class TestOverlap:
    def test_overlapping_injections_share_the_bus(self, npu):
        a, b = placed(npu, (0, 1), "a"), placed(npu, (2,), "b")
        iso_a = simulate(a, npu, seed=0).makespan_cycles
        iso_b = simulate(b, npu, seed=0).makespan_cycles

        session = SimSession(npu)
        session.inject(a, at_us=0.0, seed=0, label="a")
        t_mid = npu.cycles_to_us(iso_a) * 0.25
        session.inject(b, at_us=t_mid, seed=0, label="b")
        outcomes = session.run_until(stop_on_completion=False)
        assert {o.label for o in outcomes} == {"a", "b"}
        by = {o.label: o for o in outcomes}
        # Both stretch (or stay equal): the bus is shared, never faster.
        assert by["a"].completed_at_cycles >= iso_a - 1e-6
        end_b = by["b"].origin_us + npu.cycles_to_us(by["b"].completed_at_cycles)
        assert end_b >= t_mid + npu.cycles_to_us(iso_b) - 1e-6
        assert session.idle

    def test_disjoint_work_proceeds_while_running(self, npu):
        """The second injection starts mid-flight, not after the first."""
        a, b = placed(npu, (0,), "a"), placed(npu, (2,), "b")
        serial = simulate(a, npu, seed=0).makespan_cycles + simulate(
            b, npu, seed=0
        ).makespan_cycles
        session = SimSession(npu)
        session.inject(a, at_us=0.0, seed=0, label="a")
        session.inject(b, at_us=0.0, seed=0, label="b")
        outcomes = session.run_until(stop_on_completion=False)
        assert len(outcomes) == 2
        assert session.clock < serial

    def test_run_until_limit_pauses_without_completion(self, npu, full_program):
        session = SimSession(npu)
        session.inject(full_program, at_us=0.0, seed=0)
        assert session.run_until(until_us=0.001) == []
        assert session.num_active == 1
        assert session.now_us == pytest.approx(0.001)
        (out,) = session.run_until()
        ref = simulate(full_program, npu, seed=0)
        # Pausing mid-frame may split a bus advance (documented: only
        # barrier-free callers pause), but the work still completes.
        assert out.completed_at_cycles == pytest.approx(ref.makespan_cycles)


class TestValidation:
    def test_rejects_program_wider_than_machine(self, npu, full_program):
        small = tiny_test_machine(2)
        with pytest.raises(ValueError, match="cores"):
            SimSession(small).inject(full_program, at_us=0.0)

    def test_rejects_injection_in_the_past(self, npu):
        a, b = placed(npu, (0,), "a"), placed(npu, (1,), "b")
        session = SimSession(npu, faults=FaultPlan(events=(CoreOffline(core=2, at_us=1e9),)))
        session.inject(a, at_us=1000.0, seed=0)
        session.run_until(stop_on_completion=False)
        with pytest.raises(ValueError, match="already at"):
            session.inject(b, at_us=10.0, seed=0)


class TestFaultedSession:
    def test_core_offline_fails_injection(self, npu):
        prog = placed(npu, (0, 1), "a")
        healthy_us = npu.cycles_to_us(simulate(prog, npu, seed=0).makespan_cycles)
        plan = FaultPlan(events=(CoreOffline(core=1, at_us=healthy_us / 4),))
        session = SimSession(npu, faults=plan)
        session.inject(prog, at_us=0.0, seed=0, label="a")
        (out,) = session.run_until(stop_on_completion=False)
        assert out.failed and out.num_abandoned > 0
        assert session.alive_cores() == (0, 2)

    def test_injection_onto_dead_core_fails_immediately(self, npu):
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=0.0),))
        session = SimSession(npu, faults=plan)
        prog = placed(npu, (0,), "a")
        session.inject(prog, at_us=5.0, seed=0, label="a")
        (out,) = session.run_until(stop_on_completion=False)
        assert out.failed
        assert len(out.trace) == 0

    def test_survivor_completes_after_other_core_dies(self, npu):
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=1.0),))
        session = SimSession(npu, faults=plan)
        doomed, survivor = placed(npu, (0,), "d"), placed(npu, (2,), "s")
        session.inject(doomed, at_us=0.0, seed=0, label="d")
        session.inject(survivor, at_us=0.0, seed=0, label="s")
        outcomes = session.run_until(stop_on_completion=False)
        by = {o.label: o for o in outcomes}
        assert by["d"].failed
        assert not by["s"].failed
        assert len(by["s"].trace)

    def test_empty_fault_plan_is_clean(self, npu, full_program):
        ref = simulate(full_program, npu, seed=0)
        session = SimSession(npu, faults=FaultPlan())
        session.inject(full_program, at_us=1234.5, seed=0)
        (out,) = session.run_until()
        assert events_of(out.trace) == events_of(ref.trace)


class TestEmptyInjection:
    """A program with no commands completes the moment it is injected,
    in both session kinds, as the one-shot paths report makespan 0."""

    EMPTY = Program(num_cores=1, commands=[])

    def test_one_shot_paths_report_zero(self, npu):
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=5),))
        assert simulate(self.EMPTY, npu, memo=None).makespan_cycles == 0
        faulted = simulate(self.EMPTY, npu, faults=plan, memo=None)
        assert faulted.makespan_cycles == 0
        assert faulted.faults.dead_cores == ()

    def test_clean_session_completes_at_injection(self, npu):
        session = SimSession(npu, memo=None)
        session.inject(self.EMPTY, at_us=3.0, label="e")
        assert session.idle
        (out,) = session.run_until()
        assert out.label == "e" and out.origin_us == 3.0
        assert out.completed_at_cycles == out.injected_at_cycles == 0.0
        assert not out.failed and len(out.trace) == 0

    def test_faulted_session_completes_at_injection(self, npu):
        """Not when the next fault event fires (core 0 dies at 5000 cycles)."""
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=5),))
        session = SimSession(npu, faults=plan)
        session.inject(self.EMPTY, at_us=1.0, label="e")
        assert session.idle
        (out,) = session.run_until()
        assert out.completed_at_cycles == out.injected_at_cycles == npu.us_to_cycles(1.0)
        assert not out.failed and out.num_abandoned == 0

    def test_empty_injection_alongside_running_work(self, npu, full_program):
        session = SimSession(npu, memo=None)
        session.inject(full_program, at_us=0.0, label="w")
        session.inject(self.EMPTY, at_us=0.001, label="e")
        first = session.run_until()
        assert [o.label for o in first] == ["e"]
        assert first[0].completed_at_cycles == npu.us_to_cycles(0.001)
        (rest,) = session.run_until()
        assert rest.label == "w"
