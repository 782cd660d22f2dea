"""The flat struct-of-arrays core is bit-identical to the event-driven core.

``tests/sim/test_scheduler_equivalence.py`` pins the retained
queue-scanning reference; this file pins the *previous* event-driven
generation (:func:`repro.sim.simulate_event_driven`, object-based bus,
eager water-filling, in-loop readiness bookkeeping) against the flat
core now living in :mod:`repro.sim.simulator` -- clean and faulted,
one-shot and through :class:`~repro.sim.SimSession`.  All comparisons
run with ``memo=None`` where applicable so the event loop itself is
exercised, not a cached result.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings

from repro.compiler import CompileOptions
from repro.faults import CoreOffline, FaultPlan, ThermalThrottle, TransientStall
from repro.faults.engine import simulate_faulted
from repro.models import ZOO
from repro.sim import SimSession, simulate, simulate_event_driven

from tests.sim.test_scheduler_equivalence import (
    CONFIGS,
    SEEDS,
    _jittery_machine,
    _program_for,
    assert_traces_identical,
    random_program,
)


@pytest.mark.parametrize("options", CONFIGS, ids=[o.label for o in CONFIGS])
@pytest.mark.parametrize("model", [m.name for m in ZOO])
def test_zoo_traces_bit_identical(model: str, options: CompileOptions):
    program, machine = _program_for(model, options)
    for seed in SEEDS:
        flat = simulate(program, machine, seed=seed, memo=None)
        event_driven = simulate_event_driven(program, machine, seed=seed)
        assert_traces_identical(flat, event_driven)


@settings(max_examples=60, deadline=None)
@given(random_program())
def test_random_programs_bit_identical(prog_cores):
    program, cores = prog_cores
    npu = _jittery_machine(cores)
    for seed in (0, 3):
        flat = simulate(program, npu, seed=seed, memo=None)
        event_driven = simulate_event_driven(program, npu, seed=seed)
        assert_traces_identical(flat, event_driven)


class TestFaulted:
    """The fault engine now draws jitter from the shared per-plan table;
    pin that faulted runs are deterministic and unchanged by memoization."""

    PLAN = FaultPlan(
        events=(
            TransientStall(start_us=10.0, duration_us=200.0, core=0),
            ThermalThrottle(cores=(1,)),
            CoreOffline(core=2, at_us=1500.0),
        )
    )

    def _machine_and_program(self):
        program, machine = _program_for("InceptionV3", CompileOptions.stratum_config())
        return program, machine

    def test_faulted_runs_deterministic(self):
        program, machine = self._machine_and_program()
        a = simulate_faulted(program, machine, seed=1, plan=self.PLAN, memo=None)
        b = simulate_faulted(program, machine, seed=1, plan=self.PLAN, memo=None)
        assert_traces_identical(a, b)
        assert a.faults is not None and b.faults is not None
        assert a.faults == b.faults

    def test_memoized_faulted_matches_unmemoized(self):
        from repro.sim.memo import SimMemo

        program, machine = self._machine_and_program()
        fresh = simulate_faulted(program, machine, seed=1, plan=self.PLAN, memo=None)
        memo = SimMemo(store_on_first_miss=True)
        first = simulate_faulted(program, machine, seed=1, plan=self.PLAN, memo=memo)
        second = simulate_faulted(program, machine, seed=1, plan=self.PLAN, memo=memo)
        assert second is first  # cache hit returns the shared object
        assert_traces_identical(first, fresh)

    def test_faulted_routes_through_simulate(self):
        program, machine = self._machine_and_program()
        via_simulate = simulate(program, machine, seed=1, faults=self.PLAN, memo=None)
        direct = simulate_faulted(program, machine, seed=1, plan=self.PLAN, memo=None)
        assert_traces_identical(via_simulate, direct)


class TestSession:
    """Session solo replay pins the flat one-shot core, with and without
    the memo fast path in play."""

    def _events(self, trace):
        return [dataclasses.astuple(e) for e in trace.events]

    def test_solo_injection_replays_flat_core(self):
        program, machine = _program_for("MobileNetV2", CompileOptions.base())
        ref = simulate(program, machine, seed=2, memo=None)
        session = SimSession(machine, memo=None)
        session.inject(program, at_us=0.0, seed=2)
        (out,) = session.run_until()
        assert out.completed_at_cycles == ref.makespan_cycles
        assert self._events(out.trace) == self._events(ref.trace)

    def test_fast_path_outcome_bit_identical_to_loop(self):
        """A second solo injection of the same (program, seed) is served
        from the memo without running the loop; its outcome must match
        the first (loop-run) injection exactly."""
        from repro.sim.memo import SimMemo

        program, machine = _program_for("MobileNetV2", CompileOptions.base())
        memo = SimMemo(store_on_first_miss=True)
        session = SimSession(machine, memo=memo)
        session.inject(program, at_us=0.0, seed=2)
        # A limit keeps a memo miss in the event loop.
        (first,) = session.run_until(until_us=1e12)
        assert memo.hits == 0  # the first run populated the cache

        session.inject(program, at_us=9000.5, seed=2)
        (second,) = session.run_until()
        assert memo.hits == 1  # delivered by the fast path
        assert second.completed_at_cycles == first.completed_at_cycles
        assert self._events(second.trace) == self._events(first.trace)
        assert second.origin_us == 9000.5

    def test_miss_run_to_completion_takes_flat_core(self, monkeypatch):
        """On a memo miss, a solo injection run to completion goes
        through the one-shot flat core (cheaper per command than the
        session loop) with the loop's exact outcome; a limit short of
        completion keeps it in the loop."""
        from repro.sim import simulator
        from repro.sim.memo import SimMemo

        program, machine = _program_for("MobileNetV2", CompileOptions.base())
        loop = SimSession(machine, memo=None)
        loop.inject(program, at_us=50.0, seed=2)
        (ref,) = loop.run_until()

        flat_runs = []
        run_flat = simulator._run_flat

        def counting(*args):
            flat_runs.append(args)
            return run_flat(*args)

        monkeypatch.setattr(simulator, "_run_flat", counting)
        memo = SimMemo(store_on_first_miss=True)
        session = SimSession(machine, memo=memo)
        session.inject(program, at_us=50.0, seed=2)
        (out,) = session.run_until()
        assert len(flat_runs) == 1 and len(memo) == 1
        assert out.completed_at_cycles == ref.completed_at_cycles
        assert self._events(out.trace) == self._events(ref.trace)
        assert session.now_us == loop.now_us

        limited = SimSession(machine, memo=SimMemo(store_on_first_miss=True))
        limited.inject(program, at_us=0.0, seed=2)
        assert limited.run_until(until_us=1.0) == []
        assert len(flat_runs) == 1
