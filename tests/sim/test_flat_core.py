"""The flat struct-of-arrays event loop is bit-identical to the event-driven core.

``tests/sim/test_scheduler_equivalence.py`` pins the retained
queue-scanning reference; this file pins the *previous* event-driven
generation (:func:`tests.sim.event_core.simulate_event_driven`,
object-based bus, eager water-filling, in-loop readiness bookkeeping)
against :func:`repro.sim.simulate`, a one-injection
:class:`~repro.sim.SimSession` run -- plus faulted determinism and the
memo fast path.  All comparisons run with ``memo=None`` where applicable
so the event loop itself is exercised, not a cached result.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.compiler import CompileOptions
from repro.faults import CoreOffline, FaultPlan, ThermalThrottle, TransientStall
from repro.models import ZOO
from repro.sim import SimSession, simulate

from tests.sim.event_core import simulate_event_driven
from tests.sim.trace_rows import rows
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
    """Faulted runs draw jitter from the shared per-plan table; pin that
    they are deterministic and unchanged by memoization."""

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
        a = simulate(program, machine, seed=1, faults=self.PLAN, memo=None)
        b = simulate(program, machine, seed=1, faults=self.PLAN, memo=None)
        assert_traces_identical(a, b)
        assert a.faults is not None and b.faults is not None
        assert a.faults == b.faults

    def test_memoized_faulted_matches_unmemoized(self):
        from repro.sim.memo import SimMemo

        program, machine = self._machine_and_program()
        fresh = simulate(program, machine, seed=1, faults=self.PLAN, memo=None)
        memo = SimMemo(store_on_first_miss=True)
        first = simulate(program, machine, seed=1, faults=self.PLAN, memo=memo)
        second = simulate(program, machine, seed=1, faults=self.PLAN, memo=memo)
        assert second is first  # cache hit returns the shared object
        assert_traces_identical(first, fresh)


class TestSession:
    """The memo fast path of a solo session injection delivers the
    event loop's exact outcome."""

    def _events(self, trace):
        return rows(trace)

    def test_fast_path_outcome_bit_identical_to_loop(self):
        """A second solo injection of the same (program, seed) is served
        from the memo without running the loop; its outcome must match
        the first (loop-run) injection exactly."""
        from repro.sim.memo import SimMemo

        program, machine = _program_for("MobileNetV2", CompileOptions.base())
        memo = SimMemo(store_on_first_miss=True)
        session = SimSession(machine, memo=memo)
        session.inject(program, at_us=0.0, seed=2)
        (first,) = session.run_until()
        assert memo.hits == 0  # the first run populated the cache

        session.inject(program, at_us=9000.5, seed=2)
        (second,) = session.run_until()
        assert memo.hits == 1  # delivered by the fast path
        assert second.completed_at_cycles == first.completed_at_cycles
        assert self._events(second.trace) == self._events(first.trace)
        assert second.origin_us == 9000.5
