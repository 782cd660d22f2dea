"""An injection's reported span and busy cycles equal its trace's.

The serving loop reads :meth:`InjectionOutcome.span_cycles` and
:meth:`InjectionOutcome.busy_cycles` instead of the trace; both must be
exactly (``==``) what ``trace_span(out.trace)`` and
``out.trace.busy_time(core)`` give, for clean overlapping injections,
faulted ones, empty ones and memo fast-path deliveries alike.
"""

from __future__ import annotations

import random

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.compiler.program import Program
from repro.faults import CoreOffline, FaultPlan
from repro.hw import tiny_test_machine
from repro.sim import SimSession, place_program, simulate, sub_machine
from repro.sim.memo import SimMemo
from repro.sim.multitenant import trace_span

from tests.conftest import make_chain_graph, make_mixed_graph


@pytest.fixture(scope="module")
def npu():
    return tiny_test_machine(3)


@pytest.fixture(scope="module")
def programs(npu):
    """Chain and mixed programs placed on a spread of core groups."""
    out = []
    for graph in (make_chain_graph(), make_mixed_graph()):
        for cores in ((0,), (2,), (1, 2), (2, 0), (0, 1, 2)):
            sub = sub_machine(npu, cores, "g")
            opts = CompileOptions.single_core() if len(cores) == 1 else CompileOptions.halo()
            program = compile_model(graph, sub, opts).program
            out.append(place_program(program, cores, npu.num_cores))
    return out


def assert_usage_matches_trace(out, num_cores):
    # Read the reported figures first: the trace is derived afterwards.
    span = out.span_cycles()
    busy = [out.busy_cycles(core) for core in range(num_cores)]
    assert span == trace_span(out.trace)
    assert busy == [out.trace.busy_time(core) for core in range(num_cores)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_overlapping_injections(npu, programs, seed):
    rng = random.Random(seed)
    session = SimSession(npu, memo=None)
    at_us = 0.0
    for i in range(12):
        at_us += rng.uniform(0.0, 40.0)
        session.inject(rng.choice(programs), at_us=at_us, seed=rng.randrange(4), label=str(i))
    outcomes = session.run_until(stop_on_completion=False)
    assert len(outcomes) == 12
    for out in outcomes:
        assert not out.failed
        assert_usage_matches_trace(out, npu.num_cores)


def test_core_dies_mid_run(npu, programs):
    """Abandoned commands, running ones aborted among them, count in
    neither figure, as they appear in no trace."""
    full = programs[4]
    healthy = simulate(full, npu, seed=0, memo=None)
    plan = FaultPlan(events=(CoreOffline(core=1, at_us=healthy.latency_us / 3),))
    session = SimSession(npu, faults=plan)
    session.inject(full, at_us=0.0, seed=0, label="full")
    session.inject(programs[1], at_us=1.0, seed=1, label="solo-on-2")
    outcomes = {out.label: out for out in session.run_until(stop_on_completion=False)}
    failed = outcomes["full"]
    assert failed.failed and len(failed.trace)
    # Some abandoned commands had started: the death aborted them.
    usage = failed._usage
    assert any(usage.start[cid] >= 0.0 for cid in failed.abandoned_cids)
    for out in outcomes.values():
        assert_usage_matches_trace(out, npu.num_cores)


def test_empty_program(npu):
    session = SimSession(npu, memo=None)
    session.inject(Program(num_cores=1, commands=[]), at_us=2.0)
    (out,) = session.run_until()
    assert out.span_cycles() == (0.0, 0.0)
    assert_usage_matches_trace(out, npu.num_cores)


def test_program_wholly_on_a_dead_core(npu, programs):
    plan = FaultPlan(events=(CoreOffline(core=0, at_us=0.0),))
    session = SimSession(npu, faults=plan)
    session.inject(programs[0], at_us=3.0, label="doomed")
    (out,) = session.run_until(stop_on_completion=False)
    assert out.failed and out.num_abandoned == len(programs[0].commands)
    assert out.span_cycles() == (0.0, 0.0)
    assert_usage_matches_trace(out, npu.num_cores)


def test_memo_fast_path_delivery(npu, programs):
    memo = SimMemo(store_on_first_miss=True)
    session = SimSession(npu, memo=memo)
    session.inject(programs[3], at_us=0.0, seed=5)
    (first,) = session.run_until()
    hits = memo.hits
    session.inject(programs[3], at_us=10_000.0, seed=5)
    (again,) = session.run_until()
    assert memo.hits == hits + 1
    assert again.trace is first.trace
    assert again.span_cycles() == first.span_cycles()
    for out in (first, again):
        assert_usage_matches_trace(out, npu.num_cores)
