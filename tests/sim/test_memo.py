"""The simulation-result memo: keys, accounting, and cross-layer sharing."""

from __future__ import annotations

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.compiler.program import CommandKind, ProgramBuilder
from repro.faults import FaultPlan, ThermalThrottle
from repro.hw import exynos2100_like, tiny_test_machine
from repro.serve import LatencyPredictor
from repro.sim import (
    SimMemo,
    SimSession,
    machine_fingerprint,
    program_fingerprint,
    simulate,
)
from repro.sim.memo import clean_key, faulted_key
from repro.sim.simulator import SimResult

from tests.conftest import make_mixed_graph
from tests.sim.trace_rows import rows


def chain_program(n: int = 6, nbytes: int = 1000):
    b = ProgramBuilder(1)
    prev = None
    for i in range(n):
        cid = b.add(
            0, CommandKind.LOAD_INPUT, deps=[prev] if prev is not None else [],
            num_bytes=nbytes + i,
        )
        prev = b.add(0, CommandKind.COMPUTE, deps=[cid], macs=2000 + i)
    return b.build()


def events_of(result):
    return rows(result.trace)


@pytest.fixture(scope="module")
def npu():
    return tiny_test_machine(3)


@pytest.fixture(scope="module")
def program(npu):
    return compile_model(
        make_mixed_graph(), npu, CompileOptions.stratum_config()
    ).program


class TestFingerprints:
    def test_content_not_identity(self):
        """Two separately-built identical programs share one fingerprint."""
        assert program_fingerprint(chain_program()) == program_fingerprint(
            chain_program()
        )

    def test_different_programs_differ(self):
        assert program_fingerprint(chain_program(5)) != program_fingerprint(
            chain_program(6)
        )

    def test_machine_fingerprint_stable_and_distinct(self):
        assert machine_fingerprint(tiny_test_machine(3)) == machine_fingerprint(
            tiny_test_machine(3)
        )
        assert machine_fingerprint(tiny_test_machine(3)) != machine_fingerprint(
            tiny_test_machine(2)
        )

    def test_clean_and_faulted_keys_never_alias(self, npu):
        program = chain_program()
        plan = FaultPlan()
        assert clean_key(program, npu, 0) != faulted_key(program, npu, 0, plan)


class TestSimMemoAccounting:
    def _result(self):
        npu = tiny_test_machine(1)
        return simulate(chain_program(), npu, memo=None)

    def test_hit_miss_counters(self):
        memo = SimMemo(store_on_first_miss=True)
        r = self._result()
        assert memo.get(("k",)) is None
        memo.put(("k",), r)
        assert memo.get(("k",)) is r
        assert (memo.hits, memo.misses) == (1, 1)
        assert memo.hit_rate == 0.5
        assert memo.stats()["entries"] == 1

    def test_store_on_second_miss(self):
        """The process-default mode: a key must miss twice to be stored."""
        memo = SimMemo(store_on_first_miss=False)
        r = self._result()
        assert memo.get(("k",)) is None
        memo.put(("k",), r)  # first miss: key recorded, result dropped
        assert len(memo) == 0
        assert memo.get(("k",)) is None
        memo.put(("k",), r)  # second miss: stored
        assert memo.get(("k",)) is r

    def test_lru_eviction_bounded(self):
        memo = SimMemo(max_entries=2, store_on_first_miss=True)
        r = self._result()
        memo.put(("a",), r)
        memo.put(("b",), r)
        assert memo.get(("a",)) is r  # refresh: "b" is now oldest
        memo.put(("c",), r)
        assert len(memo) == 2
        assert memo.get(("b",)) is None
        assert memo.get(("a",)) is r
        assert memo.get(("c",)) is r

    def test_eviction_free_determinism(self, npu, program):
        """Re-simulating an evicted key reproduces the exact result."""
        memo = SimMemo(max_entries=1, store_on_first_miss=True)
        first = simulate(program, npu, seed=4, memo=memo)
        # evict it by caching a different seed
        simulate(program, npu, seed=5, memo=memo)
        again = simulate(program, npu, seed=4, memo=memo)
        assert again is not first
        assert again.makespan_cycles == first.makespan_cycles
        assert events_of(again) == events_of(first)


class TestSimulateIntegration:
    def test_second_call_returns_shared_object(self, npu, program):
        memo = SimMemo(store_on_first_miss=True)
        first = simulate(program, npu, seed=0, memo=memo)
        second = simulate(program, npu, seed=0, memo=memo)
        assert second is first
        assert memo.hits == 1

    def test_memo_none_always_fresh_and_identical(self, npu, program):
        a = simulate(program, npu, seed=0, memo=None)
        b = simulate(program, npu, seed=0, memo=None)
        assert a is not b
        assert events_of(a) == events_of(b)

    def test_content_equal_programs_share_entries(self):
        """Recompiled (distinct) program objects hit the same entry."""
        npu = tiny_test_machine(1)
        memo = SimMemo(store_on_first_miss=True)
        first = simulate(chain_program(), npu, seed=0, memo=memo)
        second = simulate(chain_program(), npu, seed=0, memo=memo)
        assert second is first

    def test_empty_fault_plan_shares_clean_entry(self, npu, program):
        memo = SimMemo(store_on_first_miss=True)
        clean = simulate(program, npu, seed=0, memo=memo)
        via_empty_plan = simulate(program, npu, seed=0, faults=FaultPlan(), memo=memo)
        assert via_empty_plan is clean

    def test_clean_never_aliases_faulted(self, npu, program):
        """One shared memo serves clean and faulted runs of the same
        (program, machine, seed) without mixing them up."""
        memo = SimMemo(store_on_first_miss=True)
        plan = FaultPlan(events=(ThermalThrottle(cores=(0, 1, 2)),))
        clean = simulate(program, npu, seed=0, memo=memo)
        faulted = simulate(program, npu, seed=0, faults=plan, memo=memo)
        assert faulted is not clean
        assert faulted.faults is not None
        assert simulate(program, npu, seed=0, memo=memo) is clean
        assert simulate(program, npu, seed=0, faults=plan, memo=memo) is faulted


class TestSessionSharing:
    def test_one_shot_result_serves_session_fast_path(self, npu, program):
        """A simulate() result cached by one consumer is delivered to a
        session's solo injection without running its event loop."""
        memo = SimMemo(store_on_first_miss=True)
        ref = simulate(program, npu, seed=1, memo=memo)
        session = SimSession(npu, memo=memo)
        session.inject(program, at_us=100.0, seed=1)
        (out,) = session.run_until()
        assert memo.hits == 1
        assert out.trace is ref.trace  # the shared memo object
        assert out.completed_at_cycles == ref.makespan_cycles
        assert session.now_us == 100.0 + npu.cycles_to_us(ref.makespan_cycles)

    def test_session_loop_populates_memo_for_one_shot(self, npu, program):
        """And the other direction: a solo session frame stores the
        clean entry, which simulate() then returns as a hit."""
        memo = SimMemo(store_on_first_miss=True)
        session = SimSession(npu, memo=memo)
        session.inject(program, at_us=0.0, seed=1)
        (out,) = session.run_until()
        assert len(memo) == 1
        hit = simulate(program, npu, seed=1, memo=memo)
        assert hit.trace is out.trace
        ref = simulate(program, npu, seed=1, memo=None)
        assert events_of(hit) == events_of(ref)

    def test_overlap_disables_store(self, npu):
        """Overlapping injections are outside the solo-replay contract
        and must not write (wrong) clean entries."""
        from repro.sim import place_program, sub_machine
        from tests.conftest import make_chain_graph

        def placed(cores, label):
            sub = sub_machine(npu, list(cores), label)
            opts = (
                CompileOptions.single_core()
                if len(cores) == 1
                else CompileOptions.base()
            )
            prog = compile_model(make_chain_graph(), sub, opts).program
            return place_program(prog, cores, npu.num_cores)

        memo = SimMemo(store_on_first_miss=True)
        session = SimSession(npu, memo=memo)
        session.inject(placed((0, 1), "a"), at_us=0.0, seed=0)
        session.inject(placed((2,), "b"), at_us=1.0, seed=0)
        session.run_until(stop_on_completion=False)
        assert session.idle
        assert len(memo) == 0


class TestPredictorSharing:
    def test_wave_latencies_identical_shared_vs_private(self):
        """Serving-run check: predictor wave latencies are byte-identical
        whether the simulation cache is shared or private, and a second
        predictor sharing the memo gets its prediction as a cache hit
        even though it compiled its own (content-equal) programs."""
        npu = exynos2100_like()
        pattern = (("stem", (0,)), ("stem", (1, 2)))
        shared = SimMemo(store_on_first_miss=True)
        p1 = LatencyPredictor(npu, memo=shared)
        private = LatencyPredictor(npu, memo=SimMemo(store_on_first_miss=True))
        baseline = LatencyPredictor(npu, memo=None)

        lat = p1.wave_latency_us(pattern)
        assert lat == private.wave_latency_us(pattern)
        assert lat == baseline.wave_latency_us(pattern)

        p2 = LatencyPredictor(npu, memo=shared)
        hits_before = shared.hits
        assert p2.wave_latency_us(pattern) == lat
        assert shared.hits == hits_before + 1

    def test_result_type(self):
        npu = tiny_test_machine(1)
        memo = SimMemo(store_on_first_miss=True)
        out = simulate(chain_program(), npu, memo=memo)
        assert isinstance(out, SimResult)
