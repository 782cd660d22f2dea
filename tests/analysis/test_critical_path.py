"""Critical-path extraction."""

import pytest

from repro.analysis import critical_path, render_critical_path
from repro.compiler import CompileOptions, CommandKind, compile_model
from repro.compiler.program import ProgramBuilder
from repro.hw import tiny_test_machine
from repro.sim import simulate

from tests.conftest import make_mixed_graph


class TestHandBuiltChains:
    def test_serial_chain_is_the_path(self):
        npu = tiny_test_machine(1)
        b = ProgramBuilder(1)
        ld = b.add(0, CommandKind.LOAD_INPUT, num_bytes=80)
        cp = b.add(0, CommandKind.COMPUTE, deps=[ld], macs=640)
        st = b.add(0, CommandKind.STORE_OUTPUT, deps=[cp], num_bytes=80)
        program = b.build()
        trace = simulate(program, npu).trace
        path = critical_path(program, trace)
        cids = [seg.cid for seg in path.segments]
        assert cids == [st, cp, ld]
        assert [seg.bound_by for seg in path.segments] == ["dep", "dep", "ready"]

    def test_slow_core_dominates(self):
        npu = tiny_test_machine(2)
        b = ProgramBuilder(2)
        b.add(0, CommandKind.COMPUTE, macs=100)
        slow = b.add(1, CommandKind.COMPUTE, macs=100_000)
        program = b.build()
        trace = simulate(program, npu).trace
        path = critical_path(program, trace)
        assert path.segments[0].cid == slow
        assert all(seg.core == 1 for seg in path.segments)

    def test_engine_serialization_detected(self):
        npu = tiny_test_machine(1)
        b = ProgramBuilder(1)
        b.add(0, CommandKind.COMPUTE, macs=640)
        tail = b.add(0, CommandKind.COMPUTE, macs=640)
        program = b.build()
        trace = simulate(program, npu).trace
        path = critical_path(program, trace)
        assert path.segments[0].cid == tail
        assert path.segments[0].bound_by == "engine"

    def test_empty_trace(self):
        npu = tiny_test_machine(1)
        program = ProgramBuilder(1).build()
        trace = simulate(program, npu).trace
        path = critical_path(program, trace)
        assert path.segments == []
        assert path.makespan_cycles == 0.0


class TestRealPrograms:
    @pytest.fixture(scope="class")
    def run(self):
        npu = tiny_test_machine(3)
        compiled = compile_model(make_mixed_graph(), npu, CompileOptions.base())
        return npu, compiled, simulate(compiled.program, npu)

    def test_path_starts_at_makespan(self, run):
        npu, compiled, sim = run
        path = critical_path(compiled.program, sim.trace)
        assert path.segments[0].end == pytest.approx(sim.trace.makespan)

    def test_path_is_time_monotone(self, run):
        npu, compiled, sim = run
        path = critical_path(compiled.program, sim.trace)
        starts = [seg.start for seg in path.segments]
        assert starts == sorted(starts, reverse=True) or all(
            a >= b - 1e-6 for a, b in zip(starts, starts[1:])
        )

    def test_breakdown_covers_makespan(self, run):
        npu, compiled, sim = run
        path = critical_path(compiled.program, sim.trace)
        total = sum(path.breakdown().values())
        assert total == pytest.approx(path.makespan_cycles, rel=1e-6)

    def test_render(self, run):
        npu, compiled, sim = run
        text = render_critical_path(compiled.program, sim.trace, npu)
        assert "Critical path breakdown" in text
        assert "Bound by" in text

    def test_layers_listed(self, run):
        npu, compiled, sim = run
        path = critical_path(compiled.program, sim.trace)
        assert path.layers()


class TestTieBreaking:
    """Binding attribution is deterministic under exact timing ties.

    Rule (shared by the trace walker and the static longest-path DP in
    ``longest_path_times``): among predecessors finishing within EPS of
    a command's start, a dependency beats the engine queue, and among
    tied dependencies the latest-ending one wins with the smallest cid
    as the final tie-break.
    """

    def _tied_program(self):
        # c0 and c1 run identical work on identical cores, so both end
        # at exactly the same instant; x depends on both AND queues
        # behind c0 on core 0's compute engine -- a three-way tie.
        b = ProgramBuilder(2)
        c0 = b.add(0, CommandKind.COMPUTE, macs=640)
        c1 = b.add(1, CommandKind.COMPUTE, macs=640)
        x = b.add(0, CommandKind.COMPUTE, deps=[c0, c1], macs=640)
        return b.build(), c0, c1, x

    def test_trace_mode_prefers_dep_smallest_cid(self):
        program, c0, c1, x = self._tied_program()
        npu = tiny_test_machine(2)
        trace = simulate(program, npu).trace
        path = critical_path(program, trace)
        assert path.segments[0].cid == x
        # dep beats engine; among the tied deps c0 < c1 wins.
        assert path.segments[0].bound_by == "dep"
        assert path.segments[1].cid == c0

    def test_static_mode_matches_trace_mode(self):
        from repro.analysis import longest_path_times, walk_bindings

        program, c0, c1, x = self._tied_program()
        durations = [10.0, 10.0, 10.0]
        starts, finishes, bindings = longest_path_times(program, durations)
        assert starts[x] == pytest.approx(10.0)
        assert bindings[x] == (c0, "dep")
        last = max(range(3), key=lambda c: (finishes[c], -c))
        chain = walk_bindings(bindings, last)
        cids = [cid for cid, _ in chain]
        assert cids == sorted(cids, reverse=True)  # strictly decreasing
        assert cids == [x, c0]

    def test_repeated_extraction_is_stable(self):
        program, *_ = self._tied_program()
        npu = tiny_test_machine(2)
        trace = simulate(program, npu).trace
        a = critical_path(program, trace)
        b2 = critical_path(program, trace)
        assert [s.cid for s in a.segments] == [
            s.cid for s in b2.segments
        ]
        assert [s.bound_by for s in a.segments] == [
            s.bound_by for s in b2.segments
        ]
