"""Concurrent multi-network execution on disjoint core groups."""


import pytest

from repro.compiler import CompileOptions, compile_model
from repro.hw import homogeneous, tiny_test_machine
from repro.sim import (
    SimSession,
    Tenant,
    inject_wave,
    place_program,
    run_concurrent,
    sub_machine,
)

from tests.conftest import make_chain_graph, make_mixed_graph


@pytest.fixture
def npu():
    return tiny_test_machine(3)


class TestTenantValidation:
    def test_needs_cores(self):
        with pytest.raises(ValueError):
            Tenant("t", make_chain_graph(), cores=())

    def test_duplicate_cores_rejected(self):
        with pytest.raises(ValueError):
            Tenant("t", make_chain_graph(), cores=(0, 0))

    def test_overlapping_tenants_rejected(self, npu):
        tenants = [
            Tenant("a", make_chain_graph(), cores=(0, 1)),
            Tenant("b", make_chain_graph(), cores=(1, 2)),
        ]
        with pytest.raises(ValueError):
            run_concurrent(npu, tenants)

    def test_empty_tenant_list_rejected(self, npu):
        with pytest.raises(ValueError):
            run_concurrent(npu, [])

    def test_core_out_of_range(self, npu):
        with pytest.raises(ValueError):
            sub_machine(npu, [5], "x")


class TestSubMachine:
    def test_core_subset(self, npu):
        sub = sub_machine(npu, [2, 0], "t")
        assert sub.num_cores == 2
        assert sub.cores[0] == npu.cores[2]
        assert sub.bus_bytes_per_cycle == npu.bus_bytes_per_cycle


class TestPlace:
    def test_cores_renamed_ids_deps_layers_kept(self, npu):
        g = make_chain_graph()
        prog = compile_model(g, sub_machine(npu, [0, 1], "a"), CompileOptions.base()).program
        placed = place_program(prog, [2, 0], 3)
        assert placed.num_cores == 3
        assert len(placed) == len(prog)
        for cmd, orig in zip(placed.commands, prog.commands):
            assert cmd.core == (2, 0)[orig.core]
            assert (cmd.cid, cmd.deps, cmd.layer) == (orig.cid, orig.deps, orig.layer)

    def test_placed_wave_runs(self, npu):
        g = make_chain_graph()
        p1 = compile_model(g, sub_machine(npu, [0, 1], "a"), CompileOptions.base()).program
        p2 = compile_model(g, sub_machine(npu, [2], "b"), CompileOptions.single_core()).program
        session = SimSession(npu, memo=None)
        inject_wave(session, [place_program(p1, [0, 1], 3), place_program(p2, [2], 3)], 0.0, 0)
        outcomes = session.run_until(stop_on_completion=False)
        assert len(outcomes) == 2
        assert all(out.completed_at_cycles > 0 and not out.failed for out in outcomes)

    def test_core_map_too_short_rejected(self, npu):
        g = make_chain_graph()
        p1 = compile_model(g, sub_machine(npu, [0, 1], "a"), CompileOptions.base()).program
        with pytest.raises(ValueError, match="too short"):
            place_program(p1, [0], 3)

    def test_repeated_core_rejected(self, npu):
        g = make_chain_graph()
        p1 = compile_model(g, sub_machine(npu, [0, 1], "a"), CompileOptions.base()).program
        with pytest.raises(ValueError, match="repeats"):
            place_program(p1, [1, 1], 3)


class TestRunConcurrent:
    def test_two_tenants_complete(self, npu):
        result = run_concurrent(
            npu,
            [
                Tenant("a", make_chain_graph(), cores=(0, 1), options=CompileOptions.base()),
                Tenant("b", make_mixed_graph(), cores=(2,), options=CompileOptions.single_core()),
            ],
        )
        assert len(result.tenants) == 2
        for t in result.tenants:
            assert t.latency_us > 0
            assert t.isolated_latency_us > 0
        assert result.makespan_us == pytest.approx(
            max(t.completion_us for t in result.tenants)
        )

    def test_interference_at_least_one(self, npu):
        result = run_concurrent(
            npu,
            [
                Tenant("a", make_chain_graph(), cores=(0,), options=CompileOptions.single_core()),
                Tenant("b", make_chain_graph(), cores=(1,), options=CompileOptions.single_core()),
            ],
        )
        for t in result.tenants:
            assert t.interference >= 0.99  # never faster than alone

    def test_bus_contention_shows_when_oversubscribed(self):
        """Links that oversubscribe the bus make tenants interfere."""
        # huge compute throughput makes the workload bandwidth-bound, so
        # the 10+10 B/cy of demand against a 12 B/cy bus must show up.
        npu = homogeneous(
            2, dma_bytes_per_cycle=10.0, bus_bytes_per_cycle=12.0,
            macs_per_cycle=4096, spm_bytes=64 * 1024, channel_alignment=4,
        )
        result = run_concurrent(
            npu,
            [
                Tenant("a", make_chain_graph(), cores=(0,), options=CompileOptions.single_core()),
                Tenant("b", make_chain_graph(), cores=(1,), options=CompileOptions.single_core()),
            ],
        )
        assert any(t.interference > 1.05 for t in result.tenants)

    def test_lookup_by_name(self, npu):
        result = run_concurrent(
            npu,
            [Tenant("only", make_chain_graph(), cores=(0,), options=CompileOptions.single_core())],
        )
        assert result.tenant("only").name == "only"
        with pytest.raises(KeyError):
            result.tenant("ghost")


class TestAccountingRegressions:
    """Pins for the multi-tenant accounting bugfixes."""

    def test_merged_barrier_count_by_group(self):
        """Two tenants on 2+2 cores: barriers span only each tenant's
        group, so the merged count is the sum of per-tenant counts (the
        old total-events // num_cores accounting undercounted)."""
        npu = tiny_test_machine(4)
        g = make_chain_graph()
        tenants = [
            Tenant("a", g, cores=(0, 1), options=CompileOptions.base()),
            Tenant("b", g, cores=(2, 3), options=CompileOptions.base()),
        ]
        compiled = {
            t.name: compile_model(
                g, sub_machine(npu, t.cores, t.name), t.options
            )
            for t in tenants
        }
        expected = sum(c.num_barriers for c in compiled.values())
        assert expected > 0  # the fixture actually emits barriers
        result = run_concurrent(npu, tenants)
        from repro.sim import collect_stats

        assert sum(collect_stats(t.trace, npu).num_barriers for t in result.tenants) == expected

    def test_staggered_tenant_latency_is_span_not_completion(self):
        """A tenant starting at t>0 must report max(end)-min(start), not
        its absolute completion time."""
        from repro.compiler.program import CommandKind, Engine
        from repro.sim.multitenant import trace_span

        from tests.sim.trace_rows import Row, trace_of

        def ev(cid, core, layer, start, end):
            return Row(
                cid=cid, core=core, engine=Engine.COMPUTE,
                kind=CommandKind.COMPUTE, layer=layer, tag="",
                num_bytes=0, macs=1, start=start, end=end,
                own_ready=start, dep_ready=start,
            )

        a = trace_of([ev(0, 0, "c1", 0.0, 100.0), ev(1, 0, "c2", 100.0, 200.0)])
        b = trace_of([ev(0, 1, "c1", 150.0, 300.0), ev(1, 1, "c2", 300.0, 420.0)])
        assert trace_span(a) == (0.0, 200.0)
        assert trace_span(b) == (150.0, 420.0)
        # span (latency) for b is 270 cycles, completion is 420.
        assert trace_span(b)[1] - trace_span(b)[0] == pytest.approx(270.0)
        assert trace_span(trace_of([])) == (0.0, 0.0)

    def test_completion_at_least_latency(self, npu):
        result = run_concurrent(
            npu,
            [
                Tenant("a", make_chain_graph(), cores=(0, 1), options=CompileOptions.base()),
                Tenant("b", make_chain_graph(), cores=(2,), options=CompileOptions.single_core()),
            ],
        )
        for t in result.tenants:
            assert t.completion_us >= t.latency_us - 1e-9
            assert t.start_us >= 0.0


class TestPlacedVerification:
    """place_program output goes through the static verifier."""

    def test_placed_program_verifies_clean(self, npu):
        from repro.verify import verify_program

        g = make_chain_graph()
        p1 = compile_model(g, sub_machine(npu, [0, 1], "a"), CompileOptions.base()).program
        assert verify_program(place_program(p1, [1, 2], 3)).ok

    def test_corrupt_program_rejected(self, npu):
        """A program that would deadlock on silicon raises at placement,
        instead of reaching the session as an unrunnable program."""
        import dataclasses as dc

        from repro.verify import VerificationError

        g = make_chain_graph()
        p1 = compile_model(
            g, sub_machine(npu, [0], "a"), CompileOptions.single_core()
        ).program
        # Corrupt one command with a forward dependency on its own
        # engine queue: passes per-command checks, deadlocks as a whole.
        cmds = list(p1.commands)
        queue_mates = [
            c.cid for c in cmds
            if c.core == cmds[0].core and c.engine is cmds[0].engine
        ]
        donor, later = queue_mates[0], queue_mates[1]
        cmds[donor] = dc.replace(cmds[donor], deps=(later,))
        from repro.compiler.program import Program

        bad = Program(num_cores=p1.num_cores, commands=cmds)
        with pytest.raises(VerificationError):
            place_program(bad, [0], 3)


class TestAutoAssign:
    def test_finds_best_split(self, npu):
        from repro.sim import auto_assign

        heavy = make_mixed_graph()
        light = make_chain_graph()
        result = auto_assign(
            npu,
            [
                Tenant("heavy", heavy, cores=(0,)),
                Tenant("light", light, cores=(0,)),
            ],
        )
        # heavy tenant should end up with more cores than the light one.
        assert len(result.tenant("heavy").compiled.npu.cores) >= len(
            result.tenant("light").compiled.npu.cores
        )
        # auto assignment is at least as good as the naive 1/2 split.
        naive = run_concurrent(
            npu,
            [
                Tenant("heavy", heavy, cores=(0,)),
                Tenant("light", light, cores=(1, 2)),
            ],
        )
        assert result.makespan_us <= naive.makespan_us + 1e-6

    def test_single_tenant_gets_all_cores(self, npu):
        from repro.sim import auto_assign

        result = auto_assign(npu, [Tenant("only", make_chain_graph(), cores=(0,))])
        assert len(result.tenant("only").compiled.npu.cores) == npu.num_cores

    def test_too_many_tenants(self, npu):
        from repro.sim import auto_assign

        tenants = [
            Tenant(f"t{i}", make_chain_graph(), cores=(0,)) for i in range(4)
        ]
        with pytest.raises(ValueError):
            auto_assign(npu, tenants)
