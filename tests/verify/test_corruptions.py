"""Corruption injection: each seeded defect must yield its diagnostic.

These tests are the verifier's verifier.  Starting from a *correct*
compiled program, each test removes or forges exactly the coordination
the paper's mechanisms rely on -- a halo rendezvous, a barrier edge, a
double-buffer phase edge, a stratum invariant -- and asserts the
matching diagnostic code appears (and that the report flips to failed).
"""

import dataclasses

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.compiler.program import Command, CommandKind
from repro.hw import tiny_test_machine
from repro.verify import verify_model

from tests.conftest import make_chain_graph
from tests.verify.conftest import rebuild, strip_deps


def find(program, predicate):
    for cmd in program.commands:
        if predicate(cmd):
            return cmd
    raise AssertionError("no command matches the predicate")


class TestHaloCorruptions:
    def test_dropped_peer_send(self, halo_mixed):
        # A receive that no longer waits for its peer's send reads
        # whatever was in the halo buffer: the rendezvous is gone.
        recv = find(
            halo_mixed.program,
            lambda c: c.kind is CommandKind.HALO_RECV
            and any(
                halo_mixed.program.command(d).kind is CommandKind.HALO_SEND
                for d in c.deps
            ),
        )
        corrupted = strip_deps(
            halo_mixed, recv, keep=lambda c: c.kind is not CommandKind.HALO_SEND
        )
        report = verify_model(corrupted)
        assert not report.ok
        assert report.has_code("RPR501")
        assert report.has_code("RPR104")

    def test_undersized_receive(self, halo_mixed):
        recv = find(
            halo_mixed.program,
            lambda c: c.kind is CommandKind.HALO_RECV and c.num_bytes > 1,
        )
        smaller = dataclasses.replace(recv, num_bytes=recv.num_bytes // 2)
        report = verify_model(rebuild(halo_mixed, replace={recv.cid: smaller}))
        assert report.has_code("RPR503")

    def test_undersized_send(self, halo_mixed):
        send = find(
            halo_mixed.program,
            lambda c: c.kind is CommandKind.HALO_SEND and c.num_bytes > 1,
        )
        smaller = dataclasses.replace(send, num_bytes=send.num_bytes // 2)
        report = verify_model(rebuild(halo_mixed, replace={send.cid: smaller}))
        assert report.has_code("RPR504")


class TestRaceCorruptions:
    def test_loads_reordered_past_producer_stores(self, base_mixed):
        # Strip the barrier edge from a consumer's input loads: the loads
        # can now start before remote cores finished storing the tensor.
        program = base_mixed.program
        victim = find(
            program,
            lambda c: c.kind is CommandKind.LOAD_INPUT
            and any(
                program.command(d).kind is CommandKind.BARRIER for d in c.deps
            ),
        )
        replace = {}
        for cmd in program.commands:
            if cmd.kind is CommandKind.LOAD_INPUT and cmd.layer == victim.layer:
                kept = tuple(
                    d
                    for d in cmd.deps
                    if program.command(d).kind is not CommandKind.BARRIER
                )
                replace[cmd.cid] = dataclasses.replace(cmd, deps=kept)
        report = verify_model(rebuild(base_mixed, replace=replace))
        assert not report.ok
        assert report.has_code("RPR101")


class TestLivenessCorruptions:
    def test_load_overruns_double_buffer(self, base_mixed):
        # The load of tile k waits for the compute of tile k-2 so its
        # buffer is free; without that edge three buffers can be live.
        program = base_mixed.program
        victim = find(
            program,
            lambda c: c.kind is CommandKind.LOAD_INPUT
            and any(
                program.command(d).kind is CommandKind.COMPUTE for d in c.deps
            ),
        )
        corrupted = strip_deps(
            base_mixed, victim, keep=lambda c: c.kind is not CommandKind.COMPUTE
        )
        report = verify_model(corrupted)
        assert report.has_code("RPR301")

    def test_compute_overruns_output_buffer(self, base_mixed):
        program = base_mixed.program
        victim = find(
            program,
            lambda c: c.kind is CommandKind.COMPUTE
            and any(
                program.command(d).kind is CommandKind.STORE_OUTPUT
                for d in c.deps
            ),
        )
        corrupted = strip_deps(
            base_mixed,
            victim,
            keep=lambda c: c.kind is not CommandKind.STORE_OUTPUT,
        )
        report = verify_model(corrupted)
        assert report.has_code("RPR302")


class TestStratumCorruptions:
    def test_injected_barrier_inside_stratum(self, stratum_chain):
        names = stratum_chain.strata.strata[0].layer_names
        assert len(names) >= 2
        barrier = Command(
            cid=len(stratum_chain.program),
            core=0,
            kind=CommandKind.BARRIER,
            cycles=10.0,
            layer=names[-1],  # a non-top member: sync inside the stratum
        )
        report = verify_model(rebuild(stratum_chain, append=[barrier]))
        assert not report.ok
        assert report.has_code("RPR401")

    def test_interior_store_to_global_memory(self, stratum_chain):
        names = stratum_chain.strata.strata[0].layer_names
        store = Command(
            cid=len(stratum_chain.program),
            core=0,
            kind=CommandKind.STORE_OUTPUT,
            num_bytes=64,
            layer=names[0],  # the top is non-bottom in a 2+ layer stratum
        )
        report = verify_model(rebuild(stratum_chain, append=[store]))
        assert report.has_code("RPR402")


class TestStructureGating:
    def test_broken_structure_skips_ordering_passes(self, base_mixed):
        cmd = base_mixed.program.commands[-1]
        broken = rebuild(
            base_mixed,
            replace={
                cmd.cid: dataclasses.replace(cmd, deps=cmd.deps + (999999,))
            },
        )
        report = verify_model(broken)
        assert report.has_code("RPR201")
        by_name = {p.name: p for p in report.passes}
        assert by_name["race"].skipped
        assert by_name["liveness"].skipped

    def test_broken_structure_skips_performance_passes(self, base_mixed):
        # The bracket prices through the simulator's plan, which refuses
        # the program: the report must carry RPR201, not a ValueError.
        cmd = base_mixed.program.commands[-1]
        broken = rebuild(
            base_mixed,
            replace={
                cmd.cid: dataclasses.replace(cmd, deps=cmd.deps + (999999,))
            },
        )
        report = verify_model(broken, passes=("structure", "bounds", "perflint"))
        assert report.has_code("RPR201")
        by_name = {p.name: p for p in report.passes}
        assert by_name["bounds"].skipped
        assert by_name["perflint"].skipped

    @pytest.mark.parametrize("perf_pass", ["bounds", "perflint"])
    def test_forward_dependency_skips_performance_passes(self, perf_pass):
        # A forward edge onto another core's dependency-free queue head
        # forms no cycle, so structure only warns (RPR201); the plan the
        # performance passes price from still refuses the program.
        base_chain = compile_model(
            make_chain_graph(), tiny_test_machine(3), CompileOptions.base()
        )
        program = base_chain.program
        first = program.commands[0]
        heads = {}
        for cmd in program.commands:
            heads.setdefault((cmd.core, cmd.engine), cmd)
        target = next(
            h for h in heads.values()
            if h.core != first.core and not h.deps and h.cid > first.cid
        )
        broken = rebuild(
            base_chain,
            replace={0: dataclasses.replace(first, deps=first.deps + (target.cid,))},
        )
        report = verify_model(broken, passes=("structure", perf_pass))
        (structure, perf) = report.passes
        assert structure.ok and [d.code for d in structure.diagnostics] == ["RPR201"]
        assert perf.name == perf_pass and perf.skipped
