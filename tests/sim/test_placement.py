"""place_program: core-map checks, and what a placed program shares
with its source (its plan and its memo fingerprint)."""

from __future__ import annotations

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.compiler.program import Program
from repro.hw import tiny_test_machine
from repro.sim import place_program, program_fingerprint, simulate, sub_machine
from repro.sim.simulator import _plan_for
from repro.verify import VerificationError

from tests.conftest import make_chain_graph


@pytest.fixture(scope="module")
def npu():
    return tiny_test_machine(3)


def compiled(npu, cores):
    opts = CompileOptions.single_core() if len(cores) == 1 else CompileOptions.base()
    return compile_model(make_chain_graph(), sub_machine(npu, cores, "t"), opts).program


class TestCoreMap:
    @pytest.mark.parametrize("core_map", [(0.0,), (True,), (1.0, 2), (0, False), ("1",)])
    def test_non_int_entries_rejected(self, npu, core_map):
        program = compiled(npu, (0,) if len(core_map) == 1 else (0, 1))
        with pytest.raises(ValueError, match="not an int"):
            place_program(program, core_map, npu.num_cores)

    def test_out_of_range_core_fails_the_structure_pass(self, npu):
        with pytest.raises(VerificationError, match="RPR205"):
            place_program(compiled(npu, (0,)), (3,), npu.num_cores)

    def test_unused_entries_are_never_read(self, npu):
        """Entries past the program's core count name no command."""
        program = compiled(npu, (1,))
        placed = place_program(program, (1, 7), npu.num_cores)
        ref = simulate(place_program(program, (1,), npu.num_cores), npu, memo=None)
        assert simulate(placed, npu, memo=None).makespan_cycles == ref.makespan_cycles

    def test_empty_program_on_no_cores(self, npu):
        placed = place_program(Program(num_cores=0), (), npu.num_cores)
        assert simulate(placed, npu, memo=None).makespan_cycles == 0.0


class TestDerivedPlan:
    def test_shares_the_source_plan(self, npu):
        """The placed program runs on the source's plan on its compile
        machine: that machine equals the group machine in everything but
        its name."""
        source = compiled(npu, (2, 0))
        src_plan = _plan_for(source, sub_machine(npu, (2, 0), "t"))
        placed = place_program(source, (2, 0), npu.num_cores)
        assert _plan_for(placed, npu) is src_plan
        assert src_plan.columns is source.columns()

    def test_queues_are_the_sources_renamed(self, npu):
        """A placed view's engine queues are the ones its own commands
        give, sharing every list of the source's but the keys."""
        source = compiled(npu, (2, 0))
        placed = place_program(source, (2, 0), npu.num_cores)
        queues = placed.engine_queues()
        rebuilt = Program(num_cores=placed.num_cores, commands=list(placed.commands))
        assert queues == rebuilt.engine_queues()
        assert queues.members is source.engine_queues().members


class TestFingerprint:
    def test_equal_sources_on_equal_maps_share(self, npu):
        a = place_program(compiled(npu, (0, 1)), (2, 1), npu.num_cores)
        b = place_program(compiled(npu, (0, 1)), (2, 1), npu.num_cores)
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_core_map_and_core_count_are_keyed(self, npu):
        source = compiled(npu, (0, 1))
        prints = {
            program_fingerprint(place_program(source, cores, n))
            for cores, n in (((0, 1), 3), ((1, 0), 3), ((0, 1), 4))
        }
        assert len(prints) == 3

    def test_never_equal_to_a_content_digest(self, npu):
        placed = place_program(compiled(npu, (0, 1)), (0, 1), npu.num_cores)
        plain = Program(num_cores=placed.num_cores, commands=list(placed.commands))
        assert program_fingerprint(placed) != program_fingerprint(plain)
