"""The structure pass runs once per command list, not once per reader.

``ProgramBuilder.build`` keeps its verdict on the program, and the
simulator's plan and ``place_program`` reuse it while the list is the
same object of the same length.  A spy counts calls of
:func:`repro.verify.structure.check_structure`, wherever it was
imported by name.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.compiler.program import Program
from repro.hw import tiny_test_machine
from repro.sim import place_program, simulate, sub_machine
from repro.verify import structure

from tests.conftest import make_chain_graph


@pytest.fixture
def passes(monkeypatch):
    """Record the program of each structure pass while the test runs,
    wherever the pass was imported by name."""
    calls = []
    original = structure.check_structure

    def spy(program):
        calls.append(program)
        return original(program)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "check_structure", None) is original
        ):
            monkeypatch.setattr(module, "check_structure", spy)
    return calls


@pytest.fixture(scope="module")
def npu():
    return tiny_test_machine(3)


def compiled(npu, cores=(0, 1)):
    return compile_model(
        make_chain_graph(), sub_machine(npu, cores, "t"), CompileOptions.base()
    ).program


def test_compile_and_simulate_validate_once(passes, npu):
    machine = sub_machine(npu, (0, 1), "t")
    program = compile_model(make_chain_graph(), machine, CompileOptions.base()).program
    simulate(program, machine, memo=None)
    simulate(program, npu, memo=None)
    assert passes == [program]


def test_placing_a_built_program_runs_no_pass(passes, npu):
    program = compiled(npu)
    passes.clear()
    placed = place_program(program, (2, 0), npu.num_cores)
    simulate(placed, npu, memo=None)
    assert passes == []


def test_hand_built_program_is_validated_once(passes, npu):
    program = Program(num_cores=2, commands=list(compiled(npu).commands))
    passes.clear()
    place_program(program, (1, 2), npu.num_cores)
    simulate(program, sub_machine(npu, (0, 1), "t"), memo=None)
    assert passes == [program]


def test_same_length_rebind_is_validated_and_planned_again(passes, npu):
    machine = sub_machine(npu, (0, 1), "t")
    program = compiled(npu)
    before = simulate(program, machine, memo=None).makespan_cycles
    program.commands = [dataclasses.replace(c, macs=10 * c.macs) for c in program.commands]
    after = simulate(program, machine, memo=None).makespan_cycles
    fresh = Program(num_cores=2, commands=list(program.commands))
    assert after == simulate(fresh, machine, memo=None).makespan_cycles != before
    assert passes == [program, program, fresh]


def test_hand_built_corrupt_program_raises_from_simulate(npu):
    program = compiled(npu)
    commands = list(program.commands)
    commands[0] = dataclasses.replace(commands[0], core=5)
    with pytest.raises(ValueError, match="RPR205"):
        simulate(Program(num_cores=2, commands=commands), npu, memo=None)
