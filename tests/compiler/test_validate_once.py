"""The structure pass runs once per program, not once per reader.

``ProgramBuilder.build`` keeps its verdict on the program, and the
simulator's plan, ``place_program`` and the verifier reuse it: a
program is a value that cannot change once built.  A spy counts calls
of :func:`repro.verify.structure.check_structure`, wherever it was
imported by name; another counts engine-queue derivations.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.compiler import program as program_mod
from repro.compiler.program import Program
from repro.hw import tiny_test_machine
from repro.sim import place_program, program_fingerprint, simulate, sub_machine
from repro.sim.simulator import _plan_for
from repro.verify import ALL_PASS_NAMES, check_trace, structure, verify_model

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


def test_compile_with_verify_and_simulate_validate_once(passes, npu):
    machine = sub_machine(npu, (0, 1), "t")
    options = dataclasses.replace(CompileOptions.base(), verify=True)
    compiled = compile_model(make_chain_graph(), machine, options)
    simulate(compiled.program, machine, memo=None)
    assert passes == [compiled.program]


def test_verifying_a_built_program_runs_no_pass(passes, npu):
    machine = sub_machine(npu, (0, 1), "t")
    compiled = compile_model(make_chain_graph(), machine, CompileOptions.base())
    passes.clear()
    report = verify_model(compiled)
    assert report.passes[0] is compiled.program.structure()
    assert passes == []


def test_engine_queues_derived_once(monkeypatch, npu):
    derived = []
    original = program_mod.EngineQueues

    def spy(*fields):
        derived.append(fields)
        return original(*fields)

    monkeypatch.setattr(program_mod, "EngineQueues", spy)
    machine = sub_machine(npu, (0, 1), "t")
    compiled = compile_model(make_chain_graph(), machine, CompileOptions.halo())
    result = simulate(compiled.program, machine, memo=None)
    verify_model(compiled, passes=ALL_PASS_NAMES)
    check_trace(compiled.program, result.trace)
    assert len(derived) == 1


def test_a_program_is_a_frozen_value(passes, npu):
    machine = sub_machine(npu, (0, 1), "t")
    program = compiled(npu)
    placed = place_program(program, (2, 0), npu.num_cores)
    for target in (program, placed):
        with pytest.raises(dataclasses.FrozenInstanceError):
            target.commands = list(program.commands)
    assert type(program.commands) is tuple
    assert Program(2, list(program.commands)) == Program(2, tuple(program.commands))
    with pytest.raises(TypeError):
        hash(program)

    before = simulate(program, machine, memo=None).makespan_cycles
    passes.clear()
    edited = Program(2, [dataclasses.replace(c, macs=10 * c.macs) for c in program.commands])
    assert simulate(edited, machine, memo=None).makespan_cycles != before
    assert _plan_for(edited, machine) is not _plan_for(program, machine)
    assert program_fingerprint(edited) != program_fingerprint(program)
    assert edited.structure() is not program.structure()
    assert passes == [edited]


def test_hand_built_corrupt_program_raises_from_simulate(npu):
    program = compiled(npu)
    commands = list(program.commands)
    commands[0] = dataclasses.replace(commands[0], core=5)
    with pytest.raises(ValueError, match="RPR205"):
        simulate(Program(num_cores=2, commands=commands), npu, memo=None)
