"""A placed program is a view of its source.

``place_program`` builds no command: the placed commands are built
when first read, from the source's, and are then exactly the renamed
copy.  Until then ``len`` answers from the placement; equality,
``repr`` and pickling read the built commands.
Placement checks the core map's range and reuses the source's own
structure verdict, so a malformed source fails there, not later in
``simulate``.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.compiler.program import Command, CommandKind, Program
from repro.hw import tiny_test_machine
from repro.sim import place_program, program_fingerprint, simulate, sub_machine
from repro.verify import VerificationError

from tests.conftest import make_chain_graph


@pytest.fixture(scope="module")
def npu():
    return tiny_test_machine(3)


@pytest.fixture
def source(npu):
    return compile_model(
        make_chain_graph(), sub_machine(npu, (0, 1), "t"), CompileOptions.base()
    ).program


def renamed(program, cores):
    """The commands placement built eagerly: each command's core renamed."""
    return tuple(dataclasses.replace(c, core=cores[c.core]) for c in program.commands)


class TestView:
    def test_commands_built_on_first_read_only(self, npu, source, placed_builds):
        placed = place_program(source, (2, 0), npu.num_cores)
        assert len(placed) == len(source) and not placed_builds
        assert placed.commands == renamed(source, (2, 0))
        assert placed.commands is placed.commands
        assert placed_builds == [placed]

    def test_equality_repr_and_pickle(self, npu, source):
        placed = place_program(source, (2, 0), npu.num_cores)
        plain = Program(npu.num_cores, renamed(source, (2, 0)))
        assert placed == plain and plain == placed
        assert repr(placed) == repr(plain)
        clone = pickle.loads(pickle.dumps(place_program(source, (2, 0), npu.num_cores)))
        assert clone == placed
        assert program_fingerprint(clone) == program_fingerprint(placed)

    def test_runs_as_the_eager_copy(self, npu, source):
        placed = place_program(source, (1, 2), npu.num_cores)
        eager = Program(npu.num_cores, renamed(source, (1, 2)))
        got = simulate(placed, npu, seed=3, memo=None)
        assert got.makespan_cycles == simulate(eager, npu, seed=3, memo=None).makespan_cycles


class TestMalformedSource:
    """A source command on a core outside the source's machine used to
    be renamed by the map (core -1 to the map's last entry) and fail
    only in ``simulate``."""

    @pytest.mark.parametrize("core", [-1, 2])
    def test_source_core_out_of_range(self, npu, source, core):
        commands = list(source.commands)
        commands[0] = dataclasses.replace(commands[0], core=core)
        bad = Program(num_cores=2, commands=commands)
        with pytest.raises(VerificationError, match="RPR205"):
            place_program(bad, (0, 1, 2), npu.num_cores)

    @pytest.mark.parametrize("core_map", [(0, -1), (3, 0)])
    def test_map_entry_out_of_range(self, npu, source, core_map):
        with pytest.raises(VerificationError, match="RPR205"):
            place_program(source, core_map, npu.num_cores)

    def test_unused_map_entry_is_not_checked(self, npu, source):
        placed = place_program(source, (0, 1, -1), npu.num_cores)
        assert {c.core for c in placed.commands} <= {0, 1}

    def test_source_structure_error(self, npu):
        cmd = Command(0, 0, CommandKind.COMPUTE, deps=(0,))
        with pytest.raises(VerificationError, match="RPR202"):
            place_program(Program(1, [cmd]), (2,), npu.num_cores)
