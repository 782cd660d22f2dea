"""Command IR: builder, engine mapping, validation, barriers."""

import dataclasses

import numpy as np
import pytest

from repro.compiler.program import (
    Command,
    CommandKind,
    Engine,
    Program,
    ProgramBuilder,
)


class TestEngineMapping:
    @pytest.mark.parametrize(
        "kind,engine",
        [
            (CommandKind.LOAD_INPUT, Engine.LOAD),
            (CommandKind.LOAD_WEIGHT, Engine.LOAD),
            (CommandKind.HALO_RECV, Engine.LOAD),
            (CommandKind.COMPUTE, Engine.COMPUTE),
            (CommandKind.STORE_OUTPUT, Engine.STORE),
            (CommandKind.HALO_SEND, Engine.STORE),
            (CommandKind.BARRIER, Engine.CTRL),
        ],
    )
    def test_kind_to_engine(self, kind, engine):
        cmd = Command(cid=0, core=0, kind=kind)
        assert cmd.engine is engine

    def test_is_dma(self):
        assert Command(cid=0, core=0, kind=CommandKind.LOAD_INPUT).is_dma
        assert Command(cid=0, core=0, kind=CommandKind.HALO_SEND).is_dma
        assert not Command(cid=0, core=0, kind=CommandKind.COMPUTE).is_dma
        assert not Command(cid=0, core=0, kind=CommandKind.BARRIER).is_dma

    def test_engine_is_derived_not_part_of_the_value(self):
        cmd = Command(cid=3, core=1, kind=CommandKind.STORE_OUTPUT, num_bytes=8)
        assert "engine" not in repr(cmd)
        same = Command(cid=3, core=1, kind=CommandKind.STORE_OUTPUT, num_bytes=8)
        assert cmd == same and hash(cmd) == hash(same)
        # replace() re-derives the engine from the new kind.
        moved = dataclasses.replace(cmd, kind=CommandKind.COMPUTE, num_bytes=0)
        assert moved.engine is Engine.COMPUTE
        with pytest.raises(ValueError):
            dataclasses.replace(cmd, engine=Engine.LOAD)


class TestBuilder:
    def test_sequential_ids(self):
        b = ProgramBuilder(2)
        a = b.add(0, CommandKind.LOAD_INPUT, num_bytes=10)
        c = b.add(1, CommandKind.COMPUTE, macs=5)
        assert (a, c) == (0, 1)

    def test_deps_deduped_and_sorted(self):
        b = ProgramBuilder(1)
        x = b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        y = b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        z = b.add(0, CommandKind.COMPUTE, deps=[y, x, x], macs=1)
        assert b.build().command(z).deps == (x, y)

    def test_tail_tracking(self):
        b = ProgramBuilder(2)
        assert b.tail(0, Engine.LOAD) is None
        x = b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        assert b.tail(0, Engine.LOAD) == x
        assert b.tail(0, Engine.COMPUTE) is None

    def test_barrier_emits_one_per_core(self):
        b = ProgramBuilder(3)
        for core in range(3):
            b.add(core, CommandKind.COMPUTE, macs=1)
        cids = b.barrier(cycles=100.0)
        assert len(cids) == 3
        program = b.build()
        for cid in cids:
            cmd = program.command(cid)
            assert cmd.kind is CommandKind.BARRIER
            assert cmd.cycles == 100.0
            # every barrier command depends on the pre-barrier frontier,
            # not on sibling barrier commands.
            assert set(cmd.deps) == {0, 1, 2}

    def test_frontier_spans_engines(self):
        b = ProgramBuilder(1)
        l = b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        c = b.add(0, CommandKind.COMPUTE, macs=1)
        s = b.add(0, CommandKind.STORE_OUTPUT, num_bytes=1)
        assert b.frontier() == [l, c, s]

    def test_build_leaves_the_builder_usable(self):
        b = ProgramBuilder(1)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        first = b.build()
        b.add(0, CommandKind.COMPUTE, deps=[0], macs=1)
        assert len(first) == 1 and len(b.build()) == 2


class TestBuilderTakesValuesAsGiven:
    """The builder used to pass ``deps``, ``num_bytes`` and ``macs``
    through ``int()``: 100.9 bytes stored 100, 10.5 MACs stored 10,
    ``deps=[0.7]`` depended on command 0 and ``deps=[True]`` on
    command 1."""

    @staticmethod
    def two_loads():
        b = ProgramBuilder(1)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        return b

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("num_bytes", {"num_bytes": 100.9}),
            ("num_bytes", {"num_bytes": 64.0}),
            ("num_bytes", {"num_bytes": True}),
            ("num_bytes", {"num_bytes": "8"}),
            ("macs", {"macs": 10.5}),
            ("macs", {"macs": False}),
            ("deps", {"deps": [0.7]}),
            ("deps", {"deps": [True]}),
            ("deps", {"deps": [0, 1.0]}),
        ],
    )
    def test_non_integral_value_names_the_field(self, field, kwargs):
        kind = CommandKind.COMPUTE if field == "macs" else CommandKind.STORE_OUTPUT
        b = self.two_loads()
        with pytest.raises(ValueError, match=f"field '{field}' must be an int"):
            b.add(0, kind, **kwargs)
        assert len(b.build()) == 2

    def test_numpy_integers_accepted_as_ints(self):
        b = self.two_loads()
        cid = b.add(
            0, CommandKind.COMPUTE, deps=[np.int64(1), np.int32(0), 1], macs=np.int64(7)
        )
        store = b.add(0, CommandKind.STORE_OUTPUT, deps=[cid], num_bytes=np.uint16(9))
        program = b.build()
        compute, stored = program.command(cid), program.command(store)
        assert compute.deps == (0, 1) and compute.macs == 7 and stored.num_bytes == 9
        assert {type(v) for v in (*compute.deps, compute.macs, stored.num_bytes)} == {int}

    def test_negative_num_cores_refused(self):
        with pytest.raises(ValueError, match="num_cores must be >= 0"):
            ProgramBuilder(-1)
        with pytest.raises(ValueError, match="num_cores must be >= 0"):
            Program(num_cores=-1)
        assert len(ProgramBuilder(0).build()) == len(Program(0)) == 0


class TestValidation:
    def test_forward_dep_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, macs=1),
            ],
        )
        with pytest.raises(ValueError):
            program.validate()

    def test_bad_core_rejected(self):
        program = Program(
            num_cores=1,
            commands=[Command(cid=0, core=3, kind=CommandKind.COMPUTE, macs=1)],
        )
        with pytest.raises(ValueError):
            program.validate()

    def test_non_dense_ids_rejected(self):
        program = Program(
            num_cores=1,
            commands=[Command(cid=5, core=0, kind=CommandKind.COMPUTE, macs=1)],
        )
        with pytest.raises(ValueError):
            program.validate()

    def test_negative_payload_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.LOAD_INPUT, num_bytes=-1)
            ],
        )
        with pytest.raises(ValueError):
            program.validate()

    def test_self_dep_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
            ],
        )
        with pytest.raises(ValueError, match="depends on itself"):
            program.validate()

    def test_dangling_dep_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, deps=(7,), macs=1),
            ],
        )
        with pytest.raises(ValueError, match="dangling"):
            program.validate()

    def test_duplicate_dep_entries_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(
                    cid=1, core=0, kind=CommandKind.COMPUTE, deps=(0, 0), macs=1
                ),
            ],
        )
        with pytest.raises(ValueError, match="duplicate dependency"):
            program.validate()

    def test_duplicate_cid_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
            ],
        )
        with pytest.raises(ValueError, match="dense"):
            program.validate()

    def test_negative_cycles_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.BARRIER, cycles=-1.0)
            ],
        )
        with pytest.raises(ValueError, match="negative cycles"):
            program.validate()

    def test_payload_on_wrong_kind_rejected(self):
        for cmd in (
            Command(cid=0, core=0, kind=CommandKind.COMPUTE, num_bytes=8),
            Command(cid=0, core=0, kind=CommandKind.LOAD_INPUT, macs=8),
            Command(cid=0, core=0, kind=CommandKind.BARRIER, num_bytes=8),
        ):
            program = Program(num_cores=1, commands=[cmd])
            with pytest.raises(ValueError, match="carries"):
                program.validate()


class TestAggregates:
    def build_program(self):
        b = ProgramBuilder(2)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=100, layer="a")
        b.add(0, CommandKind.COMPUTE, macs=50, layer="a")
        b.add(0, CommandKind.STORE_OUTPUT, num_bytes=40, layer="a")
        b.add(1, CommandKind.LOAD_WEIGHT, num_bytes=30, layer="a")
        return b.build()

    def test_total_macs(self):
        assert self.build_program().total_macs() == 50

    def test_total_bytes(self):
        p = self.build_program()
        assert p.total_bytes() == 170
        assert p.total_bytes([CommandKind.LOAD_INPUT]) == 100

    def test_count(self):
        assert self.build_program().count(CommandKind.COMPUTE) == 1

    def test_per_engine_queue_order(self):
        b = ProgramBuilder(2)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        b.add(1, CommandKind.COMPUTE, macs=1)
        b.add(0, CommandKind.LOAD_WEIGHT, num_bytes=1)
        b.add(0, CommandKind.HALO_RECV, num_bytes=1)
        queues = b.build().engine_queues()
        assert queues.keys == [(0, Engine.LOAD), (1, Engine.COMPUTE)]
        assert queues.members == [[0, 2, 3], [1]]
        assert queues.qid_of == [0, 1, 0, 0]
        assert queues.prev == [-1, -1, 0, 2]
