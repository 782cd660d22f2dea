"""Command IR: builder, engine mapping, validation, barriers."""

import dataclasses

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

    def test_core_bytes(self):
        p = self.build_program()
        assert p.core_bytes(0) == 140
        assert p.core_bytes(1) == 30

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
