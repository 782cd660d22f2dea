"""Structure pass: RPR2xx on hand-built broken programs."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.program import Command, CommandKind, Program, ProgramBuilder
from repro.hw import tiny_test_machine
from repro.sim import simulate
from repro.verify import Severity, check_structure, compute_bounds


def prog(*commands, num_cores=2):
    return Program(num_cores=num_cores, commands=list(commands))


def codes(result):
    return sorted({d.code for d in result.diagnostics})


class TestWellFormed:
    def test_clean_program(self):
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.LOAD_INPUT, num_bytes=4),
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, deps=(0,), macs=8),
                Command(
                    cid=2, core=0, kind=CommandKind.STORE_OUTPUT, deps=(1,), num_bytes=4
                ),
            )
        )
        assert result.ok and not result.diagnostics
        assert result.stats["commands"] == 3
        assert result.stats["edges"] == 2

    def test_duplicate_cid(self):
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
            )
        )
        assert "RPR204" in codes(result)

    def test_bad_core(self):
        result = check_structure(
            prog(Command(cid=0, core=5, kind=CommandKind.COMPUTE, macs=1))
        )
        assert "RPR205" in codes(result)

    def test_self_dep(self):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(0,), macs=1))
        )
        assert "RPR202" in codes(result)

    def test_dangling_dep(self):
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(9,), macs=1)
            )
        )
        assert "RPR201" in codes(result)
        assert not result.ok

    def test_forward_dep_is_warning(self):
        # A forward edge to a command on a *different* queue is suspicious
        # but executable; the pass flags it without failing the program.
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
                Command(cid=1, core=0, kind=CommandKind.LOAD_INPUT, num_bytes=4),
            )
        )
        forward = [d for d in result.diagnostics if d.code == "RPR201"]
        assert forward and all(d.severity is Severity.WARNING for d in forward)


class TestPayloads:
    def test_bytes_on_compute(self):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.COMPUTE, num_bytes=4))
        )
        assert "RPR206" in codes(result)

    def test_macs_on_dma(self):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.LOAD_WEIGHT, macs=4))
        )
        assert "RPR206" in codes(result)

    def test_payload_on_barrier(self):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.BARRIER, num_bytes=4))
        )
        assert "RPR206" in codes(result)

    def test_negative_cycles(self):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.BARRIER, cycles=-2.0))
        )
        assert "RPR206" in codes(result)

    @pytest.mark.parametrize("cycles", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_cycles(self, cycles):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.BARRIER, cycles=cycles))
        )
        assert codes(result) == ["RPR206"] and not result.ok
        assert "non-finite cycles" in result.diagnostics[0].message

    @pytest.mark.parametrize("cycles", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_cycles_refused_by_builder_and_readers(self, cycles):
        builder = ProgramBuilder(2)
        builder.barrier(cycles=cycles)
        with pytest.raises(ValueError, match="non-finite cycles"):
            builder.build()
        program = prog(Command(cid=0, core=0, kind=CommandKind.BARRIER, cycles=cycles))
        npu = tiny_test_machine(2)
        for read in (lambda: simulate(program, npu, memo=None), lambda: compute_bounds(program, npu)):
            with pytest.raises(ValueError, match="non-finite cycles"):
                read()


class TestDeadlock:
    def test_queue_cycle_detected(self):
        # Two commands share the compute queue of core 0: #0 is ahead of
        # #1 in program order but depends on it -- #0 waits for #1 to
        # complete while #1 waits behind #0 at the queue head.  Deadlock.
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, macs=1),
            )
        )
        assert "RPR203" in codes(result)
        assert not result.ok

    def test_cross_queue_forward_dep_no_cycle(self):
        # The same forward edge across two different queues does not
        # deadlock: the load can run first.
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
                Command(cid=1, core=1, kind=CommandKind.COMPUTE, macs=1),
            )
        )
        assert "RPR203" not in codes(result)


# ---- property: the cycle verdict ------------------------------------------

_KINDS = list(CommandKind)


@st.composite
def small_programs(draw, num_cores=2):
    """1-7 commands with unique ids (at or shifted off their positions),
    random kinds, cores up to one past the machine, and dependencies on
    the ids, a dangling id and -1."""
    n = draw(st.integers(1, 7))
    shift = draw(st.sampled_from([0, 0, 1, 3]))
    ids = [cid + shift for cid in draw(st.permutations(range(n)))]
    targets = ids + [max(ids) + 5, -1]
    commands = [
        Command(
            cid=cid,
            core=draw(st.integers(0, num_cores)),
            kind=draw(st.sampled_from(_KINDS)),
            deps=tuple(draw(st.lists(st.sampled_from(targets), max_size=3, unique=True))),
        )
        for cid in ids
    ]
    return prog(*commands, num_cores=num_cores)


def _has_wait_cycle(program):
    """Depth-first search over dependency edges plus engine-queue order."""
    commands = program.commands
    position = {cmd.cid: pos for pos, cmd in enumerate(commands)}
    succs = [[] for _ in commands]
    last_on = {}
    for pos, cmd in enumerate(commands):
        for dep in cmd.deps:
            src = position.get(dep)
            if src is not None and src != pos:
                succs[src].append(pos)
        key = (cmd.core, cmd.engine)
        if key in last_on:
            succs[last_on[key]].append(pos)
        last_on[key] = pos

    state = [0] * len(commands)  # 0 unvisited, 1 on the stack, 2 done

    def visit(pos):
        state[pos] = 1
        for nxt in succs[pos]:
            if state[nxt] == 1 or (state[nxt] == 0 and visit(nxt)):
                return True
        state[pos] = 2
        return False

    return any(state[pos] == 0 and visit(pos) for pos in range(len(commands)))


@settings(max_examples=500, deadline=None)
@given(small_programs())
def test_cycle_verdict_matches_independent_search(program):
    # Ids off their positions let a dependency on a lower id still point
    # forward, so the verdict cannot rest on comparing ids alone.
    assert ("RPR203" in codes(check_structure(program))) == _has_wait_cycle(program)


# ---- property: Program.validate is the structure pass ---------------------


@st.composite
def loose_programs(draw, num_cores=2):
    """:func:`small_programs` loosened with duplicate ids, duplicate
    dependency entries and bad payloads.  Half of them first move every
    id to its position and keep only dependencies naming another command,
    so clean programs and lone forward dependencies turn up too."""
    program = draw(small_programs(num_cores))
    if draw(st.booleans()):
        position = {cmd.cid: pos for pos, cmd in enumerate(program.commands)}
        program = prog(
            *(
                dataclasses.replace(
                    cmd,
                    cid=pos,
                    deps=tuple(
                        position[d] for d in cmd.deps if position.get(d, pos) != pos
                    ),
                )
                for pos, cmd in enumerate(program.commands)
            ),
            num_cores=num_cores,
        )
    ids = [cmd.cid for cmd in program.commands]
    commands = []
    rare = st.integers(0, 3).map(lambda k: k == 0)
    for cmd in program.commands:
        if draw(rare):
            cmd = dataclasses.replace(cmd, cid=draw(st.sampled_from(ids)))
        if cmd.deps and draw(rare):
            cmd = dataclasses.replace(cmd, deps=cmd.deps + (draw(st.sampled_from(cmd.deps)),))
        if draw(rare):
            cmd = dataclasses.replace(
                cmd,
                num_bytes=draw(st.sampled_from([0, 4, -1])),
                macs=draw(st.sampled_from([0, 8, -1])),
                cycles=draw(st.sampled_from([2.0, -1.0, math.nan, math.inf])),
            )
        commands.append(cmd)
    return prog(*commands, num_cores=num_cores)


@settings(max_examples=300, deadline=None)
@given(loose_programs())
def test_validate_raises_on_the_first_finding_the_plan_refuses(program):
    refused = [
        d
        for d in check_structure(program).diagnostics
        if d.severity is Severity.ERROR or d.code == "RPR201"
    ]
    if not refused:
        program.validate()
        return
    with pytest.raises(ValueError) as info:
        program.validate()
    assert refused[0].message in str(info.value)
