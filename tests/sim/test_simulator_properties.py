"""Property-based tests: the simulator on random well-formed programs."""

from hypothesis import given, settings, strategies as st

from repro.compiler.program import CommandKind, ProgramBuilder
from repro.cost.compute import compute_cycles
from repro.hw import CoreConfig, NPUConfig
from repro.sim import simulate

from tests.sim.trace_rows import rows


def machine(cores: int) -> NPUConfig:
    return NPUConfig(
        name="prop",
        cores=tuple(
            CoreConfig(
                name=f"c{i}",
                macs_per_cycle=100,
                dma_bytes_per_cycle=10.0,
                spm_bytes=1 << 20,
                channel_alignment=1,
                spatial_alignment=1,
                compute_efficiency=1.0,
            )
            for i in range(cores)
        ),
        bus_bytes_per_cycle=15.0,
        frequency_ghz=1.0,
        dram_latency_cycles=3,
    )


DMA_KINDS = [CommandKind.LOAD_INPUT, CommandKind.STORE_OUTPUT, CommandKind.LOAD_WEIGHT]


@st.composite
def random_program(draw):
    cores = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    builder = ProgramBuilder(cores)
    for i in range(n):
        core = draw(st.integers(0, cores - 1))
        kind = draw(
            st.sampled_from(
                DMA_KINDS + [CommandKind.COMPUTE, CommandKind.HALO_SEND]
            )
        )
        # dependencies only on earlier commands (the builder enforces it).
        deps = draw(
            st.lists(st.integers(0, max(0, i - 1)), max_size=3)
            if i > 0
            else st.just([])
        )
        if kind is CommandKind.COMPUTE:
            builder.add(core, kind, deps=deps, macs=draw(st.integers(0, 5000)))
        else:
            builder.add(core, kind, deps=deps, num_bytes=draw(st.integers(0, 4000)))
        if draw(st.booleans()) and i % 7 == 6:
            builder.barrier(cycles=draw(st.integers(0, 100)))
    return builder.build(), cores


@settings(max_examples=80, deadline=None)
@given(random_program())
def test_simulation_terminates_and_is_causal(prog_cores):
    program, cores = prog_cores
    npu = machine(cores)
    result = simulate(program, npu)
    trace = result.trace
    assert len(trace) == len(program)

    cids, starts, ends, cores, engines = map(
        trace.column, ("cid", "start", "end", "core", "engine")
    )
    end = dict(zip(cids, ends))
    start = dict(zip(cids, starts))
    for cmd in program.commands:
        # causality: no command starts before its dependencies end.
        for dep in cmd.deps:
            assert end[dep] <= start[cmd.cid] + 1e-6
    # engines never overlap themselves.
    spans = {}
    for core, engine, s, e in zip(cores, engines, starts, ends):
        spans.setdefault((core, engine), []).append((s, e))
    for lst in spans.values():
        lst.sort()
        for (s1, e1), (s2, e2) in zip(lst, lst[1:]):
            assert s2 >= e1 - 1e-6


@settings(max_examples=60, deadline=None)
@given(random_program())
def test_makespan_lower_bounds(prog_cores):
    """Makespan is at least every resource's serial demand."""
    program, cores = prog_cores
    npu = machine(cores)
    result = simulate(program, npu)

    # per-engine serial compute demand.
    for core in range(cores):
        demand = sum(
            compute_cycles(c.macs, npu.core(core))
            for c in program.commands
            if c.core == core and c.kind is CommandKind.COMPUTE
        )
        assert result.makespan_cycles >= demand - 1e-6

    # total bus demand.
    total_bytes = sum(c.num_bytes for c in program.commands if c.is_dma)
    assert (
        result.makespan_cycles >= total_bytes / npu.bus_bytes_per_cycle - 1e-6
    )


@settings(max_examples=40, deadline=None)
@given(random_program(), st.integers(0, 3))
def test_simulation_deterministic(prog_cores, seed):
    program, cores = prog_cores
    npu = machine(cores)
    a = simulate(program, npu, seed=seed)
    b = simulate(program, npu, seed=seed)
    assert a.makespan_cycles == b.makespan_cycles
    assert rows(a.trace) == rows(b.trace)
