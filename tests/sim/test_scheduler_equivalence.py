"""The event-driven scheduler is bit-identical to the reference scheduler.

:mod:`repro.sim.simulator` promises the exact same events -- all twelve
trace columns of every event, in event order -- as the retained
queue-scanning reference in :mod:`tests.sim.reference_scheduler` for
equal seeds, not just equal makespans.  These tests pin that down across the full model zoo, the
four paper configurations, three seeds, and hypothesis-generated random
programs on a jitter-bearing machine.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import CompileOptions, compile_cached
from repro.compiler.program import CommandKind, ProgramBuilder
from repro.hw import CoreConfig, NPUConfig, exynos2100_like
from repro.models import ZOO
from repro.sim import simulate

from tests.sim.reference_scheduler import simulate_reference
from tests.sim.trace_rows import rows

SEEDS = (0, 1, 2)
CONFIGS = (
    CompileOptions.single_core(),
    CompileOptions.base(),
    CompileOptions.halo(),
    CompileOptions.stratum_config(),
)

_compiled: Dict[Tuple[str, str], Tuple[object, NPUConfig]] = {}


def _program_for(model_name: str, options: CompileOptions):
    """Compile one (model, configuration) once per test session."""
    key = (model_name, options.label)
    if key not in _compiled:
        npu = exynos2100_like()
        machine = npu.single_core() if options.is_single_core else npu
        info = next(m for m in ZOO if m.name == model_name)
        compiled = compile_cached(info.factory(), machine, options)
        _compiled[key] = (compiled.program, machine)
    return _compiled[key]


def assert_traces_identical(a, b) -> None:
    """Event-by-event equality, with a readable diff on mismatch."""
    assert a.makespan_cycles == b.makespan_cycles
    a_rows, b_rows = rows(a.trace), rows(b.trace)
    assert len(a_rows) == len(b_rows)
    for x, y in zip(a_rows, b_rows):
        assert x == y, f"trace diverges at cid={x.cid}: {x} != {y}"


@pytest.mark.parametrize("options", CONFIGS, ids=[o.label for o in CONFIGS])
@pytest.mark.parametrize("model", [m.name for m in ZOO])
def test_zoo_traces_bit_identical(model: str, options: CompileOptions):
    program, machine = _program_for(model, options)
    for seed in SEEDS:
        fast = simulate(program, machine, seed=seed)
        reference = simulate_reference(program, machine, seed=seed)
        assert_traces_identical(fast, reference)


def _jittery_machine(cores: int) -> NPUConfig:
    """Small machine with both jitter sources live, so seeds matter."""
    return NPUConfig(
        name="equiv",
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
        sync_jitter_cycles=50,
        halo_jitter_cycles=25,
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


@settings(max_examples=60, deadline=None)
@given(random_program(), st.integers(0, 3))
def test_random_programs_bit_identical(prog_cores, seed):
    program, cores = prog_cores
    npu = _jittery_machine(cores)
    fast = simulate(program, npu, seed=seed)
    reference = simulate_reference(program, npu, seed=seed)
    assert_traces_identical(fast, reference)


def test_different_seeds_differ_under_jitter():
    """Sanity: the jitter path is actually live on the equivalence machine.

    Build a program with a barrier (the jittered kind) and check two
    seeds do not collapse to the same makespan -- otherwise the
    seed-parametrized equivalence above would be vacuous.
    """
    builder = ProgramBuilder(2)
    for core in (0, 1):
        builder.add(core, CommandKind.COMPUTE, deps=[], macs=5000)
    barrier_cids = builder.barrier(cycles=10)
    for core in (0, 1):
        builder.add(core, CommandKind.COMPUTE, deps=list(barrier_cids), macs=5000)
    program = builder.build()
    npu = _jittery_machine(2)
    makespans = {simulate(program, npu, seed=s).makespan_cycles for s in range(8)}
    assert len(makespans) > 1


def test_plan_cache_reuse_is_safe():
    """Repeat simulations of one program reuse the cached plan and still
    match a fresh reference run each time."""
    npu = _jittery_machine(2)
    builder = ProgramBuilder(2)
    prev: List[int] = []
    for i in range(6):
        cid = builder.add(
            i % 2, CommandKind.LOAD_INPUT, deps=prev[-2:], num_bytes=1000 + i
        )
        prev.append(cid)
        cid = builder.add(i % 2, CommandKind.COMPUTE, deps=[prev[-1]], macs=3000)
        prev.append(cid)
    program = builder.build()
    for seed in (0, 1, 0, 2, 1):
        assert_traces_identical(
            simulate(program, npu, seed=seed),
            simulate_reference(program, npu, seed=seed),
        )
