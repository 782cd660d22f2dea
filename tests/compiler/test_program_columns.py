"""A program is its columns.

The builder makes a program from one list per command field and builds
its ``Command`` tuple only when read; ``program_from_dict`` makes one
from a command sequence and derives its columns.  Over the zoo x 4
paper configurations and the mixed graph, the two ways give equal
programs with the same fingerprint (the text the commands used to be
hashed as), plan and trace.  A sweep reads its counts from the
program's columns and its latency from the simulation result: its
records equal records taken from the derived trace with
``collect_stats``, and a Figure 11 point builds no ``Command`` and
derives no trace.  ``Program.groups()``, the verifier's grouping of
positions by (layer, core, kind), equals the grouping of the commands.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.analysis import build_grid, paper_configurations, resolve_model, run_sweep
from repro.analysis.sweep import _run_bundle
from repro.compiler import ProgramCache, compile_cached, program_from_dict, program_to_dict
from repro.hw import exynos2100_like, tiny_test_machine
from repro.models import ZOO
from repro.sim import memo, program_fingerprint, simulate
from repro.sim.simulator import _SimPlan
from repro.sim.stats import collect_stats

from tests.conftest import make_mixed_graph
from tests.sim.test_placed_plans import assert_same_plan

NPU = exynos2100_like()
MIXED_NPU = tiny_test_machine(3)
CONFIGS = {options.label: options for options in paper_configurations()}
ZOO_NAMES = [info.name for info in ZOO]
CASES = [(model, label) for model in ZOO_NAMES + ["mixed"] for label in CONFIGS]


@pytest.fixture(scope="module")
def cache():
    return ProgramCache()


def machine_for(model, label):
    npu = MIXED_NPU if model == "mixed" else NPU
    return npu.single_core() if CONFIGS[label].is_single_core else npu


def graph_of(model):
    return make_mixed_graph() if model == "mixed" else resolve_model(model)


def compiled_for(cache, model, label):
    return compile_cached(graph_of(model), machine_for(model, label), CONFIGS[label], cache=cache)


def command_text_digest(program):
    """``program_fingerprint`` as it hashed ``program.commands``."""
    payload = [
        (c.cid, c.core, c.kind.value, c.deps, c.num_bytes, c.macs, c.cycles, c.layer, c.tag)
        for c in program.commands
    ]
    return hashlib.sha256(repr((program.num_cores, payload)).encode()).hexdigest()


@pytest.mark.parametrize("model,label", CASES, ids=[f"{m}-{c}" for m, c in CASES])
def test_columns_and_commands_make_the_same_program(cache, model, label):
    machine = machine_for(model, label)
    program = compiled_for(cache, model, label).program
    rebuilt = program_from_dict(program_to_dict(program))
    assert rebuilt == program and program == rebuilt
    assert program_fingerprint(program) == program_fingerprint(rebuilt)
    assert program_fingerprint(program) == command_text_digest(program)
    assert_same_plan(_SimPlan(program, machine), _SimPlan(rebuilt, machine))
    got = simulate(program, machine, seed=5, memo=None)
    want = simulate(rebuilt, machine, seed=5, memo=None)
    assert got.makespan_cycles == want.makespan_cycles and got.trace == want.trace


@pytest.mark.parametrize("model,label", CASES, ids=[f"{m}-{c}" for m, c in CASES])
def test_groups_are_the_commands_grouped(cache, model, label):
    program = compiled_for(cache, model, label).program
    groups = program.groups()
    want = {}
    for cmd in program.commands:
        want.setdefault((cmd.layer, cmd.core, cmd.kind), []).append(cmd.cid)
    assert list(groups.items()) == list(want.items())
    assert program.groups() is groups


def trace_record(record, compiled, machine):
    """``record`` with every simulated field taken from the trace, as
    the sweep took them before it read the program's columns."""
    sim = simulate(compiled.program, machine, seed=record.seed, memo=None)
    stats = collect_stats(sim.trace, machine)
    return dataclasses.replace(
        record,
        latency_us=stats.latency_us,
        makespan_cycles=stats.makespan_cycles,
        num_commands=len(compiled.program.commands),
        num_barriers=stats.num_barriers,
        num_halo_exchanges=stats.num_halo_exchanges,
        total_transfer_bytes=stats.total_transfer_bytes,
    )


@pytest.mark.parametrize("seed", [0, 3])
def test_sweep_records_equal_trace_stats(cache, seed):
    records = run_sweep(build_grid(ZOO_NAMES, seeds=[seed]), NPU, max_workers=1, cache=cache)
    records += [
        record
        for label, options in CONFIGS.items()
        for record in _run_bundle(
            "mixed", make_mixed_graph(), options, [seed], MIXED_NPU, cache
        )
    ]
    assert len(records) == len(CASES)
    for record in records:
        machine = machine_for(record.model, record.label)
        compiled = compiled_for(cache, record.model, record.label)
        assert record == trace_record(record, compiled, machine), (record.model, record.label)


def test_a_figure_11_point_builds_nothing_it_does_not_report(command_builds, derivations):
    """At the parent, MobileNetV2 x 4 built 6,007 commands and derived
    4 traces here."""
    memo.default_memo().clear()
    cache = ProgramCache()
    records = run_sweep(build_grid(["MobileNetV2"], seeds=[0]), NPU, max_workers=1, cache=cache)
    assert len(records) == 4 and not any(r.cache_hit for r in records)
    assert command_builds == [] and derivations == []

    # The spies are live: reading what the sweep did not read builds it.
    compiled = compiled_for(cache, "MobileNetV2", "Base")
    assert len(compiled.program.commands) == len(command_builds) > 0
    simulate(compiled.program, NPU, seed=0, memo=None).trace.column("start")
    assert len(derivations) == 1
