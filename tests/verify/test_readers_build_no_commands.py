"""The verifier, serialization and the critical-path report read columns.

A program is its columns, and every reader of a program in the package
reads a command by its position through them, ``Program.groups()`` and
``Program.engine_queues()``.  A spy counts ``Command`` constructions
while every pass, the trace cross-check, the critical-path report and a
JSON round trip run over MobileNetV2 and the mixed graph under each
paper configuration: none is built.
"""

from __future__ import annotations

import pytest

from repro.analysis import paper_configurations, resolve_model
from repro.analysis.critical_path import critical_path, render_critical_path
from repro.compiler import ProgramCache, compile_cached, program_from_dict, program_to_dict
from repro.hw import exynos2100_like, tiny_test_machine
from repro.sim import simulate
from repro.verify import ALL_PASS_NAMES, check_trace, verify_model

from tests.conftest import make_mixed_graph

CONFIGS = {options.label: options for options in paper_configurations()}
CASES = [(model, label) for model in ("MobileNetV2", "mixed") for label in CONFIGS]


@pytest.fixture(scope="module")
def cache():
    return ProgramCache()


def compiled_for(cache, model, label):
    if model == "mixed":
        graph, npu = make_mixed_graph(), tiny_test_machine(3)
    else:
        graph, npu = resolve_model(model), exynos2100_like()
    options = CONFIGS[label]
    machine = npu.single_core() if options.is_single_core else npu
    return compile_cached(graph, machine, options, cache=cache)


@pytest.mark.parametrize("model,label", CASES, ids=[f"{m}-{c}" for m, c in CASES])
def test_readers_build_no_command(cache, command_builds, model, label):
    compiled = compiled_for(cache, model, label)
    program, machine = compiled.program, compiled.npu
    result = simulate(program, machine, seed=0, memo=None)

    report = verify_model(compiled, passes=ALL_PASS_NAMES, sim_result=result)
    assert [p.name for p in report.passes] == list(ALL_PASS_NAMES)
    assert report.ok
    assert check_trace(program, result.trace).ok
    path = critical_path(program, result.trace)
    assert path.segments and path.makespan_cycles == result.makespan_cycles
    assert render_critical_path(program, result.trace, machine)
    rebuilt = program_from_dict(program_to_dict(program))
    assert rebuilt == program
    assert command_builds == []

    # The spy is live: reading the commands builds them, from the columns.
    assert len(rebuilt.commands) == len(command_builds) == len(program)
