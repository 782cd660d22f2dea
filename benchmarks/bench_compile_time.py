"""Compiler throughput: wall time of each pipeline stage on InceptionV3.

Not a paper figure, but the number a user of the library cares about:
compiling the largest zoo model end-to-end takes well under a second.
These use real multi-round pytest-benchmark measurements.
"""

from __future__ import annotations

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.models import get_model
from repro.partition import partition_graph
from repro.schedule import build_strata, schedule_layers
from repro.sim import simulate


@pytest.fixture(scope="module")
def graph():
    return get_model("InceptionV3")


def test_partition_stage(benchmark, npu, graph):
    benchmark(partition_graph, graph, npu)


def test_schedule_stage(benchmark, npu, graph):
    gp = partition_graph(graph, npu)
    benchmark(schedule_layers, graph, gp)


def test_stratum_stage(benchmark, npu, graph):
    gp = partition_graph(graph, npu)
    sched = schedule_layers(graph, gp)
    benchmark(build_strata, graph, gp, sched, npu)


def test_full_compile(benchmark, npu, graph):
    compiled = benchmark(compile_model, graph, npu, CompileOptions.stratum_config())
    assert len(compiled.program) > 0


def test_simulation(benchmark, npu, graph):
    compiled = compile_model(graph, npu, CompileOptions.stratum_config())
    result = benchmark(simulate, compiled.program, npu)
    assert result.makespan_cycles > 0
