"""A plan builds its readiness rows only when a trace is read.

The rows trace derivation reduces over (``_SimPlan.readiness``) serve
nothing but the ``own_ready`` and ``dep_ready`` columns, so neither a
Figure 11 sweep, which reads latencies from results and counts from
columns, nor continuous serving, which reads each injection's span and
busy cycles, may build them.  The first trace read builds them once for
its plan, and later reads of that plan's traces reuse them.
"""

from __future__ import annotations

import pytest

from repro.analysis import build_grid, run_sweep
from repro.compiler import CompileOptions, ProgramCache, compile_model
from repro.hw import exynos2100_like
from repro.models import inception_v3_stem
from repro.serve import serve
from repro.sim import memo, simulate
from repro.sim.simulator import _SimPlan

NPU = exynos2100_like()


@pytest.fixture
def readiness_builds(monkeypatch):
    """The plans whose readiness rows were built while the test runs."""
    built = []
    original = _SimPlan.readiness

    def spy(plan):
        if plan._readiness is None:
            built.append(plan)
        return original(plan)

    monkeypatch.setattr(_SimPlan, "readiness", spy)
    return built


def test_sweep_builds_no_rows(readiness_builds):
    memo.default_memo().clear()
    records = run_sweep(
        build_grid(["MobileNetV2"], seeds=[0]), NPU, max_workers=1, cache=ProgramCache()
    )
    assert len(records) == 4
    assert readiness_builds == []


def test_continuous_serving_builds_no_rows(readiness_builds):
    memo.default_memo().clear()
    report = serve(
        ["InceptionV3", "MobileNetV2"],
        NPU,
        policy="dynamic",
        mode="continuous",
        rps=3000.0,
        duration_us=4000.0,
        seed=0,
        cache=ProgramCache(),
    )
    assert report.num_requests > 0
    assert readiness_builds == []


def test_first_trace_read_builds_rows_once(readiness_builds):
    program = compile_model(inception_v3_stem(), NPU, CompileOptions.base()).program
    first = simulate(program, NPU, seed=0, memo=None)
    assert readiness_builds == []
    first.trace.column("own_ready")
    assert len(readiness_builds) == 1
    simulate(program, NPU, seed=1, memo=None).trace.column("own_ready")
    assert len(readiness_builds) == 1
