"""Serving derives no trace: it reads each injection's reported span and
busy cycles, so no request's trace columns are ever built.  Nor does a
faulted one-shot ``simulate`` that abandoned commands, for its makespan.
Nor does serving build a placed program's commands, or any program's:
it runs each one from its plan, and the bounds read columns.

A spy (``derivations``, in ``tests/conftest.py``) counts calls of
:func:`repro.sim.simulator._finished_columns`, the one place deferred
trace columns are derived, wherever it was imported by name.  Others
record each placed command list built (``placed_builds``) and count
``Command`` constructions (``command_builds``).
"""

from __future__ import annotations

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.compiler.cache import ProgramCache
from repro.faults import CoreOffline, FaultPlan, ThermalThrottle, random_stalls
from repro.hw import exynos2100_like
from repro.models import inception_v3_stem
from repro.serve import serve
from repro.sim import SimSession, memo, place_program, simulate

MIX = ["MobileNetV2", "InceptionV3"]
DURATION_US = 4000.0


@pytest.fixture(scope="module")
def cache():
    return ProgramCache()


def perfbench_style_plan(npu):
    """Throttling on every core, one core dying mid-stream, bus stalls."""
    return FaultPlan(
        events=(ThermalThrottle(), CoreOffline(core=1, at_us=DURATION_US / 2))
        + random_stalls(3, DURATION_US, mean_gap_us=DURATION_US / 4, mean_duration_us=200.0),
        seed=11,
    )


def test_spy_sees_a_derivation(derivations):
    """The spy is live: reading a trace derives its columns once."""
    npu = exynos2100_like()
    program = compile_model(inception_v3_stem(), npu, CompileOptions.base()).program
    session = SimSession(npu, memo=None)
    session.inject(program, at_us=0.0)
    (out,) = session.run_until()
    assert not derivations
    out.trace.column("start")
    assert len(derivations) == 1


def test_failed_one_shot_derives_no_trace(derivations):
    npu = exynos2100_like()
    program = compile_model(inception_v3_stem(), npu, CompileOptions.base()).program
    plan = FaultPlan(events=(CoreOffline(core=2, at_us=5.0),))
    result = simulate(program, npu, faults=plan, memo=None)
    assert result.faults.abandoned_cids and not derivations
    assert result.makespan_cycles == result.trace.makespan
    assert len(derivations) == 1


@pytest.mark.parametrize("mode", ["gang", "continuous"])
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
def test_serve_derives_no_trace(derivations, cache, mode, faulted):
    npu = exynos2100_like()
    memo.default_memo().clear()
    report = serve(
        MIX,
        npu,
        policy="dynamic",
        rps=3000.0,
        duration_us=DURATION_US,
        seed=0,
        cache=cache,
        faults=perfbench_style_plan(npu) if faulted else None,
        mode=mode,
    )
    assert report.num_requests > 0
    assert derivations == []


def test_spy_sees_a_placed_build(placed_builds):
    npu = exynos2100_like()
    program = compile_model(inception_v3_stem(), npu, CompileOptions.base()).program
    placed = place_program(program, (2, 0, 1), npu.num_cores)
    simulate(placed, npu, memo=None)
    assert not placed_builds
    assert len(placed.commands) == len(program)
    assert placed_builds == [placed]


@pytest.mark.parametrize("mode", ["gang", "continuous"])
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
def test_serve_builds_no_placed_commands(placed_builds, command_builds, cache, mode, faulted):
    npu = exynos2100_like()
    memo.default_memo().clear()
    report = serve(
        MIX,
        npu,
        policy="dynamic",
        rps=3000.0,
        duration_us=DURATION_US,
        seed=0,
        cache=cache,
        faults=perfbench_style_plan(npu) if faulted else None,
        mode=mode,
    )
    assert report.num_requests > 0
    assert placed_builds == [] and command_builds == []
