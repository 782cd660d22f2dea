"""Soundness and tightness of the static latency brackets (RPR7xx).

The bracket's whole value is the *sound* claim lb <= makespan <= ub for
every seed; these tests pin it over the zoo x the four paper
configurations x three seeds -- against both the production event loop
and the retained object-based event core (``tests/sim/event_core.py``)
-- plus hypothesis-random
programs on a jitter-bearing machine, where schedule shapes the compiler
would never emit get a vote.  Tightness (sim/lb) is additionally pinned
per zoo model so the lower bound cannot silently rot into a uselessly
loose floor.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings

from repro.compiler import CompileOptions, compile_model
from repro.compiler.program import CommandKind, ProgramBuilder
from repro.hw import exynos2100_like, tiny_test_machine
from repro.models import ZOO
from repro.sim import SimSession, simulate
from repro.verify import BoundsViolation, bounds_for, compute_bounds
from repro.verify.bounds import check_bounds_pass

from tests.conftest import make_mixed_graph
from tests.sim.event_core import simulate_event_driven
from tests.sim.test_scheduler_equivalence import (
    CONFIGS,
    SEEDS,
    _jittery_machine,
    _program_for,
    random_program,
)

MODELS = [m.name for m in ZOO]


# ---- soundness: zoo x configs x seeds, both simulator cores ---------


@pytest.mark.parametrize("options", CONFIGS, ids=[o.label for o in CONFIGS])
@pytest.mark.parametrize("model", MODELS)
def test_zoo_brackets_hold(model: str, options: CompileOptions):
    program, machine = _program_for(model, options)
    report = bounds_for(program, machine)
    assert report.lower_bound_cycles <= report.upper_bound_cycles
    for seed in SEEDS:
        makespan = simulate(program, machine, seed=seed).makespan_cycles
        assert report.contains(makespan), (
            f"{model}/{options.label} seed {seed}: {makespan} outside "
            f"[{report.lower_bound_cycles}, {report.upper_bound_cycles}]"
        )
    # The bracket is a property of the semantics, not of one scheduler
    # implementation: the retained event core must satisfy it too.
    event = simulate_event_driven(program, machine, seed=0)
    assert report.contains(event.makespan_cycles)


@settings(max_examples=60, deadline=None)
@given(random_program())
def test_random_programs_bracketed(prog_cores):
    program, cores = prog_cores
    npu = _jittery_machine(cores)
    report = compute_bounds(program, npu)
    assert report.lower_bound_cycles <= report.upper_bound_cycles + 1e-9
    for seed in (0, 1, 2):
        makespan = simulate(program, npu, seed=seed, memo=None).makespan_cycles
        assert report.contains(makespan)
    event = simulate_event_driven(program, npu, seed=1)
    assert report.contains(event.makespan_cycles)


# ---- tightness regression pins (seed 0, Base) -----------------------

# Measured sim/lb at the time the bounds landed, +5% headroom.  A pin
# tripping means the lower bound got *looser* (or the scheduler got
# slower) -- either way worth a look before re-pinning.
_TIGHTNESS_PINS = {
    "InceptionV3": 1.070,
    "MobileNetV2": 1.164,
    "MobileNetV2-SSD": 1.114,
    "MobileDet-SSD": 1.112,
    "DeepLabV3+": 1.098,
    "UNet": 1.036,
}


@pytest.mark.parametrize("model", sorted(_TIGHTNESS_PINS))
def test_base_tightness_pinned(model: str):
    program, machine = _program_for(model, CompileOptions.base())
    report = bounds_for(program, machine)
    makespan = simulate(program, machine, seed=0).makespan_cycles
    assert report.tightness(makespan) <= _TIGHTNESS_PINS[model] * 1.05


def test_base_mean_tightness_within_budget():
    """Acceptance: mean Base tightness sim/lb <= 1.5 over the zoo."""
    tights = []
    for model in MODELS:
        program, machine = _program_for(model, CompileOptions.base())
        makespan = simulate(program, machine, seed=0).makespan_cycles
        tights.append(bounds_for(program, machine).tightness(makespan))
    assert sum(tights) / len(tights) <= 1.5


def test_single_core_bracket_degenerates():
    """No cross-core jitter on one core: the bracket closes to a point."""
    program, machine = _program_for("MobileNetV2", CompileOptions.single_core())
    report = bounds_for(program, machine)
    makespan = simulate(program, machine, seed=0).makespan_cycles
    assert report.tightness(makespan) == pytest.approx(1.0, abs=1e-6)


# ---- report shape ---------------------------------------------------


def test_report_attribution_and_dict():
    program, machine = _program_for("MobileNetV2", CompileOptions.base())
    report = bounds_for(program, machine)
    assert report.binding in ("compute", "bus", "sync")
    assert report.lower_bound_cycles >= report.bus_floor_cycles
    assert report.lower_bound_cycles >= report.engine_serial_cycles
    assert report.lower_bound_cycles >= report.critical_path_cycles
    # engine serial work never exceeds the critical path: engine edges
    # chain every queue, so each queue's serial sum is itself a path.
    assert report.engine_serial_cycles <= report.critical_path_cycles + 1e-6
    assert report.path_cids, "lower-bound critical path must be non-empty"
    d = report.to_dict()
    assert d["lower_bound_cycles"] == report.lower_bound_cycles
    assert d["binding"] == report.binding
    assert report.lower_bound_us == pytest.approx(
        report.lower_bound_cycles / (machine.frequency_ghz * 1000.0)
    )


def test_empty_program_bounds():
    report = compute_bounds(ProgramBuilder(2).build(), tiny_test_machine(2))
    assert report.lower_bound_cycles == 0.0
    assert report.upper_bound_cycles == 0.0
    assert report.contains(0.0)
    assert report.tightness(0.0) == 1.0


def test_bounds_for_caches_per_machine():
    program, machine = _program_for("UNet", CompileOptions.base())
    a = bounds_for(program, machine)
    assert bounds_for(program, machine) is a
    other = dataclasses.replace(machine, frequency_ghz=machine.frequency_ghz * 2)
    b = bounds_for(program, other)
    assert b is not a
    assert b.frequency_ghz != a.frequency_ghz


# ---- the bounds verifier pass (RPR701/702/710) ----------------------


@pytest.fixture(scope="module")
def compiled_mixed():
    return compile_model(
        make_mixed_graph(), tiny_test_machine(3), CompileOptions.base()
    )


def test_pass_emits_bracket_info(compiled_mixed):
    result = check_bounds_pass(compiled_mixed)
    assert result.ok
    assert [d.code for d in result.diagnostics] == ["RPR701"]
    assert result.stats["lower_bound_cycles"] <= result.stats["upper_bound_cycles"]


def test_pass_cross_checks_makespan(compiled_mixed):
    sim = simulate(compiled_mixed.program, compiled_mixed.npu, seed=0)
    result = check_bounds_pass(compiled_mixed, sim_result=sim)
    assert result.ok
    assert [d.code for d in result.diagnostics] == ["RPR701", "RPR702"]


def test_pass_flags_escaped_makespan(compiled_mixed):
    sim = simulate(compiled_mixed.program, compiled_mixed.npu, seed=0)
    impossible = dataclasses.replace(
        sim, makespan_cycles=sim.makespan_cycles * 1e6
    )
    result = check_bounds_pass(compiled_mixed, sim_result=impossible)
    assert not result.ok
    assert "RPR710" in [d.code for d in result.diagnostics]


# ---- check_bounds oracle wiring -------------------------------------


def test_simulate_check_bounds_passes(compiled_mixed):
    simulate(compiled_mixed.program, compiled_mixed.npu, check_bounds=True)


def test_simulate_check_bounds_rejects_faults(compiled_mixed):
    from repro.faults import FaultPlan, TransientStall

    plan = FaultPlan(events=(TransientStall(start_us=0.0, duration_us=5.0),))
    with pytest.raises(ValueError, match="check_bounds"):
        simulate(
            compiled_mixed.program, compiled_mixed.npu,
            faults=plan, check_bounds=True,
        )


def test_session_check_bounds_rejects_faults():
    from repro.faults import FaultPlan, TransientStall

    plan = FaultPlan(events=(TransientStall(start_us=0.0, duration_us=5.0),))
    with pytest.raises(ValueError, match="check_bounds"):
        SimSession(tiny_test_machine(2), faults=plan, check_bounds=True)


def test_session_check_bounds_event_loop_and_fast_path(compiled_mixed, monkeypatch):
    from repro.verify import bounds as bounds_mod

    program, npu = compiled_mixed.program, compiled_mixed.npu
    checked = []
    real_bounds_for = bounds_mod.bounds_for

    def counting_bounds_for(*args):
        checked.append(args)
        return real_bounds_for(*args)

    monkeypatch.setattr(bounds_mod, "bounds_for", counting_bounds_for)
    # memo=None forces the event loop through _finish...
    s = SimSession(npu, memo=None, check_bounds=True)
    s.inject(program, 0.0, seed=0)
    out = s.run_until(stop_on_completion=False)
    assert len(out) == 1
    assert len(checked) == 1
    # ...and the default memo (warmed by the simulate() calls above)
    # exercises the fast-path delivery check.
    s2 = SimSession(npu, check_bounds=True)
    s2.inject(program, 0.0, seed=0)
    out2 = s2.run_until(stop_on_completion=False)
    assert len(checked) == 2
    assert out2[0].completed_at_cycles == pytest.approx(
        out[0].completed_at_cycles
    )


def test_bounds_violation_raises_with_context():
    program = ProgramBuilder(1)
    program.add(0, CommandKind.COMPUTE, deps=[], macs=1000)
    prog = program.build()
    npu = tiny_test_machine(1)
    report = compute_bounds(prog, npu)
    with pytest.raises(BoundsViolation) as exc:
        report.assert_contains(report.upper_bound_cycles * 10 + 1.0, "ctx")
    assert "ctx" in str(exc.value)


# ---- predictor fast path --------------------------------------------


def test_predictor_bound_brackets_isolated_run():
    from repro.serve import LatencyPredictor

    predictor = LatencyPredictor(exynos2100_like())
    lb, ub = predictor.bound_us("MobileNetV2")
    assert 0.0 < lb <= ub
    measured = predictor.predicted_latency_us("MobileNetV2")
    assert lb <= measured * (1 + 1e-9)
    assert measured <= ub * (1 + 1e-9)


def test_predictor_wave_bound_brackets_wave():
    from repro.serve import LatencyPredictor

    predictor = LatencyPredictor(exynos2100_like())
    pattern = (("MobileNetV2", (0,)), ("MobileNetV2", (1, 2)))
    floor = predictor.wave_floor_us(pattern)
    assert 0.0 < floor <= predictor.wave_latency_us(pattern) * (1 + 1e-9)
