"""A placed program runs on its source's scheduling plan.

``place_program`` renames cores injectively and nothing else, so the
source's plan on the group machine -- the full machine restricted to
the group's cores -- orders, prices and indexes every command exactly
as a :class:`_SimPlan` built directly from the placed program would.
The simulator therefore keeps one plan per compiled program and
machine: a placed program's plan *is* its source's, and so is its
bracket.  Against a plan built from scratch for the placed program,
the shared plan matches slot by slot, its columns once their cores are
mapped through the core map; cache slots are compared through their
accessors (``delays_for``, ``queue_successors`` and ``readiness``)
instead of their contents.
"""

import dataclasses
import itertools
from typing import Optional, Sequence

import numpy as np
import pytest

from repro.compiler import CompileOptions, compile_model
from repro.hw import exynos2100_like
from repro.serve import LatencyPredictor
from repro.sim import place_program, simulate, sub_machine
from repro.sim.memo import SimMemo
from repro.sim.simulator import _plan_for, _SimPlan
from repro.verify.bounds import bounds_for

from tests.conftest import make_chain_graph

NPU = exynos2100_like()

#: every non-empty core group of the heterogeneous three-core machine
GROUPS = [
    group
    for size in range(1, NPU.num_cores + 1)
    for group in itertools.combinations(range(NPU.num_cores), size)
]
MODELS = ["stem", "MobileNetV2", "InceptionV3"]

#: slots that cache derived state; compared through their accessors
CACHE_SLOTS = ("bounds", "_delay_cache", "_next_q", "_readiness")


def assert_same_plan(
    plan: _SimPlan, fresh: _SimPlan, cores: Optional[Sequence[int]] = None
) -> None:
    """``plan`` equals ``fresh`` slot by slot; ``cores`` maps the cores
    ``plan``'s columns name to those of ``fresh``'s."""
    for slot in _SimPlan.__slots__:
        if slot in CACHE_SLOTS:
            continue
        got, want = getattr(plan, slot), getattr(fresh, slot)
        if slot == "columns" and cores is not None:
            got = got._replace(core=[cores[c] for c in got.core])
        assert got == want, slot
    got_rows, want_rows = plan.readiness(), fresh.readiness()
    assert len(got_rows) == len(want_rows) == 6
    for got, want in zip(got_rows, want_rows):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for seed in (0, 7):
        for cid_base in (0, 5000):
            assert plan.delays_for(seed, cid_base) == fresh.delays_for(seed, cid_base)
    assert plan.queue_successors() == fresh.queue_successors()


def group_machine(cores):
    """The full machine restricted to ``cores``, named as the full one."""
    return dataclasses.replace(NPU, cores=tuple(NPU.cores[c] for c in cores))


@pytest.fixture(scope="module")
def predictor():
    return LatencyPredictor(NPU, memo=SimMemo())


group_ids = pytest.mark.parametrize("group", GROUPS, ids=lambda g: "g" + "-".join(map(str, g)))


@group_ids
@pytest.mark.parametrize("model", MODELS)
def test_placed_program_runs_on_its_source_plan(predictor, model, group):
    predictor.predicted_latency_us(model, group)
    placed = predictor.placed_for(model, group)
    source = predictor.compiled_for(model, group).program
    machine = predictor.machine_for(group)
    assert _plan_for(placed, NPU) is _plan_for(source, machine)
    assert bounds_for(placed, NPU) is bounds_for(source, machine)


@group_ids
@pytest.mark.parametrize("model", MODELS)
def test_placed_plan_matches_fresh_plan(predictor, model, group):
    predictor.predicted_latency_us(model, group)
    placed = predictor.placed_for(model, group)
    assert_same_plan(_plan_for(placed, NPU), _SimPlan(placed, NPU), cores=group)


def test_source_never_simulated():
    cores = (2, 0)
    source = compile_model(
        make_chain_graph(), sub_machine(NPU, cores, "fresh"), CompileOptions.base()
    ).program
    assert not getattr(source, "_sim_plans", None)
    placed = place_program(source, cores, NPU.num_cores)
    plan = _plan_for(placed, NPU)
    assert plan is _plan_for(source, group_machine(cores))
    assert bounds_for(placed, NPU) is bounds_for(source, group_machine(cores))
    assert_same_plan(plan, _SimPlan(placed, NPU), cores=cores)


def test_core_map_longer_than_program():
    compile_machine = sub_machine(NPU, (1,), "one")
    source = compile_model(
        make_chain_graph(), compile_machine, CompileOptions.single_core()
    ).program
    simulate(source, compile_machine, memo=None)
    placed = place_program(source, (1, 0, 2), NPU.num_cores)
    assert placed.num_cores == NPU.num_cores
    plan = _plan_for(placed, NPU)
    assert plan is _plan_for(source, compile_machine)
    assert bounds_for(placed, NPU) is bounds_for(source, compile_machine)
    assert_same_plan(plan, _SimPlan(placed, NPU), cores=(1, 0, 2))
