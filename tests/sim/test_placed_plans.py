"""A placed program's scheduling plan equals one built from scratch.

``place_program`` renames cores and nothing else, so the plan the
simulator uses for a placed program must order, price and index every
command exactly as a :class:`_SimPlan` built directly from the placed
command list.  Cache slots are compared through their accessors
(``delays_for`` and ``queue_successors``) instead of their contents.
"""

import itertools

import numpy as np
import pytest

from repro.compiler import CompileOptions, compile_model
from repro.hw import exynos2100_like
from repro.serve import LatencyPredictor
from repro.sim import place_program, simulate, sub_machine
from repro.sim.memo import SimMemo
from repro.sim.simulator import _plan_for, _SimPlan

from tests.conftest import make_chain_graph

NPU = exynos2100_like()

#: every non-empty core group of the heterogeneous three-core machine
GROUPS = [
    group
    for size in range(1, NPU.num_cores + 1)
    for group in itertools.combinations(range(NPU.num_cores), size)
]

#: slots that cache derived state; compared through their accessors
CACHE_SLOTS = ("bounds", "_delay_cache", "_next_q")


def assert_same_plan(plan: _SimPlan, fresh: _SimPlan) -> None:
    for slot in _SimPlan.__slots__:
        if slot in CACHE_SLOTS:
            continue
        got, want = getattr(plan, slot), getattr(fresh, slot)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), slot
            assert got.dtype == want.dtype, slot
            assert np.array_equal(got, want), slot
        else:
            assert got == want, slot
    for seed in (0, 7):
        for cid_base in (0, 5000):
            assert plan.delays_for(seed, cid_base) == fresh.delays_for(seed, cid_base)
    assert plan.queue_successors() == fresh.queue_successors()


@pytest.fixture(scope="module")
def predictor():
    return LatencyPredictor(NPU, memo=SimMemo())


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: "g" + "-".join(map(str, g)))
@pytest.mark.parametrize("model", ["stem", "MobileNetV2", "InceptionV3"])
def test_placed_plan_matches_fresh_plan(predictor, model, group):
    predictor.predicted_latency_us(model, group)
    placed = predictor.placed_for(model, group)
    assert_same_plan(_plan_for(placed, NPU), _SimPlan(placed, NPU))


def test_source_never_simulated():
    cores = (2, 0)
    source = compile_model(
        make_chain_graph(), sub_machine(NPU, cores, "fresh"), CompileOptions.base()
    ).program
    assert not getattr(source, "_sim_plans", None)
    placed = place_program(source, cores, NPU.num_cores)
    assert_same_plan(_plan_for(placed, NPU), _SimPlan(placed, NPU))


def test_core_map_longer_than_program():
    compile_machine = sub_machine(NPU, (1,), "one")
    source = compile_model(
        make_chain_graph(), compile_machine, CompileOptions.single_core()
    ).program
    simulate(source, compile_machine, memo=None)
    placed = place_program(source, (1, 0, 2), NPU.num_cores)
    assert placed.num_cores == NPU.num_cores
    assert_same_plan(_plan_for(placed, NPU), _SimPlan(placed, NPU))
