"""Pinned concurrent runs: waves, back-to-back frames, and tenants.

Each pin hashes the exact floats a run produced, so any change to how
programs are run together -- placement, command numbering, jitter
seeding, the order the event loop sees them in -- fails the pin of the
case that moved, by name:

* every wave of MobileNetV2 and the InceptionV3 stem over five core
  splits of the 3-core ``exynos2100_like`` machine and three seeds
  (66 waves): each command's (start, end), in slot-then-cid order;
* :func:`~repro.sim.throughput.measure_throughput` makespans for two
  and three frames of two zoo programs;
* the :func:`~repro.sim.multitenant.run_concurrent` tenant spans of
  both scenarios of ``examples/multi_tenant.py``.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.compiler import CompileOptions
from repro.hw import exynos2100_like, homogeneous
from repro.models import get_model
from repro.serve import LatencyPredictor
from repro.sim import SimSession, Tenant, inject_wave, measure_throughput, run_concurrent

#: core splits of the 3-core machine, one core group per wave slot.
SPLITS = {
    "0|1|2": ((0,), (1,), (2,)),
    "01|2": ((0, 1), (2,)),
    "0|12": ((0,), (1, 2)),
    "012": ((0, 1, 2),),
    "2|01": ((2,), (0, 1)),
}
SEEDS = (0, 7, 123)

WAVE_PINS = {
    "0|1|2": "d2745135a71718cc",
    "01|2": "150a61600da4493e",
    "0|12": "98842e34043e58b4",
    "012": "6b5e0229add510e0",
    "2|01": "50143fadbaea51c8",
}
THROUGHPUT_PINS = {
    ("MobileNetV2", 2): "a9925bdcd6c842d7",
    ("MobileNetV2", 3): "92e134b9cfec46c2",
    ("InceptionV3", 2): "2a9e1693bed4ec0a",
    ("InceptionV3", 3): "0530e89f643b1cfb",
}
TENANT_PINS = {"camera": "8edbd1788ebcad53", "oversubscribed": "c5feef79e1dc2d86"}


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def predictor():
    return LatencyPredictor(exynos2100_like(), memo=None)


def wave_rows(predictor, pattern, seed):
    """(start, end) cycles of every command of one wave, slot then cid."""
    programs = [predictor.placed_for(model, cores) for model, cores in pattern]
    session = SimSession(predictor.npu, memo=None)
    inject_wave(session, programs, at_us=0.0, seed=seed, metas=range(len(programs)))
    outcomes = sorted(session.run_until(stop_on_completion=False), key=lambda o: o.meta)
    rows = []
    for program, out in zip(programs, outcomes):
        trace = out.trace
        events = sorted(zip(trace.column("cid"), trace.column("start"), trace.column("end")))
        assert [cid for cid, _, _ in events] == list(range(len(program.commands)))
        rows.extend((start, end) for _, start, end in events)
    return rows


@pytest.mark.parametrize("split", sorted(SPLITS))
def test_wave_pin(predictor, split):
    groups = SPLITS[split]
    rows = []
    for models in itertools.product(("MobileNetV2", "stem"), repeat=len(groups)):
        pattern = tuple(zip(models, groups))
        for seed in SEEDS:
            rows.append((pattern, seed, wave_rows(predictor, pattern, seed)))
    got = _digest(rows)
    assert got == WAVE_PINS[split], f"wave pin {split} moved: {got}"


@pytest.mark.parametrize("model,frames", sorted(THROUGHPUT_PINS))
def test_throughput_pin(predictor, model, frames):
    program = predictor.compiled_for(model).program
    makespans = [
        measure_throughput(program, predictor.npu, frames=frames, seed=seed).makespan_us
        for seed in (0, 7)
    ]
    got = _digest(makespans)
    assert got == THROUGHPUT_PINS[(model, frames)], (
        f"throughput pin {model}x{frames} moved: {got}"
    )


def _scenarios():
    """The two runs of ``examples/multi_tenant.py``."""
    fat = homogeneous(
        4, dma_bytes_per_cycle=20.0, bus_bytes_per_cycle=40.0,
        macs_per_cycle=4096, spm_bytes=2 << 20,
    )
    stratum = CompileOptions.stratum_config()
    return {
        "camera": (
            exynos2100_like(),
            [
                Tenant("detector", get_model("MobileNetV2-SSD"), (0, 1), stratum),
                Tenant("classifier", get_model("MobileNetV2"), (2,),
                       CompileOptions.single_core()),
            ],
        ),
        "oversubscribed": (
            fat,
            [
                Tenant("net-a", get_model("MobileNetV2"), (0, 1), stratum),
                Tenant("net-b", get_model("MobileNetV2"), (2, 3), stratum),
            ],
        ),
    }


@pytest.mark.parametrize("scenario", sorted(TENANT_PINS))
def test_tenant_pin(scenario):
    npu, tenants = _scenarios()[scenario]
    result = run_concurrent(npu, tenants)
    spans = [
        (t.name, t.start_us, t.latency_us, t.completion_us, t.isolated_latency_us)
        for t in result.tenants
    ]
    got = _digest((spans, result.makespan_us))
    assert got == TENANT_PINS[scenario], f"tenant pin {scenario} moved: {got}"

