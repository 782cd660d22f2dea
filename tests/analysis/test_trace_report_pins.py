"""Pinned trace reports: one digest per reader over a fixed set of traces.

Each pin hashes the ``repr`` of one report over 26 traces: every zoo
model under the four paper configurations at seed 0, InceptionV3
+Stratum with core 1 going offline halfway through its clean latency,
and the two-core tenant of a two-tenant :func:`repro.sim.run_concurrent`
run.  Only return values that hold no trace rows are hashed -- strings,
dicts, lists and report dataclasses -- so a change to how a trace stores
its events must keep every pin green unedited.  A failure names the
reader that moved.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, NamedTuple

import pytest

from repro.analysis import (
    critical_path,
    exposed_waits,
    profile_layers,
    render_critical_path,
    render_gantt,
    render_layer_report,
    to_chrome_trace,
)
from repro.compiler import CompileOptions, compile_cached
from repro.compiler.compiler import CompiledModel
from repro.compiler.feedback import measure_layer_imbalances
from repro.faults import CoreOffline, FaultPlan
from repro.hw import NPUConfig, exynos2100_like
from repro.models import ZOO, get_model
from repro.sim import Tenant, collect_stats, estimate_energy, run_concurrent, simulate
from repro.sim.trace import Trace

CONFIGS = (
    CompileOptions.single_core(),
    CompileOptions.base(),
    CompileOptions.halo(),
    CompileOptions.stratum_config(),
)

#: Figure 12's two-layer excerpt.
WINDOW = ("stem_conv0", "stem_conv1")


class Case(NamedTuple):
    name: str
    compiled: CompiledModel
    trace: Trace
    npu: NPUConfig


def _critical_path(case: Case):
    path = critical_path(case.compiled.program, case.trace)
    return (
        render_critical_path(case.compiled.program, case.trace, case.npu),
        path.breakdown(),
        path.layers(),
    )


READERS: Dict[str, Callable[[Case], object]] = {
    "layer_report_span": lambda c: render_layer_report(c.trace, c.npu, by="span"),
    "layer_report_compute": lambda c: render_layer_report(c.trace, c.npu, by="compute"),
    "layer_report_dma": lambda c: render_layer_report(c.trace, c.npu, by="dma"),
    "layer_report_sync": lambda c: render_layer_report(c.trace, c.npu, by="sync"),
    "profile_layers": lambda c: profile_layers(c.trace),
    "chrome_trace": lambda c: to_chrome_trace(c.trace, c.npu),
    "gantt": lambda c: render_gantt(c.trace, c.npu.num_cores),
    "gantt_window": lambda c: render_gantt(c.trace, c.npu.num_cores, layers=WINDOW),
    "exposed_waits": lambda c: exposed_waits(c.trace),
    "critical_path": _critical_path,
    "layer_imbalances": lambda c: measure_layer_imbalances(c.compiled, c.trace),
    "collect_stats": lambda c: collect_stats(c.trace, c.npu),
    "estimate_energy": lambda c: estimate_energy(c.trace, c.npu),
}

PINS = {
    "layer_report_span": "5708021aa1c3b1ae",
    "layer_report_compute": "a43d5796ec9f7c92",
    "layer_report_dma": "8035c89e1539bf04",
    "layer_report_sync": "90ce5f82410e400a",
    "profile_layers": "a3604da7b02ed6b7",
    "chrome_trace": "25e2d0655b32b846",
    "gantt": "d29fc3ca9c3258fa",
    "gantt_window": "3cc23478eae546c0",
    "exposed_waits": "dbeaf9b774ae6ede",
    "critical_path": "1145ddadd854e793",
    "layer_imbalances": "925e51dc60e2ed07",
    "collect_stats": "6634ab851f11dab0",
    "estimate_energy": "e8b98e4cefbb0e33",
}


def _build_cases() -> List[Case]:
    npu = exynos2100_like()
    cases: List[Case] = []
    for info in ZOO:
        for options in CONFIGS:
            machine = npu.single_core() if options.is_single_core else npu
            compiled = compile_cached(info.factory(), machine, options)
            trace = simulate(compiled.program, machine, seed=0).trace
            cases.append(Case(f"{info.name}/{options.label}", compiled, trace, machine))

    compiled = compile_cached(get_model("InceptionV3"), npu, CompileOptions.stratum_config())
    clean_us = simulate(compiled.program, npu, seed=0).latency_us
    plan = FaultPlan(events=(CoreOffline(core=1, at_us=clean_us / 2),))
    faulted = simulate(compiled.program, npu, seed=0, faults=plan)
    assert faulted.faults.abandoned_cids  # the offline core cut the run short
    cases.append(Case("InceptionV3/+Stratum/offline", compiled, faulted.trace, npu))

    result = run_concurrent(
        npu,
        [
            Tenant("pair", get_model("MobileNetV2"), cores=(0, 1),
                   options=CompileOptions.stratum_config()),
            Tenant("solo", get_model("InceptionV3"), cores=(2,),
                   options=CompileOptions.single_core()),
        ],
        seed=0,
    )
    pair = result.tenant("pair")
    cases.append(Case("tenants/pair", pair.compiled, pair.trace, npu))
    return cases


@pytest.fixture(scope="module")
def cases() -> List[Case]:
    return _build_cases()


def _digest(reader: Callable[[Case], object], cases: List[Case]) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(f"{case.name}\n{reader(case)!r}\n".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(READERS))
def test_trace_report_pin(cases, name):
    got = _digest(READERS[name], cases)
    assert got == PINS[name], f"trace report pin {name} moved: digest {got} != {PINS[name]}"


def test_pins_cover_every_reader():
    assert set(PINS) == set(READERS)


if __name__ == "__main__":  # print fresh pins
    built = _build_cases()
    for reader_name, reader in READERS.items():
        print(f'    "{reader_name}": "{_digest(reader, built)}",')
