"""Serving must keep reproducing the committed benchmark artifact.

Re-runs ``benchmarks/bench_serving.py``'s exact parameters and compares
the summaries against the committed ``BENCH_serving.json``:

* the gang-scheduled run goes through an *empty* fault plan, exercising
  the no-op routing -- the regression gate for the fault-injection
  layer (adding ``repro.faults`` must not move a clean-path number);
* the continuous-mode run recomputes the pinned seed's section of the
  gang-vs-continuous comparison -- the regression gate for the
  shared-timeline serving engine;
* seed 0 of ``BENCH_faults.json`` re-serves the clean and core-failure
  runs -- the gate for degraded gang serving on fault-armed sessions;
* seed 0's least-loaded router of ``BENCH_fleet.json`` re-runs one
  fleet -- the gate for overlapping continuous sessions.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from benchmarks import bench_faults, bench_fleet
from benchmarks.bench_serving import (
    DURATION_US,
    MIX,
    RPS,
    SEED,
    RESULT_PATH,
    collect_modes,
)
from repro.analysis.faults import degradation_summary
from repro.analysis.fleet import fleet_summary
from repro.analysis.serving import serving_summary
from repro.faults import FaultPlan
from repro.hw import exynos2100_like
from repro.serve import serve_fleet, serve_policies

needs_artifact = pytest.mark.skipif(
    not pathlib.Path(RESULT_PATH).exists(),
    reason="BENCH_serving.json not generated yet",
)

#: the gang-only summary keys, unchanged since before continuous mode.
GANG_KEYS = ("policies", "dynamic_vs_fifo_makespan", "sjf_vs_fifo_p50")


@needs_artifact
def test_empty_fault_plan_reproduces_committed_benchmark():
    committed = json.loads(pathlib.Path(RESULT_PATH).read_text())
    reports = serve_policies(
        MIX,
        exynos2100_like(),
        rps=RPS,
        duration_us=DURATION_US,
        seed=SEED,
        faults=FaultPlan(),
    )
    fresh = json.loads(json.dumps(serving_summary(reports)))
    assert fresh == {k: committed[k] for k in GANG_KEYS}


@needs_artifact
def test_continuous_mode_reproduces_committed_benchmark():
    committed = json.loads(pathlib.Path(RESULT_PATH).read_text())
    gang, cont = collect_modes(exynos2100_like(), SEED)
    fresh = json.loads(json.dumps(serving_summary(gang + cont)["continuous"]))
    assert fresh == committed["continuous"][str(SEED)]


@pytest.mark.skipif(
    not bench_faults.RESULT_PATH.exists(), reason="BENCH_faults.json not generated yet"
)
def test_fault_benchmark_seed_reproduces_committed_artifact():
    committed = json.loads(bench_faults.RESULT_PATH.read_text())
    runs = bench_faults.collect(exynos2100_like(), 0)
    summary = degradation_summary(runs["faulted"], clean=runs["clean"])
    assert json.loads(json.dumps(summary)) == committed["seeds"]["0"]


@pytest.mark.skipif(
    not bench_fleet.RESULT_PATH.exists(), reason="BENCH_fleet.json not generated yet"
)
def test_fleet_benchmark_router_reproduces_committed_artifact():
    committed = json.loads(bench_fleet.RESULT_PATH.read_text())
    report = serve_fleet(
        bench_fleet.MIX, router="least-loaded", seed=0, **bench_fleet.COMMON
    )
    fresh = json.loads(json.dumps(fleet_summary([report])))
    assert fresh["routers"] == {
        "least-loaded": committed["per_seed"]["0"]["routers"]["least-loaded"]
    }
