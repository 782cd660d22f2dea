"""Pinned serving reports: one digest per (mode, scenario).

Each pin hashes a report's full ``to_dict(include_requests=True)`` --
every served request's start/finish/cores/wave/attempts, every shed
record, the degradation section -- plus, in continuous mode, the
admission trace (``continuous.to_dict(include_admissions=True)``).  Any
change to the serving loop that moves a single float of any of those
fails the pin of the scenario that produced it, by name.

The matrix covers both admission modes under a clean run, a core dying
mid-run, the perfbench ``faulted`` plan shape (throttling, bus stalls
and a core death), every core dead at t=0, and SLO shedding with a
retry limit of one; plus one fleet run per mode with a device killed
mid-run.  Streams are short so the whole file stays fast.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults import CoreOffline, FaultPlan, ThermalThrottle, random_stalls
from repro.hw import exynos2100_like
from repro.serve import LatencyPredictor, ServeReport, serve, serve_fleet

MIX = ["MobileNetV2", "InceptionV3"]
RPS = 3000.0
DURATION_US = 4000.0
KW = dict(rps=RPS, duration_us=DURATION_US, seed=0, policy="dynamic")

_MID = DURATION_US / 2
OFFLINE = FaultPlan(events=(CoreOffline(core=0, at_us=_MID),))
SCENARIOS = {
    "clean": {},
    "offline": dict(faults=OFFLINE),
    "faulted": dict(
        faults=FaultPlan(
            events=(ThermalThrottle(), CoreOffline(core=1, at_us=_MID))
            + random_stalls(
                7, DURATION_US, mean_gap_us=DURATION_US / 4, mean_duration_us=200.0
            ),
            seed=3,
        )
    ),
    "all-dead": dict(
        faults=FaultPlan(
            events=tuple(CoreOffline(core=c, at_us=0.0) for c in range(3))
        )
    ),
    "shed-slo": dict(faults=OFFLINE, shed_slo=True, slo_scale=1.0, retry_limit=1),
}

PINS = {
    ("gang", "clean"): "7f8bac9f596185f5",
    ("gang", "offline"): "af948d80275c5a42",
    ("gang", "faulted"): "3ce7576e0d4c2206",
    ("gang", "all-dead"): "a1d0a9b89e05f09a",
    ("gang", "shed-slo"): "cb2ce03a4e477ebf",
    ("continuous", "clean"): "2bbcc8063932e067",
    ("continuous", "offline"): "0e0669f48835fdfa",
    ("continuous", "faulted"): "7a4fdc3706806200",
    ("continuous", "all-dead"): "a5608f497fb902b5",
    ("continuous", "shed-slo"): "3bd0197e549efec7",
    ("gang", "fleet-kill"): "470073a182f96716",
    ("continuous", "fleet-kill"): "5e1e496830c46c6f",
}


def _report_dict(report: ServeReport) -> dict:
    d = report.to_dict(include_requests=True)
    if report.continuous is not None:
        d["continuous"] = report.continuous.to_dict(include_admissions=True)
    return d


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check(mode: str, scenario: str, payload) -> None:
    got = _digest(payload)
    want = PINS[(mode, scenario)]
    assert got == want, (
        f"serving pin {mode}/{scenario} moved: digest {got} != {want}"
    )


@pytest.fixture(scope="module")
def predictor():
    return LatencyPredictor(exynos2100_like())


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("mode", ["gang", "continuous"])
def test_serve_pin(predictor, mode, scenario):
    report = serve(
        MIX,
        predictor.npu,
        predictor=predictor,
        mode=mode,
        **{**KW, **SCENARIOS[scenario]},
    )
    _check(mode, scenario, _report_dict(report))


@pytest.mark.parametrize("mode", ["gang", "continuous"])
def test_fleet_kill_pin(mode):
    fleet = serve_fleet(
        ["MobileNetV2"],
        machines=2,
        machine="exynos2100",
        router="round-robin",
        policy="dynamic",
        mode=mode,
        rps=RPS,
        duration_us=DURATION_US,
        seed=0,
        kills={1: _MID},
    )
    assert fleet.conserved
    payload = {
        "fleet": fleet.to_dict(include_trace=True),
        "devices": [_report_dict(d.report) for d in fleet.devices],
    }
    _check(mode, "fleet-kill", payload)
