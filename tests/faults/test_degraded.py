"""Degraded-mode serving: no-op guarantee, retries, shedding, determinism."""

from __future__ import annotations

import pytest

from repro.faults import CoreOffline, FaultPlan, ThermalThrottle
from repro.hw import exynos2100_like
from repro.serve import (
    LatencyPredictor,
    PolicyError,
    SchedulingPolicy,
    serve,
    serve_policies,
)

MIX = ["MobileNetV2", "InceptionV3"]
KW = dict(rps=2000.0, duration_us=5000.0, seed=0)
OFFLINE = FaultPlan(events=(CoreOffline(core=0, at_us=2500.0),))


@pytest.fixture(scope="module")
def npu():
    return exynos2100_like()


@pytest.fixture(scope="module")
def predictor(npu):
    return LatencyPredictor(npu)


@pytest.fixture(scope="module")
def degraded(npu, predictor):
    return serve(
        MIX, npu, policy="dynamic", predictor=predictor, faults=OFFLINE, **KW
    )


class TestEmptyPlanNoOp:
    def test_byte_identical_report(self, npu, predictor):
        clean = serve(MIX, npu, policy="dynamic", predictor=predictor, **KW)
        empty = serve(
            MIX, npu, policy="dynamic", predictor=predictor,
            faults=FaultPlan(), **KW
        )
        assert clean.to_json() == empty.to_json()
        assert clean.to_dict(include_requests=True) == empty.to_dict(
            include_requests=True
        )

    def test_clean_report_has_no_degraded_keys(self, npu, predictor):
        clean = serve(MIX, npu, policy="fifo", predictor=predictor, **KW)
        d = clean.to_dict(include_requests=True)
        assert "degraded" not in d and "shed_requests" not in d
        assert all("attempts" not in r for r in d["requests"])


class TestDeterminism:
    def test_same_seed_same_plan_byte_identical(self, npu, predictor, degraded):
        again = serve(
            MIX, npu, policy="dynamic", predictor=predictor, faults=OFFLINE, **KW
        )
        assert again.to_json() == degraded.to_json()
        assert again.to_dict(include_requests=True) == degraded.to_dict(
            include_requests=True
        )


class TestCoreOffline:
    def test_nothing_dropped_silently(self, npu, predictor, degraded):
        clean = serve(MIX, npu, policy="dynamic", predictor=predictor, **KW)
        assert len(degraded.results) + len(degraded.shed) == clean.num_requests

    def test_degradation_section(self, degraded):
        d = degraded.degraded
        assert d is not None
        assert d.dead_cores == (0,)
        assert d.num_failed_waves >= 1
        assert d.num_retries + d.num_shed >= 1
        assert "core0 offline" in d.faults

    def test_retried_requests_avoid_dead_core(self, degraded):
        for r in degraded.results:
            if r.attempts > 1:
                assert 0 not in r.cores

    def test_report_emits_degraded_keys(self, degraded):
        d = degraded.to_dict(include_requests=True)
        assert d["degraded"]["dead_cores"] == [0]
        assert all(r["attempts"] >= 1 for r in d["requests"])

    def test_all_cores_offline_sheds_everything(self, npu, predictor):
        plan = FaultPlan(
            events=tuple(CoreOffline(core=c, at_us=0.0) for c in range(3))
        )
        report = serve(
            MIX, npu, policy="fifo", predictor=predictor, faults=plan, **KW
        )
        assert report.results == ()
        assert report.shed
        assert all(s.reason == "no-cores" for s in report.shed)
        assert report.degraded.shed_rate == 1.0

    def test_retry_exhaustion_sheds(self, npu, predictor):
        report = serve(
            MIX, npu, policy="fifo", predictor=predictor, faults=OFFLINE,
            retry_limit=1, **KW
        )
        assert all(s.reason == "retries" for s in report.shed)
        clean = serve(MIX, npu, policy="fifo", predictor=predictor, **KW)
        assert len(report.results) + len(report.shed) == clean.num_requests


class TestShedding:
    def test_slo_shedding_is_explicit(self, npu, predictor):
        report = serve(
            MIX, npu, policy="fifo", predictor=predictor, faults=OFFLINE,
            shed_slo=True, slo_scale=1.0, rps=3000.0,
            duration_us=5000.0, seed=0,
        )
        assert report.shed, "tight SLOs under a fault should shed something"
        assert all(s.reason in ("slo", "retries") for s in report.shed)
        clean = serve(
            MIX, npu, policy="fifo", predictor=predictor,
            slo_scale=1.0, rps=3000.0, duration_us=5000.0, seed=0,
        )
        assert len(report.results) + len(report.shed) == clean.num_requests

    def test_shed_records_serialize(self, npu, predictor):
        plan = FaultPlan(
            events=tuple(CoreOffline(core=c, at_us=0.0) for c in range(3))
        )
        report = serve(
            MIX, npu, policy="fifo", predictor=predictor, faults=plan, **KW
        )
        entry = report.to_dict()["shed_requests"][0]
        assert set(entry) == {
            "rid", "model", "arrival_us", "slo_us", "shed_us", "reason"
        }


class TestFailedWaveEnd:
    def test_one_death_fails_one_wave(self, npu, predictor):
        """A wave that a core death aborts ends at that death, not at its
        last completed command: the retry wave then plans around the
        dead core instead of starting on it and failing a second time."""
        report = serve(
            MIX, npu, policy="fifo", predictor=predictor,
            faults=FaultPlan(events=(CoreOffline(core=2, at_us=1900.0),)),
            rps=2000.0, duration_us=3000.0, seed=0,
        )
        assert report.degraded.num_failed_waves == 1
        assert report.degraded.num_retries == 1
        for r in report.results:
            if r.finish_us > 1900.0:
                assert 2 not in r.cores


class TestAllDeadShedTime:
    @pytest.mark.parametrize("mode", ["gang", "continuous"])
    def test_queue_shed_at_the_death(self, npu, predictor, mode):
        """With every core dead mid-run, the queue is shed at the death
        (later arrivals on arrival), not at the finish times of the
        commands the death aborted."""
        death_us = 2000.0
        report = serve(
            MIX, npu, policy="fifo", predictor=predictor, mode=mode,
            faults=FaultPlan(
                events=tuple(CoreOffline(core=c, at_us=death_us) for c in range(3))
            ),
            rps=3000.0, duration_us=4000.0, seed=0,
        )
        assert report.shed
        for s in report.shed:
            assert s.reason == "no-cores"
            assert s.shed_us == pytest.approx(
                max(death_us, s.request.arrival_us), abs=1e-6
            )


class _WholeMachinePolicy(SchedulingPolicy):
    """Ignores ``cores``: plans every request onto the whole machine."""

    name = "whole-machine"

    def plan(self, queue, npu, predictor, cores=None):
        return [(queue[0], predictor.all_cores)]


class TestLiveCoresOnly:
    @pytest.mark.parametrize("mode", ["gang", "continuous"])
    def test_policy_planning_onto_dead_core_rejected(self, npu, predictor, mode):
        """A policy bug must surface as one, not as every request shed
        for ``"retries"`` as though the fault had caused it."""
        with pytest.raises(PolicyError, match="not free"):
            serve(
                ["MobileNetV2"], npu, policy=_WholeMachinePolicy(),
                predictor=predictor,
                faults=FaultPlan(events=(CoreOffline(core=0, at_us=1000.0),)),
                duration_us=3000.0, seed=0, mode=mode,
            )


class TestRetryParameters:
    @pytest.mark.parametrize("faults", [None, OFFLINE], ids=["clean", "offline"])
    @pytest.mark.parametrize("mode", ["gang", "continuous"])
    @pytest.mark.parametrize(
        "bad", [dict(retry_limit=0), dict(backoff_us=-5.0)], ids=["limit", "backoff"]
    )
    def test_rejected_by_serve(self, npu, predictor, faults, mode, bad):
        with pytest.raises(ValueError, match="retry_limit|backoff_us"):
            serve(
                MIX, npu, predictor=predictor, faults=faults, mode=mode,
                **bad, **KW
            )


class TestThrottling:
    def test_heat_carries_across_waves(self, npu, predictor):
        plan = FaultPlan(events=(ThermalThrottle(),))
        # Heavier backlog than KW, and the dynamic policy: packed narrow
        # core groups run compute-dense enough that heat outpaces cooling
        # and crosses the first DVFS threshold (whole-machine FIFO waves
        # spread the same work across all cores and barely warm up).
        report = serve(
            MIX, npu, policy="dynamic", predictor=predictor, faults=plan,
            rps=3000.0, duration_us=8000.0, seed=0,
        )
        assert report.degraded.throttled_fraction > 0.0
        assert report.degraded.dead_cores == ()
        # throttling slows the machine but never loses requests.
        assert not report.shed
        assert report.p99_us > 0


class TestPolicyFanout:
    def test_serve_policies_passes_faults_through(self, npu, predictor):
        reports = serve_policies(
            MIX, npu, policies=["fifo", "dynamic"], predictor=predictor,
            faults=OFFLINE, **KW
        )
        assert all(r.degraded is not None for r in reports)
        assert {r.policy for r in reports} == {"fifo", "dynamic"}
