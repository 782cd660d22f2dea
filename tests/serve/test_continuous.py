"""Continuous (backfill) serving: improvement over gang, work
conservation, faults.

Same parameters, policies and seed as the committed benchmark
(``tests/serve/test_bench_regression.py``); the report-level pins of
both modes live in ``tests/serve/test_serving_pins.py``.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_serving import DURATION_US, MIX, RPS, SEED
from repro.faults import CoreOffline, FaultPlan
from repro.hw import exynos2100_like
from repro.serve import (
    LatencyPredictor,
    PolicyError,
    SchedulingPolicy,
    serve,
)
from repro.verify import check_structure

POLICIES = ("fifo", "sjf", "dynamic")
KW = dict(rps=RPS, duration_us=DURATION_US, seed=SEED)
OFFLINE = FaultPlan(events=(CoreOffline(core=0, at_us=4000.0),))


@pytest.fixture(scope="module")
def npu():
    return exynos2100_like()


@pytest.fixture(scope="module")
def predictor(npu):
    return LatencyPredictor(npu)


@pytest.fixture(scope="module")
def gang(npu, predictor):
    return {
        p: serve(MIX, npu, policy=p, predictor=predictor, **KW)
        for p in POLICIES
    }


@pytest.fixture(scope="module")
def continuous(npu, predictor):
    return {
        p: serve(MIX, npu, policy=p, predictor=predictor, mode="continuous", **KW)
        for p in POLICIES
    }


class TestStrictImprovement:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_makespan_and_queueing(self, gang, continuous, policy):
        g, c = gang[policy], continuous[policy]
        assert c.makespan_us < g.makespan_us
        assert c.mean_queue_us < g.mean_queue_us
        assert c.num_requests == g.num_requests


class TestWorkConservation:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_policy_stall(self, continuous, policy):
        stats = continuous[policy].continuous
        assert stats is not None
        assert stats.policy_stall_us == 0.0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_admission_trace_shows_no_idle_with_queued_work(
        self, continuous, policy
    ):
        """Independent check from the admission trace itself: whenever a
        core group had sat free for a while before an admission, no
        request can have been queued during that idle gap."""
        report = continuous[policy]
        waits = [
            (r.request.arrival_us, r.start_us)
            for r in report.results
            if r.start_us > r.request.arrival_us + 1e-6
        ]
        for a in report.continuous.admissions:
            if a.backfill_us <= 1e-6:
                continue
            gap_start, gap_end = a.t_us - a.backfill_us, a.t_us
            for arrival, start in waits:
                overlap = min(gap_end, start) - max(gap_start, arrival)
                assert overlap <= 1e-6, (
                    f"{policy}: cores {a.cores} idled in "
                    f"[{gap_start:.1f}, {gap_end:.1f}]us while a request "
                    f"queued from {arrival:.1f} to {start:.1f}us"
                )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_admission_records_are_consistent(self, continuous, policy):
        report = continuous[policy]
        stats = report.continuous
        assert stats.num_admissions == len(stats.admissions) == report.num_waves
        rids = [a.rid for a in stats.admissions]
        assert sorted(rids) == sorted(r.request.rid for r in report.results)
        for a in stats.admissions:
            assert a.cores and set(a.cores) <= set(a.free_cores)
            assert a.queue_len >= 1
            assert a.backfill_us >= 0.0


class TestDeterminism:
    def test_same_inputs_byte_identical(self, npu, predictor, continuous):
        again = serve(
            MIX, npu, policy="sjf", predictor=predictor, mode="continuous", **KW
        )
        assert again.to_json() == continuous["sjf"].to_json()
        assert again.to_dict(include_requests=True) == continuous[
            "sjf"
        ].to_dict(include_requests=True)
        assert again.continuous.admissions == continuous["sjf"].continuous.admissions


class TestVerifiedadmissions:
    def test_mid_session_programs_pass_the_verifier(
        self, npu, predictor, continuous
    ):
        """Every program admitted mid-session is a placed merge the
        static verifier accepts -- backfill changes *when* programs
        start, never what runs."""
        report = continuous["fifo"]
        patterns = {
            ((r.request.model, tuple(r.cores)),) for r in report.results
        }
        assert len(patterns) == report.verified_programs
        for pattern in patterns:
            merged = predictor.merged_for(pattern)
            assert check_structure(merged).ok


class _StallerPolicy(SchedulingPolicy):
    """A rogue policy that never schedules anything."""

    name = "staller"

    def plan(self, queue, npu, predictor, cores=None):
        return []


class TestEmptyPlanGuard:
    def test_gang_names_the_policy(self, npu, predictor):
        with pytest.raises(PolicyError, match="staller"):
            serve(
                MIX, npu, policy=_StallerPolicy(), predictor=predictor,
                max_requests=3, **KW
            )

    def test_continuous_names_the_policy(self, npu, predictor):
        with pytest.raises(PolicyError, match="staller"):
            serve(
                MIX, npu, policy=_StallerPolicy(), predictor=predictor,
                mode="continuous", max_requests=3, **KW
            )


class TestModeValidation:
    def test_unknown_mode_rejected(self, npu):
        with pytest.raises(ValueError, match="mode"):
            serve(MIX, npu, mode="wavefront", **KW)


class TestDegradedContinuous:
    @pytest.fixture(scope="class")
    def degraded(self, npu, predictor):
        return serve(
            MIX, npu, policy="dynamic", predictor=predictor,
            faults=OFFLINE, mode="continuous", **KW
        )

    def test_nothing_dropped_silently(self, degraded, continuous):
        generated = continuous["dynamic"].num_requests
        assert len(degraded.results) + len(degraded.shed) == generated

    def test_sections_present(self, degraded):
        assert degraded.mode == "continuous"
        assert degraded.degraded is not None
        assert degraded.degraded.dead_cores == (0,)
        assert degraded.continuous is not None

    def test_retries_avoid_dead_core(self, degraded):
        assert degraded.degraded.num_failed_waves >= 1
        for r in degraded.results:
            if r.attempts > 1:
                assert 0 not in r.cores

    def test_deterministic(self, npu, predictor, degraded):
        again = serve(
            MIX, npu, policy="dynamic", predictor=predictor,
            faults=OFFLINE, mode="continuous", **KW
        )
        assert again.to_json() == degraded.to_json()

    def test_empty_fault_plan_routes_to_clean_loop(
        self, npu, predictor, continuous
    ):
        empty = serve(
            MIX, npu, policy="fifo", predictor=predictor,
            faults=FaultPlan(), mode="continuous", **KW
        )
        assert empty.to_dict(include_requests=True) == continuous[
            "fifo"
        ].to_dict(include_requests=True)

    def test_all_cores_offline_sheds_everything(self, npu, predictor):
        plan = FaultPlan(
            events=tuple(CoreOffline(core=c, at_us=0.0) for c in range(3))
        )
        report = serve(
            MIX, npu, policy="fifo", predictor=predictor, faults=plan,
            mode="continuous", **KW
        )
        assert report.results == ()
        assert report.shed
        assert all(s.reason == "no-cores" for s in report.shed)

    def test_shed_slo_composes(self, npu, predictor, continuous):
        report = serve(
            MIX, npu, policy="fifo", predictor=predictor, faults=OFFLINE,
            mode="continuous", shed_slo=True, slo_scale=1.0, **KW
        )
        assert all(
            s.reason in ("slo", "retries", "no-cores") for s in report.shed
        )
        clean = serve(
            MIX, npu, policy="fifo", predictor=predictor,
            slo_scale=1.0, **KW
        )
        assert len(report.results) + len(report.shed) == clean.num_requests
