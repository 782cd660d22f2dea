"""End-to-end serving runs: determinism, accounting, guard rails."""

from __future__ import annotations

import pytest

from repro.hw import exynos2100_like
from repro.serve import (
    LatencyPredictor,
    SchedulingPolicy,
    serve,
    serve_policies,
)

MIX = ["MobileNetV2", "InceptionV3"]
KW = dict(rps=2000.0, duration_us=5000.0, seed=0)


@pytest.fixture(scope="module")
def npu():
    return exynos2100_like()


@pytest.fixture(scope="module")
def predictor(npu):
    return LatencyPredictor(npu)


@pytest.fixture(scope="module")
def reports(npu, predictor):
    return {
        r.policy: r
        for r in serve_policies(MIX, npu, predictor=predictor, **KW)
    }


class TestDeterminism:
    def test_same_seed_identical_report(self, npu, predictor, reports):
        again = serve(MIX, npu, policy="dynamic", predictor=predictor, **KW)
        assert (
            again.to_dict(include_requests=True)
            == reports["dynamic"].to_dict(include_requests=True)
        )

    def test_workload_identical_across_policies(self, reports):
        streams = {
            policy: tuple(
                (r.request.rid, r.request.model, r.request.arrival_us)
                for r in rep.results
            )
            for policy, rep in reports.items()
        }
        assert streams["fifo"] == streams["sjf"] == streams["dynamic"]


class TestAccounting:
    def test_all_requests_served_once(self, reports):
        for rep in reports.values():
            assert rep.num_requests == len(rep.results) > 0
            assert [r.request.rid for r in rep.results] == list(
                range(rep.num_requests)
            )

    def test_time_ordering_per_request(self, reports):
        for rep in reports.values():
            for r in rep.results:
                assert r.start_us >= r.request.arrival_us
                assert r.finish_us > r.start_us
                assert r.total_us == pytest.approx(r.queue_us + r.exec_us)

    def test_makespan_is_last_finish(self, reports):
        for rep in reports.values():
            assert rep.makespan_us == pytest.approx(
                max(r.finish_us for r in rep.results)
            )

    def test_utilization_bounded(self, npu, reports):
        for rep in reports.values():
            assert len(rep.utilization) == npu.num_cores
            assert all(0.0 <= u <= 1.0 for u in rep.utilization)
            assert rep.mean_utilization > 0.1

    def test_dynamic_packs_waves(self, reports):
        # Under backlog the packer runs several requests per wave.
        assert reports["dynamic"].num_waves < reports["fifo"].num_waves
        assert reports["fifo"].num_waves == reports["fifo"].num_requests

    def test_dynamic_beats_fifo_makespan(self, reports):
        assert reports["dynamic"].makespan_us < reports["fifo"].makespan_us

    def test_slo_fields_populated(self, reports):
        for rep in reports.values():
            assert all(r.request.slo_us > 0 for r in rep.results)
            assert 0.0 <= rep.slo_miss_rate <= 1.0


class TestEdgeCases:
    def test_empty_workload(self, npu, predictor):
        # A window so short (with capped count) no request arrives.
        rep = serve(
            ["MobileNetV2"],
            npu,
            policy="fifo",
            rps=1.0,
            duration_us=1.0,
            seed=0,
            predictor=predictor,
        )
        assert rep.num_requests == 0
        assert rep.makespan_us == 0.0
        assert rep.throughput_rps == 0.0

    def test_rogue_policy_rejected(self, npu, predictor):
        class OverlappingPolicy(SchedulingPolicy):
            name = "rogue"

            def plan(self, queue, npu, predictor, cores=None):
                return [
                    (queue[0], (0, 1)),
                    (queue[0], (1, 2)),
                ]

        with pytest.raises(RuntimeError):
            serve(
                ["MobileNetV2"],
                npu,
                policy=OverlappingPolicy(),
                rps=2000.0,
                duration_us=3000.0,
                seed=0,
                predictor=predictor,
            )

    def test_merged_programs_counted(self, reports):
        # fifo/sjf build one whole-machine program per model; dynamic
        # additionally builds packed multi-request programs.
        assert reports["fifo"].verified_programs == len(MIX)
        assert reports["dynamic"].verified_programs >= len(MIX)


class TestSloDerivation:
    """The one shared SLO helper every serving loop now uses.

    Four copy-pasted ``slo_of`` lambdas (gang, continuous x2, degraded)
    used to define "SLO = scale x isolated latency" independently; this
    pins the hoisted :meth:`LatencyPredictor.slo_of` so a drift in any
    loop shows up as a failure here.
    """

    def test_slo_is_scale_times_isolated_latency(self, npu, predictor):
        slo = predictor.slo_of(5.0)
        assert slo is not None
        for model in MIX:
            assert slo(model) == pytest.approx(
                5.0 * predictor.predicted_latency_us(model)
            )

    def test_nonpositive_scale_disables_slos(self, predictor):
        assert predictor.slo_of(0.0) is None
        assert predictor.slo_of(-1.0) is None

    def test_serve_attaches_derived_slos(self, npu, predictor, reports):
        # Every request in the canonical report set carries exactly the
        # derived SLO for its model -- the serving loops all route
        # through the same helper.
        slo = predictor.slo_of(5.0)
        for rep in reports.values():
            assert rep.results
            for r in rep.results:
                assert r.request.slo_us == pytest.approx(slo(r.request.model))

    def test_slo_scale_zero_leaves_requests_unbounded(self, npu, predictor):
        rep = serve(
            MIX, npu, policy="fifo", predictor=predictor, slo_scale=0.0, **KW
        )
        assert rep.results
        assert all(r.request.slo_us == 0.0 for r in rep.results)
        assert rep.slo_miss_rate == 0.0
