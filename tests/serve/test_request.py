"""The request generator: determinism, bounds, mixes, result math."""

from __future__ import annotations

import pytest

from repro.serve import (
    Request,
    RequestResult,
    generate_requests,
    make_arrivals,
    percentile,
)


class TestGenerator:
    def test_same_seed_identical_stream(self):
        a = generate_requests(["m1", "m2"], rps=500, duration_us=50_000, seed=7)
        b = generate_requests(["m1", "m2"], rps=500, duration_us=50_000, seed=7)
        assert a == b
        assert len(a) > 0

    def test_different_seeds_differ(self):
        a = generate_requests(["m1", "m2"], rps=500, duration_us=50_000, seed=1)
        b = generate_requests(["m1", "m2"], rps=500, duration_us=50_000, seed=2)
        assert a != b

    def test_arrivals_sorted_and_bounded(self):
        reqs = generate_requests(["m"], rps=1000, duration_us=20_000, seed=3)
        arrivals = [r.arrival_us for r in reqs]
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 20_000 for t in arrivals)
        assert [r.rid for r in reqs] == list(range(len(reqs)))

    def test_rate_roughly_matches(self):
        # 2000 rps over 100 ms -> ~200 expected; Poisson sd is ~14.
        reqs = generate_requests(["m"], rps=2000, duration_us=100_000, seed=0)
        assert 140 <= len(reqs) <= 260

    def test_max_requests_caps(self):
        reqs = generate_requests(
            ["m"], rps=2000, duration_us=100_000, seed=0, max_requests=5
        )
        assert len(reqs) == 5

    def test_weighted_mix(self):
        reqs = generate_requests(
            [("heavy", 9.0), ("light", 1.0)],
            rps=2000,
            duration_us=100_000,
            seed=0,
        )
        heavy = sum(1 for r in reqs if r.model == "heavy")
        assert heavy > len(reqs) // 2

    def test_slo_of_applied(self):
        reqs = generate_requests(
            ["m"], rps=1000, duration_us=10_000, seed=0,
            slo_of=lambda m: 123.0,
        )
        assert reqs and all(r.slo_us == 123.0 for r in reqs)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_requests([], rps=100, duration_us=1000)
        with pytest.raises(ValueError):
            generate_requests(["m"], rps=0, duration_us=1000)
        with pytest.raises(ValueError):
            generate_requests(["m"], rps=100, duration_us=0)
        with pytest.raises(ValueError):
            generate_requests([("m", -1.0)], rps=100, duration_us=1000)

    @pytest.mark.parametrize("field", ["rps", "duration_us"])
    def test_non_finite_rejected(self, field):
        """NaN used to slip past ``<= 0`` and give an empty workload."""
        kwargs = {"rps": 100.0, "duration_us": 1000.0, field: float("nan")}
        with pytest.raises(ValueError, match="finite"):
            generate_requests(["m"], **kwargs)

    @pytest.mark.parametrize("field", ["arrival_us", "slo_us"])
    def test_non_finite_request_rejected(self, field):
        with pytest.raises(ValueError, match="request 0"):
            Request(**{"rid": 0, "model": "m", "arrival_us": 0.0, field: float("nan")})

    @pytest.mark.parametrize("kind", ["poisson", "diurnal", "bursty", "sessions"])
    def test_negative_cap_rejected(self, kind):
        """A negative cap is malformed, not an empty workload."""
        with pytest.raises(ValueError, match="max_requests"):
            make_arrivals(kind, ["m"], 1000, 10_000, max_requests=-1)
        with pytest.raises(ValueError, match="max_requests"):
            generate_requests(["m"], rps=1000, duration_us=10_000, max_requests=-1)


class TestRequestResult:
    def test_latency_decomposition(self):
        r = RequestResult(
            request=Request(rid=0, model="m", arrival_us=100.0, slo_us=500.0),
            start_us=150.0,
            finish_us=550.0,
            cores=(0, 1),
            wave=2,
        )
        assert r.queue_us == 50.0
        assert r.exec_us == 400.0
        assert r.total_us == 450.0
        assert r.slo_met

    def test_slo_miss_and_no_slo(self):
        late = RequestResult(
            request=Request(rid=0, model="m", arrival_us=0.0, slo_us=100.0),
            start_us=50.0, finish_us=200.0, cores=(0,), wave=0,
        )
        assert not late.slo_met
        unbound = RequestResult(
            request=Request(rid=1, model="m", arrival_us=0.0, slo_us=0.0),
            start_us=50.0, finish_us=200.0, cores=(0,), wave=0,
        )
        assert unbound.slo_met


class TestPercentile:
    def test_linear_interpolation(self):
        xs = [10.0, 20.0, 30.0, 40.0]
        # rank (n-1)*p/100: 1.5 -> midway between 20 and 30.
        assert percentile(xs, 50) == 25.0
        assert percentile(xs, 95) == 38.5
        assert percentile(xs, 0) == 10.0
        assert percentile(xs, 100) == 40.0
        assert percentile([5.0], 99) == 5.0

    def test_empty_sample_has_no_percentile(self):
        # 0.0 here used to make an idle/dead fleet device report p99=0
        # and drag fleet-level mins and means; an empty sample has no
        # order statistics, so the answer is None, not a number.
        assert percentile([], 50) is None
        assert percentile([], 99) is None

    def test_exact_ranks_hit_order_statistics(self):
        xs = [4.0, 1.0, 3.0, 2.0, 5.0]
        # (n-1)*p/100 lands on integers: no interpolation.
        assert percentile(xs, 25) == 2.0
        assert percentile(xs, 50) == 3.0
        assert percentile(xs, 75) == 4.0

    def test_small_sample_tail_percentiles_differ(self):
        # The old nearest-rank method degenerated here: at n=19 every
        # percentile above ~94.7% hit the maximum, so p95 == p99.
        xs = [float(i) for i in range(1, 20)]
        p95, p99 = percentile(xs, 95), percentile(xs, 99)
        assert p95 < p99 < 19.0
        assert p95 == pytest.approx(18.1)
        assert p99 == pytest.approx(18.82)

    def test_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_nan_rejected(self):
        # sorted() over NaN is arbitrary (every comparison is False), so
        # an order statistic over it would be garbage presented as real.
        nan = float("nan")
        with pytest.raises(ValueError, match="NaN"):
            percentile([1.0, nan, 3.0], 50)
        with pytest.raises(ValueError, match="NaN"):
            percentile([nan], 99)


class TestBuildReport:
    def _result(self, rid: int = 0) -> RequestResult:
        return RequestResult(
            request=Request(rid=rid, model="m", arrival_us=0.0, slo_us=0.0),
            start_us=0.0, finish_us=100.0, cores=(0,), wave=0,
        )

    def _report(self, busy, makespan):
        from repro.serve.metrics import build_report

        return build_report(
            policy="fifo", machine="t", models=("m",), seed=0, rps=1.0,
            duration_us=100.0, results=[self._result()], num_waves=1,
            busy_cycles=busy, makespan_cycles=makespan,
            latency_us_per_cycle=1.0, verified_programs=1,
        )

    def test_utilization_clamped_to_unit_interval(self):
        # Fault-retry accounting can charge a core more busy cycles than
        # the surviving timeline's makespan; the report must still be a
        # fraction.
        rep = self._report(busy=[150.0, 50.0, -1.0], makespan=100.0)
        assert rep.utilization == (1.0, 0.5, 0.0)

    def test_zero_makespan_is_all_idle(self):
        rep = self._report(busy=[10.0], makespan=0.0)
        assert rep.utilization == (0.0,)
