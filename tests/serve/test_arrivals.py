"""The richer arrival processes: diurnal, bursty, closed-loop sessions."""

from __future__ import annotations

import pytest

from repro.serve import (
    ARRIVAL_KINDS,
    generate_bursty,
    generate_diurnal,
    generate_requests,
    generate_sessions,
    make_arrivals,
)

KW = dict(rps=2000.0, duration_us=100_000.0, seed=0)


def _invariants(reqs):
    arrivals = [r.arrival_us for r in reqs]
    assert arrivals == sorted(arrivals)
    assert [r.rid for r in reqs] == list(range(len(reqs)))


class TestDiurnal:
    def test_deterministic_sorted_numbered(self):
        a = generate_diurnal(["m"], **KW)
        b = generate_diurnal(["m"], **KW)
        assert a == b and len(a) > 0
        _invariants(a)

    def test_mean_rate_roughly_preserved(self):
        # Over whole periods the sinusoid integrates away: ~200 expected.
        reqs = generate_diurnal(["m"], **KW)
        assert 130 <= len(reqs) <= 270

    def test_rate_actually_swings(self):
        # depth=1, phase=-pi/2: the rate starts at ~0 and peaks mid-run,
        # so the middle half must hold far more arrivals than the edges.
        import math

        reqs = generate_diurnal(
            ["m"], rps=2000.0, duration_us=100_000.0, seed=0,
            depth=1.0, phase=-math.pi / 2,
        )
        mid = sum(1 for r in reqs if 25_000 <= r.arrival_us < 75_000)
        assert mid > 0.6 * len(reqs)

    def test_depth_zero_is_flat_poisson_rate(self):
        reqs = generate_diurnal(["m"], depth=0.0, **KW)
        assert 130 <= len(reqs) <= 270

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_diurnal(["m"], depth=1.5, **KW)
        with pytest.raises(ValueError):
            generate_diurnal(["m"], period_us=-1.0, **KW)
        with pytest.raises(ValueError):
            generate_diurnal(["m"], rps=0.0, duration_us=1000.0)

    def test_slo_and_cap(self):
        reqs = generate_diurnal(
            ["m"], max_requests=5, slo_of=lambda m: 77.0, **KW
        )
        assert len(reqs) == 5
        assert all(r.slo_us == 77.0 for r in reqs)


class TestBursty:
    def test_background_stream_preserved(self):
        # The overlay adds arrivals; every base-Poisson arrival instant
        # survives untouched in the bursty stream.
        base = generate_requests(["m"], **KW)
        bursty = generate_bursty(["m"], **KW)
        base_times = {r.arrival_us for r in base}
        bursty_times = {r.arrival_us for r in bursty}
        assert base_times <= bursty_times
        assert len(bursty) > len(base)
        _invariants(bursty)

    def test_bursts_concentrate_load(self):
        # With a strong burst factor, some 5%-wide window must hold a
        # far larger share of arrivals than its uniform share.
        reqs = generate_bursty(["m"], burst_factor=20.0, num_bursts=1, **KW)
        window = 5_000.0
        counts = [
            sum(1 for r in reqs if t <= r.arrival_us < t + window)
            for t in range(0, 95_001, 2500)
        ]
        assert max(counts) > 3 * (len(reqs) * window / 100_000.0)

    def test_zero_bursts_is_plain_poisson(self):
        assert generate_bursty(["m"], num_bursts=0, **KW) == generate_requests(
            ["m"], **KW
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_bursty(["m"], burst_factor=0.0, **KW)
        with pytest.raises(ValueError):
            generate_bursty(["m"], num_bursts=-1, **KW)


class TestSessions:
    def test_closed_loop_spacing(self):
        # A user never has two requests outstanding: consecutive draws
        # are separated by at least the service estimate.
        reqs = generate_sessions(
            ["m"], duration_us=100_000.0, seed=0, num_users=1,
            think_time_us=1000.0, service_estimate_us=500.0,
        )
        assert len(reqs) > 1
        gaps = [
            b.arrival_us - a.arrival_us for a, b in zip(reqs, reqs[1:])
        ]
        assert all(g >= 500.0 for g in gaps)

    def test_population_scales_load(self):
        few = generate_sessions(["m"], duration_us=100_000.0, num_users=2)
        many = generate_sessions(["m"], duration_us=100_000.0, num_users=16)
        assert len(many) > len(few)
        _invariants(many)

    def test_callable_estimate(self):
        reqs = generate_sessions(
            ["a", "b"], duration_us=50_000.0, num_users=4,
            service_estimate_us=lambda m: 100.0 if m == "a" else 200.0,
        )
        assert len(reqs) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_sessions(["m"], duration_us=1000.0, num_users=0)
        with pytest.raises(ValueError):
            generate_sessions(["m"], duration_us=1000.0, think_time_us=-1.0)
        with pytest.raises(ValueError):
            generate_sessions(
                ["m"], duration_us=1000.0, service_estimate_us=-5.0
            )


class TestMakeArrivals:
    def test_dispatch_matches_generators(self):
        assert make_arrivals("poisson", ["m"], **KW) == generate_requests(
            ["m"], **KW
        )
        assert make_arrivals("diurnal", ["m"], **KW) == generate_diurnal(
            ["m"], **KW
        )
        assert make_arrivals("bursty", ["m"], **KW) == generate_bursty(
            ["m"], **KW
        )

    def test_sessions_population_defaults_from_rps(self):
        # 2000 rps with 2 ms think time -> 4 equilibrium users.
        via_kind = make_arrivals("sessions", ["m"], **KW)
        explicit = generate_sessions(
            ["m"], duration_us=100_000.0, seed=0, num_users=4
        )
        assert via_kind == explicit

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            make_arrivals("lunar", ["m"], **KW)

    def test_kind_registry(self):
        assert set(ARRIVAL_KINDS) == {"poisson", "diurnal", "bursty", "sessions"}


NAN = float("nan")


class TestNonFiniteInputs:
    """NaN passes every ``x <= 0`` check, so it used to give an empty
    stream or a silently running generator instead of an error."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_diurnal(["m"], rps=NAN, duration_us=1000.0),
            lambda: generate_diurnal(["m"], rps=1000.0, duration_us=NAN),
            lambda: generate_sessions(["m"], duration_us=NAN),
            lambda: generate_sessions(["m"], duration_us=1000.0, think_time_us=NAN),
            lambda: generate_bursty(["m"], rps=1000.0, duration_us=1000.0, burst_factor=NAN),
        ],
        ids=["diurnal-rps", "diurnal-duration", "sessions-duration", "sessions-think",
             "bursty-factor"],
    )
    def test_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()
