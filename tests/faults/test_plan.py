"""Fault models, plan queries, and --faults spec parsing."""

from __future__ import annotations

import pytest

from repro.faults import (
    CoreOffline,
    FaultPlan,
    ThermalThrottle,
    TransientStall,
    parse_fault_spec,
    random_stalls,
)


class TestModels:
    def test_stall_validation(self):
        with pytest.raises(ValueError):
            TransientStall(start_us=-1.0, duration_us=10.0)
        with pytest.raises(ValueError):
            TransientStall(start_us=0.0, duration_us=0.0)
        assert TransientStall(start_us=5.0, duration_us=2.0).end_us == 7.0

    def test_offline_validation(self):
        with pytest.raises(ValueError):
            CoreOffline(core=-1, at_us=0.0)
        with pytest.raises(ValueError):
            CoreOffline(core=0, at_us=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            CoreOffline(core=0, at_us=value)
        with pytest.raises(ValueError, match="finite"):
            TransientStall(start_us=value, duration_us=10.0)
        with pytest.raises(ValueError, match="finite"):
            TransientStall(start_us=0.0, duration_us=value)

    def test_throttle_applies_to(self):
        assert ThermalThrottle().applies_to(5)
        t = ThermalThrottle(cores=(1,))
        assert t.applies_to(1) and not t.applies_to(0)

    def test_models_are_hashable(self):
        plan = FaultPlan(events=(CoreOffline(core=0, at_us=1.0), ThermalThrottle()))
        assert hash(plan) == hash(
            FaultPlan(events=(CoreOffline(core=0, at_us=1.0), ThermalThrottle()))
        )


class TestPlanQueries:
    def test_empty(self):
        assert FaultPlan().is_empty
        assert FaultPlan().describe() == "none"
        assert not FaultPlan(events=(ThermalThrottle(),)).is_empty

    def test_dead_cores_at(self):
        plan = FaultPlan(
            events=(CoreOffline(core=2, at_us=100.0), CoreOffline(core=0, at_us=50.0))
        )
        assert plan.dead_cores_at(0.0) == ()
        assert plan.dead_cores_at(50.0) == (0,)
        assert plan.dead_cores_at(1000.0) == (0, 2)

    def test_event_views_sorted(self):
        plan = FaultPlan(
            events=(
                TransientStall(start_us=30.0, duration_us=1.0, core=1),
                CoreOffline(core=1, at_us=9.0),
                TransientStall(start_us=10.0, duration_us=1.0),
            )
        )
        assert [s.start_us for s in plan.stalls] == [10.0, 30.0]
        assert plan.offline_events[0].core == 1

    def test_throttled_cores_resolution(self):
        assert FaultPlan(events=(ThermalThrottle(),)).throttled_cores(3) == (0, 1, 2)
        plan = FaultPlan(events=(ThermalThrottle(cores=(2, 0)),))
        assert plan.throttled_cores(3) == (0, 2)

    def test_describe_mentions_every_event(self):
        plan = FaultPlan(
            events=(
                ThermalThrottle(cores=(1,)),
                TransientStall(start_us=10.0, duration_us=5.0),
                CoreOffline(core=2, at_us=99.0),
            )
        )
        text = plan.describe()
        assert "throttle" in text and "stall" in text and "core2 offline" in text


class TestRandomStalls:
    def test_deterministic_per_seed(self):
        a = random_stalls(seed=7, horizon_us=1000.0, mean_gap_us=50.0, mean_duration_us=10.0)
        b = random_stalls(seed=7, horizon_us=1000.0, mean_gap_us=50.0, mean_duration_us=10.0)
        assert a == b
        c = random_stalls(seed=8, horizon_us=1000.0, mean_gap_us=50.0, mean_duration_us=10.0)
        assert a != c

    def test_windows_in_horizon_and_disjoint(self):
        stalls = random_stalls(
            seed=0, horizon_us=500.0, mean_gap_us=20.0, mean_duration_us=5.0, core=1
        )
        assert stalls
        for prev, cur in zip(stalls, stalls[1:]):
            assert prev.end_us <= cur.start_us
        assert all(s.start_us < 500.0 and s.core == 1 for s in stalls)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_stalls(seed=0, horizon_us=0.0, mean_gap_us=1.0, mean_duration_us=1.0)
        with pytest.raises(ValueError):
            random_stalls(seed=0, horizon_us=1.0, mean_gap_us=0.0, mean_duration_us=1.0)


class TestSpecParsing:
    def test_core_offline_percent(self):
        plan = parse_fault_spec("core_offline@50%", 8000.0, 3)
        (event,) = plan.events
        assert event == CoreOffline(core=0, at_us=4000.0)

    def test_core_offline_explicit(self):
        plan = parse_fault_spec("core_offline:2@1200us", 8000.0, 3)
        assert plan.events == (CoreOffline(core=2, at_us=1200.0),)

    def test_stall_forms(self):
        plan = parse_fault_spec("stall:1@100us+5%,stall:bus@1.2ms+10us", 8000.0, 3)
        core_stall, bus_stall = plan.stalls
        assert core_stall == TransientStall(start_us=100.0, duration_us=400.0, core=1)
        assert bus_stall == TransientStall(start_us=1200.0, duration_us=10.0, core=None)

    def test_throttle_forms(self):
        assert parse_fault_spec("throttle", 1.0, 3).events == (ThermalThrottle(),)
        plan = parse_fault_spec("throttle:0+2", 1.0, 3)
        assert plan.events == (ThermalThrottle(cores=(0, 2)),)

    def test_combined_clauses(self):
        plan = parse_fault_spec("throttle, core_offline@25%", 1000.0, 2, seed=3)
        assert len(plan.events) == 2
        assert plan.seed == 3

    @pytest.mark.parametrize(
        "bad",
        [
            "core_offline",  # missing time
            "core_offline:9@50%",  # core out of range
            "stall@10%",  # missing duration
            "stall:bus@oops+10us",  # bad time
            "throttle:x",  # bad core
            "meteor@50%",  # unknown kind
            "core_offline@nan%",  # non-finite time
            "core_offline@infus",
            "stall@10%+nan",
            "stall@nan+5us",
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad, 8000.0, 3)
