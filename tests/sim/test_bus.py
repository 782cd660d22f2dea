"""Shared-bus fluid model: water-filling rates and byte conservation."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.sim.fluid_bus import FluidBus


class TestRates:
    def test_single_transfer_capped_by_link(self):
        bus = FluidBus(100.0)
        bus.add(0, 1000, link_cap=30.0)
        assert bus.rates()[0] == pytest.approx(30.0)

    def test_single_transfer_capped_by_bus(self):
        bus = FluidBus(20.0)
        bus.add(0, 1000, link_cap=30.0)
        assert bus.rates()[0] == pytest.approx(20.0)

    def test_equal_sharing(self):
        bus = FluidBus(30.0)
        bus.add(0, 1000, link_cap=100.0)
        bus.add(1, 1000, link_cap=100.0)
        assert bus.rates() == {0: pytest.approx(15.0), 1: pytest.approx(15.0)}

    def test_water_filling_redistributes(self):
        """A capped transfer frees bandwidth for the uncapped ones."""
        bus = FluidBus(30.0)
        bus.add(0, 1000, link_cap=5.0)
        bus.add(1, 1000, link_cap=100.0)
        rates = bus.rates()
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(25.0)

    def test_three_way_with_mixed_caps(self):
        bus = FluidBus(30.0)
        bus.add(0, 1000, link_cap=4.0)
        bus.add(1, 1000, link_cap=10.0)
        bus.add(2, 1000, link_cap=100.0)
        rates = bus.rates()
        assert rates[0] == pytest.approx(4.0)
        assert rates[1] == pytest.approx(10.0)
        assert rates[2] == pytest.approx(16.0)

    def test_total_never_exceeds_bus(self):
        bus = FluidBus(12.0)
        for i in range(5):
            bus.add(i, 100, link_cap=8.0)
        assert sum(bus.rates().values()) <= 12.0 + 1e-9


class TestAdvance:
    def test_progress_and_completion(self):
        bus = FluidBus(10.0)
        bus.add(0, 100, link_cap=10.0)
        assert bus.advance(5.0) == []
        finished = bus.advance(5.0)
        assert finished == [0]
        assert bus.num_active == 0

    def test_eta(self):
        bus = FluidBus(10.0)
        bus.add(0, 50, link_cap=10.0)
        assert bus.eta() == pytest.approx(5.0)
        bus.add(1, 100, link_cap=10.0)  # now both run at 5 B/cy
        assert bus.eta() == pytest.approx(10.0)

    def test_eta_idle_is_inf(self):
        assert FluidBus(10.0).eta() == float("inf")

    def test_rates_rise_after_completion(self):
        bus = FluidBus(10.0)
        bus.add(0, 25, link_cap=10.0)
        bus.add(1, 1000, link_cap=10.0)
        bus.advance(5.0)  # transfer 0 finishes (25 bytes at 5 B/cy)
        assert bus.rates()[1] == pytest.approx(10.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            FluidBus(10.0).advance(-1.0)

    def test_duplicate_cid_rejected(self):
        bus = FluidBus(10.0)
        bus.add(0, 10, link_cap=1.0)
        with pytest.raises(ValueError):
            bus.add(0, 10, link_cap=1.0)

    def test_zero_byte_completes_immediately(self):
        """A zero-byte add retires at add time: nothing is registered
        (``add`` returns True) and there is nothing left to advance."""
        bus = FluidBus(10.0)
        assert bus.add(0, 0, link_cap=5.0) is True
        assert bus.num_active == 0
        assert bus.advance(0.0) == []

    def test_zero_byte_add_leaves_rates_unchanged(self):
        """In-flight transfer rates are not skewed by a zero-byte add.

        Before the fix the zero-byte transfer was registered active and
        took a water-filling share until the next ``advance`` retired
        it; the two real transfers below would each have been squeezed
        to 10/3 instead of keeping their fair 5.0 split.
        """
        bus = FluidBus(10.0)
        assert bus.add(0, 1000, link_cap=100.0) is False
        assert bus.add(1, 1000, link_cap=100.0) is False
        before = bus.rates()
        assert bus.add(2, 0, link_cap=100.0) is True
        assert bus.rates() == before
        assert bus.rates() == {0: 5.0, 1: 5.0}

    def test_force_min_completion(self):
        bus = FluidBus(10.0)
        bus.add(0, 1e-8, link_cap=5.0)
        bus.add(1, 1000, link_cap=5.0)
        finished = bus.force_min_completion()
        assert finished == [0]
        assert bus.num_active == 1

    def test_force_min_completion_idle_is_noop(self):
        assert FluidBus(10.0).force_min_completion() == []

    def test_force_min_completion_all_stalled_raises(self):
        """Regression: active transfers with zero rate used to make
        ``force_min_completion`` return ``[]``, sending the simulator
        back into an infinite dt == 0 loop.  The degenerate state must
        surface as a diagnostic error instead."""
        bus = FluidBus(10.0)
        bus.add(0, 500, link_cap=5.0)
        bus.add(1, 700, link_cap=5.0)
        for tr in bus._active.values():  # corrupt into the stalled state
            tr.rate = 0.0
        with pytest.raises(RuntimeError, match="bus livelock"):
            bus.force_min_completion()

    def test_force_min_completion_ignores_stalled_minority(self):
        """One stalled transfer must not mask a progressing one."""
        bus = FluidBus(10.0)
        bus.add(0, 500, link_cap=5.0)
        bus.add(1, 1e-8, link_cap=5.0)
        bus._active[0].rate = 0.0
        assert bus.force_min_completion() == [1]
        assert bus.num_active == 1


@settings(max_examples=60, deadline=None)
@given(
    bus_bw=st.floats(1.0, 100.0),
    transfers=st.lists(
        st.tuples(st.integers(1, 10_000), st.floats(0.5, 50.0)),
        min_size=1,
        max_size=6,
    ),
    frac=st.floats(0.3, 1.0),
)
def test_property_bytes_conserved(bus_bw, transfers, frac):
    """Sum of bytes delivered over time equals the bytes submitted."""
    bus = FluidBus(bus_bw)
    total = 0
    for i, (nbytes, cap) in enumerate(transfers):
        bus.add(i, nbytes, link_cap=cap)
        total += nbytes
    elapsed = 0.0
    guard = 0
    while bus.num_active and guard < 20_000:
        guard += 1
        dt = bus.eta() * frac
        bus.advance(dt)
        elapsed += dt
    assert bus.num_active == 0
    # time is at least the ideal bus-limited time
    assert elapsed * bus_bw >= total - 1e-3 - len(transfers)
