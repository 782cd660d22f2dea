"""Test-only object form of the shared-bus fluid model.

:class:`FluidBus` keeps every in-flight transfer as an object and
redoes the water-filling split eagerly on each membership change.  The
retained reference cores (:mod:`tests.sim.event_core`,
:mod:`tests.sim.reference_scheduler`) and the session oracle
(:mod:`tests.sim.session_oracle`) drive it, and the epoch kernels of
:mod:`repro.sim.bus` must reproduce its float sequence exactly.
"""

from __future__ import annotations

import operator
from typing import Dict, List

from repro.sim.bus import _EPS

_by_cap = operator.attrgetter("cap")


class _Transfer:
    __slots__ = ("cid", "remaining", "cap", "rate")

    def __init__(self, cid: int, remaining: float, cap: float, rate: float = 0.0):
        self.cid = cid
        self.remaining = remaining
        self.cap = cap
        self.rate = rate


class FluidBus:
    """Tracks active DMA transfers and their instantaneous rates."""

    def __init__(self, total_bandwidth: float) -> None:
        if total_bandwidth <= 0:
            raise ValueError("bus bandwidth must be positive")
        self.total_bandwidth = total_bandwidth
        self._active: Dict[int, _Transfer] = {}

    @property
    def num_active(self) -> int:
        return len(self._active)

    def add(self, cid: int, num_bytes: float, link_cap: float) -> bool:
        """Register a transfer; returns True if it completed at add time.

        Zero-byte (and negative) transfers really do complete
        immediately: nothing is registered and the rates of in-flight
        transfers are untouched.  (They used to be registered active,
        skewing the water-filling split for every other transfer until
        the next ``advance`` retired them.)  Both event cores gate bus
        entry on ``num_bytes > 0``, so this path only serves direct
        users of the bus model.
        """
        if cid in self._active:
            raise ValueError(f"transfer {cid} already active")
        if link_cap <= 0:
            raise ValueError("link capacity must be positive")
        if num_bytes <= 0:
            return True
        self._active[cid] = _Transfer(cid, float(num_bytes), link_cap)
        self._recompute_rates()
        return False

    def _recompute_rates(self) -> None:
        """Water-filling allocation of the bus among active transfers."""
        active = self._active
        budget = self.total_bandwidth
        n = len(active)
        if n == 1:
            for tr in active.values():
                tr.rate = tr.cap if tr.cap <= budget else budget
            return
        transfers = sorted(active.values(), key=_by_cap)
        for i, tr in enumerate(transfers):
            fair = budget / (n - i)
            cap = tr.cap
            rate = cap if cap <= fair else fair
            tr.rate = rate
            budget -= rate

    def eta(self) -> float:
        """Time until the next active transfer finishes (inf when idle)."""
        best = float("inf")
        for tr in self._active.values():
            rate = tr.rate
            if rate > 0:
                remaining = tr.remaining
                if remaining < 0.0:
                    remaining = 0.0
                t = remaining / rate
                if t < best:
                    best = t
        return best

    def advance(self, dt: float) -> List[int]:
        """Progress all transfers by ``dt``; return cids that completed."""
        if dt < 0:
            raise ValueError("cannot advance backwards")
        active = self._active
        finished: List[int] = []
        for tr in active.values():
            tr.remaining -= tr.rate * dt
            if tr.remaining <= _EPS:
                finished.append(tr.cid)
        if finished:
            for cid in finished:
                del active[cid]
            self._recompute_rates()
        return finished

    def rates(self) -> Dict[int, float]:
        return {cid: tr.rate for cid, tr in self._active.items()}

    def cancel(self, cid: int) -> None:
        """Abort an in-flight transfer (fault injection: its core died).

        The freed bandwidth is redistributed among the survivors, same
        as on a normal completion.
        """
        if cid not in self._active:
            raise KeyError(f"transfer {cid} not active")
        del self._active[cid]
        self._recompute_rates()

    def force_min_completion(self) -> List[int]:
        """Finish the transfer(s) closest to done.

        Safety valve against floating-point livelock: when the remaining
        eta underflows the clock's resolution, the caller retires the
        nearest transfer directly instead of advancing time by zero.
        Raises ``RuntimeError`` when no transfer is making progress at
        all (every active rate is zero) -- returning an empty list would
        send the caller back into a zero-dt spin, so the degenerate case
        is reported as the bus-side analogue of a scheduling deadlock.
        """
        if not self._active:
            return []
        nearest = min(
            max(0.0, tr.remaining) / tr.rate if tr.rate > 0 else float("inf")
            for tr in self._active.values()
        )
        if nearest == float("inf"):
            stuck = [
                f"#{tr.cid} {tr.remaining:.1f}B left, cap={tr.cap}, rate=0"
                for tr in self._active.values()
            ]
            raise RuntimeError(
                "bus livelock: no active transfer is making progress "
                f"(bandwidth={self.total_bandwidth}): {stuck[:8]}"
            )
        finished = [
            tr.cid
            for tr in self._active.values()
            if tr.rate > 0
            and max(0.0, tr.remaining) / tr.rate <= nearest + _EPS
        ]
        for cid in finished:
            del self._active[cid]
        if finished:
            self._recompute_rates()
        return finished
