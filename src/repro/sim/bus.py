"""Fluid model of the shared bus to global memory.

All in-flight DMA transfers share the bus bandwidth by *water-filling*:
bandwidth is split evenly, but no transfer receives more than its core's
DMA link can carry; capacity freed by capped transfers is redistributed
among the rest.  This is the standard processor-sharing fluid
approximation of an interleaved memory bus and is what creates the
contention effects the paper measures (halo traffic "still takes up the
bandwidth of the system bus", Section 3.2).

The arithmetic here is load-bearing for reproducibility: the simulator
promises bit-identical traces for equal seeds, so any rewrite of these
methods must produce the exact same float sequences (same operations in
the same order), not merely equivalent math.

The *epoch kernels* (:func:`refill_eta`, :func:`advance_eta`,
:func:`force_min`) are what the event loop of
:class:`repro.sim.session.SimSession` calls: the bus is a set of
parallel lists (transfer id, residual bytes, link cap, rate) and each
kernel fuses a membership step with the next-finish eta query that
always follows it.  The clock does not move between the two, so the
fused float sequence is the split one of the object form the retained
reference cores drive (``tests/sim/fluid_bus.py``).  The kernels are
unrolled for the 1-3 concurrent transfers that dominate real programs,
and one general loop serves every wider bus.  Wide buses stay small:
each (core, DMA engine) queue runs one command at a time, so a core has
at most two transfers in flight and the bus at most twice the core
count.
"""

from __future__ import annotations

from typing import List

# Residual bytes below this count as finished.  The scale matters: the
# simulation clock sits in the 1e5..1e7 cycle range, where float64 ulp is
# ~1e-10 cycles, so a byte-residue epsilon must be large enough that the
# corresponding eta never rounds to zero time (a livelock otherwise).
_EPS = 1e-6

_INF = float("inf")


def refill_eta(
    cap: List[float], rem: List[float], rate: List[float], bw: float, uniform: bool
) -> float:
    """Water-filling refill of ``rate``, fused with the eta query.

    Returns the time until the next transfer finishes (``inf`` for an
    empty bus).  Same float sequence as the object form's rate
    recompute followed by its eta query: the sort is stable and list
    order is insertion order; min is order-independent and every rate
    slot is written exactly once.  ``uniform`` promises every cap is equal (a
    homogeneous machine), making the sort the identity, so it is
    skipped.
    """
    n = len(cap)
    if n == 1:
        c = cap[0]
        r = c if c <= bw else bw
        rate[0] = r
        return rem[0] / r
    if n == 2:
        half = bw / 2  # same float as budget / (2 - 0) in the generic walk
        c0 = cap[0]
        c1 = cap[1]
        if c0 <= c1:
            rlo = c0 if c0 <= half else half
            budget = bw - rlo
            rhi = c1 if c1 <= budget else budget
            rate[0] = rlo
            rate[1] = rhi
            best = rem[0] / rlo if rlo > 0.0 else _INF
            if rhi > 0.0:
                t = rem[1] / rhi
                if t < best:
                    best = t
        else:
            rlo = c1 if c1 <= half else half
            budget = bw - rlo
            rhi = c0 if c0 <= budget else budget
            rate[1] = rlo
            rate[0] = rhi
            best = rem[1] / rlo if rlo > 0.0 else _INF
            if rhi > 0.0:
                t = rem[0] / rhi
                if t < best:
                    best = t
        return best
    if n == 3:
        # Stable 3-sort by (cap, index), unrolled: ja/jb/jc are the slot
        # indices in ascending cap order, ties keeping insertion order
        # (every branch uses <=).
        c0 = cap[0]
        c1 = cap[1]
        c2 = cap[2]
        if c0 <= c1:
            if c1 <= c2:
                ja, jb, jc = 0, 1, 2
                ca, cb, cc = c0, c1, c2
            elif c0 <= c2:
                ja, jb, jc = 0, 2, 1
                ca, cb, cc = c0, c2, c1
            else:
                ja, jb, jc = 2, 0, 1
                ca, cb, cc = c2, c0, c1
        elif c0 <= c2:
            ja, jb, jc = 1, 0, 2
            ca, cb, cc = c1, c0, c2
        elif c1 <= c2:
            ja, jb, jc = 1, 2, 0
            ca, cb, cc = c1, c2, c0
        else:
            ja, jb, jc = 2, 1, 0
            ca, cb, cc = c2, c1, c0
        third = bw / 3
        ra = ca if ca <= third else third
        budget = bw - ra
        fair = budget / 2
        rb = cb if cb <= fair else fair
        budget -= rb
        rc = cc if cc <= budget else budget
        rate[ja] = ra
        rate[jb] = rb
        rate[jc] = rc
        best = _INF
        if ra > 0.0:
            best = rem[ja] / ra
        if rb > 0.0:
            t = rem[jb] / rb
            if t < best:
                best = t
        if rc > 0.0:
            t = rem[jc] / rc
            if t < best:
                best = t
        return best
    order = range(n) if uniform else sorted(range(n), key=cap.__getitem__)
    budget = bw
    i = n
    best = _INF
    for j in order:
        fair = budget / i
        c = cap[j]
        r = c if c <= fair else fair
        rate[j] = r
        budget -= r
        i -= 1
        if r > 0.0:
            t = rem[j] / r
            if t < best:
                best = t
    return best


def _retire(
    ids: List[int],
    rem: List[float],
    cap: List[float],
    rate: List[float],
    at: List[int],
    out: List[int],
) -> None:
    """Move the transfers at ascending indices ``at`` off the bus into ``out``."""
    for i in at:
        out.append(ids[i])
    for i in reversed(at):
        del ids[i], rem[i], cap[i], rate[i]


def advance_eta(
    ids: List[int],
    rem: List[float],
    cap: List[float],
    rate: List[float],
    dt: float,
    out: List[int],
) -> float:
    """Advance every in-flight transfer by ``dt``, fused with the eta.

    Transfers that drain are dropped and their ids appended to ``out``
    in insertion order, as the object form's advance reports them; the
    caller then refills the survivors' rates.  When none finished, returns the
    survivors' time to the next finish, final until the next membership
    change.  ``a - b * dt`` per transfer is the object form's decrement.
    (Finished ids go to a caller-owned list because building a result
    tuple per call costs more than the arithmetic of a small bus.)
    """
    n = len(ids)
    if n == 1:
        r = rem[0] - rate[0] * dt
        if r <= _EPS:
            out.append(ids[0])
            del ids[0], rem[0], cap[0], rate[0]
            return _INF
        rem[0] = r
        return r / rate[0]
    if n == 2:
        rate0 = rate[0]
        rate1 = rate[1]
        r0 = rem[0] - rate0 * dt
        r1 = rem[1] - rate1 * dt
        rem[0] = r0
        rem[1] = r1
        if r0 <= _EPS:
            if r1 <= _EPS:
                out.append(ids[0])
                out.append(ids[1])
                del ids[:], rem[:], cap[:], rate[:]
                return _INF
            out.append(ids[0])
            del ids[0], rem[0], cap[0], rate[0]
            return _INF
        if r1 <= _EPS:
            out.append(ids[1])
            del ids[1], rem[1], cap[1], rate[1]
            return _INF
        best = _INF
        if rate0 > 0.0:
            best = r0 / rate0
        if rate1 > 0.0:
            t = r1 / rate1
            if t < best:
                best = t
        return best
    if n == 3:
        rate0 = rate[0]
        rate1 = rate[1]
        rate2 = rate[2]
        r0 = rem[0] - rate0 * dt
        r1 = rem[1] - rate1 * dt
        r2 = rem[2] - rate2 * dt
        rem[0] = r0
        rem[1] = r1
        rem[2] = r2
        if r0 <= _EPS or r1 <= _EPS or r2 <= _EPS:
            fin0 = r0 <= _EPS
            fin1 = r1 <= _EPS
            fin2 = r2 <= _EPS
            if fin0:
                out.append(ids[0])
            if fin1:
                out.append(ids[1])
            if fin2:
                out.append(ids[2])
                del ids[2], rem[2], cap[2], rate[2]
            if fin1:
                del ids[1], rem[1], cap[1], rate[1]
            if fin0:
                del ids[0], rem[0], cap[0], rate[0]
            return _INF
        best = _INF
        if rate0 > 0.0:
            best = r0 / rate0
        if rate1 > 0.0:
            t = r1 / rate1
            if t < best:
                best = t
        if rate2 > 0.0:
            t = r2 / rate2
            if t < best:
                best = t
        return best
    at = None
    best = _INF
    for i in range(n):
        ri = rate[i]
        r = rem[i] - ri * dt
        rem[i] = r
        if r <= _EPS:
            if at is None:
                at = [i]
            else:
                at.append(i)
        elif ri > 0.0:
            t = r / ri
            if t < best:
                best = t
    if at is not None:
        _retire(ids, rem, cap, rate, at, out)
        return _INF
    return best


def force_min(
    ids: List[int],
    rem: List[float],
    cap: List[float],
    rate: List[float],
    bw: float,
    out: List[int],
) -> None:
    """Retire the transfer(s) closest to done into ``out``.

    The flat form of the object form's forced completion: the caller's
    safety valve when the bus eta underflowed the clock's float
    resolution.  A zero-``dt`` advance can finish nothing (every
    residual exceeded the epsilon when it was last written), so the
    nearest transfer(s) are dropped directly rather than spinning at
    ``dt == 0``.  Raises when no transfer is making progress at all.
    """
    nearest = _INF
    for i in range(len(ids)):
        ri = rate[i]
        if ri > 0.0:
            r = rem[i]
            if r < 0.0:
                r = 0.0
            t = r / ri
            if t < nearest:
                nearest = t
    if nearest == _INF:
        raise RuntimeError(
            f"bus livelock: no active transfer is making progress (bandwidth={bw})"
        )
    at = []
    for i in range(len(ids)):
        ri = rate[i]
        if ri > 0.0:
            r = rem[i]
            if r < 0.0:
                r = 0.0
            if r / ri <= nearest + _EPS:
                at.append(i)
    _retire(ids, rem, cap, rate, at, out)
