"""Admission policies: which queued requests run next, on which cores.

A policy turns the request queue into a *wave*: a set of requests that
start together on disjoint core groups.  Three policies ship:

* ``fifo`` -- strict arrival order, one request at a time on the whole
  machine (the static baseline);
* ``sjf`` -- shortest job first by the program cache's predicted
  latency, still whole-machine (reorders the queue, same packing);
* ``dynamic`` -- packs queued requests onto disjoint core groups sized
  by predicted work, choosing the wave width whose *measured* merged
  latency serves the most requests per microsecond (parallel scaling
  across cores is sublinear, so under backlog narrower groups serve the
  queue faster -- unless bus contention eats the win, which the
  measurement catches).

Every policy plans over an explicit *available core set* (``cores``),
which defaults to the whole machine.  The serving loop
(:func:`repro.serve.server.serve`) always passes the free cores that
are still alive, so under a fault plan a policy transparently
recompiles and repacks onto whatever survived -- the recompile itself
is absorbed by the fingerprint-keyed program cache, which already keys
by core group -- and an assignment outside that set is a
:class:`PolicyError`.

Continuous-mode serving calls :meth:`SchedulingPolicy.admit` instead of
:meth:`~SchedulingPolicy.plan` whenever a core group frees up: the
policy sees only the *free* cores and decides, incrementally, what to
start on them right now.  The base
implementation delegates to ``plan`` over the free set, so any custom
wave policy works in continuous mode unchanged; fifo and sjf override
it to split the free cores across multiple queued requests (keeping
their ordering discipline) because under backlog several narrow groups
serve a queue faster than one wide one on sublinearly-scaling cores.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.hw.config import NPUConfig
from repro.serve.predictor import LatencyPredictor
from repro.serve.request import Request

#: one wave: (request, core group) pairs on pairwise-disjoint groups.
Assignment = List[Tuple[Request, Tuple[int, ...]]]


class PolicyError(RuntimeError):
    """A scheduling policy returned an invalid or impossible plan."""


def _even_split(
    ordered: Sequence[Request], free_cores: Tuple[int, ...]
) -> Assignment:
    """Split ``free_cores`` into contiguous runs over the first requests.

    The first ``min(len(ordered), len(free_cores))`` requests each get a
    contiguous slice of the free-core list; leftover cores go to the
    earlier (higher-priority) requests, one extra each.
    """
    k = min(len(ordered), len(free_cores))
    base, extra = divmod(len(free_cores), k)
    out: Assignment = []
    i = 0
    for j in range(k):
        size = base + (1 if j < extra else 0)
        out.append((ordered[j], tuple(free_cores[i:i + size])))
        i += size
    return out


class SchedulingPolicy:
    """Base class; subclasses override :meth:`plan` (and optionally
    :meth:`admit` for continuous-mode backfill behavior)."""

    name = "?"

    def plan(
        self,
        queue: Sequence[Request],
        npu: NPUConfig,
        predictor: LatencyPredictor,
        cores: Optional[Tuple[int, ...]] = None,
    ) -> Assignment:
        """Pick the next wave from ``queue`` (non-empty, arrival order).

        ``cores`` is the available core set (default: every core of the
        machine); assignments must stay within it.  Returns at least one
        assignment; the server removes the chosen requests from its
        queue.
        """
        raise NotImplementedError

    def admit(
        self,
        queue: Sequence[Request],
        npu: NPUConfig,
        predictor: LatencyPredictor,
        free_cores: Tuple[int, ...],
    ) -> Assignment:
        """Incremental admission onto the currently-free cores.

        Called by the continuous-mode serving loop whenever
        ``free_cores`` (sorted, non-empty) sit idle and ``queue`` is
        non-empty; other core groups may still be running.  Returns
        assignments confined to ``free_cores`` (an empty list declines
        to admit -- the loop records that as policy stall time).  The default delegates to
        :meth:`plan` over the free set, which keeps custom wave policies
        working in continuous mode without changes.
        """
        return self.plan(queue, npu, predictor, cores=free_cores)


class FifoPolicy(SchedulingPolicy):
    """First come, first served; every request gets all available cores."""

    name = "fifo"

    def plan(
        self,
        queue: Sequence[Request],
        npu: NPUConfig,
        predictor: LatencyPredictor,
        cores: Optional[Tuple[int, ...]] = None,
    ) -> Assignment:
        return [(queue[0], cores or predictor.all_cores)]

    def admit(
        self,
        queue: Sequence[Request],
        npu: NPUConfig,
        predictor: LatencyPredictor,
        free_cores: Tuple[int, ...],
    ) -> Assignment:
        """Backfill in arrival order, splitting the free cores evenly."""
        return _even_split(queue, free_cores)


class SjfPolicy(SchedulingPolicy):
    """Shortest predicted job first; every request gets all available cores.

    Prediction comes from the program cache's isolated simulation, so
    ranking N queued requests costs one simulation per *distinct* model,
    not per request.  Ties break by arrival order.
    """

    name = "sjf"

    def plan(
        self,
        queue: Sequence[Request],
        npu: NPUConfig,
        predictor: LatencyPredictor,
        cores: Optional[Tuple[int, ...]] = None,
    ) -> Assignment:
        cores = cores or predictor.all_cores
        best = min(
            queue,
            key=lambda r: (predictor.predicted_latency_us(r.model, cores), r.rid),
        )
        return [(best, cores)]

    def admit(
        self,
        queue: Sequence[Request],
        npu: NPUConfig,
        predictor: LatencyPredictor,
        free_cores: Tuple[int, ...],
    ) -> Assignment:
        """Backfill shortest-first, splitting the free cores evenly.

        Ordering uses the whole-machine predicted latency as the work
        proxy (one cached simulation per distinct model, the same proxy
        :meth:`DynamicPolicy._pack` uses), so the ranking is stable no
        matter which cores happen to be free.
        """
        ordered = sorted(
            queue,
            key=lambda r: (predictor.predicted_latency_us(r.model), r.rid),
        )
        return _even_split(ordered, free_cores)


class DynamicPolicy(SchedulingPolicy):
    """Dynamic core-group allocation: pack concurrent requests.

    For every candidate width ``w`` up to ``min(len(queue), len(cores),
    max_width)``, the oldest ``w`` requests get contiguous disjoint core
    groups sized longest-processing-time first (every request one core,
    each spare core to the request with the most remaining per-core
    work), and the candidate wave's latency is *measured* by simulating
    its merged program (memoized per wave shape in the predictor -- this
    is what prices cross-group bus contention, which isolated estimates
    miss).  The width that maximizes requests served per microsecond
    wins; ties go to the narrower wave.

    With a reduced ``cores`` set (degraded mode) the groups are
    contiguous runs of the *surviving* core list, so e.g. losing core 1
    of three leaves the packable groups ``(0,)``, ``(2,)``, ``(0, 2)``.
    """

    name = "dynamic"

    def __init__(self, max_width: int = 0) -> None:
        if max_width < 0:
            raise ValueError("max_width must be >= 0")
        self.max_width = max_width

    def plan(
        self,
        queue: Sequence[Request],
        npu: NPUConfig,
        predictor: LatencyPredictor,
        cores: Optional[Tuple[int, ...]] = None,
    ) -> Assignment:
        cores = cores or predictor.all_cores
        width_cap = min(len(queue), len(cores))
        if self.max_width:
            width_cap = min(width_cap, self.max_width)
        best_throughput = 0.0
        best: Assignment = []
        for width in range(1, width_cap + 1):
            picked = list(queue[:width])
            groups = self._pack(picked, cores, predictor, width)
            pattern = tuple(
                (r.model, g) for r, g in zip(picked, groups)
            )
            # Static pre-screen: the analytic lower bound caps a wave's
            # achievable throughput at width / lb.  When even that loses
            # to (or only ties) the incumbent, the measured wave cannot
            # win -- the winner update below is strictly ``>`` -- so the
            # simulation is skipped without changing any decision.
            lb_us = predictor.wave_bound_us(pattern)[0]
            if lb_us > 0.0 and width / lb_us <= best_throughput:
                continue
            wave_us = predictor.wave_latency_us(pattern)
            throughput = width / wave_us
            if throughput > best_throughput:
                best_throughput = throughput
                best = list(zip(picked, groups))
        return best

    @staticmethod
    def _pack(
        picked: Sequence[Request],
        cores: Tuple[int, ...],
        predictor: LatencyPredictor,
        width: int,
    ) -> List[Tuple[int, ...]]:
        """Contiguous disjoint groups covering the available cores, LPT.

        Work proxy: the whole-machine predicted latency (one cached
        simulation per distinct model).
        """
        work = [predictor.predicted_latency_us(r.model) for r in picked]
        sizes = [1] * width
        for _ in range(len(cores) - width):
            # deterministic argmax of remaining per-core work.
            i = max(
                range(width),
                key=lambda j: (work[j] / sizes[j], -j),
            )
            sizes[i] += 1
        groups: List[Tuple[int, ...]] = []
        next_core = 0
        for size in sizes:
            groups.append(tuple(cores[next_core:next_core + size]))
            next_core += size
        return groups


_POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    p.name: p for p in (FifoPolicy, SjfPolicy, DynamicPolicy)
}

#: registered policy names, in presentation order.
POLICY_NAMES: Tuple[str, ...] = ("fifo", "sjf", "dynamic")


def get_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by registry name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; one of {sorted(_POLICIES)}"
        ) from None


def validate_assignments(
    policy: SchedulingPolicy,
    assignments: Sequence[Tuple[Request, Tuple[int, ...]]],
    queue: Sequence[Request],
    npu: NPUConfig,
    allowed_cores: Optional[Tuple[int, ...]] = None,
    allow_empty: bool = False,
) -> None:
    """Guard rails for (possibly user-supplied) policies.

    An empty plan over a non-empty queue is rejected by name -- the
    serving loop would otherwise spin forever on a policy that never
    schedules anything.  The serving loop passes ``allowed_cores`` (the
    free set assignments must stay within) in both modes, and
    ``allow_empty=True`` for continuous admission (declining to backfill
    is legal there, the loop accounts it as policy stall time).
    """
    if not assignments:
        if allow_empty:
            return
        raise PolicyError(
            f"policy {policy.name!r} returned an empty wave for a "
            f"non-empty queue ({len(queue)} request(s) waiting)"
        )
    queued = {r.rid for r in queue}
    allowed = set(allowed_cores) if allowed_cores is not None else None
    used: set = set()
    scheduled: set = set()
    for request, cores in assignments:
        if request.rid not in queued:
            raise PolicyError(
                f"policy {policy.name!r} scheduled request {request.rid}, "
                "which is not queued"
            )
        if request.rid in scheduled:
            raise PolicyError(
                f"policy {policy.name!r} scheduled request {request.rid} twice"
            )
        scheduled.add(request.rid)
        if not cores:
            raise PolicyError(
                f"policy {policy.name!r}: request {request.rid} got an "
                "empty core group"
            )
        for c in cores:
            if not 0 <= c < npu.num_cores:
                raise PolicyError(
                    f"policy {policy.name!r}: request {request.rid} uses "
                    f"core {c}, out of range"
                )
            if allowed is not None and c not in allowed:
                raise PolicyError(
                    f"policy {policy.name!r}: request {request.rid} uses "
                    f"core {c}, which is not free"
                )
            if c in used:
                raise PolicyError(
                    f"policy {policy.name!r}: core {c} assigned to two "
                    "requests at once"
                )
            used.add(c)
