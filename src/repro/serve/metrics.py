"""Serving metrics: latency percentiles, SLO compliance, utilization.

Clean runs produce the exact report schema this module always had;
runs under a non-empty fault plan additionally attach a
:class:`DegradedStats` section and shed-request records, and
continuous-mode runs a :class:`ContinuousStats` section.  The extra
keys appear in ``to_dict`` output only when a degradation section is
present, which keeps clean-path reports byte-identical whether or not
the fault machinery is importable, configured, or passed an empty plan.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.request import Request, RequestResult


def percentile(xs: Sequence[float], p: float) -> Optional[float]:
    """Linearly-interpolated percentile (p in [0, 100]); ``None`` on empty.

    Uses the inclusive "linear" method (numpy's default): the rank is
    ``p/100 * (n - 1)`` and fractional ranks interpolate between the two
    neighboring order statistics.  The nearest-rank method used before
    degenerates at small samples -- at n=19 every percentile above
    ~94.7% lands on the same (maximum) observation, so p95 == p99 and
    tail-latency comparisons go blind exactly where they matter.

    An empty sample has no order statistics, so the result is ``None``,
    never a number.  Returning ``0.0`` here (as this function once did)
    made an idle or dead fleet device report p99=0 and drag every
    fleet-level min/mean toward zero; ``None`` forces aggregators to
    exclude no-data devices explicitly.

    NaN inputs are rejected: ``sorted`` places NaNs arbitrarily (every
    comparison is False), so any order statistic over them would be an
    undefined value presented as a real percentile.
    """
    if not xs:
        return None
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100]")
    if any(x != x for x in xs):  # NaN is the only value that != itself
        raise ValueError("percentile over NaN input")
    ordered = sorted(xs)
    rank = (len(ordered) - 1) * (p / 100.0)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0 or lo + 1 >= len(ordered):
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


@dataclasses.dataclass(frozen=True)
class ShedRecord:
    """A request the degraded-mode server explicitly gave up on."""

    request: Request
    #: serving time at which the request was shed.
    shed_us: float
    #: why: ``"slo"`` (admission would hopelessly miss the SLO),
    #: ``"retries"`` (exhausted the retry budget), or ``"no-cores"``.
    reason: str

    def to_dict(self) -> Dict:
        return {
            "rid": self.request.rid,
            "model": self.request.model,
            "arrival_us": self.request.arrival_us,
            "slo_us": self.request.slo_us,
            "shed_us": self.shed_us,
            "reason": self.reason,
        }


@dataclasses.dataclass(frozen=True)
class DegradedStats:
    """The degradation section of a fault-injected serving report."""

    #: human-readable description of the injected fault plan.
    faults: str
    #: total re-executions (a request served on attempt 3 counts 2).
    num_retries: int
    #: injections (gang waves or continuous admissions) that lost at
    #: least one request to a fault.
    num_failed_waves: int
    #: requests explicitly shed (SLO pressure or retry exhaustion).
    num_shed: int
    #: shed requests / all requests.
    shed_rate: float
    #: cores offline by the end of the run.
    dead_cores: Tuple[int, ...]
    #: compute cycles at reduced DVFS frequency / all compute cycles.
    throttled_fraction: float
    #: total start-delay cycles injected by stall windows.
    stall_cycles: float

    def to_dict(self) -> Dict:
        return {
            "faults": self.faults,
            "num_retries": self.num_retries,
            "num_failed_waves": self.num_failed_waves,
            "num_shed": self.num_shed,
            "shed_rate": self.shed_rate,
            "dead_cores": list(self.dead_cores),
            "throttled_fraction": self.throttled_fraction,
            "stall_cycles": self.stall_cycles,
        }


@dataclasses.dataclass(frozen=True)
class AdmissionRecord:
    """One continuous-mode admission: a request starting on freed cores."""

    rid: int
    #: serving time the request was admitted (its first commands start
    #: immediately -- the engines were idle).
    t_us: float
    #: the core group it was admitted onto.
    cores: Tuple[int, ...]
    #: queued requests at the admission instant (including this one).
    queue_len: int
    #: the full free-core set the policy chose from.
    free_cores: Tuple[int, ...]
    #: how long the slowest core of the group had been sitting free
    #: (includes ramp-up idle before the first admission touches it).
    backfill_us: float

    def to_dict(self) -> Dict:
        return {
            "rid": self.rid,
            "t_us": self.t_us,
            "cores": list(self.cores),
            "queue_len": self.queue_len,
            "free_cores": list(self.free_cores),
            "backfill_us": self.backfill_us,
        }


@dataclasses.dataclass(frozen=True)
class ContinuousStats:
    """The backfill-accounting section of a continuous-mode report.

    ``policy_stall_us`` is the work-conservation ledger: serving time
    that passed while at least one core sat free, the queue was
    non-empty, and the policy declined to admit anything.  The shipped
    policies keep it at exactly zero; a custom policy that waits shows
    up here instead of silently inflating queue times.
    """

    #: requests admitted (each admission is one injected program).
    num_admissions: int
    #: time cores idled with admissible work queued (0 = work-conserving).
    policy_stall_us: float
    #: per-core time not covered by any admitted request, over the makespan.
    core_idle_us: Tuple[float, ...]
    #: mean / max over admissions of how long the group sat free first.
    mean_backfill_us: float
    max_backfill_us: float
    #: the full admission trace, in admission order.
    admissions: Tuple[AdmissionRecord, ...] = dataclasses.field(
        default=(), repr=False
    )

    def to_dict(self, include_admissions: bool = False) -> Dict:
        out = {
            "num_admissions": self.num_admissions,
            "policy_stall_us": self.policy_stall_us,
            "core_idle_us": list(self.core_idle_us),
            "mean_backfill_us": self.mean_backfill_us,
            "max_backfill_us": self.max_backfill_us,
        }
        if include_admissions:
            out["admissions"] = [a.to_dict() for a in self.admissions]
        return out


@dataclasses.dataclass(frozen=True)
class ServeReport:
    """Aggregated outcome of serving one workload under one policy."""

    policy: str
    machine: str
    models: Tuple[str, ...]
    seed: int
    rps: float
    duration_us: float
    num_requests: int
    num_waves: int
    #: completion time of the last request (0 for an empty workload).
    makespan_us: float
    #: latency percentiles; ``None`` when no request was served (an
    #: idle or dead device has no latency distribution to summarize).
    p50_us: Optional[float]
    p95_us: Optional[float]
    p99_us: Optional[float]
    mean_latency_us: float
    mean_queue_us: float
    mean_exec_us: float
    slo_miss_rate: float
    #: completed requests per second of simulated time.
    throughput_rps: float
    #: busy fraction per core over the serving makespan.
    utilization: Tuple[float, ...]
    #: distinct merged programs built (each one verifier-clean).
    verified_programs: int
    results: Tuple[RequestResult, ...] = dataclasses.field(repr=False)
    #: degradation section; ``None`` on clean (fault-free) runs.
    degraded: Optional[DegradedStats] = None
    #: requests explicitly shed by the degraded-mode server.
    shed: Tuple[ShedRecord, ...] = ()
    #: backfill accounting; ``None`` on gang-scheduled runs.
    continuous: Optional[ContinuousStats] = None

    @property
    def mode(self) -> str:
        """Scheduling mode that produced this report."""
        return "continuous" if self.continuous is not None else "gang"

    @property
    def mean_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return sum(self.utilization) / len(self.utilization)

    def to_dict(self, include_requests: bool = False) -> Dict:
        out = {
            "policy": self.policy,
            "machine": self.machine,
            "models": list(self.models),
            "seed": self.seed,
            "rps": self.rps,
            "duration_us": self.duration_us,
            "num_requests": self.num_requests,
            "num_waves": self.num_waves,
            "makespan_us": self.makespan_us,
            # Percentile keys are omitted (not emitted as null) when no
            # request was served: a consumer that averages "p99_us"
            # across devices then cannot accidentally count a dead
            # device as a zero-latency one.
            **(
                {
                    "p50_us": self.p50_us,
                    "p95_us": self.p95_us,
                    "p99_us": self.p99_us,
                }
                if self.p50_us is not None
                else {}
            ),
            "mean_latency_us": self.mean_latency_us,
            "mean_queue_us": self.mean_queue_us,
            "mean_exec_us": self.mean_exec_us,
            "slo_miss_rate": self.slo_miss_rate,
            "throughput_rps": self.throughput_rps,
            "utilization": list(self.utilization),
            "mean_utilization": self.mean_utilization,
            "verified_programs": self.verified_programs,
        }
        # Degradation keys only exist on degraded reports, so clean
        # reports stay byte-identical to the pre-fault-injection schema.
        if self.degraded is not None:
            out["degraded"] = self.degraded.to_dict()
            out["shed_requests"] = [s.to_dict() for s in self.shed]
        # Likewise, the backfill section only exists on continuous-mode
        # reports, so gang reports keep the pre-continuous schema.
        if self.continuous is not None:
            out["mode"] = self.mode
            out["continuous"] = self.continuous.to_dict()
        if include_requests:
            out["requests"] = [
                {
                    "rid": r.request.rid,
                    "model": r.request.model,
                    "arrival_us": r.request.arrival_us,
                    "slo_us": r.request.slo_us,
                    "start_us": r.start_us,
                    "finish_us": r.finish_us,
                    "queue_us": r.queue_us,
                    "exec_us": r.exec_us,
                    "total_us": r.total_us,
                    "slo_met": r.slo_met,
                    "cores": list(r.cores),
                    "wave": r.wave,
                    **({"attempts": r.attempts} if self.degraded is not None else {}),
                }
                for r in self.results
            ]
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def build_report(
    policy: str,
    machine: str,
    models: Sequence[str],
    seed: int,
    rps: float,
    duration_us: float,
    results: Sequence[RequestResult],
    num_waves: int,
    busy_cycles: Sequence[float],
    makespan_cycles: float,
    latency_us_per_cycle: float,
    verified_programs: int,
    degraded: Optional[DegradedStats] = None,
    shed: Sequence[ShedRecord] = (),
    continuous: Optional[ContinuousStats] = None,
) -> ServeReport:
    """Aggregate per-request results into a :class:`ServeReport`."""
    totals = [r.total_us for r in results]
    queues = [r.queue_us for r in results]
    execs = [r.exec_us for r in results]
    with_slo = [r for r in results if r.request.slo_us > 0]
    missed = sum(1 for r in with_slo if not r.slo_met)
    makespan_us = makespan_cycles * latency_us_per_cycle
    # Clamped to [0, 1]: under fault injection a command can be charged
    # to a core (retry accounting) while the makespan is measured on the
    # surviving timeline, so raw busy/makespan can exceed 1.
    utilization = tuple(
        min(1.0, max(0.0, busy / makespan_cycles)) if makespan_cycles > 0 else 0.0
        for busy in busy_cycles
    )
    return ServeReport(
        policy=policy,
        machine=machine,
        models=tuple(models),
        seed=seed,
        rps=rps,
        duration_us=duration_us,
        num_requests=len(results),
        num_waves=num_waves,
        makespan_us=makespan_us,
        p50_us=percentile(totals, 50),
        p95_us=percentile(totals, 95),
        p99_us=percentile(totals, 99),
        mean_latency_us=sum(totals) / len(totals) if totals else 0.0,
        mean_queue_us=sum(queues) / len(queues) if queues else 0.0,
        mean_exec_us=sum(execs) / len(execs) if execs else 0.0,
        slo_miss_rate=missed / len(with_slo) if with_slo else 0.0,
        throughput_rps=(len(results) / makespan_us * 1e6) if makespan_us > 0 else 0.0,
        utilization=utilization,
        verified_programs=verified_programs,
        results=tuple(results),
        degraded=degraded,
        shed=tuple(shed),
        continuous=continuous,
    )


def results_sorted(results: Sequence[RequestResult]) -> List[RequestResult]:
    """Results in request-id order (waves complete out of order)."""
    return sorted(results, key=lambda r: r.request.rid)
