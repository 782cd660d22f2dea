"""Fleet-scale serving: N simulated devices behind a request router.

One fleet-wide arrival stream (any :mod:`repro.serve.request` arrival
process) is routed -- request by request, in arrival order -- onto N
simulated devices.  Each device is a full single-server instance of the
existing stack: its own :class:`~repro.serve.predictor.LatencyPredictor`
(private :class:`~repro.compiler.cache.ProgramCache` and
:class:`~repro.sim.memo.SimMemo`, like a real device's private compile
and result caches), running the gang or continuous serving loop over
exactly the requests the router handed it.

Routing is a *separate, deterministic pass* over the stream: the router
sees arrival times and its own drain-model estimate of each device's
outstanding work (never simulator internals), which is how a real
front-end load balancer operates.  Because routing fixes the per-device
request lists before any device simulates, the per-device runs are
independent -- they fan out over a ``ProcessPoolExecutor`` with
``jobs > 1`` and produce bit-identical reports either way.

Device death composes with the fault layer: a device killed at
``t_us`` runs under :func:`repro.faults.plan.device_offline_plan`
(every core offline at ``t_us``), so requests routed to it *before*
the death are retried and finally shed by the serving loop, while the
router stops selecting it for arrivals at or after the kill time.  The
fleet report checks the global ledger: requests served plus requests
shed equals requests generated, across the whole fleet, no matter what
died when.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.compiler.options import CompileOptions
from repro.faults.plan import device_offline_plan
from repro.hw.config import NPUConfig
from repro.hw.presets import resolve_machine
from repro.serve.metrics import ServeReport, percentile
from repro.serve.policies import SchedulingPolicy
from repro.serve.predictor import LatencyPredictor
from repro.serve.request import MixEntry, Request, make_arrivals
from repro.sim.memo import SimMemo, machine_fingerprint

#: router policy names :func:`get_router` dispatches on.
ROUTER_NAMES: Tuple[str, ...] = (
    "round-robin",
    "least-loaded",
    "p2c",
    "affinity",
)


@dataclasses.dataclass(frozen=True)
class FleetDevice:
    """One simulated device in the fleet.

    ``killed_at_us`` marks a whole-device death: the router stops
    selecting the device for arrivals at or after that time, and the
    device's own serving run executes under a
    :func:`~repro.faults.plan.device_offline_plan` so earlier requests
    stranded on it are retried and shed rather than silently dropped.
    """

    device_id: int
    npu: NPUConfig
    killed_at_us: Optional[float] = None

    def alive_at(self, t_us: float) -> bool:
        return self.killed_at_us is None or t_us < self.killed_at_us


def make_fleet(
    machines: Union[int, Sequence[Union[str, NPUConfig]]],
    machine: Union[str, NPUConfig] = "exynos2100",
    kills: Optional[Mapping[int, float]] = None,
) -> Tuple[FleetDevice, ...]:
    """Build the device tuple from machine specs.

    ``machines`` is either a device count (a homogeneous fleet of
    ``machine``) or an explicit per-device list of specs -- preset
    names resolved through :func:`repro.hw.presets.resolve_machine`,
    or ready :class:`NPUConfig` objects -- for a mixed fleet.
    ``kills`` maps device id to its death time in serving microseconds.
    """
    kills = dict(kills or {})

    def _resolve(spec: Union[str, NPUConfig]) -> NPUConfig:
        return spec if isinstance(spec, NPUConfig) else resolve_machine(spec)

    if isinstance(machines, int):
        if machines <= 0:
            raise ValueError("fleet needs at least one device")
        npus = [_resolve(machine)] * machines
    else:
        npus = [_resolve(s) for s in machines]
        if not npus:
            raise ValueError("fleet needs at least one device")
    for did in kills:
        if not 0 <= did < len(npus):
            raise ValueError(f"kill names unknown device {did}")
    return tuple(
        FleetDevice(device_id=i, npu=npu, killed_at_us=kills.get(i))
        for i, npu in enumerate(npus)
    )


class _FleetEstimator:
    """Shared per-machine-shape latency estimates for the router.

    Identical machines share one predictor (keyed by machine
    fingerprint), so a 16-device homogeneous fleet compiles each model
    once for routing purposes, not sixteen times.  These estimates
    model the *front-end's* knowledge -- per-device serving still uses
    each device's own private predictor.
    """

    def __init__(self, options: Optional[CompileOptions], seed: int) -> None:
        self.options = options
        self.seed = seed
        self._predictors: Dict[str, LatencyPredictor] = {}

    def predictor_for(self, npu: NPUConfig) -> LatencyPredictor:
        key = machine_fingerprint(npu)
        pred = self._predictors.get(key)
        if pred is None:
            pred = LatencyPredictor(npu, self.options, seed=self.seed)
            self._predictors[key] = pred
        return pred

    def latency_us(self, model: str, npu: NPUConfig) -> float:
        return self.predictor_for(npu).predicted_latency_us(model)


@dataclasses.dataclass
class _DeviceState:
    """The router's drain-model view of one device."""

    device: FleetDevice
    #: estimated time the device drains everything routed so far.
    est_done_us: float = 0.0
    #: models this device has already served (compile/memo warmth).
    warm: set = dataclasses.field(default_factory=set)
    num_routed: int = 0

    def outstanding_us(self, t_us: float) -> float:
        return max(0.0, self.est_done_us - t_us)


class RequestRouter:
    """Base class for routing policies.

    ``reset`` is called once per run with the device states, the run
    seed, and the shared estimator; ``choose`` is called once per
    request with the states still alive at its arrival and returns the
    chosen state plus a short reason string for the decision trace.
    Routers are deterministic functions of (seed, request stream).
    """

    name = "router"

    def reset(
        self,
        states: Sequence[_DeviceState],
        seed: int,
        estimator: _FleetEstimator,
    ) -> None:
        self.estimator = estimator

    def choose(
        self, request: Request, t_us: float, alive: Sequence[_DeviceState]
    ) -> Tuple[_DeviceState, str]:
        raise NotImplementedError


class RoundRobinRouter(RequestRouter):
    """Cycle through live devices, blind to load and warmth."""

    name = "round-robin"

    def reset(self, states, seed, estimator):
        super().reset(states, seed, estimator)
        self._next = 0

    def choose(self, request, t_us, alive):
        state = alive[self._next % len(alive)]
        self._next += 1
        return state, "rr"


class LeastLoadedRouter(RequestRouter):
    """Send each request to the device with least outstanding work.

    Load is the router's own drain model: every routed request adds its
    predicted service time to the device's estimated drain point, so
    the router needs no feedback channel from the devices.
    """

    name = "least-loaded"

    def choose(self, request, t_us, alive):
        state = min(
            alive, key=lambda s: (s.outstanding_us(t_us), s.device.device_id)
        )
        return state, "least"


class PowerOfTwoRouter(RequestRouter):
    """Sample two live devices uniformly, take the less loaded one.

    The classic load-balancing result: two random choices get most of
    the benefit of global least-loaded while probing O(1) devices.
    The sampling stream is seeded, so routing is reproducible.
    """

    name = "p2c"

    def reset(self, states, seed, estimator):
        super().reset(states, seed, estimator)
        self._rng = random.Random(f"p2c:{seed}")

    def choose(self, request, t_us, alive):
        if len(alive) == 1:
            return alive[0], "p2c:only"
        a, b = self._rng.sample(range(len(alive)), 2)
        sa, sb = alive[a], alive[b]
        if (sa.outstanding_us(t_us), sa.device.device_id) <= (
            sb.outstanding_us(t_us),
            sb.device.device_id,
        ):
            return sa, f"p2c:{sa.device.device_id}|{sb.device.device_id}"
        return sb, f"p2c:{sb.device.device_id}|{sa.device.device_id}"


class CacheAffinityRouter(RequestRouter):
    """Prefer devices that have served the model before, within reason.

    A device that has served a model holds its compiled program and
    memoized simulations, so repeats are cheaper to predict and pack.
    The router keeps a warm-set per device and routes to the least
    loaded warm device -- unless that device's backlog exceeds the
    fleet-wide minimum by more than one predicted service time, in
    which case it spills to the least-loaded device and warms it.
    """

    name = "affinity"

    def choose(self, request, t_us, alive):
        least = min(
            alive, key=lambda s: (s.outstanding_us(t_us), s.device.device_id)
        )
        warm = [s for s in alive if request.model in s.warm]
        if not warm:
            return least, "cold"
        best = min(
            warm, key=lambda s: (s.outstanding_us(t_us), s.device.device_id)
        )
        if best is least:
            return best, "warm"
        slack = self.estimator.latency_us(request.model, best.device.npu)
        if best.outstanding_us(t_us) <= least.outstanding_us(t_us) + slack:
            return best, "warm"
        return least, "spill"


_ROUTERS: Dict[str, Callable[[], RequestRouter]] = {
    "round-robin": RoundRobinRouter,
    "least-loaded": LeastLoadedRouter,
    "p2c": PowerOfTwoRouter,
    "affinity": CacheAffinityRouter,
}


def get_router(name: str) -> RequestRouter:
    """Router instance by name (one of :data:`ROUTER_NAMES`)."""
    factory = _ROUTERS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown router {name!r}; one of {', '.join(ROUTER_NAMES)}"
        )
    return factory()


@dataclasses.dataclass(frozen=True)
class RouteRecord:
    """One routing decision, for the fleet decision trace."""

    rid: int
    model: str
    arrival_us: float
    device: int
    #: why this device: ``"rr"``, ``"least"``, ``"p2c:a|b"``, ``"warm"``,
    #: ``"cold"``, ``"spill"``, or ``"dead-fleet"`` (no device alive).
    reason: str
    #: the router's outstanding-work estimate of the chosen device at
    #: the decision instant, before this request was added.
    queue_est_us: float

    def to_dict(self) -> Dict:
        return {
            "rid": self.rid,
            "model": self.model,
            "arrival_us": self.arrival_us,
            "device": self.device,
            "reason": self.reason,
            "queue_est_us": self.queue_est_us,
        }


def route_requests(
    requests: Sequence[Request],
    devices: Sequence[FleetDevice],
    router: Union[str, RequestRouter],
    estimator: _FleetEstimator,
    seed: int = 0,
) -> Tuple[Dict[int, List[Request]], List[RouteRecord]]:
    """Route one arrival stream across the fleet, in arrival order.

    Dead devices (arrival at or after ``killed_at_us``) are excluded
    from the candidate set, which is the re-balancing behavior: load
    that would have landed on a dead device flows to the survivors.
    If *no* device is alive, the request still must be accounted for:
    it is routed to the device that died last, whose degraded serving
    loop sheds it with reason ``"no-cores"`` -- the fleet-wide
    served+shed==generated ledger stays exact even through total loss.
    """
    if isinstance(router, str):
        router = get_router(router)
    states = [_DeviceState(device=d) for d in devices]
    router.reset(states, seed, estimator)
    assigned: Dict[int, List[Request]] = {d.device_id: [] for d in devices}
    trace: List[RouteRecord] = []
    for req in sorted(requests, key=lambda r: (r.arrival_us, r.rid)):
        t = req.arrival_us
        alive = [s for s in states if s.device.alive_at(t)]
        if alive:
            state, reason = router.choose(req, t, alive)
        else:
            state = max(
                states,
                key=lambda s: (s.device.killed_at_us or 0.0, -s.device.device_id),
            )
            reason = "dead-fleet"
        queue_est = state.outstanding_us(t)
        est = estimator.latency_us(req.model, state.device.npu)
        state.est_done_us = max(state.est_done_us, t) + est
        state.warm.add(req.model)
        state.num_routed += 1
        assigned[state.device.device_id].append(req)
        trace.append(
            RouteRecord(
                rid=req.rid,
                model=req.model,
                arrival_us=t,
                device=state.device.device_id,
                reason=reason,
                queue_est_us=queue_est,
            )
        )
    return assigned, trace


def _serve_one_device(
    device: FleetDevice,
    requests: Sequence[Request],
    models: Sequence[MixEntry],
    policy: Union[str, SchedulingPolicy],
    mode: str,
    options: Optional[CompileOptions],
    seed: int,
    rps: float,
    duration_us: float,
    retry_limit: int,
    backoff_us: float,
) -> Tuple[int, ServeReport, Dict[str, float], Tuple[int, int]]:
    """Run one device's serving loop over its routed requests.

    Private predictor per device -- its own compile cache and its own
    ``SimMemo`` (``store_on_first_miss=True``), so the memo hit rate in
    the returned stats measures *this device's* warmth, which is what
    the affinity-router tests assert on.
    """
    from repro.serve.server import serve

    memo = SimMemo(store_on_first_miss=True)
    predictor = LatencyPredictor(device.npu, options, seed=seed, memo=memo)
    faults = None
    if device.killed_at_us is not None:
        # Whole-device death: every core offline at the kill time.  The
        # serving loop sheds stranded work with reason "no-cores"
        # unconditionally, so no SLO-shedding policy change is needed
        # to keep the fleet ledger exact.
        faults = device_offline_plan(device.npu.num_cores, device.killed_at_us)
    report = serve(
        models,
        device.npu,
        policy=policy,
        rps=rps,
        duration_us=duration_us,
        seed=seed,
        options=options,
        predictor=predictor,
        faults=faults,
        retry_limit=retry_limit,
        backoff_us=backoff_us,
        shed_slo=False,
        mode=mode,
        requests=list(requests),
        device_id=device.device_id,
    )
    return (
        device.device_id,
        report,
        memo.stats(),
        predictor.cache.stats(),
    )


def _fleet_worker(payload: Tuple) -> Tuple[int, ServeReport, Dict, Tuple[int, int]]:
    """Module-level (picklable) wrapper for the process pool."""
    return _serve_one_device(*payload)


@dataclasses.dataclass(frozen=True)
class DeviceSummary:
    """One device's slice of the fleet outcome."""

    device_id: int
    machine: str
    killed_at_us: Optional[float]
    num_routed: int
    num_served: int
    num_shed: int
    #: simulation-memo counters for this device's private cache.
    memo_stats: Dict[str, float]
    #: (hits, misses) of the device's private compile cache.
    cache_stats: Tuple[int, int]
    report: ServeReport = dataclasses.field(repr=False)

    def to_dict(self) -> Dict:
        out: Dict = {
            "device": self.device_id,
            "machine": self.machine,
            "routed": self.num_routed,
            "served": self.num_served,
            "shed": self.num_shed,
            "mean_utilization": self.report.mean_utilization,
            "memo_hit_rate": self.memo_stats.get("hit_rate", 0.0),
        }
        if self.killed_at_us is not None:
            out["killed_at_us"] = self.killed_at_us
        if self.report.p50_us is not None:
            out["p50_us"] = self.report.p50_us
            out["p95_us"] = self.report.p95_us
            out["p99_us"] = self.report.p99_us
        return out


@dataclasses.dataclass(frozen=True)
class FleetReport:
    """Aggregated outcome of serving one workload across the fleet.

    Percentiles pool every served request's latency fleet-wide;
    devices that served nothing (killed at t=0, or simply never
    routed to) contribute no samples rather than fake zeros -- that is
    the observable consequence of :func:`~repro.serve.metrics.percentile`
    returning ``None`` on empty input.
    """

    router: str
    policy: str
    mode: str
    arrival: str
    models: Tuple[str, ...]
    seed: int
    rps: float
    duration_us: float
    num_devices: int
    num_generated: int
    num_served: int
    num_shed: int
    p50_us: Optional[float]
    p95_us: Optional[float]
    p99_us: Optional[float]
    mean_latency_us: float
    slo_miss_rate: float
    #: served requests per second of fleet makespan.
    throughput_rps: float
    #: completion time of the last request anywhere in the fleet.
    makespan_us: float
    #: pooled simulation-memo hit rate across the devices.
    memo_hit_rate: float
    devices: Tuple[DeviceSummary, ...]
    trace: Tuple[RouteRecord, ...] = dataclasses.field(repr=False)

    @property
    def conserved(self) -> bool:
        """The fleet-wide ledger: served + shed == generated."""
        return self.num_served + self.num_shed == self.num_generated

    def to_dict(
        self, include_trace: bool = False, include_devices: bool = True
    ) -> Dict:
        out: Dict = {
            "router": self.router,
            "policy": self.policy,
            "mode": self.mode,
            "arrival": self.arrival,
            "models": list(self.models),
            "seed": self.seed,
            "rps": self.rps,
            "duration_us": self.duration_us,
            "num_devices": self.num_devices,
            "num_generated": self.num_generated,
            "num_served": self.num_served,
            "num_shed": self.num_shed,
            "conserved": self.conserved,
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
            "slo_miss_rate": self.slo_miss_rate,
            "throughput_rps": self.throughput_rps,
            "makespan_us": self.makespan_us,
            "memo_hit_rate": self.memo_hit_rate,
        }
        if include_devices:
            out["devices"] = [d.to_dict() for d in self.devices]
        if include_trace:
            out["trace"] = [r.to_dict() for r in self.trace]
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def serve_fleet(
    models: Sequence[MixEntry],
    machines: Union[int, Sequence[Union[str, NPUConfig]]],
    machine: Union[str, NPUConfig] = "exynos2100",
    router: Union[str, RequestRouter] = "round-robin",
    policy: Union[str, SchedulingPolicy] = "fifo",
    mode: str = "continuous",
    rps: float = 3000.0,
    duration_us: float = 20_000.0,
    seed: int = 0,
    options: Optional[CompileOptions] = None,
    slo_scale: float = 5.0,
    max_requests: int = 0,
    arrival: str = "poisson",
    arrival_kwargs: Optional[Dict] = None,
    kills: Optional[Mapping[int, float]] = None,
    jobs: int = 1,
    retry_limit: int = 3,
    backoff_us: float = 200.0,
    requests: Optional[Sequence[Request]] = None,
) -> FleetReport:
    """Serve one fleet-wide workload across N routed devices.

    The stream is generated once (``arrival`` selects the process --
    see :data:`repro.serve.request.ARRIVAL_KINDS`; SLOs derive from the
    reference device 0's isolated latencies so they do not depend on
    routing), routed by ``router``, then each device serves its share
    independently -- serially, or fanned out over a process pool with
    ``jobs > 1``; results are bit-identical either way.  ``kills`` maps
    device ids to whole-device death times.
    """
    devices = make_fleet(machines, machine=machine, kills=kills)
    router_obj = get_router(router) if isinstance(router, str) else router
    estimator = _FleetEstimator(options, seed)
    ref = estimator.predictor_for(devices[0].npu)

    if requests is None:
        kwargs = dict(arrival_kwargs or {})
        if arrival == "sessions" and "service_estimate_us" not in kwargs:
            # Closed-loop users wait out the model's real service time;
            # the reference predictor is the natural estimate.
            kwargs["service_estimate_us"] = ref.predicted_latency_us
        requests = make_arrivals(
            arrival,
            models,
            rps,
            duration_us,
            seed=seed,
            max_requests=max_requests,
            slo_of=ref.slo_of(slo_scale),
            **kwargs,
        )

    assigned, trace = route_requests(
        requests, devices, router_obj, estimator, seed=seed
    )

    payloads = [
        (
            d,
            assigned[d.device_id],
            models,
            policy,
            mode,
            options,
            seed,
            rps,
            duration_us,
            retry_limit,
            backoff_us,
        )
        for d in devices
    ]
    if jobs > 1 and len(devices) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(devices))) as pool:
            outcomes = list(pool.map(_fleet_worker, payloads))
    else:
        outcomes = [_fleet_worker(p) for p in payloads]

    summaries: List[DeviceSummary] = []
    totals: List[float] = []
    slo_total = 0
    slo_missed = 0
    served = 0
    shed = 0
    makespan_us = 0.0
    memo_hits = 0.0
    memo_misses = 0.0
    for device_id, report, memo_stats, cache_stats in outcomes:
        device = devices[device_id]
        summaries.append(
            DeviceSummary(
                device_id=device_id,
                machine=device.npu.name,
                killed_at_us=device.killed_at_us,
                num_routed=len(assigned[device_id]),
                num_served=report.num_requests,
                num_shed=len(report.shed),
                memo_stats=memo_stats,
                cache_stats=cache_stats,
                report=report,
            )
        )
        served += report.num_requests
        shed += len(report.shed)
        makespan_us = max(makespan_us, report.makespan_us)
        memo_hits += memo_stats.get("hits", 0)
        memo_misses += memo_stats.get("misses", 0)
        totals.extend(r.total_us for r in report.results)
        with_slo = [r for r in report.results if r.request.slo_us > 0]
        slo_total += len(with_slo)
        slo_missed += sum(1 for r in with_slo if not r.slo_met)

    memo_total = memo_hits + memo_misses
    return FleetReport(
        router=router_obj.name,
        policy=policy if isinstance(policy, str) else policy.name,
        mode=mode,
        arrival=arrival,
        models=tuple(m if isinstance(m, str) else m[0] for m in models),
        seed=seed,
        rps=rps,
        duration_us=duration_us,
        num_devices=len(devices),
        num_generated=len(requests),
        num_served=served,
        num_shed=shed,
        p50_us=percentile(totals, 50),
        p95_us=percentile(totals, 95),
        p99_us=percentile(totals, 99),
        mean_latency_us=sum(totals) / len(totals) if totals else 0.0,
        slo_miss_rate=slo_missed / slo_total if slo_total else 0.0,
        throughput_rps=(served / makespan_us * 1e6) if makespan_us > 0 else 0.0,
        makespan_us=makespan_us,
        memo_hit_rate=memo_hits / memo_total if memo_total else 0.0,
        devices=tuple(sorted(summaries, key=lambda s: s.device_id)),
        trace=tuple(trace),
    )
