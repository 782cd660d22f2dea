"""Requests and the deterministic arrival-process generators.

A serving workload is a stream of inference *requests*: each names a
model, arrives at a point in simulated time, and optionally carries a
latency SLO.  The basic generator is open-loop (arrivals do not wait
for completions -- the regime that actually stresses a scheduler) with
Poisson interarrivals drawn from one seeded generator, so a fixed
``(models, rps, duration, seed)`` tuple always produces the identical
request stream regardless of scheduling policy.

Three richer processes model what fleet-scale traffic actually looks
like (all deterministic per seed, dispatched by :func:`make_arrivals`):

* :func:`generate_diurnal` -- a non-homogeneous Poisson process whose
  rate follows a sinusoidal day curve (thinning construction);
* :func:`generate_bursty` -- base Poisson load plus seeded flash-crowd
  windows at a multiple of the base rate;
* :func:`generate_sessions` -- per-user closed-loop sessions with
  exponential think time, a user's next request following its previous
  one by (estimated service + think).  The service *estimate* stands in
  for completion feedback so generation stays decoupled from scheduling
  -- the standard closed-loop approximation for trace generators.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable, List, Optional, Sequence, Tuple, Union

#: a workload mix entry: a model name, or (model name, relative weight).
MixEntry = Union[str, Tuple[str, float]]


@dataclasses.dataclass(frozen=True)
class Request:
    """One inference request.

    ``slo_us`` is the end-to-end (queueing + execution) latency target;
    zero means the request carries no SLO.
    """

    rid: int
    model: str
    arrival_us: float
    slo_us: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_us < math.inf:
            raise ValueError(f"request {self.rid}: arrival time {self.arrival_us} is not >= 0")
        if not 0 <= self.slo_us < math.inf:
            raise ValueError(f"request {self.rid}: SLO {self.slo_us} is not >= 0")


@dataclasses.dataclass(frozen=True)
class RequestResult:
    """The served outcome of one request."""

    request: Request
    #: when the request's first command started executing.
    start_us: float
    #: when its last command completed.
    finish_us: float
    #: the core group it ran on.
    cores: Tuple[int, ...]
    #: index of the wave that executed it.
    wave: int
    #: executions it took (1 = first try; >1 means faulted waves were
    #: retried by the degraded-mode server).
    attempts: int = 1

    @property
    def queue_us(self) -> float:
        """Time spent waiting for admission."""
        return max(0.0, self.start_us - self.request.arrival_us)

    @property
    def exec_us(self) -> float:
        """Execution span on the machine (first start to last end)."""
        return self.finish_us - self.start_us

    @property
    def total_us(self) -> float:
        """End-to-end latency: arrival to completion."""
        return self.finish_us - self.request.arrival_us

    @property
    def slo_met(self) -> bool:
        """True when there is no SLO or the end-to-end latency beat it."""
        return self.request.slo_us <= 0 or self.total_us <= self.request.slo_us


def _check_positive(name: str, value: float) -> None:
    """Reject anything but a positive finite number; NaN fails every
    comparison, so ``value <= 0`` alone would let it through."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _normalize_mix(models: Sequence[MixEntry]) -> Tuple[List[str], List[float]]:
    names: List[str] = []
    weights: List[float] = []
    for entry in models:
        if isinstance(entry, str):
            names.append(entry)
            weights.append(1.0)
        else:
            name, weight = entry
            if weight <= 0:
                raise ValueError(f"model {name!r}: weight must be positive")
            names.append(name)
            weights.append(float(weight))
    if not names:
        raise ValueError("workload mix needs at least one model")
    return names, weights


def generate_requests(
    models: Sequence[MixEntry],
    rps: float,
    duration_us: float,
    seed: int = 0,
    max_requests: int = 0,
    slo_of: Optional[Callable[[str], float]] = None,
) -> List[Request]:
    """Draw an open-loop Poisson request stream.

    Arrivals fall in ``[0, duration_us)`` at ``rps`` requests per second
    of simulated time; ``max_requests`` (when positive) additionally
    caps the count.  ``slo_of`` maps a model name to its per-request SLO
    in microseconds (omitted: no SLOs).  Deterministic per seed.
    """
    _check_positive("rps", rps)
    _check_positive("duration_us", duration_us)
    _check_cap(max_requests)
    names, weights = _normalize_mix(models)

    rng = random.Random(seed)
    mean_gap_us = 1e6 / rps
    requests: List[Request] = []
    clock = rng.expovariate(1.0) * mean_gap_us
    while clock < duration_us:
        if max_requests and len(requests) >= max_requests:
            break
        model = rng.choices(names, weights=weights)[0]
        requests.append(
            Request(
                rid=len(requests),
                model=model,
                arrival_us=clock,
                slo_us=slo_of(model) if slo_of is not None else 0.0,
            )
        )
        clock += rng.expovariate(1.0) * mean_gap_us
    return requests


def _check_cap(max_requests: int) -> None:
    """``max_requests`` is a cap (0: none); a negative cap is malformed,
    not an empty workload."""
    if max_requests < 0:
        raise ValueError(f"max_requests must be >= 0, got {max_requests}")


def _finalize(
    draws: List[Tuple[float, str]],
    max_requests: int,
    slo_of: Optional[Callable[[str], float]],
) -> List[Request]:
    """Sort raw (arrival, model) draws and number them into requests.

    The sort is stable, so draws at identical instants keep their
    generation order; rids are therefore a deterministic function of
    the full draw set.
    """
    _check_cap(max_requests)
    draws.sort(key=lambda d: d[0])
    if max_requests:
        draws = draws[:max_requests]
    return [
        Request(
            rid=rid,
            model=model,
            arrival_us=arrival,
            slo_us=slo_of(model) if slo_of is not None else 0.0,
        )
        for rid, (arrival, model) in enumerate(draws)
    ]


def generate_diurnal(
    models: Sequence[MixEntry],
    rps: float,
    duration_us: float,
    seed: int = 0,
    max_requests: int = 0,
    slo_of: Optional[Callable[[str], float]] = None,
    period_us: Optional[float] = None,
    depth: float = 0.8,
    phase: float = 0.0,
) -> List[Request]:
    """A diurnal (sinusoidal-rate) non-homogeneous Poisson stream.

    The instantaneous rate is ``rps * (1 + depth * sin(2*pi * t /
    period_us + phase))``: over whole periods the mean rate is exactly
    ``rps``, but load swings between ``(1 - depth)`` and ``(1 + depth)``
    times that -- the day/night curve a planet-scale service sees
    compressed into simulated time.  ``period_us`` defaults to the full
    duration (one "day" per run).  Built by thinning a homogeneous
    process at the peak rate, so it is deterministic per seed.
    """
    if not 0.0 <= depth <= 1.0:
        raise ValueError("depth must be in [0, 1]")
    _check_positive("rps", rps)
    _check_positive("duration_us", duration_us)
    if period_us is None:
        period_us = duration_us
    _check_positive("period_us", period_us)
    names, weights = _normalize_mix(models)

    rng = random.Random(seed)
    peak_rps = rps * (1.0 + depth)
    mean_gap_us = 1e6 / peak_rps
    draws: List[Tuple[float, str]] = []
    clock = rng.expovariate(1.0) * mean_gap_us
    while clock < duration_us:
        rate = rps * (
            1.0 + depth * math.sin(2.0 * math.pi * clock / period_us + phase)
        )
        if rng.random() < rate / peak_rps:
            draws.append((clock, rng.choices(names, weights=weights)[0]))
        clock += rng.expovariate(1.0) * mean_gap_us
    return _finalize(draws, max_requests, slo_of)


def generate_bursty(
    models: Sequence[MixEntry],
    rps: float,
    duration_us: float,
    seed: int = 0,
    max_requests: int = 0,
    slo_of: Optional[Callable[[str], float]] = None,
    burst_factor: float = 8.0,
    num_bursts: int = 2,
    burst_us: Optional[float] = None,
) -> List[Request]:
    """Base Poisson load with flash-crowd overlay bursts.

    ``num_bursts`` windows of ``burst_us`` (default: 5% of the
    duration) open at seeded uniform instants; inside each, *extra*
    arrivals pour in at ``burst_factor`` times the base rate on top of
    the undisturbed background stream.  Burst placement and content are
    drawn from separate sub-generators, so the background stream is
    reproducible independent of the overlay parameters.
    """
    _check_positive("burst_factor", burst_factor)
    if num_bursts < 0:
        raise ValueError("num_bursts must be >= 0")
    base = generate_requests(models, rps=rps, duration_us=duration_us, seed=seed)
    names, weights = _normalize_mix(models)
    if burst_us is None:
        burst_us = 0.05 * duration_us
    burst_us = min(burst_us, duration_us)

    draws: List[Tuple[float, str]] = [(r.arrival_us, r.model) for r in base]
    burst_rng = random.Random(f"bursts:{seed}")
    mean_gap_us = 1e6 / (rps * burst_factor)
    for _ in range(num_bursts):
        start = burst_rng.uniform(0.0, duration_us - burst_us)
        clock = start + burst_rng.expovariate(1.0) * mean_gap_us
        while clock < start + burst_us and clock < duration_us:
            draws.append(
                (clock, burst_rng.choices(names, weights=weights)[0])
            )
            clock += burst_rng.expovariate(1.0) * mean_gap_us
    return _finalize(draws, max_requests, slo_of)


def generate_sessions(
    models: Sequence[MixEntry],
    duration_us: float,
    seed: int = 0,
    num_users: int = 8,
    think_time_us: float = 2000.0,
    service_estimate_us: Union[float, Callable[[str], float]] = 0.0,
    max_requests: int = 0,
    slo_of: Optional[Callable[[str], float]] = None,
) -> List[Request]:
    """Per-user closed-loop sessions with exponential think time.

    Each of ``num_users`` independent users repeats: pick a model, issue
    a request, wait out that model's *estimated* service time plus an
    exponential think draw, repeat -- so a user never has two requests
    outstanding, the defining property of closed-loop load (offered rate
    self-limits to roughly ``num_users / (service + think)``).  The
    estimate (a float, or a per-model callable such as
    ``predictor.predicted_latency_us``) stands in for real completion
    feedback, keeping generation deterministic and scheduler-agnostic.
    Each user draws from its own ``(seed, user)`` sub-generator, so the
    population composes reproducibly.
    """
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    _check_positive("duration_us", duration_us)
    if not 0 <= think_time_us < math.inf:
        raise ValueError(f"think_time_us must be >= 0 and finite, got {think_time_us}")
    names, weights = _normalize_mix(models)
    estimate = (
        service_estimate_us
        if callable(service_estimate_us)
        else (lambda m: float(service_estimate_us))  # noqa: E731
    )

    draws: List[Tuple[float, str]] = []
    for user in range(num_users):
        rng = random.Random(f"session:{seed}:{user}")
        # Stagger session starts across one think window so the whole
        # population does not fire synchronously at t=0.
        clock = rng.uniform(0.0, think_time_us) if think_time_us > 0 else 0.0
        while clock < duration_us:
            model = rng.choices(names, weights=weights)[0]
            draws.append((clock, model))
            hold = estimate(model)
            if hold < 0:
                raise ValueError(f"negative service estimate for {model!r}")
            clock += hold + rng.expovariate(1.0) * think_time_us
    return _finalize(draws, max_requests, slo_of)


#: arrival-process names :func:`make_arrivals` dispatches on.
ARRIVAL_KINDS: Tuple[str, ...] = ("poisson", "diurnal", "bursty", "sessions")


def make_arrivals(
    kind: str,
    models: Sequence[MixEntry],
    rps: float,
    duration_us: float,
    seed: int = 0,
    max_requests: int = 0,
    slo_of: Optional[Callable[[str], float]] = None,
    **kwargs,
) -> List[Request]:
    """Build a request stream by arrival-process name.

    One entry point for the CLI and the fleet layer; ``kwargs`` pass
    through to the chosen generator (e.g. ``depth=`` for diurnal,
    ``burst_factor=`` for bursty, ``num_users=`` / ``think_time_us=`` /
    ``service_estimate_us=`` for sessions).  For ``"sessions"`` --
    which has no free rate parameter -- ``num_users`` defaults to the
    population whose closed-loop equilibrium offers roughly ``rps``
    given the think time.
    """
    common = dict(
        models=models,
        duration_us=duration_us,
        seed=seed,
        max_requests=max_requests,
        slo_of=slo_of,
    )
    if kind == "poisson":
        return generate_requests(rps=rps, **common)
    if kind == "diurnal":
        return generate_diurnal(rps=rps, **common, **kwargs)
    if kind == "bursty":
        return generate_bursty(rps=rps, **common, **kwargs)
    if kind == "sessions":
        if "num_users" not in kwargs:
            think = kwargs.get("think_time_us", 2000.0)
            kwargs["num_users"] = max(1, round(rps * think / 1e6))
        return generate_sessions(**common, **kwargs)
    raise ValueError(
        f"unknown arrival process {kind!r}; one of {', '.join(ARRIVAL_KINDS)}"
    )
