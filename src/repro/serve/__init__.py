"""Request-level serving simulator on top of the compiler + machine sim.

``repro.serve`` answers the question the per-program simulator cannot:
what happens when inference *requests* arrive over time and a scheduler
must decide which ones run when, on which cores.  See
:mod:`repro.serve.server` for the execution model.
"""

from repro.serve.fleet import (
    CacheAffinityRouter,
    DeviceSummary,
    FleetDevice,
    FleetReport,
    LeastLoadedRouter,
    PowerOfTwoRouter,
    ROUTER_NAMES,
    RequestRouter,
    RouteRecord,
    RoundRobinRouter,
    get_router,
    make_fleet,
    route_requests,
    serve_fleet,
)
from repro.serve.metrics import (
    AdmissionRecord,
    ContinuousStats,
    DegradedStats,
    ServeReport,
    ShedRecord,
    build_report,
    percentile,
)
from repro.serve.policies import (
    Assignment,
    DynamicPolicy,
    FifoPolicy,
    POLICY_NAMES,
    PolicyError,
    SchedulingPolicy,
    SjfPolicy,
    get_policy,
    validate_assignments,
)
from repro.serve.predictor import LatencyPredictor
from repro.serve.request import (
    ARRIVAL_KINDS,
    MixEntry,
    Request,
    RequestResult,
    generate_bursty,
    generate_diurnal,
    generate_requests,
    generate_sessions,
    make_arrivals,
)
from repro.serve.seeding import wave_seed
from repro.serve.server import serve, serve_policies

__all__ = [
    "ARRIVAL_KINDS",
    "AdmissionRecord",
    "Assignment",
    "CacheAffinityRouter",
    "ContinuousStats",
    "DegradedStats",
    "DeviceSummary",
    "DynamicPolicy",
    "FifoPolicy",
    "FleetDevice",
    "FleetReport",
    "LatencyPredictor",
    "LeastLoadedRouter",
    "MixEntry",
    "POLICY_NAMES",
    "PolicyError",
    "PowerOfTwoRouter",
    "ROUTER_NAMES",
    "Request",
    "RequestResult",
    "RequestRouter",
    "RouteRecord",
    "RoundRobinRouter",
    "SchedulingPolicy",
    "ServeReport",
    "ShedRecord",
    "SjfPolicy",
    "build_report",
    "generate_bursty",
    "generate_diurnal",
    "generate_requests",
    "generate_sessions",
    "get_policy",
    "get_router",
    "make_arrivals",
    "make_fleet",
    "percentile",
    "route_requests",
    "serve",
    "serve_fleet",
    "serve_policies",
    "validate_assignments",
    "wave_seed",
]
