"""Discrete-event simulator for multicore NPUs."""

from repro.sim.energy import EnergyModel, EnergyReport, compare_energy, estimate_energy
from repro.sim.multitenant import (
    ConcurrentResult,
    auto_assign,
    Tenant,
    TenantResult,
    inject_wave,
    place_program,
    run_concurrent,
    sub_machine,
)
from repro.sim.memo import (
    SimMemo,
    default_memo,
    machine_fingerprint,
    program_fingerprint,
)
from repro.sim.session import InjectionOutcome, SimSession
from repro.sim.simulator import SimResult, simulate
from repro.sim.throughput import ThroughputResult, measure_throughput
from repro.sim.stats import (
    CoreStats,
    RunStats,
    collect_stats,
    count_barrier_groups,
)
from repro.sim.trace import Trace

__all__ = [
    "CoreStats",
    "EnergyModel",
    "EnergyReport",
    "compare_energy",
    "estimate_energy",
    "ConcurrentResult",
    "auto_assign",
    "Tenant",
    "TenantResult",
    "ThroughputResult",
    "measure_throughput",
    "inject_wave",
    "place_program",
    "run_concurrent",
    "sub_machine",
    "InjectionOutcome",
    "RunStats",
    "SimMemo",
    "SimResult",
    "SimSession",
    "Trace",
    "collect_stats",
    "count_barrier_groups",
    "default_memo",
    "machine_fingerprint",
    "program_fingerprint",
    "simulate",
]
