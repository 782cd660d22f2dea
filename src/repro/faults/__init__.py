"""Fault injection and degraded-mode execution for the NPU simulator.

The clean simulator assumes three cores that never slow down or drop
out; real mobile SoCs share a thermal and power envelope with the rest
of the chip, so the NPU throttles, stalls, and occasionally loses a
core to driver resets.  This package injects exactly those three
regimes into the event-driven simulator, deterministically:

* :class:`ThermalThrottle` -- per-core DVFS frequency stepping driven by
  a heat accumulator over busy cycles;
* :class:`TransientStall` -- seeded stall windows on a core or the bus;
* :class:`CoreOffline` -- a core dies at time t, abandoning every
  in-flight command stream that depends on it.

A :class:`FaultPlan` bundles fault events.  The event loop of
:class:`~repro.sim.session.SimSession` owns the injection points, and
there are two ways in: :func:`repro.sim.simulator.simulate` with
``faults=plan`` runs one program under the plan from t=0 and reports
its :class:`FaultStats`, and :func:`repro.serve.server.serve` runs its
admission loop on fault-armed sessions.  An empty plan is a guaranteed
no-op: the clean run is bit-identical to one without any plan.
"""

from repro.faults.plan import (
    CoreOffline,
    FaultEvent,
    FaultPlan,
    FaultStats,
    ThermalThrottle,
    TransientStall,
    device_offline_plan,
    random_stalls,
)
from repro.faults.spec import parse_fault_spec

__all__ = [
    "CoreOffline",
    "FaultEvent",
    "FaultPlan",
    "FaultStats",
    "ThermalThrottle",
    "TransientStall",
    "device_offline_plan",
    "parse_fault_spec",
    "random_stalls",
]
