"""Static latency brackets over compiled command streams (RPR7xx).

From a :class:`~repro.compiler.program.Program` and an
:class:`~repro.hw.config.NPUConfig` alone -- no simulation -- this pass
computes an analytic bracket ``lower_bound <= makespan <= upper_bound``
that every clean simulated run of the program provably falls inside,
for every seed.  The bracket doubles as:

* a **simulator oracle**: ``simulate(..., check_bounds=True)`` and
  ``SimSession(check_bounds=True)`` assert every clean result against
  its bracket, guarding future rewrites of the simulator hot loop;
* a **pre-screening cost model**: :meth:`repro.serve.LatencyPredictor.bound`
  lets admission policies discard candidate waves whose *best possible*
  throughput cannot beat the incumbent, without simulating them.

Every duration is read from the simulator's plan for the (program,
machine) pair (:class:`~repro.sim.simulator._SimPlan`): its fixed
``base_delay``, its ``jittered`` bounds, and the payload and link cap of
each bus command.  The bracket therefore prices each command exactly as
the event loop does, from one place, and the report itself is kept on
that plan.  Pricing is checked independently: the reference scheduler
under ``tests/sim/`` prices commands without the plan, and
``simulate`` must match it bit for bit.

Soundness argument (both directions are inductions over the simulator's
exact start recurrence ``start[c] = max(done[queue predecessor],
max(done[deps]))``):

* **lower bound** -- every command's simulated service time is at least
  its optimistic duration: compute and the fixed DMA latency are
  deterministic, jitter draws are nonnegative, and a bus transfer at
  full rate ``min(link cap, bus bandwidth)`` can finish no sooner than
  ``bytes / rate`` (minus the epsilon byte residue at which the fluid
  bus retires transfers, absorbed by a small byte slack).  The longest
  path through dependency and engine-order edges with these durations
  is therefore a floor, as is the aggregate-DMA-bytes / bus-bandwidth
  floor (water-filling never allocates more than the bus bandwidth in
  total) and the per-(core, engine) serial-work floor (each in-order
  queue runs one command at a time; always dominated by the longest
  path, which contains every queue chain, but reported for attribution).
* **upper bound** -- a list-scheduling relaxation with worst-case bus
  sharing: at most one ``bytes > 0`` transfer per (core, DMA-engine)
  queue is ever in flight, so water-filling guarantees every transfer a
  rate of at least ``min(link cap, bandwidth / #DMA-queues)``; jitter
  draws are bounded by their configured maxima.  With every duration at
  its pessimistic value the same longest-path recurrence dominates the
  simulated completion times command by command.

Faulted runs (throttling, stalls, core death) deliberately violate the
bracket -- the oracle applies to clean runs only and the wiring refuses
to check anything else.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.critical_path import category_of, longest_path_times, walk_bindings
from repro.compiler.program import Program
from repro.hw.config import NPUConfig
from repro.sim.simulator import _JOIN_BUS, _plan_for, _SimPlan
from repro.verify.diagnostics import PassResult, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compiler import CompiledModel
    from repro.sim.simulator import SimResult

#: byte slack subtracted from optimistic transfer times: the fluid bus
#: retires a transfer once its residual drops below an epsilon, and the
#: float-resolution fallback can retire the nearest transfer a hair
#: early; 1e-3 bytes (< 1e-4 cycles at any shipped rate) covers both.
_LB_BYTE_SLACK = 1e-3

#: containment tolerance: absolute float slop plus a relative term for
#: long programs whose bound DP accumulates rounding differently than
#: the event loop.
_ABS_TOL = 1e-6
_REL_TOL = 1e-9


class BoundsViolation(AssertionError):
    """A simulated makespan escaped its static bracket.

    Raised by ``simulate(check_bounds=True)`` and
    ``SimSession(check_bounds=True)``; either the program under test
    tripped a genuine scheduler bug or the bounds derivation itself
    regressed -- both are stop-the-world findings.
    """

    def __init__(self, makespan_cycles: float, report: "BoundsReport", context: str = "") -> None:
        self.makespan_cycles = makespan_cycles
        self.report = report
        where = f" ({context})" if context else ""
        super().__init__(
            f"simulated makespan {makespan_cycles:,.1f} cycles escaped the "
            f"static bracket [{report.lower_bound_cycles:,.1f}, "
            f"{report.upper_bound_cycles:,.1f}]{where}"
        )


@dataclasses.dataclass(frozen=True)
class BoundsReport:
    """Analytic latency bracket of one (program, machine) pair.

    All times are in cycles of the machine's clock;
    :attr:`lower_bound_us` / :attr:`upper_bound_us` convert using the
    machine frequency captured at derivation time.  ``binding`` names
    the dominant resource of the lower bound: ``compute`` (MAC arrays),
    ``bus`` (DMA traffic on the shared bus), or ``sync`` (barriers and
    halo rendezvous on the critical path).
    """

    num_commands: int
    lower_bound_cycles: float
    upper_bound_cycles: float
    #: longest path through dep + engine-order edges, optimistic durations.
    critical_path_cycles: float
    #: largest per-(core, engine) serial work (always <= critical path).
    engine_serial_cycles: float
    #: total DMA bytes / bus bandwidth.
    bus_floor_cycles: float
    #: dominant lower-bound resource: 'compute' | 'bus' | 'sync'.
    binding: str
    #: optimistic-duration cycles on the lower-bound critical path, per
    #: category (compute / dma / halo / sync).
    breakdown: Dict[str, float]
    #: the lower-bound critical path, last command first.
    path_cids: Tuple[int, ...]
    #: (core, DMA-engine) queues with bytes>0 transfers -- the worst-case
    #: bus sharing degree of the upper bound.
    max_concurrent_dma: int
    frequency_ghz: float

    @property
    def lower_bound_us(self) -> float:
        return self.lower_bound_cycles / (self.frequency_ghz * 1000.0)

    @property
    def upper_bound_us(self) -> float:
        return self.upper_bound_cycles / (self.frequency_ghz * 1000.0)

    def _tolerance(self) -> float:
        return _ABS_TOL + _REL_TOL * self.upper_bound_cycles

    def contains(self, makespan_cycles: float) -> bool:
        """True when a simulated makespan falls inside the bracket."""
        tol = self._tolerance()
        return (
            self.lower_bound_cycles - tol
            <= makespan_cycles
            <= self.upper_bound_cycles + tol
        )

    def tightness(self, makespan_cycles: float) -> float:
        """Simulated / lower bound -- 1.0 is a perfectly tight floor."""
        if self.lower_bound_cycles <= 0.0:
            return 1.0 if makespan_cycles <= 0.0 else float("inf")
        return makespan_cycles / self.lower_bound_cycles

    def assert_contains(self, makespan_cycles: float, context: str = "") -> None:
        if not self.contains(makespan_cycles):
            raise BoundsViolation(makespan_cycles, self, context)

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_commands": self.num_commands,
            "lower_bound_cycles": self.lower_bound_cycles,
            "upper_bound_cycles": self.upper_bound_cycles,
            "lower_bound_us": self.lower_bound_us,
            "upper_bound_us": self.upper_bound_us,
            "critical_path_cycles": self.critical_path_cycles,
            "engine_serial_cycles": self.engine_serial_cycles,
            "bus_floor_cycles": self.bus_floor_cycles,
            "binding": self.binding,
            "breakdown": dict(self.breakdown),
            "max_concurrent_dma": self.max_concurrent_dma,
        }


def _durations(
    plan: _SimPlan, npu: NPUConfig
) -> Tuple[List[float], List[float], float, int]:
    """Per-command (optimistic, pessimistic) durations, read from the plan.

    Both start from the plan's fixed ``base_delay``; the pessimistic
    side adds each ``jittered`` command's jitter bound.  Bus commands
    (``evkind == _JOIN_BUS``: DMA with a payload) then add their
    transfer, at full rate ``min(link cap, bandwidth)`` and at the
    worst-case shared rate ``min(link cap, bandwidth / #DMA-queues)``.
    Also returns the total DMA bytes (less the slack) and the number of
    (core, DMA-engine) queues that hold bus commands.
    """
    evkind = plan.evkind
    bus = [cid for cid in range(plan.total) if evkind[cid] == _JOIN_BUS]
    n_dma_queues = len({plan.qid_of[cid] for cid in bus})
    lo = list(plan.base_delay)
    hi = list(plan.base_delay)
    for cid, bound in plan.jittered:
        hi[cid] += bound
    bw = npu.bus_bytes_per_cycle
    total_bytes = 0.0
    sizes = plan.columns.num_bytes
    for cid in bus:
        num_bytes = sizes[cid]
        cap = plan.dma_cap[cid]
        full = min(cap, bw)
        shared = min(cap, bw / n_dma_queues)
        lo[cid] += max(0.0, num_bytes - _LB_BYTE_SLACK) / full
        hi[cid] += num_bytes / shared
        total_bytes += max(0.0, num_bytes - _LB_BYTE_SLACK)
    return lo, hi, total_bytes, n_dma_queues


def compute_bounds(program: Program, npu: NPUConfig) -> BoundsReport:
    """Derive the analytic latency bracket of ``program`` on ``npu``.

    Seed-independent: the lower bound assumes zero coordination jitter,
    the upper bound the configured jitter maxima, so one bracket holds
    for every seed.  Every duration is read from the simulator's plan
    for the pair (:func:`~repro.sim.simulator._plan_for`, built and
    validated once), so the bracket prices each command exactly as the
    event loop does; the reference scheduler under ``tests/sim/``
    checks that pricing without the plan.  Cost beyond the plan is two
    O(commands + edges) longest-path sweeps; use :func:`bounds_for` for
    the variant kept on the plan.
    """
    plan = _plan_for(program, npu)
    if not plan.total:
        return BoundsReport(
            num_commands=0,
            lower_bound_cycles=0.0,
            upper_bound_cycles=0.0,
            critical_path_cycles=0.0,
            engine_serial_cycles=0.0,
            bus_floor_cycles=0.0,
            binding="compute",
            breakdown={},
            path_cids=(),
            max_concurrent_dma=0,
            frequency_ghz=npu.frequency_ghz,
        )

    lo, hi, total_bytes, n_dma = _durations(plan, npu)
    _, lb_finish, lb_bindings = longest_path_times(program, lo)
    _, ub_finish, _ = longest_path_times(program, hi)

    last = max(range(plan.total), key=lambda c: (lb_finish[c], -c))
    critical = lb_finish[last]
    upper = max(ub_finish)

    engine_serial = 0.0
    for cids in plan.qcids:
        work = 0.0
        for cid in cids:
            work += lo[cid]
        engine_serial = max(engine_serial, work)

    bus_floor = total_bytes / npu.bus_bytes_per_cycle

    lower = max(critical, engine_serial, bus_floor)

    path = walk_bindings(lb_bindings, last)
    kinds = plan.columns.kind
    breakdown: Dict[str, float] = {}
    for cid, _bound_by in path:
        cat = category_of(kinds[cid])
        breakdown[cat] = breakdown.get(cat, 0.0) + lo[cid]

    if bus_floor >= lower:
        binding = "bus"
    else:
        # dominant category along the lower-bound path; halo rendezvous
        # and barriers are both coordination -> 'sync', DMA -> 'bus'.
        grouped = {
            "compute": breakdown.get("compute", 0.0),
            "bus": breakdown.get("dma", 0.0),
            "sync": breakdown.get("sync", 0.0) + breakdown.get("halo", 0.0),
        }
        binding = max(grouped, key=lambda k: (grouped[k], k))

    return BoundsReport(
        num_commands=plan.total,
        lower_bound_cycles=lower,
        upper_bound_cycles=upper,
        critical_path_cycles=critical,
        engine_serial_cycles=engine_serial,
        bus_floor_cycles=bus_floor,
        binding=binding,
        breakdown=breakdown,
        path_cids=tuple(cid for cid, _ in path),
        max_concurrent_dma=n_dma,
        frequency_ghz=npu.frequency_ghz,
    )


def bounds_for(program: Program, npu: NPUConfig) -> BoundsReport:
    """:func:`compute_bounds`, kept on the (program, machine) plan.

    The report lives in the plan's ``bounds`` slot, so it is derived
    once per plan -- repeated oracle checks and predictor pre-screens
    pay for it once per machine -- and rebuilt exactly when the plan
    is.  A placed program runs on its source's plan, so its bracket is
    its source's on the group machine.
    """
    plan = _plan_for(program, npu)
    report = plan.bounds
    if report is None:
        report = plan.bounds = compute_bounds(program, npu)
    return report


def check_bounds_pass(
    compiled: "CompiledModel", sim_result: "Optional[SimResult]" = None
) -> PassResult:
    """The ``bounds`` verifier pass (RPR7xx).

    Always emits the bracket itself as an informational RPR701.  Given
    a simulation result (``repro lint --passes bounds --trace``), also
    cross-checks the measured makespan: inside the bracket emits the
    tightness note RPR702, outside the error RPR710.
    """
    result = PassResult(name="bounds")
    report = bounds_for(compiled.program, compiled.npu)
    result.stats["commands"] = report.num_commands
    result.stats["dma_queues"] = report.max_concurrent_dma
    result.stats["lower_bound_cycles"] = int(report.lower_bound_cycles)
    result.stats["upper_bound_cycles"] = int(report.upper_bound_cycles)
    result.emit(
        "RPR701",
        f"latency bracket [{report.lower_bound_us:,.1f}, "
        f"{report.upper_bound_us:,.1f}] us ({report.binding}-bound; "
        f"critical path {report.critical_path_cycles:,.0f}, "
        f"bus floor {report.bus_floor_cycles:,.0f} cycles)",
        severity=Severity.INFO,
        hint="lower the dominant component to improve the best case",
    )
    if sim_result is not None:
        makespan = sim_result.makespan_cycles
        if report.contains(makespan):
            result.emit(
                "RPR702",
                f"simulated makespan {compiled.npu.cycles_to_us(makespan):,.1f} us "
                f"inside the bracket (tightness sim/lb = "
                f"{report.tightness(makespan):.3f})",
                severity=Severity.INFO,
            )
        else:
            result.emit(
                "RPR710",
                f"simulated makespan {makespan:,.1f} cycles escaped the "
                f"bracket [{report.lower_bound_cycles:,.1f}, "
                f"{report.upper_bound_cycles:,.1f}]",
                severity=Severity.ERROR,
                hint="scheduler or bounds regression; bisect the simulator "
                "against the reference cores in tests/sim/",
            )
    return result
