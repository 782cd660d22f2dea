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

from repro.analysis.critical_path import (
    category_of,
    engine_predecessors,
    longest_path_times,
    walk_bindings,
)
from repro.compiler.program import CommandKind, Program
from repro.cost.compute import compute_cycles
from repro.hw.config import NPUConfig
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

#: attribute under which per-machine bounds reports are cached on a
#: Program (sibling of the simulator's ``_sim_plans`` plan cache).
_BOUNDS_ATTR = "_sim_bounds"

_HALO_KINDS = (CommandKind.HALO_SEND, CommandKind.HALO_RECV)


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
    program: Program, npu: NPUConfig, n_dma_queues: int
) -> Tuple[List[float], List[float], float]:
    """Per-command (optimistic, pessimistic) durations + total DMA bytes."""
    n = len(program.commands)
    lo = [0.0] * n
    hi = [0.0] * n
    bw = npu.bus_bytes_per_cycle
    dram_latency = npu.dram_latency_cycles
    total_bytes = 0.0
    for cmd in program.commands:
        cid = cmd.cid
        kind = cmd.kind
        if kind is CommandKind.COMPUTE:
            d = compute_cycles(cmd.macs, npu.core(cmd.core))
            lo[cid] = hi[cid] = d
        elif kind is CommandKind.BARRIER:
            lo[cid] = cmd.cycles
            hi[cid] = cmd.cycles + npu.sync_jitter_cycles
        else:  # DMA: fixed latency, optional jitter, then the bus.
            base = dram_latency + cmd.cycles
            jitter = npu.halo_jitter_cycles if kind in _HALO_KINDS else 0.0
            lo[cid] = base
            hi[cid] = base + jitter
            if cmd.num_bytes > 0:
                cap = npu.core(cmd.core).dma_bytes_per_cycle
                full = min(cap, bw)
                shared = min(cap, bw / n_dma_queues) if n_dma_queues else full
                lo[cid] += max(0.0, cmd.num_bytes - _LB_BYTE_SLACK) / full
                hi[cid] += cmd.num_bytes / shared
                total_bytes += max(0.0, cmd.num_bytes - _LB_BYTE_SLACK)
    return lo, hi, total_bytes


def compute_bounds(program: Program, npu: NPUConfig) -> BoundsReport:
    """Derive the analytic latency bracket of ``program`` on ``npu``.

    Seed-independent: the lower bound assumes zero coordination jitter,
    the upper bound the configured jitter maxima, so one bracket holds
    for every seed.  Cost is two O(commands + edges) longest-path
    sweeps; use :func:`bounds_for` for the per-program cached variant.
    """
    program.validate()
    commands = program.commands
    if not commands:
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

    dma_queues = {
        (cmd.core, cmd.engine)
        for cmd in commands
        if cmd.is_dma and cmd.num_bytes > 0
    }
    n_dma = len(dma_queues)
    lo, hi, total_bytes = _durations(program, npu, n_dma)

    engine_prev = engine_predecessors(program)
    _, lb_finish, lb_bindings = longest_path_times(program, lo, engine_prev)
    _, ub_finish, _ = longest_path_times(program, hi, engine_prev)

    last = max(range(len(commands)), key=lambda c: (lb_finish[c], -c))
    critical = lb_finish[last]
    upper = max(ub_finish)

    queue_work: Dict[Tuple[int, object], float] = {}
    for cmd in commands:
        key = (cmd.core, cmd.engine)
        queue_work[key] = queue_work.get(key, 0.0) + lo[cmd.cid]
    engine_serial = max(queue_work.values())

    bw = npu.bus_bytes_per_cycle
    bus_floor = total_bytes / bw if bw > 0 else 0.0

    lower = max(critical, engine_serial, bus_floor)

    path = walk_bindings(lb_bindings, last)
    breakdown: Dict[str, float] = {}
    for cid, _bound_by in path:
        cat = category_of(commands[cid].kind)
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
        num_commands=len(commands),
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
    """Cached :func:`compute_bounds`, keyed like the simulator plan cache.

    The cache lives on the program object keyed by the (hashable,
    frozen) machine description, so repeated oracle checks and
    predictor pre-screens pay the derivation once per machine.
    """
    cache: Optional[Dict[NPUConfig, BoundsReport]] = getattr(
        program, _BOUNDS_ATTR, None
    )
    if cache is None:
        cache = {}
        setattr(program, _BOUNDS_ATTR, cache)
    report = cache.get(npu)
    if report is None or report.num_commands != len(program.commands):
        report = compute_bounds(program, npu)
        cache[npu] = report
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
