"""Concurrent execution of multiple networks on disjoint core groups.

The paper motivates multicore NPUs in part by concurrent DNN execution
(Section 1: "multicore NPUs typically bring many benefits, when
concurrent execution of multiple DNNs ... is needed").  This module
implements that use case on top of the existing compiler and simulator:

* each *tenant* (network) is compiled against a sub-machine made of its
  assigned cores -- all partitioning, scheduling, halo and stratum
  machinery applies within the group, and barriers never cross groups;
* each tenant's program is *placed* on the full machine by renaming its
  core indices (:func:`place_program`), and the placed programs run as
  one *wave*: one :class:`~repro.sim.session.SimSession` injection each,
  all at one instant (:func:`inject_wave`), so the tenants contend for
  the one thing they physically share: the bus to global memory.

The result quantifies interference: per-tenant latency inflation versus
running alone on the same cores.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Sequence, Tuple

from repro.compiler.compiler import CompiledModel, compile_model
from repro.compiler.options import CompileOptions
from repro.compiler.program import Program
from repro.hw.config import NPUConfig
from repro.ir.graph import Graph
from repro.sim.session import SimSession
from repro.sim.simulator import simulate
from repro.sim.trace import Trace, trace_span


@dataclasses.dataclass(frozen=True)
class Tenant:
    """One network plus the cores it owns on the shared machine."""

    name: str
    graph: Graph
    cores: Tuple[int, ...]
    options: CompileOptions = CompileOptions.base()

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValueError(f"tenant {self.name!r} needs at least one core")
        if len(set(self.cores)) != len(self.cores):
            raise ValueError(f"tenant {self.name!r} has duplicate cores")


@dataclasses.dataclass
class TenantResult:
    """Per-tenant outcome of a concurrent run.

    ``latency_us`` is the tenant's *span*: last event end minus first
    event start.  ``completion_us`` is the absolute end time on the
    shared clock.  The two coincide only for tenants that start at t=0;
    a tenant admitted later (as the serving scheduler does) has
    ``completion_us > latency_us``.
    """

    name: str
    latency_us: float
    completion_us: float
    start_us: float
    isolated_latency_us: float
    compiled: CompiledModel
    #: the tenant's events in the concurrent run (its own command ids,
    #: physical cores, cycles of the shared clock).
    trace: Trace = dataclasses.field(repr=False)

    @property
    def interference(self) -> float:
        """Latency inflation caused by sharing the bus (>= ~1.0)."""
        if self.isolated_latency_us <= 0:
            return 1.0
        return self.latency_us / self.isolated_latency_us


@dataclasses.dataclass
class ConcurrentResult:
    """Outcome of running all tenants together."""

    tenants: List[TenantResult]
    makespan_us: float

    def tenant(self, name: str) -> TenantResult:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(name)


def sub_machine(npu: NPUConfig, cores: Sequence[int], name: str) -> NPUConfig:
    """The machine a tenant's compiler sees: its cores, the shared bus."""
    for c in cores:
        if not 0 <= c < npu.num_cores:
            raise ValueError(f"core index {c} out of range")
    return dataclasses.replace(
        npu,
        name=f"{npu.name}/{name}",
        cores=tuple(npu.cores[c] for c in cores),
    )


def place_program(program: Program, cores: Sequence[int], num_cores: int) -> Program:
    """``program``, compiled for a core group, on an ``num_cores``-core
    machine: core ``i`` of the group becomes physical core ``cores[i]``.

    Only cores are renamed: command ids, dependencies and layer names
    are unchanged, so the placed program's trace reads in the compiled
    program's own terms.  The core map must hold distinct ``int`` core
    indices (``bool`` refused), at least one per core of ``program``.

    The placed program is a view of its source (:meth:`Program.placed_on`):
    its commands are built only when something reads them.  It runs on
    the source's simulator plan on the group machine -- the same object,
    bracket and jitter tables included -- and its memo fingerprint
    derives from the source's; neither program can change, so both stay
    valid.

    An injective renaming keeps ids, dependencies, payloads and the
    engine-queue partition, so the placed program's structure verdict is
    its source's (:meth:`Program.structure`, kept on the source) plus
    the core range.  :class:`~repro.verify.VerificationError` is raised
    with RPR205 when a map entry the source uses lies outside the
    machine, and on any error in the source's verdict.
    """
    for core in cores:
        if not isinstance(core, int) or isinstance(core, bool):
            raise ValueError(f"core map {tuple(cores)!r} holds {core!r}, not an int core index")
    core_map = tuple(cores)
    if len(core_map) < program.num_cores:
        raise ValueError(f"core map {core_map} too short for {program.num_cores} cores")
    if len(set(core_map)) != len(core_map):
        raise ValueError(f"core map {core_map} repeats a core")
    from repro.verify import PassResult, VerificationError, VerifyReport

    verdict = PassResult(name="structure")
    for core, physical in enumerate(core_map[: program.num_cores]):
        if not 0 <= physical < num_cores:
            verdict.emit(
                "RPR205",
                f"core map sends core {core} to core {physical}, outside "
                f"machine with {num_cores} core(s)",
            )
    if verdict.ok:
        verdict = program.structure()
    if not verdict.ok:
        raise VerificationError(
            VerifyReport(model="program", config="placed", machine="", passes=[verdict])
        )
    return program.placed_on(core_map, num_cores)


def inject_wave(
    session: SimSession,
    programs: Sequence[Program],
    at_us: float,
    seed: int,
    metas: Optional[Sequence[Any]] = None,
) -> None:
    """Inject ``programs`` into ``session`` at ``at_us``, one injection
    per program in slot order, ``metas[slot]`` as each one's ``meta``.

    Slot ``k`` seeds its jitter after the commands of slots ``0..k-1``
    (``cid_base``), so the wave replays, bit for bit, one run of the
    programs concatenated in slot order -- the numbering only this
    function knows.  Placed programs on disjoint cores are concurrent
    tenants; copies of one program are back-to-back frames.
    """
    base = 0
    for program, meta in zip(programs, metas or [None] * len(programs)):
        session.inject(program, at_us, seed=seed, meta=meta, cid_base=base)
        base += len(program)


def auto_assign(
    npu: NPUConfig,
    tenants: Sequence[Tenant],
    seed: int = 0,
) -> ConcurrentResult:
    """Search core assignments and return the best concurrent schedule.

    Enumerates every split of the machine's cores into non-empty
    contiguous-by-index groups, one per tenant (order preserved), runs
    each candidate, and keeps the one with the smallest makespan.
    Feasible for the small core counts mobile NPUs have.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    if len(tenants) > npu.num_cores:
        raise ValueError("more tenants than cores")

    def splits(cores: List[int], groups: int):
        if groups == 1:
            yield [cores]
            return
        for first in range(1, len(cores) - groups + 2):
            for rest in splits(cores[first:], groups - 1):
                yield [cores[:first]] + rest

    best: Optional[ConcurrentResult] = None
    all_cores = list(range(npu.num_cores))
    for assignment in splits(all_cores, len(tenants)):
        candidate = [
            dataclasses.replace(t, cores=tuple(group))
            for t, group in zip(tenants, assignment)
        ]
        result = run_concurrent(npu, candidate, seed=seed)
        if best is None or result.makespan_us < best.makespan_us:
            best = result
    assert best is not None
    return best


def run_concurrent(
    npu: NPUConfig,
    tenants: Sequence[Tenant],
    seed: int = 0,
) -> ConcurrentResult:
    """Compile every tenant on its core group and simulate them together."""
    if not tenants:
        raise ValueError("need at least one tenant")
    used: set = set()
    for t in tenants:
        overlap = used & set(t.cores)
        if overlap:
            raise ValueError(f"cores {sorted(overlap)} assigned to two tenants")
        used |= set(t.cores)

    compiled: List[CompiledModel] = []
    isolated: List[float] = []
    for t in tenants:
        machine = sub_machine(npu, t.cores, t.name)
        model = compile_model(t.graph, machine, t.options)
        compiled.append(model)
        isolated.append(simulate(model.program, machine, seed=seed).latency_us)

    session = SimSession(npu, memo=None)
    placed = [place_program(m.program, t.cores, npu.num_cores) for m, t in zip(compiled, tenants)]
    inject_wave(session, placed, at_us=0.0, seed=seed, metas=range(len(tenants)))
    traces = {out.meta: out.trace for out in session.run_until(stop_on_completion=False)}
    results = []
    for slot, t in enumerate(tenants):
        start, end = trace_span(traces[slot])
        results.append(
            TenantResult(
                name=t.name,
                latency_us=npu.cycles_to_us(end - start),
                completion_us=npu.cycles_to_us(end),
                start_us=npu.cycles_to_us(start),
                isolated_latency_us=isolated[slot],
                compiled=compiled[slot],
                trace=traces[slot],
            )
        )
    return ConcurrentResult(tenants=results, makespan_us=max(r.completion_us for r in results))
