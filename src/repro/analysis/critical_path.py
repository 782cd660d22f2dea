"""Critical-path extraction: from a simulated trace or a static DAG.

Two consumers share the longest-path machinery here:

* **trace mode** (:func:`critical_path`) walks backward from the
  last-finishing command of a *simulated* trace, at each step following
  the constraint that bound the command's start time: a dependency that
  finished exactly then, or the same engine's previous command.  The
  resulting chain is the critical path -- shortening anything off it
  cannot improve the makespan.
* **static mode** (:func:`longest_path_times`) runs the same DAG
  forward with *analytic* durations and no simulation at all; the
  bounds pass (:mod:`repro.verify.bounds`) uses it to compute latency
  brackets and their binding chains.

Both modes resolve ties identically: when several predecessors end
within ``_EPS`` of a command's start, a dependency edge wins over the
engine-order edge, the latest-ending dependency wins among
dependencies, and remaining ties go to the smallest command id -- a
deterministic rule, independent of the order deps were declared in.
Each segment is attributed to compute, DMA, halo, or synchronization,
giving a one-line answer to "what should I optimize next?".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.program import CommandKind, Program
from repro.hw.config import NPUConfig
from repro.sim.trace import Trace

_EPS = 1e-6


def category_of(kind: CommandKind) -> str:
    """Optimization category of a command kind (compute/sync/halo/dma)."""
    if kind is CommandKind.COMPUTE:
        return "compute"
    if kind is CommandKind.BARRIER:
        return "sync"
    if kind in (CommandKind.HALO_SEND, CommandKind.HALO_RECV):
        return "halo"
    return "dma"


def _bind_dep(dep_ends: Sequence[Tuple[float, int]], start: float) -> Optional[int]:
    """The dependency that deterministically binds ``start``, if any.

    Among dependencies ending within ``_EPS`` of the start, pick the
    latest-ending; break exact ties by the smallest command id.
    """
    best: Optional[Tuple[float, int]] = None
    for end, cid in dep_ends:
        if abs(end - start) <= _EPS:
            key = (end, -cid)
            if best is None or key > best:
                best = key
    return -best[1] if best is not None else None


def longest_path_times(
    program: Program, durations: Sequence[float]
) -> Tuple[List[float], List[float], List[Tuple[int, str]]]:
    """Forward longest-path over dependency and engine-order edges.

    Every command starts at the latest finish among its dependencies
    and its in-queue predecessor -- exactly the simulator's start
    recurrence, with ``durations`` standing in for simulated service
    times.  Returns ``(starts, finishes, bindings)`` where
    ``bindings[cid]`` is ``(predecessor cid or -1, bound_by)`` with
    ``bound_by`` one of ``'dep'``/``'engine'``/``'ready'``, resolved by
    the deterministic tie-break rule of this module.
    """
    deps_of = program.columns().deps
    n = len(deps_of)
    engine_prev = program.engine_queues().prev
    starts = [0.0] * n
    finishes = [0.0] * n
    bindings: List[Tuple[int, str]] = [(-1, "ready")] * n
    for cid, deps in enumerate(deps_of):
        start = 0.0
        for d in deps:
            f = finishes[d]
            if f > start:
                start = f
        p = engine_prev[cid]
        if p >= 0 and finishes[p] > start:
            start = finishes[p]
        starts[cid] = start
        finishes[cid] = start + durations[cid]
        if start > _EPS:
            dep = _bind_dep([(finishes[d], d) for d in deps], start)
            if dep is not None:
                bindings[cid] = (dep, "dep")
            elif p >= 0 and abs(finishes[p] - start) <= _EPS:
                bindings[cid] = (p, "engine")
    return starts, finishes, bindings


def walk_bindings(
    bindings: Sequence[Tuple[int, str]], last: int
) -> List[Tuple[int, str]]:
    """Binding chain from ``last`` back to a source, last command first.

    Each element is ``(cid, bound_by)``; predecessor ids strictly
    decrease (dependencies and queue predecessors are always earlier),
    so the walk terminates at a ``ready`` command.
    """
    chain: List[Tuple[int, str]] = []
    cur = last
    while cur >= 0:
        pred, bound_by = bindings[cur]
        chain.append((cur, bound_by))
        cur = pred
    return chain


@dataclasses.dataclass(frozen=True)
class PathSegment:
    """One command on the critical path, with its simulated times."""

    cid: int
    core: int
    kind: CommandKind
    layer: str
    tag: str
    start: float
    end: float
    #: how this command's start was bound: 'dep', 'engine', or 'ready'
    bound_by: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def category(self) -> str:
        return category_of(self.kind)


@dataclasses.dataclass
class CriticalPath:
    """The makespan-determining chain, last command first."""

    segments: List[PathSegment]
    makespan_cycles: float

    def breakdown(self) -> Dict[str, float]:
        """Cycles of the makespan attributed to each category.

        Each segment contributes the gap it covers on the path: from the
        previous segment's start (or its own ready time) to its own start
        plus its duration -- summing to the makespan.
        """
        totals: Dict[str, float] = {}
        for seg in self.segments:
            totals[seg.category] = totals.get(seg.category, 0.0) + seg.duration
        # time not covered by path segments (waits inside the chain).
        covered = sum(totals.values())
        if self.makespan_cycles > covered + _EPS:
            totals["wait"] = self.makespan_cycles - covered
        return totals

    def layers(self) -> List[str]:
        seen: List[str] = []
        for seg in self.segments:
            if seg.layer and (not seen or seen[-1] != seg.layer):
                seen.append(seg.layer)
        return seen


def critical_path(program: Program, trace: Trace) -> CriticalPath:
    """Extract the critical path of a simulated run.

    The program is read from its deps column and engine queues, a
    command by its position (its id, in any program the simulator
    runs); every other field comes from the trace."""
    if not len(trace):
        return CriticalPath(segments=[], makespan_cycles=0.0)
    cids, cores, kinds, layers, tags, starts, ends = map(
        trace.column, ("cid", "core", "kind", "layer", "tag", "start", "end")
    )
    pos_of = {cid: p for p, cid in enumerate(cids)}
    deps_of = program.columns().deps
    engine_prev = program.engine_queues().prev

    current: Optional[int] = cids[max(range(len(ends)), key=ends.__getitem__)]
    segments: List[PathSegment] = []
    guard = 0
    while current is not None and guard <= len(pos_of):
        guard += 1
        p = pos_of[current]
        start = starts[p]
        dep_ends = [(ends[pos_of[d]], d) for d in deps_of[current]]
        bound_by = "ready"
        # a dependency that completed exactly at our start binds us;
        # ties resolve deterministically (latest end, then lowest cid).
        binding = _bind_dep(dep_ends, start)
        if binding is not None:
            bound_by = "dep"
        else:
            prev = engine_prev[current]
            if prev >= 0 and abs(ends[pos_of[prev]] - start) <= _EPS:
                binding = prev
                bound_by = "engine"
        if binding is None and dep_ends and start > _EPS:
            # started when its own latency allowed: pick the latest-ending
            # dependency to keep walking toward t=0.
            binding = max(dep_ends)[1]
            bound_by = "dep"
        segments.append(PathSegment(
            current, cores[p], kinds[p], layers[p], tags[p], start, ends[p], bound_by
        ))
        current = binding

    return CriticalPath(segments=segments, makespan_cycles=trace.makespan)


def render_critical_path(
    program: Program, trace: Trace, npu: NPUConfig, max_rows: int = 14
) -> str:
    """Human-readable critical path summary."""
    from repro.analysis.tables import format_table

    path = critical_path(program, trace)
    breakdown = path.breakdown()
    total = sum(breakdown.values()) or 1.0
    header = "Critical path breakdown: " + ", ".join(
        f"{k} {npu.cycles_to_us(v):,.1f}us ({v / total:.0%})"
        for k, v in sorted(breakdown.items(), key=lambda kv: -kv[1])
    )
    rows = []
    for seg in path.segments[:max_rows]:
        rows.append(
            [
                f"{seg.layer}{('.' + seg.tag) if seg.tag else ''}",
                seg.kind.value,
                f"core{seg.core}",
                f"{npu.cycles_to_us(seg.start):,.1f}",
                f"{npu.cycles_to_us(seg.duration):,.1f}us",
                seg.bound_by,
            ]
        )
    table = format_table(
        ["Command", "Kind", "Core", "Start (us)", "Duration", "Bound by"],
        rows,
        title=f"Last {min(max_rows, len(path.segments))} links of the critical path",
    )
    return header + "\n\n" + table
