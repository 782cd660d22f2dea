"""Aggregated statistics over a simulation trace.

These are the exact counters the paper's tables report: per-core data
transfer between global and local memory (Table 4), per-core idle time
(Table 4), end-to-end latency and computation amount and synchronization
overhead (Table 5, Figure 11).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Tuple

from repro.compiler.program import CommandKind, Engine, Program
from repro.hw.config import NPUConfig
from repro.sim.trace import Trace

#: global<->local DRAM transfers -- the Table 4 "data transfer" metric.
TRANSFER_KINDS = (
    CommandKind.LOAD_INPUT,
    CommandKind.LOAD_WEIGHT,
    CommandKind.STORE_OUTPUT,
)

#: core-to-core halo exchange; one logical exchange is a SEND/RECV pair
#: carrying the same payload, so run totals count only the receive side.
_HALO_KINDS = (
    CommandKind.HALO_SEND,
    CommandKind.HALO_RECV,
)


def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _stdev(xs: List[float]) -> float:
    if len(xs) < 2:
        return 0.0
    mu = _mean(xs)
    return math.sqrt(sum((x - mu) ** 2 for x in xs) / len(xs))


@dataclasses.dataclass(frozen=True)
class CoreStats:
    """Per-core aggregates over one run."""

    core: int
    #: global<->local DRAM traffic only (loads + stores; Table 4).
    transfer_bytes: int
    #: halo bytes received by this core; one logical exchange counts once
    #: (the matching sends stay visible in ``bytes_by_kind``).
    halo_bytes: int
    bytes_by_kind: Dict[CommandKind, int]
    compute_cycles: float
    busy_cycles: float
    idle_cycles: float
    sync_wait_cycles: float
    macs: int

    @property
    def transfer_kb(self) -> float:
        return self.transfer_bytes / 1024.0


@dataclasses.dataclass(frozen=True)
class RunStats:
    """Whole-run aggregates (plus per-core breakdowns)."""

    makespan_cycles: float
    latency_us: float
    cores: Tuple[CoreStats, ...]
    total_macs: int
    num_barriers: int
    num_halo_exchanges: int
    #: per (barrier event) exposed overhead samples, in cycles.
    sync_overhead_samples: Tuple[float, ...]

    @property
    def total_transfer_bytes(self) -> int:
        """Global<->local DRAM bytes moved (halo exchange excluded)."""
        return sum(c.transfer_bytes for c in self.cores)

    @property
    def total_halo_bytes(self) -> int:
        """Bytes exchanged core-to-core, each exchange counted once."""
        return sum(c.halo_bytes for c in self.cores)

    @property
    def performance(self) -> float:
        """The paper's Figure 11 metric: 1 / latency."""
        return 1.0 / self.latency_us if self.latency_us > 0 else 0.0

    @property
    def sync_overhead_mean_us(self) -> float:
        return self._cycles_to_us(_mean(list(self.sync_overhead_samples)))

    @property
    def sync_overhead_std_us(self) -> float:
        return self._cycles_to_us(_stdev(list(self.sync_overhead_samples)))

    @property
    def idle_mean_us(self) -> float:
        return self._cycles_to_us(_mean([c.idle_cycles for c in self.cores]))

    @property
    def idle_std_us(self) -> float:
        return self._cycles_to_us(_stdev([c.idle_cycles for c in self.cores]))

    @property
    def transfer_mean_kb(self) -> float:
        return _mean([c.transfer_kb for c in self.cores])

    @property
    def transfer_std_kb(self) -> float:
        return _stdev([c.transfer_kb for c in self.cores])

    def _cycles_to_us(self, cycles: float) -> float:
        if self.makespan_cycles <= 0 or self.latency_us <= 0:
            return 0.0
        return cycles * (self.latency_us / self.makespan_cycles)


def barrier_groups(barriers: Iterable[Tuple[str, str, int]]) -> int:
    """Distinct synchronization points among BARRIER commands, given as
    ``(layer, tag, core)`` triples in any order.

    One barrier emission is a group of BARRIER commands sharing a
    (layer, tag) label, one per *participating* core.  Dividing the raw
    event count by the machine's core count -- the previous accounting --
    undercounts a tenant placed on a core group of a larger machine,
    whose barriers span only that group; a wave's count is the sum over
    its injections' traces.
    """
    cores_by_label: Dict[Tuple[str, str], List[int]] = {}
    for layer, tag, core in barriers:
        cores_by_label.setdefault((layer, tag), []).append(core)
    groups = 0
    for cores in cores_by_label.values():
        # A label normally appears once per participating core; repeated
        # same-label emissions show up as multiples of the core set.
        groups += max(1, len(cores) // len(set(cores)))
    return groups


def count_barrier_groups(trace: Trace) -> int:
    """Distinct synchronization points among a trace's events
    (:func:`barrier_groups`)."""
    layers, tags, cores = map(trace.column, ("layer", "tag", "core"))
    return barrier_groups(
        (layers[p], tags[p], cores[p]) for p in trace.positions("kind", CommandKind.BARRIER)
    )


def program_barrier_groups(program: Program) -> int:
    """Distinct synchronization points among a program's commands
    (:func:`barrier_groups`): a clean run's :func:`count_barrier_groups`,
    which runs every command once, without its trace."""
    cols = program.columns()
    barrier = CommandKind.BARRIER
    return barrier_groups(
        (cols.layer[p], cols.tag[p], cols.core[p])
        for p, kind in enumerate(cols.kind)
        if kind is barrier
    )


def collect_stats(trace: Trace, npu: NPUConfig) -> RunStats:
    """Aggregate a trace into :class:`RunStats`.

    Every per-core sum adds its events in event order.
    """
    makespan = trace.makespan
    kind_col = trace.column("kind")
    bytes_col = trace.column("num_bytes")
    macs_col = trace.column("macs")
    start_col = trace.column("start")
    end_col = trace.column("end")
    own_col = trace.column("own_ready")
    cores: List[CoreStats] = []
    for core in range(npu.num_cores):
        bytes_by_kind: Dict[CommandKind, int] = {}
        transfer = 0
        halo = 0
        macs = 0
        sync_wait = 0.0
        for p in trace.positions("core", core):
            kind = kind_col[p]
            nb = bytes_col[p]
            if kind in TRANSFER_KINDS:
                bytes_by_kind[kind] = bytes_by_kind.get(kind, 0) + nb
                transfer += nb
            elif kind in _HALO_KINDS:
                bytes_by_kind[kind] = bytes_by_kind.get(kind, 0) + nb
                if kind is CommandKind.HALO_RECV:
                    halo += nb
            macs += macs_col[p]
            if kind in (CommandKind.BARRIER, CommandKind.HALO_RECV):
                sync_wait += max(0.0, start_col[p] - own_col[p])
                if kind is CommandKind.BARRIER:
                    sync_wait += end_col[p] - start_col[p]
        busy = trace.busy_time(core)
        compute_busy = trace.busy_time(core, Engine.COMPUTE)
        cores.append(
            CoreStats(
                core=core,
                transfer_bytes=transfer,
                halo_bytes=halo,
                bytes_by_kind=bytes_by_kind,
                compute_cycles=compute_busy,
                busy_cycles=busy,
                idle_cycles=max(0.0, makespan - busy),
                sync_wait_cycles=sync_wait,
                macs=macs,
            )
        )

    sync_samples: List[float] = []
    sample_positions = sorted(
        trace.positions("kind", CommandKind.BARRIER)
        + trace.positions("kind", CommandKind.HALO_RECV)
    )
    for p in sample_positions:
        wait = max(0.0, start_col[p] - own_col[p])
        if kind_col[p] is CommandKind.BARRIER:
            sync_samples.append(wait + (end_col[p] - start_col[p]))
        else:
            sync_samples.append(wait)

    return RunStats(
        makespan_cycles=makespan,
        latency_us=npu.cycles_to_us(makespan),
        cores=tuple(cores),
        total_macs=sum(c.macs for c in cores),
        num_barriers=count_barrier_groups(trace),
        num_halo_exchanges=len(trace.positions("kind", CommandKind.HALO_RECV)),
        sync_overhead_samples=tuple(sync_samples),
    )
