"""Fault models and the :class:`FaultPlan` that injects them.

All times are microseconds of *serving* (wall) time, matching the units
of :mod:`repro.serve`; the engine converts to cycles against the
machine's clock.  Every model is a frozen dataclass so plans are
hashable, comparable, and safely shareable across waves and policies.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Tuple, Union


@dataclasses.dataclass(frozen=True)
class ThermalThrottle:
    """Enable heat-driven DVFS stepping on some (or all) cores.

    While enabled, each compute command heats its core by
    ``heat_per_busy_cycle`` (from :class:`~repro.hw.config.CoreConfig`)
    per executed cycle and the core cools at ``cool_per_cycle`` per
    wall-clock cycle; crossing each multiple of ``throttle_threshold``
    steps the core down one DVFS step (``CoreConfig.dvfs_steps``),
    stretching subsequent compute commands by the inverse frequency
    ratio.  The model is quasi-static: a command's speed is fixed at its
    start from the core's heat at that instant.
    """

    #: cores to throttle; empty tuple means every core.
    cores: Tuple[int, ...] = ()

    def applies_to(self, core: int) -> bool:
        return not self.cores or core in self.cores


@dataclasses.dataclass(frozen=True)
class TransientStall:
    """A window during which a core (or the bus) accepts no new work.

    Core stalls model driver preemption / firmware hiccups: commands on
    the core cannot *start* inside the window (in-flight commands
    finish).  Bus stalls model DRAM refresh storms / bandwidth theft by
    other SoC agents: DMA transfers cannot *join* the bus inside the
    window (streaming transfers keep streaming).
    """

    start_us: float
    duration_us: float
    #: stalled core index, or ``None`` for the shared bus.
    core: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_us < 0:
            raise ValueError("stall start must be >= 0")
        if self.duration_us <= 0:
            raise ValueError("stall duration must be positive")

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclasses.dataclass(frozen=True)
class CoreOffline:
    """A core dies at ``at_us`` and never comes back.

    Commands running on the core at that instant abort; queued commands
    on it, and everything depending on them (directly, transitively, or
    by in-order queue position), are *abandoned* -- the wave they belong
    to fails and the serving layer must react (retry on the surviving
    core set, or shed).
    """

    core: int
    at_us: float

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ValueError("core index must be >= 0")
        if self.at_us < 0:
            raise ValueError("offline time must be >= 0")


FaultEvent = Union[ThermalThrottle, TransientStall, CoreOffline]


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into one simulation.

    An empty plan (the default) is a strict no-op: ``simulate`` routes
    it to the untouched clean scheduler, so traces are bit-identical to
    a run without any plan at all.
    """

    events: Tuple[FaultEvent, ...] = ()
    #: seeds derived fault randomness (e.g. :func:`random_stalls`).
    seed: int = 0

    @property
    def is_empty(self) -> bool:
        return not self.events

    @property
    def offline_events(self) -> Tuple[CoreOffline, ...]:
        return tuple(
            sorted(
                (e for e in self.events if isinstance(e, CoreOffline)),
                key=lambda e: (e.at_us, e.core),
            )
        )

    @property
    def stalls(self) -> Tuple[TransientStall, ...]:
        return tuple(
            sorted(
                (e for e in self.events if isinstance(e, TransientStall)),
                key=lambda e: (e.start_us, e.duration_us, -1 if e.core is None else e.core),
            )
        )

    @property
    def throttles(self) -> Tuple[ThermalThrottle, ...]:
        return tuple(e for e in self.events if isinstance(e, ThermalThrottle))

    def throttled_cores(self, num_cores: int) -> Tuple[int, ...]:
        """The set of cores any throttle event covers, resolved."""
        cores: set = set()
        for t in self.throttles:
            cores |= set(t.cores) if t.cores else set(range(num_cores))
        return tuple(sorted(cores))

    def dead_cores_at(self, t_us: float) -> Tuple[int, ...]:
        """Cores already offline at serving time ``t_us``."""
        return tuple(
            sorted({e.core for e in self.offline_events if e.at_us <= t_us})
        )

    def describe(self) -> str:
        """One line per fault event, for reports and logs."""
        lines: List[str] = []
        for e in self.events:
            if isinstance(e, ThermalThrottle):
                which = ",".join(map(str, e.cores)) if e.cores else "all"
                lines.append(f"throttle cores={which}")
            elif isinstance(e, TransientStall):
                target = "bus" if e.core is None else f"core{e.core}"
                lines.append(
                    f"stall {target} @{e.start_us:.0f}us +{e.duration_us:.0f}us"
                )
            else:
                lines.append(f"core{e.core} offline @{e.at_us:.0f}us")
        return "; ".join(lines) if lines else "none"


@dataclasses.dataclass(frozen=True)
class FaultStats:
    """What the fault engine actually did to one simulation."""

    #: description of the injected plan (for reports).
    plan: str
    #: cores offline by the end of the run.
    dead_cores: Tuple[int, ...]
    #: command ids that never completed (aborted or unreachable).
    abandoned_cids: Tuple[int, ...]
    #: per-core compute cycles executed at a reduced DVFS step.
    throttled_busy_cycles: Tuple[float, ...]
    #: per-core compute cycles executed in total.
    busy_cycles: Tuple[float, ...]
    #: total cycles of start-delay injected by stall windows.
    stall_cycles: float
    #: per-core heat accumulator at the end of the run.
    heat: Tuple[float, ...]

    @property
    def failed(self) -> bool:
        """True when at least one command was abandoned (wave failure)."""
        return bool(self.abandoned_cids)

    @property
    def throttled_fraction(self) -> float:
        """Fraction of compute cycles executed below full frequency."""
        total = sum(self.busy_cycles)
        if total <= 0:
            return 0.0
        return sum(self.throttled_busy_cycles) / total


def device_offline_plan(num_cores: int, at_us: float) -> FaultPlan:
    """A whole-device death: every core goes offline at ``at_us``.

    The fleet layer (:mod:`repro.serve.fleet`) kills a device by
    handing its server this plan -- in-flight work is doomed and the
    serving loop sheds everything stranded with reason
    ``"no-cores"``, which is what keeps the fleet-wide
    served+shed==generated invariant intact through a device loss.
    """
    if num_cores <= 0:
        raise ValueError("num_cores must be positive")
    return FaultPlan(
        events=tuple(CoreOffline(core=c, at_us=at_us) for c in range(num_cores))
    )


def random_stalls(
    seed: int,
    horizon_us: float,
    mean_gap_us: float,
    mean_duration_us: float,
    core: Optional[int] = None,
) -> Tuple[TransientStall, ...]:
    """Draw a seeded Poisson process of stall windows over a horizon.

    Deterministic per seed, like every other source of randomness in the
    stack; use it to build reproducible "noisy SoC" plans without
    enumerating windows by hand.
    """
    if horizon_us <= 0:
        raise ValueError("horizon must be positive")
    if mean_gap_us <= 0 or mean_duration_us <= 0:
        raise ValueError("mean gap and duration must be positive")
    rng = random.Random(seed)
    stalls: List[TransientStall] = []
    clock = rng.expovariate(1.0) * mean_gap_us
    while clock < horizon_us:
        duration = max(1.0, rng.expovariate(1.0) * mean_duration_us)
        stalls.append(TransientStall(start_us=clock, duration_us=duration, core=core))
        clock += duration + rng.expovariate(1.0) * mean_gap_us
    return tuple(stalls)
