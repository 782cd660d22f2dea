"""Machine descriptions for multicore mobile NPUs.

The model follows Figure 1 of the paper: each core owns a compute engine
(an adder-tree inner-product array) and a private scratch-pad memory (SPM);
all cores reach global memory through a shared bus.  There is no direct
core-to-core link -- halo exchange travels through global memory
(Section 4.2, Figure 12 discussion).

Everything is expressed in cycles and bytes-per-cycle; ``frequency_ghz``
converts simulated cycles into microseconds for reporting.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple


@dataclasses.dataclass(frozen=True)
class CoreConfig:
    """One NPU core.

    Attributes:
        name: human-readable identifier.
        macs_per_cycle: peak multiply-accumulates per cycle of the
            adder-tree engine.
        dma_bytes_per_cycle: bandwidth of the core's DMA link to the bus;
            the effective transfer rate is additionally capped by the bus.
        spm_bytes: size of the core's scratch-pad (local) memory.
        channel_alignment: the adder tree consumes channels in fixed-size
            groups; tensor slices along channels are padded up to this.
            Channel alignment is the larger constraint (Section 4.1 /
            Table 4 discussion).
        spatial_alignment: row-granularity constraint for spatial slices.
        compute_efficiency: sustained fraction of peak MACs actually
            achieved on convolutions (utilization of the MAC array).
        dvfs_steps: the discrete frequency multipliers the core can run
            at under thermal pressure, descending from 1.0 (full speed).
            Used by the fault-injection layer (:mod:`repro.faults`);
            fault-free simulation always runs at ``dvfs_steps[0]``.
        heat_per_busy_cycle: heat units accumulated per busy compute
            cycle (arbitrary units; only ratios to the threshold matter).
        cool_per_cycle: heat units dissipated per wall-clock cycle.
        throttle_threshold: heat level at which the core steps down to
            the next DVFS step; each further multiple steps down again.
    """

    name: str
    macs_per_cycle: int
    dma_bytes_per_cycle: float
    spm_bytes: int
    channel_alignment: int = 16
    spatial_alignment: int = 2
    compute_efficiency: float = 0.75
    dvfs_steps: Tuple[float, ...] = (1.0, 0.8, 0.6)
    heat_per_busy_cycle: float = 1.0
    cool_per_cycle: float = 0.4
    throttle_threshold: float = 150_000.0

    def __post_init__(self) -> None:
        for name in (
            "macs_per_cycle", "dma_bytes_per_cycle", "spm_bytes",
            "compute_efficiency", "heat_per_busy_cycle", "cool_per_cycle",
            "throttle_threshold",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.macs_per_cycle <= 0:
            raise ValueError("macs_per_cycle must be positive")
        if self.dma_bytes_per_cycle <= 0:
            raise ValueError("dma_bytes_per_cycle must be positive")
        if self.spm_bytes <= 0:
            raise ValueError("spm_bytes must be positive")
        if self.channel_alignment <= 0 or self.spatial_alignment <= 0:
            raise ValueError("alignments must be positive")
        if not 0 < self.compute_efficiency <= 1:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if not self.dvfs_steps or self.dvfs_steps[0] != 1.0:
            raise ValueError("dvfs_steps must start at 1.0 (full speed)")
        if any(not 0 < s <= 1 for s in self.dvfs_steps):
            raise ValueError("dvfs_steps must lie in (0, 1]")
        if list(self.dvfs_steps) != sorted(self.dvfs_steps, reverse=True):
            raise ValueError("dvfs_steps must be non-increasing")
        if self.heat_per_busy_cycle < 0 or self.cool_per_cycle < 0:
            raise ValueError("thermal rates must be non-negative")
        if self.throttle_threshold <= 0:
            raise ValueError("throttle_threshold must be positive")

    @property
    def effective_macs_per_cycle(self) -> float:
        return self.macs_per_cycle * self.compute_efficiency

    def dvfs_level_for_heat(self, heat: float) -> int:
        """The DVFS step index a core at ``heat`` units runs at."""
        if heat <= 0:
            return 0
        return min(len(self.dvfs_steps) - 1, int(heat / self.throttle_threshold))


@dataclasses.dataclass(frozen=True)
class NPUConfig:
    """A multicore NPU subsystem plus its path to global memory.

    Attributes:
        cores: per-core configurations (may be heterogeneous).
        bus_bytes_per_cycle: total bandwidth of the shared bus to global
            memory; concurrent DMA transfers share it.
        frequency_ghz: NPU clock, used only to convert cycles to wall time.
        sync_base_cycles: fixed cost of one inter-core synchronization
            (driver/firmware round trip), paid on top of the implicit wait
            for the slowest core.
        sync_per_core_cycles: additional barrier cost per participating core.
        halo_exchange_base_cycles: fixed setup cost of one halo-exchange
            rendezvous; the data movement itself is billed over the bus.
        dram_latency_cycles: first-byte latency of a DMA transfer.
        sync_jitter_cycles: upper bound of the uniform service-time jitter
            of one barrier (host driver / firmware variance; the paper
            reports sigma of ~9us on silicon, Table 5).  Each barrier
            participant draws independently, so the exposed cost is the
            maximum across cores.
        halo_jitter_cycles: jitter bound for halo-exchange rendezvous
            (the "implicit synchronization" of Section 3.2).  Strata incur
            neither kind of jitter -- their layers never coordinate.
    """

    name: str
    cores: Tuple[CoreConfig, ...]
    bus_bytes_per_cycle: float
    frequency_ghz: float = 1.2
    sync_base_cycles: int = 4000
    sync_per_core_cycles: int = 500
    halo_exchange_base_cycles: int = 800
    dram_latency_cycles: int = 100
    sync_jitter_cycles: int = 0
    halo_jitter_cycles: int = 0

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValueError("NPU needs at least one core")
        if not (math.isfinite(self.bus_bytes_per_cycle) and self.bus_bytes_per_cycle > 0):
            raise ValueError(
                f"bus bandwidth must be finite and positive, got {self.bus_bytes_per_cycle}"
            )
        if not (math.isfinite(self.frequency_ghz) and self.frequency_ghz > 0):
            raise ValueError(
                f"frequency must be finite and positive, got {self.frequency_ghz}"
            )
        for name in (
            "sync_base_cycles", "sync_per_core_cycles", "halo_exchange_base_cycles",
            "dram_latency_cycles", "sync_jitter_cycles", "halo_jitter_cycles",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def core(self, index: int) -> CoreConfig:
        return self.cores[index]

    def cycles_to_us(self, cycles: float) -> float:
        return cycles / (self.frequency_ghz * 1000.0)

    def us_to_cycles(self, us: float) -> float:
        return us * self.frequency_ghz * 1000.0

    def sync_cost_cycles(self, num_participants: int = 0) -> float:
        """Expected barrier overhead for a sync among ``num_participants``.

        Includes the expected exposed jitter: with ``n`` independent
        uniform draws the maximum is ``J * n / (n + 1)``.
        """
        n = num_participants or self.num_cores
        expected_jitter = self.sync_jitter_cycles * n / (n + 1)
        return self.sync_base_cycles + self.sync_per_core_cycles * n + expected_jitter

    def single_core(self, index: int = 0) -> "NPUConfig":
        """A one-core variant of this machine (the paper's 1-core baseline)."""
        return dataclasses.replace(
            self, name=f"{self.name}-1core", cores=(self.cores[index],)
        )

    def compute_weights(self) -> Tuple[float, ...]:
        """Relative sustained compute throughput per core (balancer input)."""
        return tuple(c.effective_macs_per_cycle for c in self.cores)
