"""Back-to-back frame execution: throughput on top of the latency model.

A camera pipeline runs inference per frame; consecutive frames are
independent, so frame *k+1*'s loads can stream while frame *k*'s tail is
still computing.  Frames run as one wave of injections of the same
program (:func:`repro.sim.multitenant.inject_wave`): they share no
dependency edges, and each frame queues behind the earlier ones on every
engine -- exactly the pipelining a double-buffered runtime achieves, and
no frame can wait on a later one.  This module measures that
steady-state throughput and how much of the per-frame coordination cost
it amortizes.
"""

from __future__ import annotations

import dataclasses

from repro.compiler.program import Program
from repro.hw.config import NPUConfig
from repro.sim.multitenant import inject_wave
from repro.sim.session import SimSession
from repro.sim.simulator import simulate


@dataclasses.dataclass
class ThroughputResult:
    """Steady-state throughput of back-to-back frames."""

    frames: int
    single_frame_latency_us: float
    makespan_us: float

    @property
    def us_per_frame(self) -> float:
        return self.makespan_us / self.frames

    @property
    def frames_per_second(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return 1e6 * self.frames / self.makespan_us

    @property
    def pipelining_gain(self) -> float:
        """Serial latency over the pipelined per-frame cost (>= ~1.0)."""
        if self.us_per_frame <= 0:
            return 1.0
        return self.single_frame_latency_us / self.us_per_frame


def measure_throughput(
    program: Program,
    npu: NPUConfig,
    frames: int = 4,
    seed: int = 0,
) -> ThroughputResult:
    """Simulate ``frames`` consecutive inferences of ``program``."""
    if frames <= 0:
        raise ValueError("frames must be positive")
    single = simulate(program, npu, seed=seed).latency_us
    session = SimSession(npu, memo=None)
    inject_wave(session, [program] * frames, at_us=0.0, seed=seed)
    makespan = max(out.completed_at_cycles for out in session.run_until(stop_on_completion=False))
    return ThroughputResult(
        frames=frames,
        single_frame_latency_us=single,
        makespan_us=npu.cycles_to_us(makespan),
    )
