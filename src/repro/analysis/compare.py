"""Configuration sweeps: the Figure 11 experiment machinery.

``run_configuration`` compiles + simulates one (model, machine, options)
triple; ``sweep_configurations`` runs the paper's four cumulative
configurations and returns everything needed to print Figure 11 and the
speedup summary.  Both compile through the fingerprint-keyed
:class:`repro.compiler.cache.ProgramCache`, so re-running a
configuration at another seed reuses the compiled program; the grid
runner in :mod:`repro.analysis.sweep` builds on the same pieces.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.compiler.cache import ProgramCache, compile_cached
from repro.compiler.compiler import CompiledModel
from repro.compiler.options import CompileOptions
from repro.hw.config import NPUConfig
from repro.ir.graph import Graph
from repro.sim.simulator import SimResult, simulate
from repro.sim.stats import RunStats, collect_stats


@dataclasses.dataclass
class ConfigResult:
    """One bar of Figure 11."""

    label: str
    compiled: CompiledModel
    sim: SimResult
    stats: RunStats

    @property
    def latency_us(self) -> float:
        return self.stats.latency_us

    @property
    def performance(self) -> float:
        return self.stats.performance


def run_configuration(
    graph: Graph,
    npu: NPUConfig,
    options: CompileOptions,
    seed: int = 0,
    cache: Optional[ProgramCache] = None,
) -> ConfigResult:
    """Compile and simulate one configuration.

    Single-core dispatch goes through ``options.is_single_core`` -- the
    structural predicate -- rather than the display label, so relabelled
    or custom configurations shrink the machine exactly when they target
    one core.
    """
    machine = npu.single_core() if options.is_single_core else npu
    compiled = compile_cached(graph, machine, options, cache=cache)
    sim = simulate(compiled.program, machine, seed=seed)
    stats = collect_stats(sim.trace, machine)
    return ConfigResult(
        label=options.label, compiled=compiled, sim=sim, stats=stats
    )


def paper_configurations() -> List[CompileOptions]:
    """The four cumulative configurations of Table 3 plus the 1-core run."""
    return [
        CompileOptions.single_core(),
        CompileOptions.base(),
        CompileOptions.halo(),
        CompileOptions.stratum_config(),
    ]


def sweep_configurations(
    graph: Graph,
    npu: NPUConfig,
    options_list: Optional[Sequence[CompileOptions]] = None,
    seed: int = 0,
    cache: Optional[ProgramCache] = None,
) -> Dict[str, ConfigResult]:
    """Run all configurations on one model; keyed by config label.

    The configurations compile inside one ``graph.decision_scope()``.
    """
    options_list = options_list or paper_configurations()
    results: Dict[str, ConfigResult] = {}
    with graph.decision_scope():
        for options in options_list:
            result = run_configuration(graph, npu, options, seed=seed, cache=cache)
            results[result.label] = result
    return results


def _baseline(results: Dict[str, ConfigResult]) -> ConfigResult:
    """The single-core baseline of a sweep, found structurally."""
    for r in results.values():
        if r.compiled.options.is_single_core:
            return r
    if "1-core" in results:  # pragma: no cover - relabelled baseline
        return results["1-core"]
    raise ValueError("sweep must include the 1-core baseline")


def speedups(results: Dict[str, ConfigResult]) -> Dict[str, float]:
    """Per-configuration speedup relative to the 1-core run.

    A configuration that somehow reports zero latency maps to
    ``float("inf")`` rather than raising; a zero-latency *baseline* is
    always a bug (every divisor would be meaningless) and raises.
    """
    baseline = _baseline(results)
    base = baseline.latency_us
    if base <= 0:
        raise ValueError(
            f"1-core baseline reports non-positive latency ({base} us); "
            "the sweep cannot be normalized"
        )
    return {
        label: (base / r.latency_us) if r.latency_us > 0 else float("inf")
        for label, r in results.items()
    }
