"""Grid sweep runner: (model x configuration x seed) fan-out.

Every experiment in the paper is some slice of this grid.  The runner
bundles grid points by (model, configuration) so each bundle compiles
exactly once -- through the fingerprint cache -- and simulates every
seed against the cached program; the event-driven simulator additionally
reuses its per-(program, machine) scheduling plan across those seeds.
A record reads the simulation result and the program's columns, never a
trace.

Bundles can be fanned out over a ``ProcessPoolExecutor``: workers are
handed *model names*, not graphs, and rebuild the graph from the zoo so
nothing heavyweight crosses the pickle boundary.  On a single-CPU host
(or with ``max_workers=1``) the runner degrades to the serial path with
no executor overhead; determinism is unaffected either way because each
grid point is an independent (program, seed) simulation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.compare import paper_configurations
from repro.compiler.cache import ProgramCache, compile_cached, default_cache
from repro.compiler.options import CompileOptions
from repro.compiler.program import CommandKind
from repro.hw.config import NPUConfig
from repro.ir.graph import Graph
from repro.models import resolve_model
from repro.sim.simulator import simulate
from repro.sim.stats import TRANSFER_KINDS, program_barrier_groups


@dataclasses.dataclass(frozen=True)
class SweepJob:
    """One grid point: a model name, a configuration, a seed."""

    model: str
    options: CompileOptions
    seed: int = 0


@dataclasses.dataclass(frozen=True)
class SweepRecord:
    """The flat, serializable outcome of one grid point."""

    model: str
    label: str
    seed: int
    single_core: bool
    latency_us: float
    makespan_cycles: float
    num_commands: int
    num_barriers: int
    num_halo_exchanges: int
    num_strata: int
    total_transfer_bytes: int
    cache_hit: bool

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def build_grid(
    models: Sequence[str],
    options_list: Optional[Sequence[CompileOptions]] = None,
    seeds: Sequence[int] = (0,),
) -> List[SweepJob]:
    """The full (model x configuration x seed) cross product, in order."""
    options_list = options_list or paper_configurations()
    return [
        SweepJob(model=model, options=options, seed=seed)
        for model in models
        for options in options_list
        for seed in seeds
    ]


def _run_bundle(
    model: str,
    graph: Graph,
    options: CompileOptions,
    seeds: Sequence[int],
    npu: NPUConfig,
    cache: Optional[ProgramCache],
) -> List[SweepRecord]:
    """Compile one (model, configuration) once; simulate every seed.

    A clean run executes every command once, so the barrier, halo and
    transfer counts are the program's own, the same for every seed.
    """
    if cache is None:
        cache = default_cache()
    machine = npu.single_core() if options.is_single_core else npu
    hits_before = cache.hits
    compiled = compile_cached(graph, machine, options, cache=cache)
    cache_hit = cache.hits > hits_before
    program = compiled.program
    num_barriers = program_barrier_groups(program)
    num_halo_exchanges = program.count(CommandKind.HALO_RECV)
    transfer_bytes = program.total_bytes(TRANSFER_KINDS)
    records: List[SweepRecord] = []
    for seed in seeds:
        sim = simulate(program, machine, seed=seed)
        records.append(
            SweepRecord(
                model=model,
                label=options.label,
                seed=seed,
                single_core=options.is_single_core,
                latency_us=sim.latency_us,
                makespan_cycles=sim.makespan_cycles,
                num_commands=len(program),
                num_barriers=num_barriers,
                num_halo_exchanges=num_halo_exchanges,
                num_strata=len(compiled.strata.strata),
                total_transfer_bytes=transfer_bytes,
                cache_hit=cache_hit,
            )
        )
        # Later seeds of the bundle reuse the program whether or not the
        # compile itself was a cache hit.
        cache_hit = True
    return records


def _bundle_worker(args: Tuple) -> List[SweepRecord]:
    """Module-level trampoline so bundles pickle for process pools.

    Worker processes compile against their own per-process default
    cache; repeated bundles for the same configuration within a worker
    still hit.
    """
    model, options, seeds, npu = args
    return _run_bundle(model, resolve_model(model), options, seeds, npu, cache=None)


def _bundles(
    jobs: Sequence[SweepJob],
) -> List[Tuple[str, CompileOptions, List[int]]]:
    """Group jobs by (model, configuration), preserving first-seen order."""
    order: List[Tuple[str, CompileOptions]] = []
    seeds: Dict[Tuple[str, CompileOptions], List[int]] = {}
    for job in jobs:
        key = (job.model, job.options)
        if key not in seeds:
            seeds[key] = []
            order.append(key)
        seeds[key].append(job.seed)
    return [(model, options, seeds[(model, options)]) for model, options in order]


def run_sweep(
    jobs: Sequence[SweepJob],
    npu: NPUConfig,
    max_workers: Optional[int] = None,
    cache: Optional[ProgramCache] = None,
) -> List[SweepRecord]:
    """Run a grid of sweep jobs; records come back in bundle order.

    ``max_workers=None`` picks ``os.cpu_count()``; anything that
    resolves to one worker runs serially in-process (sharing ``cache``),
    which is also the deterministic-profiling path.  The serial path
    resolves each model once and compiles its bundles inside the graph's
    decision scope, so a model's configurations share receptive fields
    and, where they partition alike, one partition.

    A grid point builds no ``Command`` and derives no trace: its
    latency and makespan come from the :class:`~repro.sim.SimResult`,
    and its barrier, halo and transfer counts from the program's
    columns (:func:`repro.sim.stats.program_barrier_groups` shares
    :func:`~repro.sim.stats.collect_stats`' barrier-group definition).
    """
    bundles = _bundles(jobs)
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    max_workers = min(max_workers, len(bundles)) if bundles else 0

    records: List[SweepRecord] = []
    if max_workers <= 1:
        graphs: Dict[str, Graph] = {}
        with contextlib.ExitStack() as scopes:
            for model, options, seeds in bundles:
                if model not in graphs:
                    graph = resolve_model(model)
                    graphs[model] = scopes.enter_context(graph.decision_scope())
                records.extend(
                    _run_bundle(model, graphs[model], options, seeds, npu, cache)
                )
        return records

    from concurrent.futures import ProcessPoolExecutor

    payloads = [(model, options, seeds, npu) for model, options, seeds in bundles]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        for bundle_records in pool.map(_bundle_worker, payloads):
            records.extend(bundle_records)
    return records


def records_by_model(
    records: Sequence[SweepRecord],
) -> Dict[str, List[SweepRecord]]:
    """Group flat records per model, preserving record order."""
    grouped: Dict[str, List[SweepRecord]] = {}
    for record in records:
        grouped.setdefault(record.model, []).append(record)
    return grouped


def record_speedups(
    records: Sequence[SweepRecord],
) -> Dict[str, Dict[str, float]]:
    """Per-model speedups over the single-core baseline (seed-averaged).

    Mirrors :func:`repro.analysis.compare.speedups` for flat sweep
    records, including the zero-latency guards.
    """
    out: Dict[str, Dict[str, float]] = {}
    for model, model_records in records_by_model(records).items():
        latency: Dict[str, List[float]] = {}
        baseline_labels = set()
        for r in model_records:
            latency.setdefault(r.label, []).append(r.latency_us)
            if r.single_core:
                baseline_labels.add(r.label)
        if not baseline_labels:
            raise ValueError(
                f"sweep for {model!r} has no single-core baseline"
            )
        base_label = next(iter(baseline_labels))
        base = sum(latency[base_label]) / len(latency[base_label])
        if base <= 0:
            raise ValueError(
                f"single-core baseline for {model!r} reports non-positive "
                f"latency ({base} us); the sweep cannot be normalized"
            )
        out[model] = {
            label: (base / (sum(xs) / len(xs)) if sum(xs) > 0 else float("inf"))
            for label, xs in latency.items()
        }
    return out
