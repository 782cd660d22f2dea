"""The columnar Trace and the bus at every width.

Three contracts pinned here:

* the flat core's :class:`~repro.sim.trace.Trace` holds, column for
  column and event for event, the trace the retained event-driven core
  builds from the program's commands, and both answer every query the
  same way; equality and pickling go through all twelve columns;
* :meth:`~repro.sim.trace.Trace.positions` builds its per-column index
  once -- repeated queries must not re-scan;
* the event loop's bus kernels are bit-identical to the object bus of
  the retained event-driven core on heterogeneous DMA link caps, at the
  1-3 transfers the unrolled branches take and at the 16 and more a
  twelve-core machine reaches.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings

from repro.compiler import CompileOptions
from repro.compiler.program import CommandKind, ProgramBuilder
from repro.hw import CoreConfig, NPUConfig
from repro.sim import session as session_mod
from repro.sim import simulate
from repro.sim.bus import refill_eta
from repro.sim.trace import COLUMN_FIELDS, Trace

from tests.sim.event_core import simulate_event_driven
from tests.sim.test_scheduler_equivalence import (
    _jittery_machine,
    _program_for,
    assert_traces_identical,
    random_program,
)
from tests.sim.trace_rows import rows, trace_of


def _columnar_and_oracle_traces(seed: int = 0):
    program, machine = _program_for("InceptionV3", CompileOptions.stratum_config())
    columnar = simulate(program, machine, seed=seed, memo=None).trace
    oracle = simulate_event_driven(program, machine, seed=seed).trace
    return columnar, oracle


class TestColumnarEquivalence:
    def test_rows_identical(self):
        columnar, oracle = _columnar_and_oracle_traces()
        assert len(columnar) == len(oracle)
        for a, b in zip(rows(columnar), rows(oracle)):
            assert a == b, f"diverges at cid={a.cid}"

    def test_columns_match_event_attributes(self):
        columnar, oracle = _columnar_and_oracle_traces()
        for field in COLUMN_FIELDS:
            assert columnar.column(field) == oracle.column(field), field
        assert columnar == oracle

    def test_query_apis_agree(self):
        columnar, oracle = _columnar_and_oracle_traces()
        assert columnar.makespan == oracle.makespan
        for core in range(4):
            assert columnar.positions("core", core) == oracle.positions("core", core)
            assert columnar.busy_intervals(core) == oracle.busy_intervals(core)
            assert columnar.busy_time(core) == oracle.busy_time(core)
        for layer in sorted(set(oracle.column("layer")))[:3]:
            assert columnar.positions("layer", layer) == oracle.positions("layer", layer)
        for kind in (CommandKind.COMPUTE, CommandKind.BARRIER, CommandKind.HALO_RECV):
            assert columnar.positions("kind", kind) == oracle.positions("kind", kind)

    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_random_programs_rows_identical(self, prog_cores):
        program, cores = prog_cores
        npu = _jittery_machine(cores)
        for seed in (0, 2):
            columnar = simulate(program, npu, seed=seed, memo=None).trace
            oracle = simulate_event_driven(program, npu, seed=seed).trace
            assert rows(columnar) == rows(oracle)
            # A trace rebuilt from the rows holds the same columns.
            assert trace_of(rows(columnar)) == columnar

    def test_equality_reads_every_column(self):
        columnar, _ = _columnar_and_oracle_traces()
        events = rows(columnar)
        assert trace_of(events) == columnar
        assert trace_of(events[:-1]) != columnar
        last = events[-1]
        for field in COLUMN_FIELDS:
            value = getattr(last, field)
            if isinstance(value, (int, float)):
                changed = value + 1
            elif isinstance(value, str):
                changed = value + "x"
            else:  # engine and kind enums
                changed = next(v for v in type(value) if v is not value)
            forged = trace_of(events[:-1] + [last._replace(**{field: changed})])
            assert forged != columnar, field

    def test_pickle_roundtrip(self):
        columnar, _ = _columnar_and_oracle_traces()
        clone = pickle.loads(pickle.dumps(columnar))
        assert clone == columnar
        assert clone.makespan == columnar.makespan

    def test_empty_trace_and_validation(self):
        empty = trace_of([])
        assert len(empty) == 0 and empty.makespan == 0.0
        assert rows(empty) == [] and empty.positions("core", 0) == []
        with pytest.raises(TypeError):
            Trace()  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            Trace(events=[])  # type: ignore[call-arg]

    def test_deferred_columns_built_on_first_read(self):
        columnar, _ = _columnar_and_oracle_traces()
        builds = []

        def build():
            builds.append(1)
            return columnar._columns()

        deferred = Trace(build)
        assert builds == []
        assert deferred == columnar and len(deferred) == len(columnar)
        assert builds == [1]


class TestIndexCaching:
    def test_repeated_queries_do_not_rescan(self):
        columnar, oracle = _columnar_and_oracle_traces()
        for trace in (columnar, oracle):
            assert trace.index_builds == 0
            for _ in range(5):
                trace.positions("core", 0)
                trace.positions("core", 1)
                trace.positions("core", 99)  # absent values must not rebuild either
            assert trace.index_builds == 1
            for _ in range(5):
                trace.positions("layer", "nope")
                trace.positions("layer", "also-nope")
                trace.positions("kind", CommandKind.COMPUTE)
            # one index per queried column: core, layer, kind
            assert trace.index_builds == 3

    def test_columns_are_cached_objects(self):
        columnar, oracle = _columnar_and_oracle_traces()
        for trace in (columnar, oracle):
            assert trace.column("start") is trace.column("start")
            assert trace.column("kind") is trace.column("kind")


HETERO_CORES = (4.0, 25.0, 10.0, 10.0)


def _hetero_machine(caps=HETERO_CORES) -> NPUConfig:
    """Per-core DMA link caps differ: the water-filling sort is not the
    identity, so the non-uniform refill path is exercised."""
    return NPUConfig(
        name="hetero",
        cores=tuple(
            CoreConfig(
                name=f"c{i}",
                macs_per_cycle=100,
                dma_bytes_per_cycle=cap,
                spm_bytes=1 << 20,
                channel_alignment=1,
                spatial_alignment=1,
                compute_efficiency=1.0,
            )
            for i, cap in enumerate(caps)
        ),
        bus_bytes_per_cycle=24.0,
        frequency_ghz=1.0,
        dram_latency_cycles=3,
        sync_jitter_cycles=50,
        halo_jitter_cycles=25,
    )


def _random_bus_program(num_cores: int, num_commands: int, seed: int):
    """Random LOAD/STORE/COMPUTE commands with a barrier every 13."""
    builder = ProgramBuilder(num_cores)
    rng = random.Random(seed)
    for i in range(num_commands):
        core = rng.randrange(num_cores)
        if rng.random() < 0.4:
            builder.add(core, CommandKind.COMPUTE, deps=[], macs=rng.randrange(5000))
        else:
            deps = [rng.randrange(i)] if i and rng.random() < 0.5 else []
            builder.add(
                core,
                rng.choice([CommandKind.LOAD_INPUT, CommandKind.STORE_OUTPUT]),
                deps=deps,
                num_bytes=rng.randrange(1, 6000),
            )
        if i % 13 == 12:
            builder.barrier(cycles=rng.randrange(100))
    return builder.build()


class TestVectorMinSwitchover:
    """The flat core against the retained event-driven core on
    heterogeneous DMA link caps, where the water-filling sort is live,
    and on a bus wide enough to leave the unrolled kernels."""

    def test_heterogeneous_caps_equivalence(self):
        npu = _hetero_machine()
        program = _random_bus_program(len(HETERO_CORES), 60, seed=12)
        flat = simulate(program, npu, seed=1, memo=None)
        event_driven = simulate_event_driven(program, npu, seed=1)
        assert_traces_identical(flat, event_driven)

    def test_wide_bus_equivalence(self, monkeypatch):
        """Twelve cores keep up to 24 transfers on the bus; the general
        refill/advance loop must match the object bus at that width."""
        caps = HETERO_CORES * 3
        npu = _hetero_machine(caps)
        program = _random_bus_program(len(caps), 400, seed=5)
        widest = [0]

        def spy(cap, rem, rate, bw, uniform):
            widest[0] = max(widest[0], len(cap))
            return refill_eta(cap, rem, rate, bw, uniform)

        monkeypatch.setattr(session_mod, "refill_eta", spy)
        for seed in (0, 3):
            flat = simulate(program, npu, seed=seed, memo=None)
            event_driven = simulate_event_driven(program, npu, seed=seed)
            assert_traces_identical(flat, event_driven)
        assert widest[0] >= 16
