"""The columnar Trace and the vectorized bus kernels.

Three contracts pinned here:

* the struct-of-arrays :class:`~repro.sim.trace.Trace` materializes
  :class:`~repro.sim.trace.TraceEvent` views byte-identical to the
  event-list representation, and both answer every query API with the
  same values;
* field queries (``for_core``/``for_layer``/``of_kind``) build their
  per-column index once -- repeated queries must not re-scan;
* the numpy bus kernels (``refill_rates_wide``/``advance_wide``/
  ``eta_wide``) and the ``_VECTOR_MIN`` switchover in both the event
  loop and :class:`~tests.sim.fluid_bus.FluidBus` are bit-identical to
  the scalar paths, clean and faulted (stall windows interact with bus
  integration), on uniform and heterogeneous DMA link caps.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings

from repro.compiler import CompileOptions
from repro.compiler.program import CommandKind, ProgramBuilder
from repro.faults import FaultPlan, ThermalThrottle, TransientStall
from repro.hw import CoreConfig, NPUConfig
from repro.sim import bus as bus_mod
from repro.sim import simulate
from repro.sim.bus import advance_wide, eta_wide, refill_rates_wide
from repro.sim.trace import Trace

from tests.sim.event_core import simulate_event_driven
from tests.sim.fluid_bus import FluidBus
from tests.sim.test_scheduler_equivalence import (
    _jittery_machine,
    _program_for,
    assert_traces_identical,
    random_program,
)


def _columnar_and_event_traces(seed: int = 0):
    program, machine = _program_for("InceptionV3", CompileOptions.stratum_config())
    columnar = simulate(program, machine, seed=seed, memo=None).trace
    event_built = simulate_event_driven(program, machine, seed=seed).trace
    return columnar, event_built


class TestColumnarEquivalence:
    def test_materialized_events_identical(self):
        columnar, event_built = _columnar_and_event_traces()
        assert len(columnar) == len(event_built)
        for a, b in zip(columnar.events, event_built.events):
            assert a == b, f"diverges at cid={a.cid}"

    def test_columns_match_event_attributes(self):
        columnar, event_built = _columnar_and_event_traces()
        for field in ("cid", "core", "kind", "layer", "start", "end",
                      "own_ready", "dep_ready", "num_bytes", "macs"):
            expected = [getattr(e, field) for e in event_built.events]
            assert columnar.column(field) == expected, field
            assert event_built.column(field) == expected, field

    def test_query_apis_agree(self):
        columnar, event_built = _columnar_and_event_traces()
        assert columnar.makespan == event_built.makespan
        for core in range(4):
            assert columnar.for_core(core) == event_built.for_core(core)
            assert columnar.busy_intervals(core) == event_built.busy_intervals(core)
            assert columnar.busy_time(core) == event_built.busy_time(core)
        layers = {e.layer for e in event_built.events}
        some = sorted(layers)[:3]
        for layer in some:
            assert columnar.for_layer(layer) == event_built.for_layer(layer)
        assert columnar.for_layers(some) == event_built.for_layers(some)
        for kind in (CommandKind.COMPUTE, CommandKind.BARRIER, CommandKind.HALO_RECV):
            assert columnar.of_kind(kind) == event_built.of_kind(kind)

    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_random_programs_materialize_identically(self, prog_cores):
        program, cores = prog_cores
        npu = _jittery_machine(cores)
        for seed in (0, 2):
            columnar = simulate(program, npu, seed=seed, memo=None).trace
            event_built = simulate_event_driven(program, npu, seed=seed).trace
            assert columnar.events == event_built.events
            # The rebuilt event-list trace round-trips to the same columns.
            rebuilt = Trace(list(columnar.events))
            for field in ("cid", "start", "end", "own_ready", "dep_ready"):
                assert rebuilt.column(field) == columnar.column(field)

    def test_pickle_roundtrip(self):
        columnar, _ = _columnar_and_event_traces()
        clone = pickle.loads(pickle.dumps(columnar))
        assert clone == columnar
        assert clone.makespan == columnar.makespan

    def test_positional_events_and_validation(self):
        empty = Trace([])
        assert len(empty) == 0 and empty.makespan == 0.0 and empty.events == []
        with pytest.raises(TypeError):
            Trace()
        columnar, _ = _columnar_and_event_traces()
        with pytest.raises(TypeError):
            Trace(events=columnar.events, columns=lambda: None)


class TestIndexCaching:
    def test_repeated_queries_do_not_rescan(self):
        columnar, event_built = _columnar_and_event_traces()
        for trace in (columnar, event_built):
            assert trace.index_builds == 0
            for _ in range(5):
                trace.for_core(0)
                trace.for_core(1)
                trace.for_core(99)  # absent values must not rebuild either
            assert trace.index_builds == 1
            for _ in range(5):
                trace.for_layer("nope")
                trace.for_layers(["nope", "also-nope"])
                trace.of_kind(CommandKind.COMPUTE)
            # one index per queried column: core, layer, kind
            assert trace.index_builds == 3

    def test_columns_are_cached_objects(self):
        columnar, event_built = _columnar_and_event_traces()
        for trace in (columnar, event_built):
            assert trace.column("start") is trace.column("start")
            assert trace.column("kind") is trace.column("kind")


def _scalar_refill(caps, bandwidth):
    """The eager water-filling loop, as FluidBus computes it."""
    order = sorted(range(len(caps)), key=caps.__getitem__)
    rates = [0.0] * len(caps)
    budget = bandwidth
    for pos, j in enumerate(order):
        fair = budget / (len(caps) - pos)
        rate = caps[j] if caps[j] <= fair else fair
        rates[j] = rate
        budget -= rate
    return rates


class TestWideKernels:
    def test_refill_rates_wide_matches_scalar(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 5, 17, 64):
            caps = [rng.choice([4.0, 10.0, 10.0, 25.0, rng.uniform(0.1, 40.0)])
                    for _ in range(n)]
            assert refill_rates_wide(caps, 30.0) == _scalar_refill(caps, 30.0)

    def test_advance_wide_matches_scalar(self):
        rng = random.Random(11)
        rem = [rng.uniform(0.0, 5000.0) for _ in range(40)]
        rem[3] = 1e-7  # already under the finish epsilon
        rates = [rng.uniform(0.0, 20.0) for _ in range(40)]
        dt = 17.25
        new, fin = advance_wide(rem, rates, dt)
        expected = [r - rate * dt for r, rate in zip(rem, rates)]
        assert new == expected
        assert fin == [i for i, r in enumerate(expected) if r <= bus_mod._EPS]

    def test_eta_wide_matches_scalar(self):
        rem = [100.0, -0.5, 3.0, 12.0]
        rates = [10.0, 2.0, 0.0, 6.0]
        best = float("inf")
        for r, rate in zip(rem, rates):
            if rate > 0:
                t = max(0.0, r) / rate
                best = min(best, t)
        assert eta_wide(rem, rates) == best
        assert eta_wide([5.0], [0.0]) == float("inf")

    def test_fluidbus_wide_paths_bit_identical(self, monkeypatch):
        def drive(vector_min):
            monkeypatch.setattr(bus_mod, "_VECTOR_MIN", vector_min)
            rng = random.Random(3)
            bus = FluidBus(30.0)
            log = []
            nxt = 0
            for step in range(200):
                if bus.num_active < 8 or rng.random() < 0.5:
                    bus.add(nxt, rng.uniform(10.0, 800.0), rng.choice([4.0, 10.0, 25.0]))
                    nxt += 1
                eta = bus.eta()
                log.append(("eta", eta))
                if eta != float("inf"):
                    finished = bus.advance(eta * rng.choice([0.5, 1.0, 1.0]))
                    log.append(("fin", tuple(finished)))
                log.append(("rates", tuple(sorted(bus.rates().items()))))
            return log

        wide = drive(2)
        scalar = drive(10**9)
        assert wide == scalar


HETERO_CORES = (4.0, 25.0, 10.0, 10.0)


def _hetero_machine() -> NPUConfig:
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
            for i, cap in enumerate(HETERO_CORES)
        ),
        bus_bytes_per_cycle=24.0,
        frequency_ghz=1.0,
        dram_latency_cycles=3,
        sync_jitter_cycles=50,
        halo_jitter_cycles=25,
    )


class TestVectorMinSwitchover:
    """Force the numpy kernels on at tiny in-flight counts and pin
    bit-identity against the retained event-driven core."""

    @pytest.mark.parametrize("model", ["InceptionV3", "UNet"])
    def test_clean_equivalence_with_forced_vector_paths(self, model, monkeypatch):
        monkeypatch.setattr(bus_mod, "_VECTOR_MIN", 4)
        program, machine = _program_for(model, CompileOptions.stratum_config())
        for seed in (0, 1, 2):
            flat = simulate(program, machine, seed=seed, memo=None)
            event_driven = simulate_event_driven(program, machine, seed=seed)
            assert_traces_identical(flat, event_driven)

    def test_heterogeneous_caps_equivalence(self, monkeypatch):
        npu = _hetero_machine()
        builder = ProgramBuilder(len(HETERO_CORES))
        rng = random.Random(12)
        for i in range(60):
            core = rng.randrange(len(HETERO_CORES))
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
        program = builder.build()
        baseline = simulate(program, npu, seed=1, memo=None)
        event_driven = simulate_event_driven(program, npu, seed=1)
        assert_traces_identical(baseline, event_driven)
        monkeypatch.setattr(bus_mod, "_VECTOR_MIN", 2)
        forced = simulate(program, npu, seed=1, memo=None)
        assert_traces_identical(forced, baseline)

    def test_faulted_equivalence_with_forced_vector_paths(self, monkeypatch):
        """Stall windows interact with bus integration: a faulted run
        must be unchanged by the wide-path switchover."""
        plan = FaultPlan(
            events=(
                TransientStall(start_us=10.0, duration_us=200.0, core=0),
                ThermalThrottle(cores=(1,)),
            )
        )
        program, machine = _program_for("InceptionV3", CompileOptions.stratum_config())
        baseline = simulate(program, machine, seed=2, faults=plan, memo=None)
        monkeypatch.setattr(bus_mod, "_VECTOR_MIN", 2)
        forced = simulate(program, machine, seed=2, faults=plan, memo=None)
        assert_traces_identical(forced, baseline)
        assert forced.faults == baseline.faults
