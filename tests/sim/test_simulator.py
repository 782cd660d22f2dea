"""Discrete-event simulator on hand-built programs with known timings."""

import dataclasses

import pytest

from repro.compiler.program import Command, CommandKind, Program, ProgramBuilder
from repro.cost.compute import compute_cycles
from repro.hw import CoreConfig, NPUConfig
from repro.sim import SimSession, simulate


def machine(
    cores=1,
    macs_per_cycle=100,
    dma=10.0,
    bus=10.0,
    latency=0,
    sync_base=50,
    sync_per_core=0,
):
    core_list = tuple(
        CoreConfig(
            name=f"c{i}",
            macs_per_cycle=macs_per_cycle,
            dma_bytes_per_cycle=dma,
            spm_bytes=1 << 20,
            channel_alignment=1,
            spatial_alignment=1,
            compute_efficiency=1.0,
        )
        for i in range(cores)
    )
    return NPUConfig(
        name="t",
        cores=core_list,
        bus_bytes_per_cycle=bus,
        frequency_ghz=1.0,
        sync_base_cycles=sync_base,
        sync_per_core_cycles=sync_per_core,
        dram_latency_cycles=latency,
    )


class TestSingleCommands:
    def test_compute_duration(self):
        npu = machine()
        b = ProgramBuilder(1)
        b.add(0, CommandKind.COMPUTE, macs=1000)
        result = simulate(b.build(), npu)
        assert result.makespan_cycles == pytest.approx(
            compute_cycles(1000, npu.core(0))
        )

    def test_dma_duration(self):
        npu = machine(latency=7)
        b = ProgramBuilder(1)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=100)
        result = simulate(b.build(), npu)
        assert result.makespan_cycles == pytest.approx(7 + 100 / 10.0)

    def test_zero_byte_dma_costs_latency_only(self):
        npu = machine(latency=5)
        b = ProgramBuilder(1)
        b.add(0, CommandKind.STORE_OUTPUT, num_bytes=0)
        result = simulate(b.build(), npu)
        assert result.makespan_cycles == pytest.approx(5.0)

    def test_barrier_duration(self):
        npu = machine()
        b = ProgramBuilder(1)
        b.add(0, CommandKind.BARRIER, cycles=123.0)
        result = simulate(b.build(), npu)
        assert result.makespan_cycles == pytest.approx(123.0)


class TestEngineOverlap:
    def test_load_and_compute_overlap(self):
        """Independent load and compute run concurrently on one core."""
        npu = machine()
        b = ProgramBuilder(1)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=500)  # 50 cycles
        b.add(0, CommandKind.COMPUTE, macs=5000)
        result = simulate(b.build(), npu)
        comp = compute_cycles(5000, npu.core(0))
        assert result.makespan_cycles == pytest.approx(max(50.0, comp))

    def test_same_engine_serializes(self):
        npu = machine()
        b = ProgramBuilder(1)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=200)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=300)
        result = simulate(b.build(), npu)
        assert result.makespan_cycles == pytest.approx(50.0)

    def test_dependency_serializes_across_engines(self):
        npu = machine()
        b = ProgramBuilder(1)
        ld = b.add(0, CommandKind.LOAD_INPUT, num_bytes=200)  # 20
        cp = b.add(0, CommandKind.COMPUTE, deps=[ld], macs=3000)
        b.add(0, CommandKind.STORE_OUTPUT, deps=[cp], num_bytes=100)  # 10
        result = simulate(b.build(), npu)
        comp = compute_cycles(3000, npu.core(0))
        assert result.makespan_cycles == pytest.approx(20.0 + comp + 10.0)

    def test_software_pipeline_hides_dma(self):
        """Two tiles: tile 1's load overlaps tile 0's compute."""
        npu = machine()
        b = ProgramBuilder(1)
        l0 = b.add(0, CommandKind.LOAD_INPUT, num_bytes=300)  # 30
        l1 = b.add(0, CommandKind.LOAD_INPUT, num_bytes=300)  # 30
        c0 = b.add(0, CommandKind.COMPUTE, deps=[l0], macs=4000)
        c1 = b.add(0, CommandKind.COMPUTE, deps=[l1], macs=4000)
        result = simulate(b.build(), npu)
        comp = compute_cycles(4000, npu.core(0))
        # loads: 0-30 and 30-60; computes back to back from t=30.
        assert result.makespan_cycles == pytest.approx(30.0 + 2 * comp)


class TestBusContention:
    def test_two_cores_share_bus(self):
        npu = machine(cores=2, dma=10.0, bus=10.0)
        b = ProgramBuilder(2)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=100)
        b.add(1, CommandKind.LOAD_INPUT, num_bytes=100)
        result = simulate(b.build(), npu)
        # 200 bytes through a 10 B/cy bus.
        assert result.makespan_cycles == pytest.approx(20.0)

    def test_wide_bus_no_contention(self):
        npu = machine(cores=2, dma=10.0, bus=100.0)
        b = ProgramBuilder(2)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=100)
        b.add(1, CommandKind.LOAD_INPUT, num_bytes=100)
        result = simulate(b.build(), npu)
        assert result.makespan_cycles == pytest.approx(10.0)


class TestBarrierSemantics:
    def test_barrier_waits_for_slowest_core(self):
        npu = machine(cores=2)
        b = ProgramBuilder(2)
        b.add(0, CommandKind.COMPUTE, macs=1000)
        b.add(1, CommandKind.COMPUTE, macs=9000)
        b.barrier(cycles=5.0)
        result = simulate(b.build(), npu)
        slow = compute_cycles(9000, npu.core(1))
        assert result.makespan_cycles == pytest.approx(slow + 5.0)

    def test_post_barrier_work_waits(self):
        npu = machine(cores=2)
        b = ProgramBuilder(2)
        b.add(0, CommandKind.COMPUTE, macs=1000)
        b.add(1, CommandKind.COMPUTE, macs=9000)
        cids = b.barrier(cycles=5.0)
        b.add(0, CommandKind.LOAD_INPUT, deps=[cids[0]], num_bytes=100)
        result = simulate(b.build(), npu)
        slow = compute_cycles(9000, npu.core(1))
        assert result.makespan_cycles == pytest.approx(slow + 5.0 + 10.0)

    def test_remote_wait_recorded(self):
        npu = machine(cores=2)
        b = ProgramBuilder(2)
        b.add(0, CommandKind.COMPUTE, macs=1000)
        b.add(1, CommandKind.COMPUTE, macs=9000)
        b.barrier(cycles=5.0)
        result = simulate(b.build(), npu)
        trace = result.trace
        cores, starts, own_ready = map(trace.column, ("core", "start", "own_ready"))
        waits = {
            cores[p]: max(0.0, starts[p] - own_ready[p])
            for p in trace.positions("kind", CommandKind.BARRIER)
        }
        gap = compute_cycles(9000, npu.core(1)) - compute_cycles(1000, npu.core(0))
        assert waits[0] == pytest.approx(gap)
        assert waits[1] == pytest.approx(0.0)


class TestCrossCoreDependencies:
    def test_halo_rendezvous(self):
        """recv on core 1 waits for send on core 0."""
        npu = machine(cores=2, bus=100.0)
        b = ProgramBuilder(2)
        c0 = b.add(0, CommandKind.COMPUTE, macs=5000)
        s0 = b.add(0, CommandKind.HALO_SEND, deps=[c0], num_bytes=100)  # 10
        r1 = b.add(1, CommandKind.HALO_RECV, deps=[s0], num_bytes=100)  # 10
        b.add(1, CommandKind.COMPUTE, deps=[r1], macs=1000)
        result = simulate(b.build(), npu)
        expected = (
            compute_cycles(5000, npu.core(0))
            + 10.0
            + 10.0
            + compute_cycles(1000, npu.core(1))
        )
        assert result.makespan_cycles == pytest.approx(expected)


class TestJitter:
    def test_jitter_is_deterministic_per_seed(self):
        npu = dataclasses.replace(machine(cores=2), sync_jitter_cycles=1000)
        b = ProgramBuilder(2)
        b.add(0, CommandKind.COMPUTE, macs=1000)
        b.barrier(cycles=5.0)
        program = b.build()
        a = simulate(program, npu, seed=1).makespan_cycles
        b_run = simulate(program, npu, seed=1).makespan_cycles
        c = simulate(program, npu, seed=2).makespan_cycles
        assert a == b_run
        assert a != c

    def test_no_jitter_without_config(self):
        npu = machine(cores=2)
        b = ProgramBuilder(2)
        b.add(0, CommandKind.COMPUTE, macs=1000)
        b.barrier(cycles=5.0)
        program = b.build()
        assert simulate(program, npu, seed=1).makespan_cycles == simulate(
            program, npu, seed=2
        ).makespan_cycles

    @pytest.mark.parametrize("base", [0, 1, 977])
    def test_draws_seeded_by_cid_plus_base(self, base):
        """``delays_for(seed, base)`` draws command ``cid``'s jitter the
        way the reference scheduler draws command ``cid + base``'s, so
        base 0 is the one-shot table."""
        import random

        from repro.sim.simulator import _plan_for

        npu = dataclasses.replace(machine(cores=2), sync_jitter_cycles=1000)
        b = ProgramBuilder(2)
        for _ in range(3):
            b.add(0, CommandKind.COMPUTE, macs=1000)
            b.barrier(cycles=5.0)
        plan = _plan_for(b.build(), npu)
        assert plan.delays_for(1) is plan.delays_for(1, 0)
        for seed in (1, 2):
            delays = plan.delays_for(seed, base)
            assert plan.jittered
            for cid, bound in plan.jittered:
                rng = random.Random((seed << 32) ^ ((cid + base) * 2654435761))
                assert delays[cid] == plan.base_delay[cid] + rng.uniform(0.0, bound)


def _three_core_program():
    b = ProgramBuilder(3)
    b.add(2, CommandKind.COMPUTE, macs=1)
    return b.build()


def _dangling_program():
    """Fits the machine but fails ``Program.validate()``."""
    cmd = Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(7,), macs=1)
    return Program(num_cores=1, commands=[cmd])


def _nan_cycles_program():
    """A barrier whose fixed latency is NaN, which JSON round-trips."""
    cmd = Command(cid=0, core=0, kind=CommandKind.BARRIER, cycles=float("nan"))
    return Program(num_cores=1, commands=[cmd])


#: programs a 2-core machine must refuse, and the refusal's message
_REJECTED = pytest.mark.parametrize(
    "bad,message",
    [
        (_three_core_program, "program targets 3 cores"),
        (_dangling_program, "dangling"),
        (_nan_cycles_program, "non-finite cycles"),
    ],
    ids=["too-wide", "dangling", "nan-cycles"],
)


class TestErrors:
    def test_core_count_mismatch(self):
        npu = machine(cores=1)
        b = ProgramBuilder(2)
        b.add(1, CommandKind.COMPUTE, macs=1)
        with pytest.raises(ValueError):
            simulate(b.build(), npu)

    def test_core_count_checked_by_every_reader(self):
        """The simulator and the static bracket reject a program wider
        than the machine alike, before pricing any command."""
        from repro.verify import bounds_for, compute_bounds

        program, npu = _three_core_program(), machine(cores=2)
        for read in (simulate, compute_bounds, bounds_for):
            with pytest.raises(ValueError, match="program targets 3 cores, machine has 2"):
                read(program, npu)

    @_REJECTED
    def test_rejected_injection_leaves_idle_session_alone(self, bad, message):
        session = SimSession(machine(cores=2), memo=None)
        with pytest.raises(ValueError, match=message):
            session.inject(bad(), at_us=500.0)
        assert session.now_us == 0.0
        assert session.idle

    @_REJECTED
    def test_rejected_injection_does_not_run_session_forward(self, bad, message):
        npu = machine(cores=2)
        b = ProgramBuilder(2)
        b.add(0, CommandKind.COMPUTE, macs=200_000)  # 2,000 cycles: 2 us
        program = b.build()
        session = SimSession(npu, memo=None)
        session.inject(program, at_us=0.0)
        with pytest.raises(ValueError, match=message):
            session.inject(bad(), at_us=3.0)
        assert session.now_us == 0.0
        assert session.num_active == 1
        (out,) = session.run_until()
        assert out.completed_at_cycles == simulate(program, npu, memo=None).makespan_cycles

    def test_empty_program(self):
        npu = machine()
        result = simulate(ProgramBuilder(1).build(), npu)
        assert result.makespan_cycles == 0.0
        assert result.latency_us == 0.0
