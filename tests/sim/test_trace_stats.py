"""Trace queries and RunStats aggregation."""

import pytest

from repro.compiler.program import CommandKind, Engine
from repro.hw import tiny_test_machine
from repro.sim.stats import collect_stats

from tests.sim.trace_rows import Row, trace_of


def event(cid, core, kind, start, end, nbytes=0, macs=0, layer="l", own_ready=None):
    engine = {
        CommandKind.LOAD_INPUT: Engine.LOAD,
        CommandKind.LOAD_WEIGHT: Engine.LOAD,
        CommandKind.HALO_RECV: Engine.LOAD,
        CommandKind.COMPUTE: Engine.COMPUTE,
        CommandKind.STORE_OUTPUT: Engine.STORE,
        CommandKind.HALO_SEND: Engine.STORE,
        CommandKind.BARRIER: Engine.CTRL,
    }[kind]
    return Row(
        cid=cid,
        core=core,
        engine=engine,
        kind=kind,
        layer=layer,
        tag="",
        num_bytes=nbytes,
        macs=macs,
        start=start,
        end=end,
        own_ready=start if own_ready is None else own_ready,
        dep_ready=start,
    )


class TestTrace:
    def test_makespan(self):
        trace = trace_of(
            [
                event(0, 0, CommandKind.COMPUTE, 0, 10),
                event(1, 0, CommandKind.COMPUTE, 10, 25),
            ]
        )
        assert trace.makespan == 25

    def test_busy_intervals_merge(self):
        trace = trace_of(
            [
                event(0, 0, CommandKind.LOAD_INPUT, 0, 10, nbytes=1),
                event(1, 0, CommandKind.COMPUTE, 5, 20, macs=1),
                event(2, 0, CommandKind.STORE_OUTPUT, 30, 35, nbytes=1),
            ]
        )
        assert trace.busy_intervals(0) == [(0, 20), (30, 35)]
        assert trace.busy_time(0) == 25

    def test_busy_time_by_engine(self):
        trace = trace_of(
            [
                event(0, 0, CommandKind.LOAD_INPUT, 0, 10, nbytes=1),
                event(1, 0, CommandKind.COMPUTE, 5, 20, macs=1),
            ]
        )
        assert trace.busy_time(0, Engine.LOAD) == 10
        assert trace.busy_time(0, Engine.COMPUTE) == 15

    def test_filters(self):
        trace = trace_of(
            [
                event(0, 0, CommandKind.COMPUTE, 0, 1, layer="a"),
                event(1, 1, CommandKind.COMPUTE, 0, 1, layer="b"),
            ]
        )
        assert trace.positions("core", 0) == [0]
        assert trace.positions("layer", "b") == [1]
        assert trace.positions("kind", CommandKind.COMPUTE) == [0, 1]
        assert trace.positions("kind", CommandKind.BARRIER) == []

    def test_remote_wait(self):
        """A barrier that could start at 4 on its own core but started
        at 10 waited 6 cycles on other cores; with its 5-cycle duration
        it costs 11 cycles of synchronization."""
        npu = tiny_test_machine(1)
        trace = trace_of([event(0, 0, CommandKind.BARRIER, 10, 15, own_ready=4)])
        stats = collect_stats(trace, npu)
        assert stats.sync_overhead_samples == (11,)
        assert stats.cores[0].sync_wait_cycles == 11


class TestStats:
    def make_trace(self):
        return trace_of(
            [
                event(0, 0, CommandKind.LOAD_INPUT, 0, 10, nbytes=100),
                event(1, 0, CommandKind.LOAD_WEIGHT, 10, 12, nbytes=20),
                event(2, 0, CommandKind.COMPUTE, 12, 30, macs=500),
                event(3, 0, CommandKind.STORE_OUTPUT, 30, 40, nbytes=50),
                event(4, 1, CommandKind.HALO_RECV, 0, 5, nbytes=16, own_ready=0),
                event(5, 0, CommandKind.BARRIER, 40, 45, own_ready=38),
                event(6, 1, CommandKind.BARRIER, 40, 45, own_ready=40),
            ]
        )

    def test_per_core_bytes(self):
        npu = tiny_test_machine(2)
        stats = collect_stats(self.make_trace(), npu)
        assert stats.cores[0].transfer_bytes == 170
        # halo traffic is core-to-core, not DRAM transfer (Table 4).
        assert stats.cores[1].transfer_bytes == 0
        assert stats.cores[1].halo_bytes == 16
        assert stats.cores[0].bytes_by_kind[CommandKind.LOAD_INPUT] == 100
        assert stats.total_transfer_bytes == 170
        assert stats.total_halo_bytes == 16

    def test_halo_counted_once_and_not_as_transfer(self):
        """One exchange = SEND + RECV of the same payload: the DRAM
        transfer total must ignore both, and the halo total must count
        the payload once, not twice."""
        npu = tiny_test_machine(2)
        trace = trace_of(
            [
                event(0, 0, CommandKind.LOAD_INPUT, 0, 10, nbytes=100),
                event(1, 0, CommandKind.HALO_SEND, 10, 12, nbytes=64),
                event(2, 1, CommandKind.HALO_RECV, 10, 14, nbytes=64),
                event(3, 1, CommandKind.STORE_OUTPUT, 14, 20, nbytes=40),
            ]
        )
        stats = collect_stats(trace, npu)
        assert stats.total_transfer_bytes == 140
        assert stats.total_halo_bytes == 64
        # the send side stays visible in the per-kind breakdown.
        assert stats.cores[0].bytes_by_kind[CommandKind.HALO_SEND] == 64
        assert stats.cores[1].bytes_by_kind[CommandKind.HALO_RECV] == 64

    def test_latency_conversion(self):
        npu = tiny_test_machine(2)  # 1 GHz
        stats = collect_stats(self.make_trace(), npu)
        assert stats.latency_us == pytest.approx(45 / 1000.0)

    def test_idle(self):
        npu = tiny_test_machine(2)
        stats = collect_stats(self.make_trace(), npu)
        # core 0 busy [0, 45) -> idle 0; core 1 busy [0,5) + [40,45).
        assert stats.cores[0].idle_cycles == pytest.approx(0.0)
        assert stats.cores[1].idle_cycles == pytest.approx(35.0)

    def test_sync_samples(self):
        npu = tiny_test_machine(2)
        stats = collect_stats(self.make_trace(), npu)
        # two barriers (waits 2 and 0 plus durations 5) and one halo recv
        # with no wait.
        assert len(stats.sync_overhead_samples) == 3
        assert stats.num_barriers == 1
        assert stats.num_halo_exchanges == 1

    def test_barrier_groups_for_core_subsets(self):
        """Merged multi-tenant programs have barriers spanning only a
        tenant's core group; each group must count as one barrier even
        on a machine with more cores."""
        npu = tiny_test_machine(4)
        trace = trace_of(
            [
                # tenant a: one barrier across cores 0-1.
                event(0, 0, CommandKind.BARRIER, 10, 15, layer="a/c2"),
                event(1, 1, CommandKind.BARRIER, 10, 15, layer="a/c2"),
                # tenant b: one barrier on its single core 3.
                event(2, 3, CommandKind.BARRIER, 20, 25, layer="b/c1"),
            ]
        )
        stats = collect_stats(trace, npu)
        assert stats.num_barriers == 2

    def test_repeated_same_label_barriers(self):
        """Two emissions with an identical label still count twice."""
        npu = tiny_test_machine(2)
        trace = trace_of(
            [
                event(0, 0, CommandKind.BARRIER, 0, 5, layer="l"),
                event(1, 1, CommandKind.BARRIER, 0, 5, layer="l"),
                event(2, 0, CommandKind.BARRIER, 10, 15, layer="l"),
                event(3, 1, CommandKind.BARRIER, 10, 15, layer="l"),
            ]
        )
        stats = collect_stats(trace, npu)
        assert stats.num_barriers == 2

    def test_performance_inverse_latency(self):
        npu = tiny_test_machine(2)
        stats = collect_stats(self.make_trace(), npu)
        assert stats.performance == pytest.approx(1.0 / stats.latency_us)

    def test_total_macs(self):
        npu = tiny_test_machine(2)
        stats = collect_stats(self.make_trace(), npu)
        assert stats.total_macs == 500

    def test_mean_std_helpers(self):
        npu = tiny_test_machine(2)
        stats = collect_stats(self.make_trace(), npu)
        # DRAM transfer only: the 16-byte halo receive is not included.
        assert stats.transfer_mean_kb == pytest.approx((170 + 0) / 2 / 1024)
        assert stats.idle_mean_us >= 0
        assert stats.idle_std_us >= 0

    def test_empty_trace(self):
        npu = tiny_test_machine(1)
        stats = collect_stats(trace_of([]), npu)
        assert stats.latency_us == 0.0
        assert stats.performance == 0.0


class TestDramBytesExcludeHalo:
    """Regression: enabling halo exchange must not inflate the reported
    global<->local DRAM transfer (the Table 4 metric); halo traffic is
    core-to-core and reported separately, each exchange once."""

    def test_halo_heavy_config(self):
        from repro.compiler import CompileOptions, compile_model
        from repro.sim import simulate
        from tests.conftest import make_chain_graph

        npu = tiny_test_machine(2)
        compiled = compile_model(make_chain_graph(), npu, CompileOptions.halo())
        program = compiled.program
        assert program.count(CommandKind.HALO_RECV) > 0  # halo-heavy indeed

        stats = collect_stats(simulate(program, npu).trace, npu)
        dram_kinds = (
            CommandKind.LOAD_INPUT,
            CommandKind.LOAD_WEIGHT,
            CommandKind.STORE_OUTPUT,
        )
        assert stats.total_transfer_bytes == program.total_bytes(dram_kinds)
        assert stats.total_halo_bytes == program.total_bytes(
            (CommandKind.HALO_RECV,)
        )
