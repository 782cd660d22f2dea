"""Gantt rendering window/edge cases and exposed-wait accounting."""

import pytest

from repro.analysis import exposed_waits, render_gantt
from repro.compiler import CommandKind, CompileOptions, compile_model
from repro.hw import tiny_test_machine
from repro.sim import simulate

from tests.conftest import make_chain_graph


@pytest.fixture(scope="module")
def run():
    npu = tiny_test_machine(2)
    compiled = compile_model(make_chain_graph(), npu, CompileOptions.halo())
    return npu, compiled, simulate(compiled.program, npu)


class TestWindow:
    def test_explicit_window(self, run):
        npu, _, sim = run
        mid = sim.trace.makespan / 2
        text = render_gantt(sim.trace, 2, width=40, t0=0.0, t1=mid)
        assert f"{mid:,.0f}" in text.splitlines()[0]

    def test_degenerate_window(self, run):
        npu, _, sim = run
        # t1 <= t0 must not crash (clamped internally).
        text = render_gantt(sim.trace, 2, width=10, t0=5.0, t1=5.0)
        assert "core0" in text

    def test_width_respected(self, run):
        npu, _, sim = run
        text = render_gantt(sim.trace, 2, width=33)
        for line in text.splitlines()[1:]:
            if line.startswith("core"):
                assert line.index("]") - line.index("[") == 34

    @pytest.mark.parametrize("width", [0, -5])
    def test_width_below_one_rejected(self, run, width):
        npu, _, sim = run
        with pytest.raises(ValueError, match="width of at least 1"):
            render_gantt(sim.trace, 2, width=width)

    def test_halo_glyphs_present(self, run):
        npu, _, sim = run
        text = render_gantt(sim.trace, 2, width=120)
        assert "h" in text or "H" in text


class TestExposedWaits:
    def test_layer_filter(self, run):
        npu, _, sim = run
        all_waits = exposed_waits(sim.trace)
        some = exposed_waits(sim.trace, layers=["c3"])
        for kind, cycles in some.items():
            assert cycles <= all_waits.get(kind, 0) + 1e-6

    def test_halo_waits_counted(self, run):
        npu, _, sim = run
        waits = exposed_waits(sim.trace)
        assert CommandKind.HALO_RECV in waits
