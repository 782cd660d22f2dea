"""Per-layer latency attribution."""

import pytest

from repro.analysis import profile_layers, render_layer_report, top_layers
from repro.compiler import CompileOptions, compile_model
from repro.hw import tiny_test_machine
from repro.sim import simulate

from tests.conftest import make_mixed_graph


@pytest.fixture(scope="module")
def run():
    npu = tiny_test_machine(3)
    compiled = compile_model(make_mixed_graph(), npu, CompileOptions.base())
    return npu, compiled, simulate(compiled.program, npu)


class TestProfiles:
    def test_every_layer_present(self, run):
        npu, compiled, sim = run
        profiles = profile_layers(sim.trace)
        for name in compiled.schedule:
            if not compiled.graph.layer(name).is_input:
                assert name in profiles

    def test_macs_conserved(self, run):
        npu, compiled, sim = run
        profiles = profile_layers(sim.trace)
        assert sum(p.macs for p in profiles.values()) == compiled.total_macs

    def test_bytes_conserved(self, run):
        npu, compiled, sim = run
        profiles = profile_layers(sim.trace)
        assert (
            sum(p.transfer_bytes for p in profiles.values())
            == compiled.program.total_bytes()
        )

    def test_span_within_makespan(self, run):
        npu, _, sim = run
        for p in profile_layers(sim.trace).values():
            assert 0 <= p.span_start <= p.span_end <= sim.trace.makespan + 1e-6


class TestTopLayers:
    def test_ordering(self, run):
        npu, _, sim = run
        top = top_layers(sim.trace, npu, n=5, by="compute")
        values = [p.compute_cycles for p in top]
        assert values == sorted(values, reverse=True)

    def test_metrics(self, run):
        npu, _, sim = run
        for metric in ("span", "compute", "dma", "sync"):
            assert top_layers(sim.trace, npu, n=3, by=metric)

    def test_unknown_metric(self, run):
        npu, _, sim = run
        with pytest.raises(ValueError):
            top_layers(sim.trace, npu, by="vibes")

    @pytest.mark.parametrize("n", [0, -3])
    def test_fewer_than_one_layer_rejected(self, run, n):
        npu, _, sim = run
        with pytest.raises(ValueError, match="at least one layer"):
            top_layers(sim.trace, npu, n=n)
        with pytest.raises(ValueError, match="at least one layer"):
            render_layer_report(sim.trace, npu, n=n)

    def test_render(self, run):
        npu, _, sim = run
        text = render_layer_report(sim.trace, npu, n=4)
        assert "Hottest layers" in text
        assert len(text.splitlines()) == 4 + 3
