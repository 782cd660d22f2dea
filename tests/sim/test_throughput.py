"""Back-to-back frame pipelining."""

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.hw import tiny_test_machine
from repro.sim import measure_throughput

from tests.conftest import make_chain_graph


@pytest.fixture(scope="module")
def compiled():
    npu = tiny_test_machine(2)
    return compile_model(make_chain_graph(), npu, CompileOptions.base()), npu


class TestThroughput:
    def test_rejects_nonpositive(self, compiled):
        model, npu = compiled
        with pytest.raises(ValueError):
            measure_throughput(model.program, npu, frames=0)

    def test_per_frame_cost_at_most_latency(self, compiled):
        """Pipelining across frames can only help (or be neutral)."""
        model, npu = compiled
        result = measure_throughput(model.program, npu, frames=4)
        assert result.us_per_frame <= result.single_frame_latency_us * 1.01
        assert result.pipelining_gain >= 0.99

    def test_fps_consistent(self, compiled):
        model, npu = compiled
        result = measure_throughput(model.program, npu, frames=3)
        assert result.frames_per_second == pytest.approx(
            1e6 * 3 / result.makespan_us
        )

    def test_makespan_grows_with_frames(self, compiled):
        model, npu = compiled
        r2 = measure_throughput(model.program, npu, frames=2)
        r4 = measure_throughput(model.program, npu, frames=4)
        assert r4.makespan_us > r2.makespan_us
