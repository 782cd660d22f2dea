"""Chrome trace-event export."""

import json

import pytest

from repro.analysis import to_chrome_trace, write_chrome_trace
from repro.compiler import CompileOptions, compile_model
from repro.hw import tiny_test_machine
from repro.sim import simulate

from tests.conftest import make_chain_graph


@pytest.fixture(scope="module")
def run():
    npu = tiny_test_machine(2)
    compiled = compile_model(make_chain_graph(), npu, CompileOptions.base())
    sim = simulate(compiled.program, npu)
    return npu, compiled, sim


class TestChromeTrace:
    def test_event_count(self, run):
        npu, compiled, sim = run
        doc = to_chrome_trace(sim.trace, npu)
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        nonzero = sum(
            end > start
            for start, end in zip(sim.trace.column("start"), sim.trace.column("end"))
        )
        assert len(complete) == nonzero

    def test_metadata_rows(self, run):
        npu, _, sim = run
        doc = to_chrome_trace(sim.trace, npu)
        names = [
            e for e in doc["traceEvents"] if e.get("name") == "process_name"
        ]
        assert len(names) == npu.num_cores

    def test_durations_in_us(self, run):
        npu, _, sim = run
        doc = to_chrome_trace(sim.trace, npu)
        complete = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        total_dur = sum(e["dur"] for e in complete)
        assert total_dur > 0
        for e in complete:
            assert e["ts"] >= 0
            assert e["dur"] > 0

    def test_json_roundtrip(self, run, tmp_path):
        npu, _, sim = run
        path = write_chrome_trace(sim.trace, npu, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        assert doc["traceEvents"]

    def test_args_carry_payloads(self, run):
        npu, _, sim = run
        doc = to_chrome_trace(sim.trace, npu)
        loads = [
            e
            for e in doc["traceEvents"]
            if e.get("cat") == "load-input"
        ]
        assert loads
        assert all(e["args"]["bytes"] > 0 for e in loads)
