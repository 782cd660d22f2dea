"""Program JSON serialization round-trips."""

import json

import pytest

from repro.compiler import (
    CompileOptions,
    compile_model,
    load_program,
    program_from_dict,
    program_to_dict,
    save_program,
)
from repro.hw import tiny_test_machine
from repro.sim import simulate

from tests.conftest import make_mixed_graph


@pytest.fixture(scope="module")
def compiled():
    npu = tiny_test_machine(2)
    return compile_model(make_mixed_graph(), npu, CompileOptions.halo()), npu


class TestRoundTrip:
    def test_dict_roundtrip_is_identical(self, compiled):
        model, _ = compiled
        rebuilt = program_from_dict(program_to_dict(model.program))
        assert rebuilt.num_cores == model.program.num_cores
        assert len(rebuilt) == len(model.program)
        for a, b in zip(rebuilt.commands, model.program.commands):
            assert a == b

    def test_file_roundtrip_simulates_identically(self, compiled, tmp_path):
        model, npu = compiled
        path = save_program(model.program, tmp_path / "p.json")
        rebuilt = load_program(path)
        a = simulate(model.program, npu).makespan_cycles
        b = simulate(rebuilt, npu).makespan_cycles
        assert a == b

    def test_json_is_plain(self, compiled, tmp_path):
        model, _ = compiled
        path = save_program(model.program, tmp_path / "p.json")
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-program"
        assert isinstance(doc["commands"], list)


class TestValidation:
    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            program_from_dict({"format": "something-else"})

    def test_rejects_wrong_version(self, compiled):
        model, _ = compiled
        doc = program_to_dict(model.program)
        doc["version"] = 999
        with pytest.raises(ValueError):
            program_from_dict(doc)

    def test_rejects_corrupt_commands(self, compiled):
        model, _ = compiled
        doc = program_to_dict(model.program)
        doc["commands"][0]["deps"] = [10**6]
        with pytest.raises(ValueError):
            program_from_dict(doc)

    @pytest.mark.parametrize("cycles,literal", [(float("nan"), "NaN"), (float("inf"), "Infinity")])
    def test_rejects_non_finite_cycles(self, compiled, cycles, literal):
        # JSON writes NaN and Infinity and reads them back as floats.
        model, _ = compiled
        doc = program_to_dict(model.program)
        doc["commands"][0]["cycles"] = cycles
        text = json.dumps(doc)
        assert literal in text
        with pytest.raises(ValueError, match="non-finite cycles"):
            program_from_dict(json.loads(text))
