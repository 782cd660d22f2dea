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


class TestNoCoercion:
    """Values load as written: a float, string or bool where an int
    belongs, a non-string label, or a missing key, is a ValueError
    naming field and command."""

    @staticmethod
    def doc_with(compiled, pos, key, value):
        model, _ = compiled
        doc = program_to_dict(model.program)
        doc["commands"][pos][key] = value
        return doc

    @staticmethod
    def first_of(compiled, predicate):
        model, _ = compiled
        return next(c.cid for c in model.program.commands if predicate(c))

    @pytest.mark.parametrize(
        "key,value",
        [("core", 1.9), ("core", True), ("cid", 0.2), ("macs", "100"), ("bytes", 64.7)],
    )
    def test_non_int_field_rejected(self, compiled, key, value):
        if key == "macs":
            pos = self.first_of(compiled, lambda c: c.macs > 0)
        elif key == "bytes":
            pos = self.first_of(compiled, lambda c: c.num_bytes > 0)
        else:
            pos = 1
        doc = self.doc_with(compiled, pos, key, value)
        with pytest.raises(ValueError, match=f"command {pos}: field '{key}' must be an int"):
            program_from_dict(doc)

    @pytest.mark.parametrize("deps", [[0.0], [True], "0"])
    def test_non_int_deps_rejected(self, compiled, deps):
        doc = self.doc_with(compiled, 1, "deps", deps)
        with pytest.raises(ValueError, match="command 1: field 'deps'"):
            program_from_dict(doc)

    @pytest.mark.parametrize("cycles", ["100", True, None])
    def test_non_number_cycles_rejected(self, compiled, cycles):
        doc = self.doc_with(compiled, 1, "cycles", cycles)
        with pytest.raises(ValueError, match="command 1: field 'cycles'"):
            program_from_dict(doc)

    @pytest.mark.parametrize("num_cores", [2.0, True, "2", None])
    def test_non_int_num_cores_rejected(self, compiled, num_cores):
        model, _ = compiled
        doc = program_to_dict(model.program)
        doc["num_cores"] = num_cores
        with pytest.raises(ValueError, match="field 'num_cores' must be an int"):
            program_from_dict(doc)

    def test_negative_num_cores_rejected(self):
        # It used to load with no commands and simulate to 0 us.
        doc = {"format": "repro-program", "version": 1, "num_cores": -1, "commands": []}
        with pytest.raises(ValueError, match="field 'num_cores' must be >= 0, got -1"):
            program_from_dict(doc)

    @pytest.mark.parametrize("key", ["cid", "core", "kind", "deps", "bytes", "macs", "cycles"])
    def test_missing_key_rejected(self, compiled, key):
        model, _ = compiled
        doc = program_to_dict(model.program)
        del doc["commands"][2][key]
        with pytest.raises(ValueError, match=f"command 2: missing field\\(s\\) '{key}'"):
            program_from_dict(doc)

    @pytest.mark.parametrize("key,value", [("layer", 5), ("tag", ["x"]), ("layer", None)])
    def test_non_string_label_rejected(self, compiled, key, value):
        doc = self.doc_with(compiled, 1, key, value)
        with pytest.raises(ValueError, match=f"command 1: field '{key}' must be a string"):
            program_from_dict(doc)

    def test_unknown_kind_names_the_command(self, compiled):
        doc = self.doc_with(compiled, 3, "kind", "teleport")
        with pytest.raises(ValueError, match="command 3: unknown kind 'teleport'"):
            program_from_dict(doc)

    @pytest.mark.parametrize("doc", [[], {"format": "repro-program", "version": 1, "num_cores": 1}])
    def test_malformed_document_rejected(self, doc):
        with pytest.raises(ValueError):
            program_from_dict(doc)

    def test_layer_and_tag_stay_optional(self, compiled):
        model, _ = compiled
        doc = program_to_dict(model.program)
        for entry in doc["commands"]:
            del entry["layer"], entry["tag"]
        rebuilt = program_from_dict(doc)
        assert [c.layer for c in rebuilt.commands] == [""] * len(rebuilt)
