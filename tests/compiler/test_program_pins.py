"""Pinned compiled programs over the zoo, the mixed graph and autotune pins.

Each pin is the (shortened) :func:`~repro.sim.program_fingerprint` of a
compiled program: every command's core, kind, dependencies, payload,
layer and tag.  Any change to what the compiler decides -- partition
regions, receptive fields, strata, forwarding, tile counts, lowering
order -- fails the pin of the case that moved, by name.

The cases are the six zoo models under the four paper configurations on
``exynos2100_like``, the mixed test graph on ``tiny_test_machine(3)``,
and three autotune winners from ``BENCH_autotune.json``, one per knob
kind (partition direction, pipeline depth, stratum block).
"""

from __future__ import annotations

import pytest

from repro.compiler import CompileOptions, compile_cached
from repro.hw import exynos2100_like, tiny_test_machine
from repro.models import ZOO
from repro.sim import program_fingerprint

from tests.conftest import make_mixed_graph
from tests.sim.test_scheduler_equivalence import CONFIGS, _program_for

MODELS = [m.name for m in ZOO]
MIXED = "mixed@tiny3"

PROGRAM_PINS = {
    ("DeepLabV3+", "+Halo"): "374bc2bdc97ae4e2",
    ("DeepLabV3+", "+Stratum"): "4816ce1c81c6f110",
    ("DeepLabV3+", "1-core"): "265e764de108be31",
    ("DeepLabV3+", "Base"): "825cd7808ab02bcc",
    ("InceptionV3", "+Halo"): "6cb6679c781ea68c",
    ("InceptionV3", "+Stratum"): "29bfcb7fabfef92a",
    ("InceptionV3", "1-core"): "bfa4d62ebb640be8",
    ("InceptionV3", "Base"): "f6a175faabfdf7d7",
    ("MobileDet-SSD", "+Halo"): "8ca0e040e2879785",
    ("MobileDet-SSD", "+Stratum"): "bb7a65b90a091191",
    ("MobileDet-SSD", "1-core"): "0f4aee0d50bac3c4",
    ("MobileDet-SSD", "Base"): "cea362bdab137bfc",
    ("MobileNetV2", "+Halo"): "dc2dd14df9cc7a54",
    ("MobileNetV2", "+Stratum"): "01058ec9b9d88e95",
    ("MobileNetV2", "1-core"): "a5a7c8b5cfeefb64",
    ("MobileNetV2", "Base"): "3ebff275b2d5c56e",
    ("MobileNetV2-SSD", "+Halo"): "fd0db182f49030d8",
    ("MobileNetV2-SSD", "+Stratum"): "24653780250cdf8e",
    ("MobileNetV2-SSD", "1-core"): "42b5500ab45a49aa",
    ("MobileNetV2-SSD", "Base"): "c8061503825af80c",
    ("UNet", "+Halo"): "ecab30aa0232613d",
    ("UNet", "+Stratum"): "fcf77fcc08d50926",
    ("UNet", "1-core"): "6d4dc1af40d62535",
    ("UNet", "Base"): "ff423ee907beed35",
    ("mixed@tiny3", "+Halo"): "0950fee388b70ef8",
    ("mixed@tiny3", "+Stratum"): "7ef90a0f35f4e241",
    ("mixed@tiny3", "1-core"): "062545e3bd8e8092",
    ("mixed@tiny3", "Base"): "ae59bbc5b8ecdef8",
}

#: name -> (model, overrides passed to ``with_overrides`` on +Stratum).
OVERRIDE_CASES = {
    "directions": (
        "MobileNetV2",
        {"directions": {"block3_dw": "spatial", "block8_expand": "spatial", "logits": "none"}},
    ),
    "tiles": (
        "MobileNetV2",
        {
            "tiles": {
                "block11_project": 8,
                "block2_add": 2,
                "block4_expand": 8,
                "block7_project": 1,
                "pool": 8,
            }
        },
    ),
    "stratum_blocks": (
        "UNet",
        {"blocks": ["dec0_conv0", "dec0_up", "enc1_conv1"]},
    ),
}
OVERRIDE_PINS = {
    "directions": "28b557a9d11901a7",
    "tiles": "32f771b60fc4a4ee",
    "stratum_blocks": "6c52059e955ac1c6",
}

CASES = sorted(PROGRAM_PINS)


def _fingerprint(program) -> str:
    return program_fingerprint(program)[:16]


def _program(model: str, label: str):
    options = next(o for o in CONFIGS if o.label == label)
    if model != MIXED:
        return _program_for(model, options)[0]
    npu = tiny_test_machine(3)
    machine = npu.single_core() if options.is_single_core else npu
    return compile_cached(make_mixed_graph(), machine, options).program


@pytest.mark.parametrize("model,label", CASES)
def test_program_pin(model, label):
    got = _fingerprint(_program(model, label))
    assert got == PROGRAM_PINS[model, label], f"program pin {model}/{label} moved: {got}"


@pytest.mark.parametrize("name", sorted(OVERRIDE_CASES))
def test_override_pin(name):
    model, overrides = OVERRIDE_CASES[name]
    options = CompileOptions.stratum_config().with_overrides(**overrides)
    graph = next(m for m in ZOO if m.name == model).factory()
    got = _fingerprint(compile_cached(graph, exynos2100_like(), options).program)
    assert got == OVERRIDE_PINS[name], f"override pin {name} moved: {got}"
    # The pins bite: each override set compiles to a different program
    # than the heuristic +Stratum one.
    assert got != PROGRAM_PINS[model, "+Stratum"]


def test_pins_cover_zoo_and_mixed_graph():
    expected = {(m, o.label) for m in MODELS + [MIXED] for o in CONFIGS}
    assert set(PROGRAM_PINS) == expected
    assert set(OVERRIDE_PINS) == set(OVERRIDE_CASES)
