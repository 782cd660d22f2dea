"""Pinned static brackets and performance lint over the zoo.

Each pin hashes the exact floats a derivation produced, so any change
to how a command is priced -- durations, bus rates, the longest-path
sweeps, the binding walk -- fails the pin of the case that moved, by
name.  ``test_bounds`` checks only containment and a loose tightness;
these pins hold the brackets themselves still:

* every :meth:`~repro.verify.bounds.BoundsReport.to_dict` plus its
  ``path_cids``;
* perflint's (RPR8xx) stats and diagnostic codes.

The cases are the six zoo models under the four paper configurations on
``exynos2100_like``, plus the mixed test graph on the jitter-free
``tiny_test_machine(3)``.
"""

from __future__ import annotations

import hashlib
import types

import pytest

from repro.compiler import compile_cached
from repro.hw import tiny_test_machine
from repro.models import ZOO
from repro.verify import HappensBefore, compute_bounds
from repro.verify.perflint import check_perflint

from tests.conftest import make_mixed_graph
from tests.sim.test_scheduler_equivalence import CONFIGS, _program_for

MODELS = [m.name for m in ZOO]
MIXED = "mixed@tiny3"

BOUNDS_PINS = {
    ("DeepLabV3+", "+Halo"): "d91fc14bbf0a9e11",
    ("DeepLabV3+", "+Stratum"): "d2a04b0ea6863ceb",
    ("DeepLabV3+", "1-core"): "b6225386ace9c59a",
    ("DeepLabV3+", "Base"): "ea7a5ddaea54f22f",
    ("InceptionV3", "+Halo"): "5347f8252096d808",
    ("InceptionV3", "+Stratum"): "416c59eca3c1603c",
    ("InceptionV3", "1-core"): "d118f464d01f4e9b",
    ("InceptionV3", "Base"): "c83219cc622b50eb",
    ("MobileDet-SSD", "+Halo"): "3b29bc983f876241",
    ("MobileDet-SSD", "+Stratum"): "48197881ad2b5cdb",
    ("MobileDet-SSD", "1-core"): "915502342c14c765",
    ("MobileDet-SSD", "Base"): "e9031bf7827c52b2",
    ("MobileNetV2", "+Halo"): "f382377c862fa499",
    ("MobileNetV2", "+Stratum"): "56809b410918ff21",
    ("MobileNetV2", "1-core"): "0e9ca5c862a6ea24",
    ("MobileNetV2", "Base"): "bd2abe1e119110d4",
    ("MobileNetV2-SSD", "+Halo"): "e123378b7ecb65be",
    ("MobileNetV2-SSD", "+Stratum"): "064d9c3f5a315062",
    ("MobileNetV2-SSD", "1-core"): "ca1e043023253060",
    ("MobileNetV2-SSD", "Base"): "fda59fc1619fac3a",
    ("UNet", "+Halo"): "8d50ffe09ac69d41",
    ("UNet", "+Stratum"): "1df5ae20714c5b97",
    ("UNet", "1-core"): "6eba2553df8e396e",
    ("UNet", "Base"): "50ea0f43961a8dd8",
    ("mixed@tiny3", "+Halo"): "8138a51ec3c17e5a",
    ("mixed@tiny3", "+Stratum"): "77ff8b5cc632af42",
    ("mixed@tiny3", "1-core"): "9d0d32ae6fa0c5f2",
    ("mixed@tiny3", "Base"): "13a66b5801d4458d",
}
PERFLINT_PINS = {
    ("DeepLabV3+", "+Halo"): "4c78b17d7faece28",
    ("DeepLabV3+", "+Stratum"): "cba444aeb8b6f984",
    ("DeepLabV3+", "1-core"): "ec3b8c8aa1e1cf5e",
    ("DeepLabV3+", "Base"): "a4010695c9b08ec2",
    ("InceptionV3", "+Halo"): "35ef8dfd8d5aa971",
    ("InceptionV3", "+Stratum"): "7f5370971ce7b5ec",
    ("InceptionV3", "1-core"): "ec3b8c8aa1e1cf5e",
    ("InceptionV3", "Base"): "c2c57eb86bbc9fcd",
    ("MobileDet-SSD", "+Halo"): "d905629236c526a0",
    ("MobileDet-SSD", "+Stratum"): "24e04042a1d6433f",
    ("MobileDet-SSD", "1-core"): "ec3b8c8aa1e1cf5e",
    ("MobileDet-SSD", "Base"): "ea3c0147c6a4c93a",
    ("MobileNetV2", "+Halo"): "12291a72aa2ed2e6",
    ("MobileNetV2", "+Stratum"): "6aee6415f505997d",
    ("MobileNetV2", "1-core"): "ec3b8c8aa1e1cf5e",
    ("MobileNetV2", "Base"): "532d0ca3bf8fc4e1",
    ("MobileNetV2-SSD", "+Halo"): "327855622afab461",
    ("MobileNetV2-SSD", "+Stratum"): "809d01823c4246fc",
    ("MobileNetV2-SSD", "1-core"): "ec3b8c8aa1e1cf5e",
    ("MobileNetV2-SSD", "Base"): "dedcbee89e4dba19",
    ("UNet", "+Halo"): "7cbcd68d5d005f6c",
    ("UNet", "+Stratum"): "f3453ce847bfee98",
    ("UNet", "1-core"): "ec3b8c8aa1e1cf5e",
    ("UNet", "Base"): "dbb51161bb05bafe",
    ("mixed@tiny3", "+Halo"): "d685fec12786ae40",
    ("mixed@tiny3", "+Stratum"): "75069a38053a8737",
    ("mixed@tiny3", "1-core"): "6da642593a213f62",
    ("mixed@tiny3", "Base"): "06e4860c22cf95d0",
}

CASES = sorted(BOUNDS_PINS)


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _case(model: str, label: str):
    options = next(o for o in CONFIGS if o.label == label)
    if model != MIXED:
        return _program_for(model, options)
    npu = tiny_test_machine(3)
    machine = npu.single_core() if options.is_single_core else npu
    return compile_cached(make_mixed_graph(), machine, options).program, machine


def bounds_values(program, npu):
    report = compute_bounds(program, npu)
    return report.to_dict(), report.path_cids


def perflint_values(program, npu):
    compiled = types.SimpleNamespace(program=program, npu=npu)
    result = check_perflint(compiled, HappensBefore(program))
    return result.stats, [d.code for d in result.diagnostics]


@pytest.mark.parametrize("model,label", CASES)
def test_bounds_pin(model, label):
    got = _digest(bounds_values(*_case(model, label)))
    assert got == BOUNDS_PINS[model, label], f"bounds pin {model}/{label} moved: {got}"


@pytest.mark.parametrize("model,label", CASES)
def test_perflint_pin(model, label):
    got = _digest(perflint_values(*_case(model, label)))
    assert got == PERFLINT_PINS[model, label], (
        f"perflint pin {model}/{label} moved: {got}"
    )


def test_pins_cover_zoo_and_mixed_graph():
    expected = {(m, o.label) for m in MODELS + [MIXED] for o in CONFIGS}
    assert set(BOUNDS_PINS) == set(PERFLINT_PINS) == expected
