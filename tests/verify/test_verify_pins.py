"""Pinned correctness-pass reports over the zoo.

Each pin hashes the whole :meth:`~repro.verify.VerifyReport.to_dict` of
``verify_model`` with its default passes -- structure, race, liveness,
spm, stratum and halo: every diagnostic and every pass counter.  The
structure verdict a program keeps and the engine queues it derives feed
the happens-before relation behind race and liveness, so a change to
either that moves a finding or a count fails the pin of the case that
moved, by name.  ``test_zoo_clean`` checks only that the zoo verifies
clean; these pins hold the stats too.

The cases are the six zoo models under the four paper configurations on
``exynos2100_like``, plus the mixed test graph on ``tiny_test_machine(3)``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.compiler import compile_cached
from repro.hw import exynos2100_like, tiny_test_machine
from repro.models import ZOO, get_model
from repro.verify import verify_model

from tests.conftest import make_mixed_graph
from tests.sim.test_scheduler_equivalence import CONFIGS

MODELS = [m.name for m in ZOO]
MIXED = "mixed@tiny3"

VERIFY_PINS = {
    ("DeepLabV3+", "+Halo"): "6da4ade3a4d67ac7",
    ("DeepLabV3+", "+Stratum"): "72f5745e3ced625f",
    ("DeepLabV3+", "1-core"): "12debba0d8580197",
    ("DeepLabV3+", "Base"): "453ae958aea4ed56",
    ("InceptionV3", "+Halo"): "b702532939101c67",
    ("InceptionV3", "+Stratum"): "6fbc7bb6b798b501",
    ("InceptionV3", "1-core"): "b3f157b85b3ae072",
    ("InceptionV3", "Base"): "f41c5130abe854e6",
    ("MobileDet-SSD", "+Halo"): "90f6226a8ddd3f90",
    ("MobileDet-SSD", "+Stratum"): "3ae61f169fa45b47",
    ("MobileDet-SSD", "1-core"): "8dd94765392814e6",
    ("MobileDet-SSD", "Base"): "2f7be109401e0c97",
    ("MobileNetV2", "+Halo"): "fdb8fe2966d6fae7",
    ("MobileNetV2", "+Stratum"): "876474202cb020f1",
    ("MobileNetV2", "1-core"): "0d73c2636da70c48",
    ("MobileNetV2", "Base"): "c7d909f90b94118c",
    ("MobileNetV2-SSD", "+Halo"): "e94146d92cfc4b33",
    ("MobileNetV2-SSD", "+Stratum"): "3ebaa48d3412f06d",
    ("MobileNetV2-SSD", "1-core"): "b8a69716c432aed0",
    ("MobileNetV2-SSD", "Base"): "8770c3a1c3352d5b",
    ("UNet", "+Halo"): "584954ea46105a8d",
    ("UNet", "+Stratum"): "0c8c60768ac50e2c",
    ("UNet", "1-core"): "9573d72119089222",
    ("UNet", "Base"): "7905e84380943e64",
    ("mixed@tiny3", "+Halo"): "8fe094fdaee2f04d",
    ("mixed@tiny3", "+Stratum"): "2d18a275495dac1e",
    ("mixed@tiny3", "1-core"): "b70af185775610f4",
    ("mixed@tiny3", "Base"): "f722e7cbd42527ec",
}

CASES = sorted(VERIFY_PINS)


def _digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _compiled(model: str, label: str):
    options = next(o for o in CONFIGS if o.label == label)
    if model == MIXED:
        graph, npu = make_mixed_graph(), tiny_test_machine(3)
    else:
        graph, npu = get_model(model), exynos2100_like()
    machine = npu.single_core() if options.is_single_core else npu
    return compile_cached(graph, machine, options)


@pytest.mark.parametrize("model,label", CASES)
def test_verify_pin(model, label):
    got = _digest(verify_model(_compiled(model, label)))
    assert got == VERIFY_PINS[model, label], f"verify pin {model}/{label} moved: {got}"


def test_pins_cover_zoo_and_mixed_graph():
    expected = {(m, o.label) for m in MODELS + [MIXED] for o in CONFIGS}
    assert set(VERIFY_PINS) == expected
