"""The benchmark model zoo: Table 2 of the paper."""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

from repro.ir.dtypes import DataType
from repro.ir.graph import Graph
from repro.models.deeplab_v3plus import deeplab_v3plus
from repro.models.inception_v3 import inception_v3, inception_v3_stem
from repro.models.mobiledet_ssd import mobiledet_ssd
from repro.models.mobilenet_v2 import mobilenet_v2
from repro.models.mobilenet_v2_ssd import mobilenet_v2_ssd
from repro.models.unet import unet


@dataclasses.dataclass(frozen=True)
class ModelInfo:
    """One row of the paper's Table 2."""

    name: str
    category: str
    input_size: Tuple[int, int, int]
    dtype: DataType
    factory: Callable[[], Graph]


#: Table 2 of the paper, in its row order.
ZOO: Tuple[ModelInfo, ...] = (
    ModelInfo(
        name="InceptionV3",
        category="Classification",
        input_size=(299, 299, 3),
        dtype=DataType.INT8,
        factory=inception_v3,
    ),
    ModelInfo(
        name="MobileNetV2",
        category="Classification",
        input_size=(224, 224, 3),
        dtype=DataType.INT8,
        factory=mobilenet_v2,
    ),
    ModelInfo(
        name="MobileNetV2-SSD",
        category="Object detection",
        input_size=(300, 300, 3),
        dtype=DataType.INT8,
        factory=mobilenet_v2_ssd,
    ),
    ModelInfo(
        name="MobileDet-SSD",
        category="Object detection",
        input_size=(320, 320, 3),
        dtype=DataType.INT8,
        factory=mobiledet_ssd,
    ),
    ModelInfo(
        name="DeepLabV3+",
        category="Segmentation",
        input_size=(513, 513, 3),
        dtype=DataType.INT16,
        factory=deeplab_v3plus,
    ),
    ModelInfo(
        name="UNet",
        category="Segmentation",
        input_size=(572, 572, 3),
        dtype=DataType.INT8,
        factory=unet,
    ),
)

_BY_NAME: Dict[str, ModelInfo] = {m.name.lower(): m for m in ZOO}


def model_names() -> List[str]:
    return [m.name for m in ZOO]


def get_model(name: str) -> Graph:
    """Build a zoo model by (case-insensitive) name."""
    key = name.lower()
    if key not in _BY_NAME:
        raise KeyError(f"unknown model {name!r}; known: {model_names()}")
    return _BY_NAME[key].factory()


def resolve_model(name: str) -> Graph:
    """A zoo model by name (as :func:`get_model`); ``"stem"`` is the
    InceptionV3 stem."""
    if name == "stem":
        return inception_v3_stem()
    return get_model(name)


def get_info(name: str) -> ModelInfo:
    key = name.lower()
    if key not in _BY_NAME:
        raise KeyError(f"unknown model {name!r}; known: {model_names()}")
    return _BY_NAME[key]
