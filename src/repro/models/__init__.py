"""Benchmark model zoo (structural reproductions of Table 2)."""

from repro.models.builder import GraphBuilder
from repro.models.deeplab_v3plus import deeplab_v3plus
from repro.models.inception_v3 import STEM_LAYERS, inception_v3, inception_v3_stem
from repro.models.mobiledet_ssd import mobiledet_ssd
from repro.models.mobilenet_v2 import mobilenet_v2
from repro.models.mobilenet_v2_ssd import mobilenet_v2_ssd
from repro.models.unet import unet
from repro.models.zoo import ZOO, ModelInfo, get_info, get_model, model_names, resolve_model

__all__ = [
    "GraphBuilder",
    "ModelInfo",
    "STEM_LAYERS",
    "ZOO",
    "deeplab_v3plus",
    "get_info",
    "get_model",
    "inception_v3",
    "inception_v3_stem",
    "mobiledet_ssd",
    "mobilenet_v2",
    "mobilenet_v2_ssd",
    "model_names",
    "resolve_model",
    "unet",
]
