"""Data types supported by the NPU and their storage properties.

The paper's benchmark networks run quantized: most models use INT8 while
DeepLabV3+ uses INT16 (Table 2).  The data type matters to the machine model
only through the element size -- it scales every DMA transfer, SPM footprint,
and alignment computation.
"""

from __future__ import annotations

import enum
import functools

import numpy as np


class DataType(enum.Enum):
    """Element type of a tensor as stored in NPU memories."""

    INT8 = "int8"
    INT16 = "int16"
    INT32 = "int32"
    FP16 = "fp16"
    FP32 = "fp32"

    @functools.cached_property
    def size_bytes(self) -> int:
        """Storage size of one element in bytes.

        Kept on the member after the first read, so the compiler's many
        reads are attribute reads, not enum-keyed dict lookups.
        """
        return _SIZE_BYTES[self]

    @property
    def numpy_dtype(self) -> np.dtype:
        """NumPy dtype used by the functional (reference) executor.

        Quantized types are widened to float64 for reference execution: the
        repo validates *indexing semantics* (partitioning, halo, stratum
        math), not quantized rounding behaviour, so exact arithmetic in a
        wide type is the right oracle.
        """
        return np.dtype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataType.{self.name}"


_SIZE_BYTES = {
    DataType.INT8: 1,
    DataType.INT16: 2,
    DataType.INT32: 4,
    DataType.FP16: 2,
    DataType.FP32: 4,
}
