"""Tensor shapes and slices.

All activation tensors use the HWC layout (height, width, channels) for a
single-image inference, matching the paper's setting where batch is always 1.
Weight tensors carry their own shape tuple on the operator.

``TensorShape`` is the unit of all size accounting; ``Region`` describes a
rectangular sub-volume of a tensor and is the currency of the partitioner:
sub-layers, halos, and tiles are all Regions of layer inputs/outputs.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Tuple

from repro.ir.dtypes import DataType


@dataclasses.dataclass(frozen=True)
class TensorShape:
    """Shape of an activation tensor in HWC layout."""

    h: int
    w: int
    c: int

    def __post_init__(self) -> None:
        if self.h <= 0 or self.w <= 0 or self.c <= 0:
            raise ValueError(f"tensor dimensions must be positive, got {self}")

    @property
    def num_elements(self) -> int:
        return self.h * self.w * self.c

    def size_bytes(self, dtype: DataType) -> int:
        return self.num_elements * dtype.size_bytes

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.h, self.w, self.c)

    def __str__(self) -> str:
        return f"{self.h}x{self.w}x{self.c}"


@dataclasses.dataclass(frozen=True)
class Interval:
    """Half-open integer interval [start, stop) along one axis."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid interval [{self.start}, {self.stop})")

    @property
    def length(self) -> int:
        return self.stop - self.start

    @property
    def is_empty(self) -> bool:
        return self.stop == self.start

    def intersect(self, other: "Interval") -> "Interval":
        start = max(self.start, other.start)
        stop = max(start, min(self.stop, other.stop))
        return Interval(start, stop)

    def union_hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (they need not touch)."""
        return Interval(min(self.start, other.start), max(self.stop, other.stop))

    def contains(self, other: "Interval") -> bool:
        return self.start <= other.start and other.stop <= self.stop

    def shift(self, offset: int) -> "Interval":
        return Interval(self.start + offset, self.stop + offset)

    def clamp(self, lo: int, hi: int) -> "Interval":
        start = min(max(self.start, lo), hi)
        stop = min(max(self.stop, lo), hi)
        return Interval(start, max(start, stop))

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.stop))

    def __str__(self) -> str:
        return f"[{self.start}:{self.stop})"


@dataclasses.dataclass(frozen=True)
class Region:
    """A rectangular sub-volume of an HWC tensor.

    A Region is the shape-level description of "the part of this tensor a
    core (or a tile) touches".  Every axis is a half-open interval within
    the parent tensor's bounds.
    """

    rows: Interval
    cols: Interval
    chans: Interval

    def __hash__(self) -> int:
        # Over the six bounds in one call, consistent with ==: receptive-
        # field memos key on Regions, and the generated hash would make
        # one call per Interval as well.
        rows, cols, chans = self.rows, self.cols, self.chans
        return hash((rows.start, rows.stop, cols.start, cols.stop, chans.start, chans.stop))

    @classmethod
    def full(cls, shape: TensorShape) -> "Region":
        return cls(Interval(0, shape.h), Interval(0, shape.w), Interval(0, shape.c))

    @property
    def shape(self) -> TensorShape:
        if self.is_empty:
            raise ValueError("empty region has no TensorShape")
        return TensorShape(self.rows.length, self.cols.length, self.chans.length)

    @property
    def num_elements(self) -> int:
        rows, cols, chans = self.rows, self.cols, self.chans
        return (
            (rows.stop - rows.start)
            * (cols.stop - cols.start)
            * (chans.stop - chans.start)
        )

    @property
    def is_empty(self) -> bool:
        return (
            self.rows.stop == self.rows.start
            or self.cols.stop == self.cols.start
            or self.chans.stop == self.chans.start
        )

    def size_bytes(self, dtype: DataType) -> int:
        return self.num_elements * dtype.size_bytes

    def intersect(self, other: "Region") -> "Region":
        return Region(
            self.rows.intersect(other.rows),
            self.cols.intersect(other.cols),
            self.chans.intersect(other.chans),
        )

    def contains(self, other: "Region") -> bool:
        return (
            self.rows.contains(other.rows)
            and self.cols.contains(other.cols)
            and self.chans.contains(other.chans)
        )

    def within(self, shape: TensorShape) -> bool:
        return Region.full(shape).contains(self)

    def as_slices(self) -> Tuple[slice, slice, slice]:
        """NumPy slice tuple for indexing an HWC array."""
        return (
            slice(self.rows.start, self.rows.stop),
            slice(self.cols.start, self.cols.stop),
            slice(self.chans.start, self.chans.stop),
        )

    def __str__(self) -> str:
        return f"(h{self.rows}, w{self.cols}, c{self.chans})"


def split_interval_even(total: int, parts: int) -> Tuple[Interval, ...]:
    """Split ``[0, total)`` into ``parts`` contiguous near-equal intervals.

    Earlier parts receive the remainder, matching the common convention.
    Intervals may be empty when ``parts > total``.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, rem = divmod(total, parts)
    out = []
    start = 0
    for i in range(parts):
        length = base + (1 if i < rem else 0)
        out.append(Interval(start, start + length))
        start += length
    return tuple(out)


def split_interval_weighted(
    total: int,
    weights: Tuple[float, ...],
    alignment: int = 1,
    min_chunk: Optional[int] = None,
) -> Tuple[Interval, ...]:
    """Split ``[0, total)`` proportionally to ``weights`` with alignment.

    Every boundary except the last is rounded to a multiple of
    ``alignment``; the final part absorbs the remainder.  ``min_chunk``
    forces nonempty parts to have at least that many units (parts are
    dropped to empty instead when the budget runs out).

    This is the primitive behind workload balancing across heterogeneous
    cores: weights come from per-core throughput, alignment from the
    adder-tree channel/spatial constraints (Section 3.1.1).
    """
    if not weights:
        raise ValueError("weights must be non-empty")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if alignment <= 0:
        raise ValueError("alignment must be positive")
    weight_sum = sum(weights)
    if weight_sum == 0:
        raise ValueError("at least one weight must be positive")

    min_chunk = alignment if min_chunk is None else max(min_chunk, 1)
    lengths = [0] * len(weights)
    assigned = 0
    for i, weight in enumerate(weights):
        if weight == 0:
            continue
        remaining = total - assigned
        ideal = total * (weight / weight_sum)
        length = int(round(ideal / alignment)) * alignment
        if 0 < ideal and length < min_chunk:
            length = min_chunk
        length = max(0, min(length, remaining))
        lengths[i] = length
        assigned += length

    # Give any uncovered remainder to the last positive-weight part so the
    # split always covers [0, total) exactly.
    if assigned < total:
        positives = [i for i, w in enumerate(weights) if w > 0]
        lengths[positives[-1]] += total - assigned

    intervals = []
    start = 0
    for length in lengths:
        intervals.append(Interval(start, start + length))
        start += length
    return tuple(intervals)
