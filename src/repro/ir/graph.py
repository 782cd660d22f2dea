"""The DNN graph: layers, edges, shape propagation, and traversal orders.

A :class:`Graph` is a DAG of :class:`Layer` nodes.  Shapes are inferred
eagerly when layers are added, so any consumer (partitioner, scheduler,
simulator, reference executor) reads concrete shapes off the graph.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.ir.dtypes import DataType
from repro.ir.ops import Concat, Input, Operator
from repro.ir.tensor import Region, TensorShape


class GraphError(ValueError):
    """Raised on malformed graph construction or queries."""


@dataclasses.dataclass(frozen=True)
class Layer:
    """A node in the DNN graph: an operator applied to named inputs.

    ``region_memo`` caches :meth:`input_region` answers keyed by
    ``(out_region, input_index)``.  The partitioner, stratum builder,
    allocator, tiler and lowering all ask for the same receptive fields,
    so the compiles of one :meth:`Graph.decision_scope` evaluate each
    once; the outermost exit of that scope empties the memo, and
    :func:`~repro.compiler.compile_model` runs inside one, so a bare
    compile starts and ends cold.  The memo is not part of the layer's
    value: equality, hashing, ``repr`` and ``dataclasses.replace``
    ignore it.
    """

    name: str
    op: Operator
    inputs: Tuple[str, ...]
    input_shapes: Tuple[TensorShape, ...]
    output_shape: TensorShape
    dtype: DataType
    region_memo: Dict[Tuple[Region, int], Region] = dataclasses.field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def is_input(self) -> bool:
        return isinstance(self.op, Input)

    def input_region(self, out_region: Region, input_index: int) -> Region:
        """Region of input ``input_index`` needed for ``out_region`` of output."""
        key = (out_region, input_index)
        region = self.region_memo.get(key)
        if region is not None:
            return region
        if input_index < 0 or input_index >= len(self.inputs):
            raise GraphError(f"layer {self.name} has no input index {input_index}")
        ishape = self.input_shapes[input_index]
        if isinstance(self.op, Concat):
            offset = self.op.channel_offset(input_index, self.input_shapes)
            region = self.op.input_region_with_offset(out_region, offset, ishape)
        else:
            region = self.op.input_region(
                out_region, input_index, ishape, self.output_shape
            )
        self.region_memo[key] = region
        return region

    def macs(self, out_region: Optional[Region] = None) -> int:
        region = Region.full(self.output_shape) if out_region is None else out_region
        return self.op.macs_for_output(region, self.input_shapes)

    def output_bytes(self) -> int:
        return self.output_shape.size_bytes(self.dtype)

    def weight_bytes(self) -> int:
        return self.op.weight_elements * self.dtype.size_bytes

    def __str__(self) -> str:
        return f"{self.name}:{self.op.type_name}({self.output_shape})"


class Graph:
    """A directed acyclic graph of layers.

    Layers must be added in a producers-before-consumers order (the natural
    order for model builders); this keeps shape inference eager and gives a
    free topological order.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._layers: Dict[str, Layer] = {}
        self._order: List[str] = []
        self._consumers: Dict[str, List[str]] = {}
        #: Whole-graph decisions the compiler keeps while a
        #: :meth:`decision_scope` is open, keyed by everything they were
        #: made from besides the graph; the values are opaque here.
        self.decision_memo: Dict[Hashable, object] = {}
        self._scope_depth = 0

    # ------------------------------------------------------------------ build

    def add(
        self,
        name: str,
        op: Operator,
        inputs: Sequence[str] = (),
        dtype: Optional[DataType] = None,
    ) -> Layer:
        """Add a layer; infers its output shape immediately."""
        if name in self._layers:
            raise GraphError(f"duplicate layer name {name!r}")
        input_shapes = []
        for src in inputs:
            if src not in self._layers:
                raise GraphError(f"layer {name!r} references unknown input {src!r}")
            input_shapes.append(self._layers[src].output_shape)
        if dtype is None:
            dtype = self._layers[inputs[0]].dtype if inputs else DataType.INT8
        output_shape = op.infer_output_shape(input_shapes)
        layer = Layer(
            name=name,
            op=op,
            inputs=tuple(inputs),
            input_shapes=tuple(input_shapes),
            output_shape=output_shape,
            dtype=dtype,
        )
        self._layers[name] = layer
        self._order.append(name)
        self._consumers[name] = []
        for src in inputs:
            self._consumers[src].append(name)
        return layer

    # ----------------------------------------------------------------- access

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __len__(self) -> int:
        return len(self._layers)

    def layer(self, name: str) -> Layer:
        try:
            return self._layers[name]
        except KeyError:
            raise GraphError(f"unknown layer {name!r}") from None

    def layers(self) -> List[Layer]:
        """All layers in insertion (topological) order."""
        return [self._layers[n] for n in self._order]

    def topological_order(self) -> List[str]:
        return list(self._order)

    def inputs(self) -> List[Layer]:
        return [l for l in self.layers() if l.is_input]

    def outputs(self) -> List[Layer]:
        """Layers with no consumers (network outputs)."""
        return [self._layers[n] for n in self._order if not self._consumers[n]]

    def consumers(self, name: str) -> List[str]:
        if name not in self._consumers:
            raise GraphError(f"unknown layer {name!r}")
        return list(self._consumers[name])

    def producers(self, name: str) -> List[str]:
        return list(self.layer(name).inputs)

    # -------------------------------------------------------------- decisions

    @contextlib.contextmanager
    def decision_scope(self) -> Iterator["Graph"]:
        """Keep this graph's layer decisions from one compile to the next.

        While the scope is open, every layer's ``region_memo`` and the
        graph's ``decision_memo`` survive each compile, so compiling the
        graph under several option sets evaluates a receptive field, or
        partitions the graph for one machine and policy, once.  Scopes
        nest; only the outermost exit forgets, emptying both on return
        and on raise.
        """
        self._scope_depth += 1
        try:
            yield self
        finally:
            self._scope_depth -= 1
            if not self._scope_depth:
                for layer in self._layers.values():
                    layer.region_memo.clear()
                self.decision_memo.clear()

    # ------------------------------------------------------------- statistics

    def total_macs(self) -> int:
        return sum(l.macs() for l in self.layers())

    def total_weight_bytes(self) -> int:
        return sum(l.weight_bytes() for l in self.layers())

    def total_activation_bytes(self) -> int:
        return sum(l.output_bytes() for l in self.layers())

    # ------------------------------------------------------------- validation

    def validate(self) -> None:
        """Structural sanity checks; raises GraphError on violation."""
        if not self._layers:
            raise GraphError("graph is empty")
        if not self.inputs():
            raise GraphError("graph has no Input layer")
        seen = set()
        for name in self._order:
            layer = self._layers[name]
            for src in layer.inputs:
                if src not in seen:
                    raise GraphError(
                        f"layer {name!r} consumes {src!r} before it is produced"
                    )
            seen.add(name)
        for layer in self.layers():
            if not layer.is_input and not layer.inputs:
                raise GraphError(f"non-input layer {layer.name!r} has no inputs")

    def subgraph(self, layer_names: Iterable[str], name: Optional[str] = None) -> "Graph":
        """Closed subgraph over ``layer_names``.

        Any consumed layer outside the set becomes a fresh Input node with
        the producer's output shape, so the result is a valid standalone
        graph.  Used to carve out regions like the InceptionV3 *stem*
        (Table 5).
        """
        keep = [n for n in self._order if n in set(layer_names)]
        if not keep:
            raise GraphError("subgraph selection is empty")
        sub = Graph(name or f"{self.name}.sub")
        kept = set(keep)
        for n in keep:
            layer = self._layers[n]
            for src in layer.inputs:
                if src not in kept and src not in sub:
                    producer = self._layers[src]
                    sub.add(src, Input(producer.output_shape), dtype=producer.dtype)
            if isinstance(layer.op, Input):
                if n not in sub:
                    sub.add(n, layer.op, dtype=layer.dtype)
            else:
                sub.add(n, layer.op, layer.inputs, dtype=layer.dtype)
        return sub

    def __str__(self) -> str:
        return f"Graph({self.name}, {len(self)} layers)"
