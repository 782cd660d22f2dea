"""The per-layer receptive-field memo behind ``Layer.input_region``.

Every answer must be the region the operator computes directly, on the
first call and on every repeat; the memo must never hide a bad input
index; and it lives for one compile only.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import CompileOptions, compile_model
from repro.compiler import compiler as compiler_mod
from repro.hw import tiny_test_machine
from repro.ir import Concat, GraphError, Interval, Region
from repro.models import ZOO

from tests.conftest import make_mixed_graph

GRAPHS = [info.factory() for info in ZOO] + [make_mixed_graph()]
LAYERS = [layer for g in GRAPHS for layer in g.layers() if layer.inputs]
#: multi-input concats take the offset path; draw them as often as the rest.
CONCATS = [layer for layer in LAYERS if isinstance(layer.op, Concat)]


def _direct(layer, out_region, index):
    """The receptive field as the operator computes it, with no memo."""
    ishape = layer.input_shapes[index]
    if isinstance(layer.op, Concat):
        offset = layer.op.channel_offset(index, layer.input_shapes)
        return layer.op.input_region_with_offset(out_region, offset, ishape)
    return layer.op.input_region(out_region, index, ishape, layer.output_shape)


@st.composite
def _interval(draw, size):
    start = draw(st.integers(0, size - 1))
    stop = draw(st.integers(start + 1, size))
    return Interval(start, stop)


@st.composite
def _query(draw):
    layer = draw(st.one_of(st.sampled_from(CONCATS), st.sampled_from(LAYERS)))
    shape = layer.output_shape
    region = Region(
        draw(_interval(shape.h)), draw(_interval(shape.w)), draw(_interval(shape.c))
    )
    index = draw(st.integers(0, len(layer.inputs) - 1))
    return layer, region, index


@settings(max_examples=300, deadline=None)
@given(_query())
def test_memo_returns_the_direct_receptive_field(query):
    layer, out_region, index = query
    layer.region_memo.clear()
    expected = _direct(layer, out_region, index)

    first = layer.input_region(out_region, index)
    assert first == expected
    assert layer.region_memo[(out_region, index)] is first
    # Repeats hit the memo, also through an equal but distinct region.
    twin = Region(out_region.rows, out_region.cols, out_region.chans)
    assert layer.input_region(twin, index) is first
    assert layer.input_region(out_region, index) == expected

    # A warm memo still rejects indices the layer does not have.
    for bad in (-1, len(layer.inputs)):
        with pytest.raises(GraphError):
            layer.input_region(out_region, bad)


def test_memo_is_not_part_of_the_layer_value():
    layer = next(l for l in make_mixed_graph().layers() if l.name == "c2")
    full = Region.full(layer.output_shape)
    layer.input_region(full, 0)
    assert layer.region_memo
    copy = dataclasses.replace(layer)
    assert copy.region_memo == {}
    assert copy == layer and hash(copy) == hash(layer)
    assert "region_memo" not in repr(layer)


def _memo_entries(graph) -> int:
    return sum(len(layer.region_memo) for layer in graph.layers())


@pytest.mark.parametrize(
    "options", [CompileOptions.base(), CompileOptions.stratum_config()],
    ids=lambda o: o.label,
)
def test_compile_empties_every_memo_on_return(monkeypatch, options):
    graph = make_mixed_graph()
    seen = []
    real_lower = compiler_mod.lower

    def lower(*args, **kwargs):
        seen.append(_memo_entries(graph))
        return real_lower(*args, **kwargs)

    monkeypatch.setattr(compiler_mod, "lower", lower)
    compile_model(graph, tiny_test_machine(3), options)
    assert seen and seen[0] > 0, "the compile never filled the memo"
    assert _memo_entries(graph) == 0


def test_compile_empties_every_memo_on_raise(monkeypatch):
    graph = make_mixed_graph()
    seen = []

    def lower(*args, **kwargs):
        seen.append(_memo_entries(graph))
        raise RuntimeError("lowering failed")

    monkeypatch.setattr(compiler_mod, "lower", lower)
    with pytest.raises(RuntimeError, match="lowering failed"):
        compile_model(graph, tiny_test_machine(3), CompileOptions.halo())
    assert seen and seen[0] > 0, "the compile never filled the memo"
    assert _memo_entries(graph) == 0
