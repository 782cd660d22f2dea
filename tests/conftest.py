"""Shared fixtures: small machines and graphs used across the suite."""

from __future__ import annotations

import sys

import pytest

from repro.compiler.program import Command, Program
from repro.hw import tiny_test_machine
from repro.ir import (
    Add,
    Concat,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    GlobalAvgPool,
    Graph,
    Input,
    Pool2D,
    PoolKind,
    Softmax,
    TensorShape,
    Window2D,
)
from repro.sim import simulator


@pytest.fixture
def placed_builds(monkeypatch):
    """Placed programs whose command list is built while the test runs:
    ``Program.__getattr__`` is the one place that builds them (it builds
    every other program's commands too, which are not counted)."""
    calls = []
    original = Program.__getattr__

    def spy(self, name):
        if name == "commands" and self.placement() is not None:
            calls.append(self)
        return original(self, name)

    monkeypatch.setattr(Program, "__getattr__", spy)
    return calls


@pytest.fixture
def command_builds(monkeypatch):
    """Count ``Command`` constructions while the test runs (a program
    is its columns: its commands are built only when read)."""
    calls = []
    original = Command.__post_init__

    def spy(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(Command, "__post_init__", spy)
    return calls


@pytest.fixture
def derivations(monkeypatch):
    """Count trace-column derivations while the test runs: calls of
    :func:`repro.sim.simulator._finished_columns`, the one place deferred
    trace columns are derived, wherever it was imported by name."""
    calls = []
    original = simulator._finished_columns

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "_finished_columns", None) is original
        ):
            monkeypatch.setattr(module, "_finished_columns", spy)
    return calls


@pytest.fixture
def npu2():
    """Two identical tiny cores."""
    return tiny_test_machine(2)


@pytest.fixture
def npu3():
    """Three identical tiny cores."""
    return tiny_test_machine(3)


def make_chain_graph(h: int = 40, w: int = 40, c: int = 8) -> Graph:
    """A plain convolution chain (the stratum-friendly shape)."""
    g = Graph("chain")
    g.add("in", Input(TensorShape(h, w, c)))
    g.add(
        "c1",
        Conv2D(out_channels=16, in_channels=c, window=Window2D.square(3, stride=2)),
        ["in"],
    )
    g.add(
        "c2", Conv2D(out_channels=16, in_channels=16, window=Window2D.square(3)), ["c1"]
    )
    g.add(
        "c3", Conv2D(out_channels=24, in_channels=16, window=Window2D.square(3)), ["c2"]
    )
    return g


def make_mixed_graph() -> Graph:
    """Convs, pooling, depthwise, residual add, concat, classifier head.

    Small enough for the functional oracle, rich enough to hit every
    compiler path (spatial, channel, halo, forwarding, strata, barriers).
    """
    g = Graph("mixed")
    g.add("in", Input(TensorShape(40, 40, 8)))
    g.add(
        "c1",
        Conv2D(out_channels=16, in_channels=8, window=Window2D.square(3, stride=2)),
        ["in"],
    )
    g.add(
        "c2", Conv2D(out_channels=16, in_channels=16, window=Window2D.square(3)), ["c1"]
    )
    g.add(
        "c3", Conv2D(out_channels=24, in_channels=16, window=Window2D.square(3)), ["c2"]
    )
    g.add("p", Pool2D(PoolKind.MAX, Window2D.square(2, stride=2)), ["c3"])
    g.add("dw", DepthwiseConv2D(channels=24, window=Window2D.square(3)), ["p"])
    g.add(
        "c4", Conv2D(out_channels=32, in_channels=24, window=Window2D.square(1)), ["dw"]
    )
    g.add(
        "c5", Conv2D(out_channels=32, in_channels=32, window=Window2D.square(3)), ["c4"]
    )
    g.add("add", Add(), ["c4", "c5"])
    g.add("cat", Concat(), ["add", "c5"])
    g.add("gap", GlobalAvgPool(), ["cat"])
    g.add("fc", Dense(out_features=10, in_features=64), ["gap"])
    g.add("sm", Softmax(), ["fc"])
    return g


def make_branchy_graph() -> Graph:
    """An inception-style block with parallel branches and a concat."""
    g = Graph("branchy")
    g.add("in", Input(TensorShape(24, 24, 16)))
    g.add(
        "stem", Conv2D(out_channels=16, in_channels=16, window=Window2D.square(3)), ["in"]
    )
    g.add(
        "b0", Conv2D(out_channels=8, in_channels=16, window=Window2D.square(1)), ["stem"]
    )
    g.add(
        "b1a", Conv2D(out_channels=8, in_channels=16, window=Window2D.square(1)), ["stem"]
    )
    g.add(
        "b1b", Conv2D(out_channels=8, in_channels=8, window=Window2D.square(3)), ["b1a"]
    )
    g.add(
        "b2a", Conv2D(out_channels=8, in_channels=16, window=Window2D.square(1)), ["stem"]
    )
    g.add(
        "b2b", Conv2D(out_channels=8, in_channels=8, window=Window2D.square(3)), ["b2a"]
    )
    g.add(
        "b2c", Conv2D(out_channels=8, in_channels=8, window=Window2D.square(3)), ["b2b"]
    )
    g.add("cat", Concat(), ["b0", "b1b", "b2c"])
    g.add(
        "out", Conv2D(out_channels=16, in_channels=24, window=Window2D.square(3)), ["cat"]
    )
    return g


@pytest.fixture
def chain_graph():
    return make_chain_graph()


@pytest.fixture
def mixed_graph():
    return make_mixed_graph()


@pytest.fixture
def branchy_graph():
    return make_branchy_graph()
