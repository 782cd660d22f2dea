"""``Graph.decision_scope``: compiles of one graph share its decisions.

Inside one scope a graph's compiles share receptive fields, and those
that partition alike share one partition; the programs stay exactly the
cold ones.  Only the outermost exit forgets, on return and on raise.
"""

from __future__ import annotations

import pytest

from repro.analysis import build_grid, paper_configurations, run_sweep
from repro.compiler import CompileOptions, ProgramCache, compile_model
from repro.compiler import compiler as compiler_mod
from repro.hw import exynos2100_like, tiny_test_machine
from repro.models import ZOO
from repro.sim import program_fingerprint

from tests.conftest import make_mixed_graph

#: name -> (graph factory, machine), as the program pins compile them.
CASES = {info.name: (info.factory, exynos2100_like) for info in ZOO}
CASES["mixed@tiny3"] = (make_mixed_graph, lambda: tiny_test_machine(3))


def _compile_all(graph, npu):
    """The paper configurations of ``graph``, keyed by label."""
    return {
        options.label: compile_model(
            graph, npu.single_core() if options.is_single_core else npu, options
        )
        for options in paper_configurations()
    }


def _memo_entries(graph) -> int:
    return sum(len(layer.region_memo) for layer in graph.layers())


@pytest.fixture
def partition_calls(monkeypatch):
    """Every ``partition_graph`` call the compiler makes, as its kwargs."""
    calls = []
    real = compiler_mod.partition_graph

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(compiler_mod, "partition_graph", spy)
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_scoped_compiles_match_cold_ones(case):
    factory, machine = CASES[case]
    npu = machine()
    cold = _compile_all(factory(), npu)
    graph = factory()
    with graph.decision_scope():
        scoped = _compile_all(graph, npu)
    for label, compiled in scoped.items():
        assert program_fingerprint(compiled.program) == program_fingerprint(
            cold[label].program
        ), f"{case}/{label} compiled differently inside the scope"
    shared = {id(scoped[label].partition) for label in ("Base", "+Halo", "+Stratum")}
    assert len(shared) == 1, "Base, +Halo and +Stratum partitioned separately"
    assert scoped["1-core"].partition is not scoped["Base"].partition


class TestLifetime:
    def test_memos_survive_a_compile_in_the_scope(self):
        graph = make_mixed_graph()
        with graph.decision_scope():
            compile_model(graph, tiny_test_machine(3), CompileOptions.base())
            assert _memo_entries(graph) > 0
            assert len(graph.decision_memo) == 1
        assert _memo_entries(graph) == 0
        assert graph.decision_memo == {}

    def test_nested_exit_keeps_the_memos(self):
        graph = make_mixed_graph()
        with graph.decision_scope():
            with graph.decision_scope():
                compile_model(graph, tiny_test_machine(3), CompileOptions.halo())
            entries = _memo_entries(graph)
            assert entries > 0 and graph.decision_memo
            compile_model(graph, tiny_test_machine(3), CompileOptions.halo())
            assert _memo_entries(graph) == entries
        assert _memo_entries(graph) == 0
        assert graph.decision_memo == {}

    def test_outermost_exit_forgets_on_raise(self):
        graph = make_mixed_graph()
        with pytest.raises(RuntimeError, match="after the compile"):
            with graph.decision_scope():
                with graph.decision_scope():
                    compile_model(
                        graph, tiny_test_machine(3), CompileOptions.stratum_config()
                    )
                    raise RuntimeError("after the compile")
        assert _memo_entries(graph) == 0
        assert graph.decision_memo == {}


class TestPartitionReuse:
    def test_one_partition_for_base_halo_and_stratum(self, partition_calls):
        graph = make_mixed_graph()
        npu = tiny_test_machine(3)
        with graph.decision_scope():
            for options in paper_configurations()[1:]:
                compile_model(graph, npu, options)
        assert len(partition_calls) == 1

    def test_direction_pins_partition_separately(self, partition_calls):
        graph = make_mixed_graph()
        npu = tiny_test_machine(3)
        base = CompileOptions.base()
        pinned = base.with_overrides(directions={"c2": "channel"})
        with graph.decision_scope():
            plain = compile_model(graph, npu, base)
            pin = compile_model(graph, npu, pinned)
            again = compile_model(graph, npu, pinned.with_overrides(tiles={"c3": 2}))
        assert len(partition_calls) == 2
        assert pin.partition is not plain.partition
        assert again.partition is pin.partition

    def test_weight_overrides_neither_reuse_nor_keep(self, partition_calls):
        graph = make_mixed_graph()
        npu = tiny_test_machine(3)
        weights = {"c2": (1.0, 2.0, 1.0)}
        base = CompileOptions.base()
        with graph.decision_scope():
            rebalanced = compile_model(graph, npu, base, weight_overrides=weights)
            assert graph.decision_memo == {}
            plain = compile_model(graph, npu, base)
            again = compile_model(graph, npu, base, weight_overrides=weights)
            kept = list(graph.decision_memo.values())
            assert len(kept) == 1 and kept[0] is plain.partition
        assert len(partition_calls) == 3
        assert partition_calls[0]["weight_overrides"] == weights
        assert partition_calls[1]["weight_overrides"] is None
        assert rebalanced.partition is not plain.partition
        assert again.partition is not plain.partition

    def test_serial_sweep_partitions_once_per_machine(self, partition_calls):
        jobs = build_grid(["stem"], seeds=[0])
        run_sweep(jobs, tiny_test_machine(3), max_workers=1, cache=ProgramCache())
        # one partition for the 1-core machine, one shared by the rest
        assert len(partition_calls) == 2
