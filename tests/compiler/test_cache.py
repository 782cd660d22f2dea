"""Fingerprint-keyed program cache: keys, hits, eviction, correctness."""

import pytest

import repro.sim
from repro.compiler import (
    CompileOptions,
    ProgramCache,
    compile_cached,
    compile_key,
    compile_model,
    graph_fingerprint,
    machine_fingerprint,
    options_fingerprint,
)
from repro.hw import tiny_test_machine

from tests.conftest import make_chain_graph, make_mixed_graph


class TestFingerprints:
    def test_rebuilt_graph_same_fingerprint(self):
        """Structurally identical graphs from separate factory calls must
        collide -- that is what lets sweep workers pass model names."""
        assert graph_fingerprint(make_chain_graph()) == graph_fingerprint(
            make_chain_graph()
        )

    def test_different_graphs_differ(self):
        assert graph_fingerprint(make_chain_graph()) != graph_fingerprint(
            make_mixed_graph()
        )

    def test_graph_shape_change_differs(self):
        assert graph_fingerprint(make_chain_graph(h=40)) != graph_fingerprint(
            make_chain_graph(h=48)
        )

    def test_machine_fingerprint_sensitive_to_cores(self):
        assert machine_fingerprint(tiny_test_machine(2)) != machine_fingerprint(
            tiny_test_machine(3)
        )
        # Compile keys and simulation memo keys name a machine alike.
        assert machine_fingerprint is repro.sim.machine_fingerprint

    def test_options_fingerprint_distinguishes_presets(self):
        prints = {
            options_fingerprint(o)
            for o in (
                CompileOptions.single_core(),
                CompileOptions.base(),
                CompileOptions.halo(),
                CompileOptions.stratum_config(),
                CompileOptions.stratum_only(),
            )
        }
        assert len(prints) == 5

    def test_compile_key_composes_all_three(self):
        g, npu = make_chain_graph(), tiny_test_machine(2)
        base = compile_key(g, npu, CompileOptions.base())
        assert base == compile_key(make_chain_graph(), npu, CompileOptions.base())
        assert base != compile_key(g, npu, CompileOptions.halo())
        assert base != compile_key(g, tiny_test_machine(3), CompileOptions.base())


class TestProgramCache:
    def test_hit_returns_same_object(self):
        cache = ProgramCache()
        g, npu, opts = make_chain_graph(), tiny_test_machine(2), CompileOptions.base()
        first = cache.compile(g, npu, opts)
        second = cache.compile(make_chain_graph(), npu, opts)
        assert second is first
        assert cache.stats() == (1, 1)

    def test_miss_on_different_options(self):
        cache = ProgramCache()
        g, npu = make_chain_graph(), tiny_test_machine(2)
        cache.compile(g, npu, CompileOptions.base())
        cache.compile(g, npu, CompileOptions.halo())
        assert cache.stats() == (0, 2)
        assert len(cache) == 2

    def test_cached_result_matches_direct_compile(self):
        g, npu, opts = make_chain_graph(), tiny_test_machine(2), CompileOptions.halo()
        cached = ProgramCache().compile(g, npu, opts)
        direct = compile_model(g, npu, opts)
        assert len(cached.program.commands) == len(direct.program.commands)
        for a, b in zip(cached.program.commands, direct.program.commands):
            assert (a.cid, a.core, a.kind, a.deps) == (b.cid, b.core, b.kind, b.deps)

    def test_fifo_eviction(self):
        cache = ProgramCache(max_entries=1)
        g, npu = make_chain_graph(), tiny_test_machine(2)
        first = cache.compile(g, npu, CompileOptions.base())
        cache.compile(g, npu, CompileOptions.halo())  # evicts base
        assert len(cache) == 1
        again = cache.compile(g, npu, CompileOptions.base())
        assert again is not first
        assert cache.stats() == (0, 3)

    def test_clear(self):
        cache = ProgramCache()
        cache.compile(make_chain_graph(), tiny_test_machine(2), CompileOptions.base())
        cache.clear()
        assert len(cache) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ProgramCache(max_entries=0)

    def test_compile_cached_uses_explicit_cache(self):
        cache = ProgramCache()
        g, npu = make_chain_graph(), tiny_test_machine(2)
        a = compile_cached(g, npu, CompileOptions.base(), cache=cache)
        b = compile_cached(g, npu, CompileOptions.base(), cache=cache)
        assert a is b
        assert cache.stats() == (1, 1)
