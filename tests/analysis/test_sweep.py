"""Grid sweep runner: bundling, caching, dispatch, and speedup summaries."""

import dataclasses

import pytest

from repro.analysis import (
    SweepJob,
    build_grid,
    paper_configurations,
    record_speedups,
    records_by_model,
    resolve_model,
    run_sweep,
    sweep_configurations,
)
from repro.analysis.sweep import _bundles
from repro.compiler import CompileOptions, ProgramCache
from repro.hw import tiny_test_machine


@pytest.fixture(scope="module")
def npu():
    return tiny_test_machine(3)


@pytest.fixture(scope="module")
def records(npu):
    jobs = build_grid(["stem"], seeds=[0, 1])
    return run_sweep(jobs, npu, max_workers=1)


class TestGrid:
    def test_cross_product_order(self):
        jobs = build_grid(["a", "b"], seeds=[0, 1])
        assert len(jobs) == 2 * 4 * 2  # models x paper configs x seeds
        assert jobs[0] == SweepJob("a", paper_configurations()[0], 0)
        assert jobs[1].seed == 1 and jobs[1].model == "a"

    def test_custom_configurations(self):
        jobs = build_grid(["a"], [CompileOptions.base()], seeds=[7])
        assert jobs == [SweepJob("a", CompileOptions.base(), 7)]

    def test_bundles_group_seeds(self):
        jobs = build_grid(["a", "b"], [CompileOptions.base()], seeds=[0, 1, 2])
        bundles = _bundles(jobs)
        assert [(m, s) for m, _, s in bundles] == [
            ("a", [0, 1, 2]),
            ("b", [0, 1, 2]),
        ]

    def test_resolve_model_stem_and_zoo(self):
        assert resolve_model("stem").name == "inception_v3_stem"
        assert resolve_model("MobileNetV2").name == "mobilenet_v2"
        with pytest.raises(KeyError):
            resolve_model("no-such-model")


class TestRunSweep:
    def test_record_per_grid_point(self, records):
        assert len(records) == 4 * 2
        labels = {r.label for r in records}
        assert labels == {"1-core", "Base", "+Halo", "+Stratum"}
        seeds = {r.seed for r in records}
        assert seeds == {0, 1}

    def test_single_core_flag_follows_options(self, records):
        for r in records:
            assert r.single_core == (r.label == "1-core")

    def test_compile_once_per_bundle(self, npu):
        cache = ProgramCache()
        jobs = build_grid(["stem"], [CompileOptions.base()], seeds=[0, 1, 2])
        records = run_sweep(jobs, npu, max_workers=1, cache=cache)
        assert cache.stats() == (0, 1)  # one compile serves three seeds
        assert [r.cache_hit for r in records] == [False, True, True]

    def test_repeat_sweep_hits_cache(self, npu):
        cache = ProgramCache()
        jobs = build_grid(["stem"], [CompileOptions.base()], seeds=[0])
        run_sweep(jobs, npu, max_workers=1, cache=cache)
        records = run_sweep(jobs, npu, max_workers=1, cache=cache)
        assert cache.stats() == (1, 1)
        assert records[0].cache_hit

    def test_matches_sweep_configurations(self, npu, records):
        """The grid runner and the per-model sweep agree latency-for-
        latency (same compiler, same simulator, same seed)."""
        reference = sweep_configurations(resolve_model("stem"), npu, seed=0)
        for r in records:
            if r.seed == 0:
                assert r.latency_us == reference[r.label].latency_us

    def test_records_serializable(self, records):
        d = records[0].to_dict()
        assert d["model"] == "stem"
        assert isinstance(d["latency_us"], float)

    def test_empty_grid(self, npu):
        assert run_sweep([], npu) == []

    def test_process_pool_path_matches_serial(self, npu):
        """The multiprocess fan-out returns the same records as the
        serial path (workers rebuild graphs from model names, so no two
        configurations share a partition there)."""
        jobs = build_grid(["stem"], paper_configurations(), seeds=[0])
        serial = run_sweep(jobs, npu, max_workers=1)
        parallel = run_sweep(jobs, npu, max_workers=2)
        assert [dataclasses.replace(r, cache_hit=False) for r in parallel] == [
            dataclasses.replace(r, cache_hit=False) for r in serial
        ]


class TestRecordSpeedups:
    def test_baseline_normalized(self, records):
        s = record_speedups(records)["stem"]
        assert s["1-core"] == pytest.approx(1.0)
        assert s["Base"] > 1.0

    def test_grouping(self, records):
        grouped = records_by_model(records)
        assert set(grouped) == {"stem"}
        assert len(grouped["stem"]) == len(records)

    def test_missing_baseline_raises(self, npu):
        jobs = build_grid(["stem"], [CompileOptions.base()], seeds=[0])
        records = run_sweep(jobs, npu, max_workers=1)
        with pytest.raises(ValueError, match="single-core baseline"):
            record_speedups(records)

    def test_zero_latency_config_is_inf(self, records):
        broken = [
            dataclasses.replace(r, latency_us=0.0) if r.label == "Base" else r
            for r in records
        ]
        s = record_speedups(broken)["stem"]
        assert s["Base"] == float("inf")

    def test_zero_latency_baseline_raises(self, records):
        broken = [
            dataclasses.replace(r, latency_us=0.0) if r.single_core else r
            for r in records
        ]
        with pytest.raises(ValueError, match="non-positive"):
            record_speedups(broken)
