"""End-to-end: compile + simulate real zoo models; cross-config invariants."""

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.hw import exynos2100_like, homogeneous
from repro.models import get_model, inception_v3_stem
from repro.sim import collect_stats, simulate


@pytest.fixture(scope="module")
def npu():
    return exynos2100_like()


@pytest.fixture(scope="module")
def mobilenet():
    return get_model("MobileNetV2")


@pytest.fixture(scope="module")
def mobilenet_results(npu, mobilenet):
    results = {}
    for opts in (
        CompileOptions.single_core(),
        CompileOptions.base(),
        CompileOptions.halo(),
        CompileOptions.stratum_config(),
    ):
        machine = npu.single_core() if opts.label == "1-core" else npu
        compiled = compile_model(mobilenet, machine, opts)
        sim = simulate(compiled.program, machine)
        results[opts.label] = (compiled, sim, collect_stats(sim.trace, machine))
    return results


class TestMobileNetEndToEnd:
    def test_three_cores_beat_one(self, mobilenet_results):
        one = mobilenet_results["1-core"][2].latency_us
        base = mobilenet_results["Base"][2].latency_us
        assert base < one

    def test_halo_beats_base(self, mobilenet_results):
        base = mobilenet_results["Base"][2].latency_us
        halo = mobilenet_results["+Halo"][2].latency_us
        assert halo < base

    def test_halo_reduces_barriers_and_traffic(self, mobilenet_results):
        base = mobilenet_results["Base"][2]
        halo = mobilenet_results["+Halo"][2]
        assert halo.num_barriers <= base.num_barriers
        assert halo.total_transfer_bytes < base.total_transfer_bytes

    def test_stratum_eliminates_more_coordination(self, mobilenet_results):
        halo = mobilenet_results["+Halo"][0]
        strat = mobilenet_results["+Stratum"][0]
        assert len(strat.strata.strata) > 0
        assert strat.num_halo_exchanges <= halo.num_halo_exchanges

    def test_stratum_macs_overhead_is_small(self, mobilenet_results):
        compiled = mobilenet_results["+Stratum"][0]
        graph_macs = compiled.graph.total_macs()
        assert 0 <= compiled.redundant_macs < 0.1 * graph_macs

    def test_single_core_has_no_coordination(self, mobilenet_results):
        compiled, sim, stats = mobilenet_results["1-core"]
        assert stats.num_barriers == 0
        assert stats.num_halo_exchanges == 0
        assert stats.cores[0].idle_cycles == pytest.approx(0.0, abs=1e-6)

    def test_simulation_is_deterministic(self, npu, mobilenet):
        compiled = compile_model(mobilenet, npu, CompileOptions.base())
        a = simulate(compiled.program, npu, seed=3).makespan_cycles
        b = simulate(compiled.program, npu, seed=3).makespan_cycles
        assert a == b

    def test_trace_accounts_every_command(self, mobilenet_results):
        compiled, sim, _ = mobilenet_results["Base"]
        assert len(sim.trace) == len(compiled.program)

    def test_no_command_starts_before_deps_finish(self, mobilenet_results):
        compiled, sim, _ = mobilenet_results["+Stratum"]
        cids = sim.trace.column("cid")
        end_of = dict(zip(cids, sim.trace.column("end")))
        start_of = dict(zip(cids, sim.trace.column("start")))
        for cmd in compiled.program.commands:
            for dep in cmd.deps:
                assert end_of[dep] <= start_of[cmd.cid] + 1e-6

    def test_engines_never_overlap_themselves(self, mobilenet_results):
        compiled, sim, _ = mobilenet_results["Base"]
        from collections import defaultdict

        by_engine = defaultdict(list)
        for core, engine, start, end in zip(
            *map(sim.trace.column, ("core", "engine", "start", "end"))
        ):
            by_engine[(core, engine)].append((start, end))
        for spans in by_engine.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-6


class TestStemRegion:
    def test_stem_compiles_and_runs_all_configs(self, npu):
        stem = inception_v3_stem()
        for opts in (
            CompileOptions.halo(),
            CompileOptions.stratum_only(),
            CompileOptions.stratum_config(),
        ):
            compiled = compile_model(stem, npu, opts)
            sim = simulate(compiled.program, npu)
            stats = collect_stats(sim.trace, npu)
            assert stats.latency_us > 0

    def test_stratum_only_computes_more(self, npu):
        """Stratum trades computation for synchronization (Table 5)."""
        stem = inception_v3_stem()
        halo = compile_model(stem, npu, CompileOptions.halo())
        strat = compile_model(stem, npu, CompileOptions.stratum_only())
        assert strat.total_macs > halo.total_macs


class TestSpmBudget:
    """No compiled sub-layer may exceed its core's scratch-pad."""

    @pytest.mark.parametrize(
        "model", ["InceptionV3", "MobileNetV2", "DeepLabV3+", "UNet"]
    )
    def test_zoo_fits_spm(self, npu, model):
        from repro.analysis import audit_spm

        g = get_model(model)
        for opts in (
            CompileOptions.base(),
            CompileOptions.halo(),
            CompileOptions.stratum_config(),
        ):
            compiled = compile_model(g, npu, opts)
            _, violations = audit_spm(compiled, tolerance=1.0)
            assert violations == [], (
                f"{model} {opts.label}: " + "; ".join(str(v) for v in violations[:3])
            )


class TestScaling:
    @pytest.mark.parametrize("cores", [2, 4])
    def test_more_cores_helps_compute_bound_model(self, cores):
        # MobileDet-SSD is compute-heavy (2.8 GMACs) and keeps scaling
        # past two cores; MobileNetV2 saturates earlier (tiny layers,
        # coordination-bound) -- itself consistent with the paper's
        # small-core-count design point.
        g = get_model("MobileDet-SSD")
        one = homogeneous(1)
        many = homogeneous(cores)
        lat_one = simulate(
            compile_model(g, one, CompileOptions.base()).program, one
        ).latency_us
        lat_many = simulate(
            compile_model(g, many, CompileOptions.base()).program, many
        ).latency_us
        assert lat_many < lat_one
