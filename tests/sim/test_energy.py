"""Energy model over simulated traces."""

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.hw import tiny_test_machine
from repro.sim import (
    EnergyModel,
    compare_energy,
    estimate_energy,
    simulate,
)

from tests.conftest import make_chain_graph, make_mixed_graph
from tests.sim.trace_rows import trace_of


def run(graph, npu, opts):
    compiled = compile_model(graph, npu, opts)
    return simulate(compiled.program, npu)


class TestModelValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyModel(pj_per_mac=-1.0)

    def test_defaults_order_of_magnitude(self):
        m = EnergyModel()
        # DRAM must dominate SPM by far (the premise of forwarding).
        assert m.pj_per_dram_byte > 10 * m.pj_per_spm_byte


class TestEstimate:
    def test_empty_trace_zero(self):
        npu = tiny_test_machine(1)
        report = estimate_energy(trace_of([]), npu)
        assert report.total_uj == 0.0
        assert report.average_power_mw == 0.0

    def test_components_positive(self):
        npu = tiny_test_machine(2)
        sim = run(make_mixed_graph(), npu, CompileOptions.base())
        report = estimate_energy(sim.trace, npu)
        assert report.compute_uj > 0
        assert report.dram_uj > 0
        assert report.spm_uj > 0
        assert report.static_uj > 0
        assert report.total_uj == pytest.approx(sum(report.breakdown().values()))

    def test_compute_energy_is_config_invariant(self):
        """MACs don't change between Base and +Halo, so neither does
        compute energy (stratum may add redundant MACs)."""
        npu = tiny_test_machine(2)
        g = make_chain_graph()
        a = estimate_energy(run(g, npu, CompileOptions.base()).trace, npu)
        b = estimate_energy(run(g, npu, CompileOptions.halo()).trace, npu)
        assert a.compute_uj == pytest.approx(b.compute_uj)

    def test_forwarding_saves_dram_energy(self):
        npu = tiny_test_machine(2)
        g = make_chain_graph()
        base = estimate_energy(run(g, npu, CompileOptions.base()).trace, npu)
        halo = estimate_energy(run(g, npu, CompileOptions.halo()).trace, npu)
        assert halo.dram_uj < base.dram_uj

    def test_sync_energy_counts_barriers(self):
        npu = tiny_test_machine(2)
        g = make_mixed_graph()
        base = estimate_energy(run(g, npu, CompileOptions.base()).trace, npu)
        solo_npu = tiny_test_machine(1)
        solo = estimate_energy(
            run(g, solo_npu, CompileOptions.single_core()).trace, solo_npu
        )
        assert base.sync_uj > 0
        assert solo.sync_uj == 0.0

    def test_custom_model_scales(self):
        npu = tiny_test_machine(2)
        sim = run(make_chain_graph(), npu, CompileOptions.base())
        cheap = estimate_energy(sim.trace, npu, EnergyModel(pj_per_dram_byte=1.0))
        costly = estimate_energy(sim.trace, npu, EnergyModel(pj_per_dram_byte=100.0))
        assert costly.dram_uj == pytest.approx(100 * cheap.dram_uj)

    def test_average_power(self):
        npu = tiny_test_machine(2)
        sim = run(make_chain_graph(), npu, CompileOptions.base())
        report = estimate_energy(sim.trace, npu)
        assert report.average_power_mw == pytest.approx(
            report.total_uj / report.latency_us * 1000.0
        )


class TestCompare:
    def test_best_selection(self):
        npu = tiny_test_machine(2)
        g = make_chain_graph()
        reports = {
            "Base": estimate_energy(run(g, npu, CompileOptions.base()).trace, npu),
            "+Halo": estimate_energy(run(g, npu, CompileOptions.halo()).trace, npu),
        }
        best, totals = compare_energy(reports)
        assert best in reports
        assert totals[best] == min(totals.values())
