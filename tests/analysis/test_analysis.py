"""Analysis helpers: sweeps, profiles, tables, gantt rendering."""

import pytest

from repro.analysis import (
    exposed_waits,
    format_kb,
    format_speedup,
    format_table,
    format_us,
    paper_configurations,
    region_summary,
    render_gantt,
    run_configuration,
    speedups,
    sweep_configurations,
    table4_profiles,
)
from repro.compiler import CompileOptions
from repro.hw import tiny_test_machine
from repro.partition import PartitionPolicy

from tests.conftest import make_chain_graph, make_mixed_graph


@pytest.fixture(scope="module")
def sweep():
    return sweep_configurations(make_mixed_graph(), tiny_test_machine(3))


class TestSweep:
    def test_paper_configurations(self):
        labels = [o.label for o in paper_configurations()]
        assert labels == ["1-core", "Base", "+Halo", "+Stratum"]

    def test_all_labels_present(self, sweep):
        assert set(sweep) == {"1-core", "Base", "+Halo", "+Stratum"}

    def test_latencies_positive(self, sweep):
        for result in sweep.values():
            assert result.latency_us > 0
            assert result.performance == pytest.approx(1 / result.latency_us)

    def test_speedups_relative_to_single_core(self, sweep):
        s = speedups(sweep)
        assert s["1-core"] == pytest.approx(1.0)
        assert s["Base"] > 1.0  # three tiny cores beat one

    def test_speedups_requires_baseline(self):
        with pytest.raises(ValueError):
            speedups({})

    def test_speedups_zero_latency_config_is_inf(self, sweep):
        """A degenerate zero-latency configuration must not crash the
        whole summary with a ZeroDivisionError."""
        import copy
        import dataclasses

        broken = copy.copy(sweep["Base"])
        broken.stats = dataclasses.replace(broken.stats, latency_us=0.0)
        results = dict(sweep)
        results["Base"] = broken
        s = speedups(results)
        assert s["Base"] == float("inf")
        assert s["1-core"] == pytest.approx(1.0)

    def test_speedups_zero_latency_baseline_raises(self, sweep):
        import copy
        import dataclasses

        broken = copy.copy(sweep["1-core"])
        broken.stats = dataclasses.replace(broken.stats, latency_us=0.0)
        results = dict(sweep)
        results["1-core"] = broken
        with pytest.raises(ValueError, match="non-positive latency"):
            speedups(results)

    def test_single_core_runs_on_one_core_machine(self):
        result = run_configuration(
            make_chain_graph(), tiny_test_machine(3), CompileOptions.single_core()
        )
        assert result.compiled.npu.num_cores == 1

    def test_relabelled_single_core_still_dispatches(self):
        """Regression: dispatch used to compare ``options.label`` against
        the string "1-core", so any relabelled single-core configuration
        silently compiled for the full machine."""
        from repro.partition import PartitionPolicy

        class Relabelled(CompileOptions):
            @property
            def label(self):  # type: ignore[override]
                return "my-baseline"

        result = run_configuration(
            make_chain_graph(),
            tiny_test_machine(3),
            Relabelled(partition_policy=PartitionPolicy.SINGLE_CORE),
        )
        assert result.compiled.npu.num_cores == 1
        assert result.label == "my-baseline"


class TestTable4Profiles:
    def test_three_policies(self):
        profiles = table4_profiles(make_mixed_graph(), tiny_test_machine(3))
        assert set(profiles) == {
            PartitionPolicy.SPATIAL_ONLY,
            PartitionPolicy.CHANNEL_ONLY,
            PartitionPolicy.ADAPTIVE,
        }
        for profile in profiles.values():
            assert len(profile.transfer_kb_per_core) == 3
            assert profile.total_transfer_kb > 0
            assert profile.latency_us > 0
            assert profile.idle_mean_us >= 0
            assert profile.transfer_std_kb >= 0


class TestRegionSummary:
    def test_fields(self):
        result = run_configuration(
            make_chain_graph(), tiny_test_machine(2), CompileOptions.halo()
        )
        summary = region_summary(result)
        assert summary.label == "+Halo"
        assert summary.latency_us == pytest.approx(result.latency_us)
        assert summary.compute_gmacs > 0
        assert summary.sync_std_us >= 0


class TestGantt:
    def test_renders_rows_per_core(self, sweep):
        result = sweep["Base"]
        text = render_gantt(result.sim.trace, 3, width=60)
        assert "core0" in text and "core2" in text
        assert "#" in text  # computes visible

    def test_layer_filter(self, sweep):
        result = sweep["Base"]
        text = render_gantt(result.sim.trace, 3, width=40, layers=["c1"])
        assert "core0" in text

    def test_empty(self):
        from tests.sim.trace_rows import trace_of

        assert render_gantt(trace_of([]), 1) == "(empty trace)"

    def test_exposed_waits(self, sweep):
        waits = exposed_waits(sweep["Base"].sim.trace)
        assert all(v >= 0 for v in waits.values())


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_formatters(self):
        assert format_kb(2048) == "2KB"
        assert format_us(1234.5) == "1,234.5us"
        assert format_speedup(2.125) == "2.12x"
