"""Command-line interface."""

import json

import pytest

from repro.cli import main


class TestModels:
    def test_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "InceptionV3" in out and "UNet" in out


class TestDescribe:
    def test_basic(self, capsys):
        assert main(["describe", "MobileNetV2"]) == 0
        out = capsys.readouterr().out
        assert "MACs" in out

    def test_layers_flag(self, capsys):
        assert main(["describe", "stem", "--layers"]) == 0
        out = capsys.readouterr().out
        assert "stem_conv0" in out

    def test_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["describe", "ResNet"])

    def test_machine_only(self, capsys):
        assert main(["describe", "--machine", "exynos2100"]) == 0
        out = capsys.readouterr().out
        assert "3 cores" in out and "DVFS steps" in out

    def test_machine_and_model(self, capsys):
        assert main(["describe", "stem", "--machine", "tiny2"]) == 0
        out = capsys.readouterr().out
        assert "2 cores" in out and "MACs" in out

    def test_needs_model_or_machine(self):
        with pytest.raises(SystemExit):
            main(["describe"])


class TestCompile:
    def test_summary_printed(self, capsys):
        assert main(["compile", "stem", "--config", "halo"]) == 0
        out = capsys.readouterr().out
        assert "halo exchanges" in out


class TestRun:
    def test_run_with_energy(self, capsys):
        assert main(["run", "stem", "--config", "base", "--energy"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "energy" in out

    def test_run_single_core(self, capsys):
        assert main(["run", "stem", "--config", "1core"]) == 0
        out = capsys.readouterr().out
        assert "barriers:  0" in out

    def test_chrome_trace_export(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        assert main(["run", "stem", "--chrome-trace", str(path)]) == 0
        assert json.loads(path.read_text())["traceEvents"]

    def test_gantt(self, capsys):
        assert main(["run", "stem", "--gantt", "40"]) == 0
        out = capsys.readouterr().out
        assert "core0" in out

    def test_rebalance(self, capsys):
        assert main(["run", "stem", "--rebalance"]) == 0
        out = capsys.readouterr().out
        assert "rebalanced" in out

    def test_homogeneous_machine(self, capsys):
        assert main(["run", "stem", "--machine", "hom2", "--config", "base"]) == 0

    def test_tiny_machine(self, capsys):
        assert main(["run", "stem", "--machine", "tiny2", "--config", "base"]) == 0

    def test_bad_machine(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "stem", "--machine", "tpu"])
        # the error names the known presets (from the shared resolver).
        assert "exynos2100" in str(exc.value)

    def test_bad_machine_suffix(self):
        with pytest.raises(SystemExit):
            main(["run", "stem", "--machine", "homx"])

    def test_machine_json_roundtrip(self, tmp_path, capsys):
        from repro.hw import save_machine, tiny_test_machine

        path = tmp_path / "m.json"
        save_machine(tiny_test_machine(2), path)
        assert main(["run", "stem", "--machine", str(path), "--config", "base"]) == 0

    def test_missing_machine_json(self):
        with pytest.raises(SystemExit):
            main(["run", "stem", "--machine", "nope.json"])


class TestAudit:
    def test_audit_clean(self, capsys):
        assert main(["audit", "stem", "--config", "base"]) == 0
        out = capsys.readouterr().out
        assert "no violations" in out

    def test_audit_flags_violations(self, capsys):
        # the stem on a single tiny-SPM homogeneous machine cannot fit.
        code = main(["audit", "stem", "--config", "base", "--tolerance", "0.0001"])
        assert code == 1


class TestLint:
    def test_lint_all_configs_clean(self, capsys):
        assert main(["lint", "stem"]) == 0
        out = capsys.readouterr().out
        assert "clean at --fail-on=error" in out
        for label in ("1-core", "Base", "+Halo", "+Stratum"):
            assert label in out

    def test_lint_one_config(self, capsys):
        assert main(["lint", "stem", "--config", "halo", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "pass race" in out and "pass halo" in out
        assert "1-core" not in out

    def test_lint_pass_subset(self, capsys):
        assert (
            main(
                ["lint", "stem", "--config", "base", "--passes", "structure", "spm"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pass structure" in out and "pass race" not in out

    def test_lint_trace(self, capsys):
        assert main(["lint", "stem", "--config", "stratum", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "pass trace" in out

    def test_lint_json(self, capsys):
        assert main(["lint", "stem", "--config", "base", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["ok"] is True
        assert [p["name"] for p in data[0]["passes"]][0] == "structure"

    def test_lint_fails_on_overfull_spm(self, capsys):
        code = main(
            ["lint", "stem", "--config", "base", "--tolerance", "0.0001"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "RPR310" in out and "failed lint" in out

    def test_lint_perf_passes(self, capsys):
        assert (
            main(
                ["lint", "stem", "--config", "stratum",
                 "--passes", "bounds", "perflint", "--trace", "--verbose"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pass bounds" in out and "pass perflint" in out
        assert "RPR701" in out and "RPR702" in out

    def test_lint_fail_on_severity_ladder(self, capsys):
        # The bounds pass always emits informational RPR701: clean at
        # the default and warning levels, nonzero at --fail-on=info.
        base = ["lint", "stem", "--config", "base", "--passes", "bounds"]
        assert main(base) == 0
        assert main(base + ["--fail-on", "warning"]) == 0
        code = main(base + ["--fail-on", "info"])
        assert code == 1
        out = capsys.readouterr().out
        assert "failed lint at --fail-on=info" in out


class TestBounds:
    def test_bounds_table(self, capsys):
        assert main(["bounds", "stem"]) == 0
        out = capsys.readouterr().out
        assert "Static latency brackets" in out
        assert "mean tightness" in out
        for config in ("1core", "base", "halo", "stratum"):
            assert config in out

    def test_bounds_one_config_json(self, capsys):
        assert (
            main(["bounds", "stem", "--config", "base", "--json"]) == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1
        rec = data[0]
        assert rec["in_bracket"] is True
        assert (
            rec["lower_bound_us"]
            <= rec["simulated_us"]
            <= rec["upper_bound_us"]
        )
        assert rec["tightness"] >= 1.0

    def test_bounds_static_skips_simulation(self, capsys):
        assert main(["bounds", "stem", "--config", "base", "--static"]) == 0
        out = capsys.readouterr().out
        assert "static" in out
        assert "mean tightness" not in out


class TestAutotune:
    def test_report_and_baseline_diff(self, capsys):
        assert (
            main(
                [
                    "autotune", "stem", "--strategy", "grid",
                    "--budget", "16", "--baseline",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "beats h1-h8" in out or "matched h1-h8" in out
        assert "winning overrides" in out
        assert "winner vs h1-h8 baseline" in out

    def test_json_summary(self, capsys):
        assert (
            main(
                [
                    "autotune", "stem", "--strategy", "grid",
                    "--budget", "12", "--json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        (run,) = data["runs"]
        assert run["best_latency_us"] <= run["baseline_latency_us"]
        assert run["evaluations"] <= 12
        assert data["min_speedup"] >= 1.0

    def test_single_core_config_refused(self):
        with pytest.raises(SystemExit):
            main(["autotune", "stem", "--config", "1core"])


class TestServe:
    def test_compare_all_policies(self, capsys):
        assert (
            main(
                [
                    "serve", "MobileNetV2", "InceptionV3",
                    "--duration-short", "--rps", "3000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for policy in ("fifo", "sjf", "dynamic"):
            assert policy in out
        assert "verifier-clean" in out

    def test_single_policy_json(self, capsys):
        assert (
            main(
                [
                    "serve", "MobileNetV2",
                    "--policy", "dynamic", "--duration-short",
                    "--rps", "3000", "--json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1
        assert data[0]["policy"] == "dynamic"
        assert data[0]["num_requests"] > 0
        assert data[0]["p99_us"] >= data[0]["p50_us"] > 0

    def test_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["serve", "ResNet", "--duration-short"])

    def test_default_mix(self, capsys):
        assert main(["serve", "--duration-short", "--rps", "3000",
                     "--policy", "dynamic"]) == 0
        out = capsys.readouterr().out
        assert "MobileNetV2+InceptionV3" in out

    def test_faults_core_offline(self, capsys):
        assert (
            main(
                [
                    "serve", "--duration-short", "--rps", "3000",
                    "--policy", "dynamic",
                    "--faults", "core_offline@50%",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "degradation" in out and "core0 offline" in out

    def test_faults_json_report(self, capsys):
        assert (
            main(
                [
                    "serve", "MobileNetV2", "--duration-short", "--rps", "3000",
                    "--policy", "fifo", "--faults", "throttle", "--json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data[0]["degraded"]["faults"] == "throttle cores=all"
        assert "shed_requests" in data[0]

    def test_bad_fault_spec(self):
        with pytest.raises(SystemExit):
            main(["serve", "--duration-short", "--faults", "meteor@50%"])

    @pytest.mark.parametrize(
        "cmd, flags",
        [
            ("serve", ["--rps", "0"]),
            ("serve", ["--rps", "nan"]),
            ("serve", ["--duration", "0"]),
            ("serve", ["--requests", "-1"]),
            ("serve", ["--faults", "throttle", "--retry-limit", "0"]),
            ("serve", ["--faults", "throttle", "--backoff-us", "-5"]),
            ("fleet", ["--rps", "0"]),
            ("fleet", ["--requests", "-1"]),
        ],
    )
    def test_malformed_flags_exit_2(self, capsys, cmd, flags):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--duration-short", *flags])
        assert exc.value.code == 2
        assert f"argument {flags[-2]}: must be" in capsys.readouterr().err


class TestSweepAndTables:
    def test_sweep(self, capsys):
        assert main(["sweep", "stem"]) == 0
        out = capsys.readouterr().out
        for label in ("1-core", "Base", "+Halo", "+Stratum"):
            assert label in out

    def test_table4(self, capsys):
        assert main(["table4", "stem"]) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out and "spatial" in out

    def test_run_critical_path(self, capsys):
        assert main(["run", "stem", "--config", "base", "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "Critical path breakdown" in out

    def test_table5(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "Combined" in out
