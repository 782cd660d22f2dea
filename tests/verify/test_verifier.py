"""verify_model orchestration: pass selection, compile-time hook, traces."""

import dataclasses

import pytest

from repro.compiler import CompileOptions, compile_model
from repro.compiler.program import CommandKind, ProgramBuilder
from repro.hw import exynos2100_like, tiny_test_machine
from repro.models import inception_v3_stem
from repro.sim import simulate
from repro.verify import (
    PASS_NAMES,
    VerificationError,
    check_trace,
    verify_model,
)

from tests.sim.trace_rows import rows, trace_of


class TestPassSelection:
    def test_all_passes_by_default(self, stratum_chain):
        report = verify_model(stratum_chain)
        assert [p.name for p in report.passes] == list(PASS_NAMES)
        assert report.ok

    def test_subset(self, stratum_chain):
        report = verify_model(stratum_chain, passes=["structure", "spm"])
        assert [p.name for p in report.passes] == ["structure", "spm"]

    def test_unknown_pass_rejected(self, stratum_chain):
        with pytest.raises(ValueError, match="unknown verifier pass"):
            verify_model(stratum_chain, passes=["structure", "turbo"])

    def test_report_metadata(self, stratum_chain):
        report = verify_model(stratum_chain)
        assert report.model == stratum_chain.graph.name
        assert report.config == stratum_chain.options.label
        assert report.machine == stratum_chain.npu.name


class TestCompileHook:
    def test_verify_option_passes_on_clean_model(self):
        opts = dataclasses.replace(CompileOptions.stratum_config(), verify=True)
        compiled = compile_model(inception_v3_stem(), exynos2100_like(), opts)
        assert len(compiled.program) > 0

    def test_verify_option_raises_on_overfull_spm(self):
        # Shrink every scratch-pad 100x: the working sets cannot fit and
        # the capacity pass must fail the compile.
        npu = exynos2100_like()
        cores = tuple(
            dataclasses.replace(c, spm_bytes=c.spm_bytes // 100)
            for c in npu.cores
        )
        tiny_spm = dataclasses.replace(npu, cores=cores)
        opts = dataclasses.replace(CompileOptions.base(), verify=True)
        with pytest.raises(VerificationError) as exc_info:
            compile_model(inception_v3_stem(), tiny_spm, opts)
        assert exc_info.value.report.has_code("RPR310")


class TestTraceCrossCheck:
    def test_simulated_trace_is_clean(self, stratum_chain):
        result = simulate(stratum_chain.program, stratum_chain.npu)
        check = check_trace(stratum_chain.program, result.trace)
        assert check.ok and not check.diagnostics
        assert check.stats["events"] == len(stratum_chain.program)

    def test_dependency_violation_detected(self, stratum_chain):
        result = simulate(stratum_chain.program, stratum_chain.npu)
        events = rows(result.trace)
        # Forge an event that starts before one of its dependencies ends.
        victim_index, victim = next(
            (i, e)
            for i, e in enumerate(events)
            if stratum_chain.program.command(e.cid).deps and e.start > 0
        )
        events[victim_index] = victim._replace(start=0.0)
        forged = trace_of(events)
        check = check_trace(stratum_chain.program, forged)
        assert any(d.code in ("RPR601", "RPR602") for d in check.diagnostics)

    def test_missing_event_detected(self, stratum_chain):
        result = simulate(stratum_chain.program, stratum_chain.npu)
        truncated = trace_of(rows(result.trace)[:-1])
        check = check_trace(stratum_chain.program, truncated)
        assert any(d.code == "RPR603" for d in check.diagnostics)

    def test_event_naming_no_command_detected(self):
        # Three events for three commands, one of them naming #7: the
        # counts agree, so only the ids show the stray event.
        builder = ProgramBuilder(1)
        load = builder.add(0, CommandKind.LOAD_INPUT, num_bytes=64)
        compute = builder.add(0, CommandKind.COMPUTE, deps=[load], macs=64)
        store = builder.add(0, CommandKind.STORE_OUTPUT, deps=[compute], num_bytes=64)
        program = builder.build()
        events = rows(simulate(program, tiny_test_machine(1)).trace)
        events = [e._replace(cid=7) if e.cid == store else e for e in events]
        check = check_trace(program, trace_of(events))
        assert [(d.code, d.cid) for d in check.diagnostics] == [
            ("RPR603", store),
            ("RPR603", 7),
        ]
        assert "does not correspond to any command" in check.diagnostics[1].message

    def test_duplicate_event_detected(self, stratum_chain):
        result = simulate(stratum_chain.program, stratum_chain.npu)
        doubled = trace_of(rows(result.trace) + rows(result.trace)[-1:])
        check = check_trace(stratum_chain.program, doubled)
        assert any(d.code == "RPR603" for d in check.diagnostics)
