"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``models``    -- list the benchmark zoo (Table 2)
* ``describe``  -- graph statistics of one model
* ``compile``   -- compile and summarize the compiler's decisions
* ``run``       -- compile + simulate; latency, traffic, energy, exports
* ``sweep``     -- the four paper configurations side by side (Fig. 11 row)
* ``serve``     -- request-level serving simulation (queueing + SLOs)
* ``lint``      -- statically verify compiled command streams
* ``bounds``    -- analytic latency brackets vs simulated makespans
* ``table4`` / ``table5`` -- regenerate those paper tables
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.analysis import (
    build_grid,
    format_table,
    record_speedups,
    render_layer_report,
    region_summary,
    render_gantt,
    run_configuration,
    run_sweep,
    table4_profiles,
)
from repro.analysis.export import write_chrome_trace
from repro.compiler import (
    STRATEGIES,
    CompileOptions,
    compile_model,
    profile_guided_rebalance,
)
from repro.hw import resolve_machine
from repro.models import ZOO, get_model, inception_v3_stem, model_names
from repro.partition import PartitionPolicy
from repro.sim import collect_stats, estimate_energy, simulate
from repro.verify import ALL_PASS_NAMES, PASS_NAMES

CONFIGS = {
    "1core": CompileOptions.single_core,
    "base": CompileOptions.base,
    "halo": CompileOptions.halo,
    "stratum": CompileOptions.stratum_config,
    "stratum-only": CompileOptions.stratum_only,
}


def _machine(spec: str):
    # Every subcommand funnels --machine through the one resolver in
    # repro.hw, so preset names, homN/tinyN families, and JSON files
    # behave identically everywhere (and unknown names list the presets).
    try:
        return resolve_machine(spec)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _at_least(kind: type, low: float, strict: bool = False):
    """An argparse ``type=`` for a finite number ``>= low`` (``> low``
    when ``strict``); anything else exits 2 with a message."""
    bound = f"{'>' if strict else '>='} {low}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(
                f"expected {noun} {bound}, got {text!r}"
            ) from None
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    return parse


def _graph(name: str):
    if name == "stem":
        return inception_v3_stem()
    try:
        return get_model(name)
    except KeyError as exc:
        raise SystemExit(str(exc)) from None


def cmd_models(args: argparse.Namespace) -> int:
    rows = []
    for info in ZOO:
        graph = info.factory()
        rows.append(
            [
                info.name,
                info.category,
                "x".join(str(d) for d in info.input_size),
                info.dtype.value,
                len(graph),
                f"{graph.total_macs() / 1e9:.2f}G",
                f"{graph.total_weight_bytes() / 1e6:.1f}MB",
            ]
        )
    print(
        format_table(
            ["Model", "Category", "Input", "Type", "Layers", "MACs", "Weights"],
            rows,
            title="Benchmark zoo (paper Table 2)",
        )
    )
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    if args.model is None and args.machine is None:
        raise SystemExit("describe needs a MODEL, --machine, or both")
    if args.machine is not None:
        npu = _machine(args.machine)
        print(f"{npu.name}: {npu.num_cores} cores @ {npu.frequency_ghz:.2f} GHz")
        print(f"  bus:   {npu.bus_bytes_per_cycle:.1f} B/cycle shared")
        for i in range(npu.num_cores):
            core = npu.core(i)
            print(
                f"  core {i} ({core.name}): {core.macs_per_cycle} MAC/cycle, "
                f"{core.spm_bytes // 1024} KB SPM, "
                f"{core.dma_bytes_per_cycle:.1f} B/cycle DMA, "
                f"DVFS steps {list(core.dvfs_steps)}"
            )
        if args.model is None:
            return 0
        print()
    graph = _graph(args.model)
    print(f"{graph}")
    print(f"  MACs:        {graph.total_macs():,}")
    print(f"  weights:     {graph.total_weight_bytes():,} bytes")
    print(f"  activations: {graph.total_activation_bytes():,} bytes")
    print(f"  inputs:      {[str(l) for l in graph.inputs()]}")
    print(f"  outputs:     {[str(l) for l in graph.outputs()]}")
    if args.layers:
        for layer in graph.layers():
            print(f"  {layer.name:28s} {layer.op.type_name:18s} {layer.output_shape}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    graph = _graph(args.model)
    npu = _machine(args.machine)
    options = CONFIGS[args.config]()
    if options.is_single_core:
        npu = npu.single_core()
    compiled = compile_model(graph, npu, options)
    print(compiled.describe())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    graph = _graph(args.model)
    npu = _machine(args.machine)
    options = CONFIGS[args.config]()
    if options.is_single_core:
        npu = npu.single_core()
    if args.rebalance:
        compiled, result, report = profile_guided_rebalance(
            graph, npu, options, seed=args.seed
        )
        print(
            f"rebalanced {report.adjusted_layers} layers in "
            f"{report.iterations_run} iterations: "
            f"{report.initial_latency_us:,.1f} -> "
            f"{report.final_latency_us:,.1f} us"
        )
    else:
        compiled = compile_model(graph, npu, options)
        result = simulate(compiled.program, npu, seed=args.seed)
    stats = collect_stats(result.trace, npu)
    print(f"latency:   {stats.latency_us:,.1f} us ({stats.makespan_cycles:,.0f} cycles)")
    print(f"traffic:   {stats.total_transfer_bytes / 1e6:,.2f} MB")
    print(f"barriers:  {stats.num_barriers}, halo exchanges: {stats.num_halo_exchanges}")
    print(
        f"sync:      mu {stats.sync_overhead_mean_us:.1f} us, "
        f"sd {stats.sync_overhead_std_us:.1f} us"
    )
    if args.energy:
        e = estimate_energy(result.trace, npu)
        parts = ", ".join(f"{k} {v:.1f}" for k, v in e.breakdown().items())
        print(f"energy:    {e.total_uj:,.1f} uJ ({parts}); avg {e.average_power_mw:,.0f} mW")
    if args.gantt:
        print(render_gantt(result.trace, npu.num_cores, width=args.gantt))
    if args.top_layers:
        print(render_layer_report(result.trace, npu, n=args.top_layers))
    if args.critical_path:
        from repro.analysis import render_critical_path

        print(render_critical_path(compiled.program, result.trace, npu))
    if args.chrome_trace:
        path = write_chrome_trace(result.trace, npu, args.chrome_trace)
        print(f"chrome trace written to {path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    npu = _machine(args.machine)
    _graph(args.model)  # validate the name before fanning out
    if args.seeds < 1:
        raise SystemExit("--seeds must be at least 1")
    seeds = list(range(args.seed, args.seed + args.seeds))
    jobs = build_grid([args.model], seeds=seeds)
    records = run_sweep(jobs, npu, max_workers=args.jobs)
    s = record_speedups(records)[args.model]

    by_label: dict = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)
    rows = []
    for label, rs in by_label.items():
        mean_latency = sum(r.latency_us for r in rs) / len(rs)
        rows.append(
            [
                label,
                f"{mean_latency:,.1f}us",
                f"{s[label]:.2f}x",
                rs[0].num_barriers,
                rs[0].num_halo_exchanges,
                rs[0].num_strata,
            ]
        )
    title = f"{args.model} on {npu.name}"
    if len(seeds) > 1:
        title += f" (mean of {len(seeds)} seeds)"
    print(
        format_table(
            ["Config", "Latency", "Speedup", "Barriers", "Halo", "Strata"],
            rows,
            title=title,
        )
    )
    return 0


def cmd_table4(args: argparse.Namespace) -> int:
    npu = _machine(args.machine)
    profiles = table4_profiles(_graph(args.model), npu)
    rows = [
        [
            p.policy.value,
            f"{p.total_transfer_kb:,.0f}KB",
            f"{p.idle_mean_us:,.0f}us",
            f"{p.idle_std_us:,.0f}us",
            f"{p.latency_us:,.0f}us",
        ]
        for p in (
            profiles[PartitionPolicy.SPATIAL_ONLY],
            profiles[PartitionPolicy.CHANNEL_ONLY],
            profiles[PartitionPolicy.ADAPTIVE],
        )
    ]
    print(
        format_table(
            ["Scheme", "Total transfer", "Idle mu", "Idle sd", "Latency"],
            rows,
            title=f"Table 4 profile: {args.model}",
        )
    )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis import audit_spm, peak_spm_per_core

    graph = _graph(args.model)
    npu = _machine(args.machine)
    options = CONFIGS[args.config]()
    if options.is_single_core:
        npu = npu.single_core()
    compiled = compile_model(graph, npu, options)
    usages, violations = audit_spm(compiled, tolerance=args.tolerance)
    peaks = peak_spm_per_core(compiled)
    rows = [
        [
            f"core {core}",
            f"{peak / 1024:,.0f}KB",
            f"{npu.core(core).spm_bytes / 1024:,.0f}KB",
            f"{peak / npu.core(core).spm_bytes:.0%}",
        ]
        for core, peak in sorted(peaks.items())
    ]
    print(
        format_table(
            ["Core", "Peak working set", "SPM", "Utilization"],
            rows,
            title=f"SPM audit: {args.model} under {options.label} "
            f"({len(usages)} sub-layers)",
        )
    )
    if violations:
        print(f"\n{len(violations)} violation(s):")
        for v in violations[:10]:
            print(f"  {v}")
        return 1
    print("\nno violations")
    return 0


#: --fail-on level -> severities that flip the lint exit code to 1.
_FAIL_LEVELS = {
    "error": ("error",),
    "warning": ("error", "warning"),
    "info": ("error", "warning", "info"),
}


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.verify import check_trace, verify_model

    npu = _machine(args.machine)
    models = model_names() if args.model == "all" else [args.model]
    config_names = sorted(CONFIGS) if args.config == "all" else [args.config]

    reports = []
    for model_name in models:
        graph = _graph(model_name)
        for config_name in config_names:
            options = CONFIGS[config_name]()
            machine = npu.single_core() if options.is_single_core else npu
            compiled = compile_model(graph, machine, options)
            # With --trace, simulate first so the bounds pass (when
            # selected) can cross-check the measured makespan against
            # its static bracket (RPR702 / RPR710).
            result = None
            if args.trace:
                result = simulate(compiled.program, machine, seed=args.seed)
            report = verify_model(
                compiled,
                passes=args.passes or None,
                spm_tolerance=args.tolerance,
                sim_result=result,
            )
            if result is not None:
                report.passes.append(
                    check_trace(compiled.program, result.trace)
                )
            reports.append(report)

    failing = _FAIL_LEVELS[args.fail_on]
    fail_count = sum(
        1
        for r in reports
        if any(d.severity.value in failing for d in r.diagnostics)
    )
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.render_text(verbose=args.verbose))
        total_errors = sum(len(r.errors) for r in reports)
        total_warnings = sum(
            1
            for r in reports
            for d in r.diagnostics
            if d.severity.value == "warning"
        )
        if fail_count:
            print(
                f"\n{fail_count}/{len(reports)} program(s) failed lint at "
                f"--fail-on={args.fail_on} "
                f"({total_errors} error(s), {total_warnings} warning(s))"
            )
        else:
            print(
                f"\nall {len(reports)} program(s) clean at "
                f"--fail-on={args.fail_on}"
            )
    return 1 if fail_count else 0


def cmd_bounds(args: argparse.Namespace) -> int:
    import json

    from repro.verify.bounds import bounds_for

    npu = _machine(args.machine)
    models = model_names() if args.model == "all" else [args.model]
    config_names = (
        ["1core", "base", "halo", "stratum"]
        if args.config == "all"
        else [args.config]
    )

    rows = []
    records = []
    violations = 0
    for model_name in models:
        graph = _graph(model_name)
        for config_name in config_names:
            options = CONFIGS[config_name]()
            machine = npu.single_core() if options.is_single_core else npu
            compiled = compile_model(graph, machine, options)
            report = bounds_for(compiled.program, machine)
            record = {
                "model": model_name,
                "config": config_name,
                **report.to_dict(),
            }
            sim_cell = "-"
            tight_cell = "-"
            status = "static"
            if not args.static:
                result = simulate(compiled.program, machine, seed=args.seed)
                makespan_us = machine.cycles_to_us(result.makespan_cycles)
                record["simulated_us"] = makespan_us
                record["tightness"] = report.tightness(result.makespan_cycles)
                record["in_bracket"] = report.contains(result.makespan_cycles)
                sim_cell = f"{makespan_us:.1f}"
                tight_cell = f"{record['tightness']:.3f}"
                if record["in_bracket"]:
                    status = "ok"
                else:
                    status = "VIOLATION"
                    violations += 1
            records.append(record)
            rows.append(
                [
                    model_name,
                    config_name,
                    f"{report.lower_bound_us:.1f}",
                    sim_cell,
                    f"{report.upper_bound_us:.1f}",
                    tight_cell,
                    report.binding,
                    status,
                ]
            )

    if args.json:
        print(json.dumps(records, indent=2))
    else:
        print(
            format_table(
                ["Model", "Config", "LB (us)", "Sim (us)", "UB (us)",
                 "sim/lb", "Binding", "Status"],
                rows,
                title=f"Static latency brackets on {npu.name} "
                f"(seed {args.seed})",
            )
        )
        if not args.static:
            tights = [r["tightness"] for r in records if "tightness" in r]
            if tights:
                print(
                    f"\nmean tightness sim/lb: "
                    f"{sum(tights) / len(tights):.3f} over {len(tights)} runs"
                )
            if violations:
                print(f"{violations} bracket violation(s)")
    return 1 if violations else 0


def cmd_autotune(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import render_autotune, render_autotune_comparison
    from repro.analysis.autotune import autotune_summary
    from repro.compiler import autotune

    npu = _machine(args.machine)
    options = CONFIGS[args.config]()
    if options.is_single_core:
        raise SystemExit("autotune needs a multi-core configuration")
    models = model_names() if args.model == "all" else [args.model]
    reports = []
    for model in models:
        graph = _graph(model)
        reports.append(
            autotune(
                graph,
                npu,
                options,
                strategy=args.strategy,
                budget=args.budget,
                seed=args.seed,
            )
        )
    if args.json:
        print(json.dumps(autotune_summary(reports), indent=2, sort_keys=True))
        return 0
    if len(reports) == 1:
        print(render_autotune(reports[0]))
    else:
        print(render_autotune_comparison(reports))
    if args.baseline:
        for model, report in zip(models, reports):
            graph = _graph(model)
            base = compile_model(graph, npu, report.base_options)
            best = compile_model(graph, npu, report.best_options)
            print(f"\nwinner vs h1-h8 baseline for {report.model!r}:")
            changed = [
                name
                for name in (l.name for l in graph.layers() if not l.is_input)
                if base.partition.direction(name) is not
                best.partition.direction(name)
            ]
            for name in changed:
                print(
                    f"  {name}: {base.partition.direction(name).value} "
                    f"-> {best.partition.direction(name).value}"
                )
            if not changed:
                print("  partition directions: unchanged")
            print(
                f"  barriers: {base.num_barriers} -> {best.num_barriers}, "
                f"halo exchanges: {base.num_halo_exchanges} -> "
                f"{best.num_halo_exchanges}, "
                f"strata: {len(base.strata.strata)} -> "
                f"{len(best.strata.strata)}, "
                f"redundant MACs: {base.redundant_macs:,} -> "
                f"{best.redundant_macs:,}"
            )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serve import POLICY_NAMES, serve_policies

    npu = _machine(args.machine)
    models = args.models or ["MobileNetV2", "InceptionV3"]
    for name in models:
        _graph(name)  # validate names before generating the workload
    duration_ms = 2.0 if args.duration_short else args.duration
    duration_us = duration_ms * 1000.0
    faults = None
    if args.faults:
        from repro.faults import parse_fault_spec

        try:
            faults = parse_fault_spec(
                args.faults, duration_us, npu.num_cores, seed=args.seed
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    policies = list(POLICY_NAMES) if args.policy == "all" else [args.policy]
    modes = ["gang", "continuous"] if args.mode == "both" else [args.mode]
    options = CONFIGS[args.config]()
    # One shared predictor across modes: compiles and isolated
    # simulations are paid once, the runs differ only in scheduling.
    from repro.serve import LatencyPredictor

    predictor = LatencyPredictor(npu, options, seed=args.seed)
    reports = []
    for mode in modes:
        reports.extend(
            serve_policies(
                models,
                npu,
                policies=policies,
                rps=args.rps,
                duration_us=duration_us,
                seed=args.seed,
                options=options,
                slo_scale=args.slo_scale,
                max_requests=args.requests,
                faults=faults,
                retry_limit=args.retry_limit,
                backoff_us=args.backoff_us,
                shed_slo=args.shed,
                predictor=predictor,
                mode=mode,
            )
        )

    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
        return 0
    from repro.analysis import render_serving_table

    print(render_serving_table(reports))
    if any(r.degraded is not None for r in reports):
        from repro.analysis import render_degradation_table

        print()
        print(render_degradation_table(reports))
    print(
        f"\n{sum(r.verified_programs for r in reports)} merged program(s) "
        f"built, all verifier-clean"
    )
    return 0


def _parse_kills(specs: List[str], duration_us: float) -> dict:
    """``DEV@US`` or ``DEV@PCT%`` kill specs to a device->time map."""
    kills = {}
    for spec in specs:
        try:
            dev_s, at_s = spec.split("@", 1)
            dev = int(dev_s)
            if at_s.endswith("%"):
                at = float(at_s[:-1]) / 100.0 * duration_us
            else:
                at = float(at_s)
        except ValueError:
            raise SystemExit(
                f"bad --kill spec {spec!r}: expected DEV@US or DEV@PCT%"
            ) from None
        kills[dev] = at
    return kills


def cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ROUTER_NAMES, serve_fleet

    models = args.models or ["MobileNetV2", "InceptionV3"]
    for name in models:
        _graph(name)
    duration_ms = 2.0 if args.duration_short else args.duration
    duration_us = duration_ms * 1000.0
    if args.machines:
        machines = [m.strip() for m in args.machines.split(",") if m.strip()]
        for m in machines:
            _machine(m)  # validate specs before the run
    else:
        _machine(args.machine)
        machines = args.devices
    kills = _parse_kills(args.kill, duration_us)
    routers = list(ROUTER_NAMES) if args.router == "all" else [args.router]
    options = CONFIGS[args.config]()
    reports = []
    for router in routers:
        try:
            reports.append(
                serve_fleet(
                    models,
                    machines=machines,
                    machine=args.machine,
                    router=router,
                    policy=args.policy,
                    mode=args.mode,
                    rps=args.rps,
                    duration_us=duration_us,
                    seed=args.seed,
                    options=options,
                    slo_scale=args.slo_scale,
                    max_requests=args.requests,
                    arrival=args.arrival,
                    kills=kills,
                    jobs=args.jobs,
                )
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None

    if args.json:
        print(
            json.dumps(
                [r.to_dict(include_trace=args.trace) for r in reports], indent=2
            )
        )
        return 0
    from repro.analysis import render_fleet_table, render_router_comparison

    for report in reports:
        print(render_fleet_table(report))
        if not report.conserved:
            print(
                f"WARNING: ledger broken: {report.num_served} served + "
                f"{report.num_shed} shed != {report.num_generated} generated"
            )
        print()
    if len(reports) > 1:
        print(render_router_comparison(reports))
    return 0


def cmd_table5(args: argparse.Namespace) -> int:
    npu = _machine(args.machine)
    stem = inception_v3_stem()
    rows = []
    for label, opts in (
        ("+Halo", CompileOptions.halo()),
        ("+Stratum", CompileOptions.stratum_only()),
        ("Combined", CompileOptions.stratum_config()),
    ):
        s = region_summary(run_configuration(stem, npu, opts, seed=args.seed))
        rows.append(
            [
                label,
                f"{s.latency_us:,.1f}us",
                f"{s.compute_gmacs:.3f}G",
                f"mu:{s.sync_mean_us:.1f} sd:{s.sync_std_us:.1f} us",
            ]
        )
    print(
        format_table(
            ["Configuration", "Latency", "Computation", "Sync overhead"],
            rows,
            title="Table 5: InceptionV3 stem",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multicore mobile NPU compiler & simulator (CGO 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the benchmark zoo").set_defaults(
        func=cmd_models
    )

    p = sub.add_parser(
        "describe", help="graph statistics of a model and/or a machine"
    )
    p.add_argument(
        "model", nargs="?", default=None,
        help=f"one of {model_names()} or 'stem'",
    )
    p.add_argument(
        "--machine", default=None, metavar="SPEC",
        help="also (or only) describe this machine preset / JSON file",
    )
    p.add_argument("--layers", action="store_true", help="print every layer")
    p.set_defaults(func=cmd_describe)

    def common(p: argparse.ArgumentParser, config: bool = True) -> None:
        p.add_argument("model", help=f"one of {model_names()} or 'stem'")
        p.add_argument("--machine", default="exynos2100")
        p.add_argument("--seed", type=int, default=0)
        if config:
            p.add_argument(
                "--config", choices=sorted(CONFIGS), default="stratum"
            )

    p = sub.add_parser("compile", help="compile and print compiler decisions")
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile + simulate one configuration")
    common(p)
    p.add_argument("--energy", action="store_true", help="print energy estimate")
    p.add_argument(
        "--gantt", type=int, nargs="?", const=100, default=0,
        metavar="WIDTH", help="print an ASCII Gantt chart",
    )
    p.add_argument("--chrome-trace", metavar="PATH", help="export chrome://tracing JSON")
    p.add_argument(
        "--top-layers", type=int, nargs="?", const=10, default=0,
        metavar="N", help="print the N hottest layers",
    )
    p.add_argument(
        "--critical-path", action="store_true",
        help="print the makespan-determining command chain",
    )
    p.add_argument(
        "--rebalance", action="store_true",
        help="apply profile-guided rebalancing before reporting",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="all four paper configurations")
    common(p, config=False)
    p.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="simulate N consecutive seeds starting at --seed and average",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep grid (default: serial)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="verify compiled SPM working sets")
    common(p)
    p.add_argument("--tolerance", type=float, default=1.0)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "lint", help="statically verify compiled command streams"
    )
    p.add_argument(
        "model",
        help=f"one of {model_names()}, 'stem', or 'all' for the whole zoo",
    )
    p.add_argument("--machine", default="exynos2100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--config", choices=sorted(CONFIGS) + ["all"], default="all",
        help="one configuration, or 'all' (default)",
    )
    p.add_argument(
        "--passes", nargs="+", choices=list(ALL_PASS_NAMES), metavar="PASS",
        help=f"run only these passes (of {', '.join(ALL_PASS_NAMES)}; "
        "default: the correctness six -- bounds and perflint are opt-in)",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="also simulate and cross-check the trace (RPR6xx) and, with "
        "the bounds pass, the measured makespan against its bracket",
    )
    p.add_argument(
        "--fail-on", choices=["error", "warning", "info"], default="error",
        help="lowest severity that makes the exit code nonzero "
        "(default: error)",
    )
    p.add_argument("--tolerance", type=float, default=1.0,
                   help="SPM capacity tolerance factor")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--verbose", action="store_true",
                   help="print per-pass statistics")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "bounds", help="analytic latency brackets vs simulated makespans"
    )
    p.add_argument(
        "model",
        help=f"one of {model_names()}, 'stem', or 'all' for the whole zoo",
    )
    p.add_argument("--machine", default="exynos2100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--config", choices=sorted(CONFIGS) + ["all"], default="all",
        help="one configuration, or 'all' for the four paper configs "
        "(default)",
    )
    p.add_argument(
        "--static", action="store_true",
        help="derive brackets only; skip the simulation cross-check",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "autotune",
        help="search per-layer knobs for a schedule beating h1-h8",
    )
    p.add_argument(
        "model",
        help=f"one of {model_names()}, 'stem', or 'all' for the whole zoo",
    )
    p.add_argument("--machine", default="exynos2100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--config", choices=sorted(set(CONFIGS) - {"1core"}), default="stratum",
        help="base configuration the search space is built around",
    )
    p.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="beam+anneal",
    )
    p.add_argument(
        "--budget", type=int, default=64,
        help="max distinct candidate evaluations (default 64)",
    )
    p.add_argument(
        "--baseline", action="store_true",
        help="also diff the winning compile against the h1-h8 compile",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_autotune)

    p = sub.add_parser(
        "serve", help="request-level serving simulation (queueing + SLOs)"
    )
    p.add_argument(
        "models", nargs="*", metavar="MODEL",
        help=f"workload mix, one or more of {model_names()} or 'stem' "
        "(default: MobileNetV2 InceptionV3)",
    )
    p.add_argument("--machine", default="exynos2100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--config", choices=sorted(CONFIGS), default="stratum",
        help="compile configuration for multi-core groups",
    )
    p.add_argument(
        "--policy", choices=["fifo", "sjf", "dynamic", "all"], default="all",
        help="scheduling policy, or 'all' to compare (default)",
    )
    p.add_argument(
        "--mode", choices=["gang", "continuous", "both"], default="gang",
        help="admission discipline: 'gang' starts requests in waves and "
        "waits for each wave to drain (default); 'continuous' backfills "
        "cores the moment they free up (work-conserving, lower queueing "
        "delay under backlog); 'both' runs and compares the two",
    )
    p.add_argument(
        "--rps", type=_at_least(float, 0, strict=True), default=800.0,
        help="offered load, requests per second of simulated time",
    )
    p.add_argument(
        "--duration", type=_at_least(float, 0, strict=True), default=20.0,
        metavar="MS",
        help="arrival window in simulated milliseconds",
    )
    p.add_argument(
        "--duration-short", action="store_true",
        help="2 ms smoke-test window (overrides --duration)",
    )
    p.add_argument(
        "--requests", type=_at_least(int, 0), default=0, metavar="N",
        help="additionally cap the workload at N requests",
    )
    p.add_argument(
        "--slo-scale", type=float, default=5.0,
        help="per-request SLO as a multiple of the model's isolated "
        "latency (0 disables SLOs)",
    )
    p.add_argument(
        "--faults", metavar="SPEC", default="",
        help="inject faults, e.g. 'core_offline@50%%', "
        "'stall:bus@10%%+500us', 'throttle' (comma-separate to combine)",
    )
    p.add_argument(
        "--retry-limit", type=_at_least(int, 1), default=3, metavar="N",
        help="max executions per request before it is shed (default 3)",
    )
    p.add_argument(
        "--backoff-us", type=_at_least(float, 0), default=200.0, metavar="US",
        help="base of the exponential retry backoff (default 200us)",
    )
    p.add_argument(
        "--shed", action="store_true",
        help="shed requests whose queueing delay already exceeds the SLO",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="fleet-scale serving: N routed devices (load balancing)",
    )
    p.add_argument(
        "models", nargs="*", metavar="MODEL",
        help=f"workload mix, one or more of {model_names()} or 'stem' "
        "(default: MobileNetV2 InceptionV3)",
    )
    p.add_argument(
        "--devices", type=int, default=4, metavar="N",
        help="homogeneous fleet size (default 4)",
    )
    p.add_argument(
        "--machine", default="exynos2100",
        help="machine preset for a homogeneous fleet",
    )
    p.add_argument(
        "--machines", default="", metavar="SPECS",
        help="comma-separated per-device machine specs for a mixed "
        "fleet (overrides --devices/--machine)",
    )
    p.add_argument(
        "--router", default="all",
        choices=["round-robin", "least-loaded", "p2c", "affinity", "all"],
        help="routing policy, or 'all' to compare (default)",
    )
    p.add_argument(
        "--policy", choices=["fifo", "sjf", "dynamic"], default="sjf",
        help="per-device scheduling policy (default sjf)",
    )
    p.add_argument(
        "--mode", choices=["gang", "continuous"], default="continuous",
        help="per-device admission discipline (default continuous)",
    )
    p.add_argument(
        "--arrival", default="poisson",
        choices=["poisson", "diurnal", "bursty", "sessions"],
        help="fleet-wide arrival process (default poisson)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--config", choices=sorted(CONFIGS), default="stratum",
        help="compile configuration for multi-core groups",
    )
    p.add_argument(
        "--rps", type=_at_least(float, 0, strict=True), default=3000.0,
        help="fleet-wide offered load, requests per second",
    )
    p.add_argument(
        "--duration", type=_at_least(float, 0, strict=True), default=20.0,
        metavar="MS",
        help="arrival window in simulated milliseconds",
    )
    p.add_argument(
        "--duration-short", action="store_true",
        help="2 ms smoke-test window (overrides --duration)",
    )
    p.add_argument(
        "--requests", type=_at_least(int, 0), default=0, metavar="N",
        help="additionally cap the workload at N requests",
    )
    p.add_argument(
        "--slo-scale", type=float, default=5.0,
        help="per-request SLO as a multiple of the model's isolated "
        "latency on device 0 (0 disables SLOs)",
    )
    p.add_argument(
        "--kill", action="append", default=[], metavar="DEV@T",
        help="kill device DEV at time T ('1@4000' us or '1@50%%' of "
        "the window); repeatable",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="process-pool width for per-device simulation (default 1; "
        "results are identical at any width)",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="include the per-request router decision trace (with --json)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("table4", help="partitioning-scheme profile")
    common(p, config=False)
    p.set_defaults(func=cmd_table4)

    p = sub.add_parser("table5", help="Halo vs Stratum on the stem")
    p.add_argument("--machine", default="exynos2100")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_table5)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
