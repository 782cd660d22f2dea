"""The benchmark's workloads.

Each workload turns the benchmark seed into its inputs, sets up the
state its jobs share, runs one *job* at a time (the unit that is timed)
and checks the outputs.  A job handles some *items* (Figure 11 grid
points, or served requests) and simulates some NPU *commands*; host time
per command is the size-independent cost the benchmark compares.

``fig11``
    One job is a cold regeneration of one model's column of the paper's
    Figure 11: the model under the four cumulative configurations
    (1-core, Base, +Halo, +Stratum), compiled into a fresh program cache
    and simulated with a simulation seed no earlier job used, through
    :func:`repro.analysis.run_sweep` -- the ``repro sweep`` path.  Jobs
    take the six zoo models in turn, so a run sweeps the whole figure
    several times.
``serve``
    One job serves an open-loop Poisson stream of 40 InceptionV3 and
    MobileNetV2 requests arriving at 3000 requests/s (a growing backlog)
    with the dynamic policy and continuous backfill admission.  Each job
    gets a fresh latency predictor and simulation memo, as a new
    ``repro serve`` run would, over a program cache that set-up filled
    with every model compiled for every core group: compilation is the
    one thing jobs do not repeat.
``faulted``
    The ``serve`` job under a fault plan drawn per job: DVFS throttling
    on every core, one core going offline mid-stream and random bus
    stalls.  Requests on the dying core are retried on the survivors, so
    every request is still served.

The simulated figures a job reports are modelled-NPU time, not host
time: for ``fig11`` the model's +Stratum inference latency, for the
serving workloads the p99 request latency and mean queueing delay.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import statistics
from typing import Dict, List, Optional, Tuple

from repro.analysis import build_grid, paper_configurations, resolve_model, run_sweep
from repro.compiler import compile_model
from repro.compiler.cache import ProgramCache
from repro.faults import CoreOffline, FaultPlan, ThermalThrottle, random_stalls
from repro.hw import exynos2100_like
from repro.models import ZOO
from repro.serve import LatencyPredictor, ServeReport, generate_requests, serve
from repro.sim import memo as memo_mod
from repro.sim import simulate
from repro.sim.memo import SimMemo
from repro.verify import bounds_for, check_trace


def derive(seed: int, *key) -> int:
    """A 31-bit seed for one named input, stable across processes."""
    return random.Random(":".join(map(str, (seed,) + key))).getrandbits(31)


@dataclasses.dataclass
class JobCheck:
    """What the untimed check of one job found."""

    items: int
    failed: int
    commands: int
    #: simulated (modelled-NPU) figures: npu_latency_us, npu_queue_us, retries.
    sim: Dict[str, float]


def _gap_pct(floor_us: float, simulated_us: float) -> float:
    """Share of a simulated time above its analytic floor, in percent."""
    return 100.0 * (1.0 - floor_us / simulated_us)


class Fig11Sweep:
    """Cold Figure 11 columns; see the module docstring."""

    #: each model's Base and +Stratum latency must beat one core by this.
    MIN_SPEEDUP = 1.2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.npu = exynos2100_like()
        self.models = [info.name for info in ZOO]
        self.configs = {o.label: o for o in paper_configurations()}
        self.cache = ProgramCache()

    def setup(self) -> None:
        memo_mod.default_memo().clear()
        # Fill lazily initialised module state with a sweep of the small
        # InceptionV3 stem, so the first timed job does not pay for it.
        run_sweep(
            build_grid(["stem"], seeds=[derive(self.seed, "warmup")]),
            self.npu,
            max_workers=1,
            cache=ProgramCache(),
        )

    def make_input(self, index: int) -> Tuple[str, int]:
        """The job's model and simulation seed; also gives the job a fresh
        program cache, so the counters read before it start at zero."""
        self.cache = ProgramCache()
        return self.models[index % len(self.models)], derive(self.seed, "sweep", index)

    def job(self, inp: Tuple[str, int]):
        model, sim_seed = inp
        return run_sweep(
            build_grid([model], seeds=[sim_seed]),
            self.npu,
            max_workers=1,
            cache=self.cache,
        )

    def check(self, inp: Tuple[str, int], records) -> JobCheck:
        model, sim_seed = inp
        failed = sum(
            1
            for r in records
            if r.latency_us <= 0 or r.seed != sim_seed or r.cache_hit or r.model != model
        )
        latency = {r.label: r.latency_us for r in records}
        failed += len(set(self.configs) ^ set(latency))
        # Figure 11's headline: multicore Base and +Stratum beat one core.
        slowest = max(latency.get("Base", 0.0), latency.get("+Stratum", 0.0))
        if not failed and slowest * self.MIN_SPEEDUP > latency["1-core"]:
            failed = len(records)
        return JobCheck(
            items=len(records),
            failed=failed,
            commands=sum(r.num_commands for r in records),
            sim={
                "npu_latency_us": latency.get("+Stratum", 0.0),
                "npu_queue_us": 0.0,
                "retries": 0.0,
            },
        )

    def deep_check(self, jobs) -> Tuple[List[str], Dict[str, float]]:
        """Recompute one grid point of each model's first job independently
        and hold the sweep to it: same program size and latency, a clean
        trace, and a latency inside the analytic bounds."""
        problems: List[str] = []
        gaps: List[float] = []
        rng = random.Random(derive(self.seed, "check"))
        for (model, sim_seed), records in jobs[: len(self.models)]:
            record = rng.choice(records)
            where = f"{model}/{record.label}"
            options = self.configs[record.label]
            machine = self.npu.single_core() if options.is_single_core else self.npu
            compiled = compile_model(resolve_model(model), machine, options)
            result = simulate(compiled.program, machine, seed=sim_seed, memo=None)
            if len(compiled.program.commands) != record.num_commands:
                problems.append(f"{where}: command count differs from the sweep")
            if result.latency_us != record.latency_us:
                problems.append(
                    f"{where}: latency {record.latency_us} us in the sweep, "
                    f"{result.latency_us} us recomputed"
                )
            trace_check = check_trace(compiled.program, result.trace)
            if not trace_check.ok:
                problems.append(f"{where}: {trace_check.errors[0].message}")
            bounds = bounds_for(compiled.program, machine)
            if not bounds.contains(result.makespan_cycles):
                problems.append(f"{where}: latency outside the analytic bounds")
            gaps.append(_gap_pct(bounds.lower_bound_us, result.latency_us))
        return problems, {"npu_gap_pct": statistics.fmean(gaps) if gaps else 0.0}

    def counters(self) -> Dict[str, int]:
        memo = memo_mod.default_memo()
        return {
            "memo_hits": memo.hits,
            "memo_misses": memo.misses,
            "compile_hits": self.cache.hits,
            "compile_misses": self.cache.misses,
        }


class ContinuousServing:
    """Continuous serving over a warm program cache; see the module docstring."""

    MIX = ["InceptionV3", "MobileNetV2"]
    RPS = 3000.0
    REQUESTS = 40
    SLO_SCALE = 6.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.npu = exynos2100_like()

    def setup(self) -> None:
        memo_mod.default_memo().clear()
        self.cache = ProgramCache()
        self.predictor = self._predictor()
        self.slo_of = self.predictor.slo_of(self.SLO_SCALE)
        cores = range(self.npu.num_cores)
        for model in self.MIX:
            for size in range(1, self.npu.num_cores + 1):
                for group in itertools.combinations(cores, size):
                    self.predictor.predicted_latency_us(model, group)
                    self.predictor.bound(model, group)

    def _predictor(self) -> LatencyPredictor:
        return LatencyPredictor(
            self.npu, None, cache=self.cache, seed=self.seed, memo=SimMemo()
        )

    def make_input(self, index) -> Tuple[list, Optional[FaultPlan]]:
        """The job's request stream and fault plan; also gives the job a
        fresh predictor, so the counters read before it start at zero."""
        self.predictor = self._predictor()
        requests = generate_requests(
            self.MIX,
            rps=self.RPS,
            duration_us=1e9,
            seed=derive(self.seed, "requests", index),
            max_requests=self.REQUESTS,
            slo_of=self.slo_of,
        )
        return requests, self.fault_plan(index, requests)

    def fault_plan(self, index, requests) -> Optional[FaultPlan]:
        return None

    def job(self, inp) -> ServeReport:
        requests, plan = inp
        return serve(
            self.MIX,
            self.npu,
            policy="dynamic",
            mode="continuous",
            seed=self.seed,
            predictor=self.predictor,
            requests=requests,
            faults=plan,
        )

    def check(self, inp, report: ServeReport) -> JobCheck:
        """Every request served exactly once, after it arrived; none
        admitted onto an offline core; clean admission work-conserving."""
        requests, plan = inp
        served: Dict[int, int] = {}
        bad = set()
        commands = 0
        for r in report.results:
            rid = r.request.rid
            served[rid] = served.get(rid, 0) + 1
            if not r.request.arrival_us - 1e-6 <= r.start_us < r.finish_us:
                bad.add(rid)
            program = self.predictor.compiled_for(r.request.model, r.cores).program
            commands += len(program.commands)
        bad |= {rid for rid, n in served.items() if n != 1}
        bad |= {q.rid for q in requests if q.rid not in served}
        stats = report.continuous
        if stats is None or (plan is None and stats.policy_stall_us != 0.0):
            bad |= set(served)
        elif plan is not None:
            bad |= {
                a.rid
                for a in stats.admissions
                if set(a.cores) & set(plan.dead_cores_at(a.t_us))
            }
        return JobCheck(
            items=len(requests),
            failed=min(len(bad), len(requests)),
            commands=commands,
            sim={
                "npu_latency_us": report.p99_us or 0.0,
                "npu_queue_us": report.mean_queue_us,
                "retries": float(report.degraded.num_retries if report.degraded else 0),
            },
        )

    def deep_check(self, jobs) -> Tuple[List[str], Dict[str, float]]:
        """Serve the first job's stream again (the report must repeat
        exactly) and hold every request's execution time to its analytic
        floor."""
        inp, report = jobs[0]
        problems: List[str] = []
        again = self.job(inp)
        if again.to_dict(include_requests=True) != report.to_dict(include_requests=True):
            problems.append("serving the same stream twice gave different reports")
        gaps: List[float] = []
        for r in report.results:
            floor_us = self.predictor.bound_us(r.request.model, r.cores)[0]
            if r.exec_us < floor_us * (1 - 1e-9):
                problems.append(
                    f"request {r.request.rid}: executed in {r.exec_us} us, "
                    f"below its analytic floor of {floor_us} us"
                )
            gaps.append(_gap_pct(floor_us, r.exec_us))
        return problems, {"npu_gap_pct": statistics.fmean(gaps) if gaps else 0.0}

    def counters(self) -> Dict[str, int]:
        hits, misses = self.predictor.cache.stats()
        memos = (self.predictor.memo, memo_mod.default_memo())
        return {
            "memo_hits": sum(m.hits for m in memos),
            "memo_misses": sum(m.misses for m in memos),
            "compile_hits": hits,
            "compile_misses": misses,
        }


class FaultedServing(ContinuousServing):
    """The serve stream under a per-job fault plan; see the module docstring."""

    def fault_plan(self, index, requests) -> FaultPlan:
        rng = random.Random(derive(self.seed, "faults", index))
        horizon = requests[-1].arrival_us
        return FaultPlan(
            events=(
                ThermalThrottle(),
                CoreOffline(
                    core=rng.randrange(self.npu.num_cores),
                    at_us=horizon * rng.uniform(0.3, 0.7),
                ),
            )
            + random_stalls(
                rng.getrandbits(31),
                horizon,
                mean_gap_us=horizon / 4,
                mean_duration_us=200.0,
            ),
            seed=rng.getrandbits(31),
        )


WORKLOADS = {"fig11": Fig11Sweep, "serve": ContinuousServing, "faulted": FaultedServing}
