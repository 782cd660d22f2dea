"""Simulator throughput, memoization regime, and Figure-11 sweep wall-time.

Three layers of measurement, all on one compiled program:

* **cold core speed** (``memo=None``, fresh seeds): trace events per
  second of the three scheduler generations -- the queue-scanning
  reference (``tests/sim/reference_scheduler.py``), the retained
  object-based event-driven core (``tests/sim/event_core.py``), and the
  one event loop, :class:`~repro.sim.SimSession`, timed as one-shot
  :func:`~repro.sim.simulate` (the ``flat`` row, named after the core
  it replaced) -- plus the same loop entered as a solo session
  injection and as ``simulate(faults=...)`` under an inert fault plan.
  The ordering reference < event-driven < one-shot, and the session
  and faulted rows within 1.2x of one-shot, are asserted, so the speed
  claims are re-checked on whatever machine runs this, not compared
  against numbers measured on different hardware.  Session vs one-shot
  compares two ways into one loop; faulted vs one-shot is the cost of
  the armed fault hooks.
* **memoized repeated-candidate regime**: the same (program, machine,
  seed) triples requested over and over through a
  :class:`repro.sim.SimMemo` -- the shape of every serving experiment
  and design-space sweep, where policies re-evaluate the same candidate
  waves.  The headline ``events_per_sec`` is the *effective* throughput
  of this regime (cold misses included); the per-cycle trajectory shows
  the climb from cold to cache-served.
* **serving-run cache behavior**: a short dynamic-policy serving run
  over a private memo, recording the hit rate the memo layer actually
  achieves under a real policy workload (must be nonzero).

The Figure 11 grid comparison (cache-backed :func:`repro.analysis.run_sweep`
vs the seed code path) is unchanged.

Results land in ``BENCH_sim.json`` at the repo root (and a text copy
under ``benchmarks/out/``).  Run standalone with
``python benchmarks/bench_sim_speed.py`` or through pytest with
``pytest benchmarks/bench_sim_speed.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from typing import Callable, Dict, List

from repro.analysis import build_grid, run_sweep
from repro.analysis.compare import paper_configurations
from repro.compiler import ProgramCache, compile_model
from repro.faults import CoreOffline, FaultPlan
from repro.hw import exynos2100_like
from repro.models import ZOO, get_model
from repro.serve import LatencyPredictor, serve
from repro.sim import SimMemo, SimSession, collect_stats, simulate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_sim.json"

# The retained reference cores are test-only modules under tests/sim/.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))
from tests.sim.event_core import simulate_event_driven  # noqa: E402
from tests.sim.reference_scheduler import simulate_reference  # noqa: E402

SEEDS = (0, 1, 2)
SIM_MODEL = "InceptionV3"
SIM_ROUNDS = 5
#: each cold-throughput run is repeated this many times and the fastest
#: repetition scores (timeit-style: on a shared machine, scheduler noise
#: only ever adds time, so the minimum is the least-biased estimate of
#: core speed).  All generations are measured identically, keeping the
#: machine-relative ratios honest.
TIMING_REPEATS = 3
#: memoized-regime cycles: each cycle re-requests every seed once.
MEMO_CYCLES = 6
#: the session and faulted rows must stay within this factor of one-shot.
LOOP_OVERHEAD_LIMIT = 1.2

SERVE_MIX = ("MobileNetV2", "InceptionV3")
SERVE_RPS = 3000.0
SERVE_DURATION_US = 5000.0


def _compiled_program(npu):
    compiled = compile_model(get_model(SIM_MODEL), npu, paper_configurations()[-1])
    return compiled.program


def _fastest_runs(runs: Dict[str, Callable[[int], object]]) -> Dict[str, float]:
    """Per named row: each of the ``SIM_ROUNDS`` runs scored as its fastest
    of ``TIMING_REPEATS`` repetitions, summed over the runs.

    The rows take turns run by run, in an order rotated every turn, so
    every row samples the same stretch of wall time and no row always
    follows the same neighbour (whose garbage it would collect).  Scoring
    each run rather than each pass keeps one slow moment of a shared
    host from spoiling a row's whole pass, so row ratios stay honest.
    """
    names = list(runs)
    best = {name: [float("inf")] * SIM_ROUNDS for name in names}
    turn = 0
    for _ in range(TIMING_REPEATS):
        for i in range(SIM_ROUNDS):
            turn += 1
            for name in names[turn % len(names):] + names[: turn % len(names)]:
                t0 = time.perf_counter()
                runs[name](i)
                best[name][i] = min(best[name][i], time.perf_counter() - t0)
    return {name: sum(times) for name, times in best.items()}


def _solo_session(program, npu, seed: int):
    session = SimSession(npu, memo=None)
    session.inject(program, at_us=0.0, seed=seed)
    (outcome,) = session.run_until()
    return outcome


def measure_sim_throughput(npu) -> Dict[str, float]:
    """Cold events/second of all three scheduler generations (one-shot
    ``simulate()`` is the ``flat`` row), and of the same loop entered as
    a solo session injection and under an inert fault plan."""
    program = _compiled_program(npu)
    result = simulate(program, npu, seed=0, memo=None)  # warm the plan cache
    # Armed fault machinery that never fires: the core dies long after
    # the program has drained.
    inert = FaultPlan(events=(CoreOffline(core=0, at_us=2 * result.latency_us),))

    # Two interleaved groups: the retained cores are several times slower
    # and churn far more objects, which would tax whichever production
    # row runs next; the tight session-vs-one-shot ratio is measured apart.
    elapsed = _fastest_runs(
        {
            "flat": lambda i: simulate(program, npu, seed=i, memo=None),
            "session": lambda i: _solo_session(program, npu, i),
            "faulted": lambda i: simulate(
                program, npu, seed=i, faults=inert, memo=None
            ),
        }
    )
    elapsed.update(
        _fastest_runs(
            {
                "event_driven": lambda i: simulate_event_driven(program, npu, seed=i),
                "reference": lambda i: simulate_reference(program, npu, seed=i),
            }
        )
    )

    events_per_run = len(result.trace)
    events = events_per_run * SIM_ROUNDS
    flat_elapsed = elapsed["flat"]
    return {
        "sim_model": SIM_MODEL,
        "sim_rounds": SIM_ROUNDS,
        "events_per_run": events_per_run,
        "events_per_sec_reference": events / elapsed["reference"],
        "events_per_sec_event_driven": events / elapsed["event_driven"],
        "events_per_sec_flat": events / flat_elapsed,
        "events_per_sec_session": events / elapsed["session"],
        "events_per_sec_faulted": events / elapsed["faulted"],
        "flat_vs_event_driven_speedup": elapsed["event_driven"] / flat_elapsed,
        "sim_speedup": elapsed["reference"] / flat_elapsed,
    }


def measure_bounds_overhead(npu) -> Dict[str, float]:
    """Cost of the ``check_bounds=True`` bracket oracle on cold runs.

    The bracket derives once per (program, machine) and is kept on the
    simulator's plan for that pair, so the steady-state overhead is one
    containment check per run; like the plan itself, the one-time
    derivation is warmed outside the timed region.  Plain runs are
    timed twice (before and after the checked pass) and the faster pass
    is the baseline, so scheduler drift on a busy machine cannot
    masquerade as oracle overhead.
    """
    from repro.verify.bounds import bounds_for

    program = _compiled_program(npu)
    simulate(program, npu, seed=0, memo=None)  # warm the plan cache
    bounds_for(program, npu)  # warm the bracket kept on the plan

    # Plain and checked runs alternate back-to-back (same seed, same
    # instant), so machine-load drift hits both sums equally; the pair
    # order flips each cycle so warm-cache bias toward whichever runs
    # second cancels too.  The ratio isolates the oracle itself.
    plain = 0.0
    checked = 0.0
    for cycle in range(4):
        plain_first = cycle % 2 == 0
        for i in range(SIM_ROUNDS):
            t0 = time.perf_counter()
            simulate(
                program, npu, seed=i, memo=None,
                check_bounds=not plain_first,
            )
            t1 = time.perf_counter()
            simulate(
                program, npu, seed=i, memo=None, check_bounds=plain_first
            )
            t2 = time.perf_counter()
            if plain_first:
                plain += t1 - t0
                checked += t2 - t1
            else:
                checked += t1 - t0
                plain += t2 - t1
    return {"check_bounds_overhead": checked / plain}


def measure_memo_regime(npu, events_per_run: int) -> Dict[str, object]:
    """Effective throughput when the same candidates are re-requested.

    Cycle 0 is all cold misses (it populates the cache); every later
    cycle is served from the memo.  The headline ``events_per_sec`` is
    total events delivered over total wall time, *including* the cold
    cycle -- the number a seed-sweeping or policy-search caller sees.
    """
    program = _compiled_program(npu)
    simulate(program, npu, seed=0, memo=None)  # warm the plan cache
    memo = SimMemo(store_on_first_miss=True)
    trajectory: List[float] = []
    total_elapsed = 0.0
    for _ in range(MEMO_CYCLES):
        t0 = time.perf_counter()
        for seed in SEEDS:
            simulate(program, npu, seed=seed, memo=memo)
        elapsed = time.perf_counter() - t0
        total_elapsed += elapsed
        trajectory.append(round(events_per_run * len(SEEDS) / elapsed))
    total_events = events_per_run * len(SEEDS) * MEMO_CYCLES
    return {
        "memo_cycles": MEMO_CYCLES,
        "memo_hit_rate": memo.hit_rate,
        "memo_events_per_sec_trajectory": trajectory,
        "events_per_sec": total_events / total_elapsed,
    }


def measure_serving_memo(npu) -> Dict[str, float]:
    """Memo hit rate under a real serving run (dynamic policy)."""
    memo = SimMemo(store_on_first_miss=True)
    predictor = LatencyPredictor(npu, memo=memo)
    report = serve(
        list(SERVE_MIX),
        npu,
        policy="dynamic",
        predictor=predictor,
        rps=SERVE_RPS,
        duration_us=SERVE_DURATION_US,
        seed=0,
    )
    stats = memo.stats()
    return {
        "serving_requests": report.num_requests,
        "serving_memo_hits": stats["hits"],
        "serving_memo_misses": stats["misses"],
        "serving_memo_hit_rate": stats["hit_rate"],
    }


def _seed_implementation_sweep(npu, models: List[str]) -> None:
    """The pre-cache code path for a multi-seed grid: every grid point
    compiles from scratch, simulates with the reference scheduler, and
    aggregates stats -- exactly what per-seed ``sweep_configurations``
    calls used to do."""
    for seed in SEEDS:
        for model in models:
            for options in paper_configurations():
                machine = npu.single_core() if options.is_single_core else npu
                compiled = compile_model(get_model(model), machine, options)
                sim = simulate_reference(compiled.program, machine, seed=seed)
                collect_stats(sim.trace, machine)


def measure_sweep_walltime(npu) -> Dict[str, float]:
    """Wall-time of the Figure 11 grid, seed implementation vs current."""
    models = [m.name for m in ZOO]

    t0 = time.perf_counter()
    _seed_implementation_sweep(npu, models)
    seed_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    records = run_sweep(
        build_grid(models, seeds=list(SEEDS)),
        npu,
        max_workers=1,
        cache=ProgramCache(),
    )
    new_elapsed = time.perf_counter() - t0

    assert len(records) == len(models) * 4 * len(SEEDS)
    return {
        "sweep_grid_points": len(records),
        "sweep_seconds_seed_impl": seed_elapsed,
        "sweep_seconds_current": new_elapsed,
        "sweep_speedup": seed_elapsed / new_elapsed,
    }


def collect(npu) -> Dict[str, object]:
    results: Dict[str, object] = measure_sim_throughput(npu)
    results.update(measure_bounds_overhead(npu))
    results.update(measure_memo_regime(npu, int(results["events_per_run"])))
    results.update(measure_serving_memo(npu))
    results.update(measure_sweep_walltime(npu))
    return results


def _render(results: Dict[str, object]) -> str:
    traj = ", ".join(f"{v:,.0f}" for v in results["memo_events_per_sec_trajectory"])
    return "\n".join(
        [
            "Simulator speed (cold, memo disabled):",
            f"  events/sec (reference)   : {results['events_per_sec_reference']:,.0f}",
            f"  events/sec (event-driven): {results['events_per_sec_event_driven']:,.0f}",
            f"  events/sec (one-shot)    : {results['events_per_sec_flat']:,.0f}",
            f"  events/sec (solo session): {results['events_per_sec_session']:,.0f}",
            f"  events/sec (faulted)     : {results['events_per_sec_faulted']:,.0f}",
            f"  one-shot vs event-driven : {results['flat_vs_event_driven_speedup']:.2f}x",
            f"  one-shot vs reference    : {results['sim_speedup']:.2f}x",
            f"  check_bounds overhead    : {results['check_bounds_overhead']:.3f}x",
            "Memoized repeated-candidate regime "
            f"({results['memo_cycles']} cycles over {len(SEEDS)} seeds):",
            f"  effective events/sec     : {results['events_per_sec']:,.0f}",
            f"  memo hit rate            : {results['memo_hit_rate']:.3f}",
            f"  events/sec per cycle     : {traj}",
            "Serving run (dynamic policy, shared sim memo):",
            f"  memo hit rate            : {results['serving_memo_hit_rate']:.3f} "
            f"({results['serving_memo_hits']:.0f} hits / "
            f"{results['serving_memo_misses']:.0f} misses)",
            "Figure 11 sweep wall-time "
            f"({results['sweep_grid_points']} grid points, {len(SEEDS)} seeds):",
            f"  seed implementation      : {results['sweep_seconds_seed_impl']:.2f}s",
            f"  cached + event-driven    : {results['sweep_seconds_current']:.2f}s",
            f"  sweep speedup            : {results['sweep_speedup']:.2f}x",
        ]
    )


def _persist(results: Dict[str, object]) -> None:
    # Merge rather than overwrite: bench_bounds.py owns the "bounds"
    # section of the same file.
    merged: Dict[str, object] = {}
    if RESULT_PATH.exists():
        try:
            merged = json.loads(RESULT_PATH.read_text())
        except ValueError:
            merged = {}
    preserved = merged.get("bounds")
    merged = dict(results)
    if preserved is not None:
        merged["bounds"] = preserved
    RESULT_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


def _check(results: Dict[str, object]) -> None:
    """Machine-relative acceptance: speed orderings, session-entry and
    fault-hook overhead, and live cache."""
    assert results["events_per_sec_flat"] >= results["events_per_sec_event_driven"]
    floor = results["events_per_sec_flat"] / LOOP_OVERHEAD_LIMIT
    assert results["events_per_sec_session"] >= floor
    assert results["events_per_sec_faulted"] >= floor
    assert results["events_per_sec"] > results["events_per_sec_flat"]
    assert results["sim_speedup"] > 1.5
    assert results["check_bounds_overhead"] < 1.10
    assert results["memo_hit_rate"] > 0.0
    assert results["serving_memo_hit_rate"] > 0.0
    assert results["sweep_speedup"] >= 3.0


def test_sim_speed(benchmark, npu, out_dir):
    """Times all three cores, the memo regime, a serving run, and the
    full sweep; asserts the machine-relative acceptance thresholds."""
    results = benchmark.pedantic(lambda: collect(npu), rounds=1, iterations=1)
    for key, value in results.items():
        if isinstance(value, float):
            benchmark.extra_info[key] = round(value, 3)
    _persist(results)

    from benchmarks.conftest import emit

    emit(out_dir, "sim_speed.txt", _render(results))
    _check(results)


def main() -> int:
    npu = exynos2100_like()
    results = collect(npu)
    _persist(results)
    print(_render(results))
    print(f"\nwritten to {RESULT_PATH}")
    try:
        _check(results)
    except AssertionError as exc:
        print(f"FAILED acceptance check: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
