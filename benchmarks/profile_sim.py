"""cProfile hot-spot harness for one cold simulation.

Prints the top cumulative functions of a single memo-disabled
``simulate`` call (plan cache pre-warmed, so the numbers are the
steady-state hot path, not one-time precomputation), so perf PRs start
from data instead of guesses.

Usage::

    python benchmarks/profile_sim.py
    python benchmarks/profile_sim.py --model UNet --config halo --top 30
    python benchmarks/profile_sim.py --runs 10 --sort tottime
    python benchmarks/profile_sim.py --events   # profile trace reads too

By default only the simulation itself is profiled -- with the columnar
trace that means the event loop plus makespan.  ``--events`` adds a
``collect_stats`` pass to the profiled region: the deferred column
derivation a trace pays on its first read, then the stats pass itself.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats

from repro.analysis.compare import paper_configurations
from repro.compiler import compile_model
from repro.hw import exynos2100_like
from repro.models import get_model, model_names
from repro.sim import collect_stats, simulate


def _configs():
    # Keyed by normalized label: "+Stratum" is addressable as "stratum".
    return {
        opts.label.lstrip("+").lower(): opts for opts in paper_configurations()
    }


def main() -> int:
    configs = _configs()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="InceptionV3", choices=model_names())
    parser.add_argument(
        "--config",
        default="stratum",
        help=f"configuration label ({', '.join(sorted(configs))})",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=5, help="profiled cold runs")
    parser.add_argument("--top", type=int, default=20, help="rows to print")
    parser.add_argument(
        "--sort", default="cumulative", choices=["cumulative", "tottime", "ncalls"]
    )
    parser.add_argument(
        "--events",
        action="store_true",
        help="also profile trace column derivation and collect_stats",
    )
    args = parser.parse_args()

    options = configs.get(args.config.lstrip("+").lower())
    if options is None:
        parser.error(f"unknown config {args.config!r}; pick from {sorted(configs)}")

    npu = exynos2100_like()
    machine = npu.single_core() if options.is_single_core else npu
    program = compile_model(get_model(args.model), machine, options).program
    simulate(program, machine, seed=args.seed, memo=None)  # warm the plan cache

    def one_run(seed: int) -> None:
        result = simulate(program, machine, seed=seed, memo=None)
        if args.events:
            collect_stats(result.trace, machine)

    profiler = cProfile.Profile()
    profiler.enable()
    for i in range(args.runs):
        one_run(args.seed + i)
    profiler.disable()

    events = len(program.commands)
    print(
        f"{args.model} / {args.config} (seed {args.seed}, {args.runs} cold runs, "
        f"{events} events/run{', +columns+stats' if args.events else ''})"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
