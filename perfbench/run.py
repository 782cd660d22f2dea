"""The repository benchmark: host cost of the compiler, simulator and
serving stack, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig11 --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``fig11``, ``serve`` and ``faulted`` (see
``workloads.py``).  The run sets the workload up several times (the
median is ``setup_s``), then runs jobs for ``--seconds`` seconds, checks
every job's outputs, and deep-checks some of them.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (host time per
simulated NPU command, set-up time, peak memory).  With
``--trace 1`` layer spans are recorded (see ``spans.py``), written to
``perfbench/out/``, and the metrics are per-layer self times, counts,
cache hit rates and the simulated NPU figures of the jobs.  Host times
are medians over jobs (or set-ups), each scaled to reference host speed
by a calibration kernel timed next to it (see ``calibrate.py``);
``kernel_ms`` in the traced run is the kernel's own unscaled time.

The package is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

import calibrate
from spans import LAYERS, Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: jobs run even when they overrun ``--seconds``.
MIN_JOBS = 3

WORKLOAD_NAMES = ("fig11", "serve", "faulted")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seconds: float, tracer=None):
    """Run timed jobs for ``seconds``; returns (rows, (input, output) of
    every completed job).

    Each row carries the job's wall time and ``scale``, the factor that
    converts it to reference host speed (see ``calibrate.py``), read from
    calibrations just before and just after the job.
    """
    rows = []
    jobs = []
    deadline = time.perf_counter() + seconds
    index = 0
    speed = calibrate.reading()
    while index < MIN_JOBS or time.perf_counter() < deadline:
        inp = workload.make_input(index)
        gc.collect()
        before = workload.counters()
        span = tracer.job(index) if tracer is not None else contextlib.nullcontext()
        try:
            with span:
                start = time.perf_counter()
                out = workload.job(inp)
                elapsed = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            rows.append({"index": index, "seconds": None, "check": None})
            index += 1
            continue
        after = workload.counters()
        speed_after = calibrate.reading()
        rows.append(
            {
                "index": index,
                "seconds": elapsed,
                "scale": calibrate.scale(speed, speed_after),
                "kernel_s": speed_after,
                "check": workload.check(inp, out),
                "counters": {k: after[k] - before[k] for k in after},
            }
        )
        speed = speed_after
        jobs.append((inp, out))
        index += 1
    return rows, jobs


def set_up(workload) -> list:
    """Set the workload up ``SETUP_REPEATS`` times; reference-speed seconds."""
    times = []
    speed = calibrate.reading()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        speed_after = calibrate.reading()
        times.append(elapsed * calibrate.scale(speed, speed_after))
        speed = speed_after
    return times


def _pct(hits: int, misses: int) -> float:
    return 100.0 * hits / (hits + misses) if hits + misses else 0.0


def end_to_end_metrics(done, setup_times, peak_rss_kb: int) -> dict:
    return {
        "us_per_command": _metric(
            statistics.median(
                r["seconds"] * r["scale"] * 1e6 / r["check"].commands for r in done
            ),
            "us",
        ),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(peak_rss_kb / 1024.0, "MB"),
    }


def per_layer_metrics(done, tracer, deep_sim) -> dict:
    def median_of(per_job):
        return statistics.median(per_job(r) for r in done)

    metrics = {
        f"{layer}_ms": _metric(
            median_of(lambda r: tracer.self_s[r["index"]][layer] * r["scale"] * 1e3),
            "ms",
        )
        for layer in LAYERS
    }
    totals = {}
    for r in done:
        for key, value in r["counters"].items():
            totals[key] = totals.get(key, 0) + value
    metrics.update(
        {
            "sim_calls": _metric(median_of(lambda r: tracer.calls[r["index"]]["simulate"]), "count"),
            "session_runs": _metric(median_of(lambda r: tracer.calls[r["index"]]["session"]), "count"),
            "commands": _metric(median_of(lambda r: r["check"].commands), "count"),
            "memo_hit_pct": _metric(
                _pct(totals.get("memo_hits", 0), totals.get("memo_misses", 0)), "%"
            ),
            "compile_hit_pct": _metric(
                _pct(totals.get("compile_hits", 0), totals.get("compile_misses", 0)), "%"
            ),
            "kernel_ms": _metric(median_of(lambda r: r["kernel_s"] * 1e3), "ms"),
        }
    )
    for key, unit in (("npu_latency_us", "us"), ("npu_queue_us", "us"), ("retries", "count")):
        metrics[key] = _metric(median_of(lambda r: r["check"].sim[key]), unit)
    metrics["npu_gap_pct"] = _metric(deep_sim.get("npu_gap_pct", 0.0), "%")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_times = set_up(workload)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        rows, jobs = measure(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Peak memory of set-up and the timed jobs, before the deep checks.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if not jobs:
        print("perfbench: no job completed", file=sys.stderr)
        return 1
    problems, deep_sim = workload.deep_check(jobs)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    done = [r for r in rows if r["check"] is not None]
    attempted = sum(r["check"].items for r in done) + len(rows) - len(done)
    failed = sum(r["check"].failed for r in done) + len(rows) - len(done)
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = per_layer_metrics(done, tracer, deep_sim)
    else:
        metrics = end_to_end_metrics(done, setup_times, peak_rss_kb)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(rows)} jobs, "
        f"{attempted} items, {failed} failed",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
