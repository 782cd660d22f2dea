"""Simulation-trace cross-checks (RPR6xx).

The static passes prove properties of the *program*; this module closes
the loop on the *simulator*: a trace claiming an execution order that
violates the program's dependencies or engine-queue semantics means the
latency numbers downstream are fiction.  Checked invariants:

* ``RPR601`` -- an event starts before one of its dependencies ends
* ``RPR602`` -- two events of one engine queue overlap, or run out of
  program order
* ``RPR603`` -- the trace is not a bijection with the program (missing
  or duplicated commands, or an event that names no command)

Commands are read by position, a command's id for any program the
simulator runs.
"""

from __future__ import annotations

from typing import Dict

from repro.compiler.program import Program
from repro.sim.trace import Trace
from repro.verify.diagnostics import PassResult

#: Slack for float accumulation in the event times.
_EPS = 1e-6


def check_trace(program: Program, trace: Trace) -> PassResult:
    """Cross-check one simulated trace against its program."""
    result = PassResult(name="trace")
    cid_col = trace.column("cid")
    start_col = trace.column("start")
    end_col = trace.column("end")
    layer_col = trace.column("layer")
    core_col = trace.column("core")
    by_cid: Dict[int, int] = {}
    for pos, cid in enumerate(cid_col):
        if cid in by_cid:
            result.emit(
                "RPR603",
                f"command #{cid} appears twice in the trace",
                layer=layer_col[pos],
                core=core_col[pos],
                cid=cid,
            )
        by_cid[cid] = pos

    cols = program.columns()
    n = len(program)
    for cid in range(n):
        if cid not in by_cid:
            result.emit(
                "RPR603",
                f"command #{cid} never executed",
                layer=cols.layer[cid],
                core=cols.core[cid],
                cid=cid,
                hint="the scheduler dropped a command; the makespan is "
                "meaningless",
            )
    for cid in sorted(c for c in by_cid if not 0 <= c < n):
        result.emit(
            "RPR603",
            f"trace event #{cid} does not correspond to any command",
            cid=cid,
        )

    # Dependencies: an event may start only after its deps completed.
    dep_checks = 0
    for cid, deps in enumerate(cols.deps):
        pos = by_cid.get(cid)
        if pos is None:
            continue
        start = start_col[pos]
        for dep in deps:
            dep_pos = by_cid.get(dep)
            if dep_pos is None:
                continue
            dep_checks += 1
            dep_end = end_col[dep_pos]
            if start < dep_end - _EPS:
                result.emit(
                    "RPR601",
                    f"command #{cid} started at {start:.1f} before "
                    f"dependency #{dep} finished at {dep_end:.1f}",
                    layer=cols.layer[cid],
                    core=cols.core[cid],
                    cid=cid,
                    hint="the scheduler dispatched a command whose "
                    "dependency count had not reached zero",
                )

    # Engine queues: serialized, in program order.
    queues = program.engine_queues()
    for key, members in zip(queues.keys, queues.members):
        positions = [by_cid[cid] for cid in members if cid in by_cid]
        for prev, nxt in zip(positions, positions[1:]):
            if start_col[nxt] < end_col[prev] - _EPS:
                result.emit(
                    "RPR602",
                    f"commands #{cid_col[prev]} and #{cid_col[nxt]} overlap on "
                    f"core {key[0]} engine {key[1].value} "
                    f"([{start_col[prev]:.1f},{end_col[prev]:.1f}] vs "
                    f"[{start_col[nxt]:.1f},{end_col[nxt]:.1f}])",
                    layer=layer_col[nxt],
                    core=key[0],
                    cid=cid_col[nxt],
                    hint="hardware queues process one command at a time, "
                    "in program order",
                )

    result.stats["events"] = len(trace)
    result.stats["dependency_checks"] = dep_checks
    return result
