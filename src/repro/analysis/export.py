"""Trace export to the Chrome trace-event format.

``write_chrome_trace`` produces a JSON file loadable in
``chrome://tracing`` / Perfetto: one process per core, one track per
engine, one complete event per command, colored by command kind.
Timestamps are microseconds of simulated time.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Union

from repro.compiler.program import CommandKind, Engine
from repro.hw.config import NPUConfig
from repro.sim.trace import Trace

_TRACK_OF_ENGINE = {
    Engine.LOAD: 0,
    Engine.COMPUTE: 1,
    Engine.STORE: 2,
    Engine.CTRL: 3,
}

#: chrome://tracing colour names per command kind.
_COLOR = {
    CommandKind.LOAD_INPUT: "thread_state_runnable",
    CommandKind.LOAD_WEIGHT: "thread_state_running",
    CommandKind.COMPUTE: "good",
    CommandKind.STORE_OUTPUT: "bad",
    CommandKind.HALO_SEND: "terrible",
    CommandKind.HALO_RECV: "terrible",
    CommandKind.BARRIER: "grey",
}

_FIELDS = (
    "layer", "tag", "kind", "core", "engine", "start", "end", "own_ready", "num_bytes", "macs"
)


def to_chrome_trace(trace: Trace, npu: NPUConfig) -> Dict:
    """Build the trace-event JSON object for ``trace``."""
    events: List[Dict] = []
    for core in range(npu.num_cores):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": core,
                "args": {"name": f"{npu.core(core).name} (core {core})"},
            }
        )
        for engine, tid in _TRACK_OF_ENGINE.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": core,
                    "tid": tid,
                    "args": {"name": engine.value},
                }
            )
    for layer, tag, kind, core, engine, start, end, own_ready, num_bytes, macs in zip(
        *map(trace.column, _FIELDS)
    ):
        if end <= start:
            continue
        events.append(
            {
                "name": f"{layer}{('.' + tag) if tag else ''}",
                "cat": kind.value,
                "ph": "X",
                "pid": core,
                "tid": _TRACK_OF_ENGINE[engine],
                "ts": npu.cycles_to_us(start),
                "dur": npu.cycles_to_us(end - start),
                "cname": _COLOR.get(kind, "generic_work"),
                "args": {
                    "kind": kind.value,
                    "bytes": num_bytes,
                    "macs": macs,
                    "remote_wait_cycles": round(max(0.0, start - own_ready), 1),
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(
    trace: Trace, npu: NPUConfig, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Serialize the trace to ``path``; returns the path written."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(to_chrome_trace(trace, npu)))
    return path
