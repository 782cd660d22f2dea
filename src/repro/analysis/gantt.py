"""Textual Gantt rendering of execution traces (the Figure 12 view).

Renders one row per (core, engine), time flowing left to right, with a
character per time bucket indicating what the engine was doing.  This is
how the repository visualizes the halo-first pipelining profiles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.compiler.program import CommandKind, Engine
from repro.sim.trace import Trace

#: glyph per command kind.
_GLYPH = {
    CommandKind.LOAD_INPUT: "L",
    CommandKind.LOAD_WEIGHT: "w",
    CommandKind.COMPUTE: "#",
    CommandKind.STORE_OUTPUT: "S",
    CommandKind.HALO_SEND: "h",
    CommandKind.HALO_RECV: "H",
    CommandKind.BARRIER: "|",
}

_ROW_ORDER = (Engine.LOAD, Engine.COMPUTE, Engine.STORE, Engine.CTRL)


def _positions(trace: Trace, layers: Optional[Iterable[str]]) -> Sequence[int]:
    """Event positions of ``layers`` (all events when ``None``), ascending."""
    if layers is None:
        return range(len(trace))
    return sorted(p for layer in set(layers) for p in trace.positions("layer", layer))


def render_gantt(
    trace: Trace,
    num_cores: int,
    width: int = 100,
    layers: Optional[Iterable[str]] = None,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> str:
    """Render the trace as an ASCII Gantt chart.

    ``layers`` restricts the view to specific layers (the window is then
    clamped to their span, like Figure 12's two-layer excerpt).
    """
    if width < 1:
        raise ValueError(f"need a width of at least 1, got {width}")
    positions = _positions(trace, layers)
    if not positions:
        return "(empty trace)"
    starts, ends, kinds, cores, engines = map(
        trace.column, ("start", "end", "kind", "core", "engine")
    )
    lo = min(starts[p] for p in positions) if t0 is None else t0
    hi = max(ends[p] for p in positions) if t1 is None else t1
    if hi <= lo:
        hi = lo + 1.0
    scale = width / (hi - lo)

    rows: Dict[Tuple[int, Engine], List[int]] = {}
    for p in positions:
        rows.setdefault((cores[p], engines[p]), []).append(p)
    lines: List[str] = [
        f"time [{lo:,.0f} .. {hi:,.0f}] cycles, '{_legend()}'"
    ]
    for core in range(num_cores):
        for engine in _ROW_ORDER:
            row = rows.get((core, engine), [])
            if not row and engine is Engine.CTRL:
                continue
            buf = [" "] * width
            for p in row:
                a = max(0, int((starts[p] - lo) * scale))
                b = min(width, max(a + 1, int((ends[p] - lo) * scale)))
                glyph = _GLYPH.get(kinds[p], "?")
                for i in range(a, b):
                    buf[i] = glyph
            lines.append(f"core{core} {engine.value:7s} [{''.join(buf)}]")
        lines.append("")
    return "\n".join(lines).rstrip()


def _legend() -> str:
    return "L=load w=kernel #=compute S=store h=halo-send H=halo-recv |=sync"


def exposed_waits(
    trace: Trace, layers: Optional[Iterable[str]] = None
) -> Dict[CommandKind, float]:
    """Total remote-wait cycles by command kind (Figure 12's idle arrows)."""
    starts, own_ready, kinds = map(trace.column, ("start", "own_ready", "kind"))
    waits: Dict[CommandKind, float] = {}
    for p in _positions(trace, layers):
        wait = max(0.0, starts[p] - own_ready[p])
        if wait > 0:
            waits[kinds[p]] = waits.get(kinds[p], 0.0) + wait
    return waits
