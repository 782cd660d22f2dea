"""Execution traces: what ran where, when, and what it waited for.

The trace is stored *columnar* (struct-of-arrays): parallel per-event
sequences for the timing fields plus per-command columns for the static
command fields.  :class:`TraceEvent` objects are **lazy views** -- the
simulator cores never build them; ``trace.events`` materializes the
list on first access and caches it, so consumers that only read columns
(stats, energy, the trace verifier, the serving layer) never pay for
object construction at all.  ``Trace(events=[...])`` remains supported
and is what the retained reference/event-driven cores produce; columns
are then derived from the events on demand, so both representations
answer the same API with the same values.

Field queries (:meth:`Trace.for_core`, :meth:`Trace.for_layer`,
:meth:`Trace.of_kind`, ...) build a cached per-column position index on
first use instead of re-scanning the event list per call;
``Trace.index_builds`` counts index constructions so tests can assert
repeated queries do not re-scan.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.compiler.program import CommandKind, Engine


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """The simulated lifetime of one command.

    ``own_ready`` is when the command could have started based only on
    its own core (engine free and same-core dependencies done); the gap
    to ``start`` is therefore time spent waiting on *other* cores -- the
    exposed synchronization cost.
    """

    cid: int
    core: int
    engine: Engine
    kind: CommandKind
    layer: str
    tag: str
    num_bytes: int
    macs: int
    start: float
    end: float
    own_ready: float
    dep_ready: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def remote_wait(self) -> float:
        """Cycles stalled waiting for other cores before starting."""
        return max(0.0, self.start - self.own_ready)


#: static TraceEvent fields, in declaration order -- the contract between
#: the simulator's per-command columns and materialized events.
STATIC_FIELDS = ("cid", "core", "engine", "kind", "layer", "tag", "num_bytes", "macs")
TIMING_FIELDS = ("start", "end", "own_ready", "dep_ready")
COLUMN_FIELDS = STATIC_FIELDS + TIMING_FIELDS


class TraceColumns:
    """Struct-of-arrays payload of one trace.

    ``cids``, ``start``, ``end``, ``own_ready`` and ``dep_ready`` are
    equal-length parallel sequences in event order.  ``static`` maps
    each of the eight static TraceEvent fields (:data:`STATIC_FIELDS`)
    to a sequence indexable by cid.
    """

    __slots__ = ("cids", "start", "end", "own_ready", "dep_ready", "static")

    def __init__(
        self,
        cids: Sequence[int],
        start: Sequence[float],
        end: Sequence[float],
        own_ready: Sequence[float],
        dep_ready: Sequence[float],
        static: Mapping[str, Sequence[object]],
    ) -> None:
        self.cids = cids
        self.start = start
        self.end = end
        self.own_ready = own_ready
        self.dep_ready = dep_ready
        self.static = static

    def __len__(self) -> int:
        return len(self.cids)

    def column(self, name: str) -> List[object]:
        """One per-event column in event order."""
        if name == "cid":
            return list(self.cids)
        if name in TIMING_FIELDS:
            return list(getattr(self, name))
        per_cid = self.static[name]
        return [per_cid[cid] for cid in self.cids]

    def materialize(self) -> List[TraceEvent]:
        """Build the TraceEvent views (once; the Trace caches them).

        ``object.__new__`` plus a direct ``__dict__`` swap skips the
        frozen-dataclass ``__init__``/``__setattr__`` machinery -- the
        hottest part of trace assembly at thousands of events per run.
        The dict is built in field order, so it matches the dataclass
        layout exactly.
        """
        static = self.static
        core = static["core"]
        engine = static["engine"]
        kind = static["kind"]
        layer = static["layer"]
        tag = static["tag"]
        num_bytes = static["num_bytes"]
        macs = static["macs"]
        new = object.__new__
        set_attr = object.__setattr__
        events: List[TraceEvent] = []
        append = events.append
        for cid, s, e, own, dep in zip(
            self.cids, self.start, self.end, self.own_ready, self.dep_ready
        ):
            ev = new(TraceEvent)
            set_attr(ev, "__dict__", {
                "cid": cid,
                "core": core[cid],
                "engine": engine[cid],
                "kind": kind[cid],
                "layer": layer[cid],
                "tag": tag[cid],
                "num_bytes": num_bytes[cid],
                "macs": macs[cid],
                "start": s,
                "end": e,
                "own_ready": own,
                "dep_ready": dep,
            })
            append(ev)
        return events


ColumnsSource = Union[TraceColumns, Callable[[], TraceColumns]]


class Trace:
    """All events of one simulated inference, in completion order.

    Construct either from an eager event list (``Trace(events)``, the
    reference cores and tests) or from a columnar payload
    (``Trace(columns=...)``, the session event loop).  ``columns`` may
    be a zero-arg callable, in which case even the column derivation is
    deferred until the trace is first read -- cold simulation then
    returns without touching trace assembly.
    """

    __slots__ = ("_events", "_cols", "_col_cache", "_indices", "index_builds")

    def __init__(
        self,
        events: Optional[List[TraceEvent]] = None,
        columns: Optional[ColumnsSource] = None,
    ) -> None:
        if (events is None) == (columns is None):
            raise TypeError("pass exactly one of events= or columns=")
        self._events = events
        self._cols = columns
        self._col_cache: Dict[str, List[object]] = {}
        self._indices: Dict[str, Dict[object, List[int]]] = {}
        #: number of column index constructions (repeated queries must
        #: not re-scan; see tests/sim/test_trace_columns.py)
        self.index_builds = 0

    def _columns(self) -> TraceColumns:
        cols = self._cols
        if cols is None:
            raise RuntimeError("event-built trace has no columnar payload")
        if not isinstance(cols, TraceColumns):
            cols = cols()
            self._cols = cols
        return cols

    @property
    def events(self) -> List[TraceEvent]:
        """The materialized event views (built lazily, cached)."""
        events = self._events
        if events is None:
            events = self._columns().materialize()
            self._events = events
        return events

    def column(self, name: str) -> List[object]:
        """One per-event column (``COLUMN_FIELDS``), in event order.

        Columnar traces answer from the struct-of-arrays payload without
        materializing events; event-built traces derive the column once
        and cache it.
        """
        col = self._col_cache.get(name)
        if col is None:
            if self._cols is not None:
                col = self._columns().column(name)
            else:
                col = [getattr(e, name) for e in self.events]
            self._col_cache[name] = col
        return col

    def __len__(self) -> int:
        events = self._events
        if events is not None:
            return len(events)
        return len(self._columns())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return self.events == other.events
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Trace(num_events={len(self)})"

    def __reduce__(self) -> Tuple[type, Tuple[List[TraceEvent]]]:
        # Pickle as the materialized event list: columnar payloads hold
        # plan-owned static columns (and possibly closures) that are
        # not worth shipping across process boundaries.
        return (Trace, (self.events,))

    @property
    def makespan(self) -> float:
        ends = self.column("end")
        return max(ends) if ends else 0.0  # type: ignore[type-var]

    def _index(self, field: str) -> Dict[object, List[int]]:
        """value -> event positions for ``field``, built once per field."""
        idx = self._indices.get(field)
        if idx is None:
            idx = {}
            for pos, value in enumerate(self.column(field)):
                bucket = idx.get(value)
                if bucket is None:
                    idx[value] = [pos]
                else:
                    bucket.append(pos)
            self._indices[field] = idx
            self.index_builds += 1
        return idx

    def positions(self, field: str, value: object) -> List[int]:
        """Event positions whose ``field`` column equals ``value``.

        Served from the cached per-column index; lets column readers
        (stats, verifiers) filter without materializing events.
        """
        return self._index(field).get(value, [])

    def for_core(self, core: int) -> List[TraceEvent]:
        events = self.events
        return [events[p] for p in self.positions("core", core)]

    def for_layer(self, layer: str) -> List[TraceEvent]:
        events = self.events
        return [events[p] for p in self.positions("layer", layer)]

    def for_layers(self, layers: Iterable[str]) -> List[TraceEvent]:
        idx = self._index("layer")
        positions: List[int] = []
        for layer in set(layers):
            positions.extend(idx.get(layer, ()))
        positions.sort()
        events = self.events
        return [events[p] for p in positions]

    def of_kind(self, kind: CommandKind) -> List[TraceEvent]:
        events = self.events
        return [events[p] for p in self.positions("kind", kind)]

    def busy_intervals(
        self, core: int, engine: Optional[Engine] = None
    ) -> List[Tuple[float, float]]:
        """Merged busy intervals of a core (optionally one engine)."""
        starts = self.column("start")
        ends = self.column("end")
        if engine is None:
            spans = sorted(
                (starts[p], ends[p])
                for p in self.positions("core", core)
                if ends[p] > starts[p]  # type: ignore[operator]
            )
        else:
            engines = self.column("engine")
            spans = sorted(
                (starts[p], ends[p])
                for p in self.positions("core", core)
                if engines[p] is engine and ends[p] > starts[p]  # type: ignore[operator]
            )
        merged: List[Tuple[float, float]] = []
        for start, end in spans:  # type: ignore[assignment]
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def busy_time(self, core: int, engine: Optional[Engine] = None) -> float:
        return sum(end - start for start, end in self.busy_intervals(core, engine))
