"""Execution traces: what ran where, when, and what it waited for.

A trace is its columns (struct-of-arrays): one per-event sequence for
each timing field plus per-command columns for the static command
fields, twelve fields in all (:data:`COLUMN_FIELDS`).  Readers ask for
a column in event order (:meth:`Trace.column`) or for the event
positions where a column holds a value (:meth:`Trace.positions`); no
per-event objects are ever built.  The simulation session hands a trace
a zero-arg callable instead of the columns, so deriving them is
deferred until the trace is first read -- cold simulation returns
without touching trace assembly.

Per-event fields, as :meth:`Trace.column` names them:

* ``cid``, ``core``, ``engine``, ``kind``, ``layer``, ``tag``,
  ``num_bytes``, ``macs`` -- the command that ran;
* ``start`` and ``end`` -- when it ran;
* ``own_ready`` -- when it could have started based only on its own
  core (engine free and same-core dependencies done); the gap to
  ``start`` is time spent waiting on *other* cores, the exposed
  synchronization cost;
* ``dep_ready`` -- when its last dependency completed (0 without deps).

:meth:`Trace.positions` builds a cached per-column position index on
first use instead of re-scanning per call; ``Trace.index_builds``
counts index constructions so tests can assert repeated queries do not
re-scan.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union, cast

from repro.compiler.program import Engine


#: static per-command fields, stored once per command and indexed by cid.
STATIC_FIELDS = ("cid", "core", "engine", "kind", "layer", "tag", "num_bytes", "macs")
TIMING_FIELDS = ("start", "end", "own_ready", "dep_ready")
COLUMN_FIELDS = STATIC_FIELDS + TIMING_FIELDS


class TraceColumns:
    """Struct-of-arrays payload of one trace.

    ``cids``, ``start``, ``end``, ``own_ready`` and ``dep_ready`` are
    equal-length parallel sequences in event order.  ``static`` maps
    each of the eight static fields (:data:`STATIC_FIELDS`) to a
    sequence indexable by cid.
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


ColumnsSource = Union[TraceColumns, Callable[[], TraceColumns]]


def merge_intervals(spans: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """``(start, end)`` pairs sorted, with overlapping or touching pairs
    merged into one."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class Trace:
    """All events of one simulated inference, in (start, cid) order.

    ``columns`` is the columnar payload or a zero-arg callable that
    builds it on first read (the session event loop passes one).
    """

    __slots__ = ("_cols", "_col_cache", "_indices", "index_builds")

    def __init__(self, columns: ColumnsSource) -> None:
        self._cols = columns
        self._col_cache: Dict[str, List[object]] = {}
        self._indices: Dict[str, Dict[object, List[int]]] = {}
        #: number of column index constructions (repeated queries must
        #: not re-scan; see tests/sim/test_trace_columns.py)
        self.index_builds = 0

    def _columns(self) -> TraceColumns:
        cols = self._cols
        if not isinstance(cols, TraceColumns):
            cols = cols()
            self._cols = cols
        return cols

    def column(self, name: str) -> List[object]:
        """One per-event column (``COLUMN_FIELDS``), in event order,
        built once and cached."""
        col = self._col_cache.get(name)
        if col is None:
            col = self._columns().column(name)
            self._col_cache[name] = col
        return col

    def __len__(self) -> int:
        return len(self._columns())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return all(self.column(f) == other.column(f) for f in COLUMN_FIELDS)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Trace(num_events={len(self)})"

    def __reduce__(self) -> Tuple[type, Tuple[TraceColumns]]:
        # Pickle the built columns: a deferred payload is a closure.
        return (Trace, (self._columns(),))

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
        """Ascending event positions whose ``field`` column equals
        ``value``, served from the cached per-column index."""
        return self._index(field).get(value, [])

    def busy_intervals(
        self, core: int, engine: Optional[Engine] = None
    ) -> List[Tuple[float, float]]:
        """Merged busy intervals of a core (optionally one engine)."""
        starts = cast(List[float], self.column("start"))
        ends = cast(List[float], self.column("end"))
        if engine is None:
            return merge_intervals(
                (starts[p], ends[p])
                for p in self.positions("core", core)
                if ends[p] > starts[p]
            )
        engines = self.column("engine")
        return merge_intervals(
            (starts[p], ends[p])
            for p in self.positions("core", core)
            if engines[p] is engine and ends[p] > starts[p]
        )

    def busy_time(self, core: int, engine: Optional[Engine] = None) -> float:
        return sum(end - start for start, end in self.busy_intervals(core, engine))


def trace_span(trace: Trace) -> Tuple[float, float]:
    """(first start, last end) of a trace's events; (0, 0) without any.

    A program injected after t=0 spans less than its completion time:
    its latency is the span's length, not its end.
    """
    if not len(trace):
        return (0.0, 0.0)
    return (cast(float, trace.column("start")[0]), trace.makespan)
