"""Trace rows for tests.

A :class:`~repro.sim.trace.Trace` is stored only as columns.  Tests that
compare whole events read them here as :class:`Row` tuples of all
twelve ``COLUMN_FIELDS``, in event order, and tests that need a trace
of their own build it from rows (:func:`trace_of`) or, for the retained
simulator cores, from per-command timing lists (:func:`oracle_trace`).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, List, Sequence

from repro.compiler.program import Command
from repro.sim.trace import COLUMN_FIELDS, STATIC_FIELDS, Trace, TraceColumns

#: one event, its twelve fields in ``COLUMN_FIELDS`` order; compares as
#: the plain tuple.
Row = namedtuple("Row", COLUMN_FIELDS)


def rows(trace: Trace) -> List[Row]:
    """Every event of ``trace``, in event order."""
    return [Row(*values) for values in zip(*map(trace.column, COLUMN_FIELDS))]


def trace_of(events: Iterable[Sequence[object]]) -> Trace:
    """A trace whose events are ``events`` (rows or twelve-field tuples),
    in the given order.  Static fields are keyed by cid, as the simulator
    stores them."""
    events = [Row(*e) for e in events]
    static = {name: {e.cid: getattr(e, name) for e in events} for name in STATIC_FIELDS}
    return Trace(
        TraceColumns(
            cids=[e.cid for e in events],
            start=[e.start for e in events],
            end=[e.end for e in events],
            own_ready=[e.own_ready for e in events],
            dep_ready=[e.dep_ready for e in events],
            static=static,
        )
    )


def oracle_trace(
    commands: Sequence[Command],
    start: Sequence[float],
    end: Sequence[float],
    own_ready: Sequence[float],
    dep_ready: Sequence[float],
) -> Trace:
    """The trace of a run that finished every command, from per-cid
    timing lists: events in (start, cid) order, the order every core
    emits.  The static fields come from ``commands``, not from a
    simulation plan, so comparing against this trace checks the plan's
    columns independently."""
    order = sorted(range(len(commands)), key=lambda cid: (start[cid], cid))
    return Trace(
        TraceColumns(
            cids=order,
            start=[start[c] for c in order],
            end=[end[c] for c in order],
            own_ready=[own_ready[c] for c in order],
            dep_ready=[dep_ready[c] for c in order],
            static={name: [getattr(c, name) for c in commands] for name in STATIC_FIELDS},
        )
    )
