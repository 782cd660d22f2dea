"""The cross-core happens-before relation of a compiled program.

A command ``b`` happens strictly after ``a`` when there is a path from
``a`` to ``b`` through

* explicit dependency edges (``b`` starts only after its deps complete),
* per-engine program order (each engine is a hardware queue: a command
  starts only when its queue predecessor has completed).

The relation is the transitive closure over both edge kinds; the race
and liveness passes and perflint query it to prove that every consumer
read is ordered after its producer write.  The closure is materialised
as one ancestor bitset per command (arbitrary-precision ints, so union
is a single C-level ``|``); programs in this repository are a few
thousand commands, for which this costs a few milliseconds and a few
megabytes.

It is built only for programs the structure pass accepts
(:func:`repro.verify.structure.plan_refusal` finds nothing): ids are
positions and every dependency and queue predecessor is earlier.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.compiler.program import Program


class HappensBefore:
    """Materialised happens-before closure of one program.

    The edges are the program's deps column and its engine queues'
    in-queue predecessors (:meth:`Program.engine_queues`).  ``deps``,
    one dependency tuple per position, stands in for the deps column:
    perflint's RPR803 proof passes a copy with a barrier group's edges
    stripped.
    """

    def __init__(
        self, program: Program, deps: Optional[Sequence[Sequence[int]]] = None
    ) -> None:
        if deps is None:
            deps = program.columns().deps
        ancestors: List[int] = []
        for cmd_deps, prev in zip(deps, program.engine_queues().prev):
            anc = 0
            for dep in cmd_deps:
                anc |= ancestors[dep] | (1 << dep)
            if prev >= 0:
                anc |= ancestors[prev] | (1 << prev)
            ancestors.append(anc)
        self._ancestors = ancestors

    def ordered(self, before_cid: int, after_cid: int) -> bool:
        """Is ``before_cid`` guaranteed to complete before ``after_cid`` starts?"""
        return bool(self._ancestors[after_cid] >> before_cid & 1)
