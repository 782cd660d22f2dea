"""Structure pass: the one definition of a well-formed program (RPR2xx).

:meth:`Program.validate` raises on this pass's first finding that the
simulator's plan refuses (:func:`plan_refusal`), and the verifier gates
its plan-reading passes on the same rule.  Beyond well-formedness, the
pass searches the union of dependency edges and per-engine queue order
for a cycle, so a dependency cycle that only materialises *through* a
hardware queue (command A waits on B, while B sits behind A in its
engine queue) is detected as the deadlock it would be on silicon.  The
search runs only when some dependency does not name an earlier
position: otherwise every edge points backward and no cycle can exist.

Codes:

* ``RPR201`` -- dangling dependency id (no such command); a dependency
  that points forward is a warning
* ``RPR202`` -- self-dependency
* ``RPR203`` -- dependency/queue cycle (deadlock)
* ``RPR204`` -- command id not its position (duplicate or non-dense ids)
* ``RPR205`` -- core index outside the machine
* ``RPR206`` -- payload on the wrong command kind (bytes on compute,
  MACs on DMA), negative values, non-finite ``cycles``
* ``RPR207`` -- a dependency listed twice
"""

from __future__ import annotations

import math
from typing import Any, Container, Dict, List, Optional, Sequence

from repro.compiler.program import CommandKind, Program
from repro.verify.diagnostics import Diagnostic, PassResult, Severity

_COMPUTE = CommandKind.COMPUTE
_BARRIER = CommandKind.BARRIER

def plan_refusal(result: PassResult) -> Optional[Diagnostic]:
    """The first finding the simulator's plan refuses: any error, or a
    forward dependency (the plan needs every dependency earlier)."""
    for diag in result.diagnostics:
        if diag.severity is Severity.ERROR or diag.code == "RPR201":
            return diag
    return None


def check_structure(program: Program) -> PassResult:
    """Run the structure pass over ``program``'s columns."""
    result = PassResult(name="structure")
    cols = program.columns()
    cids = cols.cid
    num_cores = program.num_cores
    n = len(cids)

    # With every id at its position, a dependency names a command iff it
    # lies in range(n), and it points backward iff it is below the id.
    ids_off = not isinstance(cids, range)
    known: Container[int] = set(cids) if ids_off else cids
    forward = False
    edges = 0
    for pos, (cid, core, kind, deps, num_bytes, macs, cycles) in enumerate(
        zip(cids, cols.core, cols.kind, cols.deps, cols.num_bytes, cols.macs, cols.cycles)
    ):
        if cid != pos:
            result.emit(
                "RPR204",
                f"command id {cid} at position {pos}",
                layer=cols.layer[pos],
                core=core,
                cid=cid,
                hint="command ids must be dense and unique: each is its "
                "position (the builder assigns them)",
            )
        if not 0 <= core < num_cores:
            result.emit(
                "RPR205",
                f"core index {core} outside machine with "
                f"{num_cores} core(s)",
                layer=cols.layer[pos],
                cid=cid,
            )
        edges += len(deps)
        if deps and (
            ids_off or min(deps) < 0 or max(deps) >= cid or len(set(deps)) < len(deps)
        ):
            at = {"layer": cols.layer[pos], "core": core, "cid": cid}
            forward |= _check_deps(result, cid, deps, known, at)
        if kind is _COMPUTE:
            bad = num_bytes or macs < 0
        elif kind is _BARRIER:
            bad = num_bytes or macs
        else:
            bad = num_bytes < 0 or macs
        if bad or not 0.0 <= cycles < math.inf:
            at = {"layer": cols.layer[pos], "core": core, "cid": cid}
            _check_payload(result, kind, num_bytes, macs, cycles, at)

    # Otherwise every dependency and queue edge points backward, so no
    # cycle can exist.
    if ids_off or forward:
        _check_cycles(result, program)
    result.stats["commands"] = n
    result.stats["edges"] = edges
    return result


def _check_deps(
    result: PassResult, cid: int, deps: Sequence[int], known: Container[int], at: Dict[str, Any]
) -> bool:
    """Report command ``cid``'s bad dependencies; True if one points
    forward.  ``at`` locates the diagnostics."""
    forward = False
    for dep in deps:
        if dep == cid:
            result.emit("RPR202", "command depends on itself", **at)
        elif dep not in known:
            result.emit(
                "RPR201",
                f"dangling dependency {dep} does not name any command",
                hint="a command was removed without patching its consumers",
                **at,
            )
        elif dep > cid:
            forward = True
            result.emit(
                "RPR201",
                f"dependency {dep} points forward past command {cid}",
                severity=Severity.WARNING,
                hint="the builder only emits backward edges; forward edges "
                "deadlock when both commands share an engine queue",
                **at,
            )
    repeated = sorted({d for d in deps if deps.count(d) > 1})
    if repeated:
        result.emit(
            "RPR207",
            "duplicate dependency entries for "
            + ", ".join(f"#{d}" for d in repeated),
            hint="list each dependency once",
            **at,
        )
    return forward


def _check_payload(
    result: PassResult,
    kind: CommandKind,
    num_bytes: int,
    macs: int,
    cycles: float,
    at: Dict[str, Any],
) -> None:
    if kind is _COMPUTE:
        if macs < 0:
            result.emit("RPR206", f"negative MAC count {macs}", **at)
        if num_bytes:
            result.emit(
                "RPR206", f"compute command carries {num_bytes} bytes of DMA payload", **at
            )
    elif kind is _BARRIER:
        if num_bytes or macs:
            result.emit("RPR206", "barrier command carries a DMA/compute payload", **at)
    else:  # DMA
        if num_bytes < 0:
            result.emit("RPR206", f"negative byte count {num_bytes}", **at)
        if macs:
            result.emit("RPR206", f"DMA command carries {macs} MACs", **at)
    if not math.isfinite(cycles):
        result.emit("RPR206", f"non-finite cycles {cycles}", **at)
    elif cycles < 0:
        result.emit("RPR206", f"negative cycles {cycles}", **at)


def _check_cycles(result: PassResult, program: Program) -> None:
    """Kahn's algorithm over dependency edges + engine queue order."""
    cols = program.columns()
    cids = cols.cid
    n = len(cids)
    index = {cid: i for i, cid in enumerate(cids)}

    succs: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, (deps, prev) in enumerate(zip(cols.deps, program.engine_queues().prev)):
        for dep in deps:
            j = index.get(dep)
            if j is None or j == i:
                continue  # dangling/self deps already reported
            succs[j].append(i)
            indeg[i] += 1
        if prev >= 0:
            succs[prev].append(i)
            indeg[i] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if done < n:
        stuck = [i for i in range(n) if indeg[i] > 0]
        sample = ", ".join(f"#{cids[i]}" for i in stuck[:6])
        first = stuck[0]
        result.emit(
            "RPR203",
            f"{len(stuck)} command(s) can never start "
            f"(dependency/queue cycle): {sample}",
            severity=Severity.ERROR,
            layer=cols.layer[first],
            core=cols.core[first],
            cid=cids[first],
            hint="a dependency points forward across an engine queue, "
            "forming a wait cycle with program order",
        )
