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
from typing import Container, List, Optional

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
    """Run the structure pass over ``program``."""
    result = PassResult(name="structure")
    commands = program.commands
    num_cores = program.num_cores
    n = len(commands)

    # With every id at its position, a dependency names a command iff it
    # lies in range(n), and it points backward iff it is below the id.
    cids = [c.cid for c in commands]
    ids_off = cids != list(range(n))
    known: Container[int] = set(cids) if ids_off else range(n)
    forward = False
    edges = 0
    for pos, cmd in enumerate(commands):
        if cmd.cid != pos:
            result.emit(
                "RPR204",
                f"command id {cmd.cid} at position {pos}",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
                hint="command ids must be dense and unique: each is its "
                "position (the builder assigns them)",
            )
        if not 0 <= cmd.core < num_cores:
            result.emit(
                "RPR205",
                f"core index {cmd.core} outside machine with "
                f"{num_cores} core(s)",
                layer=cmd.layer,
                cid=cmd.cid,
            )
        deps = cmd.deps
        edges += len(deps)
        if deps and (
            ids_off or min(deps) < 0 or max(deps) >= cmd.cid or len(set(deps)) < len(deps)
        ):
            forward |= _check_deps(result, cmd, known)
        kind = cmd.kind
        if kind is _COMPUTE:
            bad = cmd.num_bytes or cmd.macs < 0
        elif kind is _BARRIER:
            bad = cmd.num_bytes or cmd.macs
        else:
            bad = cmd.num_bytes < 0 or cmd.macs
        if bad or not 0.0 <= cmd.cycles < math.inf:
            _check_payload(result, cmd)

    # Otherwise every dependency and queue edge points backward, so no
    # cycle can exist.
    if ids_off or forward:
        _check_cycles(result, program)
    result.stats["commands"] = n
    result.stats["edges"] = edges
    return result


def _check_deps(result: PassResult, cmd, known: Container[int]) -> bool:
    """Report ``cmd``'s bad dependencies; True if one points forward."""
    forward = False
    for dep in cmd.deps:
        if dep == cmd.cid:
            result.emit(
                "RPR202",
                "command depends on itself",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
        elif dep not in known:
            result.emit(
                "RPR201",
                f"dangling dependency {dep} does not name any command",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
                hint="a command was removed without patching its consumers",
            )
        elif dep > cmd.cid:
            forward = True
            result.emit(
                "RPR201",
                f"dependency {dep} points forward past command {cmd.cid}",
                severity=Severity.WARNING,
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
                hint="the builder only emits backward edges; forward edges "
                "deadlock when both commands share an engine queue",
            )
    repeated = sorted({d for d in cmd.deps if cmd.deps.count(d) > 1})
    if repeated:
        result.emit(
            "RPR207",
            "duplicate dependency entries for "
            + ", ".join(f"#{d}" for d in repeated),
            layer=cmd.layer,
            core=cmd.core,
            cid=cmd.cid,
            hint="list each dependency once",
        )
    return forward


def _check_payload(result: PassResult, cmd) -> None:
    if cmd.is_dma:
        if cmd.num_bytes < 0:
            result.emit(
                "RPR206",
                f"negative byte count {cmd.num_bytes}",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
        if cmd.macs:
            result.emit(
                "RPR206",
                f"DMA command carries {cmd.macs} MACs",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
    elif cmd.kind is CommandKind.COMPUTE:
        if cmd.macs < 0:
            result.emit(
                "RPR206",
                f"negative MAC count {cmd.macs}",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
        if cmd.num_bytes:
            result.emit(
                "RPR206",
                f"compute command carries {cmd.num_bytes} bytes of DMA payload",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
    else:  # BARRIER
        if cmd.num_bytes or cmd.macs:
            result.emit(
                "RPR206",
                "barrier command carries a DMA/compute payload",
                layer=cmd.layer,
                core=cmd.core,
                cid=cmd.cid,
            )
    if not math.isfinite(cmd.cycles):
        result.emit(
            "RPR206",
            f"non-finite cycles {cmd.cycles}",
            layer=cmd.layer,
            core=cmd.core,
            cid=cmd.cid,
        )
    elif cmd.cycles < 0:
        result.emit(
            "RPR206",
            f"negative cycles {cmd.cycles}",
            layer=cmd.layer,
            core=cmd.core,
            cid=cmd.cid,
        )


def _check_cycles(result: PassResult, program: Program) -> None:
    """Kahn's algorithm over dependency edges + engine queue order."""
    commands = program.commands
    n = len(commands)
    index = {c.cid: i for i, c in enumerate(commands)}

    succs: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, (cmd, prev) in enumerate(zip(commands, program.engine_queues().prev)):
        for dep in cmd.deps:
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
        stuck = [commands[i] for i in range(n) if indeg[i] > 0]
        sample = ", ".join(f"#{c.cid}" for c in stuck[:6])
        result.emit(
            "RPR203",
            f"{len(stuck)} command(s) can never start "
            f"(dependency/queue cycle): {sample}",
            severity=Severity.ERROR,
            layer=stuck[0].layer,
            core=stuck[0].core,
            cid=stuck[0].cid,
            hint="a dependency points forward across an engine queue, "
            "forming a wait cycle with program order",
        )
