"""Simulation-result memoization keyed by content fingerprints.

Every layer above the simulator multiplies how often the *same*
simulation is requested: serving policies re-predict the same isolated
run per queued request per wave, the dynamic policy re-measures the
same candidate wave shapes, degraded mode recompiles onto the same
surviving core groups, and seed sweeps re-run whole grids.  Stream-style
design-space exploration (see PAPERS.md) gets its throughput exactly
this way -- cheap re-evaluation of repeated candidates -- so the cache
below generalizes the per-wave-shape memo that used to live privately
inside :class:`repro.serve.LatencyPredictor` into a process-wide layer
that :func:`repro.sim.simulate` (clean and faulted) and
:meth:`repro.sim.SimSession.inject` consult.

Keys are *content* fingerprints, not object identities: a program is
hashed over its commands, a machine over its serialized description,
and a fault plan contributes its (hashable, frozen) event set.  Two
different program objects with identical commands therefore share one
entry, and a clean run never aliases a faulted one.  A program is a
value that cannot change once built, so its digest is computed once
and kept on it.  A program :func:`~repro.sim.multitenant.place_program`
built is hashed over its source's fingerprint and its core map instead
of its commands -- still a pure function of content, so programs
placed from content-equal sources on equal core maps share entries,
but a placed program and a content-equal plain program do not.  The
placement lives on the placed program
(:meth:`~repro.compiler.program.Program.placement`), so its digest
needs no placed command.
:func:`repro.sim.simulate` treats an empty fault plan as no plan, so it
shares the clean entry by construction.

Cached :class:`~repro.sim.simulator.SimResult` objects are returned
*shared*: callers must treat traces as immutable (nothing in the repo
writes to a trace's columns; :meth:`~repro.sim.trace.Trace.column`
hands every caller the same cached list).

The default process-wide memo only invests memory in keys that repeat:
a key is recorded on its first miss and the simulation result is stored
when the same key misses again (``store_on_first_miss=False``).  That
keeps streaming workloads -- thousands of distinct (wave, seed) pairs
that will never be requested twice -- from pinning megabytes of traces,
while everything that actually repeats is cached from its second
occurrence on.  Construct a private ``SimMemo(store_on_first_miss=True)``
for classic memoize-everything behavior.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.hw.serialize import machine_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compiler.program import Program
    from repro.faults.plan import FaultPlan
    from repro.hw.config import NPUConfig

#: attribute under which a program caches its own fingerprint
_FP_ATTR = "_sim_fingerprint"

#: a command kind's text, as ``kind.value`` reads it
_VALUE = attrgetter("_value_")

#: sentinel: "use the process-wide default memo" (``None`` disables)
USE_DEFAULT_MEMO = object()


def program_fingerprint(program: "Program") -> str:
    """Content hash of a program's commands, kept on the program (it
    cannot change, so the digest never goes stale).  The hashed text
    lists each command's (cid, core, kind text, deps, bytes, MACs,
    cycles, layer, tag), read from the program's columns.

    A placed program (:meth:`~repro.compiler.program.Program.placement`)
    hashes a tag, its source's fingerprint, its core map and its core
    count instead, without building its commands: that pins its content
    as well, and the tagged text can never equal a command-list text,
    so the two kinds of digest cannot collide.
    """
    kept = vars(program)
    digest = kept.get(_FP_ATTR)
    if digest is not None:
        return digest
    placement = program.placement()
    if placement is not None:
        source, cores = placement.source, placement.cores
        text = repr(("placed", program_fingerprint(source), cores, program.num_cores))
    else:
        cols = program.columns()
        payload = list(
            zip(
                cols.cid, cols.core, map(_VALUE, cols.kind), cols.deps,
                cols.num_bytes, cols.macs, cols.cycles, cols.layer, cols.tag,
            )
        )
        text = repr((program.num_cores, payload))
    digest = kept[_FP_ATTR] = hashlib.sha256(text.encode()).hexdigest()
    return digest


def clean_key(program: "Program", npu: "NPUConfig", seed: int) -> Tuple:
    """Memo key for a clean (fault-free) simulation."""
    return ("clean", program_fingerprint(program), machine_fingerprint(npu), seed)


def wave_key(programs: "Sequence[Program]", npu: "NPUConfig", seed: int) -> Tuple:
    """Memo key for the makespan of a wave of programs, in slot order."""
    return ("wave", tuple(map(program_fingerprint, programs)), machine_fingerprint(npu), seed)


def faulted_key(
    program: "Program", npu: "NPUConfig", seed: int, plan: "FaultPlan"
) -> Tuple:
    """Memo key for a fault-injected one-shot simulation.

    The fault-plan *signature* is the frozen plan itself.  The leading
    tag keeps faulted entries disjoint from clean ones even for an empty
    plan.
    """
    return (
        "faulted",
        program_fingerprint(program),
        machine_fingerprint(npu),
        seed,
        plan,
    )


class SimMemo:
    """Bounded LRU cache of :class:`SimResult` objects (and, under
    :func:`wave_key`, of wave makespans in cycles).

    ``max_entries`` bounds stored results (least-recently-used entries
    are evicted); hit/miss counters make cache behavior observable for
    benchmarks and CI smoke checks.  With ``store_on_first_miss=False``
    a key must miss twice before its result is stored -- see the module
    docstring for why that is the right default process-wide.
    """

    def __init__(self, max_entries: int = 256, store_on_first_miss: bool = True):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.store_on_first_miss = store_on_first_miss
        self._data: Dict[Tuple, Any] = {}
        self._seen: Dict[Tuple, None] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Tuple) -> Any:
        """Look up a result, counting the hit or miss."""
        result = self._data.get(key)
        if result is not None:
            self.hits += 1
            # refresh LRU position (dicts preserve insertion order)
            del self._data[key]
            self._data[key] = result
            return result
        self.misses += 1
        return None

    def put(self, key: Tuple, result: Any) -> None:
        """Store a result, unless this key is on its first miss and the
        memo is in store-on-second-miss mode."""
        if not self.store_on_first_miss and key not in self._seen:
            self._seen[key] = None
            # the seen-set is cheap (keys only) but still bounded
            while len(self._seen) > 8 * self.max_entries:
                self._seen.pop(next(iter(self._seen)))
            return
        self._data[key] = result
        while len(self._data) > self.max_entries:
            self._data.pop(next(iter(self._data)))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        self._data.clear()
        self._seen.clear()
        self.hits = 0
        self.misses = 0


_DEFAULT: Optional[SimMemo] = None


def default_memo() -> SimMemo:
    """The process-wide memo that ``simulate(...)`` consults by default."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SimMemo(max_entries=256, store_on_first_miss=False)
    return _DEFAULT
