"""The compiled program: per-core command streams with dependencies.

A :class:`Program` is the compiler's output and the simulator's input.
Each command runs on one *engine* of one core -- the load DMA, the
compute engine, the store DMA, or the control unit -- and engines process
their commands strictly in program order (they are hardware queues).
Cross-engine and cross-core ordering is expressed with explicit
dependency edges: a command starts only when it reaches the head of its
engine queue *and* all its dependencies have completed.

This dataflow form captures every execution model in the paper: the
load/compute/store software pipeline with double buffering, barriers
(commands on every core depending on all cores' frontiers), and
halo-exchange (a receive depending on remote sends).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import operator
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.verify.diagnostics import PassResult


class Engine(enum.Enum):
    """Hardware queues within one core."""

    LOAD = "load"
    COMPUTE = "compute"
    STORE = "store"
    CTRL = "ctrl"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    #: Members are singletons that compare by identity, so they hash by
    #: identity too, in C (``Enum.__hash__`` hashes the name in Python).
    __hash__ = object.__hash__


class CommandKind(enum.Enum):
    LOAD_INPUT = "load-input"
    LOAD_WEIGHT = "load-weight"
    COMPUTE = "compute"
    STORE_OUTPUT = "store-output"
    HALO_SEND = "halo-send"
    HALO_RECV = "halo-recv"
    BARRIER = "barrier"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    #: Identity hash in C, as for :class:`Engine`.
    __hash__ = object.__hash__

    @functools.cached_property
    def engine(self) -> Engine:
        """The queue this kind runs on.

        Kept on the member after the first read, so the builder's reads
        are attribute reads, not enum-keyed dict lookups.
        """
        return _ENGINE_OF_KIND[self]


_ENGINE_OF_KIND = {
    CommandKind.LOAD_INPUT: Engine.LOAD,
    CommandKind.LOAD_WEIGHT: Engine.LOAD,
    CommandKind.HALO_RECV: Engine.LOAD,
    CommandKind.COMPUTE: Engine.COMPUTE,
    CommandKind.STORE_OUTPUT: Engine.STORE,
    CommandKind.HALO_SEND: Engine.STORE,
    CommandKind.BARRIER: Engine.CTRL,
}

_DMA_ENGINES = (Engine.LOAD, Engine.STORE)


@dataclasses.dataclass(frozen=True)
class Command:
    """One unit of work on one engine of one core.

    Exactly one of ``num_bytes`` (DMA commands), ``macs`` (compute) or
    ``cycles`` (fixed-latency control commands) is meaningful, selected by
    ``kind``.
    """

    cid: int
    core: int
    kind: CommandKind
    deps: Tuple[int, ...] = ()
    num_bytes: int = 0
    macs: int = 0
    cycles: float = 0.0
    layer: str = ""
    tag: str = ""
    #: the queue ``kind`` runs on; derived, so not part of the value.
    engine: Engine = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", self.kind.engine)

    @property
    def is_dma(self) -> bool:
        engine = self.engine
        return engine is Engine.LOAD or engine is Engine.STORE

    def __str__(self) -> str:
        payload = (
            f"{self.num_bytes}B"
            if self.is_dma
            else (f"{self.macs}MAC" if self.kind is CommandKind.COMPUTE else f"{self.cycles:.0f}cy")
        )
        return f"#{self.cid} c{self.core} {self.kind.value} {self.layer}{self.tag} {payload}"


class EngineQueues(NamedTuple):
    """A program's engine queues; commands are named by position."""

    #: (core, engine) of each queue, in order of first use
    keys: List[Tuple[int, Engine]]
    #: each queue's commands, in program order
    members: List[List[int]]
    #: each command's queue
    qid_of: List[int]
    #: each command's in-queue predecessor (-1 for queue heads)
    prev: List[int]


class ProgramColumns(NamedTuple):
    """A program's commands as one list per :class:`Command` field,
    indexed by position; readers treat every list as read-only.

    ``cid`` is ``range(n)`` when each command's id is its position --
    always, for a program the builder made -- and otherwise the ids as
    given, which the structure pass reports (RPR204).
    """

    cid: Sequence[int]
    core: List[int]
    kind: List[CommandKind]
    engine: List[Engine]
    deps: List[Tuple[int, ...]]
    num_bytes: List[int]
    macs: List[int]
    cycles: List[float]
    layer: List[str]
    tag: List[str]

    @classmethod
    def of_fields(
        cls,
        cid: Sequence[int],
        core: List[int],
        kind: List[CommandKind],
        deps: List[Tuple[int, ...]],
        num_bytes: List[int],
        macs: List[int],
        cycles: List[float],
        layer: List[str],
        tag: List[str],
    ) -> "ProgramColumns":
        """The columns of one list per :class:`Command` field, ``engine``
        derived from ``kind``.  The ids become ``range(n)`` when each is
        exactly its position (an ``int`` equal to it)."""
        if all(type(c) is int for c in cid) and cid == list(range(len(cid))):
            cid = range(len(cid))
        engine = [k.engine for k in kind]
        return cls(cid, core, kind, engine, deps, num_bytes, macs, cycles, layer, tag)

    @classmethod
    def of_commands(cls, commands: Sequence[Command]) -> "ProgramColumns":
        """The columns of a command sequence."""
        return cls.of_fields(*(list(map(operator.attrgetter(name), commands)) for name in _FIELDS))


#: the fields a :class:`Command` is made of, in order
_FIELDS = tuple(field.name for field in dataclasses.fields(Command) if field.init)


class Placement(NamedTuple):
    """What a placed program is a view of (:meth:`Program.placed_on`)."""

    #: the program that was placed
    source: "Program"
    #: physical core of each source core
    cores: Tuple[int, ...]


def _check_num_cores(num_cores: int) -> None:
    if num_cores < 0:
        raise ValueError(f"num_cores must be >= 0, got {num_cores}")


@dataclasses.dataclass(frozen=True, eq=False)
class Program:
    """An executable command set for an ``num_cores``-core NPU.

    A program is its columns (:meth:`columns`): one list per command
    field, a command's id being its position.  Every program holds
    columns: the builder makes them, and ``Program(num_cores,
    commands)`` (any sequence of :class:`Command`) turns its commands
    into columns when it is made.  The ``commands`` tuple is built from
    the columns only when first read, which in the package only the
    session's deadlock message does: every other reader reads a command
    by its position, through the columns, :meth:`groups` and
    :meth:`engine_queues`.

    A program is a value: neither field can be rebound, so each view
    derived from it -- the commands, the structure verdict, the engine
    queues, the groups, the simulator's per-machine plans, the memo
    fingerprint -- is computed at most once and kept on the program with
    no validity check.  Programs compare by content and are not hashable.

    A program :meth:`placed_on` physical cores is a view of its source:
    its columns share every list of the source's but ``core``, and its
    engine queues every list but ``keys``.
    """

    num_cores: int
    commands: Tuple[Command, ...] = dataclasses.field(default_factory=tuple)

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        _check_num_cores(self.num_cores)
        kept = self.__dict__
        kept["_columns"] = ProgramColumns.of_commands(tuple(kept.pop("commands")))

    @classmethod
    def _of_columns(cls, num_cores: int, columns: ProgramColumns) -> "Program":
        program = cls.__new__(cls)
        program.__dict__.update(num_cores=num_cores, _columns=columns)
        return program

    def placed_on(self, cores: Tuple[int, ...], num_cores: int) -> "Program":
        """A view of this program on an ``num_cores``-core machine, core
        ``i`` renamed to ``cores[i]``.  Nothing is checked here:
        :func:`repro.sim.multitenant.place_program` checks the map."""
        placed = Program.__new__(Program)
        placed.__dict__.update(num_cores=num_cores, _placement=Placement(self, cores))
        return placed

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes the instance lacks: a program
        # builds its commands from its columns on first read.
        if name != "commands":
            raise AttributeError(f"'Program' object has no attribute {name!r}")
        cols = self.columns()
        commands = self.__dict__["commands"] = tuple(
            map(
                Command, cols.cid, cols.core, cols.kind, cols.deps,
                cols.num_bytes, cols.macs, cols.cycles, cols.layer, cols.tag,
            )
        )
        return commands

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self.num_cores == other.num_cores and self.columns() == other.columns()

    def columns(self) -> ProgramColumns:
        """One list per command field, indexed by position.  Made once
        and kept; its readers treat every list as read-only."""
        kept = self.__dict__
        columns = kept.get("_columns")
        if columns is None:
            source, cores = kept["_placement"]
            cols = source.columns()
            columns = kept["_columns"] = cols._replace(core=[cores[c] for c in cols.core])
        return columns

    def placement(self) -> Optional[Placement]:
        """What this program is a placed view of; ``None`` for any other
        program."""
        return self.__dict__.get("_placement")

    def command(self, cid: int) -> Command:
        return self.commands[cid]

    def __len__(self) -> int:
        kept = self.__dict__
        columns = kept.get("_columns")
        return len(columns.cid) if columns is not None else len(kept["_placement"].source)

    def groups(self) -> Dict[Tuple[str, int, CommandKind], List[int]]:
        """The positions of each (layer, core, kind), in program order.

        Keys are in order of first appearance.  Made once per program
        and kept, like :meth:`engine_queues`; the race, liveness and
        halo passes read it, and none writes to it.
        """
        groups = self.__dict__.get("_groups")
        if groups is None:
            cols = self.columns()
            groups = {}
            for pos, key in enumerate(zip(cols.layer, cols.core, cols.kind)):
                members = groups.get(key)
                if members is None:
                    groups[key] = [pos]
                else:
                    members.append(pos)
            self.__dict__["_groups"] = groups
        return groups

    def engine_queues(self) -> EngineQueues:
        """The per-(core, engine) hardware queues, by command position.

        The one derivation of engine-queue order, made once per program
        and shared: the simulator's plan on every machine, the
        happens-before relation, the structure pass's cycle search, the
        longest-path sweeps, perflint and the trace cross-check all read
        the same lists, and none writes to them.  A placed view's queues
        are its source's with each key's core renamed: an injective
        renaming keeps the partition and its order, so every other list
        is shared.
        """
        queues = self.__dict__.get("_engine_queues")
        if queues is not None:
            return queues
        placement = self.placement()
        if placement is not None:
            source, cores = placement
            queues = source.engine_queues()
            queues = queues._replace(keys=[(cores[c], engine) for c, engine in queues.keys])
            self.__dict__["_engine_queues"] = queues
            return queues
        cols = self.columns()
        qid_of_key: Dict[Tuple[int, Engine], int] = {}
        members: List[List[int]] = []
        qid_of: List[int] = []
        prev: List[int] = []
        for pos, key in enumerate(zip(cols.core, cols.engine)):
            qid = qid_of_key.get(key)
            if qid is None:
                qid = qid_of_key[key] = len(members)
                members.append([pos])
                prev.append(-1)
            else:
                queue = members[qid]
                prev.append(queue[-1])
                queue.append(pos)
            qid_of.append(qid)
        queues = EngineQueues(list(qid_of_key), members, qid_of, prev)
        self.__dict__["_engine_queues"] = queues
        return queues

    def structure(self) -> "PassResult":
        """The structure pass's verdict on this program
        (:func:`repro.verify.structure.check_structure`), computed once
        and kept; its readers treat it as read-only."""
        verdict = self.__dict__.get("_structure")
        if verdict is None:
            # repro.verify imports this module: import it at call time.
            from repro.verify.structure import check_structure

            verdict = self.__dict__["_structure"] = check_structure(self)
        return verdict

    def validate(self) -> None:
        """Raise ``ValueError`` if the simulator's plan would refuse this.

        The structure pass is the one definition of a well-formed
        program; the message names its first finding the plan refuses
        (any error, or a forward dependency).  The verdict is
        :meth:`structure`'s, so a program is checked once however many
        readers validate it.
        """
        from repro.verify.structure import plan_refusal

        refused = plan_refusal(self.structure())
        if refused is not None:
            raise ValueError(str(refused))

    def total_macs(self) -> int:
        return sum(self.columns().macs)

    def total_bytes(self, kinds: Optional[Iterable[CommandKind]] = None) -> int:
        cols = self.columns()
        # A tuple tests membership by identity, hashing nothing.
        wanted = tuple(kinds) if kinds is not None else None
        return sum(
            num_bytes
            for kind, engine, num_bytes in zip(cols.kind, cols.engine, cols.num_bytes)
            if engine in _DMA_ENGINES and (wanted is None or kind in wanted)
        )

    def count(self, kind: CommandKind) -> int:
        return self.columns().kind.count(kind)


def _integer(value: Any, field: str) -> int:
    """``value`` as an ``int``: integers pass (numpy's too), and a
    ``bool`` or any other value is a ``ValueError`` naming ``field``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"field {field!r} must be an int, got {value!r}")


class ProgramBuilder:
    """Incrementally constructs a Program, one column per command field.

    Each :meth:`add` appends the command's fields to the columns and
    returns its id, its position.  Values are taken as given, never
    coerced: ``deps`` entries, ``num_bytes`` and ``macs`` must be
    integers (``bool`` refused), or a ``ValueError`` names the field.
    """

    def __init__(self, num_cores: int) -> None:
        _check_num_cores(num_cores)
        self.num_cores = num_cores
        self._core: List[int] = []
        self._kind: List[CommandKind] = []
        self._engine: List[Engine] = []
        self._deps: List[Tuple[int, ...]] = []
        self._num_bytes: List[int] = []
        self._macs: List[int] = []
        self._cycles: List[float] = []
        self._layer: List[str] = []
        self._tag: List[str] = []
        #: last command id per (core, engine); -1 when none yet.
        self._tails: Dict[Tuple[int, Engine], int] = {}

    def tail(self, core: int, engine: Engine) -> Optional[int]:
        cid = self._tails.get((core, engine), -1)
        return None if cid < 0 else cid

    def frontier(self) -> List[int]:
        """Tails of every engine of every core (barrier dependencies)."""
        return sorted(cid for cid in self._tails.values())

    def add(
        self,
        core: int,
        kind: CommandKind,
        deps: Sequence[int] = (),
        num_bytes: int = 0,
        macs: int = 0,
        cycles: float = 0.0,
        layer: str = "",
        tag: str = "",
    ) -> int:
        cid = len(self._kind)
        engine = kind.engine
        if deps:
            for dep in deps:
                if type(dep) is not int:
                    deps = [_integer(d, "deps") for d in deps]
                    break
            deps = tuple(sorted(set(deps)))
        else:
            deps = ()
        if type(num_bytes) is not int:
            num_bytes = _integer(num_bytes, "num_bytes")
        if type(macs) is not int:
            macs = _integer(macs, "macs")
        self._core.append(core)
        self._kind.append(kind)
        self._engine.append(engine)
        self._deps.append(deps)
        self._num_bytes.append(num_bytes)
        self._macs.append(macs)
        self._cycles.append(float(cycles))
        self._layer.append(layer)
        self._tag.append(tag)
        self._tails[core, engine] = cid
        return cid

    def barrier(self, cycles: float, layer: str = "", tag: str = "") -> List[int]:
        """Emit a global barrier: one CTRL command per core.

        Every barrier command depends on the current frontier of all
        cores, so each completes only after every core has arrived; the
        fixed ``cycles`` models the driver/firmware round trip.
        """
        frontier = self.frontier()
        cids = []
        for core in range(self.num_cores):
            cids.append(
                self.add(
                    core,
                    CommandKind.BARRIER,
                    deps=frontier,
                    cycles=cycles,
                    layer=layer,
                    tag=tag,
                )
            )
        return cids

    def build(self) -> Program:
        """The program of every command added so far, made from copies
        of the columns (the builder can go on adding)."""
        columns = ProgramColumns(
            range(len(self._kind)),
            *map(
                list,
                (
                    self._core, self._kind, self._engine, self._deps, self._num_bytes,
                    self._macs, self._cycles, self._layer, self._tag,
                ),
            ),
        )
        program = Program._of_columns(self.num_cores, columns)
        # The verdict stays on the program: the plan, placement and the
        # verifier reuse it.
        program.validate()
        return program
