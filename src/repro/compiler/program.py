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


_ENGINE_OF_KIND = {
    CommandKind.LOAD_INPUT: Engine.LOAD,
    CommandKind.LOAD_WEIGHT: Engine.LOAD,
    CommandKind.HALO_RECV: Engine.LOAD,
    CommandKind.COMPUTE: Engine.COMPUTE,
    CommandKind.STORE_OUTPUT: Engine.STORE,
    CommandKind.HALO_SEND: Engine.STORE,
    CommandKind.BARRIER: Engine.CTRL,
}


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
        object.__setattr__(self, "engine", _ENGINE_OF_KIND[self.kind])

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


class Placement(NamedTuple):
    """What a placed program is a view of (:meth:`Program.placed_on`)."""

    #: the program that was placed
    source: "Program"
    #: physical core of each source core
    cores: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class Program:
    """An executable command set for an ``num_cores``-core NPU.

    A program is a value: ``commands`` is a tuple (any sequence is
    accepted) and neither field can be rebound.  Each view derived from
    it -- the structure verdict, the engine queues, the simulator's
    per-machine plans, the memo fingerprint -- is therefore computed at
    most once and kept on the program with no validity check.  Programs
    compare by content and are not hashable.

    A program :meth:`placed_on` physical cores is a view of its source:
    it builds its commands only when something reads them.
    """

    num_cores: int
    commands: Tuple[Command, ...] = dataclasses.field(default_factory=tuple)

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "commands", tuple(self.commands))

    def placed_on(self, cores: Tuple[int, ...], num_cores: int) -> "Program":
        """A view of this program on an ``num_cores``-core machine, core
        ``i`` renamed to ``cores[i]``.  Nothing is checked here:
        :func:`repro.sim.multitenant.place_program` checks the map."""
        placed = Program.__new__(Program)
        placed.__dict__.update(num_cores=num_cores, _placement=Placement(self, cores))
        return placed

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes the instance lacks: a placed view
        # builds its commands on first read, from its source's.
        placement = self.__dict__.get("_placement")
        if name != "commands" or placement is None:
            raise AttributeError(f"'Program' object has no attribute {name!r}")
        cores = placement.cores
        commands = self.__dict__["commands"] = tuple(
            Command(
                c.cid, cores[c.core], c.kind, c.deps,
                c.num_bytes, c.macs, c.cycles, c.layer, c.tag,
            )
            for c in placement.source.commands
        )
        return commands

    def placement(self) -> Optional[Placement]:
        """What this program is a placed view of; ``None`` for any other
        program."""
        return self.__dict__.get("_placement")

    def command(self, cid: int) -> Command:
        return self.commands[cid]

    def __len__(self) -> int:
        commands = self.__dict__.get("commands")
        if commands is None:  # a placed view, not built yet
            return len(self._placement.source)
        return len(commands)

    def engine_queues(self) -> EngineQueues:
        """The per-(core, engine) hardware queues, by command position.

        The one derivation of engine-queue order, made once per program
        and shared: the simulator's plan on every machine, the
        happens-before relation, the structure pass's cycle search, the
        longest-path sweeps, perflint and the trace cross-check all read
        the same lists, and none writes to them.
        """
        queues = self.__dict__.get("_engine_queues")
        if queues is not None:
            return queues
        qid_of_key: Dict[Tuple[int, Engine], int] = {}
        members: List[List[int]] = []
        qid_of: List[int] = []
        prev: List[int] = []
        for pos, cmd in enumerate(self.commands):
            key = (cmd.core, cmd.engine)
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
        return sum(c.macs for c in self.commands)

    def total_bytes(self, kinds: Optional[Iterable[CommandKind]] = None) -> int:
        wanted = set(kinds) if kinds is not None else None
        return sum(
            c.num_bytes
            for c in self.commands
            if c.is_dma and (wanted is None or c.kind in wanted)
        )

    def core_bytes(self, core: int) -> int:
        return sum(c.num_bytes for c in self.commands if c.core == core and c.is_dma)

    def count(self, kind: CommandKind) -> int:
        return sum(1 for c in self.commands if c.kind is kind)


class ProgramBuilder:
    """Incrementally constructs a Program, tracking engine tails."""

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self._commands: List[Command] = []
        #: last command id per (core, engine); -1 when none yet.
        self._tails: Dict[Tuple[int, Engine], int] = {}

    def _append(self, cmd: Command) -> int:
        self._commands.append(cmd)
        self._tails[(cmd.core, cmd.engine)] = cmd.cid
        return cmd.cid

    def _next_id(self) -> int:
        return len(self._commands)

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
        cmd = Command(
            cid=self._next_id(),
            core=core,
            kind=kind,
            deps=tuple(sorted(set(int(d) for d in deps))),
            num_bytes=int(num_bytes),
            macs=int(macs),
            cycles=float(cycles),
            layer=layer,
            tag=tag,
        )
        return self._append(cmd)

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
        program = Program(num_cores=self.num_cores, commands=tuple(self._commands))
        # The verdict stays on the program: the plan, placement and the
        # verifier reuse it.
        program.validate()
        return program
