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
    #: the source's command list at placement, and its length then
    commands: List[Command]
    length: int
    #: physical core of each source core
    cores: Tuple[int, ...]


@dataclasses.dataclass
class Program:
    """An executable command set for an ``num_cores``-core NPU.

    A program :meth:`placed_on` physical cores is a view of its source:
    it builds its command list only when something reads it.
    """

    num_cores: int
    commands: List[Command] = dataclasses.field(default_factory=list)

    def placed_on(self, cores: Tuple[int, ...], num_cores: int) -> "Program":
        """A view of this program on an ``num_cores``-core machine, core
        ``i`` renamed to ``cores[i]``.  Nothing is checked here:
        :func:`repro.sim.multitenant.place_program` checks the map."""
        placed = Program.__new__(Program)
        placed.num_cores = num_cores
        placed.__dict__["_placement"] = Placement(
            self, self.commands, len(self.commands), cores
        )
        return placed

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes the instance lacks: a placed view
        # builds its command list on first read, from the source's list
        # as it was at placement.
        placement = self.__dict__.get("_placement")
        if name != "commands" or placement is None:
            raise AttributeError(f"'Program' object has no attribute {name!r}")
        cores = placement.cores
        commands = [
            Command(
                c.cid, cores[c.core], c.kind, c.deps,
                c.num_bytes, c.macs, c.cycles, c.layer, c.tag,
            )
            for c in placement.commands[: placement.length]
        ]
        self.__dict__["commands"] = self.__dict__["_placed_commands"] = commands
        return commands

    def placement(self) -> Optional[Placement]:
        """What this program is a placed view of, until either command
        list is rebound (same objects, same lengths); ``None`` for any
        other program."""
        placement = self.__dict__.get("_placement")
        if (
            placement is None
            or self.__dict__.get("commands") is not self.__dict__.get("_placed_commands")
            or placement.source.commands is not placement.commands
            or len(placement.commands) != placement.length
        ):
            return None
        return placement

    def command(self, cid: int) -> Command:
        return self.commands[cid]

    def __len__(self) -> int:
        commands = self.__dict__.get("commands")
        if commands is None:  # a placed view, not built yet
            return self._placement.length
        return len(commands)

    def engine_queues(self) -> EngineQueues:
        """The per-(core, engine) hardware queues, by command position.

        The one derivation of engine-queue order: the simulator's plan,
        the happens-before relation, the structure pass's cycle search,
        the longest-path sweeps and the trace cross-check all read it.
        """
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
        return EngineQueues(list(qid_of_key), members, qid_of, prev)

    def structure(self) -> "PassResult":
        """The structure pass's verdict on this program
        (:func:`repro.verify.structure.check_structure`), computed once
        per command list: it is kept while the list is the same object
        of the same length, the plan cache's rule."""
        commands = self.commands
        kept = self.__dict__.get("_structure")
        if kept is not None and kept[0] is commands and kept[1] == len(commands):
            return kept[2]
        # repro.verify imports this module: import it at call time.
        from repro.verify.structure import check_structure

        verdict = check_structure(self)
        self.__dict__["_structure"] = (commands, len(commands), verdict)
        return verdict

    def validate(self) -> None:
        """Raise ``ValueError`` if the simulator's plan would refuse this.

        The structure pass is the one definition of a well-formed
        program; the message names its first finding the plan refuses
        (any error, or a forward dependency).  The verdict is
        :meth:`structure`'s, so a program is checked once per command
        list however many readers validate it.
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
        program = Program(num_cores=self.num_cores, commands=list(self._commands))
        # The verdict stays on the program: the plan and placement reuse it.
        program.validate()
        return program
