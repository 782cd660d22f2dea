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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


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


@dataclasses.dataclass
class Program:
    """An executable command set for an ``num_cores``-core NPU."""

    num_cores: int
    commands: List[Command] = dataclasses.field(default_factory=list)

    def command(self, cid: int) -> Command:
        return self.commands[cid]

    def __len__(self) -> int:
        return len(self.commands)

    def per_engine_queues(self) -> Dict[Tuple[int, Engine], List[Command]]:
        """Commands grouped by (core, engine), preserving program order."""
        queues: Dict[Tuple[int, Engine], List[Command]] = {}
        for cmd in self.commands:
            queues.setdefault((cmd.core, cmd.engine), []).append(cmd)
        return queues

    def validate(self) -> None:
        """Well-formedness: dense ids, forward-only deps, sane payloads.

        Raises ``ValueError`` on the first violation.  The static
        verifier (:mod:`repro.verify`) reports the same family of
        conditions as RPR2xx diagnostics without raising, plus the
        deeper semantic checks.
        """
        n = len(self.commands)
        for i, cmd in enumerate(self.commands):
            if cmd.cid != i:
                raise ValueError(
                    f"command id {cmd.cid} at position {i} "
                    f"(ids must be dense and unique)"
                )
            if not 0 <= cmd.core < self.num_cores:
                raise ValueError(f"{cmd}: bad core index")
            if len(set(cmd.deps)) != len(cmd.deps):
                raise ValueError(f"{cmd}: duplicate dependency entries")
            for dep in cmd.deps:
                if dep == cmd.cid:
                    raise ValueError(f"{cmd}: depends on itself")
                if dep < 0:
                    raise ValueError(f"{cmd}: negative dependency")
                if dep >= n:
                    raise ValueError(f"{cmd}: dangling dependency {dep}")
                if dep > cmd.cid:
                    raise ValueError(f"{cmd}: dependency {dep} is not earlier")
            if cmd.cycles < 0:
                raise ValueError(f"{cmd}: negative cycles")
            if cmd.is_dma:
                if cmd.num_bytes < 0:
                    raise ValueError(f"{cmd}: negative bytes")
                if cmd.macs:
                    raise ValueError(f"{cmd}: DMA command carries MACs")
            elif cmd.kind is CommandKind.COMPUTE:
                if cmd.macs < 0:
                    raise ValueError(f"{cmd}: negative macs")
                if cmd.num_bytes:
                    raise ValueError(f"{cmd}: compute command carries bytes")
            elif cmd.kind is CommandKind.BARRIER:
                if cmd.num_bytes or cmd.macs:
                    raise ValueError(f"{cmd}: barrier carries a payload")

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
        program.validate()
        return program
