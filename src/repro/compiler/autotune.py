"""Design-space exploration over the compiler's per-layer knobs.

The paper's compiler fixes every scheduling decision with heuristics:
h1-h5 pick each layer's partition direction, the tiler targets a fixed
pipeline depth, and h6-h8 decide stratum membership analytically.
Stream-style DSE (see PAPERS.md) searches exactly this space instead --
and with the repo's infrastructure the search is both *cheap* and
*safe*:

* cheap -- compilation is memoized by content fingerprint
  (:class:`~repro.compiler.cache.ProgramCache`) and simulation by
  :class:`~repro.sim.memo.SimMemo`, so revisited candidates cost a hash
  lookup, and two option sets that lower to the same program share one
  simulation;
* safe -- every candidate is statically checked by :mod:`repro.verify`
  before it may be simulated, so an aggressive search cannot crown a
  broken schedule;
* pruned soundly -- the analytic lower bound of
  :mod:`repro.verify.bounds` (``lb <= sim``) discards candidates that
  provably cannot beat the incumbent *before* paying for a simulation,
  mirroring the decision-preserving pre-screen of the serving
  dynamic policy: since the winner only updates on strict improvement,
  a candidate with ``lb >= best`` can never be the winner.

A *candidate* is simply a :class:`~repro.compiler.options.CompileOptions`
value: the base configuration plus per-layer ``direction_overrides``,
``tile_overrides`` and ``stratum_blocks`` pins.  Candidates are hashable
and content-fingerprinted, so the search, the compile cache and the
simulation memo all agree on identity.

Search strategies are pluggable through the small
:class:`SearchStrategy` protocol; shipped strategies are ``grid`` (a
fixed single-knob sweep -- the decision-preservation reference),
``beam`` (mutation beam search), ``anneal`` (simulated-annealing
refinement) and the default ``beam+anneal`` pipeline.  Everything is
deterministic per ``seed``: the proposal stream comes from a seeded
``random.Random``, all tie-breaks are lexicographic, and the fitness of
a candidate is its simulated makespan at that same seed.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.compiler.cache import ProgramCache, options_fingerprint
from repro.compiler.compiler import CompiledModel
from repro.compiler.options import CompileOptions
from repro.hw.config import NPUConfig
from repro.ir.graph import Graph
from repro.partition.direction import PartitionDirection
from repro.partition.heuristics import channel_feasible, spatial_feasible
from repro.sim.memo import SimMemo

#: Sentinel knob value meaning "keep the heuristic decision".
AUTO = "auto"

#: Pipeline-depth choices of the tile knob (besides ``AUTO``).
TILE_CHOICES: Tuple[int, ...] = (1, 2, 8)


# --------------------------------------------------------------- search space


@dataclasses.dataclass(frozen=True)
class Knob:
    """One searchable decision: a layer axis plus its legal values.

    ``choices`` never contains the heuristic default (``AUTO`` / an
    unblocked stratum layer): setting a knob back to its default is
    expressed by *removing* the override, so the all-defaults candidate
    is exactly the h1-h8 baseline.
    """

    kind: str  # 'direction' | 'tile' | 'stratum'
    layer: str
    choices: Tuple[object, ...]


@dataclasses.dataclass(frozen=True)
class SearchSpace:
    """The knob grid of one (model, machine, base configuration) triple."""

    model: str
    base: CompileOptions
    knobs: Tuple[Knob, ...]

    # ------------------------------------------------------ candidate algebra

    def knob_value(self, options: CompileOptions, knob: Knob) -> object:
        """The knob's current value in ``options`` (or ``AUTO``)."""
        if knob.kind == "direction":
            return dict(options.direction_overrides).get(knob.layer, AUTO)
        if knob.kind == "tile":
            return dict(options.tile_overrides).get(knob.layer, AUTO)
        if knob.kind == "stratum":
            return knob.layer in options.stratum_blocks
        raise ValueError(f"unknown knob kind {knob.kind!r}")

    def set_knob(
        self, options: CompileOptions, knob: Knob, value: object
    ) -> CompileOptions:
        """``options`` with one knob changed (``AUTO``/False removes it)."""
        if knob.kind == "direction":
            pins = dict(options.direction_overrides)
            if value == AUTO:
                pins.pop(knob.layer, None)
            else:
                pins[knob.layer] = str(value)
            return dataclasses.replace(
                options, direction_overrides=tuple(pins.items())
            )
        if knob.kind == "tile":
            tiles = dict(options.tile_overrides)
            if value == AUTO:
                tiles.pop(knob.layer, None)
            else:
                tiles[knob.layer] = int(value)  # type: ignore[call-overload]
            return dataclasses.replace(options, tile_overrides=tuple(tiles.items()))
        if knob.kind == "stratum":
            blocks = set(options.stratum_blocks)
            if value:
                blocks.add(knob.layer)
            else:
                blocks.discard(knob.layer)
            return dataclasses.replace(options, stratum_blocks=tuple(blocks))
        raise ValueError(f"unknown knob kind {knob.kind!r}")

    def mutate(
        self, options: CompileOptions, rng: random.Random
    ) -> CompileOptions:
        """One random knob moved to a random *different* value.

        The reverse move (back to ``AUTO`` / unblocked) is always in the
        value set, so the walk can undo any pin it made.
        """
        knob = self.knobs[rng.randrange(len(self.knobs))]
        current = self.knob_value(options, knob)
        if knob.kind == "stratum":
            return self.set_knob(options, knob, not current)
        values = [AUTO, *knob.choices]
        values = [v for v in values if v != current]
        return self.set_knob(options, knob, values[rng.randrange(len(values))])


def build_space(
    graph: Graph,
    npu: NPUConfig,
    options: CompileOptions,
    baseline: CompiledModel,
    tile_choices: Sequence[int] = TILE_CHOICES,
) -> SearchSpace:
    """Enumerate the knob grid around the heuristic compile.

    * direction knobs: every layer with at least one *feasible*
      alternative to the heuristic choice (``spatial`` / ``channel``
      filtered by op support and alignment; ``none`` -- whole layer on
      the fastest core -- is always feasible);
    * tile knobs: every layer that computes (pipeline depth 1, 2 or 8
      against the tiler's fixed default of 4-when-beneficial);
    * stratum knobs: each layer of a baseline stratum may be blocked
      (only meaningful under ``options.stratum``; blocking a layer that
      h6-h8 never fused would be dead weight in the space).
    """
    knobs: List[Knob] = []
    multicore = (
        npu.num_cores > 1 and not options.is_single_core
    )
    for layer in graph.layers():
        if layer.is_input:
            continue
        if multicore:
            current = baseline.partition.direction(layer.name)
            alternatives: List[object] = []
            for direction, feasible in (
                (PartitionDirection.SPATIAL, spatial_feasible(layer, npu)),
                (PartitionDirection.CHANNEL, channel_feasible(layer, npu)),
                (PartitionDirection.NONE, True),
            ):
                if feasible and direction is not current:
                    alternatives.append(direction.value)
            if alternatives:
                knobs.append(Knob("direction", layer.name, tuple(alternatives)))
        if layer.macs(None) > 0 or layer.op.weight_elements() > 0:
            knobs.append(Knob("tile", layer.name, tuple(tile_choices)))
    if options.stratum:
        for name in sorted(baseline.strata.membership):
            knobs.append(Knob("stratum", name, (True,)))
    return SearchSpace(model=graph.name, base=options, knobs=tuple(knobs))


# ------------------------------------------------------------------ evaluator


class BudgetExhausted(Exception):
    """Raised by :meth:`Evaluator.evaluate` when the budget is spent."""


@dataclasses.dataclass
class EvalRecord:
    """One evaluated candidate, in evaluation order."""

    index: int
    fingerprint: str
    status: str  # 'ok' | 'verify-reject' | 'pruned' | 'compile-error'
    latency_us: Optional[float]
    lower_bound_us: Optional[float]
    best_us: Optional[float]
    num_overrides: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "fingerprint": self.fingerprint[:12],
            "status": self.status,
            "latency_us": self.latency_us,
            "lower_bound_us": self.lower_bound_us,
            "best_us": self.best_us,
            "num_overrides": self.num_overrides,
        }


class Evaluator:
    """Fitness function: compile -> verify -> bound-prune -> simulate.

    Budget accounting: each *distinct* candidate that reaches the
    pipeline consumes one evaluation, whatever its fate (verify-reject,
    bound-prune, simulation).  Re-evaluating a candidate the search has
    already seen is served from a local table and is free -- that is the
    memoized-DSE regime the memo layer exists for.  ``evaluate`` raises
    :class:`BudgetExhausted` once ``budget`` fresh candidates were paid
    for.
    """

    def __init__(
        self,
        graph: Graph,
        npu: NPUConfig,
        budget: int,
        seed: int,
        cache: Optional[ProgramCache] = None,
        memo: Optional[SimMemo] = None,
        prune: bool = True,
        verify_passes: Optional[Sequence[str]] = None,
    ) -> None:
        if budget < 1:
            raise ValueError("budget must be at least 1")
        self.graph = graph
        self.npu = npu
        self.budget = budget
        self.seed = seed
        self.cache = cache if cache is not None else ProgramCache(
            max_entries=max(64, budget + 8)
        )
        self.memo = memo if memo is not None else SimMemo(
            max_entries=max(64, budget + 8), store_on_first_miss=True
        )
        self.prune = prune
        self.verify_passes = tuple(verify_passes) if verify_passes else None
        self.trajectory: List[EvalRecord] = []
        self._table: Dict[str, Optional[float]] = {}
        self.best_options: Optional[CompileOptions] = None
        self.best_latency_us: Optional[float] = None
        self.best_fingerprint: Optional[str] = None
        self.evaluations = 0
        self.simulations = 0
        self.verify_rejects = 0
        self.bound_prunes = 0
        self.compile_errors = 0
        self.repeat_hits = 0

    # ------------------------------------------------------------- pipeline

    def evaluate(self, options: CompileOptions) -> Optional[float]:
        """Fitness of one candidate; ``None`` when rejected or pruned."""
        fingerprint = options_fingerprint(options)
        if fingerprint in self._table:
            self.repeat_hits += 1
            return self._table[fingerprint]
        if self.evaluations >= self.budget:
            raise BudgetExhausted(
                f"{self.evaluations} evaluations spent of {self.budget}"
            )
        self.evaluations += 1
        index = self.evaluations
        num_overrides = (
            len(options.direction_overrides)
            + len(options.tile_overrides)
            + len(options.stratum_blocks)
        )

        def record(
            status: str,
            latency: Optional[float] = None,
            lb: Optional[float] = None,
        ) -> Optional[float]:
            self._table[fingerprint] = latency
            self.trajectory.append(
                EvalRecord(
                    index=index,
                    fingerprint=fingerprint,
                    status=status,
                    latency_us=latency,
                    lower_bound_us=lb,
                    best_us=self.best_latency_us,
                    num_overrides=num_overrides,
                )
            )
            return latency

        try:
            compiled = self.cache.compile(self.graph, self.npu, options)
        except ValueError:
            # A pin drove the lowering somewhere infeasible (e.g. banding
            # cannot split); the candidate simply leaves the space.
            self.compile_errors += 1
            return record("compile-error")

        # Gate: no candidate is simulated -- let alone crowned -- unless
        # the static verifier accepts its command stream.
        from repro.verify import verify_model

        report = verify_model(compiled, passes=self.verify_passes)
        if not report.ok:
            self.verify_rejects += 1
            return record("verify-reject")

        # Sound prune: lb <= any simulated makespan, and the winner only
        # updates on *strict* improvement, so lb >= best implies this
        # candidate cannot become the winner.  Decision-preserving by
        # the same argument as the dynamic policy's wave pre-screen.
        from repro.verify.bounds import bounds_for

        bounds = bounds_for(compiled.program, self.npu)
        lb_us = bounds.lower_bound_us
        if (
            self.prune
            and self.best_latency_us is not None
            and lb_us >= self.best_latency_us
        ):
            self.bound_prunes += 1
            return record("pruned", lb=lb_us)

        from repro.sim import simulate

        result = simulate(
            compiled.program, self.npu, seed=self.seed, memo=self.memo
        )
        self.simulations += 1
        latency_us = self.npu.cycles_to_us(result.makespan_cycles)
        if self.best_latency_us is None or latency_us < self.best_latency_us:
            self.best_options = options
            self.best_latency_us = latency_us
            self.best_fingerprint = fingerprint
        return record("ok", latency=latency_us, lb=lb_us)

    @property
    def exhausted(self) -> bool:
        return self.evaluations >= self.budget


# ------------------------------------------------------------------ strategies


class SearchStrategy(Protocol):
    """A search procedure over one knob space.

    Implementations call ``evaluator.evaluate(candidate)`` at will and
    return when they are done; :class:`BudgetExhausted` is caught by the
    driver, so running straight into the budget is a normal way to
    finish.  All randomness must come from ``rng`` (determinism per
    seed) and all iteration orders must be stable.
    """

    name: str

    def search(
        self, space: SearchSpace, evaluator: Evaluator, rng: random.Random
    ) -> None: ...  # pragma: no cover - protocol


class GridStrategy:
    """Fixed single-knob sweep: every knob, every value, one at a time.

    The proposal list depends only on the space -- never on observed
    fitness -- which makes this the reference strategy for the
    decision-preservation property of bound pruning: with pruning on or
    off, the same candidates are proposed and the same winner is
    crowned.
    """

    name = "grid"

    def search(
        self, space: SearchSpace, evaluator: Evaluator, rng: random.Random
    ) -> None:
        for knob in space.knobs:
            values: Tuple[object, ...] = (
                (True,) if knob.kind == "stratum" else knob.choices
            )
            for value in values:
                evaluator.evaluate(space.set_knob(space.base, knob, value))


class BeamStrategy:
    """Mutation beam search from the heuristic baseline.

    Keeps the ``width`` best simulated candidates; each round proposes
    ``branch`` single-knob mutations of every beam member, re-ranks and
    stops after ``patience`` rounds without improvement.  Combinations
    of single-knob wins emerge as mutations stack across rounds.
    """

    name = "beam"

    def __init__(
        self, width: int = 4, branch: int = 6, patience: int = 3
    ) -> None:
        self.width = width
        self.branch = branch
        self.patience = patience

    def search(
        self, space: SearchSpace, evaluator: Evaluator, rng: random.Random
    ) -> None:
        assert evaluator.best_latency_us is not None, "baseline must be seeded"
        beam: List[Tuple[float, str, CompileOptions]] = [
            (evaluator.best_latency_us, "", space.base)
        ]
        stale = 0
        while stale < self.patience and not evaluator.exhausted:
            best_before = evaluator.best_latency_us
            pool = dict((fp, (lat, opt)) for lat, fp, opt in beam)
            for _, _, member in list(beam):
                for _ in range(self.branch):
                    candidate = space.mutate(member, rng)
                    latency = evaluator.evaluate(candidate)
                    if latency is not None:
                        pool[options_fingerprint(candidate)] = (latency, candidate)
            ranked = sorted(
                (lat, fp, opt) for fp, (lat, opt) in pool.items()
            )
            beam = ranked[: self.width]
            stale = 0 if evaluator.best_latency_us < best_before else stale + 1


class AnnealStrategy:
    """Simulated-annealing refinement around the incumbent.

    Starts from the best candidate found so far (the baseline when run
    alone), walks single-knob mutations, always accepts improvements
    and accepts regressions with probability ``exp(-delta/T)``; ``T``
    starts at ``temperature`` times the baseline latency and cools
    geometrically per proposal.  Rejected/pruned candidates never enter
    the walk.
    """

    name = "anneal"

    def __init__(
        self,
        temperature: float = 0.02,
        cooling: float = 0.97,
        proposals: Optional[int] = None,
    ) -> None:
        self.temperature = temperature
        self.cooling = cooling
        self.proposals = proposals

    def search(
        self, space: SearchSpace, evaluator: Evaluator, rng: random.Random
    ) -> None:
        assert evaluator.best_latency_us is not None, "baseline must be seeded"
        current = (
            evaluator.best_options
            if evaluator.best_options is not None
            else space.base
        )
        current_latency = evaluator.best_latency_us
        temp = self.temperature * current_latency
        remaining = (
            self.proposals
            if self.proposals is not None
            else max(0, evaluator.budget - evaluator.evaluations)
        )
        for _ in range(remaining):
            if evaluator.exhausted:
                break
            candidate = space.mutate(current, rng)
            latency = evaluator.evaluate(candidate)
            if latency is not None:
                delta = latency - current_latency
                if delta < 0 or (
                    temp > 0 and rng.random() < math.exp(-delta / temp)
                ):
                    current, current_latency = candidate, latency
            temp *= self.cooling


class BeamAnnealStrategy:
    """The default pipeline: beam search, then annealing refinement.

    The beam spends ``beam_fraction`` of the budget mapping the space's
    coarse structure; annealing then perturbs the incumbent with the
    rest, escaping the beam's greedy ranking.
    """

    name = "beam+anneal"

    def __init__(self, beam_fraction: float = 0.65) -> None:
        if not 0.0 < beam_fraction < 1.0:
            raise ValueError("beam_fraction must be in (0, 1)")
        self.beam_fraction = beam_fraction

    def search(
        self, space: SearchSpace, evaluator: Evaluator, rng: random.Random
    ) -> None:
        beam_budget = max(1, int(evaluator.budget * self.beam_fraction))
        try:
            # Cap the beam phase by masquerading a smaller budget; the
            # evaluator's counters are global so the cap composes.
            real_budget = evaluator.budget
            evaluator.budget = min(real_budget, beam_budget)
            BeamStrategy().search(space, evaluator, rng)
        except BudgetExhausted:
            pass
        finally:
            evaluator.budget = real_budget
        AnnealStrategy().search(space, evaluator, rng)


#: Registered strategies for the CLI / bench (name -> factory).
STRATEGIES: Dict[str, Callable[[], SearchStrategy]] = {
    "grid": GridStrategy,
    "beam": BeamStrategy,
    "anneal": AnnealStrategy,
    "beam+anneal": BeamAnnealStrategy,
}


# --------------------------------------------------------------------- report


@dataclasses.dataclass
class AutotuneReport:
    """Everything one autotune run decided and measured."""

    model: str
    machine: str
    config: str
    strategy: str
    seed: int
    budget: int
    num_knobs: int
    baseline_latency_us: float
    best_latency_us: float
    baseline_fingerprint: str
    best_fingerprint: str
    evaluations: int
    simulations: int
    verify_rejects: int
    bound_prunes: int
    compile_errors: int
    repeat_hits: int
    memo_hits: int
    memo_misses: int
    cache_hits: int
    cache_misses: int
    trajectory: List[EvalRecord]
    best_overrides: Dict[str, object]
    #: live objects for downstream consumers (CLI diff, tests); not
    #: serialized.
    base_options: CompileOptions = dataclasses.field(repr=False)
    best_options: CompileOptions = dataclasses.field(repr=False)

    @property
    def speedup(self) -> float:
        """Baseline / winner latency; >= 1.0 by construction."""
        if self.best_latency_us <= 0.0:
            return 1.0
        return self.baseline_latency_us / self.best_latency_us

    @property
    def improved(self) -> bool:
        """True when the winner strictly beats the h1-h8 baseline."""
        return self.best_latency_us < self.baseline_latency_us

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    def to_dict(self, include_trajectory: bool = True) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "model": self.model,
            "machine": self.machine,
            "config": self.config,
            "strategy": self.strategy,
            "seed": self.seed,
            "budget": self.budget,
            "num_knobs": self.num_knobs,
            "baseline_latency_us": self.baseline_latency_us,
            "best_latency_us": self.best_latency_us,
            "speedup": self.speedup,
            "improved": self.improved,
            "baseline_fingerprint": self.baseline_fingerprint[:12],
            "best_fingerprint": self.best_fingerprint[:12],
            "evaluations": self.evaluations,
            "simulations": self.simulations,
            "verify_rejects": self.verify_rejects,
            "bound_prunes": self.bound_prunes,
            "compile_errors": self.compile_errors,
            "repeat_hits": self.repeat_hits,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_hit_rate": self.memo_hit_rate,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "best_overrides": self.best_overrides,
        }
        if include_trajectory:
            payload["trajectory"] = [r.to_dict() for r in self.trajectory]
        return payload


def _overrides_summary(options: CompileOptions) -> Dict[str, object]:
    return {
        "directions": dict(options.direction_overrides),
        "tiles": dict(options.tile_overrides),
        "stratum_blocks": list(options.stratum_blocks),
    }


# --------------------------------------------------------------------- driver


def autotune(
    graph: Graph,
    npu: NPUConfig,
    options: Optional[CompileOptions] = None,
    strategy: str | SearchStrategy = "beam+anneal",
    budget: int = 64,
    seed: int = 0,
    cache: Optional[ProgramCache] = None,
    memo: Optional[SimMemo] = None,
    prune: bool = True,
    verify_passes: Optional[Sequence[str]] = None,
    tile_choices: Sequence[int] = TILE_CHOICES,
) -> AutotuneReport:
    """Search the per-layer knob space of ``graph`` on ``npu``.

    ``options`` is the base configuration the space is built around (the
    paper's +Stratum by default); the heuristic compile of exactly these
    options is evaluation #1 and the incumbent the search must strictly
    beat.  ``budget`` caps distinct candidate evaluations, ``seed``
    drives both the proposal stream and the simulator jitter, and the
    whole run is bit-reproducible per seed.

    ``strategy`` is a name from :data:`STRATEGIES` or any object
    implementing :class:`SearchStrategy`.  ``prune=False`` disables the
    lower-bound pre-screen (used by the decision-preservation tests).
    """
    options = options or CompileOptions.stratum_config()
    if options.is_single_core:
        raise ValueError("autotune needs a multi-core configuration to search")
    if isinstance(strategy, str):
        try:
            search = STRATEGIES[strategy]()
        except KeyError:
            raise ValueError(
                f"unknown strategy {strategy!r}; known: {sorted(STRATEGIES)}"
            ) from None
    else:
        search = strategy

    evaluator = Evaluator(
        graph,
        npu,
        budget=budget,
        seed=seed,
        cache=cache,
        memo=memo,
        prune=prune,
        verify_passes=verify_passes,
    )
    # Every candidate compiles inside one decision scope: they share
    # receptive fields, and candidates with equal direction pins share
    # one partition.
    with graph.decision_scope():
        # Evaluation #1: the h1-h8 baseline itself.  It must verify
        # cleanly (the zoo does) and becomes the incumbent every
        # candidate races.
        baseline_latency = evaluator.evaluate(options)
        if baseline_latency is None:
            raise ValueError(
                f"baseline configuration {options.label!r} failed "
                "verification; nothing to search against"
            )
        baseline_compiled = evaluator.cache.compile(graph, npu, options)
        space = build_space(
            graph, npu, options, baseline_compiled, tile_choices=tile_choices
        )

        rng = random.Random(seed)
        try:
            search.search(space, evaluator, rng)
        except BudgetExhausted:
            pass

    assert evaluator.best_options is not None  # the baseline seeded it
    assert evaluator.best_latency_us is not None
    assert evaluator.best_fingerprint is not None
    return AutotuneReport(
        model=graph.name,
        machine=npu.name,
        config=options.label,
        strategy=getattr(search, "name", type(search).__name__),
        seed=seed,
        budget=budget,
        num_knobs=len(space.knobs),
        baseline_latency_us=baseline_latency,
        best_latency_us=evaluator.best_latency_us,
        baseline_fingerprint=options_fingerprint(options),
        best_fingerprint=evaluator.best_fingerprint,
        evaluations=evaluator.evaluations,
        simulations=evaluator.simulations,
        verify_rejects=evaluator.verify_rejects,
        bound_prunes=evaluator.bound_prunes,
        compile_errors=evaluator.compile_errors,
        repeat_hits=evaluator.repeat_hits,
        memo_hits=evaluator.memo.hits,
        memo_misses=evaluator.memo.misses,
        cache_hits=evaluator.cache.hits,
        cache_misses=evaluator.cache.misses,
        trajectory=evaluator.trajectory,
        best_overrides=_overrides_summary(evaluator.best_options),
        base_options=options,
        best_options=evaluator.best_options,
    )
