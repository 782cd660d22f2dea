"""Latency prediction backed by the fingerprint-keyed program cache.

The serving scheduler needs two things per (model, core group): the
program to launch, and a latency estimate to rank and pack requests.
Both come from one place -- compilation goes through
:class:`repro.compiler.cache.ProgramCache`, so every distinct
(model, core group) pair compiles exactly once per server no matter how
many requests ride on it, a request launches that compile placed on its
cores, and the prediction is its isolated simulated latency on the
group.  Simulation results are not memoized here: they go through the
shared :mod:`repro.sim.memo` layer, so a prediction made by one policy
(or one server) is a cache hit for every other consumer of the same
(program, machine, seed) triple.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from repro.compiler.cache import ProgramCache, compile_cached
from repro.compiler.compiler import CompiledModel
from repro.compiler.options import CompileOptions
from repro.compiler.program import Program
from repro.hw.config import NPUConfig
from repro.ir.graph import Graph
from repro.models import resolve_model
from repro.sim import memo as memo_mod
from repro.sim.memo import USE_DEFAULT_MEMO, SimMemo
from repro.sim.multitenant import inject_wave, place_program, sub_machine
from repro.sim.session import SimSession
from repro.sim.simulator import SimResult, simulate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.bounds import BoundsReport

#: one wave's shape: ((model, core group), ...) -- request identities
#: erased, so equal shapes share placed programs and estimates.
WavePattern = Tuple[Tuple[str, Tuple[int, ...]], ...]


class LatencyPredictor:
    """Compile-and-estimate service for the serving policies.

    One instance owns a :class:`ProgramCache` and points at a
    :class:`~repro.sim.memo.SimMemo` (the process default unless given
    a private one); all serving policies of one server share it so
    their predictions (and therefore their decisions) are deterministic
    and cheap.
    """

    def __init__(
        self,
        npu: NPUConfig,
        options: Optional[CompileOptions] = None,
        cache: Optional[ProgramCache] = None,
        seed: int = 0,
        memo: Optional[SimMemo] = USE_DEFAULT_MEMO,  # type: ignore[assignment]
    ) -> None:
        self.npu = npu
        self.options = options or CompileOptions.stratum_config()
        self.cache = cache if cache is not None else ProgramCache()
        self.seed = seed
        if memo is USE_DEFAULT_MEMO:
            memo = memo_mod.default_memo()
        self.memo = memo
        self.all_cores: Tuple[int, ...] = tuple(range(npu.num_cores))
        self._graphs: Dict[str, Graph] = {}
        self._compiled: Dict[Tuple[str, Tuple[int, ...]], CompiledModel] = {}
        self._placed: Dict[Tuple[str, Tuple[int, ...]], Program] = {}

    def _resolve_cores(self, cores: Optional[Sequence[int]]) -> Tuple[int, ...]:
        """Default ``None`` to the whole machine; reject empty groups
        and groups that name a core twice.

        ``None`` means "whole machine"; an *empty* group is a policy
        bug (it used to fall through ``cores or self.all_cores`` and
        silently compile -- and predict -- for the full machine), and a
        repeated core would compile for more cores than the group has.
        """
        if cores is None:
            return self.all_cores
        if 0 < len(cores) == len(set(cores)):
            return tuple(cores)
        from repro.serve.policies import PolicyError

        if not cores:
            raise PolicyError("empty core group: cannot compile or predict for zero cores")
        raise PolicyError(f"core group {tuple(cores)} names a core twice")

    @staticmethod
    def _check_disjoint(pattern: WavePattern) -> None:
        """Reject a wave whose groups overlap: its requests cannot run
        at once, and the composed wave floor would be unsound."""
        cores = [c for _, group in pattern for c in group]
        if len(set(cores)) != len(cores):
            from repro.serve.policies import PolicyError

            raise PolicyError(f"wave {pattern} assigns a core to two requests")

    def graph(self, model: str) -> Graph:
        g = self._graphs.get(model)
        if g is None:
            g = resolve_model(model)
            self._graphs[model] = g
        return g

    def machine_for(self, cores: Tuple[int, ...]) -> NPUConfig:
        """The machine a request compiled on ``cores`` sees.

        The sub-machine's name depends only on the core set, so compile
        fingerprints -- and with them the program cache -- are stable
        across requests and waves.
        """
        if cores == self.all_cores:
            return self.npu
        return sub_machine(self.npu, cores, "g" + "-".join(str(c) for c in cores))

    def options_for(self, cores: Tuple[int, ...]) -> CompileOptions:
        if len(cores) == 1:
            return CompileOptions.single_core()
        return self.options

    def compiled_for(
        self, model: str, cores: Optional[Tuple[int, ...]] = None
    ) -> CompiledModel:
        """Compile ``model`` for a core group, through the cache.

        A predictor's graphs and options are fixed, so (model, cores)
        determines the compile: repeats skip the cache's graph
        fingerprint.
        """
        cores = self._resolve_cores(cores)
        if (model, cores) not in self._compiled:
            self._compiled[model, cores] = compile_cached(
                self.graph(model),
                self.machine_for(cores),
                self.options_for(cores),
                cache=self.cache,
            )
        return self._compiled[model, cores]

    def placed_for(self, model: str, cores: Optional[Tuple[int, ...]] = None) -> Program:
        """``model`` compiled for a core group and placed on those cores
        of the full machine: what a request on the group runs.

        One placed program per (model, cores), shared by every wave.  It
        is a view of the compiled program
        (:func:`~repro.sim.multitenant.place_program`), checked through
        the compiled program's structure verdict, and serving never
        builds its commands: it runs on the compiled program's plan on
        the group (the one :meth:`isolated_run` builds, the same
        object), and its memo fingerprint derives from the compiled
        program's.
        """
        cores = self._resolve_cores(cores)
        if (model, cores) not in self._placed:
            program = self.compiled_for(model, cores).program
            self._placed[model, cores] = place_program(program, cores, self.npu.num_cores)
        return self._placed[model, cores]

    def isolated_run(
        self, model: str, cores: Optional[Tuple[int, ...]] = None
    ) -> SimResult:
        """The model's isolated simulation on its group (memoized in
        the shared simulation-result cache)."""
        cores = self._resolve_cores(cores)
        machine = self.machine_for(cores)
        compiled = self.compiled_for(model, cores)
        return simulate(compiled.program, machine, seed=self.seed, memo=self.memo)

    def predicted_latency_us(
        self, model: str, cores: Optional[Tuple[int, ...]] = None
    ) -> float:
        """Predicted service latency of ``model`` on ``cores``."""
        return self.isolated_run(model, cores).latency_us

    def slo_of(self, slo_scale: float) -> Optional[Callable[[str], float]]:
        """The per-model SLO closure every serving loop shares.

        A request's SLO is ``slo_scale`` times its model's isolated
        whole-machine latency; ``slo_scale <= 0`` disables SLOs
        (``None``).  This used to be copy-pasted in four serving loops,
        which is exactly how fleet devices would have drifted on SLO
        derivation -- one definition, one number.
        """
        if slo_scale <= 0:
            return None
        return lambda m: slo_scale * self.predicted_latency_us(m)

    def wave_latency_us(self, pattern: WavePattern) -> float:
        """Measured latency of one wave shape, bus contention included.

        Isolated per-request estimates miss cross-group bus contention,
        which on a shared-DRAM machine can nearly double a wave (three
        single-core InceptionV3s take ~1.75x their isolated latency).
        Injecting the wave's placed programs into one fresh session at
        one instant and taking the last completion gives packing
        decisions the number that actually matters.  Memoized in the
        shared cache per (placed programs in slot order, machine, seed).
        """
        self._check_disjoint(pattern)
        programs = [self.placed_for(model, cores) for model, cores in pattern]
        key = memo_mod.wave_key(programs, self.npu, self.seed)
        makespan = self.memo.get(key) if self.memo is not None else None
        if makespan is None:
            session = SimSession(self.npu, memo=None)
            inject_wave(session, programs, at_us=0.0, seed=self.seed)
            outcomes = session.run_until(stop_on_completion=False)
            makespan = max(out.completed_at_cycles for out in outcomes)
            if self.memo is not None:
                self.memo.put(key, makespan)
        return self.npu.cycles_to_us(makespan)

    # ---- static bounds fast path -----------------------------------

    def bound(
        self, model: str, cores: Optional[Tuple[int, ...]] = None
    ) -> "BoundsReport":
        """The model's analytic latency bracket on its group.

        No simulation: two longest-path sweeps over the compiled
        program (:func:`repro.verify.bounds.bounds_for`, cached per
        program x machine), so policies can pre-screen candidates
        orders of magnitude cheaper than :meth:`isolated_run`.
        """
        from repro.verify.bounds import bounds_for

        cores = self._resolve_cores(cores)
        compiled = self.compiled_for(model, cores)
        return bounds_for(compiled.program, self.machine_for(cores))

    def bound_us(
        self, model: str, cores: Optional[Tuple[int, ...]] = None
    ) -> Tuple[float, float]:
        """``(lower, upper)`` latency bracket of ``model`` in microseconds."""
        report = self.bound(model, cores)
        return (report.lower_bound_us, report.upper_bound_us)

    def wave_floor_us(self, pattern: WavePattern) -> float:
        """Analytic lower bound on one wave's latency, in microseconds.

        Composed from the requests' cached :meth:`bound` reports, with
        no wave program and no simulation.  On disjoint groups the wave
        lasts at least as long as its longest critical path and its
        largest engine-serial work, and the bus must carry every
        request's bytes (the sum of their bus floors), so a wave whose
        *optimistic* throughput already loses to the incumbent can be
        rejected without simulating it.
        """
        self._check_disjoint(pattern)
        reports = [self.bound(model, cores) for model, cores in pattern]
        floor = max(
            max(r.critical_path_cycles for r in reports),
            max(r.engine_serial_cycles for r in reports),
            sum(r.bus_floor_cycles for r in reports),
        )
        return self.npu.cycles_to_us(floor)
