"""The multi-pass static program verifier.

:func:`verify_model` runs every pass over one :class:`CompiledModel` and
returns a :class:`VerifyReport`.  The passes are independent audits of
the promises the compiler made -- each re-derives its invariant from the
graph, the regions, and the raw command stream rather than trusting the
pipeline stage that was supposed to enforce it:

========== ============================================== =========
pass       invariant                                      codes
========== ============================================== =========
structure  well-formed, deadlock-free command streams     RPR2xx
race       every cross-core read ordered after its write  RPR1xx
liveness   double-buffer phase discipline                 RPR30x
spm        working sets fit the scratch-pad               RPR310
stratum    no sync / no global traffic inside strata      RPR4xx
halo       paired exchanges, exact tile coverage          RPR5xx
========== ============================================== =========

Two opt-in *performance* passes extend the correctness six (select
them explicitly via ``passes`` / ``repro lint --passes``; their
informational and warning diagnostics would otherwise pollute clean
correctness runs):

========== ============================================== =========
bounds     analytic latency bracket lb <= makespan <= ub  RPR7xx
perflint   slow-schedule patterns (imbalance, stalls...)  RPR8xx
========== ============================================== =========

When the structure pass finds a program the simulator's plan refuses
-- any error, or an RPR201 forward-dependency warning, the rule
:meth:`Program.validate` raises on -- the ordering passes (race,
liveness, perflint) and the plan-reading bounds pass are skipped
rather than reporting nonsense on a broken graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.verify.bounds import check_bounds_pass
from repro.verify.diagnostics import PassResult, VerifyReport
from repro.verify.halo_check import check_halo
from repro.verify.hb import HappensBefore
from repro.verify.liveness import check_liveness
from repro.verify.perflint import check_perflint
from repro.verify.races import check_races
from repro.verify.spm import check_spm
from repro.verify.structure import plan_refusal
from repro.verify.stratum_check import check_strata

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compiler import CompiledModel

#: Registered correctness pass names, in execution order (the default set).
PASS_NAMES = ("structure", "race", "liveness", "spm", "stratum", "halo")

#: Opt-in performance passes (never part of the default run).
PERF_PASS_NAMES = ("bounds", "perflint")

#: Every selectable pass.
ALL_PASS_NAMES = PASS_NAMES + PERF_PASS_NAMES


class VerificationError(Exception):
    """Raised by ``compile_model(..., verify=True)`` on a failed report."""

    def __init__(self, report: VerifyReport) -> None:
        self.report = report
        errors = report.errors
        sample = "; ".join(str(d) for d in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"compiled program failed verification with {len(errors)} "
            f"error(s): {sample}{more}"
        )


def verify_program(
    program,
    model: str = "program",
    config: str = "",
    machine: str = "",
) -> VerifyReport:
    """Statically verify a raw :class:`~repro.compiler.program.Program`.

    Programs without compile context (multi-tenant merges, repeated
    frames, serving waves) cannot run the semantic passes, which need
    the graph and the compiler's decisions; the structure pass --
    well-formedness plus the dependency/queue deadlock check -- applies
    to any command stream and is what this entry point reports, as the
    verdict the program keeps (:meth:`Program.structure`).
    """
    report = VerifyReport(model=model, config=config, machine=machine)
    report.passes.append(program.structure())
    return report


def verify_model(
    compiled: "CompiledModel",
    passes: Optional[Sequence[str]] = None,
    spm_tolerance: float = 1.0,
    sim_result=None,
) -> VerifyReport:
    """Statically verify one compiled model.

    ``passes`` selects a subset of :data:`ALL_PASS_NAMES`; the default
    is the correctness set :data:`PASS_NAMES` (the performance passes
    ``bounds`` and ``perflint`` are opt-in).  ``spm_tolerance`` is
    forwarded to the capacity pass; ``sim_result`` (a
    :class:`~repro.sim.simulator.SimResult`) arms the bounds pass's
    makespan cross-check (RPR702/RPR710).  The structure verdict is the
    one the program keeps (:meth:`Program.structure`), so a program the
    builder checked is not checked again.
    """
    selected = tuple(passes) if passes is not None else PASS_NAMES
    unknown = set(selected) - set(ALL_PASS_NAMES)
    if unknown:
        raise ValueError(f"unknown verifier pass(es): {sorted(unknown)}")

    report = VerifyReport(
        model=compiled.graph.name,
        config=compiled.options.label,
        machine=compiled.npu.name,
    )

    structure = compiled.program.structure()
    if "structure" in selected:
        report.passes.append(structure)

    # Program.validate's rule: the plan behind bounds and perflint, and
    # the happens-before relation, need every dependency earlier.
    plan_ok = plan_refusal(structure) is None
    hb = HappensBefore(compiled.program) if plan_ok else None

    for name in ("race", "liveness"):
        if name not in selected:
            continue
        if hb is None:
            report.passes.append(PassResult(name=name, skipped=True))
            continue
        if name == "race":
            report.passes.append(check_races(compiled, hb))
        else:
            report.passes.append(check_liveness(compiled, hb))

    if "spm" in selected:
        report.passes.append(check_spm(compiled, tolerance=spm_tolerance))
    if "stratum" in selected:
        report.passes.append(check_strata(compiled))
    if "halo" in selected:
        report.passes.append(check_halo(compiled))
    if "bounds" in selected:
        if plan_ok:
            report.passes.append(check_bounds_pass(compiled, sim_result=sim_result))
        else:
            report.passes.append(PassResult(name="bounds", skipped=True))
    if "perflint" in selected:
        if hb is None:
            report.passes.append(PassResult(name="perflint", skipped=True))
        else:
            report.passes.append(check_perflint(compiled, hb))
    return report
