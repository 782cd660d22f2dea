"""Stratum invariant pass (RPR4xx).

A stratum (Algorithm 2, Figure 7b) is only a stratum if it truly runs
*without synchronization and without global feature-map traffic* between
its layers: each core recomputes an inflated slice of every interior
tensor precisely so that nothing needs to cross cores or touch DRAM
until the bottom layer.  This pass checks the compiled command stream
against that definition:

* ``RPR401`` -- a barrier is attributed to a non-top stratum member
  (synchronization *inside* the stratum)
* ``RPR402`` -- a non-bottom member stores its output to global memory
* ``RPR403`` -- a non-top member streams an input from global memory
* ``RPR404`` -- halo-exchange commands inside the stratum (non-top
  receive or non-bottom send)

Weight loads are exempt: kernels always stream from DRAM; the paper's
"no global traffic" claim is about feature maps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.compiler.program import CommandKind
from repro.verify.diagnostics import PassResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compiler import CompiledModel


def check_strata(compiled: "CompiledModel") -> PassResult:
    """Check the no-sync / no-global-traffic invariants of every stratum."""
    result = PassResult(name="stratum")
    strata = compiled.strata

    tops = set()
    bottoms = set()
    members = set()
    for stratum in strata.strata:
        names = stratum.layer_names
        tops.add(names[0])
        bottoms.add(names[-1])
        members.update(names)

    result.stats["strata"] = len(strata.strata)
    result.stats["member_layers"] = len(members)
    if not members:
        return result

    cols = compiled.program.columns()
    for cid, (name, core, kind) in enumerate(zip(cols.layer, cols.core, cols.kind)):
        if name not in members:
            continue
        if kind is CommandKind.BARRIER and name not in tops:
            result.emit(
                "RPR401",
                f"barrier #{cid} synchronizes inside a stratum "
                f"(attributed to member {name!r}, which is not the top)",
                layer=name,
                core=core,
                cid=cid,
                hint="strata eliminate synchronization by construction; a "
                "barrier here voids the h8 gain accounting",
            )
        elif kind is CommandKind.STORE_OUTPUT and name not in bottoms:
            result.emit(
                "RPR402",
                f"store #{cid} writes interior stratum tensor {name!r} "
                f"to global memory",
                layer=name,
                core=core,
                cid=cid,
                hint="interior results live in SPM ring buffers; only the "
                "bottom layer stores",
            )
        elif kind is CommandKind.LOAD_INPUT and name not in tops:
            result.emit(
                "RPR403",
                f"load #{cid} streams interior stratum input {name!r} "
                f"from global memory",
                layer=name,
                core=core,
                cid=cid,
                hint="interior inputs are forwarded in SPM; only the top "
                "layer streams from DRAM",
            )
        elif kind is CommandKind.HALO_RECV and name not in tops:
            result.emit(
                "RPR404",
                f"halo receive #{cid} inside a stratum at {name!r}",
                layer=name,
                core=core,
                cid=cid,
                hint="inflation makes interior halos local; an exchange "
                "here means the inflated regions do not cover",
            )
        elif kind is CommandKind.HALO_SEND and name not in bottoms:
            result.emit(
                "RPR404",
                f"halo send #{cid} inside a stratum at {name!r}",
                layer=name,
                core=core,
                cid=cid,
                hint="interior members have their sole consumer in the "
                "stratum; nothing should be exchanged",
            )
    return result
