"""SPM capacity pass (RPR310): static working-set audit.

Re-derives, from the emitted command streams, each sub-layer's peak
scratch-pad working set -- resident weights, double-buffered stream
tiles, forwarded inputs kept in place, halo buffers, and a resident
output held for the next layer -- and checks it against the core's SPM
capacity.  This is the independent audit of the promises the allocator
and the tiler made during compilation; a violation means the compiled
program could not actually run on the machine it claims to target.

Stratum members execute tile-interleaved (fused), so their intermediate
tensors occupy ring buffers rather than whole-tensor residents; they are
checked with the same fused-working-set formula the stratum builder uses.

This module absorbed the old ``repro.analysis.memcheck`` audit (the
deprecation shim is gone); :func:`check_spm` wraps it as a verifier pass.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.compiler.program import CommandKind
from repro.cost.memory import aligned_region_bytes
from repro.verify.diagnostics import PassResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compiler import CompiledModel


@dataclasses.dataclass(frozen=True)
class SpmUsage:
    """Peak working set of one sub-layer on one core, in bytes."""

    layer: str
    core: int
    weights: int
    stream_buffers: int
    resident_inputs: int
    resident_output: int
    halo_buffers: int

    @property
    def total(self) -> int:
        return (
            self.weights
            + self.stream_buffers
            + self.resident_inputs
            + self.resident_output
            + self.halo_buffers
        )


@dataclasses.dataclass(frozen=True)
class SpmViolation:
    usage: SpmUsage
    capacity: int

    def __str__(self) -> str:
        return (
            f"{self.usage.layer} on core {self.usage.core}: "
            f"{self.usage.total:,} B > SPM {self.capacity:,} B"
        )


def audit_spm(
    compiled: "CompiledModel", tolerance: float = 1.0
) -> Tuple[List[SpmUsage], List[SpmViolation]]:
    """Compute per-sub-layer SPM usage and capacity violations.

    ``tolerance`` scales the capacity (1.0 = strict); the compiler's
    accounting is tile-granular, so small transients above 1.0x indicate
    modeling slack rather than bugs.  It must be finite and positive:
    NaN or infinity would pass every sub-layer and zero would flag them
    all, so those raise ``ValueError``.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"SPM tolerance must be finite and > 0, got {tolerance!r}")
    program = compiled.program
    npu = compiled.npu
    graph = compiled.graph
    forwarding = compiled.forwarding

    # Gather per (layer, core): weight bytes, max tile load/store bytes.
    # Commands are grouped by weight band (tag "b<band>t<i>" / "w<band>";
    # untagged commands fall into band 0): bands execute sequentially, so
    # only one band's weights and buffers are resident at a time.
    weights: Dict[Tuple[str, int, int], int] = {}
    max_load: Dict[Tuple[str, int, int], int] = {}
    max_store: Dict[Tuple[str, int, int], int] = {}
    n_load: Dict[Tuple[str, int, int], int] = {}
    n_store: Dict[Tuple[str, int, int], int] = {}
    recv: Dict[Tuple[str, int], int] = {}
    bands_of: Dict[Tuple[str, int], set] = {}

    def band_of(tag: str) -> int:
        if tag.startswith("w") and tag[1:].isdigit():
            return int(tag[1:])
        if tag.startswith("b"):
            digits = ""
            for ch in tag[1:]:
                if ch.isdigit():
                    digits += ch
                else:
                    break
            if digits:
                return int(digits)
        return 0

    # Only the sub-layers' loads, stores and halo receives occupy SPM:
    # walk their (layer, core, kind) groups, not every command.
    cols = program.columns()
    sizes, tags = cols.num_bytes, cols.tag
    count: Optional[Dict[Tuple[str, int, int], int]]
    for (layer, core, kind), members in program.groups().items():
        key2 = (layer, core)
        if kind is CommandKind.HALO_RECV:
            recv[key2] = recv.get(key2, 0) + sum(sizes[cid] for cid in members)
            continue
        if kind is CommandKind.LOAD_WEIGHT:
            peak, count = weights, None
        elif kind is CommandKind.LOAD_INPUT:
            peak, count = max_load, n_load
        elif kind is CommandKind.STORE_OUTPUT:
            peak, count = max_store, n_store
        else:
            continue
        bands = bands_of.setdefault(key2, set())
        for cid in members:
            band = band_of(tags[cid])
            bands.add(band)
            key = (layer, core, band)
            peak[key] = max(peak.get(key, 0), sizes[cid])
            if count is not None:
                count[key] = count.get(key, 0) + 1

    usages: List[SpmUsage] = []
    violations: List[SpmViolation] = []
    for name in compiled.schedule:
        layer = graph.layer(name)
        if layer.is_input:
            continue
        in_stratum = compiled.strata.stratum_of(name) is not None
        for core in range(npu.num_cores):
            region = compiled.exec_regions[name][core]
            if region.is_empty:
                continue
            core_cfg = npu.core(core)
            key = (name, core)

            resident_in = 0
            if not in_stratum:
                for i in range(len(layer.inputs)):
                    decision = forwarding.decision(name, i)
                    if decision is not None and decision.mode.is_forwarding:
                        producer_region = compiled.exec_regions[decision.producer][core]
                        resident_in += aligned_region_bytes(
                            producer_region, layer.dtype, core_cfg
                        )
            resident_out = 0
            if name in forwarding.resident_outputs and not in_stratum:
                resident_out = aligned_region_bytes(region, layer.dtype, core_cfg)

            # Peak over the bands that execute sequentially; a stream with
            # a single transfer (input-resident / one-tile plans) occupies
            # one buffer, shared across bands, not a double-buffered pair.
            key2 = (name, core)
            bands = sorted(bands_of.get(key2, {0}))
            total_loads = sum(n_load.get((name, core, b), 0) for b in bands)
            shared_input = 0
            if total_loads == 1:
                shared_input = max(
                    max_load.get((name, core, b), 0) for b in bands
                )
            peak_w = 0
            peak_band = 0
            for b in bands:
                bkey = (name, core, b)
                w = weights.get(bkey, 0)
                ld = 0
                if total_loads != 1:
                    factor = 2 if n_load.get(bkey, 0) > 1 else 1
                    ld = factor * max_load.get(bkey, 0)
                st_factor = 2 if n_store.get(bkey, 0) > 1 else 1
                st = st_factor * max_store.get(bkey, 0)
                if w + ld + st > peak_band:
                    peak_band = w + ld + st
                    peak_w = w
            usage = SpmUsage(
                layer=name,
                core=core,
                weights=peak_w,
                stream_buffers=peak_band - peak_w + shared_input,
                resident_inputs=resident_in,
                resident_output=resident_out,
                halo_buffers=recv.get(key, 0),
            )
            usages.append(usage)
            if usage.total > core_cfg.spm_bytes * tolerance:
                violations.append(
                    SpmViolation(usage=usage, capacity=core_cfg.spm_bytes)
                )
    return usages, violations


def peak_spm_per_core(compiled: "CompiledModel") -> Dict[int, int]:
    """Largest sub-layer working set seen on each core."""
    usages, _ = audit_spm(compiled)
    peaks: Dict[int, int] = {}
    for u in usages:
        peaks[u.core] = max(peaks.get(u.core, 0), u.total)
    return peaks


def check_spm(compiled: "CompiledModel", tolerance: float = 1.0) -> PassResult:
    """Capacity pass: every sub-layer working set fits its core's SPM."""
    result = PassResult(name="spm")
    usages, violations = audit_spm(compiled, tolerance=tolerance)
    for v in violations:
        result.emit(
            "RPR310",
            f"working set {v.usage.total:,} B exceeds SPM capacity "
            f"{v.capacity:,} B (weights {v.usage.weights:,}, streams "
            f"{v.usage.stream_buffers:,}, residents "
            f"{v.usage.resident_inputs + v.usage.resident_output:,}, halo "
            f"{v.usage.halo_buffers:,})",
            layer=v.usage.layer,
            core=v.usage.core,
            hint="the tiler/allocator promised a working set the commands "
            "do not honor; re-tile or drop a forwarding decision",
        )
    result.stats["sublayers"] = len(usages)
    return result
