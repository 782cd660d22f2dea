"""Compilation options -- the paper's cumulative configurations (Table 3).

``Base`` partitions layers adaptively (h1-h5), schedules them with
Algorithm 1 and pipelines tiles within each core.  ``+Halo`` additionally
exchanges borderline data core-to-core (with the halo-first tile policy)
and forwards feature maps in the SPM.  ``+Stratum`` additionally fuses
eligible layer runs into synchronization-free strata (Algorithm 2).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.partition.direction import PartitionDirection, PartitionPolicy
from repro.partition.heuristics import ALL_HEURISTICS

#: Direction-override values a candidate may pin a layer to.
DIRECTION_OVERRIDE_VALUES = ("spatial", "channel", "none")


class ScheduleStrategy(enum.Enum):
    """Layer-ordering strategy (Figure 6).

    ``ALGORITHM1`` is the paper's hybrid: follow the consumer of a
    spatially partitioned layer (data reuse), take a sibling otherwise
    (extend the span between synchronization points).  The pure
    strategies exist for the Figure 8 comparison.
    """

    ALGORITHM1 = "algorithm1"
    DEPTH_FIRST = "depth-first"
    BREADTH_FIRST = "breadth-first"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclasses.dataclass(frozen=True)
class CompileOptions:
    """Switches for the optimization pipeline."""

    partition_policy: PartitionPolicy = PartitionPolicy.ADAPTIVE
    enabled_heuristics: FrozenSet[str] = ALL_HEURISTICS
    schedule_strategy: ScheduleStrategy = ScheduleStrategy.ALGORITHM1
    #: Exchange halo data directly between cores for adjacent spatial pairs.
    halo_exchange: bool = False
    #: Schedule halo-producing tiles first within a sub-layer.
    halo_first: bool = False
    #: Keep producer outputs resident in SPM for the immediately following
    #: consumer (feature-map forwarding).
    feature_map_forwarding: bool = False
    #: Build strata (Algorithm 2) and run them sync- and store-free.
    stratum: bool = False
    #: Count the eliminated store/load round trip in h8's gain estimate.
    stratum_roundtrip_gain: bool = True
    #: Run the static program verifier (:mod:`repro.verify`) on the
    #: compiled program and raise ``VerificationError`` on any error.
    verify: bool = False
    #: Per-layer partition-direction pins, ``(layer, direction)`` pairs
    #: with direction one of :data:`DIRECTION_OVERRIDE_VALUES`.  Layers
    #: not listed keep the policy/heuristic choice; an infeasible pin
    #: falls back to it too.  This is the autotuner's first knob axis
    #: (:mod:`repro.compiler.autotune`); the tuples are canonicalized
    #: (sorted, duplicate-free) so equality, hashing and the compile
    #: fingerprint all agree on the same candidate.
    direction_overrides: Tuple[Tuple[str, str], ...] = ()
    #: Per-layer pipeline-depth pins, ``(layer, num_tiles >= 1)`` pairs
    #: replacing the tiler's fixed ``PIPELINE_TILES`` target for that
    #: layer.  SPM feasibility still dominates: the tiler only ever
    #: *raises* the count to fit double buffers (the knob can never
    #: produce an over-capacity plan).  Second autotuner knob axis.
    tile_overrides: Tuple[Tuple[str, int], ...] = ()
    #: Layers barred from joining any stratum: the Algorithm 2
    #: accumulation seals at (and never extends onto) these layers,
    #: giving a per-layer escape hatch from the h6-h8 membership
    #: decision.  Third autotuner knob axis.
    stratum_blocks: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Canonicalize the override tuples so two equal candidates are
        # one dataclass value (equality == hash == fingerprint) and two
        # *distinct* candidates can never collapse to one cache entry.
        object.__setattr__(
            self,
            "direction_overrides",
            _canonical_pairs(self.direction_overrides, "direction_overrides"),
        )
        object.__setattr__(
            self,
            "tile_overrides",
            _canonical_pairs(self.tile_overrides, "tile_overrides"),
        )
        blocks = tuple(sorted(set(self.stratum_blocks)))
        object.__setattr__(self, "stratum_blocks", blocks)
        for layer, direction in self.direction_overrides:
            if direction not in DIRECTION_OVERRIDE_VALUES:
                raise ValueError(
                    f"direction override for {layer!r} must be one of "
                    f"{DIRECTION_OVERRIDE_VALUES}, got {direction!r}"
                )
        for layer, tiles in self.tile_overrides:
            if not isinstance(tiles, int) or tiles < 1:
                raise ValueError(
                    f"tile override for {layer!r} must be a positive "
                    f"integer, got {tiles!r}"
                )

    @classmethod
    def base(cls, policy: PartitionPolicy = PartitionPolicy.ADAPTIVE) -> "CompileOptions":
        """The paper's Base configuration."""
        return cls(partition_policy=policy)

    @classmethod
    def halo(cls, policy: PartitionPolicy = PartitionPolicy.ADAPTIVE) -> "CompileOptions":
        """The paper's +Halo configuration (Table 3): halo-exchange plus
        the halo-first tile policy, cumulative on Base.

        Feature-map forwarding rides along where the SPM allows it, per
        the paper's Table 5 note ("halo exchange can have more chances of
        feature-map forwarding"); disable with ``without_forwarding()``
        for the bare-exchange ablation.
        """
        return cls(
            partition_policy=policy,
            halo_exchange=True,
            halo_first=True,
            feature_map_forwarding=True,
        )

    @classmethod
    def stratum_config(
        cls, policy: PartitionPolicy = PartitionPolicy.ADAPTIVE
    ) -> "CompileOptions":
        """The paper's +Stratum configuration (cumulative on +Halo).

        Strata forward feature maps internally through SPM ring buffers;
        outside strata the +Halo machinery (including forwarding) applies.
        """
        return cls(
            partition_policy=policy,
            halo_exchange=True,
            halo_first=True,
            feature_map_forwarding=True,
            stratum=True,
        )

    @classmethod
    def stratum_only(
        cls, policy: PartitionPolicy = PartitionPolicy.ADAPTIVE
    ) -> "CompileOptions":
        """Strata without halo-exchange (Table 5's '+Stratum only' row)."""
        return cls(
            partition_policy=policy,
            halo_exchange=False,
            halo_first=False,
            feature_map_forwarding=True,
            stratum=True,
        )

    def with_forwarding(self) -> "CompileOptions":
        """Enable SPM feature-map forwarding on top of this configuration."""
        return dataclasses.replace(self, feature_map_forwarding=True)

    def without_forwarding(self) -> "CompileOptions":
        """Disable feature-map forwarding (bare halo-exchange ablation)."""
        return dataclasses.replace(self, feature_map_forwarding=False)

    @classmethod
    def single_core(cls) -> "CompileOptions":
        """The 1-core baseline."""
        return cls(partition_policy=PartitionPolicy.SINGLE_CORE)

    @property
    def is_single_core(self) -> bool:
        """True when this configuration is the paper's 1-core baseline.

        Runners use this predicate -- not the display ``label`` -- to
        decide whether to shrink the machine to one core, so a custom
        configuration that happens to be labelled "1-core" (or a
        relabelled single-core one) is dispatched by what it *is* rather
        than by what it is called.
        """
        return self.partition_policy is PartitionPolicy.SINGLE_CORE

    @property
    def label(self) -> str:
        if self.is_single_core:
            return "1-core"
        if self.stratum and self.halo_exchange:
            return "+Stratum"
        if self.stratum:
            return "+Stratum-only"
        if self.halo_exchange:
            return "+Halo"
        return "Base"

    # ------------------------------------------------------ override access

    def direction_override_map(self) -> Dict[str, PartitionDirection]:
        """The direction pins as a layer -> direction mapping."""
        return {
            layer: PartitionDirection(value)
            for layer, value in self.direction_overrides
        }

    def tile_override_map(self) -> Dict[str, int]:
        """The pipeline-depth pins as a layer -> tile-count mapping."""
        return dict(self.tile_overrides)

    def stratum_block_set(self) -> FrozenSet[str]:
        """Layers barred from stratum membership, as a set."""
        return frozenset(self.stratum_blocks)

    def with_overrides(
        self,
        directions: Optional[Mapping[str, str]] = None,
        tiles: Optional[Mapping[str, int]] = None,
        blocks: Optional[Iterable[str]] = None,
    ) -> "CompileOptions":
        """This configuration with the given per-layer knob pins.

        Replaces (not merges) each override axis that is passed; axes
        left ``None`` keep their current pins.
        """
        return dataclasses.replace(
            self,
            direction_overrides=(
                tuple(directions.items())
                if directions is not None
                else self.direction_overrides
            ),
            tile_overrides=(
                tuple(tiles.items()) if tiles is not None else self.tile_overrides
            ),
            stratum_blocks=(
                tuple(blocks) if blocks is not None else self.stratum_blocks
            ),
        )


def _canonical_pairs(
    pairs: Iterable[Tuple[str, object]], field: str
) -> Tuple[Tuple[str, object], ...]:
    """Sorted, duplicate-free ``(layer, value)`` pairs.

    One layer may carry at most one value: conflicting duplicates would
    otherwise make two *different* candidates compare (and hash, and
    fingerprint) unequal while compiling identically -- or worse, leave
    the effective value dependent on iteration order.
    """
    canonical = sorted(set(tuple(pairs)))
    seen: Dict[str, object] = {}
    for layer, value in canonical:
        if layer in seen and seen[layer] != value:
            raise ValueError(
                f"conflicting {field} for layer {layer!r}: "
                f"{seen[layer]!r} vs {value!r}"
            )
        seen[layer] = value
    return tuple(canonical)
