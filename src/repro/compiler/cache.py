"""Fingerprint-keyed cache of compiled programs.

Every experiment in the paper is a sweep of compile+simulate runs, and a
grid of (model x configuration x seed) points re-compiles the same
(graph, machine, options) triple once per seed.  This module gives each
triple a stable content fingerprint and memoizes :func:`repro.compiler.
compiler.compile_model` on it, so a sweep pays for compilation once per
distinct configuration no matter how many seeds (or repeated benchmark
rounds) ride on top.

Fingerprints are content hashes, not object identities: two structurally
identical graphs built by separate factory calls (the normal case when
sweep workers rebuild zoo models from their names) map to the same key.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Dict, Optional, Tuple

from repro.compiler.compiler import CompiledModel, compile_model
from repro.compiler.options import CompileOptions
from repro.hw.config import NPUConfig
from repro.hw.serialize import machine_fingerprint
from repro.ir.graph import Graph


def _digest(payload: object) -> str:
    """Stable hex digest of any JSON-serializable payload."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_value(field: str, value: object) -> object:
    """A JSON-stable encoding of one ``CompileOptions`` field value.

    Every field must reduce to plain JSON scalars/lists deterministically:
    enums contribute their ``value``, frozensets are sorted (a raw
    ``repr`` of a set depends on iteration order, so two *equal* option
    sets could fingerprint differently -- and the cache would silently
    recompile instead of hitting).  Unknown field types raise so a new
    searchable knob cannot slip into the fingerprint through a lossy
    fallback encoding and alias two distinct candidates to one entry.
    """
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_canonical_value(field, item) for item in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise TypeError(
        f"CompileOptions.{field} holds {type(value).__name__!r}, which has "
        "no canonical fingerprint encoding; teach options_fingerprint "
        "about it explicitly"
    )


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of a graph: layers, operators, wiring, shapes, dtypes.

    Operators are immutable dataclasses, so ``repr`` is a complete and
    stable description of their parameters.
    """
    layers = [
        (
            layer.name,
            repr(layer.op),
            layer.inputs,
            repr(layer.output_shape),
            layer.dtype.value,
        )
        for layer in graph.layers()
    ]
    return _digest([graph.name, layers])


def options_fingerprint(options: CompileOptions) -> str:
    """Content hash of compile options.

    Walks every dataclass field through :func:`_canonical_value`, so the
    fingerprint covers each searchable knob (including the autotuner's
    per-layer ``direction_overrides`` / ``tile_overrides`` /
    ``stratum_blocks``) and distinct option values always yield distinct
    digests; ``tests/compiler/test_options_fingerprint.py`` perturbs
    every field and pins that property.
    """
    payload = {
        field.name: _canonical_value(
            field.name, getattr(options, field.name)
        )
        for field in dataclasses.fields(options)
    }
    return _digest(payload)


def compile_key(graph: Graph, npu: NPUConfig, options: CompileOptions) -> str:
    """The cache key of one (graph, machine, options) compilation."""
    return "-".join(
        (
            graph_fingerprint(graph),
            machine_fingerprint(npu),
            options_fingerprint(options),
        )
    )


class ProgramCache:
    """In-memory memoization of compiled programs by content fingerprint.

    Bounded FIFO: ``max_entries`` caps memory for long-running sweeps
    (a CompiledModel holds the full program and compiler decisions).
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: Dict[str, CompiledModel] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Tuple[int, int]:
        """(hits, misses) since construction."""
        return self.hits, self.misses

    def clear(self) -> None:
        self._entries.clear()

    def get(
        self, graph: Graph, npu: NPUConfig, options: CompileOptions
    ) -> Tuple[str, Optional[CompiledModel]]:
        key = compile_key(graph, npu, options)
        return key, self._entries.get(key)

    def compile(
        self, graph: Graph, npu: NPUConfig, options: CompileOptions
    ) -> CompiledModel:
        """Compile through the cache; hit returns the memoized model."""
        key, cached = self.get(graph, npu, options)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        compiled = compile_model(graph, npu, options)
        if len(self._entries) >= self.max_entries:
            # FIFO eviction: drop the oldest insertion.
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = compiled
        return compiled


#: Process-wide default cache; sweep workers inherit one per process.
_DEFAULT_CACHE = ProgramCache()


def default_cache() -> ProgramCache:
    return _DEFAULT_CACHE


def compile_cached(
    graph: Graph,
    npu: NPUConfig,
    options: Optional[CompileOptions] = None,
    cache: Optional[ProgramCache] = None,
) -> CompiledModel:
    """Drop-in cached variant of :func:`compile_model`.

    Only the plain pipeline is memoized; profile-guided recompilation
    (``weight_overrides``) stays on :func:`compile_model` because its
    input includes measured rates that are not part of the fingerprint.
    """
    options = options or CompileOptions.base()
    cache = cache if cache is not None else _DEFAULT_CACHE
    return cache.compile(graph, npu, options)
