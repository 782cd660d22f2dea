"""Layer spans for the traced benchmark run.

A :class:`Tracer` wraps functions at the boundaries between the
package's layers (partitioning, scheduling, lowering, simulation,
serving, ...) for the duration of a traced run, and records one span per
call: id, parent span, job, layer, start and end.  The wrapping lives
here, in the benchmark, so the package itself carries no tracing code;
untraced runs install nothing and pay nothing.

A layer's *self* time is its span's duration minus the time covered by
its child spans, so the per-layer figures of one job add up to the job's
wall time (the job span itself collects everything unattributed under
the layer ``other``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) of every wrapped boundary.  A target
#: the package no longer has is skipped and its layer reads zero.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("graph", "repro.analysis.sweep", "resolve_model"),
    ("compile", "repro.compiler.compiler", "compile_model"),
    ("partition", "repro.partition.partitioner", "partition_graph"),
    ("schedule", "repro.schedule.layer_order", "schedule_layers"),
    ("strata", "repro.schedule.stratum", "build_strata"),
    ("forwarding", "repro.compiler.allocator", "plan_forwarding"),
    ("tiling", "repro.schedule.tiling", "plan_tiles"),
    ("lowering", "repro.compiler.lowering", "lower"),
    ("verify", "repro.verify.verifier", "verify_program"),
    ("verify", "repro.verify.verifier", "verify_model"),
    ("simulate", "repro.sim.simulator", "simulate"),
    ("sim_plan", "repro.sim.simulator", "_plan_for"),
    ("event_loop", "repro.sim.simulator", "_run_flat"),
    ("trace", "repro.sim.simulator", "_derive_columns"),
    ("trace", "repro.sim.simulator", "_finished_columns"),
    ("stats", "repro.sim.stats", "collect_stats"),
    ("merge", "repro.sim.multitenant", "merge_programs"),
    ("bounds", "repro.verify.bounds", "compute_bounds"),
    ("admission", "repro.serve.policies", "SchedulingPolicy.admit"),
    ("session", "repro.sim.session", "SimSession._run"),
)

#: every layer a traced run reports, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES)) + ("other",)

#: fields of one recorded span, in the order they are stored.
SPAN_FIELDS = ("id", "parent", "job", "layer", "start_s", "end_s")


class Tracer:
    """Records nested layer spans while installed; see module docstring."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        #: job -> layer -> self seconds / calls
        self.self_s: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.calls: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: List[List] = []  # [span id, layer, start, child seconds]
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._job: Optional[int] = None

    # ---- installing -------------------------------------------------

    def install(self) -> None:
        for layer, module_name, path in BOUNDARIES:
            self._install_one(layer, module_name, path)

    def _install_one(self, layer: str, module_name: str, path: str) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None)
        if not callable(original):
            return
        wrapper = self._wrap(layer, original)
        if owner is not module:  # a method: patch the defining class only
            self._patch(owner, attr, wrapper)
            return
        # A function: rebind it in every package module that imported it
        # by name, so callers reach the wrapper whatever their import form.
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name.startswith("repro") and getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- recording --------------------------------------------------

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def _enter(self, layer: str) -> None:
        self._stack.append([self._next_id, layer, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, layer, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        parent_id = parent[0] if parent is not None else None
        self.spans.append((sid, parent_id, self._job, layer, start, end))
        if self._job is not None:
            self.self_s[self._job][layer] += duration - child
            self.calls[self._job][layer] += 1

    @contextlib.contextmanager
    def job(self, index: int):
        """The root span of one benchmark job (layer ``other``)."""
        self._job = index
        self._enter("other")
        try:
            yield
        finally:
            self._exit()
            self._job = None

    # ---- output -----------------------------------------------------

    def dump(self, path) -> None:
        """Write every recorded span as JSON, one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": self.spans}))
