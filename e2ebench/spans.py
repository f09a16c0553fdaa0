"""Spans around the calls into each ``repro`` layer, for the traced run.

A :class:`Tracer` replaces a layer's public functions with wrappers
that record one span per call: its name, start, end, the span that was
open when it started (its parent) and the current unit id.  Spans stay
in memory and are written out when the process ends; the benchmark
folds them into per-layer figures with :func:`layer_totals`.

A span's *self time* is its duration minus the part of that interval
its child spans cover (:func:`self_times`).  Interpreter garbage
collection is timed separately through ``gc.callbacks``.

Forked campaign workers inherit the wrappers.  :meth:`Tracer.follow_forks`
clears each child's copy of the parent's spans and writes the child's
own spans to the same directory when the worker exits normally.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import marshal
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One span: ``(name, start, end, parent index or -1, unit id or None)``.
Span = Tuple[str, float, float, int, Optional[str]]

#: Span name -> ``(module, attribute path)`` of the public function it
#: wraps.  A dotted attribute path names a method on a class.
LAYER_FUNCTIONS: Dict[str, Tuple[str, str]] = {
    "population.run": ("repro.population.engine", "PopulationEngine.run"),
    "runner.execute_unit": ("repro.runner.parallel", "execute_unit"),
    "runner.journal_append": ("repro.runner.journal", "Journal.append"),
    "isps.build_world": ("repro.isps.world", "build_world"),
    "netsim.dijkstra": ("networkx", "single_source_dijkstra_path_length"),
    "netsim.run": ("repro.netsim.engine", "Network.run"),
    "middlebox.process": ("repro.middlebox.interceptive",
                          "InterceptiveMiddlebox.process"),
    "middlebox.on_copy": ("repro.middlebox.wiretap",
                          "WiretapMiddlebox.on_copy"),
    "httpsim.fetch": ("repro.httpsim.client", "http_fetch"),
    "dnssim.lookup": ("repro.dnssim.client", "dns_lookup"),
    "dnssim.answer": ("repro.dnssim.resolver", "ResolverService.answer"),
    "measure.express_http": ("repro.core.measure.fastprobe",
                             "express_http_probe"),
    "measure.express_dns": ("repro.core.measure.fastprobe",
                            "express_dns_probe"),
    "measure.web_connectivity": ("repro.core.measure.ooni",
                                 "web_connectivity"),
    "measure.trace": ("repro.core.measure.tracer", "http_iterative_trace"),
    "websites.page_response": ("repro.websites.content", "page_response"),
    "obs.collect_metrics": ("repro.obs.metrics", "collect_world_metrics"),
}

#: Span name given to every experiment unit function.
UNIT_SPAN = "experiments.unit"


class Tracer:
    """Records spans in memory for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.unit: Optional[str] = None
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._stack: List[int] = []
        self._gc_start: Optional[float] = None
        self._out_dir: Optional[str] = None

    # -- recording -------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             unit_of: Optional[Callable[..., str]] = None) -> Callable:
        """*fn* with a span around every call.

        ``unit_of(*args, **kwargs)``, when given, names the unit the
        call works on; spans inside it carry that unit id.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outer_unit = self.unit
            if unit_of is not None:
                self.unit = unit_of(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.unit)
                self.unit = outer_unit

        return traced

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_seconds += self.clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- installation ----------------------------------------------------

    def install(self, functions: Dict[str, Tuple[str, str]] = LAYER_FUNCTIONS,
                units: bool = True) -> None:
        """Wrap every listed function wherever ``repro`` refers to it,
        wrap every experiment unit when *units* is set, and start
        timing collections.

        Modules imported later pick the wrappers up from the patched
        module attributes; modules already imported are rebound.
        """
        import importlib

        for name, (module_name, path) in functions.items():
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            unit_of = _unit_of_execute if name == "runner.execute_unit" \
                else None
            wrapped = self.wrap(original, name, unit_of)
            setattr(owner, attr, wrapped)
            if owner is module:
                _rebind(original, wrapped)
        if units:
            self._wrap_units()
        gc.callbacks.append(self._on_gc)

    def _wrap_units(self) -> None:
        from repro.experiments import EXPERIMENT_MODULES

        for module in EXPERIMENT_MODULES.values():
            module.units = self._traced_units(module.units)

    def _traced_units(self, units: Callable) -> Callable:
        def traced_units(*args, **kwargs):
            for unit in units(*args, **kwargs):
                yield dataclasses.replace(
                    unit, fn=self.wrap(unit.fn, UNIT_SPAN))
        return traced_units

    # -- output ----------------------------------------------------------

    def follow_forks(self, out_dir: str) -> None:
        """Have forked ``multiprocessing`` children record their own
        spans and write them to *out_dir* when they exit."""
        from multiprocessing import util

        self._out_dir = out_dir
        util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        from multiprocessing import util

        del self.spans[:]
        del self._stack[:]
        self.unit = None
        self.gc_seconds = 0.0
        self.gc_collections = 0
        util.Finalize(self, self.dump, exitpriority=10)

    def dump(self, out_dir: Optional[str] = None) -> str:
        """Write this process's spans; returns the file written."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        out_dir = out_dir or self._out_dir
        path = os.path.join(out_dir, f"spans-{os.getpid()}.marshal")
        with open(path, "wb") as fh:
            marshal.dump({"spans": self.spans,
                          "gc_seconds": self.gc_seconds,
                          "gc_collections": self.gc_collections}, fh)
        return path


def _unit_of_execute(settings, experiment, unit, *args, **kwargs) -> str:
    return f"{experiment}/{unit.name}"


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every ``repro`` module-level name bound to *original* at
    *wrapped* (``from x import f`` copies the reference at import)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def load_dumps(paths: Iterable[str]) -> Tuple[List[List[Span]], float, int]:
    """Read span dumps; returns per-process span lists plus the summed
    collection time and count."""
    processes, gc_seconds, gc_collections = [], 0.0, 0
    for path in paths:
        with open(path, "rb") as fh:
            data = marshal.load(fh)
        processes.append([tuple(span) for span in data["spans"]])
        gc_seconds += data["gc_seconds"]
        gc_collections += data["gc_collections"]
    return processes, gc_seconds, gc_collections


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children count once, so the result never goes below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


@dataclasses.dataclass
class LayerTotal:
    """What the spans of one name add up to."""

    calls: int = 0
    #: Time covered by the outermost spans of this name (a span nested
    #: in a span of the same name adds nothing).
    inclusive: float = 0.0
    self_time: float = 0.0
    durations: List[float] = dataclasses.field(default_factory=list)


def layer_totals(spans: Sequence[Span]) -> Dict[str, LayerTotal]:
    """Fold one process's spans into per-name totals."""
    totals: Dict[str, LayerTotal] = {}
    own = self_times(spans)
    for index, (name, start, end, parent, _) in enumerate(spans):
        total = totals.setdefault(name, LayerTotal())
        total.calls += 1
        total.self_time += own[index]
        total.durations.append(end - start)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total.inclusive += end - start
    return totals


def merge_totals(parts: Iterable[Dict[str, LayerTotal]]
                 ) -> Dict[str, LayerTotal]:
    """Sum per-name totals over processes."""
    merged: Dict[str, LayerTotal] = {}
    for part in parts:
        for name, total in part.items():
            into = merged.setdefault(name, LayerTotal())
            into.calls += total.calls
            into.inclusive += total.inclusive
            into.self_time += total.self_time
            into.durations.extend(total.durations)
    return merged


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
