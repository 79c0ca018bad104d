"""Span tracer for the traced benchmark run (layer spans, self time).

The tracer times calls into each layer's public functions from the
benchmark's side: :func:`install` swaps every binding listed in
:data:`LAYERS` for a thin wrapper, at the name the *caller* resolves
(``repro.cubeminer.algorithm.height_set_closed``, not the defining
module, because modules import names directly), and
:meth:`Installation.undo` puts the originals back.  Nothing inside
``src/`` changes.

Self time is attributed on one global timeline.  Every span entry or
exit, in any thread, first charges the time since the previous boundary
to the innermost open span of each thread (split evenly when several
threads are busy at once; a span of a *waiting* layer only gets time
while no other thread is busy).  In a single thread that is exactly "the
span's duration minus the time its child spans cover"; across the
daemon's threads it keeps self times disjoint, so the layers' self
times plus ``other`` add up to the traced wall time.

A CubeMiner pass opens millions of spans, so spans are aggregated in
memory as they close: calls and self time per ``(layer, function)``,
inclusive time per ``(layer, parent layer)``.  The aggregate is written
out once, when the run ends.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

#: Layers whose spans only wait on another process (the daemon's event
#: long-poll): they get time only while no other thread works.
WAIT_LAYERS = frozenset({"service.wait"})

#: layer -> [(module, attribute path, kind)].  ``kind`` is "function",
#: "method", "classmethod" or "generator" (timed per item yielded).
LAYERS: dict[str, list[tuple[str, str, str]]] = {
    "cubeminer.cutter": [
        ("repro.cubeminer.algorithm", "build_cutters", "function"),
        ("repro.cubeminer.cutter", "CutterIndex.first_applicable", "method"),
    ],
    "cubeminer.checks": [
        ("repro.cubeminer.algorithm", "height_set_closed", "function"),
        ("repro.cubeminer.algorithm", "row_set_closed", "function"),
    ],
    "core.closure": [
        ("repro.stream.maintain", "close", "function"),
        ("repro.core.closure", "height_support", "function"),
        ("repro.core.closure", "row_support", "function"),
        ("repro.core.closure", "column_support", "function"),
    ],
    "core.dataset": [
        ("repro.core.dataset", "Dataset3D.ones_grid", "method"),
        ("repro.core.dataset", "Dataset3D.with_kernel", "method"),
        ("repro.core.dataset", "Dataset3D.load_npz", "classmethod"),
    ],
    "rsm.slices": [
        ("repro.rsm.algorithm", "iter_size_slices", "generator"),
        ("repro.stream.maintain", "iter_size_slices", "generator"),
    ],
    "fcp": [
        ("repro.fcp.dminer", "DMiner.mine", "method"),
    ],
    "rsm.postprune": [
        ("repro.rsm.algorithm", "height_closed_in", "function"),
        ("repro.stream.maintain", "height_closed_in", "function"),
    ],
    "stream.delta": [
        ("repro.stream.maintain", "apply_deltas", "function"),
        ("repro.stream.delta", "apply_deltas", "function"),
    ],
    "stream.maintain": [
        ("repro.stream.maintain", "maintain", "function"),
    ],
    "parallel.sharding": [
        ("repro.stream.maintain", "merge_shard_results", "function"),
    ],
    "core.result": [
        ("repro.core.result", "MiningResult.to_payload", "method"),
        ("repro.core.result", "MiningResult.from_payload", "classmethod"),
        ("repro.core.result", "MiningResult.to_json", "method"),
        ("repro.core.result", "MiningResult.from_json", "classmethod"),
    ],
    "service.cache": [
        ("repro.service.cache", "ThresholdLatticeCache.lookup", "method"),
        ("repro.service.cache", "ThresholdLatticeCache.put", "method"),
    ],
    "service.jobs": [
        ("repro.service.jobs", "JobManager.submit", "method"),
    ],
    "service.registry": [
        ("repro.service.registry", "DatasetRegistry.register", "method"),
        ("repro.service.registry", "DatasetRegistry.load", "method"),
    ],
    # ServiceApp.handle and the kernel methods are wrapped separately:
    # the router's layer depends on the route, the kernel's class on the
    # backend that resolved.
}

#: Kernel methods reported one by one (the layer total covers all).
KERNEL_METHODS = (
    "grid_supporting_heights",
    "grid_supporting_rows",
    "grid_fold_and",
    "and_many",
    "grid_slice_rows",
    "fold_and",
    "first_applicable_cutter",
)

#: Every kernel method wrapped; nested calls (``intersect_rows`` ->
#: ``grid_fold_rows``) are separate spans.
_ALL_KERNEL_METHODS = KERNEL_METHODS + (
    "fold_or",
    "popcounts",
    "supersets_of",
    "popcount_many",
    "intersect_rows",
    "grid_fold_rows",
    "pack_grid",
    "pack_grid_from_tensor",
    "pack_masks",
    "unpack_masks",
)

#: Every layer the traced run reports, in display order.
ALL_LAYERS = (
    "cubeminer.cutter",
    "cubeminer.checks",
    "core.closure",
    "core.kernels",
    "core.dataset",
    "rsm.slices",
    "fcp",
    "rsm.postprune",
    "stream.delta",
    "stream.maintain",
    "parallel.sharding",
    "core.result",
    "service.cache",
    "service.jobs",
    "service.registry",
    "service.app",
    "service.wait",
)


class Tracer:
    """In-memory span aggregation on one global, thread-aware timeline."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: dict[int, list] = {}
        self._last = time.perf_counter()
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.inclusive_s: dict[tuple[str, str], float] = defaultdict(float)
        #: Counts taken at the same boundaries (patterns found, hits, ...).
        self.counts: dict[str, int] = defaultdict(int)
        #: Result payloads built while tracing; sized after the pass so
        #: their JSON encoding lands in no span.
        self.payloads: list = []

    def _advance(self, now: float) -> None:
        elapsed = now - self._last
        self._last = now
        tops = [stack[-1] for stack in self._stacks.values() if stack]
        if not tops:
            return
        busy = [frame for frame in tops if frame[0] not in WAIT_LAYERS]
        chosen = busy or tops
        share = elapsed / len(chosen)
        for frame in chosen:
            frame[3] += share

    def enter(self, layer: str, name: str) -> None:
        tid = threading.get_ident()
        with self._lock:
            now = time.perf_counter()
            self._advance(now)
            # [layer, function, entered at, self seconds so far]
            self._stacks.setdefault(tid, []).append([layer, name, now, 0.0])

    def exit(self) -> None:
        tid = threading.get_ident()
        with self._lock:
            now = time.perf_counter()
            self._advance(now)
            stack = self._stacks[tid]
            layer, name, entered, own = stack.pop()
            parent = stack[-1][0] if stack else ""
            if not stack:
                del self._stacks[tid]
            self.calls[(layer, name)] += 1
            self.self_s[(layer, name)] += own
            self.inclusive_s[(layer, parent)] += now - entered

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self seconds)`` summed over its functions."""
        totals = {layer: [0, 0.0] for layer in ALL_LAYERS}
        for (layer, name), calls in self.calls.items():
            totals[layer][0] += calls
            totals[layer][1] += self.self_s[(layer, name)]
        return {layer: (calls, seconds) for layer, (calls, seconds) in totals.items()}

    def child_time(self, parent: str, layers: tuple[str, ...]) -> float:
        """Inclusive seconds of ``layers`` spans opened directly under ``parent``."""
        return sum(
            seconds
            for (layer, par), seconds in self.inclusive_s.items()
            if par == parent and layer in layers
        )

    def spans(self) -> dict:
        """The aggregated spans, JSON-ready."""
        return {
            "functions": [
                {
                    "layer": layer,
                    "function": name,
                    "calls": calls,
                    "self_s": self.self_s[(layer, name)],
                }
                for (layer, name), calls in sorted(self.calls.items())
            ],
            "edges": [
                {"layer": layer, "parent": parent or None, "inclusive_s": seconds}
                for (layer, parent), seconds in sorted(self.inclusive_s.items())
            ],
        }


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_function(tracer: Tracer, layer: str, name: str, fn, on_result=None):
    enter, exit_ = tracer.enter, tracer.exit

    def traced(*args, **kwargs):
        enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if on_result is not None:
            on_result(result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tracer: Tracer, layer: str, name: str, fn):
    enter, exit_ = tracer.enter, tracer.exit

    def traced(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            enter(layer, name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                exit_()
            yield item

    traced.__wrapped__ = fn
    return traced


def _result_hook(tracer: Tracer, layer: str, name: str):
    """Counts read off a layer call's return value, or ``None``."""
    if layer == "fcp":
        def patterns(found):
            tracer.count("fcp.patterns", len(found))
            if found:
                tracer.count("fcp.productive_calls")
        return patterns
    if layer == "rsm.postprune":
        def kept(closed):
            if closed:
                tracer.count("rsm.postprune.kept")
        return kept
    if name.endswith("ThresholdLatticeCache.lookup"):
        def answered(answer):
            tracer.count("service.cache.hits" if answer is not None else "service.cache.misses")
        return answered
    if name.endswith("MiningResult.to_payload"):
        return tracer.payloads.append
    if name.endswith("MiningResult.to_json"):
        def encoded(text):
            tracer.count("core.result.bytes", len(text))
        return encoded
    return None


def route_of(method: str, path: str) -> tuple[str, str]:
    """``(layer, route)`` of one daemon request; ids become ``{id}``."""
    parts = [
        "{id}" if len(part) >= 12 and all(c in "0123456789abcdef" for c in part) else part
        for part in path.split("/")
    ]
    route = f"{method} {'/'.join(parts)}"
    return ("service.wait" if route.endswith("/events") else "service.app"), route


_ABSENT = object()


class Installation:
    """The patches :func:`install` applied; :meth:`undo` restores them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__.get(attribute, _ABSENT)))
        setattr(owner, attribute, value)

    def undo(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def install(tracer: Tracer, kernel) -> Installation:
    """Wrap every binding of :data:`LAYERS`, ``kernel``'s class and the router."""
    done = Installation()
    for layer, bindings in LAYERS.items():
        for module, attribute, kind in bindings:
            owner = importlib.import_module(module)
            *classes, leaf = attribute.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            raw = owner.__dict__[leaf]
            name = f"{module}.{attribute}"
            hook = _result_hook(tracer, layer, name)
            if kind == "classmethod":
                wrapped = classmethod(_wrap_function(tracer, layer, name, raw.__func__, hook))
            elif kind == "generator":
                wrapped = _wrap_generator(tracer, layer, name, raw)
            else:
                wrapped = _wrap_function(tracer, layer, name, raw, hook)
            done.set(owner, leaf, wrapped)

    kernel_class = type(kernel)
    for method in _ALL_KERNEL_METHODS:
        raw = getattr(kernel_class, method, None)
        if raw is not None:
            done.set(kernel_class, method, _wrap_function(tracer, "core.kernels", method, raw))

    from repro.service.app import ServiceApp

    handle = ServiceApp.handle

    def traced_handle(self, request):
        tracer.enter(*route_of(request.method, request.path))
        try:
            return handle(self, request)
        finally:
            tracer.exit()

    done.set(ServiceApp, "handle", traced_handle)
    return done
