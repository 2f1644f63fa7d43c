"""In-memory span recorder for the traced benchmark run.

Spans come only from wrappers this module installs around public entry
points of the ``repro`` package (see :func:`install`); nothing inside
``src/`` is instrumented.  A span records its name, layer, thread,
start, end and parent.  Spans stay in memory and :meth:`Tracer.dump`
writes them out once the run is over.

Self time is a span's duration minus the time its child spans (same
thread) cover; a layer's inclusive time counts its outermost spans in
full, pricing below them included.  Each finished root span keeps the
self and inclusive time of every layer below it, so the run can be
split per operation class, e.g. warm against cold service recommends.

A call whose innermost open span belongs to the same layer is not
recorded separately (``WhatIfOptimizer.workload_cost`` calling
``configuration_cost`` 681 times stays one ``whatif`` span); its time
stays in the enclosing span of that layer.  That keeps the span count,
and the tracing overhead, proportional to layer crossings rather than
to inner-loop calls.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

_ID, _PARENT, _NAME, _LAYER, _START, _CHILD, _ROOT = range(7)


class Tracer:
    """Collects spans, per-root layer self times and named counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        """``(id, parent_id, name, layer, thread, start, end)``."""
        self.roots: list[tuple[dict, float, dict, dict]] = []
        """``(tags, duration, {layer: self s}, {layer: inclusive s})``
        per root span."""
        self.counts: defaultdict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.open = defaultdict(int)
            return self._local.stack

    def _open(self, stack: list, name: str, layer: str, tags) -> list:
        parent = stack[-1] if stack else None
        root = (
            parent[_ROOT]
            if parent
            else (tags or {}, defaultdict(float), defaultdict(float))
        )
        self._local.open[layer] += 1
        frame = [
            next(self._ids),
            parent[_ID] if parent else 0,
            name,
            layer,
            time.perf_counter(),
            0.0,
            root,
        ]
        stack.append(frame)
        return frame

    def _close(self, stack: list, frame: list) -> None:
        end = time.perf_counter()
        stack.pop()
        duration = end - frame[_START]
        tags, layer_self, layer_inclusive = frame[_ROOT]
        layer = frame[_LAYER]
        layer_self[layer] += duration - frame[_CHILD]
        open_spans = self._local.open
        open_spans[layer] -= 1
        if not open_spans[layer]:
            layer_inclusive[layer] += duration
        self.spans.append(
            (
                frame[_ID],
                frame[_PARENT],
                frame[_NAME],
                frame[_LAYER],
                threading.get_ident(),
                frame[_START],
                end,
            )
        )
        if stack:
            stack[-1][_CHILD] += duration
        else:
            self.roots.append(
                (tags, duration, dict(layer_self), dict(layer_inclusive))
            )

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **tags):
        """Record one span around a block (the benchmark's own ops)."""
        stack = self._stack()
        frame = self._open(stack, name, layer, tags)
        try:
            yield frame
        finally:
            self._close(stack, frame)

    def add(self, name: str, value: float = 1.0) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counts[name] += value

    def wrap(
        self, owner, attr: str, name: str, layer: str, probe=None, tags=None
    ):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``probe(args, kwargs)``, when given, runs before the call and
        returns a function that receives the call's result (or
        ``None``), which is how counters are read at the same boundary
        as the span.  ``tags(args, kwargs)`` gives the span's tags when
        it is a root span, e.g. in a service worker thread.
        """
        original = getattr(owner, attr)
        tracer = self
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # Hot path: inner-loop calls of the same layer skip all
            # recording, so keep this check to two attribute reads.
            stack = getattr(local, "stack", None)
            if stack and stack[-1][_LAYER] == layer:
                return original(*args, **kwargs)
            if stack is None:
                stack = tracer._stack()
            finish = probe(args, kwargs) if probe is not None else None
            frame = tracer._open(
                stack,
                name,
                layer,
                None if stack or tags is None else tags(args, kwargs),
            )
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(stack, frame)
            if finish is not None:
                finish(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self) -> dict[str, float]:
        """Self seconds per layer over every root span."""
        totals: defaultdict[str, float] = defaultdict(float)
        for _, _, layer_self, _ in self.roots:
            for layer, seconds in layer_self.items():
                totals[layer] += seconds
        return dict(totals)

    def shares(
        self, select, inclusive: bool = False
    ) -> tuple[int, float, dict[str, float]]:
        """Root count, root seconds and per-layer share of wall time (self
        or inclusive) of the root spans whose tags satisfy ``select``."""
        count = 0
        wall = 0.0
        totals: defaultdict[str, float] = defaultdict(float)
        for tags, duration, *per_layer in self.roots:
            if not select(tags):
                continue
            count += 1
            wall += duration
            for layer, seconds in per_layer[inclusive].items():
                totals[layer] += seconds
        if not wall:
            return count, wall, {}
        return count, wall, {
            layer: seconds / wall for layer, seconds in totals.items()
        }

    def dump(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    ["id", "parent", "name", "layer", "thread", "start", "end"]
                )
                + "\n"
            )
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class NullTracer:
    """The untraced run: op spans cost nothing and record nothing."""

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **tags):
        yield None

    def add(self, name: str, value: float = 1.0) -> None:
        pass


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.advisor as advisor
    import repro.service.daemon as daemon
    from repro.core.extend import ExtendAlgorithm
    from repro.cost.kernel import VectorizedCostSource
    from repro.cost.whatif import WhatIfOptimizer
    from repro.service import AdvisorService

    def swap_probe(args, kwargs):
        optimizer, before = args[1], args[2]
        calls = optimizer.statistics.calls

        def finish(after):
            tracer.add("localsearch.calls")
            tracer.add(
                "localsearch.whatif_calls",
                optimizer.statistics.calls - calls,
            )
            if after.total_cost < before.total_cost:
                tracer.add("localsearch.improved")
            if before.total_cost > 0:
                tracer.add(
                    "localsearch.gain",
                    (before.total_cost - after.total_cost)
                    / before.total_cost,
                )

        return finish

    def report_probe(args, kwargs):
        optimizer = args[1]
        requests = optimizer.statistics.total_requests

        def finish(_):
            tracer.add(
                "report.whatif_requests",
                optimizer.statistics.total_requests - requests,
            )

        return finish

    def extend_probe(args, kwargs):
        algorithm = args[0]

        def finish(_):
            statistics = algorithm.last_evaluation_statistics
            if statistics is None:
                return
            tracer.add("evaluation.evaluations", statistics.evaluations)
            tracer.add("evaluation.reused", statistics.reused)
            tracer.add("evaluation.warm_hits", statistics.warm_hits)
            tracer.add("evaluation.warm_misses", statistics.warm_misses)

        return finish

    def sweep_probe(args, kwargs):
        def finish(result):
            statistics = result.statistics
            tracer.add("sweep.backend_calls", statistics.backend_calls)
            tracer.add("sweep.warm_hits", statistics.warm_hits)
            tracer.add("sweep.warm_misses", statistics.warm_misses)

        return finish

    def service_select_tags(args, kwargs):
        store = kwargs.get("warm_store")
        warm = store is not None and len(store) > 0
        return {"cls": "recommend.warm" if warm else "recommend.cold"}

    tracer.wrap(advisor.IndexAdvisor, "recommend", "advisor.recommend",
                "advisor")
    tracer.wrap(advisor.IndexAdvisor, "recommend_sweep",
                "advisor.recommend_sweep", "advisor")
    tracer.wrap(ExtendAlgorithm, "select", "extend.select", "extend",
                extend_probe)
    tracer.wrap(advisor, "swap_local_search", "localsearch.swap",
                "localsearch", swap_probe)
    tracer.wrap(advisor, "build_report", "report.build_report", "report",
                report_probe)
    tracer.wrap(advisor, "syntactically_relevant_candidates",
                "candidates.syntactically_relevant", "candidates")
    tracer.wrap(advisor, "sweep_select", "sweep.select", "sweep",
                sweep_probe)
    tracer.wrap(daemon, "run_selection", "service.run_selection",
                "service", tags=service_select_tags)
    tracer.wrap(daemon, "sweep_select", "sweep.select", "sweep",
                sweep_probe, lambda args, kwargs: {"cls": "sweep"})
    tracer.wrap(AdvisorService, "update_workload",
                "registry.update_workload", "registry")
    for method in (
        "query_cost",
        "maintenance_cost",
        "multi_index_cost",
        "sequential_costs",
        "query_costs",
        "pair_costs",
        "maintenance_costs",
    ):
        tracer.wrap(VectorizedCostSource, method, f"kernel.{method}",
                    "kernel")
    for method in (
        "sequential_cost",
        "index_cost",
        "sequential_costs",
        "index_costs",
        "pair_costs",
        "maintenance_cost",
        "configuration_cost",
        "workload_cost",
        "multi_configuration_cost",
        "multi_workload_cost",
        "cost_table",
    ):
        tracer.wrap(WhatIfOptimizer, method, f"whatif.{method}", "whatif")

