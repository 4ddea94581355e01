"""Spans around the calls one layer of ``transmit`` makes into the next.

The tracer replaces module attributes for as long as it is installed and
puts the originals back on ``uninstall``; the package itself is never edited.
A target that no longer exists is recorded as absent and skipped, so the
benchmark keeps running when a later change renames or removes it.

A span is ``[name, start, end, parent, op]``; ``parent`` indexes the span
list (None at the top) and ``op`` is the op id the harness set. A call made
while a span of the same name is open (recursion, or a wrapped function
reached twice on one path) is not given a span of its own, so a layer's
busy time never counts an interval twice.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name). The cli entries are the names cli.py
# imported from the other layers; the rest are module globals the layers
# look up at call time.
TARGETS = [
    ("transmit.cli", "parse", "dsl.parse"),
    ("transmit.cli", "validate", "dsl.validate"),
    ("transmit.cli", "evaluate_expr", "formulas.evaluate_expr"),
    ("transmit.cli", "build_expr", "builders.build_expr"),
    ("transmit.cli", "graph_transmission", "graph.graph_transmission"),
    ("transmit.cli", "root_transmission", "graph.root_transmission"),
    ("transmit.cli", "distance_histogram", "graph.distance_histogram"),
    ("transmit.cli", "summarize", "metrics.summarize"),
    ("transmit.cli", "compare_rank", "metrics.compare_rank"),
    ("transmit.cli", "gf_series", "formulas.gf_series"),
    ("transmit.cli", "tree_triple", "formulas.tree_triple"),
    ("transmit.dsl", "validate", "dsl.validate"),
    ("transmit.dsl", "estimated_size", "dsl.estimated_size"),
    ("transmit.formulas", "tree_triple", "formulas.tree_triple"),
    ("transmit.formulas", "power_triple", "formulas.power_triple"),
    ("transmit.builders", "graph_from_edges", "graph.graph_from_edges"),
    ("transmit.graph", "bfs_distances", "graph.bfs_distances"),
]

ROOT = "cli.main"


class Tracer:
    """Records spans and exact counters while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self.op = None
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()
        self._saved: list[tuple] = []
        self._edges: dict[int, tuple] = {}
        self._hooks = {
            "dsl.validate": self._on_validate,
            "formulas.evaluate_expr": self._on_evaluate,
            "builders.build_expr": self._on_build,
            "graph.graph_from_edges": self._on_graph,
            "graph.bfs_distances": self._on_bfs,
        }

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def call(self, op: int, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op``."""
        self.op = op
        self._edges.clear()
        try:
            return self._span(ROOT, fn, args, {})
        finally:
            self._edges.clear()

    def _wrap(self, name: str, original):
        def traced(*args, **kwargs):
            if self._open[name]:
                return original(*args, **kwargs)
            return self._span(name, original, args, kwargs)

        return traced

    def _span(self, name: str, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open[name] += 1
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open[name] -= 1
            self._stack.pop()
        hook = self._hooks.get(name)
        if hook is not None:
            try:
                hook(args, result)
            except Exception as exc:  # a changed signature must not fail the op
                self.broken_counters.add(f"{name}: {exc!r}")
        return result

    # Counter hooks run after the span closes, so they cost the parent span.

    def _on_validate(self, args, result) -> None:
        self.counts["dsl.validate.calls"] += 1

    def _on_evaluate(self, args, result) -> None:
        self.counts["formulas.result_bits"] += result.delta.bit_length()

    def _on_build(self, args, result) -> None:
        self.counts["builders.vertices_final"] += result.vertex_count

    def _on_graph(self, args, result) -> None:
        self.counts["builders.vertices_built"] += result.vertex_count

    def _on_bfs(self, args, result) -> None:
        graph = args[0]
        # Cached per op; the entry holds the graph so its id is not reused.
        entry = self._edges.get(id(graph))
        if entry is None:
            entry = self._edges[id(graph)] = (graph, sum(map(len, graph.adjacency)))
        self.counts["graph.bfs_distances.calls"] += 1
        self.counts["graph.edges_scanned"] += entry[1]


def busy_and_self(spans: list[list], first: int = 0) -> tuple[dict[str, float], dict[str, float]]:
    """Seconds per span name in ``spans[first:]``: total duration, and
    duration minus that of the child spans."""
    busy: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        busy[name] += end - start
        if parent is not None:
            children[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for i in range(first, len(spans)):
        name, start, end, _, _ = spans[i]
        own[name] += end - start - children[i]
    return busy, own
