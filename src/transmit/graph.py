"""Concrete rooted graphs and the brute-force BFS distance oracle.

Everything here is deliberately simple: the BFS oracle is the independent
check for every closed-form transmission formula, so it must stay obviously
correct. A graph is its strictly increasing adjacency rows, written by
:mod:`transmit.builders`; it is validated on construction, immutable after
it and safe to share.

Costs: validating a graph is O(V+E) time and O(V) extra memory. One BFS
is O(V+E) and stops at the end of the first level after which every vertex
is reached, so on a complete graph it scans one row. The transmission and
histogram functions read connectivity off the distances they compute
anyway and run no BFS beyond one per source.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import ConnectivityError, ValidationError

#: Sentinel distance for vertices a BFS could not reach.
UNREACHABLE = -1


@dataclass(frozen=True)
class RootedGraph:
    """Undirected simple graph with a designated root vertex.

    ``adjacency[i]`` is the strictly increasing tuple of neighbors of
    vertex ``i``; vertices are ``0 .. vertex_count - 1``.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    root: int

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise ValidationError(f"vertex_count must be >= 1, got {n}")
        if len(self.adjacency) != n:
            raise ValidationError(
                f"adjacency has {len(self.adjacency)} rows for {n} vertices"
            )
        if not 0 <= self.root < n:
            raise ValidationError(f"root {self.root} out of range 0..{n - 1}")
        for i, row in enumerate(self.adjacency):
            prev = -1
            for j in row:
                if not 0 <= j < n:
                    raise ValidationError(f"neighbor {j} of {i} out of range")
                if j == i:
                    raise ValidationError(f"self-loop at vertex {i}")
                if j <= prev:
                    raise ValidationError(
                        f"adjacency[{i}] is not strictly increasing"
                    )
                prev = j
        # Symmetry in one pass with O(V) memory: rows are strictly increasing
        # and visited in increasing i, so the rows below j that list j must
        # arrive in the order of row j's entries below j. matched[j] counts
        # those that have; when row i's turn comes, its first matched[i]
        # entries are accounted for and the rest must lie above i.
        adjacency = self.adjacency
        matched = [0] * n
        for i, row in enumerate(adjacency):
            m = matched[i]
            if m < len(row) and row[m] < i:
                raise ValidationError(f"edge {i}-{row[m]} is not symmetric")
            for j in row[m:]:
                back = adjacency[j]
                k = matched[j]
                if k < len(back) and back[k] == i:
                    matched[j] = k + 1
                elif k < len(back) and back[k] < i:
                    raise ValidationError(f"edge {j}-{back[k]} is not symmetric")
                else:
                    raise ValidationError(f"edge {i}-{j} is not symmetric")


@dataclass(frozen=True)
class DistanceHistogram:
    """Number of ordered vertex pairs at each hop distance."""

    counts: dict[int, int] = field(default_factory=dict)

    def transmission(self) -> int:
        """Recompute delta as sum of distance * pair count."""
        return sum(d * c for d, c in self.counts.items())


def bfs_distances(g: RootedGraph, source: int) -> list[int]:
    """Hop count from ``source`` to every vertex (UNREACHABLE if none).

    Stops after the first level that leaves no vertex unreached, so on a
    dense graph the last levels never scan their neighbors.
    """
    if not 0 <= source < g.vertex_count:
        raise ValidationError(
            f"source {source} out of range 0..{g.vertex_count - 1}"
        )
    dist = [UNREACHABLE] * g.vertex_count
    dist[source] = 0
    adjacency = g.adjacency
    frontier = [source]
    unreached = g.vertex_count - 1
    depth = 0
    while frontier and unreached:
        depth += 1
        next_frontier = []
        for v in frontier:
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = depth
                    next_frontier.append(w)
        unreached -= len(next_frontier)
        frontier = next_frontier
    return dist


def _connected_distances(g: RootedGraph, source: int) -> list[int]:
    """``bfs_distances`` from ``source``, refusing a disconnected graph."""
    dist = bfs_distances(g, source)
    if UNREACHABLE in dist:
        raise ConnectivityError(
            "graph is disconnected; transmission is undefined"
        )
    return dist


def vertex_transmission(g: RootedGraph, v: int) -> int:
    """Sum of hop distances from ``v`` to every vertex."""
    return sum(_connected_distances(g, v))


def root_transmission(g: RootedGraph) -> int:
    """Transmission of the root: sum of distances root -> every vertex."""
    return vertex_transmission(g, g.root)


def graph_transmission(g: RootedGraph) -> int:
    """Sum of distances over all ordered vertex pairs, by per-source BFS.

    Runs one BFS per vertex, so the total work is quadratic; the vertex cap
    is ``build_expr``'s.
    """
    # One BFS decides whether an undirected graph is connected, so only
    # the first source's distances are checked.
    total = sum(_connected_distances(g, 0))
    for source in range(1, g.vertex_count):
        total += sum(bfs_distances(g, source))
    return total


def distance_histogram(g: RootedGraph) -> DistanceHistogram:
    """Count ordered vertex pairs by hop distance."""
    counts = Counter(_connected_distances(g, 0))
    for source in range(1, g.vertex_count):
        counts.update(bfs_distances(g, source))
    return DistanceHistogram(dict(sorted(counts.items())))
