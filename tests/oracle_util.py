"""Brute-force measurements used as the independent side of every check."""

from __future__ import annotations

from transmit.formulas import TransmissionTriple
from transmit.graph import UNREACHABLE, RootedGraph, graph_transmission, root_transmission


def oracle_triple(g: RootedGraph, max_vertices: int = 100_000) -> TransmissionTriple:
    """(size, delta, delta0) measured by per-source BFS."""
    return TransmissionTriple(
        g.vertex_count,
        graph_transmission(g, max_vertices),
        root_transmission(g),
    )


def reference_bfs_distances(g: RootedGraph, source: int) -> list[int]:
    """Per-source BFS that scans every level until the frontier empties.

    The plain loop the package's early-stopping ``bfs_distances`` must agree
    with, on connected and disconnected graphs alike.
    """
    dist = [UNREACHABLE] * g.vertex_count
    dist[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for v in frontier:
            for w in g.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = depth
                    next_frontier.append(w)
        frontier = next_frontier
    return dist


def floyd_warshall(g: RootedGraph) -> list[list[float]]:
    """All-pairs distances by a second, BFS-free route (tiny graphs only)."""
    n = g.vertex_count
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in g.adjacency[i]:
            dist[i][j] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return dist
