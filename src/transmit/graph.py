"""Concrete rooted graphs and the brute-force BFS distance oracle.

Everything here is deliberately simple: the BFS oracle is the independent
check for every closed-form transmission formula, so it must stay obviously
correct. A graph is its strictly increasing adjacency rows, written by
:mod:`transmit.builders`; it is validated on construction, immutable after
it and safe to share.

Costs: validating a graph is O(V+E) time and O(V) extra memory. One BFS
is O(V+E) and stops at the end of the first level after which every vertex
is reached, so on a complete graph it scans one row. The transmission and
histogram functions run one BFS from vertex 0, which checks connectivity
and gives its eccentricity e. When 8·e < V the graph is shallow and they
count all pairs with reach bitsets: O(diameter·E) ORs of ``_BLOCK``-bit
integers per block of sources, in 2·V·``_BLOCK``/8 bytes. Otherwise (long
cycles and paths, deep chains) they run one BFS per remaining source.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import ConnectivityError, ValidationError

#: Sentinel distance for vertices a BFS could not reach.
UNREACHABLE = -1

# Sources per block of reach bitsets. Wider blocks mean fewer interpreted
# ORs but more memory, 2·V·_BLOCK/8 bytes: about 1 MiB at 4096 vertices.
_BLOCK = 1024

_DISCONNECTED = "graph is disconnected; transmission is undefined"


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
        raise ConnectivityError(_DISCONNECTED)
    return dist


def vertex_transmission(g: RootedGraph, v: int) -> int:
    """Sum of hop distances from ``v`` to every vertex."""
    return sum(_connected_distances(g, v))


def root_transmission(g: RootedGraph) -> int:
    """Transmission of the root: sum of distances root -> every vertex."""
    return vertex_transmission(g, g.root)


def _bitsets_pay(first: list[int]) -> bool:
    """Whether reach bitsets beat per-source BFS, judged from the distances
    from vertex 0. Bitsets make one pass over the edges per level, so they
    pay when the eccentricity is small against the vertex count; cycles and
    paths fall on the BFS side."""
    return 8 * max(first) < len(first)


def _bitset_distance_counts(g: RootedGraph) -> dict[int, int]:
    """Ordered pairs by hop distance, grown level by level as reach bitsets.

    Sources go in blocks of ``_BLOCK``. Distance is symmetric, so bit i of
    ``reach[v]`` says that the block's i-th source is within d of v. One
    level ORs every neighbor's reach into a vertex's own, and the pairs at
    distance d are the rise in set bits. A vertex that holds the whole
    block keeps the one shared ``full`` object and is skipped.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    counts = {0: n}
    for start in range(0, n, _BLOCK):
        width = min(_BLOCK, n - start)
        full = (1 << width) - 1
        reach = [0] * n
        reach[start : start + width] = [1 << i for i in range(width)]
        reached = width
        depth = 0
        while reached < width * n:
            depth += 1
            grown = []
            for r, row in zip(reach, adjacency):
                if r is not full:
                    for u in row:
                        r |= reach[u]
                    if r == full:
                        r = full
                grown.append(r)
            reach = grown
            total = sum(map(int.bit_count, reach))
            if total == reached:  # stuck short of every pair: disconnected
                raise ConnectivityError(_DISCONNECTED)
            counts[depth] = counts.get(depth, 0) + total - reached
            reached = total
    return counts


def graph_transmission(g: RootedGraph) -> int:
    """Sum of distances over all ordered vertex pairs.

    Counts pairs with reach bitsets on shallow graphs and runs one BFS per
    vertex on deep ones (see the module notes); either way the work is
    quadratic, and the vertex cap is ``build_expr``'s.
    """
    # One BFS decides whether an undirected graph is connected, so only
    # the first source's distances are checked.
    first = _connected_distances(g, 0)
    if _bitsets_pay(first):
        return sum(d * c for d, c in _bitset_distance_counts(g).items())
    total = sum(first)
    for source in range(1, g.vertex_count):
        total += sum(bfs_distances(g, source))
    return total


def distance_histogram(g: RootedGraph) -> DistanceHistogram:
    """Count ordered vertex pairs by hop distance."""
    first = _connected_distances(g, 0)
    if _bitsets_pay(first):
        counts = _bitset_distance_counts(g)
    else:
        counts = Counter(first)
        for source in range(1, g.vertex_count):
            counts.update(bfs_distances(g, source))
    return DistanceHistogram(dict(sorted(counts.items())))
