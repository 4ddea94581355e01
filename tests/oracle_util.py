"""Brute-force measurements used as the independent side of every check,
and the edge-list graph construction the package's row builders must match."""

from __future__ import annotations

import math
from collections import Counter

from transmit import dsl
from transmit.builders import build_expr
from transmit.dsl import TopologyExpr, parse
from transmit.errors import ValidationError
from transmit.formulas import TransmissionTriple
from transmit.graph import RootedGraph, graph_transmission, root_transmission

#: Reference distance of a vertex no path reaches.
UNREACHABLE = -1


def built(text: str) -> RootedGraph:
    """The validated graph of an expression's text, as the oracle gets it."""
    return build_expr(parse(text))


def oracle_triple(g: RootedGraph) -> TransmissionTriple:
    """(size, delta, delta0) measured by the package's oracle."""
    return TransmissionTriple(
        g.vertex_count,
        graph_transmission(g),
        root_transmission(g),
    )


def reference_bfs_distances(g: RootedGraph, source: int) -> list[int]:
    """Per-source BFS that scans every level until the frontier empties.

    The plain loop whose level sizes the package's early-stopping
    ``bfs_levels`` must return, on connected graphs; on disconnected ones
    ``bfs_levels`` must raise ``ConnectivityError``.
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


def level_sizes(dist: list[int]) -> list[int]:
    """Vertices at each distance 0, 1, ... of a reference BFS that reached
    every vertex."""
    counts = Counter(dist)
    return [counts[d] for d in range(len(counts))]


def reference_distance_counts(g: RootedGraph) -> Counter[int]:
    """Ordered vertex pairs by distance, one reference BFS per source.

    The side the package's bitset counting must equal; UNREACHABLE counts
    the pairs of a disconnected graph that no path joins.
    """
    counts = Counter()
    for source in range(g.vertex_count):
        counts.update(reference_bfs_distances(g, source))
    return counts


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


def reference_row_fault(adjacency: tuple[tuple[int, ...], ...]) -> None:
    """Raise ``ValidationError`` naming the first fault of the rows, if any.

    The two-pass check ``RootedGraph`` must word its refusals as: every
    entry is checked for range, self-loop and order first, so those faults
    are named ahead of any symmetry fault. Symmetry is then checked with a
    cursor per row: row i's first matched[i] entries are the lower
    neighbors that listed i, and the rest must lie above i.
    """
    n = len(adjacency)
    if n < 1:
        raise ValidationError(f"vertex_count must be >= 1, got {n}")
    for i, row in enumerate(adjacency):
        prev = -1
        for j in row:
            if not 0 <= j < n:
                raise ValidationError(f"neighbor {j} of {i} out of range")
            if j == i:
                raise ValidationError(f"self-loop at vertex {i}")
            if j <= prev:
                raise ValidationError(f"adjacency[{i}] is not strictly increasing")
            prev = j
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


def edges(g: RootedGraph) -> list[tuple[int, int]]:
    """All edges of ``g`` as (low, high) pairs in deterministic order."""
    return [(i, j) for i in range(g.vertex_count) for j in g.adjacency[i] if i < j]


def graph_from_edges(vertex_count: int, pairs: list[tuple[int, int]]) -> RootedGraph:
    """Build a RootedGraph from an edge list, sorting and deduplicating."""
    neighbors: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in pairs:
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        neighbors[u].add(v)
        neighbors[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in neighbors)
    return RootedGraph(adjacency)


# The edge-list builders: each writes its graph's edges and leaves sorting
# and deduplication to ``graph_from_edges``; combinators read their parts'
# ``edges``. Every graph is rooted at vertex 0. ``transmit.builders`` writes
# adjacency rows directly and must give the same numbering and rows.


def reference_complete(n: int) -> RootedGraph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def reference_cycle(n: int) -> RootedGraph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def reference_star(n: int) -> RootedGraph:
    return graph_from_edges(n + 1, [(0, leaf) for leaf in range(1, n + 1)])


def reference_path(n: int) -> RootedGraph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def reference_mesh(dims: tuple[int, ...]) -> RootedGraph:
    size = math.prod(dims)
    strides = [0] * len(dims)
    stride = 1
    for axis in range(len(dims) - 1, -1, -1):
        strides[axis] = stride
        stride *= dims[axis]
    pairs = []
    coords = [0] * len(dims)
    for index in range(size):
        for axis, r in enumerate(dims):
            if coords[axis] + 1 < r:
                pairs.append((index, index + strides[axis]))
        for axis in range(len(dims) - 1, -1, -1):
            coords[axis] += 1
            if coords[axis] < dims[axis]:
                break
            coords[axis] = 0
    return graph_from_edges(size, pairs)


def reference_tree(arity: int, depth: int) -> RootedGraph:
    pairs = []
    for parent in range(dsl.tree_size(arity, depth - 1)):
        for c in range(arity):
            pairs.append((parent, parent * arity + 1 + c))
    return graph_from_edges(dsl.tree_size(arity, depth), pairs)


def reference_wedge(parts: list[RootedGraph]) -> RootedGraph:
    size = sum(p.vertex_count for p in parts) - (len(parts) - 1)
    pairs = []
    offset = 1
    for part in parts:
        def renumber(v: int, offset: int = offset) -> int:
            return 0 if v == 0 else offset + v - 1

        for u, v in edges(part):
            pairs.append((renumber(u), renumber(v)))
        offset += part.vertex_count - 1
    return graph_from_edges(size, pairs)


def reference_rooted_product(g: RootedGraph, h: RootedGraph) -> RootedGraph:
    nh = h.vertex_count
    pairs = [(u * nh, v * nh) for u, v in edges(g)]
    for gi in range(g.vertex_count):
        pairs += [(gi * nh + u, gi * nh + v) for u, v in edges(h)]
    return graph_from_edges(g.vertex_count * nh, pairs)


def reference_cartesian(g: RootedGraph, h: RootedGraph) -> RootedGraph:
    nh = h.vertex_count
    pairs = [(u * nh + hj, v * nh + hj) for u, v in edges(g) for hj in range(nh)]
    pairs += [(gi * nh + u, gi * nh + v) for gi in range(g.vertex_count) for u, v in edges(h)]
    return graph_from_edges(g.vertex_count * nh, pairs)


def reference_attach(g: RootedGraph) -> RootedGraph:
    pairs = [(0, 1)] + [(u + 1, v + 1) for u, v in edges(g)]
    return graph_from_edges(g.vertex_count + 1, pairs)


def reference_power(g: RootedGraph, k: int) -> RootedGraph:
    result = g
    for _ in range(k - 1):
        result = reference_rooted_product(result, g)
    return result


_REFERENCE_OPS = {
    dsl.Complete: reference_complete,
    dsl.Cycle: reference_cycle,
    dsl.Star: reference_star,
    dsl.Path: reference_path,
    dsl.Mesh: reference_mesh,
    dsl.Tree: reference_tree,
    dsl.Wedge: reference_wedge,
    dsl.RootedProduct: reference_rooted_product,
    dsl.Power: reference_power,
    dsl.Attach: reference_attach,
}


def reference_build(expr: TopologyExpr) -> RootedGraph:
    """``expr`` built through edge lists (valid expressions only; no cap)."""
    return dsl.fold(expr, _REFERENCE_OPS)
