"""Materialize topology expressions as concrete rooted graphs.

Vertex numbering is deterministic so oracle runs and serializations are
reproducible:

- complete/cycle/path: vertices 0..n-1 in natural order, root 0
  (the path root is endpoint 0);
- star: 0 is the center and root, leaves are 1..n;
- mesh: row-major over coordinates, each running 0..R_i - 1, root at
  corner index 0;
- tree: breadth-first order, root 0;
- wedge: shared root 0, then each part's non-root vertices in part order;
- rooted product: (g, h) maps to g * |H| + h;
- attach: the new pendant root is 0, old vertices shift up by one.
"""

from __future__ import annotations

import math

from . import dsl
from .dsl import TopologyExpr
from .errors import ResourceLimitError
from .graph import DEFAULT_VERTEX_CAP, RootedGraph, graph_from_edges


def complete_graph(n: int) -> RootedGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return graph_from_edges(n, edges, root=0)


def cycle_graph(n: int) -> RootedGraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return graph_from_edges(n, edges, root=0)


def star_graph(n: int) -> RootedGraph:
    """Star with n leaves (n + 1 vertices), rooted at the center."""
    edges = [(0, leaf) for leaf in range(1, n + 1)]
    return graph_from_edges(n + 1, edges, root=0)


def path_graph(n: int) -> RootedGraph:
    edges = [(i, i + 1) for i in range(n - 1)]
    return graph_from_edges(n, edges, root=0)


def mesh_graph(dims: tuple[int, ...]) -> RootedGraph:
    """Cartesian product of paths; vertices row-major, root at corner 0."""
    size = math.prod(dims)
    strides = [0] * len(dims)
    stride = 1
    for axis in range(len(dims) - 1, -1, -1):
        strides[axis] = stride
        stride *= dims[axis]

    edges = []
    coords = [0] * len(dims)
    for index in range(size):
        for axis, r in enumerate(dims):
            if coords[axis] + 1 < r:
                edges.append((index, index + strides[axis]))
        # row-major odometer increment
        for axis in range(len(dims) - 1, -1, -1):
            coords[axis] += 1
            if coords[axis] < dims[axis]:
                break
            coords[axis] = 0
    return graph_from_edges(size, edges, root=0)


def tree_graph(arity: int, depth: int) -> RootedGraph:
    """Perfect tree in breadth-first numbering: a^j vertices at depth j."""
    edges = []
    for parent in range(dsl.tree_size(arity, depth - 1)):  # the internal vertices
        for c in range(arity):
            edges.append((parent, parent * arity + 1 + c))
    return graph_from_edges(dsl.tree_size(arity, depth), edges, root=0)


def wedge_graphs(parts: list[RootedGraph]) -> RootedGraph:
    """Glue all parts at their roots; the shared root becomes vertex 0."""
    size = sum(p.vertex_count for p in parts) - (len(parts) - 1)
    edges = []
    offset = 1
    for part in parts:
        def renumber(v: int, part: RootedGraph = part, offset: int = offset) -> int:
            if v == part.root:
                return 0
            return offset + (v if v < part.root else v - 1)

        for u, v in part.edges():
            edges.append((renumber(u), renumber(v)))
        offset += part.vertex_count - 1
    return graph_from_edges(size, edges, root=0)


def rooted_product_graphs(g: RootedGraph, h: RootedGraph) -> RootedGraph:
    """One copy of h per vertex of g; g's edges join the copies at h's root."""
    size = g.vertex_count * h.vertex_count
    nh = h.vertex_count
    edges = []
    for u, v in g.edges():
        edges.append((u * nh + h.root, v * nh + h.root))
    for gi in range(g.vertex_count):
        base = gi * nh
        for u, v in h.edges():
            edges.append((base + u, base + v))
    return graph_from_edges(size, edges, root=g.root * nh + h.root)


def attach_root(g: RootedGraph) -> RootedGraph:
    """Add a pendant vertex at the root and make the pendant the new root."""
    edges = [(0, g.root + 1)]
    for u, v in g.edges():
        edges.append((u + 1, v + 1))
    return graph_from_edges(g.vertex_count + 1, edges, root=0)


def power_graph(g: RootedGraph, k: int) -> RootedGraph:
    """k-fold rooted product of g with itself."""
    result = g
    for _ in range(k - 1):
        result = rooted_product_graphs(result, g)
    return result


# One builder per node class, looked up by name at call time like the
# closed forms in :mod:`transmit.formulas`.
_GRAPH_OPS = {
    dsl.Complete: lambda e, _: complete_graph(e.n),
    dsl.Cycle: lambda e, _: cycle_graph(e.n),
    dsl.Star: lambda e, _: star_graph(e.n),
    dsl.Path: lambda e, _: path_graph(e.n),
    dsl.Mesh: lambda e, _: mesh_graph(e.dims),
    dsl.Tree: lambda e, _: tree_graph(e.arity, e.depth),
    dsl.Wedge: lambda _, parts: wedge_graphs(parts),
    dsl.RootedProduct: lambda _, gh: rooted_product_graphs(*gh),
    dsl.Power: lambda e, base: power_graph(base[0], e.exponent),
    dsl.Attach: lambda _, child: attach_root(child[0]),
}


def build_expr(expr: TopologyExpr, max_vertices: int = DEFAULT_VERTEX_CAP) -> RootedGraph:
    """Materialize a validated expression, bottom-up.

    The exact size is computed up front, so an oversized expression fails
    fast with the estimate attached. This is the only construction cap:
    sizes only grow towards the root, so no intermediate graph is larger
    than the final one.
    """
    dsl.require_valid(expr)
    size = dsl.estimated_size(expr)
    if size > max_vertices:
        raise ResourceLimitError(size, max_vertices)
    return dsl.fold(expr, _GRAPH_OPS)
