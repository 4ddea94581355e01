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
- Cartesian and rooted product: (g, h) maps to g * |H| + h, so the root
  is (0, 0); g's edges join the copies of H at every h, or at h's root
  only in the rooted product;
- attach: the new pendant root is 0, and old vertices shift up by one.

Every graph is rooted at vertex 0. Primitives and products write the
strictly increasing adjacency rows of their graphs straight from these
rules. A wedge or an attach returns a pending :class:`Glued` instead, and
``_written`` places a whole nest of them in one pass, at O(V+E). Only
``build_expr`` makes, and so validates, a ``RootedGraph``.
"""

from __future__ import annotations

from functools import reduce

from . import dsl
from ._frozen import Frozen
from .dsl import TopologyExpr
from .errors import ResourceLimitError
from .graph import RootedGraph

#: Default vertex cap of ``build_expr``, the package's only graph producer.
#: It bounds the memory a built graph and its oracle take, not the oracle's
#: time, which on a deep graph that is no tree grows with its depth.
DEFAULT_VERTEX_CAP = 100_000


def complete_graph(n: int) -> tuple:
    everyone = tuple(range(n))
    return tuple(everyone[:i] + everyone[i + 1:] for i in range(n))


def cycle_graph(n: int) -> tuple:
    return ((1, n - 1),) + tuple((i - 1, i + 1) for i in range(1, n - 1)) + ((0, n - 2),)


def star_graph(n: int) -> tuple:
    """Star with n leaves (n + 1 vertices), rooted at the center."""
    return (tuple(range(1, n + 1)),) + ((0,),) * n


def path_graph(n: int) -> tuple:
    return tuple(tuple(j for j in (i - 1, i + 1) if 0 <= j < n) for i in range(n))


def mesh_graph(dims: tuple[int, ...]) -> tuple:
    """The right fold cart(path(R_1), cart(path(R_2), ...)), which is row-major.

    Sides of 1 are left out: a product with a one-vertex path keeps the
    numbering, so folding one in would only rebuild the same graph.
    """
    kept = [r for r in dims if r != 1] or [1]
    return reduce(lambda rest, g: cartesian_graphs(g, rest), map(path_graph, reversed(kept)))


def tree_graph(arity: int, depth: int) -> tuple:
    """Perfect tree in breadth-first numbering: a^j vertices at depth j.

    Vertex v's parent is (v - 1) // arity and its children, if it is one of
    the internal vertices, are v * arity + 1 .. v * arity + arity.
    """
    internal = dsl.tree_size(arity, depth - 1)
    rows = [tuple(range(v * arity + 1, v * arity + arity + 1)) for v in range(internal)]
    rows += [()] * (dsl.tree_size(arity, depth) - internal)
    for v in range(1, len(rows)):
        rows[v] = ((v - 1) // arity,) + rows[v]
    return tuple(rows)


class Glued(Frozen):
    """A wedge of ``parts``, not yet written out; with ``pendant``, an attach."""

    __slots__ = ("size", "parts", "pendant")

    def __len__(self) -> int:
        return self.size


def wedge_graphs(parts: list[tuple | Glued]) -> Glued:
    """Glue all parts at their roots, vertex 0 of each, into vertex 0."""
    return Glued(sum(map(len, parts)) - len(parts) + 1, tuple(parts), False)


def attach_root(g: tuple | Glued) -> Glued:
    """Add a pendant vertex at the root and make the pendant the new root."""
    return Glued(len(g) + 1, (g,), True)


def _written(g: tuple | Glued) -> tuple:
    """The rows of a builder's result, a pending nest written out in one
    pre-order pass. A part placed at (r, s) puts its root at r and its vertex
    w > 0 at w + s; as r <= s, every row grows in increasing order."""
    if type(g) is not Glued:
        return g
    rows = [[] for _ in range(g.size)]
    stack = [(g, 0, 0)]
    while stack:
        g, r, s = stack.pop()
        if type(g) is not Glued:
            rows[r] += [w + s for w in g[0]]
            rows[s + 1:s + len(g)] = [tuple([w + s if w else r for w in row]) for row in g[1:]]
        elif g.pendant:  # the part hangs from a new root s + 1, joined to r
            rows[r].append(s + 1)
            rows[s + 1].append(r)
            stack.append((g.parts[0], s + 1, s + 1))
        else:  # the parts follow one another above s; the last is pushed first
            s += g.size - 1
            for part in reversed(g.parts):
                s -= len(part) - 1
                stack.append((part, r, s))
    return tuple(map(tuple, rows))


def _product_graphs(g: tuple | Glued, h: tuple | Glued, joined: range | tuple[int]) -> tuple:
    """One copy of h per vertex of g; g's edges join the copies at each
    vertex of h in ``joined``."""
    g, h = _written(g), _written(h)
    nh = len(h)
    rows = []
    for gi, g_row in enumerate(g):
        base = gi * nh
        copy = [tuple([base + w for w in h_row]) for h_row in h]
        # g's neighbors below gi sit in earlier copies, the rest in later
        # ones, so a joined row stays increasing.
        lower = [u * nh for u in g_row if u < gi]
        upper = [u * nh for u in g_row if u > gi]
        for hj in joined:
            copy[hj] = tuple([u + hj for u in lower]) + copy[hj] + tuple([u + hj for u in upper])
        rows += copy
    return tuple(rows)


def cartesian_graphs(g: tuple, h: tuple) -> tuple:
    """Cartesian product: g's edges join the copies of h at every vertex."""
    return _product_graphs(g, h, range(len(h)))


def rooted_product_graphs(g: tuple | Glued, h: tuple | Glued) -> tuple:
    """One copy of h per vertex of g; g's edges join the copies at h's root."""
    return _product_graphs(g, h, (0,))


def power_graph(g: tuple | Glued, k: int) -> tuple:
    """k-fold rooted product of g with itself. One vertex is its own power,
    and the cap lets it through at any k, so no product is run for it."""
    g = _written(g)
    return g if len(g) == 1 else reduce(rooted_product_graphs, [g] * (k - 1), g)


def build_expr(expr: TopologyExpr, max_vertices: int = DEFAULT_VERTEX_CAP) -> RootedGraph:
    """Materialize an expression, bottom-up, as one validated graph.

    The exact size is computed up front, so an oversized expression fails
    fast with the estimate attached. This is the package's only vertex cap:
    sizes only grow towards the root, so no intermediate graph is larger
    than the final one. The oracle measures only graphs built here, and
    only the final graph is validated. Each node is built by the
    builder its :data:`~transmit.dsl.SPECS` row names.
    """
    size = dsl.estimated_size(expr)
    if size > max_vertices:
        raise ResourceLimitError(size, max_vertices)
    builders = {cls: globals()[spec.graph] for cls, spec in dsl.SPECS.items()}
    return RootedGraph(_written(dsl.fold(expr, builders)))
