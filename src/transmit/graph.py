"""Concrete rooted graphs and the brute-force BFS distance oracle.

Everything here is deliberately simple: the BFS oracle is the independent
check for every closed-form transmission formula, so it must stay obviously
correct. A graph is its strictly increasing adjacency rows, rooted at
vertex 0, validated on construction, immutable after it and safe to share.
:mod:`transmit.builders` makes one per expression, from the bare rows its
builders pass around.

Costs: validating a graph is O(V+E) time and O(V) extra memory, in one
pass over each row's entries above its own vertex; only rows it refuses
are scanned again, entry by entry, so that a range, self-loop or order
fault is named ahead of a symmetry fault. The one BFS, from vertex 0, is
O(V+E), returns the level sizes and the visit order, and stops at the end
of the first level after which every vertex is reached, so on a complete
graph it scans one row. ``distance_histogram`` counts ordered pairs by
distance, in a list indexed by distance like the level sizes, and every
transmission is ``transmission`` of such counts. The rows pick one of
three methods, with no walk, and each method refuses a disconnected graph.
When vertex 0 is next to every vertex, no distance exceeds 2, and the
counts are V, the E ordered pairs joined by an edge and V(V−1) − E, in
O(V). A graph of V − 1 edges that the BFS spans is a tree, at any depth,
counted in one bottom-up pass over that BFS: O(V) on a path, O(V·height)
at worst, all but O(V) of it in C-level slices, in O(V) memory. Any other
graph, shallow or deep, is counted with reach bitsets, which stall on a
disconnected one: O(diameter·E) ORs of ``_BLOCK``-bit integers per block
of ``_BLOCK`` (2048) sources, in about 2·V·``_BLOCK``/8 bytes. A graph
that σ(v) = V−1−v maps onto itself, found in one O(V+E) check that on any
other graph usually stops at row 0, needs only the sources below the
middle: the builders number ``complete``, ``cycle``, ``path`` and every
``mesh`` so, and not trees, wedges, rooted products or powers. That halves
the sources: mesh(64,64) runs one block of 2048 where it would run two,
and a graph of at most 2048 vertices runs a block half as wide.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

from ._frozen import Frozen
from .errors import ConnectivityError, ValidationError

# Sources per block of reach bitsets. Wider blocks mean fewer interpreted
# ORs but more memory, about 2·V·_BLOCK/8 bytes. On mesh(64,64) 2048 raises
# the process's peak by 1.25 MiB over 1024, and 4096 would raise it by 4.5;
# being mirrored, it runs its 2048 sources below the middle as one block.
# At the 100 000-vertex cap, on mesh(10,10,10,10,10), the counting raises
# the peak by 59 MiB, against 32 MiB at 1024. Every non-tree whose vertex 0
# misses some vertex is counted this way, however deep, so a deep one at the
# cap, such as cycle(100000), holds about the same 2·V·_BLOCK/8 bytes of
# reach; the cap bounds that memory, not the time its levels take.
_BLOCK = 2048

_DISCONNECTED = "graph is disconnected; transmission is undefined"


class RootedGraph(Frozen):
    """Undirected simple graph rooted at vertex 0.

    ``adjacency[i]`` is the strictly increasing tuple of neighbors of
    vertex ``i``; vertices are ``0 .. vertex_count - 1``.
    """

    __slots__ = ("adjacency",)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @staticmethod
    def _check(rows: tuple[tuple[int, ...], ...]) -> None:
        fault = _symmetry_fault(rows) if rows else "vertex_count must be >= 1, got 0"
        if fault:
            raise ValidationError(_entry_fault(rows) or fault)


def _symmetry_fault(adjacency: tuple[tuple[int, ...], ...]) -> str | None:
    """None if the rows are strictly increasing, in range, loop-free and
    symmetric, in one pass over the entries above each vertex; otherwise
    the symmetry fault at the entry where the pass stops.

    Rows are visited in increasing i, so the rows below j that list j arrive
    in the order of row j's entries below j. matched[j] counts those that
    have; when row i's turn comes, its first matched[i] entries are the
    lower neighbors that listed i, in increasing order, and the rest must
    rise from above i. A lower, repeated, negative or self entry fails
    ``j <= prev``; one past the last vertex fails its row lookup. Only an
    unlisted lower entry or a missing back edge stops the pass on rows
    that ``_entry_fault`` passes, and the message names exactly that.
    """
    matched = [0] * len(adjacency)
    try:
        for i, row in enumerate(adjacency):
            prev = i
            for j in row[matched[i] :]:
                if j <= prev:
                    return f"edge {i}-{j} is not symmetric"
                k = matched[j]
                if adjacency[j][k] != i:
                    # Row j's next entry is a lower vertex whose row lacks j,
                    # or lies above i, so that row j lacks i.
                    low = adjacency[j][k]
                    if low < i:
                        return f"edge {j}-{low} is not symmetric"
                    return f"edge {i}-{j} is not symmetric"
                matched[j] = k + 1
                prev = j
    except IndexError:  # j past the last vertex, or row j has no entry left for i
        return f"edge {i}-{j} is not symmetric"
    return None


def _entry_fault(adjacency: tuple[tuple[int, ...], ...]) -> str | None:
    """The first neighbor out of range, self-loop or out-of-order entry of
    the rows, scanning every entry, or None."""
    n = len(adjacency)
    for i, row in enumerate(adjacency):
        prev = -1
        for j in row:
            if not 0 <= j < n:
                return f"neighbor {j} of {i} out of range"
            if j == i:
                return f"self-loop at vertex {i}"
            if j <= prev:
                return f"adjacency[{i}] is not strictly increasing"
            prev = j
    return None


def transmission(counts: list[int]) -> int:
    """Sum of distances, from counts indexed by distance: Σ d·counts[d]."""
    return sum(d * c for d, c in enumerate(counts))


def _bfs(g: RootedGraph) -> tuple[list[int], list[int]]:
    """``(levels, order)`` of a BFS from the root: ``levels[d]`` vertices lie
    d hops from vertex 0, and they follow the nearer ones in ``order``.

    Stops after the first level that leaves no vertex unreached, so on a
    dense graph the last levels never scan their neighbors. Raises
    ``ConnectivityError`` if some vertex is never reached.
    """
    n = g.vertex_count
    seen = [False] * n
    seen[0] = True
    adjacency = g.adjacency
    order = [0]
    levels = [1]
    start = 0
    while len(order) < n:
        end = len(order)
        for v in order[start:end]:
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
        if len(order) == end:
            raise ConnectivityError(_DISCONNECTED)
        levels.append(len(order) - end)
        start = end
    return levels, order


def bfs_levels(g: RootedGraph) -> list[int]:
    """Level sizes of a BFS from the root: entry d counts the vertices d hops
    from vertex 0. Raises ``ConnectivityError`` on a disconnected graph."""
    return _bfs(g)[0]


def root_transmission(g: RootedGraph) -> int:
    """Transmission of the root: sum of distances root -> every vertex."""
    return transmission(bfs_levels(g))


def _mirrored(adjacency: tuple[tuple[int, ...], ...]) -> bool:
    """Whether v ↦ V−1−v maps the graph onto itself: row V−1−v is row v
    mirrored, for each v below the middle, up to the first row that is not.

    The rows are symmetric, so the rows above the middle follow, and so does
    the middle row of an odd V. O(V+E) when it holds, and on a graph it
    fails on, usually one row.
    """
    last = len(adjacency) - 1
    return all(
        adjacency[last - v] == tuple(map(last.__sub__, reversed(adjacency[v])))
        for v in range(len(adjacency) // 2)
    )


def _bitset_distance_counts(g: RootedGraph) -> list[int]:
    """Ordered pairs by hop distance, grown level by level as reach bitsets.

    Sources go in blocks of ``_BLOCK``. Distance is symmetric, so bit i of
    ``reach[v]`` says that the block's i-th source is within d of v. One
    level ORs every neighbor's reach into a vertex's own, and the pairs at
    distance d are the rise in set bits. A vertex that holds the whole
    block keeps the one shared ``full`` object, is skipped and adds
    ``width``; only the others are popcounted. A level costs O(E) ORs, and
    a block takes as many levels as the largest eccentricity among its
    sources, so a deep graph costs far more than a shallow one of its
    size. A level that adds no pair raises ``ConnectivityError``.

    When σ(v) = V−1−v is an automorphism (``_mirrored``), source σ(s) has
    the pairs of source s, so only the sources below the middle, ⌊V/2⌋ of
    them, are run and each rise counts twice. The middle vertex m of an odd
    V is fixed by σ: its pairs are itself, and twice the sources below the
    middle within d of it, the set bits of ``reach[m]``, so its row counts
    once more in each rise.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    sources, weight, middle = n, 1, None
    if _mirrored(adjacency):
        sources, weight = n // 2, 2
        if n % 2:
            middle = sources
    counts = [n]
    for start in range(0, sources, _BLOCK):
        width = min(_BLOCK, sources - start)
        full = (1 << width) - 1
        reach = [0] * n
        reach[start : start + width] = [1 << i for i in range(width)]
        reached = width
        depth = 0
        while reached < width * n:
            depth += 1
            grown = []
            partial = []
            for r, row in zip(reach, adjacency):
                if r is not full:
                    for u in row:
                        r |= reach[u]
                    if r == full:
                        r = full
                    else:
                        partial.append(r)
                grown.append(r)
            total = sum(map(int.bit_count, partial)) + width * (n - len(partial))
            if total == reached:  # stuck short of every pair: disconnected
                raise ConnectivityError(_DISCONNECTED)
            rise = total - reached
            if middle is not None:
                rise += grown[middle].bit_count() - reach[middle].bit_count()
            reach = grown
            if depth == len(counts):
                counts.append(0)
            counts[depth] += weight * rise
            reached = total
    return counts


def _tree_distance_counts(g: RootedGraph) -> list[int]:
    """Ordered pairs by hop distance on a tree, from one BFS from vertex 0,
    which refuses V − 1 edges that leave a vertex unreached, and one
    bottom-up pass over its order.

    A pair is a vertex and one of its ancestors, or turns at the one vertex
    where its path does. Each vertex at depth k has one ancestor at each
    distance 1..k, so the first kind at distance d number the vertices at
    depth d or more. For the second kind, each vertex holds the depth
    counts of its subtree, deepest first, so that a parent adopts its
    deepest child's list and adds itself with one append. Every other
    child first pairs with what is already there, one slice-wise product
    per entry of the shorter list, then is added in. A path costs O(V);
    all the products together cost O(V·height), in C-level slices.
    """
    n = g.vertex_count
    levels, order = _bfs(g)
    adjacency = g.adjacency
    ecc = len(levels) - 1
    top = 2 * ecc  # no path through vertex 0 is longer
    # turning[top - d]: unordered pairs at distance d, so that one child's
    # entry times another's whole list lands on one increasing slice. It
    # starts with the ancestor pairs.
    turning = [0] * (top + 1)
    turning[top - ecc : top] = accumulate(reversed(levels[1:]))
    below = [None] * n  # below[v][-1 - j]: vertices j levels under v
    for v in reversed(order):
        deep = None
        for w in adjacency[v]:
            low = below[w]
            if low is None:  # the parent, which reverse BFS order visits after v
                continue
            if deep is None:
                deep = low
                continue
            if len(low) > len(deep):
                deep, low = low, deep
            tall = len(deep)
            short = len(low)
            start = top - tall - short
            for count in low:
                turning[start : start + tall] = map(
                    add, turning[start : start + tall], map(count.__mul__, deep)
                )
                start += 1
            deep[-short:] = map(add, deep[-short:], low)
        if deep is None:
            deep = [1]
        else:
            deep.append(1)
        below[v] = deep
    counts = [2 * c for c in reversed(turning)]
    counts[0] = n
    while not counts[-1]:  # padding past the diameter
        counts.pop()
    return counts


def distance_histogram(g: RootedGraph) -> list[int]:
    """Count ordered vertex pairs by hop distance: entry d for distance d,
    from 0 to the diameter.

    The rows pick one of three methods with no walk, and the method raises
    ``ConnectivityError`` (see the module notes): when vertex 0 is next to
    every vertex, the edge count alone gives the counts; V − 1 edges take
    the tree pass, whose BFS must span the graph, O(V) on a path and at
    most O(V·height); any other graph, at any depth, takes reach bitsets,
    O(diameter·E) ORs per block of sources, and half the blocks on a graph
    that V−1−v maps onto itself. The vertex cap is ``build_expr``'s.
    """
    n = g.vertex_count
    adjacent = sum(map(len, g.adjacency))  # ordered pairs at distance 1
    if len(g.adjacency[0]) == n - 1:
        # Every other pair is 2 apart; a complete graph has none.
        counts = [n, adjacent, n * (n - 1) - adjacent]
        while not counts[-1]:  # padding past the diameter
            counts.pop()
        return counts
    if adjacent == 2 * (n - 1):
        return _tree_distance_counts(g)
    return _bitset_distance_counts(g)


def graph_transmission(g: RootedGraph) -> int:
    """Sum of distances over all ordered vertex pairs: the weighted sum of
    ``distance_histogram``."""
    return transmission(distance_histogram(g))
