"""Graph construction: numbering conventions, combinators, caps."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transmit.builders
from transmit.builders import (
    Glued,
    _written,
    attach_root,
    build_expr,
    cartesian_graphs,
    complete_graph,
    cycle_graph,
    mesh_graph,
    path_graph,
    power_graph,
    rooted_product_graphs,
    wedge_graphs,
)
from transmit.dsl import (
    Attach,
    Complete,
    Cycle,
    Mesh,
    Path,
    Power,
    RootedProduct,
    Star,
    Tree,
    Wedge,
    estimated_size,
    parse,
)
from transmit.errors import ResourceLimitError, ValidationError
from transmit.formulas import cartesian_triple, rooted_product_triple
from transmit.graph import (
    RootedGraph,
    bfs_levels,
    graph_transmission,
    root_transmission,
)

from expr_corpus import oracle_corpus, random_expressions
from expr_strategies import buildable_expressions, primitives
from oracle_util import (
    built,
    edges,
    graph_from_edges,
    oracle_triple,
    reference_attach,
    reference_build,
    reference_cartesian,
    reference_mesh,
    reference_rooted_product,
    reference_wedge,
)

K2 = built("complete(2)")


class TestPrimitives:
    def test_star_shape(self):
        g = built("star(3)")
        assert g.vertex_count == 4
        assert root_transmission(g) == 3  # rooted at the center
        assert edges(g) == [(0, 1), (0, 2), (0, 3)]

    def test_star_center_degree(self):
        for n in (1, 4, 9):
            assert len(built(f"star({n})").adjacency[0]) == n

    def test_tree_bfs_numbering(self):
        g = built("tree(2,2)")
        assert g.vertex_count == 7
        assert edges(g) == [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        assert root_transmission(g) == 10  # rooted at the top

    def test_tree_level_sizes(self):
        assert bfs_levels(built("tree(3,3)")) == [1, 3, 9, 27]

    def test_degenerate_tree_is_path(self):
        g = built("tree(1,4)")
        assert edges(g) == edges(built("path(5)"))

    def test_mesh_2x3(self):
        g = built("mesh(2,3)")
        assert g.vertex_count == 6
        assert len(edges(g)) == 7
        assert edges(g) == [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]
        assert graph_transmission(g) == 50

    def test_mesh_corner_degree(self):
        g = built("mesh(1,3,4)")
        assert len(g.adjacency[0]) == 2  # only the two axes with room to move

    def test_cycle_shape(self):
        g = built("cycle(4)")
        assert edges(g) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_parameter_minimums(self):
        # the minimums live in the node table, and a node below one is refused
        # when made, so no builder is ever handed one
        for cls, field in ((Complete, 0), (Cycle, 2), (Star, 0), (Path, 0), (Mesh, (2, 0))):
            with pytest.raises(ValidationError):
                cls(field)
        with pytest.raises(ValidationError):
            Tree(0, 2)

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            build_expr(Complete(10), max_vertices=9)
        with pytest.raises(ResourceLimitError):
            build_expr(Path(50), max_vertices=49)
        assert build_expr(Path(50), max_vertices=50).vertex_count == 50
        with pytest.raises(ResourceLimitError):
            build_expr(Tree(2, 20), max_vertices=1000)


class TestWedge:
    def test_two_edges_make_a_path(self):
        g = built("wedge(complete(2),complete(2))")
        assert g.vertex_count == 3
        assert edges(g) == [(0, 1), (0, 2)]
        assert root_transmission(g) == 2  # rooted at the shared vertex

    def test_three_edges_make_a_star(self):
        g = built("wedge(complete(2),complete(2),complete(2))")
        assert edges(g) == edges(built("star(3)"))
        assert graph_transmission(g) == 18

    def test_size_identity(self):
        parts = [built("star(2)"), built("cycle(5)"), built("tree(2,1)")]
        g = built("wedge(star(2),cycle(5),tree(2,1))")
        assert g.vertex_count == sum(p.vertex_count for p in parts) - 2

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Wedge(())


class TestCartesianProduct:
    def test_k2_by_k2_is_a_four_cycle(self):
        g = RootedGraph(cartesian_graphs(K2.adjacency, K2.adjacency))
        assert edges(g) == [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert root_transmission(g) == 4


class TestRootedProduct:
    def test_k2_by_k2_is_path_of_four(self):
        g = built("rprod(complete(2),complete(2))")
        assert g.vertex_count == 4
        assert edges(g) == [(0, 1), (0, 2), (2, 3)]
        assert graph_transmission(g) == 20

    def test_identity_on_either_side(self):
        h = built("cycle(5)")
        assert oracle_triple(built("rprod(cycle(5),complete(1))")) == oracle_triple(h)
        assert oracle_triple(built("rprod(complete(1),cycle(5))")) == oracle_triple(h)

    def test_size_is_product(self):
        g = built("rprod(cycle(4),star(2))")
        assert g.vertex_count == 12

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            build_expr(RootedProduct(Complete(40), Complete(40)), max_vertices=100)


class TestAttachRoot:
    def test_single_vertex_becomes_edge(self):
        g = built("attach(complete(1))")
        assert g.vertex_count == 2
        assert edges(g) == [(0, 1)]
        assert root_transmission(g) == 1

    def test_twice_gives_path_rooted_at_endpoint(self):
        g = built("attach(attach(complete(1)))")
        assert edges(g) == [(0, 1), (1, 2)]
        assert root_transmission(g) == 3  # rooted at an endpoint

    def test_on_center_rooted_star(self):
        g = built("attach(star(2))")
        assert g.vertex_count == 4
        assert root_transmission(g) == 5  # old root transmission + old size


class TestPower:
    def test_power_one_is_the_graph(self):
        g = cycle_graph(5)
        assert power_graph(g, 1) is g

    def test_square_of_edge_is_path_of_four(self):
        square = built("power(complete(2),2)")
        assert edges(square) == edges(built("rprod(complete(2),complete(2))"))

    def test_cube_of_edge(self):
        g = built("power(complete(2),3)")
        assert g.vertex_count == 8
        assert graph_transmission(g) == 136

    def test_cap_checked_before_building(self):
        with pytest.raises(ResourceLimitError) as info:
            build_expr(Power(Complete(2), 30), max_vertices=100_000)
        assert info.value.estimated_size == 2**30

    @pytest.mark.parametrize(
        "text",
        ["power(complete(1),100000000)", "power(wedge(complete(1),complete(1)),100000000)"],
    )
    def test_one_vertex_base_runs_no_product(self, monkeypatch, text):
        # size 1 passes the cap at any exponent, so running k - 1 products
        # would hang; the counter fails fast instead
        calls = []

        def counting(g, h):
            calls.append(1)
            if len(calls) > 3:
                raise AssertionError("rooted product of a one-vertex power")
            return rooted_product_graphs(g, h)

        monkeypatch.setattr(transmit.builders, "rooted_product_graphs", counting)
        g = build_expr(parse(text))
        assert calls == []
        assert (g.vertex_count, g.adjacency) == (1, ((),))


class TestBuildExpr:
    def test_examples(self):
        assert edges(build_expr(parse("complete(3)"))) == edges(RootedGraph(complete_graph(3)))
        assert build_expr(parse("wedge(complete(2),complete(2))")).vertex_count == 3
        assert edges(build_expr(parse("power(complete(2),2)"))) == [(0, 1), (0, 2), (2, 3)]

    def test_oversize_carries_estimate(self):
        with pytest.raises(ResourceLimitError) as info:
            build_expr(parse("power(complete(2),30)"))
        assert info.value.estimated_size == 2**30

    def test_invalid_expression_rejected(self):
        with pytest.raises(ValidationError):
            build_expr(parse("cycle(2)"))

    def test_no_per_builder_cap_below_the_requested_one(self):
        g = build_expr(parse("path(100001)"), max_vertices=100_001)
        assert g.vertex_count == 100_001

    def test_every_built_graph_is_connected_and_sized(self):
        for expr in random_expressions(40, seed=11, size_bound=80):
            g = build_expr(expr)
            assert sum(bfs_levels(g)) == g.vertex_count
            assert g.vertex_count == estimated_size(expr)


def test_build_expr_validates_only_the_final_graph(monkeypatch):
    made = []

    def counting(*args):
        made.append(args)
        return RootedGraph(*args)

    monkeypatch.setattr(transmit.builders, "RootedGraph", counting)
    for text in oracle_corpus():
        made.clear()
        build_expr(parse(text))
        assert len(made) == 1, text


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda rows: rows[:3] + (rows[3][1:],) + rows[4:], "edge 2-3 is not symmetric"),
        (
            lambda rows: rows[:2] + (rows[2][::-1],) + rows[3:],
            "adjacency[2] is not strictly increasing",
        ),
        # an edge at the part's root, which the wedge renumbers as it stands
        (lambda rows: (rows[0], rows[1][1:]) + rows[2:], "edge 0-1 is not symmetric"),
    ],
    ids=["dropped back edge", "unsorted row", "dropped edge at the root"],
)
def test_a_bad_row_deep_inside_fails_the_final_validation(monkeypatch, fault, message):
    # attach(path(3)) is the first wedge part, so its vertices keep their
    # numbers and the final graph fails with the text the part itself would;
    # the fault goes where the writer places the pending nest
    def faulty(g):
        return fault(_written(g))

    monkeypatch.setattr(transmit.builders, "_written", faulty)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build_expr(parse("wedge(attach(path(3)),star(2))"))


def recursive_tree(arity: int, depth: int) -> tuple | Glued:
    """The wedge-of-attached-subtrees construction, not yet written out, kept
    only as a cross-check."""
    if depth == 0:
        return ((),)
    subtree = recursive_tree(arity, depth - 1)
    return wedge_graphs([attach_root(subtree)] * arity)


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_direct_tree_matches_recursive_construction(arity, depth):
    # triples are isomorphism invariants, so equal triples back the claim
    direct = built(f"tree({arity},{depth})")
    recursive = RootedGraph(_written(recursive_tree(arity, depth)))
    assert direct.vertex_count == recursive.vertex_count
    assert oracle_triple(direct) == oracle_triple(recursive)


def test_transmission_is_twice_the_networkx_wiener_index_on_the_corpus():
    # a check of the built rows and the oracle by a library outside the
    # package, independent of tests/oracle_util.py
    nx = pytest.importorskip("networkx")
    checked = 0
    for text in oracle_corpus():
        expr = parse(text)
        if estimated_size(expr) > 500:
            continue
        g = build_expr(expr)
        other = nx.Graph(edges(g))
        other.add_nodes_from(range(g.vertex_count))
        wiener = nx.wiener_index(other)  # unordered pairs, as a float
        assert wiener == int(wiener), text
        assert graph_transmission(g) == 2 * int(wiener), text
        checked += 1
    assert checked == 559


def test_rows_match_the_edge_list_reference_on_the_corpus():
    for text in oracle_corpus():
        expr = parse(text)
        assert build_expr(expr) == reference_build(expr), text


@settings(max_examples=150, deadline=None)
@given(buildable_expressions(size_bound=200))
def test_rows_match_the_edge_list_reference_on_random_expressions(expr):
    assert build_expr(expr) == reference_build(expr)


def test_mesh_leaves_out_sides_of_one(monkeypatch):
    products = []

    def counting(g, h):
        products.append((len(g), len(h)))
        return cartesian_graphs(g, h)

    monkeypatch.setattr(transmit.builders, "cartesian_graphs", counting)
    for k in range(1, 5):
        for dims in itertools.product((1, 2, 3), repeat=k):
            kept = tuple(r for r in dims if r != 1) or (1,)
            products.clear()
            g = RootedGraph(mesh_graph(dims))
            assert len(products) == len(kept) - 1, dims
            assert g == RootedGraph(mesh_graph(kept)) == reference_mesh(dims), dims


@st.composite
def rooted_graphs(draw, connected=False):
    """Small graphs, not always connected, rooted anywhere: the root is drawn
    from every vertex and then swaps labels with 0, where every graph is
    rooted. Built graphs alone would leave most root positions, such as a
    leaf or a vertex of low degree, untried. ``connected`` adds an edge from
    each vertex to an earlier one."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])))
    if connected:
        pairs += [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    root = draw(vertex)
    label = {root: 0, 0: root}
    return graph_from_edges(n, [(label.get(u, u), label.get(v, v)) for u, v in pairs])


@settings(max_examples=150, deadline=None)
@given(st.lists(rooted_graphs(), min_size=1, max_size=3))
def test_combinators_match_the_edge_list_reference_at_any_root(parts):
    rows = [p.adjacency for p in parts]
    assert RootedGraph(_written(wedge_graphs(rows))) == reference_wedge(parts)
    g, h = parts[0], parts[-1]
    rooted = RootedGraph(rooted_product_graphs(g.adjacency, h.adjacency))
    assert rooted == reference_rooted_product(g, h)
    cartesian = RootedGraph(cartesian_graphs(g.adjacency, h.adjacency))
    assert cartesian == reference_cartesian(g, h)


@settings(max_examples=150, deadline=None)
@given(rooted_graphs(), st.integers(1, 5))
def test_attach_chains_match_the_k_fold_reference_at_any_root(g, depth):
    chain, expected = g.adjacency, g
    for _ in range(depth):
        chain, expected = attach_root(chain), reference_attach(expected)
    assert RootedGraph(_written(chain)) == expected


def nest_attach(expr, depth: int):
    for _ in range(depth):
        expr = Attach(expr)
    return expr


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 401, 3000])
def test_an_attach_chain_over_one_vertex_is_a_path(n):
    assert build_expr(nest_attach(Complete(1), n - 1)) == build_expr(Path(n))


def test_an_attach_chain_is_written_once(monkeypatch):
    written = []

    def counting(g):
        written.append(len(g))
        return _written(g)

    monkeypatch.setattr(transmit.builders, "_written", counting)
    chain = build_expr(nest_attach(Path(2), 400))
    assert written == [402]
    assert chain == build_expr(Path(402))


@st.composite
def nested_chains(draw):
    """A chain of depth 1..5 over a small expression, as a part of a wedge,
    a factor of a rooted product or the base of a power, itself under an
    attach chain or not."""
    chain = nest_attach(draw(primitives()), draw(st.integers(1, 5)))
    other = draw(primitives().filter(lambda e: estimated_size(e) <= 8))
    where = draw(st.sampled_from(["wedge", "rprod left", "rprod right", "power"]))
    if where == "wedge":
        expr = Wedge((other, chain, nest_attach(other, 2)))
    elif where == "power":
        expr = Power(chain, draw(st.integers(1, 2)))
    else:
        expr = RootedProduct(chain, other) if where == "rprod left" else RootedProduct(other, chain)
    return nest_attach(expr, draw(st.integers(0, 3)))


@settings(max_examples=150, deadline=None)
@given(nested_chains().filter(lambda e: estimated_size(e) <= 600))
def test_nested_attach_chains_match_the_edge_list_reference(expr):
    assert build_expr(expr) == reference_build(expr)


def small_parts() -> st.SearchStrategy:
    """Primitives of at most 8 vertices, some under an attach."""
    small = primitives().filter(lambda e: estimated_size(e) <= 8)
    return st.one_of(small, st.builds(Attach, small))


@st.composite
def nested_and_flat_wedges(draw):
    """A wedge of 1..6 parts, and the same parts with runs of them bracketed
    into inner wedges, to any depth, in their order."""
    parts = draw(st.lists(small_parts(), min_size=1, max_size=6))
    nest = list(parts)
    for _ in range(draw(st.integers(1, 5))):
        i = draw(st.integers(0, len(nest) - 1))
        j = draw(st.integers(i + 1, len(nest)))
        nest[i:j] = [Wedge(tuple(nest[i:j]))]
    return Wedge(tuple(nest)), Wedge(tuple(parts))


@settings(max_examples=150, deadline=None)
@given(nested_and_flat_wedges())
def test_a_nested_wedge_has_the_rows_of_the_flat_one(wedges):
    nested, flat = wedges
    assert build_expr(nested) == build_expr(flat)


def test_a_nested_wedge_example():
    nested = build_expr(parse("wedge(wedge(cycle(5),star(3)),attach(path(3)))"))
    assert nested == build_expr(parse("wedge(cycle(5),star(3),attach(path(3)))"))


@st.composite
def alternating_nests(draw):
    """Wedge and attach levels in turn over a small base. The other wedge
    parts are small primitives or products, and between two runs of levels,
    and above the last, there may be a rooted product or a power."""
    small = primitives().filter(lambda e: estimated_size(e) <= 5)
    inner = st.one_of(small, st.builds(RootedProduct, small, small), st.builds(Power, small, st.just(2)))
    expr = draw(inner)
    for run in range(draw(st.integers(1, 2))):
        first = draw(st.integers(0, 1))
        for level in range(draw(st.integers(1, 6))):
            if level % 2 == first:
                expr = Attach(expr)
            else:
                others = draw(st.lists(inner, min_size=1, max_size=2))
                i = draw(st.integers(0, len(others)))
                expr = Wedge((*others[:i], expr, *others[i:]))
        where = draw(st.sampled_from(["none", "rprod left", "rprod right", "power"]))
        if where == "power" and estimated_size(expr) ** 2 <= 600:
            expr = Power(expr, 2)
        elif where.startswith("rprod"):
            other = draw(primitives().filter(lambda e: estimated_size(e) <= 4))
            expr = RootedProduct(expr, other) if where == "rprod left" else RootedProduct(other, expr)
    return expr


@settings(max_examples=150, deadline=None)
@given(alternating_nests().filter(lambda e: estimated_size(e) <= 600))
def test_alternating_nests_match_the_edge_list_reference(expr):
    assert build_expr(expr) == reference_build(expr)


def alternating_nest(levels: int):
    """wedge(attach(...), path(2)), ``levels`` deep, over complete(1)."""
    expr = Complete(1)
    for _ in range(levels):
        expr = Wedge((Attach(expr), Path(2)))
    return expr


@pytest.mark.parametrize(
    "expr",
    [
        alternating_nest(1000),
        parse("wedge(" * 2999 + "cycle(3)" + ",cycle(3))" * 2999),
        parse("wedge(attach(wedge(attach(path(2)),star(2))),cycle(3))"),
        Attach(Wedge((Wedge((Star(2), Attach(Attach(Cycle(4))))), Tree(2, 2), Wedge((Path(3),))))),
    ],
    ids=["alternating nest", "left-nested wedge", "mixed nest", "wedges and a chain"],
)
def test_a_nest_with_no_product_above_is_written_in_one_pass(monkeypatch, expr):
    written = []

    def counting(g):
        written.append(len(g))
        return _written(g)

    monkeypatch.setattr(transmit.builders, "_written", counting)
    g = build_expr(expr)
    assert written == [g.vertex_count]


def test_a_nest_of_a_hundred_thousand_levels_is_written():
    # alternating_nest(k), glued as build_expr's fold glues it, is a
    # caterpillar: spine vertex i < k is joined to i + 1 and to the leaf
    # V - 1 - i. The writer keeps an explicit stack, so no level recurses.
    k = 100_000
    n = 2 * k + 1
    g = complete_graph(1)
    for _ in range(k):
        g = wedge_graphs([attach_root(g), path_graph(2)])
    expected = graph_from_edges(n, [(i, j) for i in range(k) for j in (i + 1, n - 1 - i)])
    assert RootedGraph(_written(g)) == expected


@settings(max_examples=100, deadline=None)
@given(rooted_graphs(connected=True), rooted_graphs(connected=True))
def test_product_triples_match_the_oracle_at_any_root(g, h):
    # the only check of the root rule and delta0 at roots other than 0
    gt, ht = oracle_triple(g), oracle_triple(h)
    cartesian = RootedGraph(cartesian_graphs(g.adjacency, h.adjacency))
    assert cartesian_triple(gt, ht) == oracle_triple(cartesian)
    rooted = RootedGraph(rooted_product_graphs(g.adjacency, h.adjacency))
    assert rooted_product_triple(gt, ht) == oracle_triple(rooted)
