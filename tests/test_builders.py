"""Graph construction: numbering conventions, combinators, caps."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transmit.builders
from transmit.builders import (
    attach_root,
    build_expr,
    cartesian_graphs,
    chain_rows,
    complete_graph,
    cycle_graph,
    mesh_graph,
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
        # the minimums live in the node table and are enforced by build_expr
        for bad in (Complete(0), Cycle(2), Star(0), Path(0), Mesh((2, 0)), Tree(0, 2)):
            with pytest.raises(ValidationError):
                build_expr(bad)

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
            build_expr(Wedge(()))


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
    # the fault goes where the wedge writes the pending chain out
    def faulty(depth, g):
        return fault(chain_rows(depth, g))

    monkeypatch.setattr(transmit.builders, "chain_rows", faulty)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build_expr(parse("wedge(attach(path(3)),star(2))"))


def recursive_tree(arity: int, depth: int) -> tuple:
    """The wedge-of-attached-subtrees construction, kept only as a cross-check."""
    if depth == 0:
        return ((),)
    subtree = recursive_tree(arity, depth - 1)
    return wedge_graphs([attach_root(subtree)] * arity)


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_direct_tree_matches_recursive_construction(arity, depth):
    # triples are isomorphism invariants, so equal triples back the claim
    direct = built(f"tree({arity},{depth})")
    recursive = RootedGraph(recursive_tree(arity, depth))
    assert direct.vertex_count == recursive.vertex_count
    assert oracle_triple(direct) == oracle_triple(recursive)


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
    assert RootedGraph(wedge_graphs(rows)) == reference_wedge(parts)
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
    # no level copied the rows; they are written once, here
    assert (chain.depth, chain.rows) == (depth, g.adjacency)
    assert RootedGraph(chain_rows(chain.depth, chain.rows)) == expected


def nest_attach(expr, depth: int):
    for _ in range(depth):
        expr = Attach(expr)
    return expr


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 401, 3000])
def test_an_attach_chain_over_one_vertex_is_a_path(n):
    assert build_expr(nest_attach(Complete(1), n - 1)) == build_expr(Path(n))


def test_an_attach_chain_is_written_once(monkeypatch):
    written = []

    def counting(depth, g):
        written.append(depth)
        return chain_rows(depth, g)

    monkeypatch.setattr(transmit.builders, "chain_rows", counting)
    assert build_expr(nest_attach(Path(2), 400)) == build_expr(Path(402))
    assert written == [400]


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


@settings(max_examples=100, deadline=None)
@given(rooted_graphs(connected=True), rooted_graphs(connected=True))
def test_product_triples_match_the_oracle_at_any_root(g, h):
    # the only check of the root rule and delta0 at roots other than 0
    gt, ht = oracle_triple(g), oracle_triple(h)
    cartesian = RootedGraph(cartesian_graphs(g.adjacency, h.adjacency))
    assert cartesian_triple(gt, ht) == oracle_triple(cartesian)
    rooted = RootedGraph(rooted_product_graphs(g.adjacency, h.adjacency))
    assert rooted_product_triple(gt, ht) == oracle_triple(rooted)
