"""Rooted graph representation and the BFS oracle."""

from __future__ import annotations

import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transmit.graph
from transmit.builders import build_expr
from transmit.cli import main
from transmit.dsl import estimated_size, parse
from transmit.errors import ConnectivityError, ValidationError
from transmit.graph import (
    RootedGraph,
    bfs_levels,
    distance_histogram,
    graph_transmission,
    root_transmission,
    transmission,
)

from expr_corpus import oracle_corpus
from expr_strategies import buildable_expressions
from oracle_util import (
    UNREACHABLE,
    built,
    edges,
    floyd_warshall,
    graph_from_edges,
    level_sizes,
    reference_bfs_distances,
    reference_distance_counts,
    reference_row_fault,
)

SINGLE = RootedGraph(((),))
DISCONNECTED = "graph is disconnected; transmission is undefined"
TWO_ISOLATED = RootedGraph(((), ()))
# star(3) with a leaf as vertex 0 and the center as vertex 1.
LEAF_ROOTED_STAR = RootedGraph(((1,), (0, 2, 3), (1,), (1,)))


@st.composite
def edge_lists(draw, max_vertices: int = 24):
    """(vertex count, edges): sparse enough to leave isolated vertices and
    several components, dense enough to give cliques."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=n * (n - 1) // 2)) if n > 1 else []
    return n, edges


def _without(adjacency, vertex, neighbor):
    """``adjacency`` with ``neighbor`` dropped from the row of ``vertex``."""
    rows = list(adjacency)
    rows[vertex] = tuple(w for w in rows[vertex] if w != neighbor)
    return tuple(rows)


class TestRootedGraphInvariants:
    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValidationError, match="symmetric"):
            RootedGraph(((1,), ()))

    def test_rejects_back_edge_missing_mid_row(self):
        with pytest.raises(ValidationError, match="^edge 0-2 is not symmetric$"):
            RootedGraph(((1, 2, 3), (0,), (), (0,)))

    def test_rejects_row_entry_skipped_by_a_later_vertex(self):
        # row 3 holds 1, which row 1 does not list; found while matching 2
        with pytest.raises(ValidationError, match="^edge 3-1 is not symmetric$"):
            RootedGraph(((), (), (3,), (1, 2)))

    @pytest.mark.parametrize(
        "adjacency, edge",
        [(((), (0,)), "1-0"), (((1,), (0,), (0,)), "2-0")],
    )
    def test_rejects_row_entry_no_row_lists(self, adjacency, edge):
        # row 0 does not list the last vertex, and no row between them lists
        # it either, so only the check at the start of the last row sees it
        with pytest.raises(ValidationError, match=f"^edge {edge} is not symmetric$"):
            RootedGraph(adjacency)

    @pytest.mark.parametrize("vertex, neighbor", [(143, 57), (57, 143)])
    def test_rejects_complete_graph_missing_one_back_edge(self, vertex, neighbor):
        adjacency = _without(built("complete(200)").adjacency, vertex, neighbor)
        with pytest.raises(
            ValidationError, match=f"^edge {neighbor}-{vertex} is not symmetric$"
        ):
            RootedGraph(adjacency)

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            RootedGraph(((0, 1), (0,)))

    def test_rejects_unsorted_neighbors(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            RootedGraph(((2, 1), (0, 2), (0, 1)))

    def test_rejects_duplicate_neighbors(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            RootedGraph(((1, 1), (0,)))

    def test_rejects_no_vertices(self):
        with pytest.raises(ValidationError, match="^vertex_count must be >= 1, got 0$"):
            RootedGraph(())

    def test_value_contract(self):
        graph = RootedGraph(adjacency=((1,), (0,)))
        assert graph == RootedGraph(((1,), (0,))) == built("path(2)")
        assert hash(graph) == hash(built("path(2)"))
        assert graph != SINGLE and graph != ((1,), (0,))
        assert pickle.loads(pickle.dumps(graph)) == copy.deepcopy(graph) == graph
        with pytest.raises(AttributeError):
            graph.adjacency = ((),)
        with pytest.raises(AttributeError):
            del graph.adjacency
        assert graph.adjacency == ((1,), (0,)) and graph.vertex_count == 2
        assert repr(graph) == "RootedGraph(adjacency=((1,), (0,)))"

    def test_from_edges_deduplicates_and_sorts(self):
        g = graph_from_edges(3, [(2, 0), (0, 1), (1, 0)])
        assert g.adjacency == ((1, 2), (0,), (0,))
        assert edges(g) == [(0, 1), (0, 2)]


@settings(max_examples=80, deadline=None)
@given(edge_lists(), st.data())
def test_symmetry_check_names_the_one_missing_back_edge(graph, data):
    n, edges = graph
    g = graph_from_edges(n, edges)
    listings = [(a, b) for a in range(n) for b in g.adjacency[a]]
    if not listings:
        return
    a, b = data.draw(st.sampled_from(listings))
    with pytest.raises(ValidationError, match=f"^edge {a}-{b} is not symmetric$"):
        RootedGraph(_without(g.adjacency, b, a))


# Faults injected into valid rows: each takes the row tuples and a draw and
# returns rows the check must refuse.
def _out_of_range(rows, draw):
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.sampled_from([len(rows), len(rows) + 5, -1, -len(rows) - 1]))
    return rows[:i] + (tuple(sorted(rows[i] + (j,))),) + rows[i + 1 :]


def _self_loop(rows, draw):
    i = draw(st.integers(0, len(rows) - 1))
    return rows[:i] + (tuple(sorted(rows[i] + (i,))),) + rows[i + 1 :]


def _duplicate(rows, draw):
    i = draw(st.sampled_from([i for i, row in enumerate(rows) if row]))
    row = rows[i]
    k = draw(st.integers(0, len(row) - 1))
    return rows[:i] + (row[: k + 1] + row[k:],) + rows[i + 1 :]


def _unsorted(rows, draw):
    i = draw(st.sampled_from([i for i, row in enumerate(rows) if len(row) > 1]))
    row = list(rows[i])
    k = draw(st.integers(0, len(row) - 2))
    row[k], row[k + 1] = row[k + 1], row[k]
    return rows[:i] + (tuple(row),) + rows[i + 1 :]


def _missing_back_edge(rows, draw):
    a, b = draw(st.sampled_from([(a, b) for a, row in enumerate(rows) for b in row]))
    return _without(rows, b, a)


def _one_sided_at_root(rows, draw):
    j = draw(st.sampled_from([j for j in range(1, len(rows)) if j not in rows[0]]))
    side = draw(st.sampled_from([0, j]))
    other = j if side == 0 else 0
    return rows[:side] + (tuple(sorted(rows[side] + (other,))),) + rows[side + 1 :]


_FAULTS = {
    "out of range": (_out_of_range, lambda rows: True),
    "self-loop": (_self_loop, lambda rows: True),
    "duplicate": (_duplicate, lambda rows: any(rows)),
    "unsorted": (_unsorted, lambda rows: any(len(row) > 1 for row in rows)),
    "missing back edge": (_missing_back_edge, lambda rows: any(rows)),
    "one-sided edge at vertex 0": (_one_sided_at_root, lambda rows: len(rows[0]) < len(rows) - 1),
}


def _refusal(check, rows):
    """The message ``check(rows)`` raises ``ValidationError`` with, or None."""
    try:
        check(rows)
    except ValidationError as error:
        return str(error)
    return None


@settings(max_examples=300, deadline=None)
@given(edge_lists(max_vertices=12), st.sampled_from([None, *_FAULTS]), st.data())
def test_one_pass_check_refuses_what_the_fault_namer_refuses(graph, fault, data):
    """``RootedGraph`` takes the rows its one pass accepts and otherwise
    raises what the two-pass reference names, range, self-loop and order
    faults ahead of symmetry ones."""
    rows = graph_from_edges(*graph).adjacency
    if fault is not None:
        inject, applies = _FAULTS[fault]
        if not applies(rows):
            return
        rows = inject(rows, data.draw)
    expected = _refusal(reference_row_fault, rows)
    assert _refusal(RootedGraph, rows) == expected
    assert (transmit.graph._symmetry_fault(rows) is None) == (fault is None)
    assert (expected is None) == (fault is None)


def test_a_fault_is_named_by_range_before_symmetry():
    # row 0 lacks its back edge to 1 and row 2 holds 7: the range fault is
    # named, though the one pass stops at the symmetry fault first
    rows = ((2,), (0,), (0, 7))
    assert transmit.graph._symmetry_fault(rows) == "edge 1-0 is not symmetric"
    with pytest.raises(ValidationError, match="^neighbor 7 of 2 out of range$"):
        RootedGraph(rows)


class _CountingRows(tuple):
    """Adjacency tuple that counts the rows a BFS looks up, and the passes
    over every row that a level of reach bitsets makes."""

    lookups = 0
    sweeps = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)

    def __iter__(self):
        self.sweeps += 1
        return super().__iter__()


class TestBfsDistances:
    def test_stops_once_every_vertex_is_reached(self):
        for g, rows_scanned in (
            (built("complete(50)"), 1),
            (built("path(5)"), 4),
            (built("star(6)"), 1),
        ):
            counted = RootedGraph(_CountingRows(g.adjacency))
            counted.adjacency.lookups = 0
            expected = level_sizes(reference_bfs_distances(g, 0))
            assert bfs_levels(counted) == expected
            assert counted.adjacency.lookups == rows_scanned

    def test_star_from_leaf(self):
        from_leaf = level_sizes(reference_bfs_distances(built("star(3)"), 1))
        assert bfs_levels(LEAF_ROOTED_STAR) == from_leaf == [1, 1, 2]

    def test_source_distance_zero(self):
        for g in (SINGLE, built("tree(2,2)"), LEAF_ROOTED_STAR):
            assert bfs_levels(g)[0] == 1

    def test_path_from_endpoint(self):
        assert bfs_levels(built("path(4)")) == [1, 1, 1, 1]

    def test_unreachable_sentinel(self):
        with pytest.raises(ConnectivityError, match=f"^{DISCONNECTED}$"):
            bfs_levels(TWO_ISOLATED)


class TestConnectivity:
    def test_single_vertex(self):
        assert sum(bfs_levels(SINGLE)) == SINGLE.vertex_count

    def test_path(self):
        g = built("path(4)")
        assert sum(bfs_levels(g)) == g.vertex_count

    def test_two_isolated_vertices(self):
        with pytest.raises(ConnectivityError):
            bfs_levels(TWO_ISOLATED)

    def test_transmission_rejects_disconnected(self):
        # path 1-2 plus an isolated vertex 0 that is the root, and path 0-1
        # plus an isolated vertex 2 that the root never reaches
        isolated_root = RootedGraph(((), (2,), (1,)))
        isolated_leaf = RootedGraph(((1,), (0,), ()))
        for g in (TWO_ISOLATED, isolated_root, isolated_leaf):
            with pytest.raises(ConnectivityError):
                graph_transmission(g)
            with pytest.raises(ConnectivityError):
                transmission(bfs_levels(g))
            with pytest.raises(ConnectivityError):
                root_transmission(g)
            with pytest.raises(ConnectivityError):
                distance_histogram(g)

    def test_edge_count_of_a_tree_without_connectivity(self):
        # A triangle and an isolated vertex: V - 1 edges, but no tree.
        for root_alone in (False, True):
            pairs = [(0, 1), (1, 2), (0, 2)]
            if root_alone:
                pairs = [(u + 1, v + 1) for u, v in pairs]
            with pytest.raises(ConnectivityError, match=f"^{DISCONNECTED}$"):
                distance_histogram(graph_from_edges(4, pairs))


def _recording_walks(monkeypatch) -> list[str]:
    """Patch the oracle's one BFS, from vertex 0, to record each call by the
    function that asked for it: ``distance_histogram`` through the tree
    pass, or ``root_transmission`` through ``bfs_levels``."""
    callers = []
    walk = transmit.graph._bfs

    def counting(g):
        callers.append(sys._getframe(2).f_code.co_name)
        return walk(g)

    monkeypatch.setattr(transmit.graph, "_bfs", counting)
    return callers


def _recording_bitsets(monkeypatch) -> list[RootedGraph]:
    """Patch the reach-bitset counting to record each graph it counts."""
    counted = []
    bitset_counts = transmit.graph._bitset_distance_counts

    def counting(g):
        counted.append(g)
        return bitset_counts(g)

    monkeypatch.setattr(transmit.graph, "_bitset_distance_counts", counting)
    return counted


@pytest.mark.parametrize("oracle", [graph_transmission, distance_histogram])
def test_shallow_graph_needs_only_the_first_bfs(monkeypatch, oracle):
    """The rows pick the method, and only the tree pass walks. Vertex 0 of a
    star or a complete graph is next to every vertex, so the edge count
    gives the pairs, with no walk and no bitsets. tree(2,6) has V − 1 edges,
    so it takes the tree pass and its one BFS. mesh(16,16) is neither, so
    its pairs are counted with reach bitsets and no walk."""
    walks = _recording_walks(monkeypatch)
    counted = _recording_bitsets(monkeypatch)
    for text, walked, bitsets in (
        ("mesh(16,16)", 0, 1),
        ("star(40)", 0, 0),
        ("complete(30)", 0, 0),
        ("tree(2,6)", 1, 0),
    ):
        walks.clear()
        counted.clear()
        oracle(built(text))
        assert len(walks) == walked, text
        assert len(counted) == bitsets, text


@pytest.mark.parametrize("text", ["path(50)", "attach(" * 40 + "path(2)" + ")" * 40])
def test_deep_tree_needs_only_the_first_bfs(monkeypatch, text):
    """A deep tree's pairs are counted in one bottom-up pass over its BFS
    from vertex 0, not with reach bitsets; ``verify`` walks once more for
    the root's transmission."""
    walks = _recording_walks(monkeypatch)
    monkeypatch.setattr(transmit.graph, "_bitset_distance_counts", None)
    for command, walkers in (
        ("hist", ["distance_histogram"]),
        ("verify", ["distance_histogram", "root_transmission"]),
    ):
        walks.clear()
        assert main([command, text]) == 0
        assert walks == walkers, command


@pytest.mark.parametrize("text", ["cycle(7)", "cycle(64)", "mesh(4,4,4)"])
def test_oracle_runs_one_bfs_and_one_method(monkeypatch, capsys, text):
    """``hist`` of a graph that is no tree walks zero times, and ``verify``
    once, for the root's transmission. Such a graph is counted with reach
    bitsets at any depth, not with one BFS per source."""
    walks = _recording_walks(monkeypatch)
    counted = _recording_bitsets(monkeypatch)
    for command, walkers in (("hist", []), ("verify", ["root_transmission"])):
        walks.clear()
        counted.clear()
        assert main([command, text]) == 0
        assert walks == walkers, command
        assert len(counted) == 1, command


def _mesh_pair() -> list[tuple[int, int]]:
    """Edges of two disjoint mesh(32,32) copies that σ(v) = V−1−v swaps."""
    mesh = edges(built("mesh(32,32)"))
    return mesh + [(2047 - u, 2047 - v) for u, v in mesh]


def _relabelled(n: int, pairs: list[tuple[int, int]]) -> RootedGraph:
    label = random.Random(n).sample(range(n), n)
    return graph_from_edges(n, [(label[u], label[v]) for u, v in pairs])


_DISCONNECTED_AT_SCALE = {
    "mirrored mesh pair": (lambda: graph_from_edges(2048, _mesh_pair()), True),
    "relabelled mesh pair": (lambda: _relabelled(2048, _mesh_pair()), False),
    "mesh(64,64) and an isolated vertex": (
        lambda: graph_from_edges(4097, edges(built("mesh(64,64)"))),
        False,
    ),
    "cycle(99) and an isolated vertex": (
        lambda: graph_from_edges(100, edges(built("cycle(99)"))),
        False,
    ),
}


@pytest.mark.parametrize("name", _DISCONNECTED_AT_SCALE)
def test_disconnected_rows_at_scale_are_refused(name):
    """No walk comes before the method, so each method refuses a
    disconnected graph itself. Two disjoint mesh(32,32) copies that
    σ(v) = V−1−v swaps run the mirrored sources, and a seeded relabelling
    of them all 2048; mesh(64,64) with an isolated 4097th vertex needs more
    than one block; cycle(99) with an isolated vertex has V − 1 edges, so
    the tree pass's BFS must refuse it."""
    build, mirrored = _DISCONNECTED_AT_SCALE[name]
    g = build()
    assert transmit.graph._mirrored(g.adjacency) == mirrored
    for oracle in (distance_histogram, graph_transmission):
        with pytest.raises(ConnectivityError, match=f"^{DISCONNECTED}$"):
            oracle(g)


class TestTransmission:
    def test_star_center_and_leaf(self):
        g = built("star(3)")
        assert transmission(bfs_levels(g)) == 3
        assert transmission(bfs_levels(LEAF_ROOTED_STAR)) == 5

    def test_single_vertex(self):
        assert transmission(bfs_levels(SINGLE)) == 0
        assert root_transmission(SINGLE) == 0
        assert graph_transmission(SINGLE) == 0

    def test_root_transmission_examples(self):
        assert root_transmission(built("star(3)")) == 3
        assert root_transmission(built("tree(2,2)")) == 10

    def test_graph_transmission_examples(self):
        assert graph_transmission(built("complete(2)")) == 2
        assert graph_transmission(built("tree(2,2)")) == 96

    def test_equals_sum_over_vertices(self):
        g = built("tree(2,2)")
        total = sum(sum(reference_bfs_distances(g, v)) for v in range(g.vertex_count))
        assert graph_transmission(g) == total


class TestDistanceHistogram:
    def test_path_of_three(self):
        assert distance_histogram(built("path(3)")) == [3, 4, 2]

    def test_complete_three(self):
        assert distance_histogram(built("complete(3)")) == [3, 6]

    def test_single_vertex(self):
        assert distance_histogram(SINGLE) == [1]

    def test_transmission_recomputed(self):
        counts = distance_histogram(built("path(3)"))
        assert transmission(counts) == 8
        assert sum(counts) == 9


def test_bfs_matches_reference_on_corpus():
    for text in oracle_corpus():
        g = built(text)
        assert bfs_levels(g) == level_sizes(reference_bfs_distances(g, 0)), text


def _assert_oracle_counts(g: RootedGraph, reference) -> None:
    """Both all-pairs functions against reference pair counts, histogram
    order included."""
    expected = sorted(reference.items())
    assert graph_transmission(g) == sum(d * c for d, c in expected)
    assert list(enumerate(distance_histogram(g))) == expected


def test_oracle_matches_reference_counts_on_corpus(monkeypatch):
    # Widths 7 and V - 1 split the sources mid-graph, the last block ragged.
    # Width 7 stops at 512 vertices: on mesh(32,32) it alone takes seconds.
    default = transmit.graph._BLOCK
    for text in oracle_corpus():
        expr = parse(text)
        if estimated_size(expr) > 1024:
            continue
        g = build_expr(expr)
        reference = reference_distance_counts(g)
        n = g.vertex_count
        for block in (default, max(1, n - 1)) + ((7,) if n <= 512 else ()):
            monkeypatch.setattr(transmit.graph, "_BLOCK", block)
            _assert_oracle_counts(g, reference)


@settings(max_examples=150, deadline=None)
@given(st.one_of(edge_lists(), buildable_expressions().map(build_expr)))
def test_bitset_counts_match_reference_at_small_width(graph):
    g = graph if isinstance(graph, RootedGraph) else graph_from_edges(*graph)
    reference = reference_distance_counts(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transmit.graph, "_BLOCK", 7)
        if UNREACHABLE in reference:
            for oracle in (
                graph_transmission,
                distance_histogram,
                root_transmission,
                transmit.graph._bitset_distance_counts,
            ):
                with pytest.raises(ConnectivityError, match=f"^{DISCONNECTED}$"):
                    oracle(g)
        else:
            _assert_oracle_counts(g, reference)
            expected = [reference[d] for d in range(len(reference))]
            assert transmit.graph._bitset_distance_counts(g) == expected


@st.composite
def mirrored_edge_lists(draw, max_vertices: int = 24):
    """(vertex count, edges) closed under v ↦ V−1−v, odd and even V alike;
    half of them hold the path 0-1-…-(V−1), which σ maps onto itself, so
    that they are connected."""
    n, pairs = draw(edge_lists(max_vertices))
    pairs += [(n - 1 - u, n - 1 - v) for u, v in pairs]
    if draw(st.booleans()):
        pairs += [(v, v + 1) for v in range(n - 1)]
    return n, pairs


def _closed_under_mirror(g: RootedGraph) -> bool:
    last = g.vertex_count - 1
    pairs = set(edges(g))
    return pairs == {(last - v, last - u) for u, v in pairs}


def _assert_bitset_counts(g: RootedGraph) -> None:
    """Reach bitsets at widths default, 7 and 1 against the reference counts,
    or ``ConnectivityError`` on a disconnected graph."""
    reference = reference_distance_counts(g)
    expected = [reference[d] for d in range(len(reference))]
    with pytest.MonkeyPatch.context() as patch:
        for block in (transmit.graph._BLOCK, 7, 1):
            patch.setattr(transmit.graph, "_BLOCK", block)
            if UNREACHABLE in reference:
                with pytest.raises(ConnectivityError, match=f"^{DISCONNECTED}$"):
                    transmit.graph._bitset_distance_counts(g)
            else:
                assert transmit.graph._bitset_distance_counts(g) == expected


@settings(max_examples=150, deadline=None)
@given(mirrored_edge_lists(), st.data())
def test_mirrored_graph_counts_match_reference(graph, data):
    """A graph that σ(v) = V−1−v maps onto itself runs only the sources
    below the middle, each counted twice, and an odd V's middle vertex
    once. Moving one of its edges mostly breaks σ, and the counts stay
    exact either way."""
    g = graph_from_edges(*graph)
    assert transmit.graph._mirrored(g.adjacency)
    _assert_bitset_counts(g)
    n = g.vertex_count
    present = edges(g)
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if v not in g.adjacency[u]]
    if present and absent:
        gone = data.draw(st.sampled_from(present))
        added = data.draw(st.sampled_from(absent))
        moved = graph_from_edges(n, [e for e in present if e != gone] + [added])
        assert transmit.graph._mirrored(moved.adjacency) == _closed_under_mirror(moved)
        _assert_bitset_counts(moved)


def test_mirrored_mesh_is_counted_in_one_block():
    """mesh(64,64) is mirrored, so its 2048 sources below the middle fill
    one block of ``_BLOCK`` (2048): 126 levels, the eccentricity of its
    corners, where all 4096 sources would take two blocks. A seeded random
    relabelling is not mirrored, runs both blocks, and has the same pairs."""
    g = built("mesh(64,64)")
    assert transmit.graph._BLOCK == 2048
    counted = RootedGraph(_CountingRows(g.adjacency))
    counted.adjacency.sweeps = 0
    counts = transmit.graph._bitset_distance_counts(counted)
    assert counted.adjacency.sweeps == 126
    label = random.Random(20190).sample(range(4096), 4096)
    relabelled = RootedGraph(
        _CountingRows(graph_from_edges(4096, [(label[u], label[v]) for u, v in edges(g)]).adjacency)
    )
    assert not transmit.graph._mirrored(relabelled.adjacency)
    relabelled.adjacency.sweeps = 0
    assert transmit.graph._bitset_distance_counts(relabelled) == counts
    assert relabelled.adjacency.sweeps > 126


def _assert_universal_root_counts(g: RootedGraph) -> None:
    """The edge-count histogram, and the bitsets at two widths, against the
    reference counts."""
    reference = reference_distance_counts(g)
    expected = [reference[d] for d in range(len(reference))]
    assert len(expected) <= 3
    assert distance_histogram(g) == expected
    with pytest.MonkeyPatch.context() as patch:
        for block in (transmit.graph._BLOCK, 7):
            patch.setattr(transmit.graph, "_BLOCK", block)
            assert transmit.graph._bitset_distance_counts(g) == expected


def test_universal_root_counts_match_reference_on_corpus():
    graphs = [g for g in map(built, oracle_corpus()) if len(bfs_levels(g)) <= 2]
    assert len(graphs) > 200
    for g in graphs:
        _assert_universal_root_counts(g)


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_universal_root_counts_match_reference(graph):
    n, pairs = graph
    _assert_universal_root_counts(graph_from_edges(n, pairs + [(0, v) for v in range(1, n)]))


@st.composite
def labelled_trees(draw, max_vertices: int = 80):
    """A tree on 1..max_vertices vertices: each vertex after the first gets a
    random earlier parent, then all are relabelled at random, so vertex 0 is
    as often a leaf, a hub or mid-path as the root a builder would make."""
    n = draw(st.integers(1, max_vertices))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    label = draw(st.permutations(range(n)))
    return graph_from_edges(n, [(label[i], label[p]) for i, p in enumerate(parents, 1)])


def _assert_tree_counts(g: RootedGraph) -> None:
    reference = reference_distance_counts(g)
    expected = [reference[d] for d in range(len(reference))]
    assert transmit.graph._tree_distance_counts(g) == expected


@settings(max_examples=150, deadline=None)
@given(labelled_trees())
def test_tree_counts_match_reference(g):
    _assert_tree_counts(g)


def test_tree_counts_match_reference_on_corpus_trees():
    """Shallow and deep trees alike, all of which ``distance_histogram``
    counts with the tree pass unless vertex 0 is next to every vertex."""
    graphs = map(built, oracle_corpus())
    trees = [g for g in graphs if sum(map(len, g.adjacency)) == 2 * (g.vertex_count - 1)]
    assert len(trees) > 100
    for g in trees:
        _assert_tree_counts(g)


def test_histogram_of_a_20000_deep_attach_chain():
    """attach^k(complete(1)) is a path on n = k + 1 vertices, with 2(n - d)
    ordered pairs at each distance d from 1 to n - 1."""
    k = 20000
    n = k + 1
    chain = built("attach(" * k + "complete(1)" + ")" * k)
    assert distance_histogram(chain) == [n] + [2 * (n - d) for d in range(1, n)]


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_bfs_matches_reference_on_random_edge_lists(graph):
    n, edges = graph
    g = graph_from_edges(n, edges)
    dist = reference_bfs_distances(g, 0)
    if UNREACHABLE in dist:
        with pytest.raises(ConnectivityError, match=f"^{DISCONNECTED}$"):
            bfs_levels(g)
    else:
        assert bfs_levels(g) == level_sizes(dist)


@settings(max_examples=60, deadline=None)
@given(buildable_expressions())
def test_bfs_properties_on_random_graphs(expr):
    g = build_expr(expr)
    n = g.vertex_count
    dists = [reference_bfs_distances(g, s) for s in range(n)]

    # symmetry of the metric
    for u in range(n):
        for v in range(u + 1, n):
            assert dists[u][v] == dists[v][u]

    # consistency against a BFS-free all-pairs route
    if n <= 25:
        reference = floyd_warshall(g)
        for u in range(n):
            for v in range(n):
                assert dists[u][v] == reference[u][v]

    # triangle inequality on every vertex triple of small graphs
    bound = min(n, 12)
    for u in range(bound):
        for v in range(bound):
            for w in range(bound):
                assert dists[u][w] <= dists[u][v] + dists[v][w]


@settings(max_examples=60, deadline=None)
@given(buildable_expressions())
def test_transmission_invariants_on_random_graphs(expr):
    g = build_expr(expr)
    n = g.vertex_count
    delta = graph_transmission(g)
    assert delta % 2 == 0
    assert delta >= n * (n - 1)
    counts = distance_histogram(g)
    assert counts[0] == n
    assert sum(counts) == n * n
    assert transmission(counts) == delta


@given(st.integers(2, 30))
def test_histogram_of_complete_graph(n):
    assert distance_histogram(built(f"complete({n})")) == [n, n * (n - 1)]
