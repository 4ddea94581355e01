"""Closed-form engine, checked value by value against the BFS oracle."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transmit.formulas
from transmit.builders import build_expr
from transmit.dsl import Complete, Cycle, Mesh, Path, Star, Wedge, parse
from transmit.errors import InexactDivisionError, ResourceLimitError, ValidationError
from transmit.formulas import (
    TransmissionTriple,
    attach_root_triple,
    cartesian_triple,
    complete_triple,
    cycle_triple,
    evaluate_expr,
    exact_div,
    gf_series,
    mesh_triple,
    path_triple,
    power_triple,
    rooted_product_triple,
    star_triple,
    tree_triple,
    wedge_triple,
)

from expr_corpus import random_expressions
from expr_strategies import buildable_expressions
from oracle_util import built, oracle_triple
from recurrences import (
    SINGLE_VERTEX,
    mesh_axis_sum,
    power_coefficients,
    power_recurrence,
    tree_recurrence,
)

EDGE = TransmissionTriple(2, 2, 1)


def test_exact_div():
    assert exact_div(96, 4) == 24
    with pytest.raises(InexactDivisionError):
        exact_div(7, 2)


#: 10**5000 + 1, and its digits, past the digit limit of str().
HUGE, HUGE_TEXT = 10**5000 + 1, "1" + "0" * 4999 + "1"


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: exact_div(HUGE, 10), InexactDivisionError, f"{HUGE_TEXT} is not divisible by 10"),
        (lambda: exact_div(7, HUGE), InexactDivisionError, f"7 is not divisible by {HUGE_TEXT}"),
        (lambda: TransmissionTriple(-HUGE, 0, 0), ValidationError, f"size must be >= 1, got -{HUGE_TEXT}"),
        (lambda: TransmissionTriple(3, -HUGE, 0), ValidationError, "transmissions must be nonnegative"),
        (lambda: TransmissionTriple(3, HUGE, 1), ValidationError, f"delta must be even, got {HUGE_TEXT}"),
        (
            lambda: TransmissionTriple(HUGE, 2, 1),
            ValidationError,
            f"delta 2 below the distinct-pair floor for size {HUGE_TEXT}",
        ),
        (
            lambda: TransmissionTriple(3, HUGE + 1, HUGE),
            ValidationError,
            f"delta0 {HUGE_TEXT} exceeds half of delta {HUGE_TEXT[:-1]}2",
        ),
        (
            lambda: TransmissionTriple(HUGE, HUGE**3 + 1, 1),
            ValidationError,
            f"delta0 1 below size - 1 = {HUGE_TEXT[:-1]}0",
        ),
        (lambda: gf_series(-HUGE, 1), ValidationError, f"series arity must be >= 2, got -{HUGE_TEXT}"),
        (lambda: gf_series(2, -HUGE), ValidationError, f"series needs at least one term, got -{HUGE_TEXT}"),
    ],
    ids=[
        "numerator", "denominator", "size", "negative", "odd-delta", "pair-floor", "half-delta", "root-floor",
        "series-arity", "series-terms",
    ],
)
def test_fault_messages_write_integers_past_the_digit_limit(make, error, message):
    with pytest.raises(error) as raised:
        make()
    assert str(raised.value) == message


class TestTripleInvariants:
    def test_rejects_odd_delta(self):
        with pytest.raises(ValidationError):
            TransmissionTriple(3, 7, 2)

    def test_rejects_delta_below_pair_floor(self):
        with pytest.raises(ValidationError):
            TransmissionTriple(3, 4, 1)

    def test_rejects_oversized_delta0(self):
        with pytest.raises(ValidationError):
            TransmissionTriple(3, 6, 4)

    def test_rejects_undersized_delta0(self):
        with pytest.raises(ValidationError):
            TransmissionTriple(3, 8, 1)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValidationError):
            TransmissionTriple(0, 0, 0)

    def test_value_contract(self):
        triple = TransmissionTriple(size=3, delta=8, delta0=3)
        assert triple == TransmissionTriple(3, 8, 3) == path_triple(3)
        assert hash(triple) == hash(path_triple(3))
        assert triple != TransmissionTriple(3, 6, 2) and triple != (3, 8, 3)
        assert pickle.loads(pickle.dumps(triple)) == copy.deepcopy(triple) == triple
        with pytest.raises(AttributeError):
            triple.delta = 6
        with pytest.raises(AttributeError):
            del triple.delta
        assert (triple.size, triple.delta, triple.delta0) == (3, 8, 3)
        assert repr(triple) == "TransmissionTriple(size=3, delta=8, delta0=3)"


class TestPrimitiveTriples:
    def test_complete(self):
        assert complete_triple(4) == oracle_triple(built("complete(4)"))
        assert complete_triple(4) == TransmissionTriple(4, 12, 3)

    def test_cycle_odd_and_even(self):
        assert cycle_triple(5) == oracle_triple(built("cycle(5)"))
        assert cycle_triple(5) == TransmissionTriple(5, 30, 6)
        assert cycle_triple(4) == oracle_triple(built("cycle(4)"))
        assert cycle_triple(4).delta == 16

    def test_star(self):
        assert star_triple(3) == oracle_triple(built("star(3)"))
        assert star_triple(3) == TransmissionTriple(4, 18, 3)

    def test_path(self):
        assert path_triple(5) == oracle_triple(built("path(5)"))
        assert path_triple(5) == TransmissionTriple(5, 40, 10)

    def test_mesh(self):
        assert mesh_triple((2, 3)) == oracle_triple(built("mesh(2,3)"))
        assert mesh_triple((2, 3)) == TransmissionTriple(6, 50, 9)

    def test_one_dimensional_mesh_is_a_path(self):
        for n in range(1, 12):
            assert mesh_triple((n,)) == path_triple(n)

    def test_range_checks(self):
        # the minimums live in the node table, and a node below one is refused
        # when made, so no closed form is ever handed one
        for cls, field in ((Complete, 0), (Cycle, 2), (Star, 0), (Path, 0), (Mesh, ()), (Mesh, (2, 0))):
            with pytest.raises(ValidationError):
                cls(field)


class TestWedgeTriple:
    def test_single_part_unchanged(self):
        t = cycle_triple(7)
        assert wedge_triple([t]) == t

    def test_two_edges(self):
        expected = oracle_triple(built("wedge(complete(2),complete(2))"))
        assert expected == TransmissionTriple(3, 8, 2)
        assert wedge_triple([EDGE, EDGE]) == expected

    def test_n_edges_reproduce_star(self):
        for n in range(1, 11):
            assert wedge_triple([EDGE] * n) == TransmissionTriple(n + 1, 2 * n**2, n)

    def test_mixed_parts_match_oracle(self):
        parts = [built("star(2)"), built("cycle(5)"), built("tree(2,1)")]
        expected = oracle_triple(built("wedge(star(2),cycle(5),tree(2,1))"))
        assert wedge_triple([oracle_triple(p) for p in parts]) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Wedge(())


class TestAttachRootTriple:
    def test_single_vertex(self):
        assert attach_root_triple(SINGLE_VERTEX) == TransmissionTriple(2, 2, 1)

    def test_on_center_rooted_star(self):
        expected = oracle_triple(built("attach(star(2))"))
        assert expected == TransmissionTriple(4, 18, 5)
        assert attach_root_triple(TransmissionTriple(3, 8, 2)) == expected

    def test_on_an_edge(self):
        # path of 3 rooted at an endpoint
        expected = oracle_triple(built("attach(complete(2))"))
        assert expected == TransmissionTriple(3, 8, 3)
        assert attach_root_triple(EDGE) == expected


class TestRootedProductTriple:
    def test_edge_squared(self):
        expected = oracle_triple(built("rprod(complete(2),complete(2))"))
        assert expected == TransmissionTriple(4, 20, 4)
        assert rooted_product_triple(EDGE, EDGE) == expected

    def test_single_vertex_identity(self):
        t = cycle_triple(9)
        assert rooted_product_triple(t, SINGLE_VERTEX) == t
        assert rooted_product_triple(SINGLE_VERTEX, t) == t

    def test_mixed_match_oracle(self):
        g, h = built("cycle(4)"), built("star(2)")
        assert rooted_product_triple(oracle_triple(g), oracle_triple(h)) == oracle_triple(
            built("rprod(cycle(4),star(2))")
        )


class TestCartesianTriple:
    def test_edge_squared_is_a_four_cycle(self):
        assert cartesian_triple(EDGE, EDGE) == cycle_triple(4)

    def test_single_vertex_identity(self):
        t = tree_triple(2, 3)
        assert cartesian_triple(t, SINGLE_VERTEX) == t
        assert cartesian_triple(SINGLE_VERTEX, t) == t

    def test_mesh_fold_matches_the_axis_sum_on_300_axes(self):
        # far past the oracle's reach: 300 axes with sides 1..5, ones included
        rng = random.Random(300)
        dims = tuple(rng.randint(1, 5) for _ in range(300))
        assert 1 in dims
        assert mesh_triple(dims) == mesh_axis_sum(dims)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=8).map(tuple))
def test_mesh_fold_matches_the_axis_sum(dims):
    assert mesh_triple(dims) == mesh_axis_sum(dims)


class TestTreeTriple:
    def test_depth_zero(self):
        for arity in (1, 2, 5, 40):
            assert tree_triple(arity, 0) == SINGLE_VERTEX

    def test_binary_depth_two(self):
        assert tree_triple(2, 2) == oracle_triple(built("tree(2,2)"))
        assert tree_triple(2, 2) == TransmissionTriple(7, 96, 10)

    def test_unary_tree_is_a_path(self):
        assert tree_triple(1, 3) == oracle_triple(built("tree(1,3)"))
        assert tree_triple(1, 3) == TransmissionTriple(4, 20, 6)
        for depth in range(12):
            assert tree_triple(1, depth) == path_triple(depth + 1)
            assert tree_recurrence(1, depth) == path_triple(depth + 1)

    def test_ternary_depth_two(self):
        assert tree_triple(3, 2) == oracle_triple(built("tree(3,2)"))
        assert tree_triple(3, 2) == TransmissionTriple(13, 432, 21)


class TestTreeClosedForms:
    def test_binary_depth_two(self):
        t = tree_triple(2, 2)
        assert (t.delta, t.delta0, attach_root_triple(t).delta0) == (96, 10, 17)

    def test_matches_recurrence_componentwise(self):
        cases = [(n, k) for n in range(1, 7) for k in range(0, 9)]
        cases += [(n, k) for n in (2, 3) for k in (20, 100, 299, 300)]
        for n, k in cases:
            assert tree_triple(n, k) == tree_recurrence(n, k)


class TestPowerCoefficients:
    def test_first_coefficients(self):
        for n in range(1, 11):
            assert power_coefficients(n, 1) == (1, 0)

    def test_examples(self):
        assert power_coefficients(2, 2) == (6, 8)
        assert power_coefficients(2, 3) == (28, 80)

    def test_closed_form_matches_recurrence(self):
        # for n >= 3 two of these bases have independent (delta, delta0),
        # so agreement on both pins down each coefficient
        for n in range(2, 11):
            for base in (complete_triple(n), path_triple(n), star_triple(n - 1)):
                for k in range(1, 41):
                    assert power_triple(base, k) == power_recurrence(base, k)

    def test_degenerate_base_keeps_transmissions_zero(self):
        # |G| = 1 forces delta = delta0 = 0, so any coefficients are harmless;
        # the recurrence gives a_k = k, b_k = 0.
        assert power_coefficients(1, 5) == (5, 0)
        assert power_recurrence(SINGLE_VERTEX, 5) == SINGLE_VERTEX
        assert power_triple(SINGLE_VERTEX, 5) == SINGLE_VERTEX


class TestPowerTriple:
    def test_power_one_is_identity(self):
        t = star_triple(4)
        assert power_triple(t, 1) == t

    def test_edge_squared_and_cubed(self):
        assert power_triple(EDGE, 2) == oracle_triple(built("power(complete(2),2)"))
        assert power_triple(EDGE, 2) == TransmissionTriple(4, 20, 4)
        assert power_triple(EDGE, 3) == oracle_triple(built("power(complete(2),3)"))
        assert power_triple(EDGE, 3) == TransmissionTriple(8, 136, 12)

    def test_equals_folded_rooted_products(self):
        for base in (EDGE, star_triple(3), cycle_triple(5)):
            folded = base
            for k in range(2, 7):
                folded = rooted_product_triple(folded, base)
                assert power_triple(base, k) == folded


class TestSeries:
    def test_single_term_is_star_delta(self):
        for n in range(2, 8):
            assert gf_series(n, 1) == (2 * n**2,)

    def test_binary_terms(self):
        assert gf_series(2, 3) == (8, 96, 736)

    def test_ternary_terms(self):
        assert gf_series(3, 2) == (18, 432)

    def test_matches_tree_recurrence(self):
        for n in range(2, 7):
            for k, coefficient in enumerate(gf_series(n, 8)):
                assert coefficient == tree_recurrence(n, k + 1).delta
                assert coefficient == tree_triple(n, k + 1).delta

    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            gf_series(1, 5)
        with pytest.raises(ValidationError):
            gf_series(3, 0)

    def test_size_limit(self):
        # terms times the arity's bit length: 1001 * 2 is past 2000
        with pytest.raises(ResourceLimitError) as raised:
            gf_series(2, 1001)
        assert str(raised.value) == "terms times arity bits 2002 exceeds the series size limit of 2000"


class TestEvaluateExpr:
    def test_examples(self):
        assert evaluate_expr(parse("star(3)")) == TransmissionTriple(4, 18, 3)
        assert evaluate_expr(parse("wedge(complete(2),complete(2))")) == TransmissionTriple(3, 8, 2)
        assert evaluate_expr(parse("power(complete(2),2)")) == TransmissionTriple(4, 20, 4)

    def test_invalid_expression_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_expr(parse("power(complete(3),0)"))

    def test_scales_beyond_any_buildable_graph(self):
        t = evaluate_expr(parse("power(complete(2),40)"))
        assert t.size == 2**40
        a, b = power_coefficients(2, 40)
        assert t.delta == 2 * a + b

    def test_closed_forms_are_looked_up_at_call_time(self, monkeypatch):
        """A wrapped module attribute, as a tracer installs, sees every call."""
        calls = []

        def counting(name, closed_form):
            def wrapper(*args):
                calls.append(name)
                return closed_form(*args)

            return wrapper

        for name in ("tree_triple", "power_triple"):
            monkeypatch.setattr(transmit.formulas, name, counting(name, getattr(transmit.formulas, name)))
        t = evaluate_expr(parse("wedge(tree(2,3),power(path(2),3))"))
        assert sorted(calls) == ["power_triple", "tree_triple"]
        assert t == wedge_triple([tree_triple(2, 3), power_triple(path_triple(2), 3)])


@settings(max_examples=60, deadline=None)
@given(buildable_expressions())
def test_closed_forms_match_oracle_on_random_expressions(expr):
    assert evaluate_expr(expr) == oracle_triple(build_expr(expr))


@settings(max_examples=60, deadline=None)
@given(st.lists(buildable_expressions(size_bound=40), min_size=2, max_size=4), st.randoms())
def test_wedge_triple_is_permutation_invariant(exprs, rng):
    triples = [evaluate_expr(e) for e in exprs]
    shuffled = list(triples)
    rng.shuffle(shuffled)
    assert wedge_triple(shuffled) == wedge_triple(triples)


@settings(max_examples=100, deadline=None)
@given(buildable_expressions(size_bound=10_000))
def test_triple_invariants_hold_on_random_expressions(expr):
    t = evaluate_expr(expr)  # construction re-checks the invariants
    assert t.delta % 2 == 0
    assert t.size == 1 or t.delta >= t.size * (t.size - 1)
    assert 2 * t.delta0 <= t.delta


def test_oracle_agreement_on_seeded_corpus_sample():
    for expr in random_expressions(25, seed=7, size_bound=90):
        assert evaluate_expr(expr) == oracle_triple(build_expr(expr))
