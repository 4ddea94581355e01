"""Topology language: parsing, range checks, size estimation, round trips."""

from __future__ import annotations

import copy
import inspect
import pickle
from functools import partial

import pytest
from hypothesis import given, settings

from transmit import builders, formulas
from transmit.dsl import (
    SPECS,
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
    fold,
    parse,
    render,
)
from transmit.builders import build_expr
from transmit.errors import TopologyParseError, ValidationError
from transmit.formulas import evaluate_expr

from expr_strategies import expressions, texts_with_faults


KEYWORDS = "one of attach, complete, cycle, mesh, path, power, rprod, star, tree, wedge"


def refusal(make) -> str:
    """The message of the ValidationError ``make()`` raises."""
    with pytest.raises(ValidationError) as info:
        make()
    return str(info.value)


class TestParse:
    def test_primitives(self):
        assert parse("tree(2,3)") == Tree(2, 3)
        assert parse("complete(5)") == Complete(5)
        assert parse("mesh(2,3,4)") == Mesh((2, 3, 4))
        assert parse("star(7)") == Star(7)

    def test_combinators(self):
        assert parse("wedge(complete(2), complete(2))") == Wedge((Complete(2), Complete(2)))
        assert parse("rprod(path(3),star(2))") == RootedProduct(Path(3), Star(2))
        assert parse("power(cycle(6),3)") == Power(Cycle(6), 3)
        assert parse("attach(tree(2,1))") == Attach(Tree(2, 1))

    def test_whitespace_between_tokens(self):
        assert parse("  wedge ( star( 1 ) ,\n mesh( 2 , 2 ) )  ") == Wedge(
            (Star(1), Mesh((2, 2)))
        )

    def test_unbalanced_parenthesis_position(self):
        with pytest.raises(TopologyParseError) as info:
            parse("power(cycle(6), 3")
        assert info.value.byte_offset == 18
        assert info.value.expected == '")"'
        assert info.value.found == "end of input"

    def test_trailing_garbage(self):
        with pytest.raises(TopologyParseError) as info:
            parse("star(2) x")
        assert info.value.expected == "end of input"
        assert info.value.byte_offset == 9

    def test_unknown_keyword(self):
        with pytest.raises(TopologyParseError) as info:
            parse("torus(3)")
        assert info.value.byte_offset == 1

    def test_missing_integer(self):
        with pytest.raises(TopologyParseError) as info:
            parse("cycle()")
        assert info.value.expected == "an integer"
        assert info.value.byte_offset == 7

    def test_empty_input(self):
        with pytest.raises(TopologyParseError):
            parse("")

    def test_split_keyword_rejected(self):
        with pytest.raises(TopologyParseError):
            parse("tr ee(2,2)")

    @pytest.mark.parametrize(
        "text, offset, expected",
        [
            ("tree(2)", 7, '","'),
            ("rprod(path(2))", 14, '","'),
            ("tree(2,3,4)", 9, '")"'),
            ("mesh(2,)", 8, "an integer"),
            ("wedge(path(2),)", 15, "a topology keyword"),
            ("power(path(2),)", 15, "an integer"),
        ],
    )
    def test_argument_count_and_kind_follow_the_schema(self, text, offset, expected):
        with pytest.raises(TopologyParseError) as info:
            parse(text)
        assert (info.value.byte_offset, info.value.expected) == (offset, expected)

    @pytest.mark.parametrize(
        "text, offset, found",
        [
            ("path(\u0663)", 6, "'\u0663'"),  # ARABIC-INDIC DIGIT THREE
            ("path(\xa03)", 6, "'\\xa0'"),  # NO-BREAK SPACE
            ("power(cycle(5),\xb2)", 16, "'\xb2'"),  # SUPERSCRIPT TWO
        ],
    )
    def test_integers_and_spaces_are_ascii_only(self, text, offset, found):
        with pytest.raises(TopologyParseError) as info:
            parse(text)
        assert info.value.byte_offset == offset
        assert info.value.expected == "an integer"
        assert info.value.found == found

    def test_overlong_literal_is_a_parse_error_at_its_offset(self):
        with pytest.raises(TopologyParseError) as info:
            parse("path( " + "1" * 5000 + ")")
        assert info.value.byte_offset == 7
        assert info.value.found == "5000 digits"

    @pytest.mark.parametrize(
        "text, outcome",
        [
            ("Cycle(3)", (1, KEYWORDS, "'C'")),
            ("cycle\xe9(3)", (1, KEYWORDS, "'c'")),  # a keyword is the whole run of letters
            ("cycle\xb2(3)", (6, '"("', "'\xb2'")),  # SUPERSCRIPT TWO is no letter
            ("3", (1, "a topology keyword", "'3'")),
            ("1" * 5000, (1, "a topology keyword", "'1'")),
            ("path(3)\x1f", Path(3)),
            ("\x1cpath(3)", Path(3)),
            ("path(3) \xa0", (9, "end of input", "'\\xa0'")),
            ("", (1, "a topology keyword", "end of input")),
            ("  ", (3, "a topology keyword", "end of input")),
        ],
        ids=["upper", "accented", "superscript", "digits", "5000-digits", "trailing-x1f", "leading-x1c", "nbsp", "empty",
             "spaces"],
    )
    def test_each_token_kind_is_read_at_its_offset(self, text, outcome):
        try:
            read = parse(text)
        except TopologyParseError as error:
            read = (error.byte_offset, error.expected, error.found)
        assert read == outcome

    def test_offset_stays_within_input_plus_one(self):
        for text in ("", "x", "cycle", "cycle(", "cycle(2", "cycle(2))"):
            with pytest.raises(TopologyParseError) as info:
                parse(text)
            assert 1 <= info.value.byte_offset <= len(text) + 1


class TestValidate:
    """A node refuses a field out of range when it is made, and parse names
    every fault of its text, each at the offset of its literal."""

    def test_valid_expressions(self):
        assert parse("tree(1,5)") == Tree(1, 5)
        assert parse("wedge(complete(1),star(1))") == Wedge((Complete(1), Star(1)))

    def test_cycle_too_small(self):
        assert refusal(partial(Cycle, 2)) == "cycle size must be >= 3"
        assert refusal(partial(Cycle, n=2)) == "cycle size must be >= 3"
        # unpickling makes the node again, so the check runs again: here on
        # the pickle of Cycle(3) with its one-byte integer 3 changed to 2
        data = pickle.dumps(Cycle(3))
        assert data.count(b"K\x03") == 1
        assert refusal(partial(pickle.loads, data.replace(b"K\x03", b"K\x02"))) == "cycle size must be >= 3"

    def test_power_exponent(self):
        assert refusal(partial(Power, Complete(3), 0)) == "power exponent must be >= 1"

    def test_paths_locate_nested_violations(self):
        # a power's exponent comes after its base, in the text and in the message
        assert refusal(partial(parse, "wedge(complete(0),power(cycle(2),0))")) == (
            "offset 16: complete size must be >= 1; "
            "offset 31: cycle size must be >= 3; "
            "offset 34: power exponent must be >= 1"
        )
        # an offset counts whitespace and leading zeros the way a parse error does
        assert refusal(partial(parse, "mesh( 0 ,\n 00)")) == (
            "offset 7: mesh dimension 0 must be >= 1; offset 12: mesh dimension 1 must be >= 1"
        )
        with pytest.raises(TopologyParseError, match="at offset 12: "):
            parse("mesh( 0 ,\n x0)")

    def test_mesh_dimension_checked(self):
        assert refusal(partial(Mesh, (2, 0, 3))) == "mesh dimension 1 must be >= 1"
        assert refusal(partial(Mesh, (0, 0))) == "mesh dimension 0 must be >= 1; mesh dimension 1 must be >= 1"

    def test_a_parse_error_comes_before_any_fault(self):
        with pytest.raises(TopologyParseError):
            parse("wedge(cycle(2),path(0)) x")


@settings(max_examples=200, deadline=None)
@given(texts_with_faults())
def test_parse_names_every_fault_in_text_order(drawn):
    text, faults = drawn
    if faults:
        assert refusal(partial(parse, text)) == "; ".join(faults)
    else:
        assert render(parse(text)) == text


class TestDeepNesting:
    DEPTH = 20_000

    def test_parse_render_size_validate_do_not_recurse(self):
        text = "attach(" * self.DEPTH + "path(2)" + ")" * self.DEPTH
        expr = parse(text)
        assert estimated_size(expr) == self.DEPTH + 2
        assert render(expr) == text

    def test_violation_path_is_spelled_out_in_full(self):
        # a fault under 3000 levels is located by its literal's offset alone
        text = "attach(" * 3000 + "cycle(2)" + ")" * 3000
        assert refusal(partial(parse, text)) == f"offset {7 * 3000 + 7}: cycle size must be >= 3"

    def test_a_fault_at_every_level_is_named_in_linear_space(self):
        # naming each fault by the nodes that enclose it would make this message
        # quadratic in the depth
        depth = 5000
        message = refusal(partial(parse, "wedge(" * depth + "path(0)" + ",star(0))" * depth))
        assert message == "; ".join(
            [f"offset {6 * depth + 6}: path size must be >= 1"]
            + [f"offset {6 * depth + 14 + 9 * k}: star leaf count must be >= 1" for k in range(depth)]
        )
        assert len(message) < 60 * (depth + 1)

    def test_fold_visits_children_first_in_field_order(self):
        expr = parse("rprod(wedge(star(1),path(2)),power(cycle(3),2))")
        seen = []

        def record(name, *fields):
            seen.append((name, fields))
            return name

        ops = {cls: partial(record, cls.__name__) for cls in (Star, Path, Wedge, Cycle, Power, RootedProduct)}
        assert fold(expr, ops) == "RootedProduct"
        assert seen == [
            ("Star", (1,)),
            ("Path", (2,)),
            ("Wedge", (["Star", "Path"],)),
            ("Cycle", (3,)),
            ("Power", ("Cycle", 2)),
            ("RootedProduct", ("Wedge", "Power")),
        ]


class TestEstimatedSize:
    def test_examples(self):
        assert estimated_size(Tree(2, 3)) == 15
        assert estimated_size(Power(Complete(2), 10)) == 1024
        assert estimated_size(Wedge((Star(3), Star(3)))) == 7

    def test_degenerate_tree(self):
        assert estimated_size(Tree(1, 20)) == 21

    def test_attach_and_product(self):
        assert estimated_size(Attach(Cycle(9))) == 10
        assert estimated_size(RootedProduct(Cycle(4), Star(2))) == 12

    @pytest.mark.parametrize(
        "expr, message",
        [
            (partial(Power, Complete(3), -1), "power exponent must be >= 1"),
            (partial(Complete, -4), "complete size must be >= 1"),
            (partial(Wedge, ()), "wedge needs at least one child"),
            (partial(Power, Complete(3), 2.0), "power exponent must be an int, not float"),
            (partial(Cycle, 3.5), "cycle size must be an int, not float"),
            (partial(Cycle, "3"), "cycle size must be an int, not str"),
            (partial(Path, True), "path size must be an int, not bool"),
            (partial(Mesh, 5), "mesh dims must be a tuple, not int"),
            (partial(Mesh, (2, 2.0)), "mesh dimension 1 must be an int, not float"),
            (partial(Wedge, [Path(2)]), "wedge children must be a tuple, not list"),
        ],
    )
    def test_invalid_expression_is_refused(self, expr, message):
        # the first three would fold to 1/3, -4 and 1, sizes no graph has, and
        # the rest to a float size or a TypeError, so no such node is made
        assert refusal(expr) == message


# One node of each class, for the checks that go row by row through SPECS.
SAMPLES = {
    Complete: Complete(3),
    Cycle: Cycle(4),
    Star: Star(2),
    Path: Path(3),
    Mesh: Mesh((2, 3)),
    Tree: Tree(2, 2),
    Wedge: Wedge((Path(2), Star(1))),
    RootedProduct: RootedProduct(Path(2), Cycle(3)),
    Power: Power(Path(2), 3),
    Attach: Attach(Star(1)),
}


def test_samples_cover_the_node_table():
    assert SAMPLES.keys() == SPECS.keys()


@pytest.mark.parametrize("cls", list(SPECS), ids=[spec.keyword for spec in SPECS.values()])
def test_node_table_names_functions_that_take_the_fields(cls):
    spec = SPECS[cls]
    names = [arg.field for arg in spec.args]
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__) == names
    fields = [getattr(SAMPLES[cls], name) for name in names]
    for function in (getattr(formulas, spec.triple), getattr(builders, spec.graph), spec.size):
        assert callable(function)
        inspect.signature(function).bind(*fields)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=[cls.__name__ for cls in SAMPLES])
def test_node_class_contract(cls):
    node = SAMPLES[cls]
    assert cls.__module__ == "transmit.dsl"
    assert pickle.loads(pickle.dumps(node)) == node
    assert copy.deepcopy(node) == node
    values = {arg.field: getattr(node, arg.field) for arg in SPECS[cls].args}
    assert cls(**values) == cls(*values.values()) == node
    first = SPECS[cls].args[0].field
    with pytest.raises(AttributeError):
        setattr(node, first, values[first])
    with pytest.raises(AttributeError):
        delattr(node, first)
    assert getattr(node, first) is values[first]
    assert hash(cls(**values)) == hash(node)
    # equal field values in another class make another node, such as
    # Cycle(3) and Complete(3)
    for other in SPECS.keys() - {cls}:
        try:
            twin = other(*values.values())
        except (TypeError, ValidationError):
            continue
        assert twin != node and not twin == node
    assert Path(3) != Mesh((3,))


def test_node_repr_names_every_field():
    node = parse("wedge(tree(2,3),power(attach(path(2)),4),mesh(2,3))")
    assert repr(node) == (
        "Wedge(children=(Tree(arity=2, depth=3), Power(base=Attach(child=Path(n=2)), exponent=4), Mesh(dims=(2, 3))))"
    )


@pytest.mark.parametrize("function", [build_expr, estimated_size, render, evaluate_expr])
@pytest.mark.parametrize("expr", [42, Wedge((Path(2), 42))], ids=["bare", "nested"])
def test_a_non_node_is_refused(function, expr):
    with pytest.raises(ValidationError, match=r"^unknown expression node 42$"):
        function(expr)


class TestRender:
    @pytest.mark.parametrize(
        "expr, text",
        [
            (Wedge((Mesh((2, 3)), Power(Attach(Path(2)), 4))), "wedge(mesh(2,3),power(attach(path(2)),4))"),
            # more digits than str() converts, so only a node built in Python holds it
            (Complete(10**5000), "complete(1" + "0" * 5000 + ")"),
        ],
    )
    def test_examples(self, expr, text):
        assert render(expr) == text


@settings(max_examples=150, deadline=None)
@given(expressions())
def test_render_parse_round_trip(expr):
    assert parse(render(expr)) == expr


@settings(max_examples=80, deadline=None)
@given(expressions())
def test_estimated_size_matches_evaluation(expr):
    assert estimated_size(expr) == evaluate_expr(expr).size
