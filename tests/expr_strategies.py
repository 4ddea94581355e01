"""Hypothesis strategies for topology expressions."""

from __future__ import annotations

from hypothesis import strategies as st

from transmit import dsl


def primitives() -> st.SearchStrategy:
    return st.one_of(
        st.builds(dsl.Complete, st.integers(1, 6)),
        st.builds(dsl.Cycle, st.integers(3, 8)),
        st.builds(dsl.Star, st.integers(1, 6)),
        st.builds(dsl.Path, st.integers(1, 8)),
        st.builds(dsl.Mesh, st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)),
        st.builds(dsl.Tree, st.integers(1, 3), st.integers(0, 3)),
    )


def expressions() -> st.SearchStrategy:
    return st.recursive(
        primitives(),
        lambda inner: st.one_of(
            st.builds(dsl.Wedge, st.lists(inner, min_size=1, max_size=3).map(tuple)),
            st.builds(dsl.RootedProduct, inner, inner),
            st.builds(dsl.Power, inner, st.integers(1, 3)),
            st.builds(dsl.Attach, inner),
        ),
        max_leaves=8,
    )


def buildable_expressions(size_bound: int = 60) -> st.SearchStrategy:
    """Expressions whose materialized graph stays small enough for BFS work."""
    return expressions().filter(lambda e: dsl.estimated_size(e) <= size_bound)


# Each keyword's arguments in field order, written out apart from the node
# table: ("int", noun, minimum), ("ints", noun, minimum), ("expr", field) or
# ("exprs", field).
GRAMMAR = {
    "complete": [("int", "size", 1)],
    "cycle": [("int", "size", 3)],
    "star": [("int", "leaf count", 1)],
    "path": [("int", "size", 1)],
    "mesh": [("ints", "dimension", 1)],
    "tree": [("int", "arity", 1), ("int", "depth", 0)],
    "wedge": [("exprs", "children")],
    "rprod": [("expr", "left"), ("expr", "right")],
    "power": [("expr", "base"), ("int", "exponent", 1)],
    "attach": [("expr", "child")],
}
PRIMITIVES = [keyword for keyword, args in GRAMMAR.items() if all(arg[0].startswith("int") for arg in args)]


@st.composite
def texts_with_faults(draw, top: int = 4, depth: int = 3):
    """The text of a random nesting of every keyword, with literals 0 to
    ``top``, and the faults ``parse`` names for it, in its order.

    The text is drawn left to right, and each literal below its minimum is
    noted as it is written, at the 1-based offset of its first digit, so the
    faults come in text order.
    """
    text, faults = [], []

    def literal(keyword: str, noun: str, minimum: int) -> None:
        value = draw(st.integers(0, top))
        if value < minimum:
            faults.append(f"offset {sum(map(len, text)) + 1}: {keyword} {noun} must be >= {minimum}")
        text.append(str(value))

    def node(depth: int) -> None:
        keyword = draw(st.sampled_from(list(GRAMMAR) if depth else PRIMITIVES))
        text.append(keyword + "(")
        for n, (kind, name, *minimum) in enumerate(GRAMMAR[keyword]):
            text.append("," if n else "")
            if kind == "int":
                literal(keyword, name, minimum[0])
            elif kind == "ints":
                for i in range(draw(st.integers(1, 3))):
                    text.append("," if i else "")
                    literal(keyword, f"{name} {i}", minimum[0])
            elif kind == "expr":
                node(depth - 1)
            else:
                for i in range(draw(st.integers(1, 3))):
                    text.append("," if i else "")
                    node(depth - 1)
        text.append(")")

    node(depth)
    return "".join(text), faults
