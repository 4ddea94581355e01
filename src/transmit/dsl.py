"""Topology description language: expression nodes, their table, parser,
validation and the one traversal every engine uses.

Grammar (ASCII whitespace permitted around tokens, input is a single expression):

    expr := "complete(" INT ")" | "cycle(" INT ")" | "star(" INT ")"
          | "path(" INT ")" | "mesh(" INT {"," INT} ")" | "tree(" INT "," INT ")"
          | "wedge(" expr {"," expr} ")" | "rprod(" expr "," expr ")"
          | "power(" expr "," INT ")" | "attach(" expr ")"
    INT  := [0-9]+        (ASCII digits only)

``attach`` adds a pendant vertex to the root and re-roots there.

Each node class is described once, in :data:`SPECS`: its keyword, its
argument schema (kind, minimum, noun) and its size rule. The parser,
:func:`validate`, :func:`render` and :func:`estimated_size` are driven by
that table, and :func:`fold` is the bottom-up traversal that the
closed-form engine and the graph builders share. Nothing here recurses, so
nesting depth is bounded by memory alone.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, fields
from typing import Any, Callable, Union

from .errors import TopologyParseError, ValidationError


@dataclass(frozen=True)
class Complete:
    n: int


@dataclass(frozen=True)
class Cycle:
    n: int


@dataclass(frozen=True)
class Star:
    """Star with ``n`` leaves (``n + 1`` vertices), rooted at the center."""

    n: int


@dataclass(frozen=True)
class Path:
    """Path with ``n`` vertices, rooted at an endpoint."""

    n: int


@dataclass(frozen=True)
class Mesh:
    """Cartesian product of paths with the given side lengths, rooted at a corner."""

    dims: tuple[int, ...]


@dataclass(frozen=True)
class Tree:
    """Perfect tree: every internal vertex has ``arity`` children, leaves at ``depth``."""

    arity: int
    depth: int


@dataclass(frozen=True)
class Wedge:
    """One-point union: children glued at their roots."""

    children: tuple["TopologyExpr", ...]


@dataclass(frozen=True)
class RootedProduct:
    """A copy of ``right`` hung at its root off every vertex of ``left``."""

    left: "TopologyExpr"
    right: "TopologyExpr"


@dataclass(frozen=True)
class Power:
    """``exponent``-fold rooted product of ``base`` with itself."""

    base: "TopologyExpr"
    exponent: int


@dataclass(frozen=True)
class Attach:
    """Pendant vertex added at the root; the pendant becomes the new root."""

    child: "TopologyExpr"


TopologyExpr = Union[
    Complete, Cycle, Star, Path, Mesh, Tree, Wedge, RootedProduct, Power, Attach
]

# Argument kinds: one integer, one or more integers, one sub-expression,
# one or more sub-expressions. A variadic kind is always the last argument.
INT, INTS, EXPR, EXPRS = "int", "ints", "expr", "exprs"
_VARIADIC = (INTS, EXPRS)


@dataclass(frozen=True)
class Arg:
    """One node argument, in field order.

    ``minimum`` bounds every integer an int/ints argument holds; ``noun``
    names the argument in violation messages (an expr argument has none).
    """

    kind: str
    noun: str = ""
    minimum: int = 0


@dataclass(frozen=True)
class Spec:
    """Everything the package knows about one node class apart from its
    closed form and its builder: the keyword, the argument schema and the
    exact vertex count as a fold op over the children's counts."""

    keyword: str
    args: tuple[Arg, ...]
    size: Callable[[Any, list[int]], int]


def tree_size(arity: int, depth: int) -> int:
    """Vertex count of the perfect tree, ``1 + a + ... + a^depth``.

    At depth -1 this is 0, which makes ``tree_size(arity, depth - 1)`` the
    number of internal vertices at every depth.
    """
    if arity == 1:
        return depth + 1
    return (arity ** (depth + 1) - 1) // (arity - 1)


SPECS: dict[type, Spec] = {
    Complete: Spec("complete", (Arg(INT, "size", 1),), lambda e, _: e.n),
    # cycle(2) would need a double edge, which a simple graph cannot have
    Cycle: Spec("cycle", (Arg(INT, "size", 3),), lambda e, _: e.n),
    Star: Spec("star", (Arg(INT, "leaf count", 1),), lambda e, _: e.n + 1),
    Path: Spec("path", (Arg(INT, "size", 1),), lambda e, _: e.n),
    Mesh: Spec("mesh", (Arg(INTS, "dimension", 1),), lambda e, _: math.prod(e.dims)),
    Tree: Spec("tree", (Arg(INT, "arity", 1), Arg(INT, "depth", 0)), lambda e, _: tree_size(e.arity, e.depth)),
    Wedge: Spec("wedge", (Arg(EXPRS, "child"),), lambda _, s: sum(s) - (len(s) - 1)),
    RootedProduct: Spec("rprod", (Arg(EXPR), Arg(EXPR)), lambda _, s: s[0] * s[1]),
    Power: Spec("power", (Arg(EXPR), Arg(INT, "exponent", 1)), lambda e, s: s[0] ** e.exponent),
    Attach: Spec("attach", (Arg(EXPR),), lambda _, s: s[0] + 1),
}

# Worked out once from SPECS, so the traversals below do no per-node
# introspection: keyword -> (class, args), class -> (keyword, ((field,
# arg), ...)), and class -> the (field, variadic) pairs holding
# sub-expressions.
_CLASSES = {spec.keyword: (cls, spec.args) for cls, spec in SPECS.items()}
_LAYOUT = {
    cls: (spec.keyword, tuple(zip((f.name for f in fields(cls)), spec.args)))
    for cls, spec in SPECS.items()
}
_CHILD_FIELDS = {
    cls: tuple((field, arg.kind == EXPRS) for field, arg in layout if arg.kind in (EXPR, EXPRS))
    for cls, (_, layout) in _LAYOUT.items()
}


def _unknown(node: Any) -> ValidationError:
    return ValidationError(f"unknown expression node {node!r}")


def fold(expr: TopologyExpr, ops: dict[type, Callable[[Any, list], Any]]) -> Any:
    """Post-order fold with an explicit stack.

    Each node becomes ``ops[type(node)](node, values)``, where ``values``
    lists the results for its sub-expressions in field order (empty for a
    primitive). Nodes are never hashed or compared.
    """
    results: list = []
    stack: list = [(expr, None)]
    while stack:
        node, count = stack.pop()
        if count is None:
            try:
                child_fields = _CHILD_FIELDS[type(node)]
            except KeyError:
                raise _unknown(node) from None
            values: list = []
            for field, variadic in child_fields:
                if variadic:
                    values.extend(getattr(node, field))
                else:
                    values.append(getattr(node, field))
            if values:  # revisit the node once its children are folded
                stack.append((node, len(values)))
                stack.extend([(child, None) for child in reversed(values)])
                continue
        else:
            values = results[-count:]
            del results[-count:]
        results.append(ops[type(node)](node, values))
    return results[0]


_SPACES = frozenset("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")  # the ASCII characters str.isspace() accepts
_DIGITS = re.compile(r"[0-9]+")


class _Scanner:
    """Token reader over the input text. Offsets in errors are 1-based."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, expected: str) -> TopologyParseError:
        if self.pos >= len(self.text):
            found = "end of input"
        else:
            found = repr(self.text[self.pos])
        return TopologyParseError(self.pos + 1, expected, found)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _SPACES:
            self.pos += 1

    def accept(self, token: str) -> bool:
        """Consume ``token`` if it comes next."""
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise self.error(f'"{token}"')

    def integer(self) -> int:
        self.skip_ws()
        match = _DIGITS.match(self.text, self.pos)
        if match is None:
            raise self.error("an integer")
        try:
            value = int(match.group())
        except ValueError:  # longer than the interpreter converts
            raise TopologyParseError(
                self.pos + 1,
                f"an integer of at most {sys.get_int_max_str_digits()} digits",
                f"{match.end() - self.pos} digits",
            ) from None
        self.pos = match.end()
        return value

    def node_class(self) -> tuple[type, tuple[Arg, ...]]:
        """Read a keyword; return its node class and argument schema."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise self.error("a topology keyword")
        entry = _CLASSES.get(self.text[start : self.pos])
        if entry is None:
            self.pos = start
            raise self.error("one of " + ", ".join(sorted(_CLASSES)))
        return entry


def parse(text: str) -> TopologyExpr:
    """Parse topology text; raises TopologyParseError with a 1-based offset.

    The result is structurally well formed but parameter ranges are not yet
    checked; run :func:`validate` before building or evaluating.
    """
    scan = _Scanner(text)
    # The node being read is (cls, args, values): its class, its schema and
    # the argument values so far, a variadic argument's items flattened at
    # the end. Its enclosing nodes wait on the stack in the same form.
    stack: list[tuple[type, tuple[Arg, ...], list]] = []
    cls, args = scan.node_class()
    scan.expect("(")
    values: list = []
    while True:
        n = len(values)
        if n < len(args):
            if n:
                scan.expect(",")
            kind = args[n].kind
        elif args[-1].kind in _VARIADIC and scan.accept(","):
            kind = args[-1].kind
        else:
            scan.expect(")")
            last = len(args) - 1
            if args[last].kind in _VARIADIC:
                node = cls(*values[:last], tuple(values[last:]))
            else:
                node = cls(*values)
            if not stack:
                break
            cls, args, values = stack.pop()
            values.append(node)
            continue
        if kind in (INT, INTS):
            values.append(scan.integer())
        else:
            stack.append((cls, args, values))
            cls, args = scan.node_class()
            scan.expect("(")
            values = []
    scan.skip_ws()
    if scan.pos != len(text):
        raise scan.error("end of input")
    return node


def _path_text(path: tuple | None) -> str:
    steps = []
    while path is not None:
        path, field, index = path
        steps.append(f".{field}" if index is None else f".{field}[{index}]")
    return "$" + "".join(reversed(steps))


def validate(expr: TopologyExpr) -> list[str]:
    """Collect every parameter-range violation, each tagged with a node path.

    Returns an empty list when the expression is valid; raises only for an
    object that is not an expression node. Nodes are visited pre-order;
    each carries its path as a ``(parent path, field, index)`` link that is
    spelled out only for a violation.
    """
    violations: list[str] = []
    stack: list = [(expr, None)]
    while stack:
        node, path = stack.pop()
        try:
            keyword, layout = _LAYOUT[type(node)]
        except KeyError:
            raise _unknown(node) from None
        children = []
        for field, arg in layout:
            value = getattr(node, field)
            if arg.kind == EXPR:
                children.append((value, (path, field, None)))
            elif arg.kind == INT:
                if value < arg.minimum:
                    violations.append(
                        f"{_path_text(path)}: {keyword} {arg.noun} must be >= {arg.minimum}"
                    )
            else:
                if not value:
                    violations.append(f"{_path_text(path)}: {keyword} needs at least one {arg.noun}")
                if arg.kind == EXPRS:
                    children.extend((child, (path, field, i)) for i, child in enumerate(value))
                else:
                    for i, item in enumerate(value):
                        if item < arg.minimum:
                            violations.append(
                                f"{_path_text(path)}: {keyword} {arg.noun} {i} must be >= {arg.minimum}"
                            )
        stack.extend(reversed(children))
    return violations


def require_valid(expr: TopologyExpr) -> None:
    """Raise ValidationError listing every violation, if any."""
    violations = validate(expr)
    if violations:
        raise ValidationError("; ".join(violations))


_SIZE_OPS = {cls: spec.size for cls, spec in SPECS.items()}


def estimated_size(expr: TopologyExpr) -> int:
    """Exact vertex count of the built graph, without building it."""
    return fold(expr, _SIZE_OPS)


def _render_node(node: TopologyExpr, texts: list[str]) -> str:
    keyword, layout = _LAYOUT[type(node)]
    parts: list[str] = []
    texts_left = iter(texts)
    for field, arg in layout:
        if arg.kind == INT:
            parts.append(str(getattr(node, field)))
        elif arg.kind == INTS:
            parts.extend(map(str, getattr(node, field)))
        elif arg.kind == EXPR:
            parts.append(next(texts_left))
        else:
            parts.extend(texts_left)
    return f"{keyword}({','.join(parts)})"


_RENDER_OPS = dict.fromkeys(SPECS, _render_node)


def render(expr: TopologyExpr) -> str:
    """Canonical text form; ``parse(render(e))`` reproduces ``e``."""
    return fold(expr, _RENDER_OPS)
