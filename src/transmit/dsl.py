"""Topology description language: expression nodes, their table, parser
and the one traversal every engine uses.

The lexical grammar is the one regex ``_TOKENS``: a token is any ASCII
whitespace, then a run of ASCII digits (an INT), a run of ASCII lowercase
letters, any other single character, or the end of the text. A keyword is
the whole run of ``str.isalpha`` letters. The input is one expression:

    expr := "complete(" INT ")" | "cycle(" INT ")" | "star(" INT ")"
          | "path(" INT ")" | "mesh(" INT {"," INT} ")" | "tree(" INT "," INT ")"
          | "wedge(" expr {"," expr} ")" | "rprod(" expr "," expr ")"
          | "power(" expr "," INT ")" | "attach(" expr ")"

``attach`` adds a pendant vertex to the root and re-roots there.
:func:`parse` locates every fault of a text by its 1-based offset: a
parse error at the token it could not read, an integer out of range at
its literal's first digit.

Each node type is described once, by its row in :data:`SPECS`: its
keyword, its argument schema (field name, kind, minimum, noun), its size
rule and the names of its closed form in :mod:`transmit.formulas` and its
builder in :mod:`transmit.builders`. :func:`_node` makes each node class
from its row: a slotted, immutable class with one field per argument, equal
to another node only of its own class, whose ``__init__`` refuses a field
out of range, so no other code checks one. The parser, :func:`render` and
:func:`estimated_size` are driven by that table.
:func:`fold` is the bottom-up traversal that :func:`render`,
:func:`estimated_size` and both engines share. Nothing here recurses, so
nesting depth is bounded by memory alone.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from functools import partial

from ._frozen import Frozen
from .errors import TopologyParseError, ValidationError, decimal_text


# Argument kinds: one integer, one or more integers, one sub-expression,
# one or more sub-expressions. A variadic kind is always the last argument.
INT, INTS, EXPR, EXPRS = "int", "ints", "expr", "exprs"
_VARIADIC = (INTS, EXPRS)


class Arg(namedtuple("Arg", "field kind noun minimum", defaults=("", 0))):
    """One node argument: the node's field named ``field``, in field order.

    ``minimum`` bounds every integer an int/ints argument holds; ``noun``
    names the argument in fault messages (an expr argument has none).
    """

    __slots__ = ()


class Spec(namedtuple("Spec", "keyword args size triple graph")):
    """Everything the package knows about one node class: the ``keyword``,
    the argument schema ``args``, the exact vertex count ``size`` and the
    names of the closed form ``triple`` in :mod:`transmit.formulas` and the
    builder ``graph`` in :mod:`transmit.builders`.

    ``size``, the closed form and the builder all take the node's fields in
    field order, each sub-expression replaced by its own result (see
    :func:`fold`). The engines import this module, so they are named here and
    each engine looks its functions up in its own module at call time; a
    wrapped module attribute, as a tracer or a test installs, then sees
    every call.
    """

    __slots__ = ()


SPECS: dict[type, Spec] = {}


def _faults(spec: Spec, values: Iterable) -> list[tuple[Arg, int, str]]:
    """The faults of one node's field values, in field order: an integer
    that is no ``int`` or is below its argument's minimum, and a variadic
    field that is no tuple or is empty. Each is (arg, item, message), where
    ``item`` is the index of the item at fault in a variadic field, else 0."""
    faults = []
    for arg, value in zip(spec.args, values):
        if arg.kind == INT:
            if type(value) is not int:
                faults.append((arg, 0, f"{spec.keyword} {arg.noun} must be an int, not {type(value).__name__}"))
            elif value < arg.minimum:
                faults.append((arg, 0, f"{spec.keyword} {arg.noun} must be >= {arg.minimum}"))
        elif arg.kind in _VARIADIC:
            if type(value) is not tuple:
                faults.append((arg, 0, f"{spec.keyword} {arg.field} must be a tuple, not {type(value).__name__}"))
            elif not value:
                faults.append((arg, 0, f"{spec.keyword} needs at least one {arg.noun}"))
            elif arg.kind == INTS:
                for i, item in enumerate(value):
                    if type(item) is not int:
                        faults.append((arg, i, f"{spec.keyword} {arg.noun} {i} must be an int, not {type(item).__name__}"))
                    elif item < arg.minimum:
                        faults.append((arg, i, f"{spec.keyword} {arg.noun} {i} must be >= {arg.minimum}"))
    return faults


def _check(spec: Spec, *values: object) -> None:
    """The check of every node with an int or variadic field: refuse its
    field values, in field order, if one is of the wrong type or out of range."""
    faults = _faults(spec, values)
    if faults:
        raise ValidationError("; ".join(fault for _, _, fault in faults))


class TopologyExpr(Frozen):
    """The base of the node classes, which :func:`_node` makes."""

    __slots__ = ()


def _node(name: str, keyword: str, args: tuple[Arg, ...], size: Callable[..., int], triple: str, graph: str,
          doc: str | None = None) -> type:
    """Make the node class of one node type, with one field per argument,
    and enter its row in :data:`SPECS`. A node with a field out of range
    raises :class:`ValidationError` when made."""
    spec = Spec(keyword, args, size, triple, graph)
    # the module lets pickle find the class by its public name
    namespace = {"__slots__": tuple(arg.field for arg in args), "__module__": __name__, "__doc__": doc}
    if any(arg.kind != EXPR for arg in args):  # else there is nothing to check
        namespace["_check"] = partial(_check, spec)
    cls = type(name, (TopologyExpr,), namespace)
    SPECS[cls] = spec
    return cls


def tree_size(arity: int, depth: int) -> int:
    """Vertex count of the perfect tree, ``1 + a + ... + a^depth``.

    At depth -1 this is 0, which makes ``tree_size(arity, depth - 1)`` the
    number of internal vertices at every depth.
    """
    if arity == 1:
        return depth + 1
    return (arity ** (depth + 1) - 1) // (arity - 1)


def _plus_one(n: int) -> int:
    return n + 1


def _wedge_size(sizes: list[int]) -> int:
    return sum(sizes) - (len(sizes) - 1)


Complete = _node("Complete", "complete", (Arg("n", INT, "size", 1),), operator.index, "complete_triple", "complete_graph")
# cycle(2) would need a double edge, which a simple graph cannot have
Cycle = _node("Cycle", "cycle", (Arg("n", INT, "size", 3),), operator.index, "cycle_triple", "cycle_graph")
Star = _node("Star", "star", (Arg("n", INT, "leaf count", 1),), _plus_one, "star_triple", "star_graph",
             doc="Star with ``n`` leaves (``n + 1`` vertices), rooted at the center.")
Path = _node("Path", "path", (Arg("n", INT, "size", 1),), operator.index, "path_triple", "path_graph",
             doc="Path with ``n`` vertices, rooted at an endpoint.")
Mesh = _node("Mesh", "mesh", (Arg("dims", INTS, "dimension", 1),), math.prod, "mesh_triple", "mesh_graph",
             doc="Cartesian product of paths with the given side lengths, rooted at a corner.")
Tree = _node("Tree", "tree", (Arg("arity", INT, "arity", 1), Arg("depth", INT, "depth", 0)), tree_size,
             "tree_triple", "tree_graph",
             doc="Perfect tree: every internal vertex has ``arity`` children, leaves at ``depth``.")
Wedge = _node("Wedge", "wedge", (Arg("children", EXPRS, "child"),), _wedge_size, "wedge_triple", "wedge_graphs",
              doc="One-point union: children glued at their roots.")
RootedProduct = _node("RootedProduct", "rprod", (Arg("left", EXPR), Arg("right", EXPR)), operator.mul,
                      "rooted_product_triple", "rooted_product_graphs",
                      doc="A copy of ``right`` hung at its root off every vertex of ``left``.")
Power = _node("Power", "power", (Arg("base", EXPR), Arg("exponent", INT, "exponent", 1)), pow,
              "power_triple", "power_graph",
              doc="``exponent``-fold rooted product of ``base`` with itself.")
Attach = _node("Attach", "attach", (Arg("child", EXPR),), _plus_one, "attach_root_triple", "attach_root",
               doc="Pendant vertex added at the root; the pendant becomes the new root.")

# Worked out once from SPECS, so the traversals below do no per-node
# introspection: keyword -> (class, args), and class -> (field names, the
# (position, variadic) pairs of the fields holding sub-expressions).
_CLASSES = {spec.keyword: (cls, spec.args) for cls, spec in SPECS.items()}
_SHAPE = {
    cls: (
        tuple(arg.field for arg in spec.args),
        tuple((i, arg.kind == EXPRS) for i, arg in enumerate(spec.args) if arg.kind in (EXPR, EXPRS)),
    )
    for cls, spec in SPECS.items()
}


def _unknown(node: object) -> ValidationError:
    return ValidationError(f"unknown expression node {node!r}")


def fold(expr: TopologyExpr, ops: dict[type, Callable[..., object]]) -> object:
    """Post-order fold with an explicit stack.

    Each node becomes ``ops[type(node)](*fields)``: its fields in field
    order, a sub-expression replaced by its result and a tuple of
    sub-expressions by the list of theirs. Nodes are never hashed or
    compared.
    """
    results: list = []
    # (node, None, None) is a first visit; (node, values, children) waits
    # for its children's results with its field values already read.
    stack: list = [(expr, None, None)]
    while stack:
        node, values, children = stack.pop()
        if values is None:
            try:
                names, children = _SHAPE[type(node)]
            except KeyError:
                raise _unknown(node) from None
            values = []
            for name in names:  # a comprehension costs a frame per node
                values.append(getattr(node, name))
            if children:
                stack.append((node, values, children))
                for i, variadic in reversed(children):
                    if variadic:
                        stack.extend([(child, None, None) for child in reversed(values[i])])
                    else:
                        stack.append((values[i], None, None))
                continue
        else:
            for i, variadic in reversed(children):
                if variadic:
                    cut = len(results) - len(values[i])
                    values[i] = results[cut:]
                    del results[cut:]
                else:
                    values[i] = results.pop()
        results.append(ops[type(node)](*values))
    return results[0]


_TOKENS = re.compile(r"[\t-\r\x1c-\x1f ]*(?:([0-9]+)|([a-z]+)|(.)|\Z)", re.DOTALL)


def _error(token: re.Match, expected: str) -> TopologyParseError:
    """The error for ``token`` where ``expected`` was due, at the 1-based
    offset of its first character after its whitespace."""
    group = token.lastindex
    if group is None:
        return TopologyParseError(token.end() + 1, expected, "end of input")
    return TopologyParseError(token.start(group) + 1, expected, repr(token[group][0]))


def _expect(tokens: Iterator[re.Match], token: re.Match, char: str) -> re.Match:
    """The token after ``token``, which must be the character ``char``."""
    if token[3] != char:
        raise _error(token, f'"{char}"')
    return next(tokens)


def _keyword(tokens: Iterator[re.Match], token: re.Match) -> tuple[type, tuple[Arg, ...], re.Match]:
    """The class and schema of the keyword ``token`` and the token after its
    "(". A keyword is the whole run of letters, so one not all in a-z is unknown."""
    word = token[2] or token[3] or ""
    entry = _CLASSES.get(word)
    if entry is not None and not token.string[token.end() : token.end() + 1].isalpha():
        return (*entry, _expect(tokens, next(tokens), "("))
    raise _error(token, "one of " + ", ".join(sorted(_CLASSES)) if word.isalpha() else "a topology keyword")


def parse(text: str) -> TopologyExpr:
    """Parse topology text into its node.

    Raises TopologyParseError with a 1-based offset for text that is no
    expression. Raises ValidationError for an expression with a field out of
    range, naming every fault by the offset of its literal's first digit,
    counted the same way, such as ``offset 13: cycle size must be >= 3``:
    all in text order, joined by ``"; "``.
    """
    tokens = _TOKENS.finditer(text)
    # The node being read is (cls, args, values): its class, its schema and
    # the argument values so far, a variadic argument's items flattened at
    # the end. Its enclosing nodes wait on the stack in the same form.
    # ``token`` is the next token unread, and ``offsets`` the 0-based start
    # of each integer read. A node's own integers follow its sub-expressions,
    # so they are the last read when it closes, and faults come in text order.
    # Each node is made as it closes. One whose own check refuses it is None,
    # with its faults kept, and its parents are made with None in its place.
    stack: list[tuple[type, tuple[Arg, ...], list]] = []
    offsets: list[int] = []
    faults: list[str] = []
    cls, args, token = _keyword(tokens, next(tokens))
    values: list = []
    while True:
        n = len(values)
        if n < len(args) or (args[-1].kind in _VARIADIC and token[3] == ","):
            if n:
                token = _expect(tokens, token, ",")
            kind = args[n].kind if n < len(args) else args[-1].kind
        else:
            token = _expect(tokens, token, ")")
            last = len(args) - 1
            if args[last].kind in _VARIADIC:
                values[last:] = [tuple(values[last:])]
            try:
                node = cls(*values)
            except ValidationError:
                node = None
                for arg, item, fault in _faults(SPECS[cls], values):
                    # the value at fault is an integer: at place p of n, the (n - p)-th last read
                    faults.append(f"offset {offsets[args.index(arg) + item - n] + 1}: {fault}")
            if not stack:
                break
            cls, args, values = stack.pop()
            values.append(node)
            continue
        if kind in (INT, INTS):
            if token[1] is None:
                raise _error(token, "an integer")
            try:
                values.append(int(token[1]))
            except ValueError:  # longer than the interpreter converts
                limit = f"an integer of at most {sys.get_int_max_str_digits()} digits"
                raise TopologyParseError(token.start(1) + 1, limit, f"{len(token[1])} digits") from None
            offsets.append(token.start(1))
            token = next(tokens)
        else:
            stack.append((cls, args, values))
            cls, args, token = _keyword(tokens, token)
            values = []
    if token.lastindex is not None:
        raise _error(token, "end of input")
    if faults:
        raise ValidationError("; ".join(faults))
    return node


_SIZE_OPS = {cls: spec.size for cls, spec in SPECS.items()}


def estimated_size(expr: TopologyExpr) -> int:
    """Exact vertex count of the built graph, without building it."""
    return fold(expr, _SIZE_OPS)


def _render_node(keyword: str, *values: object) -> str:
    """``keyword(...)`` of the field values: integers in full, rendered
    sub-expressions as they are, a variadic field's items in turn."""
    parts: list[str] = []
    for value in values:
        for item in value if isinstance(value, (tuple, list)) else (value,):
            parts.append(item if isinstance(item, str) else decimal_text(item))
    return f"{keyword}({','.join(parts)})"


_RENDER_OPS = {cls: partial(_render_node, spec.keyword) for cls, spec in SPECS.items()}


def render(expr: TopologyExpr) -> str:
    """Canonical text form. ``parse(render(e))`` reproduces ``e`` when every
    integer in ``e`` has at most ``sys.get_int_max_str_digits()`` digits.
    A longer one, which only a node built in Python can hold, is written in
    full all the same."""
    return fold(expr, _RENDER_OPS)
