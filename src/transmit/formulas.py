"""Exact closed-form transmission arithmetic, compositional over expressions.

Every closed form returns a :class:`TransmissionTriple` of Python integers:
the vertex count, the transmission delta (sum of distances over ordered
vertex pairs) and the root transmission delta0 (sum of distances from the
root). No graph is ever materialized here, so these scale far beyond what
the BFS oracle can check directly.

Trees and powers are computed by the paper's closed forms, a fixed number
of big-integer operations whatever the depth or exponent. Those forms
divide by powers of n - 1, so a unary tree (a path) and a power of one
vertex (that vertex) take their own exact forms. A mesh folds the
Cartesian-product rule over its axes. The level and exponent recurrences
and the per-axis mesh sum are kept in the test suite as independent
references. Every division is asserted exact: a remainder means a formula
was transcribed wrong, never a rounding issue.
"""

from __future__ import annotations

from functools import reduce

from . import dsl
from ._frozen import Frozen
from .dsl import TopologyExpr
from .errors import InexactDivisionError, ResourceLimitError, ValidationError, decimal_text

#: The most terms times arity bits ``gf_series`` computes. Every valid arity
#: has at least 2 bits, so it computes at most 1000 terms: 1000 of arity 2 or
#: 3 take a fraction of a second, 2000 several seconds.
MAX_SERIES_SIZE = 2000


def exact_div(numerator: int, denominator: int) -> int:
    """Integer division that insists on a zero remainder."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder != 0:
        raise InexactDivisionError(
            f"{decimal_text(numerator)} is not divisible by {decimal_text(denominator)}"
        )
    return quotient


class TransmissionTriple(Frozen):
    """(|G|, delta(G), delta0(G)) for some connected rooted graph G.

    Construction enforces the identities every connected rooted graph
    satisfies, so an invalid triple cannot circulate.
    """

    __slots__ = ("size", "delta", "delta0")

    @staticmethod
    def _check(size: int, delta: int, delta0: int) -> None:
        if size < 1:
            raise ValidationError(f"size must be >= 1, got {decimal_text(size)}")
        if delta < 0 or delta0 < 0:
            raise ValidationError("transmissions must be nonnegative")
        if delta % 2 != 0:
            raise ValidationError(f"delta must be even, got {decimal_text(delta)}")
        if size >= 2 and delta < size * (size - 1):
            raise ValidationError(
                f"delta {decimal_text(delta)} below the distinct-pair floor for size {decimal_text(size)}"
            )
        if 2 * delta0 > delta:
            raise ValidationError(f"delta0 {decimal_text(delta0)} exceeds half of delta {decimal_text(delta)}")
        if size >= 2 and delta0 < size - 1:
            raise ValidationError(f"delta0 {decimal_text(delta0)} below size - 1 = {decimal_text(size - 1)}")


def complete_triple(n: int) -> TransmissionTriple:
    return TransmissionTriple(n, n * (n - 1), n - 1)


def cycle_triple(n: int) -> TransmissionTriple:
    if n % 2 == 1:
        delta = exact_div(n**3 - n, 4)
    else:
        delta = exact_div(n**3, 4)
    return TransmissionTriple(n, delta, n**2 // 4)


def star_triple(n: int) -> TransmissionTriple:
    """Star with n leaves, rooted at the center."""
    return TransmissionTriple(n + 1, 2 * n**2, n)


def path_triple(n: int) -> TransmissionTriple:
    """Path with n vertices, rooted at an endpoint."""
    return TransmissionTriple(n, exact_div(n**3 - n, 3), n * (n - 1) // 2)


def cartesian_triple(g: TransmissionTriple, h: TransmissionTriple) -> TransmissionTriple:
    """Cartesian product, rooted at (root of g, root of h); distances add
    coordinatewise."""
    return TransmissionTriple(
        g.size * h.size,
        h.size**2 * g.delta + g.size**2 * h.delta,
        h.size * g.delta0 + g.size * h.delta0,
    )


def mesh_triple(dims: tuple[int, ...]) -> TransmissionTriple:
    """Mesh: the Cartesian product of paths, rooted at a corner."""
    return reduce(cartesian_triple, map(path_triple, dims))


def wedge_triple(parts: list[TransmissionTriple]) -> TransmissionTriple:
    """One-point union of the parts at their roots.

    delta0 adds up; each part's delta gains cross-part paths through the
    shared root, counted as 2 * delta0_i * (other parts' non-root vertices).
    """
    m = len(parts)
    size = sum(p.size for p in parts) - (m - 1)
    delta0 = sum(p.delta0 for p in parts)
    delta = sum(p.delta for p in parts)
    total = sum(p.size for p in parts)
    for p in parts:
        delta += 2 * p.delta0 * (total - p.size - (m - 1))
    return TransmissionTriple(size, delta, delta0)


def attach_root_triple(t: TransmissionTriple) -> TransmissionTriple:
    """Pendant vertex added at the root; the pendant is the new root.

    Every distance from the new root is one hop longer than from the old
    root, and the pendant adds one more vertex to reach.
    """
    return TransmissionTriple(
        t.size + 1,
        t.delta + 2 * t.delta0 + 2 * t.size,
        t.delta0 + t.size,
    )


def rooted_product_triple(
    g: TransmissionTriple, h: TransmissionTriple
) -> TransmissionTriple:
    """Rooted product: one copy of h at its root on every vertex of g."""
    size = g.size * h.size
    delta = g.size * h.delta + 2 * g.size * (g.size - 1) * h.size * h.delta0 + h.size**2 * g.delta
    delta0 = h.size * g.delta0 + g.size * h.delta0
    return TransmissionTriple(size, delta, delta0)


def tree_triple(arity: int, depth: int) -> TransmissionTriple:
    """Perfect tree, by the closed forms for delta and delta0.

    Both divide by (arity - 1)^2, so arity 1 takes its own exact form: the
    unary tree of depth d is the path of d + 1 vertices.
    """
    if arity == 1:
        return path_triple(depth + 1)
    n, k = arity, depth
    den = (n - 1) ** 2
    top = n ** (k + 1)  # the leaf count times n
    internal = dsl.tree_size(n, k - 1)
    delta = exact_div(2 * top * (k * top + k - 2 * n * internal), den)
    delta0 = exact_div(k * n * top - (k + 1) * top + n, den)
    return TransmissionTriple(dsl.tree_size(n, k), delta, delta0)


def power_triple(base: TransmissionTriple, k: int) -> TransmissionTriple:
    """k-fold rooted product of a graph with itself.

    With n = |G|, delta(G^k) = a_k * delta + b_k * delta0 for the closed-form
    coefficients a_k = n^(k-1) (n^k - 1)/(n - 1) and
    b_k = 2 (k - 1) n^(2k-1) - 2 n^k (n^(k-1) - 1)/(n - 1). They divide by
    n - 1, so a one-vertex base takes its own exact form: it is its own power.
    """
    n = base.size
    if n == 1:
        return base
    below = n ** (k - 1)
    size = below * n
    a = below * exact_div(size - 1, n - 1)
    b = 2 * (k - 1) * below * size - 2 * size * exact_div(below - 1, n - 1)
    delta = a * base.delta + b * base.delta0
    delta0 = k * below * base.delta0
    return TransmissionTriple(size, delta, delta0)


def gf_series(arity: int, terms: int) -> tuple[int, ...]:
    """Tree transmissions as generating-series coefficients: the k-th is the
    delta of the depth-(k+1) perfect tree.

    The series 2 n^2 / ((1 - nx)^2 (1 - n^2 x)^2) generates them; the
    coefficient of x^k is computed by exact convolution of the two factor
    series (i+1) n^i and (j+1) n^{2j}. That costs about terms² times the
    arity's bits, so after the arity and the term count are checked, terms
    times the arity's bit length above :data:`MAX_SERIES_SIZE` is refused
    with :class:`ResourceLimitError` before any work.
    """
    if arity < 2:
        raise ValidationError(f"series arity must be >= 2, got {decimal_text(arity)}")
    if terms < 1:
        raise ValidationError(f"series needs at least one term, got {decimal_text(terms)}")
    size = terms * arity.bit_length()
    if size > MAX_SERIES_SIZE:
        raise ResourceLimitError(size, MAX_SERIES_SIZE, quantity="terms times arity bits", cap="series size limit")
    n = arity
    first = [(i + 1) * n**i for i in range(terms)]
    second = [(j + 1) * n ** (2 * j) for j in range(terms)]
    return tuple(
        2 * n**2 * sum(first[i] * second[k - i] for i in range(k + 1))
        for k in range(terms)
    )


def evaluate_expr(expr: TopologyExpr) -> TransmissionTriple:
    """Bottom-up closed-form evaluation of an expression, each node by the
    closed form its :data:`~transmit.dsl.SPECS` row names."""
    return dsl.fold(expr, {cls: globals()[spec.triple] for cls, spec in dsl.SPECS.items()})
