"""Step-by-step recurrences for perfect trees and rooted powers, and the
per-axis sum for meshes.

The package computes trees and powers by the paper's closed forms. These
build the same values one level or one exponent step at a time: the tree
from the wedge and attach rules, the power from the integer recurrence for
its coefficients. Neither divides, so a test comparing them with the closed
forms compares independent routes. They cost one step per unit of depth
or exponent: keep the parameters that reach them modest.

The package folds a mesh's triple pairwise with the Cartesian-product rule;
``mesh_axis_sum`` writes each axis's share out directly, at O(k^2) cost for
k axes.
"""

from __future__ import annotations

import math

from transmit.formulas import TransmissionTriple, attach_root_triple, exact_div, wedge_triple

SINGLE_VERTEX = TransmissionTriple(1, 0, 0)


def tree_recurrence(arity: int, depth: int) -> TransmissionTriple:
    """Perfect tree, by iterating the level recurrence from a single vertex.

    Each level wedges ``arity`` pendant-rooted copies of the previous tree;
    this is integer-only and valid for arity 1 (a path) as well.
    """
    t = SINGLE_VERTEX
    for _ in range(depth):
        t = wedge_triple([attach_root_triple(t)] * arity)
    return t


def power_coefficients(n: int, k: int) -> tuple[int, int]:
    """Coefficients (a_k, b_k) with delta(G^k) = a_k * delta + b_k * delta0,
    where n = |G|.

    Computed by the recurrence a_1 = 1, a_{k+1} = n^k + n^2 a_k and
    b_1 = 0, b_{k+1} = 2 n^{k+1} (n^k - 1) + n^2 b_k, which is integer-only
    and valid at n = 1.
    """
    a, b = 1, 0
    for j in range(1, k):
        a = n**j + n**2 * a
        b = 2 * n ** (j + 1) * (n**j - 1) + n**2 * b
    return a, b


def power_recurrence(base: TransmissionTriple, k: int) -> TransmissionTriple:
    """k-fold rooted product of a graph with itself, from the recurrence's
    coefficients."""
    n = base.size
    a, b = power_coefficients(n, k)
    return TransmissionTriple(n**k, a * base.delta + b * base.delta0, k * n ** (k - 1) * base.delta0)


def mesh_axis_sum(dims: tuple[int, ...]) -> TransmissionTriple:
    """Mesh (Cartesian product of paths), rooted at a corner.

    delta sums, per axis, the path pair-distance total scaled by the
    squared sizes of the other axes; delta0 is the corner's coordinatewise
    distance sum.
    """
    size = math.prod(dims)
    delta = 0
    delta0 = 0
    for axis, r in enumerate(dims):
        others = 1
        for other_axis, s in enumerate(dims):
            if other_axis != axis:
                others *= s
        delta += others**2 * exact_div(r**3 - r, 3)
        delta0 += others * (r * (r - 1) // 2)
    return TransmissionTriple(size, delta, delta0)
