"""The benchmark's own topology expressions: text, size and expected triple.

Expressions are plain tuples, ``(keyword, *args)``, so that generating a
workload never calls into the package under test. ``triple`` computes the
expected (size, delta, delta0) by closed forms written here, independently
of ``transmit.formulas``, which iterates recurrences for trees and powers.

The oracle corpus is generated here too, by the same rules and the same
random draws as ``tests/expr_corpus.py``: with the default seed both give
the same 563 texts (``test_perfbench.py`` checks that), and an edit to the
test corpus does not move the benchmark.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

DEFAULT_SEED = 987_654_321


def render(e: tuple) -> str:
    kind = e[0]
    if kind == "mesh":
        return "mesh(" + ",".join(map(str, e[1])) + ")"
    if kind == "tree":
        return f"tree({e[1]},{e[2]})"
    if kind == "wedge":
        return "wedge(" + ",".join(render(c) for c in e[1]) + ")"
    if kind == "rprod":
        return f"rprod({render(e[1])},{render(e[2])})"
    if kind == "power":
        return f"power({render(e[1])},{e[2]})"
    if kind == "attach":
        return f"attach({render(e[1])})"
    return f"{kind}({e[1]})"


def size(e: tuple) -> int:
    return triple(e)[0]


def _tree(n: int, k: int) -> tuple[int, int, int]:
    if k == 0:
        return 1, 0, 0
    if n == 1:
        return _path(k + 1)
    den = (n - 1) ** 2
    s = (n ** (k + 1) - 1) // (n - 1)
    delta = 2 * n ** (k + 1) * (k * n ** (k + 1) + k - 2 * n * ((n**k - 1) // (n - 1))) // den
    delta0 = (k * n ** (k + 2) - (k + 1) * n ** (k + 1) + n) // den
    return s, delta, delta0


def _path(n: int) -> tuple[int, int, int]:
    return n, (n**3 - n) // 3, n * (n - 1) // 2


def _mesh(dims: tuple[int, ...]) -> tuple[int, int, int]:
    s = 1
    for r in dims:
        s *= r
    delta = delta0 = 0
    for r in dims:
        others = s // r
        delta += others**2 * (r**3 - r) // 3
        delta0 += others * r * (r - 1) // 2
    return s, delta, delta0


def _power(base: tuple[int, int, int], k: int) -> tuple[int, int, int]:
    n, d, d0 = base
    if n == 1:
        return base
    a = n ** (k - 1) * ((n**k - 1) // (n - 1))
    b = 2 * (k - 1) * n ** (2 * k - 1) - 2 * n**k * ((n ** (k - 1) - 1) // (n - 1))
    return n**k, a * d + b * d0, k * n ** (k - 1) * d0


def triple(e: tuple) -> tuple[int, int, int]:
    """Expected (size, delta, delta0) of a topology expression."""
    kind = e[0]
    if kind == "complete":
        n = e[1]
        return n, n * (n - 1), n - 1
    if kind == "cycle":
        n = e[1]
        return n, (n**3 - n % 2 * n) // 4, n * n // 4
    if kind == "star":
        n = e[1]
        return n + 1, 2 * n * n, n
    if kind == "path":
        return _path(e[1])
    if kind == "mesh":
        return _mesh(e[1])
    if kind == "tree":
        return _tree(e[1], e[2])
    if kind == "wedge":
        parts = [triple(c) for c in e[1]]
        s = sum(p[0] for p in parts) - (len(parts) - 1)
        delta = sum(p[1] + 2 * p[2] * (s - p[0]) for p in parts)
        return s, delta, sum(p[2] for p in parts)
    if kind == "rprod":
        (gs, gd, g0), (hs, hd, h0) = triple(e[1]), triple(e[2])
        return gs * hs, gs * hd + 2 * gs * (gs - 1) * hs * h0 + hs * hs * gd, hs * g0 + gs * h0
    if kind == "power":
        return _power(triple(e[1]), e[2])
    if kind == "attach":
        s, d, d0 = triple(e[1])
        return s + 1, d + 2 * d0 + 2 * s, d0 + s
    raise ValueError(f"unknown expression kind {kind!r}")


MESH_DIMS: list[tuple[int, ...]] = [
    dims for r in (1, 2, 3) for dims in combinations_with_replacement((1, 2, 3, 4), r)
] + [
    (5,), (7,), (16,), (64,), (128,), (512,),
    (5, 5), (6, 7), (8, 8), (16, 16), (32, 32), (64, 64),
    (2, 3, 4), (3, 4, 5), (4, 4, 4), (5, 5, 5), (2, 8, 16), (8, 8, 8),
]

POWER_BASES = [
    ("complete", 2), ("complete", 3), ("complete", 4),
    ("star", 2), ("star", 3),
    ("cycle", 4), ("cycle", 5),
]


def deterministic_corpus() -> list[tuple]:
    exprs: list[tuple] = [("tree", a, d) for a in (2, 3, 4) for d in range(5)]
    exprs += [("tree", 1, d) for d in range(21)]
    exprs += [("cycle", n) for n in range(3, 65)]
    exprs += [(kind, n) for kind in ("complete", "star", "path") for n in range(1, 65)]
    exprs += [("mesh", dims) for dims in MESH_DIMS]
    exprs += [
        ("power", base, k)
        for base in POWER_BASES
        for k in (1, 2, 3)
        if size(base) ** k < 10_000
    ]
    return exprs


def _random_primitive(rng: random.Random) -> tuple:
    kind = rng.choice(("complete", "cycle", "star", "path", "mesh", "tree"))
    if kind == "complete":
        return ("complete", rng.randint(1, 6))
    if kind == "cycle":
        return ("cycle", rng.randint(3, 8))
    if kind == "star":
        return ("star", rng.randint(1, 6))
    if kind == "path":
        return ("path", rng.randint(1, 8))
    if kind == "mesh":
        return ("mesh", tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
    return ("tree", rng.randint(1, 3), rng.randint(0, 3))


def _random_expr(rng: random.Random, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.4:
        return _random_primitive(rng)
    kind = rng.choice(("wedge", "rprod", "power", "attach"))
    if kind == "wedge":
        count = rng.randint(2, 3)
        return ("wedge", tuple(_random_expr(rng, depth - 1) for _ in range(count)))
    if kind == "rprod":
        return ("rprod", _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "power":
        return ("power", _random_expr(rng, depth - 1), rng.randint(1, 3))
    return ("attach", _random_expr(rng, depth - 1))


def random_expressions(count: int, seed: int, size_bound: int, max_depth: int = 4) -> list[tuple]:
    """Seeded random expressions; oversized candidates are redrawn."""
    rng = random.Random(seed)
    out: list[tuple] = []
    while len(out) < count:
        e = _random_expr(rng, max_depth)
        if size(e) <= size_bound:
            out.append(e)
    return out


def oracle_corpus(seed: int = DEFAULT_SEED) -> list[tuple]:
    """The 363 fixed family members plus 200 random expressions of at most 120 vertices."""
    return deterministic_corpus() + random_expressions(200, seed, size_bound=120)
