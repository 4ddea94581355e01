"""Deterministic expression corpora shared by the test suite.

The oracle corpus lists every expression whose closed-form triple gets
checked against the brute-force BFS oracle; it is sized so a full pass
(including the CLI pass over the same list) stays well under a minute.
The random generator is seeded, so corpora are identical across runs.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from transmit import dsl
from transmit.dsl import TopologyExpr

# Every mesh shape fed to the oracle: exhaustive over small sides, then a
# spread of larger 1-3 dimensional shapes up to the 4096-vertex product bound.
MESH_DIMS: list[tuple[int, ...]] = [
    dims
    for r in (1, 2, 3)
    for dims in combinations_with_replacement((1, 2, 3, 4), r)
] + [
    (5,), (7,), (16,), (64,), (128,), (512,),
    (5, 5), (6, 7), (8, 8), (16, 16), (32, 32), (64, 64),
    (2, 3, 4), (3, 4, 5), (4, 4, 4), (5, 5, 5), (2, 8, 16), (8, 8, 8),
]

POWER_BASES = [
    "complete(2)", "complete(3)", "complete(4)",
    "star(2)", "star(3)",
    "cycle(4)", "cycle(5)",
]

ORACLE_RANDOM_SEED = 987_654_321
ORACLE_RANDOM_COUNT = 200
ORACLE_RANDOM_SIZE_BOUND = 120

PROPERTY_SEED = 24_601
PROPERTY_COUNT = 200


def deterministic_corpus() -> list[str]:
    """The fixed (non-random) part of the oracle-equivalence corpus."""
    exprs: list[str] = []
    exprs += [f"tree({a},{d})" for a in (2, 3, 4) for d in range(5)]
    exprs += [f"tree(1,{d})" for d in range(21)]
    exprs += [f"cycle({n})" for n in range(3, 65)]
    exprs += [f"complete({n})" for n in range(1, 65)]
    exprs += [f"star({n})" for n in range(1, 65)]
    exprs += [f"path({n})" for n in range(1, 65)]
    exprs += ["mesh(" + ",".join(map(str, dims)) + ")" for dims in MESH_DIMS]
    for base in POWER_BASES:
        for k in (1, 2, 3):
            expr = f"power({base},{k})"
            if dsl.estimated_size(dsl.parse(expr)) < 10_000:
                exprs.append(expr)
    return exprs


def oracle_corpus() -> list[str]:
    """Full corpus: deterministic families plus 200 seeded random expressions."""
    random_part = random_expressions(
        ORACLE_RANDOM_COUNT,
        seed=ORACLE_RANDOM_SEED,
        size_bound=ORACLE_RANDOM_SIZE_BOUND,
    )
    return deterministic_corpus() + [dsl.render(e) for e in random_part]


def _random_primitive(rng: random.Random) -> TopologyExpr:
    kind = rng.choice(("complete", "cycle", "star", "path", "mesh", "tree"))
    if kind == "complete":
        return dsl.Complete(rng.randint(1, 6))
    if kind == "cycle":
        return dsl.Cycle(rng.randint(3, 8))
    if kind == "star":
        return dsl.Star(rng.randint(1, 6))
    if kind == "path":
        return dsl.Path(rng.randint(1, 8))
    if kind == "mesh":
        return dsl.Mesh(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
    return dsl.Tree(rng.randint(1, 3), rng.randint(0, 3))


def _random_expr(rng: random.Random, depth: int) -> TopologyExpr:
    if depth <= 0 or rng.random() < 0.4:
        return _random_primitive(rng)
    kind = rng.choice(("wedge", "rprod", "power", "attach"))
    if kind == "wedge":
        count = rng.randint(2, 3)
        return dsl.Wedge(tuple(_random_expr(rng, depth - 1) for _ in range(count)))
    if kind == "rprod":
        return dsl.RootedProduct(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "power":
        return dsl.Power(_random_expr(rng, depth - 1), rng.randint(1, 3))
    return dsl.Attach(_random_expr(rng, depth - 1))


def random_expressions(
    count: int,
    seed: int,
    max_depth: int = 4,
    size_bound: int | None = None,
) -> list[TopologyExpr]:
    """Seeded random expressions of nesting depth <= max_depth.

    Candidates whose exact vertex count exceeds ``size_bound`` are redrawn,
    which keeps the sequence deterministic for a given seed.
    """
    rng = random.Random(seed)
    out: list[TopologyExpr] = []
    while len(out) < count:
        expr = _random_expr(rng, max_depth)
        if size_bound is not None and dsl.estimated_size(expr) > size_bound:
            continue
        out.append(expr)
    return out
