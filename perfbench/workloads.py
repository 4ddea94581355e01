"""Workload generation: argv lists for ``transmit.cli.main`` and their checks.

Each op carries the output it must produce, computed by the closed forms in
``exprs`` rather than by the engine the op exercises. Expected integers are
turned into decimal text in 4000-digit chunks, so values past Python's
4300-digit ``int``/``str`` limit can be compared without lifting the limit
(the package runs in this interpreter, and lifting it would hide the
failures the limit causes there).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from exprs import oracle_corpus, render, triple

WORKLOADS = ("closed_form", "oracle_corpus", "oracle_dense")

# Command whose fresh-process wall time is the workload's setup_s.
SMALLEST_COMMAND = {
    "closed_form": ["eval", "path(2)"],
    "oracle_corpus": ["verify", "path(2)"],
    "oracle_dense": ["verify", "path(2)"],
}

LADDER = (100, 316, 1000, 3162, 10000)  # 10^2 .. 10^4 in half decades

_CHUNK_DIGITS = 4000
_CHUNK = 10**_CHUNK_DIGITS


def decimal_text(n: int) -> str:
    """``str(n)`` for a nonnegative int of any length, without the digit limit."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    return str(n) + "".join(reversed(chunks))


@dataclass
class Op:
    """One CLI call: ``main(argv)`` must return 0 and print what ``check`` wants."""

    argv: list[str]
    kind: str
    expected: dict = field(default_factory=dict)
    vertices: int = 0  # built graph size, for the oracle ops

    @property
    def label(self) -> str:
        text = " ".join(self.argv)
        return text if len(text) <= 60 else text[:57] + "..."

    def check(self, out: str) -> str | None:
        """None when the output is right, else why it is wrong."""
        try:
            return _CHECKS[self.kind](self.expected, out.splitlines())
        except (IndexError, KeyError, ValueError) as exc:
            return f"unreadable output ({exc!r})"


def _triple_text(t: tuple[int, int, int]) -> dict:
    return dict(zip(("size", "delta", "delta0"), map(decimal_text, t)))


def _check_eval(want: dict, lines: list[str]) -> str | None:
    rows = dict(line.split(None, 1) for line in lines)
    for key, value in want.items():
        if rows.get(key) != value:
            return f"{key} differs"
    return None


def _check_verify(want: dict, lines: list[str]) -> str | None:
    rows = {key: values for key, *values in map(str.split, lines[2:5])}
    for key, value in want.items():
        if rows.get(key) != [value, value]:
            return f"{key} differs"
    return None if lines[5:] == ["PASS"] else "no PASS line"


def _check_hist(want: dict, lines: list[str]) -> str | None:
    counts = [tuple(map(int, line.split())) for line in lines[1:-1]]
    key, delta = lines[-1].split()
    if key != "delta" or delta != want["delta"]:
        return "delta differs"
    if sum(c for _, c in counts) != want["pairs"] or sum(d * c for d, c in counts) != int(delta):
        return "histogram does not sum to the pairs and delta"
    return None


def _check_series(want: dict, lines: list[str]) -> str | None:
    rows = [line.split() for line in lines[1:]]
    if len(rows) != len(want["terms"]):
        return f"{len(rows)} rows"
    for (k, coefficient, recurrence, match), term in zip(rows, want["terms"]):
        if coefficient != term or recurrence != term or match != "yes":
            return f"term {k} differs"
    return None


def _check_compare(want: dict, lines: list[str]) -> str | None:
    rows = [line.split(None, 4) for line in lines[1:]]
    got = [(expr, delta) for _, expr, _, delta, _ in rows]
    return None if got == want["ranking"] else "ranking differs"


_CHECKS = {
    "eval": _check_eval,
    "verify": _check_verify,
    "hist": _check_hist,
    "series": _check_series,
    "compare": _check_compare,
}


def eval_op(e: tuple) -> Op:
    text = render(e)
    return Op(["eval", text], "eval", {"expr": text, **_triple_text(triple(e))})


def verify_op(e: tuple) -> Op:
    t = triple(e)
    return Op(["verify", render(e)], "verify", _triple_text(t), vertices=t[0])


def hist_op(e: tuple) -> Op:
    t = triple(e)
    return Op(["hist", render(e)], "hist", {"delta": decimal_text(t[1]), "pairs": t[0] ** 2}, vertices=t[0])


def series_op(arity: int, terms: int) -> Op:
    want = [decimal_text(triple(("tree", arity, k + 1))[1]) for k in range(terms)]
    return Op(["series", "--arity", str(arity), "--terms", str(terms)], "series", {"terms": want})


def compare_op(es: list[tuple]) -> Op:
    def mean_distinct(e: tuple) -> Fraction:
        n, delta, _ = triple(e)
        return Fraction(delta, n * (n - 1)) if n >= 2 else Fraction(0)

    ranked = sorted(es, key=mean_distinct)
    ranking = [(render(e), decimal_text(triple(e)[1])) for e in ranked]
    return Op(["compare", *map(render, es)], "compare", {"ranking": ranking})


def _small_primitive(rng: random.Random, top: int) -> tuple:
    kind = rng.choice(("complete", "cycle", "star", "path", "mesh", "tree"))
    if kind == "cycle":
        return ("cycle", rng.randint(3, top))
    if kind == "mesh":
        return ("mesh", (rng.randint(1, 12), rng.randint(1, 12)))
    if kind == "tree":
        return ("tree", rng.randint(2, 4), rng.randint(0, 5))
    return (kind, rng.randint(1, top))


def _nest(kind: str, depth: int, inner: tuple) -> tuple:
    for _ in range(depth):
        inner = (kind, inner)
    return inner


def _jitter(rng: random.Random, center: int) -> int:
    return rng.randint(center * 9 // 10, center * 11 // 10)


def closed_form_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for d in LADDER:
        ops += [eval_op(("tree", 2, d)), eval_op(("power", ("complete", 3), d))]
    for d in LADDER[:-1]:
        ops += [eval_op(("tree", 3, d)), eval_op(("power", ("cycle", 5), d))]
    ops.append(eval_op(("wedge", tuple(_small_primitive(rng, 60) for _ in range(2000)))))
    ops.append(eval_op(_nest("attach", 400, ("tree", 2, rng.randint(6, 10)))))
    chain = _small_primitive(rng, 4)
    for _ in range(149):
        chain = ("rprod", chain, _small_primitive(rng, 4))
    ops.append(eval_op(chain))
    ops.append(series_op(3, 200))
    templates = (
        lambda: ("tree", 2, _jitter(rng, 800)),
        lambda: ("tree", 3, _jitter(rng, 500)),
        lambda: ("power", ("complete", rng.randint(3, 5)), _jitter(rng, 300)),
        lambda: ("power", ("cycle", rng.randint(4, 7)), _jitter(rng, 250)),
        lambda: ("mesh", (_jitter(rng, 800), _jitter(rng, 800), _jitter(rng, 800))),
        lambda: ("rprod", ("tree", 2, _jitter(rng, 300)), ("power", ("star", 3), _jitter(rng, 150))),
    )
    ops.append(compare_op([make() for make in templates for _ in range(3)]))
    return ops


def oracle_corpus_ops(seed: int) -> list[Op]:
    return [verify_op(e) for e in oracle_corpus(seed)]


DENSE_EXPRS = [("complete", n) for n in (100, 150, 200, 250)] + [
    ("wedge", (("complete", 100),) * 3),
    ("rprod", ("complete", 20), ("complete", 20)),
    _nest("attach", 400, ("path", 2)),
]


def oracle_dense_ops(seed: int) -> list[Op]:
    ops = [make(e) for e in DENSE_EXPRS for make in (verify_op, hist_op)]
    random.Random(seed).shuffle(ops)
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    return {
        "closed_form": closed_form_ops,
        "oracle_corpus": oracle_corpus_ops,
        "oracle_dense": oracle_dense_ops,
    }[workload](seed)
