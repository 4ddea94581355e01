"""Network-performance indicators derived from transmission triples.

All arithmetic is exact: means are :class:`fractions.Fraction`, comparisons
never touch floating point. Decimal strings shown to humans are rendered
downstream and never feed back into ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .formulas import TransmissionTriple


@dataclass(frozen=True)
class TopologyReport:
    """Per-expression summary used for comparison and rendering."""

    expression_text: str
    triple: TransmissionTriple
    mean_all: Fraction
    mean_distinct: Fraction | None
    expected_messages: Fraction | None


def summarize(
    expression_text: str,
    triple: TransmissionTriple,
    rate: Fraction | None = None,
    time: Fraction | None = None,
) -> TopologyReport:
    """Derive mean distances and, when rate and time are both given, the
    expected message volume rate * time * delta.

    ``mean_distinct`` is absent for a single vertex (no distinct pairs).
    """
    if rate is not None and rate < 0:
        raise ValidationError(f"rate must be nonnegative, got {rate}")
    if time is not None and time < 0:
        raise ValidationError(f"time must be nonnegative, got {time}")
    n = triple.size
    mean_all = Fraction(triple.delta, n * n)
    mean_distinct = Fraction(triple.delta, n * (n - 1)) if n >= 2 else None
    expected = None
    if rate is not None and time is not None:
        expected = rate * time * triple.delta
    return TopologyReport(expression_text, triple, mean_all, mean_distinct, expected)


#: Exact ranking key of each ``compare_rank`` sort name.
SORT_KEYS = {
    "mean_distinct": lambda r: r.mean_distinct if r.mean_distinct is not None else Fraction(0),
    "delta": lambda r: r.triple.delta,
    "size": lambda r: r.triple.size,
}


def compare_rank(reports: list[TopologyReport], key: str) -> list[TopologyReport]:
    """Stable ascending sort by an exact key; ties keep input order.

    A missing ``mean_distinct`` (single-vertex topology) sorts first.
    """
    if not reports:
        raise ValidationError("nothing to rank")
    if key not in SORT_KEYS:
        raise ValidationError(f"sort key must be one of {tuple(SORT_KEYS)}, got {key!r}")
    return sorted(reports, key=SORT_KEYS[key])
