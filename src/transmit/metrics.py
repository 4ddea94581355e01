"""Network-performance indicators derived from transmission triples.

All arithmetic is exact: means are :class:`fractions.Fraction`, comparisons
never touch floating point. Decimal strings shown to humans are rendered
downstream and never feed back into ordering.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError, decimal_text
from .formulas import TransmissionTriple


def summarize(
    expression_text: str,
    triple: TransmissionTriple,
    rate: Fraction | None = None,
    time: Fraction | None = None,
) -> dict[str, str | int | Fraction | None]:
    """The report of one expression: its fields by name, in the order the
    CLI prints them.

    ``expr``, ``size``, ``delta`` and ``delta0`` restate the text and the
    triple; ``mean_all`` and ``mean_distinct`` are delta over the ordered
    pairs of all and of distinct vertices; ``expected_messages`` is
    rate * time * delta. A missing value is ``None``: ``mean_distinct`` for a
    single vertex (no distinct pairs), ``expected_messages`` unless rate and
    time are both given.
    """
    for name, value in (("rate", rate), ("time", time)):
        if value is not None and value < 0:
            # str(value) refuses a part longer than the interpreter converts
            shown = decimal_text(value.numerator)
            if value.denominator != 1:
                shown += "/" + decimal_text(value.denominator)
            raise ValidationError(f"{name} must be nonnegative, got {shown}")
    n, delta = triple.size, triple.delta
    return {
        "expr": expression_text,
        "size": n,
        "delta": delta,
        "delta0": triple.delta0,
        "mean_all": Fraction(delta, n * n),
        "mean_distinct": Fraction(delta, n * (n - 1)) if n >= 2 else None,
        "expected_messages": rate * time * delta if rate is not None and time is not None else None,
    }


#: The report fields ``compare_rank`` can sort by.
SORT_KEYS = ("mean_distinct", "delta", "size")


def compare_rank(reports: list[dict], key: str) -> list[dict]:
    """Stable ascending sort of reports by the exact value of one field;
    ties keep input order and a missing value (``None``, the
    ``mean_distinct`` of a single vertex) sorts first."""
    if not reports:
        raise ValidationError("nothing to rank")
    if key not in SORT_KEYS:
        raise ValidationError(f"sort key must be one of {SORT_KEYS}, got {key!r}")
    return sorted(reports, key=lambda r: (r[key] is not None, r[key]))
