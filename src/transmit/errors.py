"""Exception types shared across the package, and the integer formatting
their messages and the command line share."""

from __future__ import annotations

import decimal


def decimal_text(n: int) -> str:
    """Decimal digits of ``n`` at any length.

    ``str(n)`` refuses ints longer than ``sys.get_int_max_str_digits()``;
    the conversion through :class:`decimal.Decimal` has no such limit and,
    unlike ``sys.set_int_max_str_digits``, changes nothing process-wide.
    """
    return str(decimal.Decimal(n))


class TransmitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TransmitError, ValueError):
    """A parameter or expression violates its documented range."""


class ConnectivityError(TransmitError):
    """A transmission operation received a disconnected graph.

    Builders only emit connected graphs, so hitting this signals a
    construction bug rather than a user mistake.
    """


class ResourceLimitError(TransmitError):
    """A construction or oracle operation would exceed the vertex cap."""

    def __init__(self, estimated_size: int, limit: int):
        self.estimated_size = estimated_size
        self.limit = limit
        super().__init__(
            f"estimated size {decimal_text(estimated_size)} exceeds the vertex cap"
            f" of {decimal_text(limit)}"
        )


class InexactDivisionError(TransmitError, ArithmeticError):
    """A closed-form division left a remainder.

    Every division in the implemented formulas is exact over the integers,
    so a nonzero remainder means a formula was transcribed wrong.
    """


class TopologyParseError(TransmitError):
    """Topology text failed to parse.

    Offsets are 1-based byte positions; end of input is reported at
    ``len(text) + 1``.
    """

    def __init__(self, byte_offset: int, expected: str, found: str):
        self.byte_offset = byte_offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"parse error at offset {byte_offset}: expected {expected}, found {found}"
        )
