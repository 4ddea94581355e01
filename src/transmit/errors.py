"""Exception types shared across the package, and the integer formatting
their messages and the command line share."""

from __future__ import annotations

import decimal


#: Bit length below which ``decimal_text`` formats an int directly: under
#: 2000 bits is at most 603 digits, below the 640-digit floor of
#: ``sys.set_int_max_str_digits``, so no caller's limit can refuse it.
_SHORT_BITS = 2000

#: Bit length above which ``decimal_text`` splits: ``decimal.Decimal(n)`` is
#: quadratic in the length of ``n``, and splitting measured faster from here.
_SPLIT_BITS = 40_000

#: Exact integer arithmetic on decimals, whatever the caller's context.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact]
)


def decimal_text(n: int) -> str:
    """Decimal digits of ``n`` at any length, in time close to linear in it.

    ``str(n)`` refuses ints longer than ``sys.get_int_max_str_digits()``;
    the conversion through :class:`decimal.Decimal` has no such limit and,
    unlike ``sys.set_int_max_str_digits``, changes nothing process-wide.
    Both are quadratic, so an ``n`` past ``_SPLIT_BITS`` is split by bits,
    ``n = high * 2**k + low``, and the halves' decimals are joined with the
    fast exact multiplication of :mod:`decimal`. An ``n`` under
    ``_SHORT_BITS`` is formatted directly, and a ``bool`` prints as a digit.
    """
    bits = n.bit_length()
    if bits < _SHORT_BITS:
        return "%d" % n
    digits = str(_exact_decimal(abs(n), bits, {}))
    return "-" + digits if n < 0 else digits


def _exact_decimal(m: int, bits: int, powers: dict[int, decimal.Decimal]) -> decimal.Decimal:
    """``0 <= m < 2**bits`` as a decimal; ``powers`` caches ``2**k`` by ``k``."""
    if bits <= _SPLIT_BITS:
        return decimal.Decimal(m)
    half = bits // 2
    if half not in powers:
        powers[half] = _EXACT.power(2, half)
    high = m >> half
    high_part = _EXACT.multiply(_exact_decimal(high, bits - half, powers), powers[half])
    return _EXACT.add(high_part, _exact_decimal(m - (high << half), half, powers))


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
    """A request would exceed a fixed limit: by default the vertex cap of a
    construction; ``quantity`` and ``cap`` name another."""

    def __init__(
        self, estimated_size: int, limit: int, *, quantity: str = "estimated size", cap: str = "vertex cap"
    ):
        self.estimated_size = estimated_size
        self.limit = limit
        super().__init__(
            f"{quantity} {decimal_text(estimated_size)} exceeds the {cap}"
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
    ``len(text) + 1``. ``dsl.parse`` names a field out of range at the
    offset of its literal's first digit, counted the same way.
    """

    def __init__(self, byte_offset: int, expected: str, found: str):
        self.byte_offset = byte_offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"parse error at offset {byte_offset}: expected {expected}, found {found}"
        )
