"""Exact scalars.

Every value in a computation is an exact rational (`fractions.Fraction`):
kernel entries, LP coefficients, certificates and the epsilons in reports.
There is no other number type, so every verdict is an exact statement.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '0.25', Fractions and floats.  A
    float becomes its exact binary value; callers wanting a decimal reading
    should pass a string."""
    return Fraction(value)


def scalar_str(x) -> str:
    """Deterministic rendering used in reports: 'p/q' for rationals."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return repr(x)


def parse_number(text: str) -> Fraction:
    """Parse 'p/q' or a decimal literal exactly as a rational."""
    return Fraction(text)
