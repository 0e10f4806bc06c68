"""Scalar modes.

Every value in a computation is either an exact rational (`fractions.Fraction`)
or a binary64 float; the two never mix inside one object.  Rational is the
default and is what all security and impossibility verdicts run on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RATIONAL = "rational"
FLOAT = "float"

Scalar = Union[Fraction, float]

# Float-mode tolerances.  Far above binary64 accumulation error at the matrix
# sizes this package works with.
TOL_EQ = 1e-9
TOL_SUM = 1e-9
TOL_LP = 1e-8
TOL_PIVOT = 1e-12


def check_mode(mode: str) -> str:
    if mode not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")
    return mode


def as_scalar(value, mode: str) -> Scalar:
    """Coerce ints, strings like '3/4' or '0.25', Fractions and floats."""
    if mode == RATIONAL:
        if isinstance(value, float):
            # Exact binary value of the float; callers wanting a decimal
            # reading should pass a string.
            return Fraction(value)
        return Fraction(value)
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def zero(mode: str) -> Scalar:
    return Fraction(0) if mode == RATIONAL else 0.0


def one(mode: str) -> Scalar:
    return Fraction(1) if mode == RATIONAL else 1.0


def scalar_str(x: Scalar) -> str:
    """Deterministic rendering used in reports: 'p/q' for rationals."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, float) and x == 0.0:
        return "0.0"  # fold negative zero
    return repr(x)


def parse_number(text: str) -> Fraction:
    """Parse 'p/q' or a decimal literal exactly as a rational."""
    return Fraction(text)
