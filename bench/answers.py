"""The benchmark's own answer checks, written without the code under test,
and the corruptions its self-test feeds them.

A check returns a list of problems; an empty list means the answer is
correct.  All arithmetic is exact (`int` and `Fraction`), and nothing here
calls into `composec`, so a wrong answer from the program cannot be
confirmed by the program itself.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def _exact(values) -> bool:
    return all(isinstance(v, Rational) for v in values)


def farkas_problems(lp, y) -> list[str]:
    """Is `y` a certificate that `A x = b, x >= lb` has no solution?

    It is when yᵀA <= 0 in every column and yᵀ(b - A·lb) > 0: any feasible
    x would give 0 >= yᵀA(x - lb) = yᵀ(b - A·lb) > 0.
    """
    if lp is None or y is None:
        return ["infeasible verdict without an LP and a Farkas vector to re-check"]
    if len(y) != len(lp.a) or len(lp.b) != len(lp.a):
        return [f"Farkas vector has {len(y)} entries for {len(lp.a)} rows"]
    lb = lp.lower_bounds or (0,) * lp.n
    if not (_exact(y) and _exact(lp.b) and _exact(lb) and all(_exact(row) for row in lp.a)):
        return ["Farkas vector or LP data is not exact"]
    cols = [Fraction(0)] * lp.n
    yb = Fraction(0)
    for yi, row, bi in zip(y, lp.a, lp.b):
        if not yi:
            continue
        shifted = bi
        for j, v in enumerate(row):
            if v:
                cols[j] += yi * v
                shifted -= v * lb[j]
        yb += yi * shifted
    problems = [f"yᵀA = {cols[j]} > 0 in column {j}" for j in range(lp.n) if cols[j] > 0][:3]
    if yb <= 0:
        problems.append(f"yᵀb = {yb} is not positive")
    return problems


def adaptive_distance(ma, mb, n_in: int, n_out: int, rounds: int) -> Fraction:
    """Best adaptive distinguisher advantage between two transcript tables by
    backward induction: at each round the distinguisher takes the best input
    given the transcript so far, and the outputs are summed.

    Tables are indexed `m[y][x]`, with one input port and one output port per
    round, row-major, round 1 most significant.
    """

    def value(r: int, x: int, y: int) -> Fraction:
        if r == rounds:
            return abs(Fraction(ma[y][x]) - Fraction(mb[y][x]))
        return max(
            sum(value(r + 1, x * n_in + xi, y * n_out + yi) for yi in range(n_out))
            for xi in range(n_in)
        )

    return value(0, 0, 0) / 2


def expect(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def negate_one_entry(y):
    """The certificate with its first largest-magnitude entry negated.

    Certificates are not unique: negating a small entry can leave another
    valid certificate (it does for the commitment and OT split LPs), so the
    corruption takes an entry that carries the most weight.
    """
    k = max(range(len(y)), key=lambda i: abs(y[i]))
    return y[:k] + (-y[k],) + y[k + 1 :]


def change_one_byte(data: bytes) -> bytes:
    """`data` with its middle byte replaced by a different one."""
    k = len(data) // 2
    return data[:k] + bytes([data[k] ^ 0x01]) + data[k + 1 :]
