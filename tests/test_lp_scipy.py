"""Differential test: the exact simplex against scipy's HiGHS on small
random programs with rational data.  scipy and hypothesis are test-only
dependencies, imported inside the test so that collecting the suite does not
load them into the process the timed acceptance criteria run in."""

from fractions import Fraction

import pytest

from composec.lp import Infeasible, Optimal, Unbounded, minimize, verify

from tests.helpers import dense_program


def _highs(linprog, a, b, c, lb):
    """HiGHS verdict ("optimal" | "infeasible" | "unbounded") and value,
    on the float roundings of the rational data."""
    a = [[float(v) for v in row] for row in a]
    b = [float(v) for v in b]
    c = [float(v) for v in c]
    bounds = [(0 if lb is None else float(lb[k]), None) for k in range(len(c))]
    res = linprog(c, A_eq=a, b_eq=b, bounds=bounds, method="highs")
    if res.status == 4:
        # "infeasible or unbounded": a zero objective tells the two apart
        feas = linprog([0] * len(c), A_eq=a, b_eq=b, bounds=bounds, method="highs")
        return ("unbounded" if feas.status == 0 else "infeasible"), None
    verdict = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return verdict, res.fun if res.status == 0 else None


def test_exact_simplex_agrees_with_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    def rationals(low, high):
        return st.builds(Fraction, st.integers(min_value=low, max_value=high), st.integers(min_value=1, max_value=6))

    small = rationals(-3, 3)

    @st.composite
    def programs(draw):
        m = draw(st.integers(min_value=1, max_value=6))
        n = draw(st.integers(min_value=1, max_value=8))
        a = [[draw(small) for _ in range(n)] for _ in range(m)]
        b = [draw(rationals(-5, 5)) for _ in range(m)]
        # all-zero rows: 0 = 0, which the program counts, or 0 = b_i, which it stores
        for i in range(m):
            if draw(st.booleans()):
                a[i] = [Fraction(0)] * n
                b[i] = draw(st.sampled_from([Fraction(0), b[i] or Fraction(1)]))
        c = [draw(small) for _ in range(n)]
        lb = draw(st.one_of(st.none(), st.lists(rationals(-2, 2), min_size=n, max_size=n)))
        return a, b, c, lb

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(programs())
    def agrees(prog):
        a, b, c, lb = prog
        lp = dense_program(len(c), a, b, tuple(c), None if lb is None else tuple(lb))
        out = minimize(lp)
        assert verify(out, lp)
        verdict, value = _highs(linprog, a, b, c, lb)
        kind = {Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded"}[type(out)]
        assert kind == verdict
        if kind == "optimal":
            assert abs(float(out.value) - value) <= 1e-7

    agrees()
