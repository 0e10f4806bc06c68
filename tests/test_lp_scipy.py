"""Differential test: the exact simplex against scipy's HiGHS on small
random programs.  scipy and hypothesis are test-only dependencies, imported
inside the test so that collecting the suite does not load them into the
process the timed acceptance criteria run in."""

from fractions import Fraction

import pytest

from composec.lp import Infeasible, LinearProgram, Optimal, Unbounded, minimize, verify


def _highs(linprog, a, b, c, lb):
    """HiGHS verdict ("optimal" | "infeasible" | "unbounded") and value."""
    bounds = [(0 if lb is None else lb[k], None) for k in range(len(c))]
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

    small = st.integers(min_value=-3, max_value=3)

    @st.composite
    def programs(draw):
        m = draw(st.integers(min_value=1, max_value=6))
        n = draw(st.integers(min_value=1, max_value=8))
        a = [[draw(small) for _ in range(n)] for _ in range(m)]
        b = [draw(st.integers(min_value=-5, max_value=5)) for _ in range(m)]
        c = [draw(small) for _ in range(n)]
        lb = draw(st.one_of(st.none(), st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n)))
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
        lp = LinearProgram(
            len(c),
            tuple(tuple(Fraction(v) for v in row) for row in a),
            tuple(Fraction(v) for v in b),
            tuple(Fraction(v) for v in c),
            None if lb is None else tuple(Fraction(v) for v in lb),
        )
        out = minimize(lp)
        assert verify(out, lp)
        verdict, value = _highs(linprog, a, b, c, lb)
        kind = {Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded"}[type(out)]
        assert kind == verdict
        if kind == "optimal":
            assert abs(float(out.value) - value) <= 1e-7

    agrees()
