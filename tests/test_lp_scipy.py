"""Differential tests: the exact simplex against scipy's HiGHS, on small
random programs with rational data and on the programs composec builds when
it verifies specs/ and bounds the advantage against a biased one-time pad.
scipy and hypothesis are test-only dependencies, imported inside the tests
so that collecting the suite does not load them into the process the timed
acceptance criteria run in."""

import copy
from fractions import Fraction
from pathlib import Path

import pytest

from composec import distinguisher
from composec import lp as lpmod
from composec.attacks import min_epsilon
from composec.cli import parse_spec, run
from composec.distinguisher import add_advantage_objective, add_match_rows
from composec.hopf import build_otp, group_make
from composec.lp import Feasible, Infeasible, Optimal, Unbounded, minimize, verify

from tests.helpers import dense_forms, dense_match_rows, dense_program

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))


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


def _sparse_highs(prog):
    """HiGHS verdict ("feasible" | "optimal" | "infeasible" | "unbounded" or
    the solver's message) and value on a `scipy.sparse` matrix of the stored
    rows' float roundings; a program without objective minimizes 0."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    cells = [(i, j, float(v)) for i, pairs, _ in prog.rows for j, v in pairs]
    rows, cols, values = zip(*cells) if cells else ((), (), ())
    a = csr_matrix((values, (rows, cols)), shape=(prog.m, prog.n))
    c = [0.0] * prog.n if prog.objective is None else [float(v) for v in prog.objective]
    lb = prog.lower_bounds or (0,) * prog.n
    res = linprog(c, A_eq=a, b_eq=[float(v) for v in prog.b], bounds=[(float(v), None) for v in lb], method="highs")
    found = "feasible" if prog.objective is None else "optimal"
    return {0: found, 2: "infeasible", 3: "unbounded"}.get(res.status, res.message), res.fun


def test_exact_outcomes_agree_with_highs_on_the_programs_composec_builds(monkeypatch):
    """Every simulator, split and advantage program that verifying specs/
    solves, and the minimum-epsilon program of the OTP over Z4..Z8 with the
    key (1/2, then uniform): the outcome the exact simplex reached on
    composec's sparse build has HiGHS's verdict on the dense build of the
    same forms (the builds are equal, see test_distinguisher), and optima
    agree within 1e-9."""
    pytest.importorskip("scipy.optimize")
    pairs = {"match": [], "objective": []}
    outcomes = {}

    def both(kind, add, dense):
        def build(bld, aligned, target):
            ref = copy.deepcopy(bld)
            add(bld, aligned, target)
            dense(ref, aligned, target)
            pairs[kind].append((bld.build(), ref.build()))

        return build

    def recorded(solve):
        def solve_and_record(prog):
            outcomes[prog] = out = solve(prog)
            return out

        return solve_and_record

    def dense_objective(bld, aligned, target):
        add_advantage_objective(bld, dense_forms(aligned, target), target)

    monkeypatch.setattr(distinguisher, "add_match_rows", both("match", add_match_rows, dense_match_rows))
    monkeypatch.setattr(
        distinguisher, "add_advantage_objective", both("objective", add_advantage_objective, dense_objective)
    )
    monkeypatch.setattr(lpmod, "solve_feasible", recorded(lpmod.solve_feasible))
    monkeypatch.setattr(lpmod, "minimize", recorded(lpmod.minimize))
    for path in SPECS:
        assert run(parse_spec(path.read_text()), no_meta=True).exit_code == 0, path.name
    assert (len(pairs["match"]), len(pairs["objective"])) == (18, 9)
    for n in range(4, 9):
        inst = build_otp(group_make(("cyclic", n)), (Fraction(1, 2),) + (Fraction(1, 2 * (n - 1)),) * (n - 1))
        assert min_epsilon(inst.protocol, inst.source, inst.target, ("eve",)).epsilon == Fraction(n - 2, 2 * n)
    assert len(pairs["objective"]) == 9 + 5
    kinds = {Feasible: "feasible", Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded"}
    for sparse, dense in pairs["match"] + pairs["objective"]:
        out = outcomes[sparse]
        verdict, value = _sparse_highs(dense)
        assert kinds[type(out)] == verdict, (sparse.n, sparse.m, verdict)
        if verdict == "optimal":
            assert abs(float(out.value) - value) <= 1e-9, (sparse.n, sparse.m, out.value, value)
