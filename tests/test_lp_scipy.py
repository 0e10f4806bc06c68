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
from composec.errors import CompositeVerificationFailed
from composec.lp import Feasible, Infeasible, Optimal, minimize, verify

from tests.helpers import dense_forms, dense_match_rows, dense_program

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))


def _highs(linprog, a, b, c):
    """HiGHS verdict ("optimal" | "infeasible" | "unbounded") and value over
    x >= 0, on the float roundings of the rational data."""
    a = [[float(v) for v in row] for row in a]
    b = [float(v) for v in b]
    c = [float(v) for v in c]
    res = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    if res.status == 4:
        # "infeasible or unbounded": a zero objective tells the two apart
        feas = linprog([0] * len(c), A_eq=a, b_eq=b, bounds=(0, None), method="highs")
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
        return a, b, c

    verdicts = {"optimal": 0, "infeasible": 0, "unbounded": 0}

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(programs())
    def agrees(prog):
        a, b, c = prog
        lp = dense_program(len(c), a, b, tuple(c))
        verdict, value = _highs(linprog, a, b, c)
        verdicts[verdict] += 1
        if verdict == "unbounded":
            with pytest.raises(CompositeVerificationFailed, match="^LP objective is unbounded below$"):
                minimize(lp)
            return
        out = minimize(lp)
        assert verify(out, lp)
        assert {Optimal: "optimal", Infeasible: "infeasible"}[type(out)] == verdict
        if verdict == "optimal":
            assert abs(float(out.value) - value) <= 1e-7

    agrees()
    assert min(verdicts.values()) >= 10, verdicts


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
    res = linprog(c, A_eq=a, b_eq=[float(v) for v in prog.b], bounds=(0, None), method="highs")
    found = "feasible" if prog.objective is None else "optimal"
    return {0: found, 2: "infeasible", 3: "unbounded"}.get(res.status, res.message), res.fun


@pytest.fixture(scope="module")
def built():
    """Every simulator, split and advantage program that verifying specs/
    solves, and the minimum-epsilon program of the OTP over Z4..Z8 with the
    key (1/2, then uniform): {"match": [...], "objective": [...]} of
    (composec's sparse build, the dense build of the same forms) pairs, the
    builds being equal (see test_distinguisher), and the outcome the exact
    simplex reached on each program `lp.minimize` or `lp.solve_feasible`
    was given, in call order."""
    pairs = {"match": [], "objective": []}
    outcomes = []

    def both(kind, add, dense):
        def build(bld, aligned, target):
            ref = copy.deepcopy(bld)
            add(bld, aligned, target)
            dense(ref, aligned, target)
            pairs[kind].append((bld.build(), ref.build()))

        return build

    def recorded(solve):
        def solve_and_record(prog):
            out = solve(prog)
            outcomes.append((prog, out))
            return out

        return solve_and_record

    def dense_objective(bld, aligned, target):
        add_advantage_objective(bld, dense_forms(aligned, target), target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distinguisher, "add_match_rows", both("match", add_match_rows, dense_match_rows))
        mp.setattr(distinguisher, "add_advantage_objective", both("objective", add_advantage_objective, dense_objective))
        mp.setattr(lpmod, "solve_feasible", recorded(lpmod.solve_feasible))
        mp.setattr(lpmod, "minimize", recorded(lpmod.minimize))
        for path in SPECS:
            assert run(parse_spec(path.read_text()), no_meta=True).exit_code == 0, path.name
        assert (len(pairs["match"]), len(pairs["objective"])) == (18, 9)
        for n in range(4, 9):
            inst = build_otp(group_make(("cyclic", n)), (Fraction(1, 2),) + (Fraction(1, 2 * (n - 1)),) * (n - 1))
            assert min_epsilon(inst.protocol, inst.source, inst.target, ("eve",)).epsilon == Fraction(n - 2, 2 * n)
    assert len(pairs["objective"]) == 9 + 5
    return pairs, outcomes


def test_exact_outcomes_agree_with_highs_on_the_programs_composec_builds(built):
    """On every program of `built`, the outcome the exact simplex reached on
    composec's sparse build has HiGHS's verdict on the dense build, and
    optima agree within 1e-9."""
    pytest.importorskip("scipy.optimize")
    pairs, outcomes = built
    reached = dict(outcomes)
    kinds = {Feasible: "feasible", Optimal: "optimal", Infeasible: "infeasible"}
    for sparse, dense in pairs["match"] + pairs["objective"]:
        out = reached[sparse]
        verdict, value = _sparse_highs(dense)
        assert kinds[type(out)] == verdict, (sparse.n, sparse.m, verdict)
        if verdict == "optimal":
            assert abs(float(out.value) - value) <= 1e-9, (sparse.n, sparse.m, out.value, value)


def test_every_objective_composec_minimizes_has_nonnegative_costs(built):
    """Every variable is >= 0, so an objective with no negative cost is
    bounded below by 0: phase 2's refusal of an unbounded objective cannot
    be reached from the programs composec builds."""
    pairs, outcomes = built
    minimized = [prog for prog, _ in outcomes if prog.objective is not None]
    assert len(minimized) == len(pairs["objective"])
    assert all(all(v >= 0 for v in prog.objective) for prog in minimized)
    assert all(isinstance(out, Optimal) for prog, out in outcomes if prog.objective is not None)
