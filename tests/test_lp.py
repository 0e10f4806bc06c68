import random
from fractions import Fraction

import pytest

from composec import lp as lpmod
from composec import nogo
from composec.attacks import min_epsilon
from composec.errors import CompositeVerificationFailed, DimensionMismatch, ProblemTooLarge
from composec.hopf import build_otp, group_make
from composec.lp import (
    FarkasCert,
    Feasible,
    Infeasible,
    LinearProgram,
    LpBuilder,
    Optimal,
    minimize,
    solve_feasible,
    verify,
)
from composec.scalars import ONE

from tests.helpers import DenseSimplex, dense_minimize, dense_program, dense_solve_feasible

F = Fraction


def lp(n, a, b, c=None, lb=None):
    """The program over x >= 0 with dense rows `a`, right-hand sides `b` and
    costs `c`.  A lower bound x_j >= lb_j >= 0 is written as the row
    x_j - s_j = lb_j with a surplus column s_j >= 0 of cost 0 after the n
    columns of x."""
    a = [[F(v) for v in row] for row in a]
    b = [F(v) for v in b]
    if lb is not None:
        assert all(v >= 0 for v in lb), lb
        a = [row + [F(0)] * n for row in a]
        a += [[F((k == j) - (k == n + j)) for k in range(2 * n)] for j in range(n)]
        b += [F(v) for v in lb]
        c = None if c is None else list(c) + [0] * n
        n *= 2
    return dense_program(n, a, b, None if c is None else tuple(F(v) for v in c))


def outcome(solve, prog):
    """The solver's outcome, or "unbounded" when it refuses an objective
    that is unbounded below."""
    try:
        return solve(prog)
    except CompositeVerificationFailed as exc:
        assert str(exc) == "LP objective is unbounded below"
        return "unbounded"


def test_feasible_simple():
    prog = lp(2, [[1, 1], [1, -1]], [1, 1])
    out = solve_feasible(prog)
    assert isinstance(out, Feasible)
    assert out.point == (F(1), F(0))
    assert verify(out, prog)


def test_infeasible_negative_sum():
    prog = lp(2, [[1, 1]], [-1])
    out = solve_feasible(prog)
    assert isinstance(out, Infeasible)
    assert verify(out, prog)


def test_zero_system_feasible():
    prog = lp(3, [[0, 0, 0]], [0])
    out = solve_feasible(prog)
    assert isinstance(out, Feasible)
    assert out.point == (F(0), F(0), F(0))
    assert verify(out, prog)


@pytest.mark.parametrize("rows", [[], [[0, 0, 0]]], ids=["no_rows", "zero_row"])
@pytest.mark.parametrize("lb", [None, [F(1, 2), 0, 2]], ids=["at_0", "at_lb"])
@pytest.mark.parametrize("c", [[1, 2, 3], [0, 0, 0], [2, -1, -3], [-1, -1, -1]], ids=["positive", "zero", "mixed", "negative"])
def test_program_with_only_empty_rows(rows, lb, c):
    """x >= lb free of other constraints: feasible at lb, optimal there for
    nonnegative costs, else refused as unbounded below."""
    prog = lp(3, rows, [0] * len(rows), c=c, lb=lb)
    corner = tuple(F(v) for v in lb or [0, 0, 0])
    assert solve_feasible(prog).point[:3] == corner
    out = outcome(minimize, prog)
    if min(c) < 0:
        assert out == "unbounded"
    else:
        assert out.point[:3] == corner and verify(out, prog)
        assert out.value == sum(F(cj) * v for cj, v in zip(c, corner))


def test_cap_counts_the_rows_presolve_keeps(monkeypatch):
    """The size guard reads variables x rows left after empty and duplicate
    rows go: 4 variables x 6 rows is past a cap of 10, but 2 rows are kept."""
    monkeypatch.setattr(lpmod, "CAP", 10)
    rows = [[1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 1, 1]]
    prog = lp(4, rows, [1, 0, 1, 1, 0, 1], c=[1, 2, 3, 4])
    assert prog.n * prog.m > lpmod.CAP
    assert verify(solve_feasible(prog), prog)
    assert minimize(prog) == Optimal((F(1), F(0), F(1), F(0)), F(4))
    wide = lp(4, [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]], [1, 1, 1], c=[1, 2, 3, 4])
    for solve in (solve_feasible, minimize):
        with pytest.raises(ProblemTooLarge, match="^LP has 4 vars x 3 rows after presolve$"):
            solve(wide)


def test_minimize_corner():
    prog = lp(2, [[1, 1]], [1], c=[1, 0])
    out = minimize(prog)
    assert isinstance(out, Optimal)
    assert out.value == 0
    assert out.point == (F(0), F(1))
    assert verify(out, prog)


def test_minimize_sum():
    prog = lp(2, [[1, 1]], [1], c=[1, 1])
    out = minimize(prog)
    assert isinstance(out, Optimal) and out.value == 1
    assert verify(out, prog)


def test_unbounded():
    """x0 = x1 >= 0 with the cost -x0 falls without bound: phase 2 finds a
    column to enter and no row to leave, and raises."""
    prog = lp(2, [[1, -1]], [0], c=[-1, 0])
    assert solve_feasible(prog) == Feasible((F(0), F(0)))
    with pytest.raises(CompositeVerificationFailed, match="^LP objective is unbounded below$"):
        minimize(prog)


def test_verify_rejects_a_ray_of_an_infeasible_program():
    """x0 = -1 has no point x >= 0, though the objective -x1 falls along the
    ray (0, 1): phase 1 proves the program infeasible before phase 2 could
    meet the ray, and no point on the ray verifies."""
    prog = LinearProgram(2, 1, ((0, ((0, F(1)),), F(-1)),), (F(0), F(-1)))
    out = minimize(prog)
    assert isinstance(out, Infeasible) and verify(out, prog)
    for t in range(3):
        assert not verify(Optimal((F(-1), F(t)), F(-t)), prog)
        assert not verify(Optimal((F(0), F(t)), F(-t)), prog)


def test_verify_rejects_wrong_point():
    prog = lp(2, [[1, -1]], [1])
    assert not verify(Feasible((F(0), F(1))), prog)
    assert verify(Feasible((F(1), F(0))), prog)
    # (-1, -2) solves the row, but x >= 0 fails
    assert not verify(Feasible((F(-1), F(-2))), prog)
    # no point satisfies an empty row 0 = 1
    assert not verify(Feasible((F(1), F(0))), lp(2, [[1, -1], [0, 0]], [1, 1]))


def test_verify_rejects_an_optimum_of_a_program_without_objective():
    """An optimum needs an objective to be checked against: without one,
    `verify` returns False instead of raising."""
    prog = lp(2, [[1, 1]], [1])
    assert prog.objective is None
    assert verify(Feasible((F(0), F(1))), prog)
    assert not verify(Optimal((F(0), F(1)), F(0)), prog)


def test_verify_rejects_inexact_entries_in_rational_mode():
    prog = lp(2, [[1, 1]], [1], c=[1, 0])
    assert verify(Feasible((F(1, 2), F(1, 2))), prog)
    assert not verify(Feasible((0.5, 0.5)), prog)
    assert verify(Optimal((F(0), F(1)), F(0)), prog)
    assert not verify(Optimal((F(0), F(1)), 0.0), prog)
    assert not verify(Optimal((0.0, 1.0), F(0)), prog)
    infeasible = lp(2, [[1, 1]], [-1])
    assert verify(Infeasible(FarkasCert((F(-1),))), infeasible)
    assert not verify(Infeasible(FarkasCert((-1.0,))), infeasible)


def test_drive_out_enters_first_structural_column(monkeypatch):
    # Phase 1 makes no pivot and leaves both artificials basic at zero; the
    # drive-out replaces the first one by the first structural column with a
    # nonzero cell, column 0, and the second row, then 0 = 0, is dropped.
    prog = lp(4, [[-1, 1, 0, 1], [1, -1, 0, -1]], [0, 0], c=[1, 1, 0, 0])
    log = _log_pivots(monkeypatch)
    assert _assert_same_pivots(prog, log) == 1 and log["exact"] == [(4, 0)]
    assert minimize(prog) == Optimal((F(0),) * 4, F(0))


def test_lower_bounds():
    prog = lp(2, [[1, 1]], [3], c=[1, 2], lb=[1, 1])
    out = minimize(prog)
    assert isinstance(out, Optimal)
    assert out.point[:2] == (F(2), F(1)) and out.value == 4
    assert verify(out, prog)


def test_lower_bounds_infeasible():
    prog = lp(2, [[1, 1]], [1], lb=[1, 1])
    out = solve_feasible(prog)
    assert isinstance(out, Infeasible)
    assert verify(out, prog)


def test_beale_degenerate_cube_terminates():
    # Beale's classic cycling example; Bland's rule must terminate at -1/20.
    prog = lp(
        7,
        [
            [F(1, 4), -60, -F(1, 25), 9, 1, 0, 0],
            [F(1, 2), -90, -F(1, 50), 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ],
        [0, 0, 1],
        c=[-F(3, 4), 150, -F(1, 50), 6, 0, 0, 0],
    )
    out = minimize(prog)
    assert isinstance(out, Optimal)
    assert out.value == F(-1, 20)
    assert verify(out, prog)


def _random_program(rng, with_obj):
    n = rng.randint(1, 6)
    m = rng.randint(1, 5)
    a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    # Bias towards feasibility: pick x0 >= 0 and set b = A x0 half the time.
    if rng.random() < 0.5:
        x0 = [F(rng.randint(0, 3)) for _ in range(n)]
        b = [sum(c * v for c, v in zip(row, x0)) for row in a]
    else:
        b = [F(rng.randint(-5, 5)) for _ in range(m)]
    c = [F(rng.randint(-3, 3)) for _ in range(n)] if with_obj else None
    return lp(n, a, b, c=c)


def test_random_roundtrip_feasibility():
    rng = random.Random(42)
    feas = infeas = 0
    for _ in range(120):
        prog = _random_program(rng, with_obj=False)
        out = solve_feasible(prog)
        assert verify(out, prog), prog
        if isinstance(out, Feasible):
            feas += 1
        else:
            infeas += 1
    assert feas > 10 and infeas > 10


def test_random_roundtrip_minimize():
    """Costs of both signs: a minimum is reached, the program is infeasible,
    or it is feasible and `minimize` refuses it as unbounded below."""
    rng = random.Random(77)
    kinds = {"opt": 0, "inf": 0, "unb": 0}
    for _ in range(120):
        prog = _random_program(rng, with_obj=True)
        out = outcome(minimize, prog)
        if out == "unbounded":
            assert isinstance(solve_feasible(prog), Feasible), prog
            kinds["unb"] += 1
            continue
        assert verify(out, prog), prog
        if isinstance(out, Optimal):
            kinds["opt"] += 1
            # duality spot check: reported value matches the returned point
            val = sum(c * v for c, v in zip(prog.objective, out.point))
            assert val == out.value
        else:
            kinds["inf"] += 1
    assert min(kinds.values()) > 5, kinds


def test_duplicate_and_empty_rows_certificate_lifts():
    prog = lp(2, [[0, 0], [1, 1], [1, 1], [0, 0]], [0, 2, 2, 3])
    out = solve_feasible(prog)
    assert isinstance(out, Infeasible)
    assert verify(out, prog)


@pytest.mark.parametrize(
    "second,kept",
    [
        ((((0, F(2, 4)), (1, 1)), ONE), 1),
        ((((0, F(1, 2)), (1, ONE)), 1), 1),
        ((((0, F(1, 2)), (1, F(1, 3))), ONE), 2),
        ((((0, F(1, 2)), (1, ONE)), F(1, 3)), 2),
    ],
    ids=["2/4-as-1/2", "int-1-as-ONE", "other-coefficient-denominator", "other-rhs-denominator"],
)
def test_preprocess_drops_a_row_equal_to_an_earlier_one(second, kept):
    # the duplicate set is keyed on integer numerators and denominators; the
    # first of two equal rows is the one kept
    first = (((0, F(1, 2)), (1, 1)), 1)
    pairs, rhs, keep = lpmod._preprocess([(0, *first), (1, *second)], 2)
    assert keep == [0, 1][:kept] and pairs[0] is first[0] and rhs[0] is first[1]


@pytest.mark.parametrize("zero", [F(0), 0], ids=["Fraction", "int"])
def test_an_empty_row_with_a_separate_zero_is_not_reported(zero):
    """`add_eq` with no coefficient, or only zero ones, and a zero right-hand
    side is a row 0 = 0: counted like the `add_empty` rows around it, not
    stored, and never reported."""
    bld = LpBuilder()
    x = bld.new_vars(2)
    bld.add_empty(3)
    bld.add_eq({}, zero)
    bld.add_eq({x[0]: F(1), x[1]: F(1)}, F(1))
    bld.add_eq({x[1]: zero}, zero)
    bld.add_empty(2)
    prog = bld.build()
    assert prog.m == 8
    assert prog.rows == ((4, ((0, F(1)), (1, F(1))), F(1)),)
    assert prog.b == (0, 0, 0, 0, 1, 0, 0, 0)
    assert solve_feasible(prog) == Feasible((F(1), F(0)))
    assert verify(Feasible((F(0), F(1))), prog)


@pytest.mark.parametrize("rhs", [F(2), F(-1, 3)], ids=["positive", "negative"])
def test_an_empty_row_after_a_run_of_empty_rows_gets_its_own_certificate(rhs):
    """0 = b_i with b_i != 0 after `add_empty` rows is stored with no pair:
    the Farkas vector is +-e_i at once, and no point passes `verify`."""
    bld = LpBuilder()
    x = bld.new_vars(2)
    bld.add_eq({x[0]: F(1)}, F(1))
    bld.add_empty(4)
    bld.add_eq({}, rhs)
    bld.add_empty(2)
    prog = bld.build()
    assert prog.m == 8 and prog.rows[1:] == ((5, (), rhs),)
    y = [F(0)] * 8
    y[5] = F(1) if rhs > 0 else F(-1)
    out = solve_feasible(prog)
    assert out == Infeasible(FarkasCert(tuple(y)))
    assert verify(out, prog)
    assert not verify(Feasible((F(1), F(0))), prog)


def test_builder_inequalities():
    bld = LpBuilder()
    x = list(bld.new_vars(2))
    bld.add_ge({x[0]: F(1)}, F(2))
    bld.add_ge({x[0]: F(-1), x[1]: F(-1)}, F(-5))  # x0 + x1 <= 5
    bld.add_eq({x[1]: F(1)}, F(1))
    bld.set_objective({x[0]: F(1)})
    prog = bld.build()
    out = minimize(prog)
    assert isinstance(out, Optimal)
    assert out.point[x[0]] == 2 and out.value == 2
    assert verify(out, prog)


@pytest.mark.parametrize(
    "row",
    [
        ((1, F(1)), (0, F(1))),  # unsorted
        ((0, F(1)), (0, F(2))),  # a column twice
        ((0, F(1)), (2, F(1))),  # past the last column
        ((-1, F(1)),),  # before the first column
        ((0, F(0)), (1, F(1))),  # an explicit zero
    ],
)
def test_program_rejects_malformed_rows(row):
    with pytest.raises(DimensionMismatch):
        LinearProgram(2, 2, ((0, ((0, F(1)),), F(1)), (1, row, F(1))))


def test_program_rows_and_dense_view():
    """The row 0 = 0 is counted in `m` and in the dense views, not stored."""
    prog = lp(3, [[0, 2, 0], [0, 0, 0], [1, 0, -1]], [1, 0, 0])
    assert prog.rows == ((0, ((1, F(2)),), F(1)), (2, ((0, F(1)), (2, F(-1))), F(0)))
    assert prog.m == 3
    assert prog.a == ((0, F(2), 0), (0, 0, 0), (F(1), 0, F(-1)))
    assert prog.b == (F(1), 0, 0)
    assert prog.a is prog.a and prog.b is prog.b
    with pytest.raises(DimensionMismatch):
        LinearProgram(3, 2, prog.rows)


def _adaptive_checks():
    """Every LP check of one pass of the benchmark's `adaptive` workload."""
    for r in (nogo.commitment_resource(), nogo.ot_resource(), nogo.identity_channel_resource()):
        nogo.split_check(r)
        nogo.min_split_advantage(r)
    for r in (nogo.broadcast_resource(), nogo.product_uniform_resource()):
        nogo.tripartite_split_check(r)
        nogo.broadcast_contradiction_oracle(r)
    for order, key in ((3, (F(1, 2), F(1, 2), 0)), (4, (F(1, 2), F(1, 4), F(1, 4), 0))):
        inst = build_otp(group_make(("cyclic", order)), key)
        min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))


def test_dense_view_equals_the_dense_build_on_an_adaptive_pass(monkeypatch):
    """`lp.a` and `lp.b` hold every row the builder was given, 0 = 0 rows
    included, on every program of the benchmark's `adaptive` checks."""
    built = []
    add_eq, add_empty, build = LpBuilder.add_eq, LpBuilder.add_empty, LpBuilder.build

    def eq(self, coeffs, rhs):
        vars(self).setdefault("written", []).append((coeffs, rhs))
        add_eq(self, coeffs, rhs)

    def empty(self, count):
        vars(self).setdefault("written", []).extend([({}, F(0))] * count)
        add_empty(self, count)

    def recording(self):
        written = vars(self).get("written", [])
        dense = tuple(tuple(coeffs.get(j, F(0)) for j in range(self.n)) for coeffs, _ in written)
        built.append((dense, tuple(rhs for _, rhs in written), build(self)))
        return built[-1][2]

    monkeypatch.setattr(LpBuilder, "add_eq", eq)
    monkeypatch.setattr(LpBuilder, "add_empty", empty)
    monkeypatch.setattr(LpBuilder, "build", recording)
    _adaptive_checks()
    assert len(built) >= 10
    for a, b, prog in built:
        assert prog.a == a and prog.b == b


def _q(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 6))


def _oracle_program(rng):
    """Small program mixing what the sparse solver handles specially:
    fractions with different denominators in one row, negative right-hand
    sides, zero, duplicate and redundant rows (the redundant one is the sum of
    two others, so a feasible program usually drops a row after phase 1),
    degenerate vertices (ties in the ratio test), and objectives with free
    descent directions (unbounded programs)."""
    n = rng.randint(1, 7)
    m = rng.randint(1, 6)
    a = [[_q(rng) if rng.random() < 0.6 else F(0) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        x0 = [F(rng.randint(0, 3), rng.randint(1, 3)) if rng.random() < 0.5 else F(0) for _ in range(n)]
        b = [sum(c * v for c, v in zip(row, x0)) for row in a]
    else:
        b = [_q(rng) for _ in range(m)]
    redundant = m >= 2 and rng.random() < 0.35
    if redundant:
        i, k = rng.sample(range(m), 2)
        a.append([u + v for u, v in zip(a[i], a[k])])
        b.append(b[i] + b[k])
    if rng.random() < 0.25:
        i = rng.randrange(len(a))
        a.append(list(a[i]))
        b.append(b[i])
    if rng.random() < 0.2:
        a.append([F(0)] * n)
        b.append(F(0) if rng.random() < 0.7 else _q(rng))
    order = list(range(len(a)))
    rng.shuffle(order)
    c = [_q(rng) for _ in range(n)]
    return lp(n, [a[i] for i in order], [b[i] for i in order], c=c), redundant


# Programs drawn by `_mirrored_program` in each of the two oracle tests.
MIRRORED_PROGRAMS = 600


def _mirrored_program(rng):
    """Small program whose rows mostly hold a column of coefficient +-1 that
    no other row reads, so phase 1 reads the row's artificial column through
    it: a slack from `add_ge` or an explicit singleton column of either sign,
    with right-hand sides of both signs.  Half of them are nonnegative: a
    row with b_i >= 0 and a column -1 is one whose artificial column can
    enter again after it has left."""
    bld = LpBuilder()
    x = bld.new_vars(rng.randint(1, 6))
    for _ in range(rng.randint(1, 8)):
        coeffs = {j: _q(rng) for j in x if rng.random() < 0.6}
        rhs = _q(rng)
        if rng.random() < 0.5:
            rhs = abs(rhs)
        kind = rng.random()
        if kind < 0.5:
            bld.add_ge(coeffs, rhs)
        else:
            if kind < 0.9:
                coeffs[bld.new_vars(1)[0]] = F(rng.choice([1, -1]))
            bld.add_eq(coeffs, rhs)
    bld.set_objective({j: _q(rng) for j in range(bld.n)})
    return bld.build()


def _mirrored_rows(prog):
    """How many kept rows of `prog` have no stored artificial column."""
    pre = lpmod._preprocess(prog.rows, prog.m)
    return 0 if isinstance(pre, Infeasible) else len(lpmod._ExactSimplex(pre[0], pre[1], prog.n).mirror)


def _entries(out):
    if isinstance(out, Optimal):
        return (*out.point, out.value)
    if isinstance(out, Feasible):
        return out.point
    return out.cert.y


def _match_oracle(prog, kinds):
    """Solve for a feasible point and for a minimum, each against the dense
    oracle; counts each outcome's kind and returns the minimum's."""
    for solve, oracle in ((solve_feasible, dense_solve_feasible), (minimize, dense_minimize)):
        out, ref = outcome(solve, prog), outcome(oracle, prog)
        kind = out if out == "unbounded" else type(out).__name__
        kinds[kind] = kinds.get(kind, 0) + 1
        if out == "unbounded":
            assert ref == "unbounded", prog
            continue
        assert type(out) is type(ref), prog
        assert _entries(out) == _entries(ref), prog
        assert all(type(v) is Fraction for v in _entries(out)), out
        assert verify(out, prog)
    return out


def test_sparse_simplex_matches_dense_oracle():
    """The integer-row solver makes the dense Fraction tableau's pivots, so
    every outcome and every entry is the same, and both refuse the same
    unbounded programs; also when rows read their artificial column through
    a +-1 column of their own, and phase 1 ends Infeasible with such rows."""
    rng = random.Random(2024)
    kinds = {}
    redundant_feasible = 0
    for _ in range(200):
        prog, redundant = _oracle_program(rng)
        out = _match_oracle(prog, kinds)
        redundant_feasible += redundant and isinstance(out, Optimal)
    assert min(kinds[k] for k in ("Feasible", "Infeasible", "Optimal", "unbounded")) >= 20, kinds
    assert redundant_feasible >= 10
    rng = random.Random(2033)
    kinds = {}
    mirrored = infeasible = 0
    for _ in range(MIRRORED_PROGRAMS):
        prog = _mirrored_program(rng)
        rows = _mirrored_rows(prog)
        out = _match_oracle(prog, kinds)
        mirrored += rows
        infeasible += rows > 0 and isinstance(out, Infeasible)
    assert min(kinds[k] for k in ("Feasible", "Infeasible", "Optimal", "unbounded")) >= 40, kinds
    assert mirrored >= 2000 and infeasible >= 300, (mirrored, infeasible)


def _log_pivots(monkeypatch):
    """Record the (leaving basic variable, entering column) pair of every
    pivot of the integer-row solver and of the dense oracle, and count the
    eliminations that ran no gcd reduction and the pivots that enter a
    mirrored artificial column, one read through a +-1 column of its row."""
    log = {"exact": [], "dense": [], "eliminations": 0, "skipped": 0, "reductions": 0, "reentries": 0}
    pivot, dense_pivot = lpmod._ExactSimplex._pivot, DenseSimplex._pivot
    eliminate, reduce = lpmod._eliminate, lpmod._reduce

    def exact(self, r, col, hits):
        log["exact"].append((self.basis[r], col))
        log["reentries"] += col in self.mirror
        pivot(self, r, col, hits)

    def dense(self, obj, r, col):
        log["dense"].append((self.basis[r], col))
        dense_pivot(self, obj, r, col)

    def counted_reduce(row, den):
        log["reductions"] += 1
        return reduce(row, den)

    def counted_eliminate(*args):
        before = log["reductions"]
        out = eliminate(*args)
        log["eliminations"] += 1
        log["skipped"] += log["reductions"] == before
        return out

    monkeypatch.setattr(lpmod._ExactSimplex, "_pivot", exact)
    monkeypatch.setattr(DenseSimplex, "_pivot", dense)
    monkeypatch.setattr(lpmod, "_eliminate", counted_eliminate)
    monkeypatch.setattr(lpmod, "_reduce", counted_reduce)
    return log


def _assert_same_pivots(prog, log):
    """Both solvers make the same pivots in the same order: phase 1, the
    drive-out and, when there is an objective, phase 2.  Returns the count."""
    solve, oracle = (minimize, dense_minimize) if prog.objective is not None else (solve_feasible, dense_solve_feasible)
    log["exact"].clear()
    log["dense"].clear()
    out, ref = outcome(solve, prog), outcome(oracle, prog)
    assert log["exact"] == log["dense"], prog
    assert out == ref, prog
    return len(log["exact"])


def test_same_pivots_as_the_dense_oracle(monkeypatch):
    """Each pivot of the integer-row solver leaves and enters where the
    dense `Fraction` tableau does, on the oracle programs and on every
    program of an `adaptive` pass, while most eliminations skip the gcd
    reduction because their row's denominator does not grow.  Programs of
    rows with a +-1 column of their own enter such a row's artificial
    column, read through that column, again after it has left."""
    built = []
    build = LpBuilder.build

    def recording(self):
        built.append(build(self))
        return built[-1]

    monkeypatch.setattr(LpBuilder, "build", recording)
    _adaptive_checks()
    assert len(built) >= 10
    log = _log_pivots(monkeypatch)
    rng = random.Random(2024)
    oracle_pivots = sum(_assert_same_pivots(_oracle_program(rng)[0], log) for _ in range(200))
    adaptive_pivots = sum(_assert_same_pivots(prog, log) for prog in built)
    assert oracle_pivots >= 200 and adaptive_pivots >= 200, (oracle_pivots, adaptive_pivots)
    rng = random.Random(2033)
    mirrored_pivots = sum(_assert_same_pivots(_mirrored_program(rng), log) for _ in range(MIRRORED_PROGRAMS))
    assert mirrored_pivots >= 1500 and log["reentries"] >= 10, (mirrored_pivots, log["reentries"])
    assert 0 < log["skipped"] < log["eliminations"], log


def test_a_stored_artificial_enters_before_a_later_mirrored_one(monkeypatch):
    """Rows 2 and 3 read their artificial columns 10 and 11 through their -1
    columns 6 and 7.  After three pivots no structural column is negative,
    while the stored artificial 9 and the mirrored 11 both are: Bland's rule
    enters 9, the smaller, as the dense tableau does."""
    a = [
        [F(3, 5), F(1, 6), 1, 2, 2, 0, 0, 0],
        [0, F(3, 2), 0, F(1, 3), 0, 0, 0, 0],
        [F(-1, 3), F(-1, 3), 1, 0, F(-4, 5), -1, -1, 0],
        [F(1, 2), -2, F(-1, 2), 0, F(-3, 5), F(1, 2), 0, -1],
    ]
    prog = lp(8, a, [4, 1, F(2, 3), F(1, 3)])
    pairs, rhs, _ = lpmod._preprocess(prog.rows, prog.m)
    assert lpmod._ExactSimplex(pairs, rhs, prog.n).mirror == {10: (6, -1), 11: (7, -1)}
    log = _log_pivots(monkeypatch)
    assert _assert_same_pivots(prog, log) == 4
    assert log["exact"] == [(11, 0), (9, 1), (8, 2), (10, 9)]
    out = solve_feasible(prog)
    assert isinstance(out, Infeasible) and verify(out, prog)
