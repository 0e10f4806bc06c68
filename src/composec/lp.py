"""Exact linear feasibility and minimization with infeasibility certificates.

Canonical form: equality constraints A x = b over x >= 0.  Callers encode
inequalities through slack variables; `LpBuilder` below does that
bookkeeping.  Every objective composec builds has nonnegative costs, so its
minima are bounded below by 0.

A program has `m` constraints and stores only those that say something:
`rows` lists (index, pairs, b_i) by increasing index, `pairs` being the
row's nonzero (column, value) coefficients in increasing column order, and
a row is stored when it has a pair or b_i is not 0.  Every other index
below `m` is a row 0 = 0: it is counted, so row indexes and Farkas vectors
include it, but it is held nowhere and no pass visits it.  Validation,
preprocessing and `verify` walk the stored rows; the dense `a` and
`b` are views built on first read.  A program that is mostly 0 = 0 rows, as
a simulator search's match rows are, costs what its stored rows cost.  A
stored row with no pair says 0 = b_i with b_i not 0; preprocessing answers
it at once with the Farkas vector +-e_i.

`solve_feasible` and `minimize` share one path, `_solve`: drop duplicate
rows, run phase 1 and, given an objective, phase 2.  Phase 2 ends at an
optimum or, when a column enters with no row to leave, refuses the program
as unbounded below by raising `CompositeVerificationFailed`.  With no row
left, phase 1 is feasible at once at x = 0.

`_solve` is also where the one size guard lives: a program whose variables
times the rows left after preprocessing exceed `CAP` raises
`ProblemTooLarge`.  That product is the cell count of a dense tableau, a
bound on the simplex's work per pivot, not what it holds: the tableau is
sparse and keeps far fewer cells.  Counted and duplicate rows never reach
the simplex, so they do not count.  Building a program is not guarded; the
builder holds every stored row before `_solve` counts.

The solver is a two-phase tableau simplex with Bland's rule, which cannot
cycle.  Each tableau row is held as integers: a dict of its
nonzero numerators by column, the right-hand side under one extra key, and
one positive denominator for the whole row, not necessarily in lowest terms.
Zero cells are never stored, a pivot combines two rows over the union of
their supports, and a gcd reduction runs only when a row's denominator
grows.  The ratio test compares rhs_i / N_i[enter] by cross-multiplication,
since the row denominators cancel, and its scan also finds the rows the
pivot changes.  A row with a column +-1 that no other row reads, as an
`add_ge` slack, reads its artificial column through it.  Every pivot is
exact, so a Feasible/Optimal point satisfies the constraints exactly and an
Infeasible outcome carries a Farkas certificate y with  yT A <= 0  and
yT b > 0, checkable without trusting the solver.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational
from typing import Optional, Union

from .errors import CompositeVerificationFailed, DimensionMismatch, ProblemTooLarge
from .record import Record
from .scalars import ONE, ZERO, Scalar

# Largest variables x kept rows `_solve` hands to the simplex.
CAP = 2_000_000


# One stored constraint: its index, its nonzero (column, value) pairs by
# column, and its right-hand side.
Pairs = tuple[tuple[int, Scalar], ...]
Row = tuple[int, Pairs, Scalar]


class LinearProgram(Record):
    """`m` constraints over `n` variables; `rows` holds those that are not
    0 = 0, as (index, pairs, b_i) in increasing index order."""

    n: int
    m: int
    rows: tuple[Row, ...]
    objective: Optional[tuple[Scalar, ...]]

    # Not a field: every variable is >= 0.  The benchmark's answer check
    # still reads it; ROADMAP item 1a removes that read, then this goes.
    lower_bounds = None

    def __init__(
        self,
        n: int,
        m: int,
        rows: tuple[Row, ...],
        objective: Optional[tuple[Scalar, ...]] = None,
    ) -> None:
        last = -1
        for i, pairs, bi in rows:
            if i <= last:
                raise DimensionMismatch(f"row {i} after row {last}: indexes out of order")
            if not (pairs or bi):
                raise DimensionMismatch(f"row {i} is 0 = 0, which is counted, not stored")
            col = -1
            for j, v in pairs:
                if not col < j < n:
                    raise DimensionMismatch(f"row {i}: column {j} out of order or out of range")
                if not v:
                    raise DimensionMismatch(f"row {i}: explicit zero at column {j}")
                col = j
            last = i
        if last >= m:
            raise DimensionMismatch(f"row {last} needs {last + 1} rows vs {m}")
        if objective is not None and len(objective) != n:
            raise DimensionMismatch("objective length mismatch")
        super().__init__(n, m, rows, objective)

    @cached_property
    def a(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense view, a[row][column], built on first use."""
        dense = [(ZERO,) * self.n] * self.m
        for i, pairs, _ in self.rows:
            out = [ZERO] * self.n
            for j, v in pairs:
                out[j] = v
            dense[i] = tuple(out)
        return tuple(dense)

    @cached_property
    def b(self) -> tuple[Scalar, ...]:
        """Dense right-hand side, built on first use."""
        dense = [ZERO] * self.m
        for i, _, bi in self.rows:
            dense[i] = bi
        return tuple(dense)


class FarkasCert(Record):
    y: tuple[Scalar, ...]


class Feasible(Record):
    point: tuple[Scalar, ...]


class Optimal(Record):
    point: tuple[Scalar, ...]
    value: Scalar


class Infeasible(Record):
    cert: FarkasCert


LpOutcome = Union[Feasible, Optimal, Infeasible]


def _dot(pairs: Pairs, x) -> Scalar:
    return sum(c * x[j] for j, c in pairs)


def row_key(pairs: Pairs, bi: Scalar) -> tuple:
    """A row's key on integers; hashing a Fraction costs a modular inverse."""
    return (bi.numerator, bi.denominator, *[(j, v.numerator, v.denominator) for j, v in pairs])


def _preprocess(rows, m):
    """Drop duplicate rows (`row_key`); returns (pairs, rhs, keep), or
    Infeasible when a row has no pair, since its right-hand side is not 0."""
    seen = set()
    kept, rhs, keep = [], [], []
    for i, pairs, bi in rows:
        if not pairs:
            y = [ZERO] * m
            y[i] = ONE if bi > 0 else -ONE
            return Infeasible(FarkasCert(tuple(y)))
        size = len(seen)
        seen.add(row_key(pairs, bi))
        if len(seen) == size:
            continue
        kept.append(pairs)
        rhs.append(bi)
        keep.append(i)
    return kept, rhs, keep


# Key of the right-hand side in a sparse row; columns are 0..n+m-1.
_RHS = -1


class _ExactSimplex:
    """One solve on sparse integer rows.

    Row i stands for rows[i] / dens[i]: a dict of the nonzero integer
    numerators (right-hand side under `_RHS`) over one positive integer
    denominator.  A row is reduced by its gcd only when a pivot grows its
    denominator, so it need not be in lowest terms; nothing read from it
    depends on that.  Every cell equals the `Fraction` a dense tableau would
    hold, so Bland's rule makes the same pivots.

    Row i with a column j of coefficient +-1 that no other row has stores no
    artificial column n + i: `mirror[n + i] = (j, sigma)`, sigma being j's
    sign after the flip.  Row operations keep column n + i equal to sigma
    times column j, so Bland's choice, the ratio scan, the pivot entry and
    the Farkas vector read it through j (phase-1 reduced cost obj_den +
    sigma * obj[j]); being integer combinations of stored cells, its cells
    change no gcd, stored integer or pivot."""

    def __init__(self, pairs, rhs, n):
        self.n = n
        self.signs = []
        self.rows = []
        self.dens = []
        self.mirror = {}
        uses = Counter(j for row in pairs for j, _ in row)
        for i, (row, bi) in enumerate(zip(pairs, rhs)):
            # Flip rows so the right-hand side is nonnegative; remember signs
            # to map Farkas certificates back.
            sign = -1 if bi < 0 else 1
            den = lcm(bi.denominator, *(v.denominator for _, v in row))
            nums = {j: sign * v.numerator * (den // v.denominator) for j, v in row}
            if bi:
                nums[_RHS] = sign * bi.numerator * (den // bi.denominator)
            j = next((j for j, _ in row if uses[j] == 1 and abs(nums[j]) == den), -1)
            if j < 0:
                nums[n + i] = den  # artificial column, cell 1
            else:
                self.mirror[n + i] = (j, nums[j] // den)
            self.signs.append(sign)
            self.rows.append(nums)
            self.dens.append(den)
        self.basis = [n + i for i in range(len(self.rows))]
        self.obj = None
        self.obj_den = 1

    def _set_objective(self, c):
        """Objective row c - sum_i c[basis_i] * row_i over one denominator;
        `c` maps columns to nonzero rationals."""
        parts = [(c[j], row, den) for j, row, den in zip(self.basis, self.rows, self.dens) if j in c]
        den = lcm(*(v.denominator for v in c.values()), *(cb.denominator * d for cb, _, d in parts))
        obj = {j: v.numerator * (den // v.denominator) for j, v in c.items()}
        for cb, row, d in parts:
            f = cb.numerator * (den // (cb.denominator * d))
            for k, v in row.items():
                nv = obj.get(k, 0) - f * v
                if nv:
                    obj[k] = nv
                else:
                    del obj[k]
        self.obj, self.obj_den = obj, _reduce(obj, den)

    def _cost(self, k):
        """The objective row's numerator in column k, mirrored or not."""
        if k in self.mirror:
            j, s = self.mirror[k]
            return self.obj_den + s * self.obj.get(j, 0)
        return self.obj.get(k, 0)

    def _pivot(self, r, col, hits):
        """Pivot on row r, column col; `hits` lists (i, row, entry) for every
        row with a nonzero entry in col, row r included."""
        prow = self.rows[r]
        key, s = self.mirror.get(col, (col, 1))
        p = s * prow[key]
        if p < 0:
            for k in prow:
                prow[k] = -prow[k]
            p = -p
        g = gcd(*prow.values())
        if g > 1:
            for k in prow:
                prow[k] //= g
            p //= g
        dens = self.dens
        dens[r] = p
        for i, row, f in hits:
            if i != r:
                dens[i] = _eliminate(row, dens[i], f, prow, p)
        if self.obj is not None:
            f = self._cost(col)
            if f:
                self.obj_den = _eliminate(self.obj, self.obj_den, f, prow, p)
        self.basis[r] = col

    def _iterate(self):
        """Bland's rule: smallest entering column with a negative reduced
        cost, leaving row by the smallest ratio rhs_i / N_i[enter] (compared
        by cross-multiplication, the row denominators cancel), tie-broken by
        smallest basis variable.  The ratio test's scan also collects the
        rows the pivot eliminates.  Raises when a column enters with no row
        to leave: the objective is then unbounded below."""
        rows, basis, mirror = self.rows, self.basis, self.mirror
        while True:
            enter = min([k for k, v in self.obj.items() if v < 0 and k != _RHS], default=-1)
            if not 0 <= enter < self.n:
                # no structural column is negative: a mirrored artificial may be first
                enter = next((a for a in mirror if (enter < 0 or a < enter) and self._cost(a) < 0), enter)
            if enter < 0:
                return
            key, s = mirror.get(enter, (enter, 1))
            hits = []
            leave, best_rhs, best_piv = -1, 0, 1
            for i, row in enumerate(rows):
                piv = row.get(key)
                if piv:
                    piv *= s
                    hits.append((i, row, piv))
                    if piv > 0:
                        b = row.get(_RHS, 0)
                        lhs, rhs = b * best_piv, best_rhs * piv
                        if leave < 0 or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                            leave, best_rhs, best_piv = i, b, piv
            if leave < 0:
                raise CompositeVerificationFailed("LP objective is unbounded below")
            self._pivot(leave, enter, hits)

    def phase1(self):
        """None when the rows are feasible, else a Farkas vector y for them."""
        n, m = self.n, len(self.rows)
        self._set_objective({n + i: 1 for i in range(m)})
        for a in self.mirror:  # no row cancels its cost; `_cost` reads it through j
            del self.obj[a]
        self._iterate()
        # the phase-1 value is minus the objective row's right-hand side
        if self.obj.get(_RHS):
            den = self.obj_den
            return [Fraction(s * (den - self._cost(n + i)), den) for i, s in enumerate(self.signs)]
        # Drive artificial variables out of the basis; drop redundant rows.
        self.obj = None
        r = 0
        while r < len(self.rows):
            if self.basis[r] >= n:
                col = min((k for k in self.rows[r] if 0 <= k < n), default=-1)
                if col >= 0:
                    self._pivot(r, col, [(i, row, row[col]) for i, row in enumerate(self.rows) if col in row])
                    r += 1
                else:
                    del self.rows[r], self.dens[r], self.basis[r]
            else:
                r += 1
        # Drop artificial columns.
        self.rows = [{k: v for k, v in row.items() if k < n} for row in self.rows]
        self.mirror = {}
        return None

    def point(self):
        x = [Fraction(0)] * self.n
        for j, row, den in zip(self.basis, self.rows, self.dens):
            x[j] = Fraction(row.get(_RHS, 0), den)
        return tuple(x)

    def phase2(self, c):
        self._set_objective({j: v for j, v in enumerate(c) if v})
        self._iterate()
        return Optimal(self.point(), Fraction(-self.obj.get(_RHS, 0), self.obj_den))


def _eliminate(row, den, f, prow, p):
    """Replace `row` / den, whose cell in the pivot column is f / den, by
    (row * p - f * prow) / (den * p) in place, over the union of the two
    supports, with f and p first divided by their gcd; returns the new
    denominator.  When p divides f the row is not scaled, its denominator
    stays and no reduction runs."""
    g = gcd(f, p)
    if g > 1:
        f //= g
        p //= g
    if p != 1:
        for k in row:
            row[k] *= p
    for k, v in prow.items():
        nv = row.get(k, 0) - f * v
        if nv:
            row[k] = nv
        else:
            del row[k]
    return den if p == 1 else _reduce(row, den * p)


def _reduce(row, den):
    """Divide the numerators and `den` by their gcd in place; returns the new
    denominator."""
    g = gcd(den, *row.values())
    if g > 1:
        for k in row:
            row[k] //= g
        den //= g
    return den


def _solve(lp: LinearProgram, objective: Optional[tuple[Scalar, ...]]) -> LpOutcome:
    """Phase 1 on the preprocessed rows over x >= 0, then phase 2 when an
    objective is given; returns the phase's outcome as it is.  Phase 2 ends
    at an optimum or raises on an objective unbounded below.  Refuses a
    program past `CAP` variables x kept rows."""
    pre = _preprocess(lp.rows, lp.m)
    if isinstance(pre, Infeasible):
        return pre
    rows, rhs, keep = pre
    if lp.n * len(rows) > CAP:
        raise ProblemTooLarge(f"LP has {lp.n} vars x {len(rows)} rows after presolve")
    sx = _ExactSimplex(rows, rhs, lp.n)
    y = sx.phase1()
    if y is not None:
        # a multiplier for every original row, 0 on the dropped ones
        full = [ZERO] * lp.m
        for v, i in zip(y, keep):
            full[i] = v
        return Infeasible(FarkasCert(tuple(full)))
    return Feasible(sx.point()) if objective is None else sx.phase2(objective)


def solve_feasible(lp: LinearProgram) -> LpOutcome:
    """Find any feasible point or prove there is none."""
    return _solve(lp, None)


def minimize(lp: LinearProgram) -> LpOutcome:
    """Minimize the objective over the feasible region; raises
    `CompositeVerificationFailed` when it is unbounded below."""
    if lp.objective is None:
        raise ValueError("minimize requires an objective")
    return _solve(lp, lp.objective)


def _entries(outcome: LpOutcome) -> tuple:
    """Every number the outcome reports."""
    if isinstance(outcome, Optimal):
        return (*outcome.point, outcome.value)
    if isinstance(outcome, Feasible):
        return outcome.point
    if isinstance(outcome, Infeasible):
        return outcome.cert.y
    return ()


def verify(outcome: LpOutcome, lp: LinearProgram) -> bool:
    """Re-check an outcome against the raw program data, exactly: a point
    is >= 0 and solves every row, an optimum's value is the objective at its
    point, and a Farkas vector y has yT A <= 0 and yT b > 0.  Every entry of
    the outcome must be an exact rational."""
    if not all(isinstance(v, Rational) for v in _entries(outcome)):
        return False
    if isinstance(outcome, (Feasible, Optimal)):
        x = outcome.point
        if len(x) != lp.n or any(v < 0 for v in x):
            return False
        if not all(_dot(pairs, x) == bi for _, pairs, bi in lp.rows):
            return False
        if isinstance(outcome, Optimal):
            return lp.objective is not None and sum(c * x[j] for j, c in enumerate(lp.objective) if c) == outcome.value
        return True
    if isinstance(outcome, Infeasible):
        y = outcome.cert.y
        if len(y) != lp.m:
            return False
        # yT A column by column and yT b, adding each column's terms in
        # increasing row order, over the stored rows with a nonzero
        # multiplier; a 0 = 0 row adds nothing
        cols = [0] * lp.n
        yb = 0
        for i, pairs, bi in lp.rows:
            yi = y[i]
            if yi:
                for j, c in pairs:
                    cols[j] += yi * c
                yb += yi * bi
        if any(s > 0 for s in cols):
            return False
        return yb > 0
    return False


# ---------------------------------------------------------------------------
# constraint assembly


class LpBuilder:
    """Accumulates sparse linear constraints and encodes inequalities with
    slack variables, producing the canonical equality form."""

    def __init__(self) -> None:
        self.n = 0
        self.m = 0
        self.rows: list[Row] = []
        self.objective: Optional[dict[int, Scalar]] = None

    def new_vars(self, count: int) -> range:
        start = self.n
        self.n += count
        return range(start, start + count)

    def add_eq(self, coeffs: dict[int, Scalar], rhs: Scalar) -> None:
        """One row; stored unless it is 0 = 0."""
        pairs = tuple(sorted((j, v) for j, v in coeffs.items() if v))
        if pairs or rhs:
            self.rows.append((self.m, pairs, rhs))
        self.m += 1

    def add_ge(self, coeffs: dict[int, Scalar], rhs: Scalar) -> None:
        """coeffs . x - s = rhs, with a new slack variable s."""
        self.add_eq({**coeffs, self.new_vars(1)[0]: -ONE}, rhs)

    def add_empty(self, count: int) -> None:
        """`count` rows 0 = 0, counted and not stored."""
        self.m += count

    def set_objective(self, coeffs: dict[int, Scalar]) -> None:
        self.objective = dict(coeffs)

    def build(self) -> LinearProgram:
        """The program, with an objective exactly when one was set."""
        obj = None
        if self.objective is not None:
            obj = tuple(self.objective.get(j, ZERO) for j in range(self.n))
        return LinearProgram(self.n, self.m, tuple(self.rows), obj)
