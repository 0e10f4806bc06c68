"""Exact linear feasibility and minimization with infeasibility certificates.

Canonical form: equality constraints A x = b over x >= lower_bounds
(componentwise, default 0).  Callers encode inequalities through slack
variables; `LpBuilder` below does that bookkeeping.

The solver is a two-phase tableau simplex with Bland's rule, which cannot
cycle; the tableau is stored dense, but each pivot touches only the pivot
row's nonzero columns.  In rational mode every pivot is exact, so a Feasible/Optimal
point satisfies the constraints exactly and an Infeasible outcome carries a
Farkas certificate y with  yT A <= 0  and  yT b > 0, checkable without
trusting the solver.  Float mode runs the same algorithm with a pivot
tolerance and is meant for large epsilon-minimizations only; verdicts that
matter are produced in rational mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import DimensionMismatch
from .scalars import RATIONAL, TOL_LP, TOL_PIVOT, Scalar, check_mode, zero


@dataclass(frozen=True)
class LinearProgram:
    n: int
    a: tuple[tuple[Scalar, ...], ...]
    b: tuple[Scalar, ...]
    objective: Optional[tuple[Scalar, ...]] = None
    lower_bounds: Optional[tuple[Scalar, ...]] = None
    mode: str = RATIONAL

    def __post_init__(self) -> None:
        check_mode(self.mode)
        if len(self.a) != len(self.b):
            raise DimensionMismatch(f"{len(self.a)} rows vs {len(self.b)} right-hand sides")
        for row in self.a:
            if len(row) != self.n:
                raise DimensionMismatch(f"row of length {len(row)}, expected {self.n}")
        if self.objective is not None and len(self.objective) != self.n:
            raise DimensionMismatch("objective length mismatch")
        if self.lower_bounds is not None and len(self.lower_bounds) != self.n:
            raise DimensionMismatch("lower_bounds length mismatch")

    @property
    def m(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class FarkasCert:
    y: tuple[Scalar, ...]


@dataclass(frozen=True)
class Feasible:
    point: tuple[Scalar, ...]


@dataclass(frozen=True)
class Optimal:
    point: tuple[Scalar, ...]
    value: Scalar


@dataclass(frozen=True)
class Infeasible:
    cert: FarkasCert


@dataclass(frozen=True)
class Unbounded:
    ray: tuple[Scalar, ...]


LpOutcome = Union[Feasible, Optimal, Infeasible, Unbounded]


def _shift_bounds(lp: LinearProgram):
    """Substitute x = x' + lb so the solver only sees x' >= 0."""
    if lp.lower_bounds is None or all(v == 0 for v in lp.lower_bounds):
        return lp.a, lp.b, None
    lb = lp.lower_bounds
    b2 = []
    for row, bi in zip(lp.a, lp.b):
        b2.append(bi - sum(c * l for c, l in zip(row, lb) if l != 0))
    return lp.a, tuple(b2), lb


def _preprocess(a, b, mode):
    """Drop empty and duplicate rows; returns (rows, rhs, keep_map) or an
    immediate Farkas certificate as ('infeasible', y)."""
    tol = 0 if mode == RATIONAL else TOL_PIVOT
    seen: dict = {}
    rows, rhs, keep = [], [], []
    for i, (row, bi) in enumerate(zip(a, b)):
        if all((v == 0 if mode == RATIONAL else abs(v) <= tol) for v in row):
            if (bi == 0 if mode == RATIONAL else abs(bi) <= tol):
                continue
            y = [zero(mode)] * len(a)
            y[i] = (1 if bi > 0 else -1) if mode == RATIONAL else (1.0 if bi > 0 else -1.0)
            return "infeasible", tuple(y)
        key = (tuple(row), bi)
        if key in seen:
            continue
        seen[key] = i
        rows.append(list(row))
        rhs.append(bi)
        keep.append(i)
    return "ok", (rows, rhs, keep)


class _Simplex:
    """One solve; tableau state is local to the instance."""

    def __init__(self, rows, rhs, n, mode):
        self.n = n
        self.m = len(rows)
        self.mode = mode
        self.tol = 0 if mode == RATIONAL else TOL_PIVOT
        # Flip rows so the right-hand side is nonnegative; remember signs to
        # map Farkas certificates back.
        self.signs = []
        self.tab = []
        one_ = Fraction(1) if mode == RATIONAL else 1.0
        zero_ = Fraction(0) if mode == RATIONAL else 0.0
        for i in range(self.m):
            if rhs[i] < 0:
                row = [-v for v in rows[i]]
                bi = -rhs[i]
                self.signs.append(-1)
            else:
                row = list(rows[i])
                bi = rhs[i]
                self.signs.append(1)
            art = [one_ if k == i else zero_ for k in range(self.m)]
            self.tab.append(row + art + [bi])
        self.basis = [n + i for i in range(self.m)]
        self.zero_ = zero_
        self.one_ = one_

    def _pivot(self, obj, r, col):
        tab = self.tab
        prow = tab[r]
        inv = self.one_ / prow[col]
        if inv != 1:
            prow = [v * inv for v in prow]
            tab[r] = prow
        # Tableaux are mostly zeros: only the pivot row's nonzero columns
        # change, and each of them gets the same arithmetic as a dense update.
        nonzero = [(k, v) for k, v in enumerate(prow) if v]
        for i in range(self.m):
            if i == r:
                continue
            row = tab[i]
            factor = row[col]
            if factor:
                for k, v in nonzero:
                    row[k] -= factor * v
        factor = obj[col]
        if factor:
            for k, v in nonzero:
                obj[k] -= factor * v
        self.basis[r] = col

    def _iterate(self, obj, allowed_cols):
        """Bland's rule: smallest eligible entering column, tie-broken leaving
        row by smallest basis variable.  Returns None or the unbounded column."""
        tol = self.tol
        while True:
            enter = -1
            for j in allowed_cols:
                if obj[j] < -tol:
                    enter = j
                    break
            if enter < 0:
                return None
            leave = -1
            best = None
            for i in range(self.m):
                piv = self.tab[i][enter]
                if piv > tol:
                    ratio = self.tab[i][-1] / piv
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return enter
            self._pivot(obj, leave, enter)

    def phase1(self):
        """Returns ('feasible', None) or ('infeasible', y) for the scaled rows."""
        n, m = self.n, self.m
        obj = [self.zero_] * (n + m) + [self.zero_]
        for j in range(n + m):
            obj[j] = self.one_ if j >= n else self.zero_
        for row in self.tab:
            for k in range(len(obj)):
                obj[k] -= row[k]
        # obj[-1] == -(sum of artificials); phase-1 value is -obj[-1]
        self._iterate(obj, range(n + m))
        value = -obj[-1]
        # float mode: judge feasibility at the solution tolerance, not the
        # pivot tolerance, so accumulation error cannot flip the verdict
        if (value != 0) if self.mode == RATIONAL else (value > TOL_LP):
            y_scaled = [self.one_ - obj[n + i] for i in range(m)]
            y = [s * v for s, v in zip(self.signs, y_scaled)]
            return "infeasible", y
        # Drive artificial variables out of the basis; drop redundant rows.
        r = 0
        while r < self.m:
            if self.basis[r] >= n:
                col = next((j for j in range(n) if (self.tab[r][j] != 0 if self.mode == RATIONAL else abs(self.tab[r][j]) > TOL_PIVOT)), -1)
                if col >= 0:
                    self._pivot(obj, r, col)
                    r += 1
                else:
                    del self.tab[r]
                    del self.basis[r]
                    self.m -= 1
            else:
                r += 1
        # Drop artificial columns.
        self.tab = [row[:n] + [row[-1]] for row in self.tab]
        return "feasible", None

    def point(self):
        x = [self.zero_] * self.n
        for i in range(self.m):
            if self.basis[i] < self.n:
                x[self.basis[i]] = self.tab[i][-1]
        return x

    def phase2(self, c):
        obj = list(c) + [self.zero_]
        for i in range(self.m):
            cb = c[self.basis[i]]
            if cb:
                row = self.tab[i]
                for k in range(len(obj)):
                    obj[k] -= cb * row[k]
        unb = self._iterate(obj, range(self.n))
        if unb is not None:
            ray = [self.zero_] * self.n
            ray[unb] = self.one_
            for i in range(self.m):
                ray[self.basis[i]] = -self.tab[i][unb]
            return "unbounded", ray, None
        return "optimal", self.point(), -obj[-1]


def _lift_cert(y_red, keep, m_full, mode):
    y = [zero(mode)] * m_full
    for v, i in zip(y_red, keep):
        y[i] = v
    return tuple(y)


def solve_feasible(lp: LinearProgram) -> LpOutcome:
    """Find any feasible point or prove there is none."""
    a, b, lb = _shift_bounds(lp)
    status, data = _preprocess(a, b, lp.mode)
    if status == "infeasible":
        return Infeasible(FarkasCert(data))
    rows, rhs, keep = data
    if not rows:
        x = list(lb) if lb else [zero(lp.mode)] * lp.n
        return Feasible(tuple(x))
    sx = _Simplex(rows, rhs, lp.n, lp.mode)
    status, y = sx.phase1()
    if status == "infeasible":
        return Infeasible(FarkasCert(_lift_cert(y, keep, lp.m, lp.mode)))
    x = sx.point()
    if lb:
        x = [v + l for v, l in zip(x, lb)]
    return Feasible(tuple(x))


def minimize(lp: LinearProgram) -> LpOutcome:
    """Minimize the objective over the feasible region."""
    if lp.objective is None:
        raise ValueError("minimize requires an objective")
    a, b, lb = _shift_bounds(lp)
    status, data = _preprocess(a, b, lp.mode)
    if status == "infeasible":
        return Infeasible(FarkasCert(data))
    rows, rhs, keep = data
    c = list(lp.objective)
    if not rows:
        # x >= 0 free of constraints: bounded iff no negative cost.
        if any(v < 0 for v in c):
            j = next(i for i, v in enumerate(c) if v < 0)
            ray = [zero(lp.mode)] * lp.n
            ray[j] = Fraction(1) if lp.mode == RATIONAL else 1.0
            return Unbounded(tuple(ray))
        x = list(lb) if lb else [zero(lp.mode)] * lp.n
        return Optimal(tuple(x), sum(ci * xi for ci, xi in zip(c, x)) if lb else zero(lp.mode))
    sx = _Simplex(rows, rhs, lp.n, lp.mode)
    status, y = sx.phase1()
    if status == "infeasible":
        return Infeasible(FarkasCert(_lift_cert(y, keep, lp.m, lp.mode)))
    status, vec, value = sx.phase2(c)
    if status == "unbounded":
        return Unbounded(tuple(vec))
    x = vec
    if lb:
        x = [v + l for v, l in zip(x, lb)]
        value = sum(ci * xi for ci, xi in zip(c, x))
    return Optimal(tuple(x), value)


def verify(outcome: LpOutcome, lp: LinearProgram) -> bool:
    """Re-check an outcome against the raw program data."""
    tol = 0 if lp.mode == RATIONAL else TOL_LP
    lb = lp.lower_bounds or tuple(zero(lp.mode) for _ in range(lp.n))

    def residual(x):
        for row, bi in zip(lp.a, lp.b):
            r = sum(c * v for c, v in zip(row, x)) - bi
            if (r != 0) if lp.mode == RATIONAL else (abs(r) > tol):
                return False
        return True

    if isinstance(outcome, (Feasible, Optimal)):
        x = outcome.point
        if len(x) != lp.n:
            return False
        if any(v < l - tol for v, l in zip(x, lb)):
            return False
        if not residual(x):
            return False
        if isinstance(outcome, Optimal):
            val = sum(c * v for c, v in zip(lp.objective, x))
            return (val == outcome.value) if lp.mode == RATIONAL else abs(val - outcome.value) <= tol
        return True
    if isinstance(outcome, Infeasible):
        y = outcome.cert.y
        if len(y) != lp.m:
            return False
        for j in range(lp.n):
            s = sum(y[i] * lp.a[i][j] for i in range(lp.m))
            if (s > 0) if lp.mode == RATIONAL else (s > tol):
                return False
        shift = sum(
            y[i] * (lp.b[i] - sum(c * l for c, l in zip(lp.a[i], lb)))
            for i in range(lp.m)
        )
        return (shift > 0) if lp.mode == RATIONAL else (shift > tol)
    if isinstance(outcome, Unbounded):
        if lp.objective is None or len(outcome.ray) != lp.n:
            return False
        d = outcome.ray
        if any(v < -tol for v in d):
            return False
        for row in lp.a:
            s = sum(c * v for c, v in zip(row, d))
            if (s != 0) if lp.mode == RATIONAL else (abs(s) > tol):
                return False
        cd = sum(c * v for c, v in zip(lp.objective, d))
        return (cd < 0) if lp.mode == RATIONAL else (cd < -tol)
    return False


# ---------------------------------------------------------------------------
# constraint assembly


class LpBuilder:
    """Accumulates sparse linear constraints and encodes inequalities with
    slack variables, producing the canonical equality form."""

    def __init__(self, mode: str = RATIONAL) -> None:
        self.mode = check_mode(mode)
        self.n = 0
        self.rows: list[dict[int, Scalar]] = []
        self.rhs: list[Scalar] = []
        self.objective: dict[int, Scalar] = {}
        self.n_structural = 0

    def new_vars(self, count: int) -> range:
        start = self.n
        self.n += count
        self.n_structural = self.n
        return range(start, start + count)

    def _slack(self) -> int:
        idx = self.n
        self.n += 1
        return idx

    def add_eq(self, coeffs: dict[int, Scalar], rhs: Scalar) -> None:
        self.rows.append(dict(coeffs))
        self.rhs.append(rhs)

    def add_ge(self, coeffs: dict[int, Scalar], rhs: Scalar) -> None:
        row = dict(coeffs)
        row[self._slack()] = Fraction(-1) if self.mode == RATIONAL else -1.0
        self.rows.append(row)
        self.rhs.append(rhs)

    def add_le(self, coeffs: dict[int, Scalar], rhs: Scalar) -> None:
        row = dict(coeffs)
        row[self._slack()] = Fraction(1) if self.mode == RATIONAL else 1.0
        self.rows.append(row)
        self.rhs.append(rhs)

    def set_objective(self, coeffs: dict[int, Scalar]) -> None:
        self.objective = dict(coeffs)

    def build(self, with_objective: bool) -> LinearProgram:
        z = zero(self.mode)
        a = tuple(
            tuple(row.get(j, z) for j in range(self.n)) for row in self.rows
        )
        obj = None
        if with_objective:
            obj = tuple(self.objective.get(j, z) for j in range(self.n))
        return LinearProgram(self.n, a, tuple(self.rhs), obj, None, self.mode)
