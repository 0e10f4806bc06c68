"""Linear programs over the table of an unknown comb.

Simulator search (`attacks`) and mediator search (`nogo`) both ask about a
network with one symbolic comb: `Network.linear_evaluate` gives every
transcript probability as a linear form in the comb's table, and the comb's
table must be stochastic and causal.  Equating the forms with a target
behaviour is a feasibility problem; minimizing the adaptive distinguisher's
advantage against the target is a minimization.

The advantage is encoded by backward induction over the distinguisher's
decision tree (`comb.decision_rounds`): one variable u per table cell bounds
|form - target| from above, one value variable W(h) per decision node below
the root bounds W(h) >= sum over y_r of its children for every input choice
x_r, and t >= 1/2 sum over y_1 of the root's children for every x_1.  This is
the classical case of the linear description of strategies (Gutoski and
Watrous, STOC 2007; Chiribella, D'Ariano and Perinotti, PRA 80, 022339,
2009), with one row per (node, choice) instead of one per strategy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import lp as lpmod
from .comb import IN, OUT, Behavior, Network, Signature, canonical_rounds, decision_rounds, make_behavior
from .errors import CompositeVerificationFailed
from .lp import Infeasible, LinearProgram, LpBuilder
from .scalars import RATIONAL, Scalar, one, zero
from .stoch import all_tuples, make_kernel, ports_size, tuple_index

# aligned[j][i]: linear form {table variable: coefficient} of cell (j, i)
LinearForms = list[list[dict[int, Scalar]]]


def _index_maps(net_sig: Signature):
    """Map canonical x/y indices to the raw network table's indices."""
    can_sig, order = canonical_rounds(net_sig)
    net_ins = [i for i in range(len(net_sig.ports)) if net_sig.ports[i].direction == IN]
    net_outs = [i for i in range(len(net_sig.ports)) if net_sig.ports[i].direction == OUT]
    dom_perm = [net_ins.index(i) for i in order if net_sig.ports[i].direction == IN]
    cod_perm = [net_outs.index(i) for i in order if net_sig.ports[i].direction == OUT]
    in_alphas = tuple(net_sig.ports[i].alphabet for i in net_ins)
    out_alphas = tuple(net_sig.ports[i].alphabet for i in net_outs)
    can_in_alphas = tuple(in_alphas[k] for k in dom_perm)
    can_out_alphas = tuple(out_alphas[k] for k in cod_perm)
    x_map = []
    for x in all_tuples(can_in_alphas):
        raw = [0] * len(in_alphas)
        for pos, v in zip(dom_perm, x):
            raw[pos] = v
        x_map.append(tuple_index(in_alphas, tuple(raw)))
    y_map = []
    for y in all_tuples(can_out_alphas):
        raw = [0] * len(out_alphas)
        for pos, v in zip(cod_perm, y):
            raw[pos] = v
        y_map.append(tuple_index(out_alphas, tuple(raw)))
    return can_sig, x_map, y_map


def canonical_forms(net: Network) -> tuple[Signature, LinearForms]:
    """The network's transcript table as linear forms in its symbolic comb's
    table, indexed like the canonical form of the evaluated network."""
    net_sig, columns = net.linear_evaluate()
    can_sig, x_map, y_map = _index_maps(net_sig)
    aligned = []
    for raw_j in x_map:
        col = columns[raw_j]
        aligned.append([col.get(raw_i, {}) for raw_i in y_map])
    return can_sig, aligned


def causality_rows(sig: Signature, var: Callable[[int, int], int]) -> list[dict[int, Fraction]]:
    """Causality of a comb table as linear equations (= 0): the marginal of
    the first r rounds' outputs must not depend on later inputs."""
    ins, outs = sig.ins(), sig.outs()
    in_alphas = tuple(p.alphabet for p in ins)
    out_alphas = tuple(p.alphabet for p in outs)
    rows = []
    for r in range(1, sig.rounds):
        late = [k for k, p in enumerate(ins) if p.round > r]
        if not late:
            continue
        early = [k for k, p in enumerate(ins) if p.round <= r]
        keep = [k for k, p in enumerate(outs) if p.round <= r]
        groups: dict[tuple, int] = {}
        for x in all_tuples(in_alphas):
            j = tuple_index(in_alphas, x)
            key = tuple(x[k] for k in early)
            if key not in groups:
                groups[key] = j
                continue
            j0 = groups[key]
            for y_pre in all_tuples(tuple(out_alphas[k] for k in keep)):
                coeffs: dict[int, Fraction] = {}
                for y in all_tuples(out_alphas):
                    if tuple(y[k] for k in keep) != y_pre:
                        continue
                    i = tuple_index(out_alphas, y)
                    coeffs[var(j, i)] = coeffs.get(var(j, i), Fraction(0)) + 1
                    coeffs[var(j0, i)] = coeffs.get(var(j0, i), Fraction(0)) - 1
                rows.append(coeffs)
    return rows


def table_lp(sig: Signature, mode: str = RATIONAL) -> LpBuilder:
    """A builder whose first variables are the table of a comb with signature
    `sig` (cell (j, i) is variable j * n_y + i, the numbering
    `Network.linear_evaluate` uses), constrained stochastic and causal."""
    n_x = ports_size(tuple(p.alphabet for p in sig.ins()))
    n_y = ports_size(tuple(p.alphabet for p in sig.outs()))
    bld = LpBuilder(mode)
    bld.new_vars(n_x * n_y)

    def var(j: int, i: int) -> int:
        return j * n_y + i

    for j in range(n_x):
        bld.add_eq({var(j, i): one(mode) for i in range(n_y)}, one(mode))
    for coeffs in causality_rows(sig, var):
        bld.add_eq(coeffs, zero(mode))
    return bld


def table_behavior(sig: Signature, point, mode: str = RATIONAL) -> Behavior:
    """The comb whose table is the first variables of a `table_lp` point."""
    ins = tuple(p.alphabet for p in sig.ins())
    outs = tuple(p.alphabet for p in sig.outs())
    n_x, n_y = ports_size(ins), ports_size(outs)
    table = [[point[j * n_y + i] for j in range(n_x)] for i in range(n_y)]
    return make_behavior(sig, make_kernel(ins, outs, table, mode), check=True)


def add_match_rows(bld: LpBuilder, aligned: LinearForms, target: Behavior) -> None:
    """Every linear form equals the target's table entry."""
    for j, col in enumerate(aligned):
        for i, form in enumerate(col):
            bld.add_eq(form, target.kernel.matrix[i][j])


def add_cell_gaps(bld: LpBuilder, aligned: LinearForms, target: Behavior) -> tuple[int, list[list[int]]]:
    """Allocate the advantage variable t, then one u per table cell with
    u >= |form - target|; returns t and u[j][i]."""
    mode = target.mode
    t = bld.new_vars(1)[0]
    u = []
    for j, col in enumerate(aligned):
        u_col = []
        for i, form in enumerate(col):
            cell = bld.new_vars(1)[0]
            rv = target.kernel.matrix[i][j]
            below = {k: -v for k, v in form.items()}
            below[cell] = one(mode)
            bld.add_ge(below, -rv)
            above = dict(form)
            above[cell] = one(mode)
            bld.add_ge(above, rv)
            u_col.append(cell)
        u.append(u_col)
    return t, u


def add_tree_rows(bld: LpBuilder, t: int, u: list[list[int]], sig: Signature) -> None:
    """Backward-induction rows bounding t from below by the distinguisher's
    best advantage over the cell gaps u."""
    mode = bld.mode
    half = Fraction(1, 2) if mode == RATIONAL else 0.5
    steps = decision_rounds(sig)

    def node(r: int, j: int, i: int) -> int:
        """Variable bounding the value of the round-r node at offsets (j, i)."""
        if r == len(steps):
            return u[j][i]
        w = bld.new_vars(1)[0]
        xs, ys = steps[r]
        for dj in xs:
            row = {node(r + 1, j + dj, i + di): -one(mode) for di in ys}
            row[w] = one(mode)
            bld.add_ge(row, zero(mode))
        return w

    xs, ys = steps[0]
    for dj in xs:
        row = {node(1, dj, di): -half for di in ys}
        row[t] = one(mode)
        bld.add_ge(row, zero(mode))


def add_advantage_objective(bld: LpBuilder, aligned: LinearForms, target: Behavior) -> None:
    """Objective: the adaptive distinguisher's advantage between the forms
    and the target, whose minimum over the table is the program's value."""
    t, u = add_cell_gaps(bld, aligned, target)
    add_tree_rows(bld, t, u, target.signature)
    bld.set_objective({t: one(bld.mode)})


def expect_outcome(out, kind, what: str) -> None:
    """Raise unless the solver returned the expected kind of outcome."""
    if not isinstance(out, kind):
        raise CompositeVerificationFailed(f"{what} LP returned {type(out).__name__}")


def verify_or_raise(out, prog: LinearProgram, what: str) -> None:
    """Raise unless `lp.verify` re-checks the outcome (a Farkas certificate
    or an optimum) against the raw program."""
    if not lpmod.verify(out, prog):
        thing = "Farkas certificate" if isinstance(out, Infeasible) else "optimum"
        raise CompositeVerificationFailed(f"{what} LP's {thing} failed re-verification")
