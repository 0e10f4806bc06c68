"""Linear programs over the table of an unknown comb.

Simulator search (`attacks`) and mediator search (`nogo`) both ask about a
network with one symbolic comb: `Network.linear_evaluate` gives every
transcript probability as a linear form in the comb's table, and the comb's
table must be stochastic and causal.  Equating the forms with a target
behaviour is a feasibility problem; minimizing the adaptive distinguisher's
advantage against the target is a minimization.  `solve_comb` is the one
path for both: it builds the program, solves it, reads the table back and
substitutes it into the network.

The advantage is encoded by backward induction over the distinguisher's
decision tree (`comb.decision_rounds`): one variable u per table cell bounds
|form - target| from above, one value variable W(h) per decision node below
the root bounds W(h) >= sum over y_r of its children for every input choice
x_r, and t >= 1/2 sum over y_1 of the root's children for every x_1.  This is
the classical case of the linear description of strategies (Gutoski and
Watrous, STOC 2007; Chiribella, D'Ariano and Perinotti, PRA 80, 022339,
2009), with one row per (node, choice) instead of one per strategy.

Every program is solved through `solve_checked`: one size guard, one solver
call, and a re-check of every Farkas certificate against the raw program, so
a verdict of infeasibility never rests on the solver alone.  That re-check
guards the solver only; the program's own rows are taken as written.  A
table found by `solve_comb` is re-checked by substitution: the network
evaluated with the table in place must be at `behavior_distance` from the
target exactly the program's value (0 for feasibility), which guards the
match rows, the tree rows and the solver together.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import lp as lpmod
from .comb import (
    Behavior,
    Network,
    ScheduleItem,
    Signature,
    Wire,
    axis_perms,
    behavior_distance,
    canonical,
    canonical_rounds,
    decision_rounds,
    make_behavior,
)
from .errors import CompositeVerificationFailed, InterfaceMismatch, ProblemTooLarge
from .lp import Feasible, Infeasible, LinearProgram, LpBuilder, LpOutcome, Optimal
from .scalars import ONE, ZERO, Scalar
from .stoch import index_projection, make_kernel, ports_size

# aligned[j][i]: linear form {table variable: coefficient} of cell (j, i)
LinearForms = list[list[dict[int, Scalar]]]


def canonical_forms(net: Network) -> tuple[Signature, LinearForms]:
    """The network's transcript table as linear forms in its symbolic comb's
    table, indexed like the canonical form of the evaluated network."""
    net_sig, columns = net.linear_evaluate()
    can_sig, order = canonical_rounds(net_sig)
    dom_perm, cod_perm = axis_perms(net_sig.ports, order)
    in_alphas = tuple(p.alphabet for p in net_sig.ins())
    out_alphas = tuple(p.alphabet for p in net_sig.outs())
    can_col = index_projection(in_alphas, dom_perm)
    can_row = index_projection(out_alphas, cod_perm)
    n_y = ports_size(out_alphas)
    aligned: LinearForms = [[] for _ in columns]
    for j, col in enumerate(columns):
        forms = aligned[can_col(j)] = [{} for _ in range(n_y)]
        for i, form in col.items():
            forms[can_row(i)] = form
    return can_sig, aligned


def causality_rows(sig: Signature, var: Callable[[int, int], int]) -> list[dict[int, Fraction]]:
    """Causality of a comb table as linear equations (= 0): the marginal of
    the first r rounds' outputs must not depend on later inputs."""
    ins, outs = sig.ins(), sig.outs()
    in_alphas = tuple(p.alphabet for p in ins)
    out_alphas = tuple(p.alphabet for p in outs)
    n_y = ports_size(out_alphas)
    rows = []
    for r in range(1, sig.rounds):
        if all(p.round <= r for p in ins):
            continue
        early = index_projection(in_alphas, [k for k, p in enumerate(ins) if p.round <= r])
        keep = [k for k, p in enumerate(outs) if p.round <= r]
        # the rows i of each value of the outputs through round r, increasing
        prefixes: list[list[int]] = [[] for _ in range(ports_size(tuple(out_alphas[k] for k in keep)))]
        prefix = index_projection(out_alphas, keep)
        for i in range(n_y):
            prefixes[prefix(i)].append(i)
        first: dict[int, int] = {}  # early-input index -> its first column
        for j in range(ports_size(in_alphas)):
            j0 = first.setdefault(early(j), j)
            if j0 == j:
                continue
            for same in prefixes:
                coeffs: dict[int, Fraction] = {}
                for i in same:
                    coeffs[var(j, i)] = ONE
                    coeffs[var(j0, i)] = -ONE
                rows.append(coeffs)
    return rows


def table_lp(sig: Signature) -> LpBuilder:
    """A builder whose first variables are the table of a comb with signature
    `sig` (cell (j, i) is variable j * n_y + i, the numbering
    `Network.linear_evaluate` uses), constrained stochastic and causal."""
    n_x = ports_size(tuple(p.alphabet for p in sig.ins()))
    n_y = ports_size(tuple(p.alphabet for p in sig.outs()))
    bld = LpBuilder()
    bld.new_vars(n_x * n_y)

    def var(j: int, i: int) -> int:
        return j * n_y + i

    for j in range(n_x):
        bld.add_eq({var(j, i): ONE for i in range(n_y)}, ONE)
    for coeffs in causality_rows(sig, var):
        bld.add_eq(coeffs, ZERO)
    return bld


def table_behavior(sig: Signature, point) -> Behavior:
    """The comb whose table is the first variables of a `table_lp` point."""
    ins = tuple(p.alphabet for p in sig.ins())
    outs = tuple(p.alphabet for p in sig.outs())
    n_x, n_y = ports_size(ins), ports_size(outs)
    table = [[point[j * n_y + i] for j in range(n_x)] for i in range(n_y)]
    return make_behavior(sig, make_kernel(ins, outs, table), check=True)


def add_match_rows(bld: LpBuilder, aligned: LinearForms, target: Behavior) -> None:
    """Every linear form equals the target's table entry."""
    for j, col in enumerate(aligned):
        values = target.kernel.column(j)
        for i, form in enumerate(col):
            bld.add_eq(form, values[i])


def add_cell_gaps(bld: LpBuilder, aligned: LinearForms, target: Behavior) -> tuple[int, list[list[int]]]:
    """Allocate the advantage variable t, then one u per table cell with
    u >= |form - target|; returns t and u[j][i]."""
    t = bld.new_vars(1)[0]
    u = []
    for j, col in enumerate(aligned):
        values = target.kernel.column(j)
        u_col = []
        for i, form in enumerate(col):
            cell = bld.new_vars(1)[0]
            rv = values[i]
            below = {k: -v for k, v in form.items()}
            below[cell] = ONE
            bld.add_ge(below, -rv)
            above = dict(form)
            above[cell] = ONE
            bld.add_ge(above, rv)
            u_col.append(cell)
        u.append(u_col)
    return t, u


def add_tree_rows(bld: LpBuilder, t: int, u: list[list[int]], sig: Signature) -> None:
    """Backward-induction rows bounding t from below by the distinguisher's
    best advantage over the cell gaps u."""
    half = Fraction(1, 2)
    steps = decision_rounds(sig)

    def node(r: int, j: int, i: int) -> int:
        """Variable bounding the value of the round-r node at offsets (j, i)."""
        if r == len(steps):
            return u[j][i]
        w = bld.new_vars(1)[0]
        xs, ys = steps[r]
        for dj in xs:
            row = {node(r + 1, j + dj, i + di): -ONE for di in ys}
            row[w] = ONE
            bld.add_ge(row, ZERO)
        return w

    xs, ys = steps[0]
    for dj in xs:
        row = {node(1, dj, di): -half for di in ys}
        row[t] = ONE
        bld.add_ge(row, ZERO)


def add_advantage_objective(bld: LpBuilder, aligned: LinearForms, target: Behavior) -> None:
    """Objective: the adaptive distinguisher's advantage between the forms
    and the target, whose minimum over the table is the program's value."""
    t, u = add_cell_gaps(bld, aligned, target)
    add_tree_rows(bld, t, u, target.signature)
    bld.set_objective({t: ONE})


def verify_or_raise(out, prog: LinearProgram, what: str) -> None:
    """Raise unless `lp.verify` re-checks the outcome (a Farkas certificate,
    a feasible point or an optimum) against the raw program."""
    if not lpmod.verify(out, prog):
        thing = {Infeasible: "Farkas certificate", Feasible: "feasible point"}.get(type(out), "optimum")
        raise CompositeVerificationFailed(f"{what} LP's {thing} failed re-verification")


def solve_checked(bld: LpBuilder, what: str, cap: int, with_objective: bool = False):
    """Build the program, refuse it past `cap` variables x rows, and solve
    it: feasibility, or minimization `with_objective`.  Returns
    (program, outcome); the outcome is Infeasible with a re-verified Farkas
    certificate, or else Feasible (Optimal when minimizing)."""
    prog = bld.build(with_objective=with_objective)
    if prog.n * prog.m > cap:
        raise ProblemTooLarge(f"{what} LP has {prog.n} vars x {prog.m} rows")
    if with_objective:
        out, kind = lpmod.minimize(prog), Optimal
    else:
        out, kind = lpmod.solve_feasible(prog), Feasible
    if isinstance(out, Infeasible):
        verify_or_raise(out, prog, what)
    elif not isinstance(out, kind):
        raise CompositeVerificationFailed(f"{what} LP returned {type(out).__name__}")
    return prog, out


def solve_comb(
    nodes: Sequence[tuple[str, Union[Behavior, Signature]]],
    wires: Sequence[Wire],
    schedule: Sequence[ScheduleItem],
    target: Behavior,
    what: str,
    cap: int,
    minimize: bool = False,
) -> tuple[LinearProgram, LpOutcome, Optional[Behavior]]:
    """Find a table for the one symbolic node among `nodes` with which the
    network reproduces the canonical behaviour `target` or, `minimize`, is
    the least distinguishable from it.

    Returns (program, outcome, comb).  An Infeasible outcome carries a
    re-verified Farkas certificate and comb is None; otherwise comb is the
    table read back from the solver's point, and the network with comb in
    place has been checked to lie at `behavior_distance` exactly the
    outcome's value (0 for feasibility) from `target`."""
    net = Network(nodes, wires, schedule)
    can_sig, aligned = canonical_forms(net)
    if can_sig != target.signature:
        raise InterfaceMismatch(f"the {what} network cannot reproduce the target's moment structure")
    sig = net.signatures[net.symbolic]
    bld = table_lp(sig)
    if minimize:
        add_advantage_objective(bld, aligned, target)
    else:
        add_match_rows(bld, aligned, target)
    prog, out = solve_checked(bld, what, cap, with_objective=minimize)
    if isinstance(out, Infeasible):
        return prog, out, None
    comb = table_behavior(sig, out.point)
    filled = [(lab, comb if lab == net.symbolic else item) for lab, item in nodes]
    reached = canonical(Network(filled, wires, schedule).evaluate())
    if behavior_distance(reached, target) != (out.value if minimize else ZERO):
        raise CompositeVerificationFailed(f"{what} LP's table does not achieve its value")
    return prog, out, comb
