"""Linear programs over the table of an unknown comb.

Simulator search (`attacks`), mediator search and the tripartite check's
single-cheater attacks (`nogo`) ask about networks with one symbolic comb:
`Network.linear_evaluate` gives every transcript probability as a linear
form in the comb's table, and the comb's table must be stochastic and
causal (`causality_rows`, the rule of `comb.causal_rounds` as equations).
Equating the forms with a target behaviour is a feasibility problem;
minimizing the adaptive distinguisher's advantage against the target is a
minimization.  `solve_comb` is the one path for both: it builds the
program, solves it, reads the table back (`table_behavior`) and substitutes
it into the network (`fill`).  The comb's `CombShape` (its signature, wires
and schedule) comes from one `ShapeBuilder`, for the simulator
(`attacks.derive_simulator_shape`) and the mediator
(`nogo.mediator_problem`) alike.

The advantage is encoded by backward induction over the distinguisher's
decision tree (`comb.decision_rounds`): one variable u per table cell bounds
|form - target| from above, one value variable W(h) per decision node below
the root bounds W(h) >= sum over y_r of its children for every input choice
x_r, and t >= 1/2 sum over y_1 of the root's children for every x_1.  This is
the classical case of the linear description of strategies (Gutoski and
Watrous, STOC 2007; Chiribella, D'Ariano and Perinotti, PRA 80, 022339,
2009), with one row per (node, choice) instead of one per strategy.

Every program is solved through `solve_checked`: one solver call and a
re-check of every Farkas certificate against the raw program, so a verdict
of infeasibility never rests on the solver alone.  That re-check guards the
solver only; the program's own rows are taken as written.  The size guard
is the solver's own: `lp.CAP` bounds variables x the rows left after
preprocessing, so 0 = 0 and duplicate rows do not count.  A table found by
`solve_comb` is re-checked by substitution: the network evaluated with the
table in place must be at `behavior_distance` from the target exactly the
program's value (0 for feasibility), which guards the match rows, the tree
rows and the solver together.

Match rows cost what the reachable cells cost.  `solve_comb` evaluates the
network straight into its canonical signature, the layout of the canonical
target, and `Network.linear_evaluate` gives a form only for a cell some
execution reaches.  `add_match_rows` visits only those cells and the
target's nonzero entries; the cells in between are rows 0 = 0 that the
program counts and does not store (`LpBuilder.add_empty`), so every row
keeps the index of its cell (j, i).
A reached cell with a zero target entry is a row `form = 0`; an unreached
cell with a nonzero one is a row `0 = b` with no coefficient, which
preprocessing turns into an immediate Farkas certificate.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import lp as lpmod
from .comb import (
    IN,
    OUT,
    Behavior,
    Network,
    PortRef,
    PortSpec,
    ScheduleItem,
    Signature,
    Wire,
    behavior_distance,
    causal_rounds,
    decision_rounds,
    make_behavior,
)
from .errors import CompositeVerificationFailed, InterfaceMismatch
from .lp import Feasible, Infeasible, LinearProgram, LpBuilder, LpOutcome
from .record import Record
from .scalars import ONE, ZERO, Scalar
from .stoch import make_kernel, ports_size

# aligned[j][i]: linear form {table variable: coefficient} of cell (j, i),
# present only for the cells whose form is not zero
LinearForms = list[dict[int, dict[int, Scalar]]]


def causality_rows(sig: Signature, var: Callable[[int, int], int]) -> list[dict[int, Fraction]]:
    """Causality of a comb table (`comb.causal_rounds`) as linear equations
    (= 0): for each column j after the first with the same inputs through
    round r, j0, and each value of the outputs through round r, the sum of
    column j's cells with that value minus column j0's."""
    n_x = ports_size(tuple(p.alphabet for p in sig.ins()))
    n_y = ports_size(tuple(p.alphabet for p in sig.outs()))
    rows = []
    for _r, early, prefix, n_prefix in causal_rounds(sig):
        # the rows i of each value of the outputs through round r, increasing
        prefixes: list[list[int]] = [[] for _ in range(n_prefix)]
        for i in range(n_y):
            prefixes[prefix(i)].append(i)
        first: dict[int, int] = {}  # early-input index -> its first column
        for j in range(n_x):
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
    """Every linear form equals the target's table entry: one row per cell
    (j, i), in that order.  Only the cells with a form or a nonzero target
    entry are visited; the runs of cells between them are counted rows 0 = 0."""
    n_y = target.kernel.n_cod
    for forms, entries in zip(aligned, target.kernel.cols):
        values = dict(entries)
        start = 0
        for i in sorted(forms.keys() | values.keys()):
            bld.add_empty(i - start)
            bld.add_eq(forms.get(i, {}), values.get(i, ZERO))
            start = i + 1
        bld.add_empty(n_y - start)


def add_cell_gaps(bld: LpBuilder, aligned: LinearForms, target: Behavior) -> tuple[int, list[list[int]]]:
    """Allocate the advantage variable t, then one u per table cell with
    u >= |form - target|; returns t and u[j][i]."""
    t = bld.new_vars(1)[0]
    u = []
    for j, col in enumerate(aligned):
        u_col = []
        for i, rv in enumerate(target.kernel.column(j)):
            form = col.get(i, {})
            cell = bld.new_vars(1)[0]
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


def solve_checked(bld: LpBuilder, what: str):
    """Build the program and solve it: minimization when the builder has an
    objective, else feasibility.  Returns (program, outcome); the outcome is
    Infeasible with a re-verified Farkas certificate, or else Feasible
    (Optimal when minimizing)."""
    prog = bld.build()
    out = lpmod.solve_feasible(prog) if prog.objective is None else lpmod.minimize(prog)
    if isinstance(out, Infeasible):
        verify_or_raise(out, prog, what)
    return prog, out


# ---------------------------------------------------------------------------
# the unknown comb's shape


class CombShape(Record):
    """An unknown comb's place in a network of known nodes: its node label,
    its signature, its wires to the known nodes and the network's schedule."""

    label: str
    signature: Signature
    wires: tuple[Wire, ...]
    schedule: tuple[ScheduleItem, ...]


class ShapeBuilder:
    """Opens an unknown comb's rounds while the caller, in network order,
    fires the known rounds around it and plays the comb's own ports.

    The comb takes every waiting input before it plays a port of its own,
    before it emits into a known round and at the end; an input after an
    emit opens a new round; each known round that fires closes the comb's
    current round, after the comb has emitted that round's inputs; and the
    known round's outputs wait as pending inputs.
    `mirror(label, port)` names the comb's (port id, party) wired to a known
    node's port."""

    def __init__(self, label: str, mirror: Callable[[str, PortSpec], tuple[str, str]]) -> None:
        self.label = label
        self.mirror = mirror
        self.ports: list[PortSpec] = []
        self.wires: list[Wire] = []
        self.schedule: list[ScheduleItem] = []
        self.fired: Counter[str] = Counter()  # known label -> its last fired round
        self.pending: list[tuple[str, PortSpec]] = []
        self.rounds = 0
        self.phase: Optional[str] = None  # the open round's last direction; None when closed

    def _add(self, pid: str, party: str, alphabet, direction: str, end: Optional[PortRef] = None) -> None:
        if self.phase is None or (direction == IN and self.phase == OUT):
            self.rounds += 1
            self.schedule.append((self.label, self.rounds))
        self.phase = direction
        self.ports.append(PortSpec(pid, party, alphabet, direction, self.rounds))
        if end is not None:
            self.wires.append(((self.label, pid), end))

    def _wired(self, lab: str, q: PortSpec) -> None:
        pid, party = self.mirror(lab, q)
        self._add(pid, party, q.alphabet, OUT if q.direction == IN else IN, (lab, q.id))

    def _take_pending(self) -> None:
        """The comb takes every waiting known output."""
        for lab, q in self.pending:
            self._wired(lab, q)
        self.pending.clear()

    def play(self, port: PortSpec) -> None:
        """One of the comb's own (unwired) ports, after what is waiting."""
        self._take_pending()
        self._add(port.id, port.party, port.alphabet, port.direction)

    def fire(self, lab: str, ports: Sequence[PortSpec]) -> None:
        """Fire the next round of known node `lab`, whose `ports` the comb
        is wired to: the comb takes what waits and emits into its inputs,
        then its outputs wait."""
        self._take_pending()
        for q in ports:
            if q.direction == IN:
                self._wired(lab, q)
        self.fired[lab] += 1
        self.schedule.append((lab, self.fired[lab]))
        self.phase = None
        self.pending += [(lab, q) for q in ports if q.direction == OUT]

    def shape(self, parties: Sequence[str]) -> CombShape:
        """The comb's shape, its parties those of its ports (`parties` when
        it has none); a comb with no ports still has one round."""
        self._take_pending()
        if not self.rounds:
            self.rounds = 1
            self.schedule.append((self.label, 1))
        parties = tuple(sorted({p.party for p in self.ports})) or tuple(parties)
        sig = Signature(parties, self.rounds, tuple(self.ports))
        return CombShape(self.label, sig, tuple(self.wires), tuple(self.schedule))


def fill(known: Sequence[tuple[str, Behavior]], shape: CombShape, comb: Behavior) -> Behavior:
    """The network of the `known` nodes with `comb` in the shape's place,
    evaluated into its canonical signature."""
    net = Network([*known, (shape.label, comb)], shape.wires, shape.schedule)
    return net.evaluate(net.canonical_signature())


def solve_comb(
    known: Sequence[tuple[str, Behavior]],
    shape: CombShape,
    target: Behavior,
    what: str,
    minimize: bool = False,
) -> tuple[LinearProgram, LpOutcome, Optional[Behavior]]:
    """Find a table for the comb of `shape` with which the network of the
    `known` nodes reproduces the canonical behaviour `target` or,
    `minimize`, is the least distinguishable from it.

    Returns (program, outcome, comb).  An Infeasible outcome carries a
    re-verified Farkas certificate and comb is None (when minimizing it
    raises CompositeVerificationFailed instead); otherwise comb is the
    table read back from the solver's point, and the network with comb in
    place (`fill`) has been checked to lie at `behavior_distance` exactly
    the outcome's value (0 for feasibility) from `target`."""
    net = Network([*known, (shape.label, shape.signature)], shape.wires, shape.schedule)
    can_sig, aligned = net.linear_evaluate(net.canonical_signature())
    if can_sig != target.signature:
        raise InterfaceMismatch(f"the {what} network cannot reproduce the target's moment structure")
    bld = table_lp(shape.signature)
    if minimize:
        add_advantage_objective(bld, aligned, target)
    else:
        add_match_rows(bld, aligned, target)
    del aligned  # freed before fill evaluates its network, which sets the peak
    prog, out = solve_checked(bld, what)
    if isinstance(out, Infeasible):
        if minimize:  # every stochastic causal table is a feasible point
            raise CompositeVerificationFailed(f"{what} LP returned Infeasible")
        return prog, out, None
    comb = table_behavior(shape.signature, out.point)
    if behavior_distance(fill(known, shape, comb), target) != (out.value if minimize else ZERO):
        raise CompositeVerificationFailed(f"{what} LP's table does not achieve its value")
    return prog, out, comb
