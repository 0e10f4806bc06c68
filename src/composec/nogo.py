"""Machine-checked impossibility results.

Bipartite splittability: a functionality realizable from a bare channel
must equal two copies of itself glued by a mediator.  Whether any stochastic
causal mediator works is a linear feasibility problem over its table; the
no-go verdicts for commitment and oblivious transfer are Farkas certificates
of infeasibility, and the quantitative version minimizes the distinguisher
advantage between the functionality and its best split.

Tripartite: a broadcast-like functionality realizable from pairwise
channels admits a doubled-middle process that three single-cheater attacks
explain simultaneously; infeasibility of that linear system rules out
broadcast.  An independent combinatorial oracle cross-checks the LP verdict
on broadcast-shaped resources.

Every program here is solved through `distinguisher.solve_checked`, which
re-verifies each Farkas certificate.  `mediator_problem` says which copy's
rounds fire when and which ports the mediator plays, and
`distinguisher.ShapeBuilder` opens the mediator's rounds.  The split check
and the split advantage go through `distinguisher.solve_comb` on that
shape, which substitutes the mediator back and requires the split to be at
exactly the program's value from r (0 for feasibility); that guards the
encoding and the solver.  The tripartite split check re-checks its point
with `lp.verify` against the program it solved, so it guards the solver;
the oracle is what guards the tripartite encoding.
Every `NogoVerdict` keeps the program it was decided on, feasible or not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Optional

from . import lp as lpmod
from .comb import (
    IN,
    OUT,
    Behavior,
    PortSpec,
    canonical,
    make_behavior,
    make_signature,
)
from .distinguisher import CombShape, ShapeBuilder, solve_checked, solve_comb, verify_or_raise
from .errors import ShapeMismatch
from .lp import FarkasCert, Infeasible, LpBuilder
from .record import Record
from .scalars import ONE, ZERO, Scalar
from .stoch import (
    Alphabet,
    all_tuples,
    make_kernel,
    marginalize,
    permute_axes,
    ports_size,
    tuple_index,
)

BIT = Alphabet("bit", 2)
GO = Alphabet("go", 1)
RECEIPT = Alphabet("receipt", 1)

MEDIATOR = "mediator"


class NogoVerdict(Record):
    feasible: bool
    witness: Optional[dict] = None  # a feasible verdict: {"g": mediator}, or the tables by name
    cert: Optional[FarkasCert] = None  # the Farkas certificate of an infeasible verdict
    lp: Optional[lpmod.LinearProgram] = None  # the program solved, on every verdict


# ---------------------------------------------------------------------------
# canonical two-party resources


def commitment_resource() -> Behavior:
    """Commit-then-reveal: round 1 takes Alice's bit and hands Bob a blank
    receipt; round 2 takes the open signal and reveals the bit to Bob.
    Hiding and binding hold by construction."""
    sig = make_signature(
        ["alice", "bob"],
        2,
        [
            PortSpec("bit_in", "alice", BIT, IN, 1),
            PortSpec("receipt", "bob", RECEIPT, OUT, 1),
            PortSpec("open", "alice", GO, IN, 2),
            PortSpec("bit_out", "bob", BIT, OUT, 2),
        ],
    )
    table = [[0] * 2 for _ in range(2)]
    for b in range(2):
        table[b][b] = 1  # receipt index is trivial; rows are (receipt, bit_out)
    return make_behavior(sig, make_kernel((BIT, GO), (RECEIPT, BIT), table))


def coin_commitment_resource() -> Behavior:
    """Same-signature control: the revealed bit is a fresh coin, ignoring
    Alice's input.  This one is splittable."""
    sig = commitment_resource().signature
    table = [[Fraction(1, 2)] * 2 for _ in range(2)]
    return make_behavior(sig, make_kernel((BIT, GO), (RECEIPT, BIT), table))


def ot_resource() -> Behavior:
    """One-out-of-two oblivious transfer: Bob learns m_c and nothing else;
    Alice learns nothing about c."""
    sig = make_signature(
        ["alice", "bob"],
        1,
        [
            PortSpec("m0", "alice", BIT, IN, 1),
            PortSpec("m1", "alice", BIT, IN, 1),
            PortSpec("choice", "bob", BIT, IN, 1),
            PortSpec("m_out", "bob", BIT, OUT, 1),
        ],
    )
    table = [[0] * 8 for _ in range(2)]
    for m0 in range(2):
        for m1 in range(2):
            for c in range(2):
                col = tuple_index((BIT, BIT, BIT), (m0, m1, c))
                table[(m0, m1)[c]][col] = 1
    return make_behavior(sig, make_kernel((BIT, BIT, BIT), (BIT,), table))


def identity_channel_resource() -> Behavior:
    sig = make_signature(
        ["alice", "bob"],
        1,
        [PortSpec("x_in", "alice", BIT, IN, 1), PortSpec("y_out", "bob", BIT, OUT, 1)],
    )
    table = [[1, 0], [0, 1]]
    return make_behavior(sig, make_kernel((BIT,), (BIT,), table))


def shared_bit_resource() -> Behavior:
    sig = make_signature(
        ["alice", "bob"],
        1,
        [PortSpec("sa", "alice", BIT, OUT, 1), PortSpec("sb", "bob", BIT, OUT, 1)],
    )
    table = [[Fraction(1, 2)], [0], [0], [Fraction(1, 2)]]
    return make_behavior(sig, make_kernel((), (BIT, BIT), table))


# ---------------------------------------------------------------------------
# bipartite splittability


def _two_parties(r: Behavior) -> tuple[str, str]:
    with_ports = [p for p in r.signature.parties if any(q.party == p for q in r.signature.ports)]
    if len(with_ports) != 2:
        raise ShapeMismatch(f"splittability needs exactly two parties with ports, got {with_ports}")
    return with_ports[0], with_ports[1]


def mediator_problem(r: Behavior) -> CombShape:
    """Shape of the mediator g ("mediator" party) in the two-copy gluing
    network: copy "c1" keeps its A interface, copy "c2" its B interface,
    and g plays B to copy 1 and A to copy 2.  Each round of r fires in copy
    1, then in copy 2, except that a round where B has inputs and A has
    none fires in copy 2 first: B's input enters there, and g carries it on
    to copy 1."""
    party_a, party_b = _two_parties(r)
    sig = r.signature
    g = ShapeBuilder("g", lambda lab, q: (f"m1_{q.id}" if lab == "c1" else f"m2_{q.id}", MEDIATOR))
    for t in range(1, sig.rounds + 1):
        ports = [q for q in sig.ports if q.round == t]
        copies = [("c1", party_b), ("c2", party_a)]
        if {q.party for q in ports if q.direction == IN} == {party_b}:
            copies.reverse()
        for lab, party in copies:
            g.fire(lab, [q for q in ports if q.party == party])
    return g.shape((MEDIATOR,))


def _split_search(r: Behavior, minimize: bool):
    """Solve for the mediator's table on the two-copy gluing network, with r
    itself as the target: (program, outcome, mediator or None)."""
    what = "advantage" if minimize else "split"
    return solve_comb([("c1", r), ("c2", r)], mediator_problem(r), canonical(r), what, minimize)


def split_check(r: Behavior) -> NogoVerdict:
    """Does any stochastic causal mediator make two copies of r equal r?"""
    prog, out, g = _split_search(r, minimize=False)
    witness, cert = (None, out.cert) if g is None else ({"g": g}, None)
    return NogoVerdict(g is not None, witness, cert, prog)


def min_split_advantage(r: Behavior) -> Scalar:
    """Exact minimum, over mediators, of the distinguisher advantage between
    r and its split; 0 iff r is splittable."""
    return _split_search(r, minimize=True)[1].value


# ---------------------------------------------------------------------------
# tripartite broadcast


def broadcast_resource() -> Behavior:
    sig = make_signature(
        ["alice", "bob", "charlie"],
        1,
        [
            PortSpec("b_in", "bob", BIT, IN, 1),
            PortSpec("a_out", "alice", BIT, OUT, 1),
            PortSpec("c_out", "charlie", BIT, OUT, 1),
        ],
    )
    table = [[0] * 2 for _ in range(4)]
    for b in range(2):
        table[b * 2 + b][b] = 1
    return make_behavior(sig, make_kernel((BIT,), (BIT, BIT), table))


def constant_output_resource() -> Behavior:
    sig = broadcast_resource().signature
    table = [[0] * 2 for _ in range(4)]
    table[0][0] = table[0][1] = 1
    return make_behavior(sig, make_kernel((BIT,), (BIT, BIT), table))


def product_uniform_resource() -> Behavior:
    sig = broadcast_resource().signature
    table = [[Fraction(1, 4)] * 2 for _ in range(4)]
    return make_behavior(sig, make_kernel((BIT,), (BIT, BIT), table))


def _tripartite_shape(r: Behavior):
    """1-round, Bob input-only, Alice and Charlie output-only."""
    sig = r.signature
    if sig.rounds != 1:
        raise ShapeMismatch("tripartite check supports single-round resources")
    parties = {"alice", "bob", "charlie"}
    if set(q.party for q in sig.ports) - parties:
        raise ShapeMismatch("expected parties alice, bob, charlie")
    b_in = [q for q in sig.ports if q.party == "bob"]
    a_out = [q for q in sig.ports if q.party == "alice"]
    c_out = [q for q in sig.ports if q.party == "charlie"]
    if any(q.direction != IN for q in b_in) or not b_in:
        raise ShapeMismatch("Bob's interface must be input-only")
    if any(q.direction != OUT for q in a_out) or any(q.direction != OUT for q in c_out):
        raise ShapeMismatch("Alice and Charlie must be output-only")
    return b_in, a_out, c_out


def _r_entry_fn(r: Behavior):
    """Probability of (alice index, charlie index) given Bob's input index,
    independent of how the signature happens to interleave the out-ports."""
    b_in, a_out, c_out = _tripartite_shape(r)
    out_ports = r.signature.outs()
    alice_first = [k for party in ("alice", "charlie") for k, q in enumerate(out_ports) if q.party == party]
    kernel = permute_axes(r.kernel, range(len(b_in)), alice_first)
    columns = [kernel.column(j) for j in range(kernel.n_dom)]
    nb, na, nc = (ports_size(tuple(q.alphabet for q in ports)) for ports in (b_in, a_out, c_out))

    def entry(a_idx: int, c_idx: int, b_idx: int):
        return columns[b_idx][a_idx * nc + c_idx]

    return entry, nb, na, nc


def _doubled_middle_forms(r: Behavior):
    """The doubled-middle system.

    Returns the shapes {name: (columns, outputs)} of the four conditional
    tables, whose cell (column, output) is column * outputs + output: D
    maps the middle pair (b_l, b_r) to (a, c), s_A maps (a', b_l) to a, s_B
    maps (b_l, b_r) to b, and s_C maps (c', b_r) to c.  Then, for each
    (b_l, b_r, a, c) in lexicographic order, D's cell and each cheater's
    linear form {cell: r's probability}, which must equal D's cell: when
    Alice cheats the honest side drives r with b_r, when Bob cheats both
    middle inputs feed his simulator, and Charlie mirrors Alice."""
    r_entry, nb, na, nc = _r_entry_fn(r)
    shapes = {"D": (nb * nb, na * nc), "s_A": (na * nb, na), "s_B": (nb * nb, nb), "s_C": (nc * nb, nc)}
    equations = []
    for d_cell, (bl, br, a, c) in enumerate(product(range(nb), range(nb), range(na), range(nc))):
        forms = {
            "s_A": {(ar * nb + bl) * na + a: w for ar in range(na) if (w := r_entry(ar, c, br))},
            "s_B": {(bl * nb + br) * nb + b: w for b in range(nb) if (w := r_entry(a, c, b))},
            "s_C": {(cr * nb + br) * nc + c: w for cr in range(nc) if (w := r_entry(a, cr, bl))},
        }
        equations.append((d_cell, forms))
    return shapes, equations


def tripartite_split_check(r: Behavior) -> NogoVerdict:
    """Feasibility of the doubled-middle system: one joint process D with two
    copies of Bob's input that three single-cheater simulators explain at
    once.  Infeasible for genuine broadcast.  The four tables' cells are
    allocated in order, then one row per column says it sums to 1 (D and s_B
    share their columns and take turns), then the system's equations; a
    feasible point is re-checked with `lp.verify` and cut into the tables."""
    shapes, equations = _doubled_middle_forms(r)
    bld = LpBuilder()
    first = {name: bld.new_vars(cols * outs).start for name, (cols, outs) in shapes.items()}
    for group in (("D", "s_B"), ("s_A",), ("s_C",)):
        for col in range(shapes[group[0]][0]):
            for name in group:
                outs = shapes[name][1]
                bld.add_eq({first[name] + col * outs + o: ONE for o in range(outs)}, ONE)
    for d_cell, forms in equations:
        for name, form in forms.items():
            bld.add_eq({first["D"] + d_cell: ONE, **{first[name] + k: -w for k, w in form.items()}}, ZERO)
    prog, out = solve_checked(bld, "tripartite")
    if isinstance(out, Infeasible):
        return NogoVerdict(False, cert=out.cert, lp=prog)
    verify_or_raise(out, prog, "tripartite")
    tables = {name: out.point[s : s + shapes[name][0] * shapes[name][1]] for name, s in first.items()}
    return NogoVerdict(True, witness=tables, lp=prog)


class OracleReport(Record):
    contradiction: bool
    charlie_forced: tuple[Scalar, ...]
    alice_forced: tuple[Scalar, ...]
    required_agreement: Scalar
    achievable_agreement: Scalar

    def __str__(self) -> str:
        if not self.contradiction:
            return "no contradiction: the three forced marginals are compatible"
        return (
            f"contradiction: Charlie's output is forced to {self.charlie_forced}, "
            f"Alice's to {self.alice_forced}, but their agreement must be at least "
            f"{self.required_agreement} while the marginals admit at most "
            f"{self.achievable_agreement}"
        )


def broadcast_contradiction_oracle(r: Behavior) -> OracleReport:
    """Direct derivation, independent of the LP encoding: plug inputs 0 and 1
    into the two middle wires.  The Alice-cheats equation forces Charlie's
    output to follow input 1, the Charlie-cheats equation forces Alice's to
    follow input 0, and the Bob-cheats equation forces the outputs to agree
    as much as r ever makes them agree; for broadcast these cannot hold
    together."""
    b_in, a_out, c_out = _tripartite_shape(r)
    if len(b_in) != 1 or len(a_out) != 1 or len(c_out) != 1:
        raise ShapeMismatch("oracle expects one port per party")
    if b_in[0].alphabet.size < 2:
        raise ShapeMismatch("Bob's input needs at least two values")
    if a_out[0].alphabet.size != c_out[0].alphabet.size:
        raise ShapeMismatch("oracle compares Alice and Charlie outputs pointwise")
    rk = r.kernel
    out_ports = r.signature.outs()
    a_k = [k for k, q in enumerate(out_ports) if q.party == "alice"][0]
    c_k = [k for k, q in enumerate(out_ports) if q.party == "charlie"][0]
    charlie_marg = marginalize(rk, [c_k])
    alice_marg = marginalize(rk, [a_k])
    charlie_forced = charlie_marg.column(1)  # driven by input 1
    alice_forced = alice_marg.column(0)  # driven by input 0
    out_alphas = tuple(q.alphabet for q in out_ports)
    agree_by_b = []
    for b in range(b_in[0].alphabet.size):
        column = rk.column(b)
        acc = Fraction(0)
        for y in all_tuples(out_alphas):
            if y[a_k] == y[c_k]:
                acc += column[tuple_index(out_alphas, y)]
        agree_by_b.append(acc)
    required = min(agree_by_b)
    achievable = sum(min(a, c) for a, c in zip(alice_forced, charlie_forced))
    return OracleReport(achievable < required, charlie_forced, alice_forced, required, achievable)
