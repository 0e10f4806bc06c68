"""Machine-checked impossibility results.

Bipartite splittability: a functionality realizable from a bare channel
must equal two copies of itself glued by a mediator.  Whether any stochastic
causal mediator works is a linear feasibility problem over its table; the
no-go verdicts for commitment and oblivious transfer are Farkas certificates
of infeasibility, and the quantitative version minimizes the distinguisher
advantage between the functionality and its best split.

Tripartite: a broadcast-like functionality realizable from pairwise
channels admits a doubled-middle process D that three single-cheater attacks
explain simultaneously; infeasibility of that linear system rules out
broadcast.  Each attack is a `Network` of r and one symbolic simulator,
whose `linear_evaluate` forms in D's signature give the rows.  The
independent combinatorial oracle on broadcast-shaped resources is one-sided:
a contradiction proves the system infeasible, and none proves nothing.

Every program here is solved through `distinguisher.solve_checked`, which
re-verifies each Farkas certificate.  `mediator_problem` says which copy's
rounds fire when and which ports the mediator plays, and
`distinguisher.ShapeBuilder` opens the mediator's rounds.  The split check
and the split advantage go through `distinguisher.solve_comb` on that
shape, which substitutes the mediator back and requires the split to be at
exactly the program's value from r (0 for feasibility); that guards the
encoding and the solver.  The tripartite split check re-checks its point
with `lp.verify` against the program it solved, then substitutes each
simulator's table into its network, which must evaluate to D; that guards
the rows built from the forms and the solver.
Every `NogoVerdict` keeps the program it was decided on, feasible or not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import lp as lpmod
from .comb import (
    IN,
    OUT,
    Behavior,
    Network,
    PortSpec,
    Signature,
    behavior_equal,
    canonical,
    make_behavior,
    make_signature,
)
from .distinguisher import CombShape, ShapeBuilder, solve_checked, solve_comb, table_behavior, verify_or_raise
from .errors import CompositeVerificationFailed, ShapeMismatch
from .lp import FarkasCert, Infeasible, LpBuilder
from .record import Record
from .scalars import ONE, ZERO, Scalar
from .stoch import Alphabet, make_kernel, marginalize, ports_size, tuple_index

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
    """The roles of a one-round resource, in `r.signature.parties` order:
    the one party with ports that are all inputs plays Bob, and the two
    whose ports are all outputs play Alice, then Charlie.  Returns their
    ports (Bob's, Alice's, Charlie's)."""
    sig = r.signature
    if sig.rounds != 1:
        raise ShapeMismatch("tripartite check supports single-round resources")
    ports = [ps for p in sig.parties if (ps := [q for q in sig.ports if q.party == p])]
    ins = [ps for ps in ports if all(q.direction == IN for q in ps)]
    outs = [ps for ps in ports if all(q.direction == OUT for q in ps)]
    if len(ins) != 1 or len(outs) != 2 or len(ports) != 3:
        raise ShapeMismatch("tripartite check needs one input-only party and two output-only parties")
    return ins[0], outs[0], outs[1]


def _doubled_middle(r: Behavior):
    """D's signature and, by simulator name, each single-cheater network's
    known node and shape.  D maps the left and right middle inputs to
    Alice's and Charlie's outputs; r's Bob ports play the right input and
    fresh ports the left.  When Alice cheats, r runs on the right input and
    s_A maps r's Alice output and the left input to Alice's; when Bob
    cheats, s_B maps both middle inputs to r's Bob input; Charlie mirrors
    Alice, r running on the left input.  A simulator's outputs keep the ids
    of the ports they stand for, so every network evaluates into D's."""
    b_in, a_out, c_out = _tripartite_shape(r)
    sig = r.signature
    pad = "~" * max(len(q.id) for q in sig.ports)  # a fresh id is longer than each of r's

    def fresh(tag: str, ports, direction: str) -> list[PortSpec]:
        return [PortSpec(f"{tag}{pad}{q.id}", q.party, q.alphabet, direction, 1) for q in ports]

    def shape(name: str, ports, wired, order) -> CombShape:
        wires = tuple((("r", q.id), (name, p.id)) for q, p in wired)
        return CombShape(name, Signature(sig.parties, 1, tuple(ports)), wires, tuple((lab, 1) for lab in order))

    left, b_out = fresh("l", b_in, IN), fresh("c", b_in, OUT)
    a_in, c_in = fresh("c", a_out, IN), fresh("c", c_out, IN)
    r_left = Behavior(Signature(sig.parties, 1, tuple(dict(zip(b_in, left)).get(q, q) for q in sig.ports)), r.kernel)
    return Signature(sig.parties, 1, (*left, *b_in, *a_out, *c_out)), {
        "s_A": (r, shape("s_A", (*a_in, *left, *a_out), zip(a_out, a_in), ("r", "s_A"))),
        "s_B": (r, shape("s_B", (*left, *b_in, *b_out), zip(b_in, b_out), ("s_B", "r"))),
        "s_C": (r_left, shape("s_C", (*c_in, *b_in, *c_out), zip(c_out, c_in), ("r", "s_C"))),
    }


def _network(known: Behavior, shape: CombShape, node) -> Network:
    return Network([("r", known), (shape.label, node)], shape.wires, shape.schedule)


def tripartite_split_check(r: Behavior) -> NogoVerdict:
    """Feasibility of the doubled-middle system: one joint process D with two
    copies of Bob's input that three single-cheater simulators explain at
    once.  Infeasible for genuine broadcast.  The four tables' cells are
    allocated in order, then one row per column says it sums to 1 (D and s_B
    share their columns and take turns), then, per cell of D, one row per
    cheater says the cell equals its network's linear form there.  A
    feasible point is re-checked with `lp.verify`, then by substitution:
    each network with its simulator's table in place must evaluate to D."""
    d_sig, nets = _doubled_middle(r)
    forms = {
        name: _network(known, shape, shape.signature).linear_evaluate(d_sig)[1] for name, (known, shape) in nets.items()
    }
    sigs = {"D": d_sig, **{name: shape.signature for name, (_known, shape) in nets.items()}}
    shapes = {
        name: [ports_size(tuple(q.alphabet for q in ps)) for ps in (s.ins(), s.outs())] for name, s in sigs.items()
    }
    bld = LpBuilder()
    first = {name: bld.new_vars(cols * outs).start for name, (cols, outs) in shapes.items()}
    for group in (("D", "s_B"), ("s_A",), ("s_C",)):
        for col in range(shapes[group[0]][0]):
            for name in group:
                outs = shapes[name][1]
                bld.add_eq({first[name] + col * outs + o: ONE for o in range(outs)}, ONE)
    n_outs = shapes["D"][1]
    for cell in range(shapes["D"][0] * n_outs):
        for name, aligned in forms.items():
            form = aligned[cell // n_outs].get(cell % n_outs, {})
            bld.add_eq({first["D"] + cell: ONE, **{first[name] + k: -w for k, w in form.items()}}, ZERO)
    prog, out = solve_checked(bld, "tripartite")
    if isinstance(out, Infeasible):
        return NogoVerdict(False, cert=out.cert, lp=prog)
    verify_or_raise(out, prog, "tripartite")
    tables = {name: out.point[s : s + shapes[name][0] * shapes[name][1]] for name, s in first.items()}
    d = table_behavior(d_sig, tables["D"])
    for name, (known, shape) in nets.items():
        if not behavior_equal(_network(known, shape, table_behavior(sigs[name], tables[name])).evaluate(d_sig), d):
            raise CompositeVerificationFailed(f"tripartite LP's {name} table does not reproduce D")
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
    a_k, c_k = out_ports.index(a_out[0]), out_ports.index(c_out[0])
    charlie_forced = marginalize(rk, [c_k]).column(1)  # driven by input 1
    alice_forced = marginalize(rk, [a_k]).column(0)  # driven by input 0
    n = a_out[0].alphabet.size  # the outputs agree on the cells (v, v)
    required = min(sum(rk.column(b)[v * n + v] for v in range(n)) for b in range(b_in[0].alphabet.size))
    achievable = sum(min(a, c) for a, c in zip(alice_forced, charlie_forced))
    return OracleReport(achievable < required, charlie_forced, alice_forced, required, achievable)
