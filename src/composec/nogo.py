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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import lp as lpmod
from .comb import (
    IN,
    OUT,
    Behavior,
    Network,
    PortSpec,
    ScheduleItem,
    Signature,
    Wire,
    behavior_equal,
    canonical,
    make_behavior,
    make_signature,
)
from .distinguisher import (
    add_advantage_objective,
    add_match_rows,
    canonical_forms,
    expect_outcome,
    table_behavior,
    table_lp,
    verify_or_raise,
)
from .errors import (
    CompositeVerificationFailed,
    InterfaceMismatch,
    ProblemTooLarge,
    ShapeMismatch,
)
from .lp import FarkasCert, Feasible, Infeasible, LpBuilder, Optimal
from .resources import Resource
from .scalars import Scalar
from .stoch import (
    Alphabet,
    all_tuples,
    make_kernel,
    marginalize,
    ports_size,
    tuple_index,
)

BIT = Alphabet("bit", 2)
GO = Alphabet("go", 1)
RECEIPT = Alphabet("receipt", 1)

MEDIATOR = "mediator"

DEFAULT_NOGO_LP_CAP = 400_000


@dataclass(frozen=True)
class NogoVerdict:
    feasible: bool
    witness: Optional[dict] = None
    cert: Optional[FarkasCert] = None
    advantage: Optional[Scalar] = None
    lp_size: tuple[int, int] = (0, 0)
    lp: Optional[lpmod.LinearProgram] = None  # for external certificate audits


@dataclass(frozen=True)
class SplitProblem:
    """A two-party resource together with the mediator interface of its
    two-copy gluing."""

    resource: Resource
    mediator_signature: Signature
    wires: tuple[Wire, ...]
    schedule: tuple[ScheduleItem, ...]


@dataclass(frozen=True)
class TripartiteSplitProblem:
    """A three-party resource with the port structure of its doubled-middle
    process: Alice's interface, Charlie's interface, and two copies of Bob's
    input interface."""

    resource: Resource
    bob_inputs: tuple[Alphabet, ...]
    alice_outputs: tuple[Alphabet, ...]
    charlie_outputs: tuple[Alphabet, ...]


# ---------------------------------------------------------------------------
# canonical two-party resources


def commitment_resource() -> Resource:
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
    return Resource(
        make_behavior(sig, make_kernel((BIT, GO), (RECEIPT, BIT), table)), name="commitment"
    )


def coin_commitment_resource() -> Resource:
    """Same-signature control: the revealed bit is a fresh coin, ignoring
    Alice's input.  This one is splittable."""
    sig = commitment_resource().signature
    table = [[Fraction(1, 2)] * 2 for _ in range(2)]
    return Resource(
        make_behavior(sig, make_kernel((BIT, GO), (RECEIPT, BIT), table)), name="coin_commitment"
    )


def mix_resources(r1: Resource, r2: Resource, weight: Scalar, name: str = "") -> Resource:
    """Convex mixture of two same-signature resources (weight on r1)."""
    if r1.signature != r2.signature:
        raise InterfaceMismatch("mixture needs identical signatures")
    w = weight
    table = [
        [w * a + (1 - w) * b for a, b in zip(ra, rb)]
        for ra, rb in zip(r1.behavior.kernel.matrix, r2.behavior.kernel.matrix)
    ]
    kern = make_kernel(r1.behavior.kernel.dom, r1.behavior.kernel.cod, table)
    return Resource(make_behavior(r1.signature, kern), name=name or f"mix_{w}")


def ot_resource() -> Resource:
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
    return Resource(make_behavior(sig, make_kernel((BIT, BIT, BIT), (BIT,), table)), name="ot")


def identity_channel_resource() -> Resource:
    sig = make_signature(
        ["alice", "bob"],
        1,
        [PortSpec("x_in", "alice", BIT, IN, 1), PortSpec("y_out", "bob", BIT, OUT, 1)],
    )
    table = [[1, 0], [0, 1]]
    return Resource(make_behavior(sig, make_kernel((BIT,), (BIT,), table)), name="channel")


def shared_bit_resource() -> Resource:
    sig = make_signature(
        ["alice", "bob"],
        1,
        [PortSpec("sa", "alice", BIT, OUT, 1), PortSpec("sb", "bob", BIT, OUT, 1)],
    )
    table = [[Fraction(1, 2)], [0], [0], [Fraction(1, 2)]]
    return Resource(make_behavior(sig, make_kernel((), (BIT, BIT), table)), name="shared_bit")


# ---------------------------------------------------------------------------
# bipartite splittability


def _two_parties(r: Resource) -> tuple[str, str]:
    with_ports = [p for p in r.signature.parties if any(q.party == p for q in r.signature.ports)]
    if len(with_ports) != 2:
        raise ShapeMismatch(f"splittability needs exactly two parties with ports, got {with_ports}")
    return with_ports[0], with_ports[1]


def mediator_problem(r: Resource):
    """The two-copy gluing network: copy 1 keeps its A interface, copy 2 its
    B interface, and the mediator g plays B to copy 1 and A to copy 2 with
    the most permissive causal schedule.

    Returns (mediator signature, wires, schedule) with node labels
    "c1", "g" ("mediator" party), "c2".
    """
    party_a, party_b = _two_parties(r)
    sig = r.signature
    ports: list[PortSpec] = []
    wires: list[Wire] = []
    schedule: list[ScheduleItem] = []
    g_round = 0
    pending_ins: list[tuple[str, Alphabet]] = []  # (wire target id on g, alphabet)

    def flush(outs: list[tuple[str, Alphabet]]) -> None:
        """Open one mediator round consuming what is pending and emitting outs."""
        nonlocal g_round
        if not pending_ins and not outs:
            return
        g_round += 1
        for pid, alpha in pending_ins:
            ports.append(PortSpec(pid, MEDIATOR, alpha, IN, g_round))
        pending_ins.clear()
        for pid, alpha in outs:
            ports.append(PortSpec(pid, MEDIATOR, alpha, OUT, g_round))
        schedule.append(("g", g_round))

    for i in range(1, sig.rounds + 1):
        feed1 = [q for q in sig.ports if q.round == i and q.party == party_b and q.direction == IN]
        if feed1 or pending_ins:
            flush([(f"m1_{q.id}", q.alphabet) for q in feed1])
            for q in feed1:
                wires.append((("g", f"m1_{q.id}"), ("c1", q.id)))
        schedule.append(("c1", i))
        take1 = [q for q in sig.ports if q.round == i and q.party == party_b and q.direction == OUT]
        feed2 = [q for q in sig.ports if q.round == i and q.party == party_a and q.direction == IN]
        for q in take1:
            pending_ins.append((f"m1_{q.id}", q.alphabet))
            wires.append((("g", f"m1_{q.id}"), ("c1", q.id)))
        if pending_ins or feed2:
            flush([(f"m2_{q.id}", q.alphabet) for q in feed2])
            for q in feed2:
                wires.append((("g", f"m2_{q.id}"), ("c2", q.id)))
        schedule.append(("c2", i))
        for q in sig.ports:
            if q.round == i and q.party == party_a and q.direction == OUT:
                pending_ins.append((f"m2_{q.id}", q.alphabet))
                wires.append((("g", f"m2_{q.id}"), ("c2", q.id)))
    flush([])
    if g_round == 0:
        g_round = 1
        schedule.append(("g", 1))
    g_sig = Signature((MEDIATOR,), g_round, tuple(ports))
    return g_sig, tuple(wires), tuple(schedule)


def split_problem(r: Resource) -> SplitProblem:
    g_sig, wires, schedule = mediator_problem(r)
    return SplitProblem(r, g_sig, wires, schedule)


def tripartite_problem(r: Resource) -> TripartiteSplitProblem:
    b_in, a_out, c_out = _tripartite_shape(r)
    return TripartiteSplitProblem(
        r,
        tuple(q.alphabet for q in b_in),
        tuple(q.alphabet for q in a_out),
        tuple(q.alphabet for q in c_out),
    )


def split(r: Resource, g: Behavior) -> Behavior:
    """Two copies of r glued by the mediator g, canonicalized."""
    g_sig, wires, schedule = mediator_problem(r)
    if [
        (q.id, q.alphabet, q.direction, q.round) for q in g.signature.ports
    ] != [(q.id, q.alphabet, q.direction, q.round) for q in g_sig.ports]:
        raise InterfaceMismatch("mediator does not fit the split interface")
    net = Network([("c1", r.behavior), ("g", g), ("c2", r.behavior)], list(wires), list(schedule))
    return canonical(net.evaluate())


def _split_linear(r: Resource):
    """Linear forms of split(r, g) in g's table entries, aligned to the
    canonical indexing of r itself."""
    g_sig, wires, schedule = mediator_problem(r)
    net = Network([("c1", r.behavior), ("g", g_sig), ("c2", r.behavior)], list(wires), list(schedule))
    can_sig, aligned = canonical_forms(net)
    target = canonical(r.behavior)
    if can_sig != target.signature:
        raise ShapeMismatch(
            "the two-copy gluing cannot reproduce this resource's moment structure"
        )
    return g_sig, aligned, target


def _certified_farkas(out, prog, what: str) -> NogoVerdict:
    """An infeasibility verdict, after re-checking its Farkas certificate
    against the raw program."""
    verify_or_raise(out, prog, what)
    return NogoVerdict(False, cert=out.cert, lp_size=(prog.n, prog.m), lp=prog)


def split_check(r: Resource, lp_cap: int = DEFAULT_NOGO_LP_CAP) -> NogoVerdict:
    """Does any stochastic causal mediator make two copies of r equal r?"""
    g_sig, aligned, target = _split_linear(r)
    bld = table_lp(g_sig)
    add_match_rows(bld, aligned, target)
    prog = bld.build(with_objective=False)
    if prog.n * prog.m > lp_cap:
        raise ProblemTooLarge(f"split LP has {prog.n} vars x {prog.m} rows")
    out = lpmod.solve_feasible(prog)
    if isinstance(out, Infeasible):
        return _certified_farkas(out, prog, "split")
    expect_outcome(out, Feasible, "split")
    g = table_behavior(g_sig, out.point)
    if not behavior_equal(split(r, g), target, 0):
        raise CompositeVerificationFailed("witness mediator failed re-verification")
    return NogoVerdict(True, witness={"g": g}, lp_size=(prog.n, prog.m))


def min_split_advantage(r: Resource, lp_cap: int = DEFAULT_NOGO_LP_CAP) -> Scalar:
    """Exact minimum, over mediators, of the distinguisher advantage between
    r and its split; 0 iff r is splittable."""
    g_sig, aligned, target = _split_linear(r)
    bld = table_lp(g_sig)
    add_advantage_objective(bld, aligned, target)
    prog = bld.build(with_objective=True)
    if prog.n * prog.m > lp_cap:
        raise ProblemTooLarge(f"advantage LP has {prog.n} vars x {prog.m} rows")
    out = lpmod.minimize(prog)
    expect_outcome(out, Optimal, "advantage")
    verify_or_raise(out, prog, "advantage")
    return out.value


# ---------------------------------------------------------------------------
# tripartite broadcast


def broadcast_resource() -> Resource:
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
    return Resource(make_behavior(sig, make_kernel((BIT,), (BIT, BIT), table)), name="broadcast")


def constant_output_resource() -> Resource:
    sig = broadcast_resource().signature
    table = [[0] * 2 for _ in range(4)]
    table[0][0] = table[0][1] = 1
    return Resource(make_behavior(sig, make_kernel((BIT,), (BIT, BIT), table)), name="constant")


def product_uniform_resource() -> Resource:
    sig = broadcast_resource().signature
    table = [[Fraction(1, 4)] * 2 for _ in range(4)]
    return Resource(make_behavior(sig, make_kernel((BIT,), (BIT, BIT), table)), name="product_uniform")


def _tripartite_shape(r: Resource):
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


def tripartite_split_check(r: Resource, lp_cap: int = DEFAULT_NOGO_LP_CAP) -> NogoVerdict:
    """Feasibility of the doubled-middle system: one joint process D with two
    copies of Bob's input that three single-cheater simulators explain at
    once.  Infeasible for genuine broadcast."""
    r_entry, nb, na, nc = _r_entry_fn(r)
    bld = LpBuilder()
    n_d = (nb * nb) * (na * nc)
    d_vars = list(bld.new_vars(n_d))

    def d(bl, br, a, c):
        return d_vars[(bl * nb + br) * (na * nc) + a * nc + c]

    n_sa = (na * nb) * na
    sa_vars = list(bld.new_vars(n_sa))

    def sa(ar, bl, a):
        return sa_vars[(ar * nb + bl) * na + a]

    n_sb = (nb * nb) * nb
    sb_vars = list(bld.new_vars(n_sb))

    def sb(bl, br, b):
        return sb_vars[(bl * nb + br) * nb + b]

    n_sc = (nc * nb) * nc
    sc_vars = list(bld.new_vars(n_sc))

    def sc(cr, br, c):
        return sc_vars[(cr * nb + br) * nc + c]

    one_ = Fraction(1)
    for bl in range(nb):
        for br in range(nb):
            bld.add_eq({d(bl, br, a, c): one_ for a in range(na) for c in range(nc)}, one_)
            bld.add_eq({sb(bl, br, b): one_ for b in range(nb)}, one_)
    for ar in range(na):
        for bl in range(nb):
            bld.add_eq({sa(ar, bl, a): one_ for a in range(na)}, one_)
    for cr in range(nc):
        for br in range(nb):
            bld.add_eq({sc(cr, br, c): one_ for c in range(nc)}, one_)

    for bl in range(nb):
        for br in range(nb):
            for a in range(na):
                for c in range(nc):
                    # Alice cheats: honest side drives r with the right input
                    row = {d(bl, br, a, c): one_}
                    for ar in range(na):
                        w = r_entry(ar, c, br)
                        if w:
                            row[sa(ar, bl, a)] = row.get(sa(ar, bl, a), Fraction(0)) - w
                    bld.add_eq(row, Fraction(0))
                    # Bob cheats: both middle inputs feed his simulator
                    row = {d(bl, br, a, c): one_}
                    for b in range(nb):
                        w = r_entry(a, c, b)
                        if w:
                            row[sb(bl, br, b)] = row.get(sb(bl, br, b), Fraction(0)) - w
                    bld.add_eq(row, Fraction(0))
                    # Charlie cheats: mirror of Alice
                    row = {d(bl, br, a, c): one_}
                    for cr in range(nc):
                        w = r_entry(a, cr, bl)
                        if w:
                            row[sc(cr, br, c)] = row.get(sc(cr, br, c), Fraction(0)) - w
                    bld.add_eq(row, Fraction(0))

    prog = bld.build(with_objective=False)
    if prog.n * prog.m > lp_cap:
        raise ProblemTooLarge(f"tripartite LP has {prog.n} vars x {prog.m} rows")
    out = lpmod.solve_feasible(prog)
    if isinstance(out, Infeasible):
        return _certified_farkas(out, prog, "tripartite")
    expect_outcome(out, Feasible, "tripartite")
    witness = {
        "D": out.point[: n_d],
        "s_A": out.point[n_d : n_d + n_sa],
        "s_B": out.point[n_d + n_sa : n_d + n_sa + n_sb],
        "s_C": out.point[n_d + n_sa + n_sb : n_d + n_sa + n_sb + n_sc],
    }
    _verify_tripartite_witness(r, witness)
    return NogoVerdict(True, witness=witness, lp_size=(prog.n, prog.m))


def _r_entry_fn(r: Resource):
    """Probability of (alice index, charlie index) given Bob's input index,
    independent of how the signature happens to interleave the out-ports."""
    b_in, a_out, c_out = _tripartite_shape(r)
    a_alphas = tuple(q.alphabet for q in a_out)
    c_alphas = tuple(q.alphabet for q in c_out)
    rk = r.behavior.kernel
    out_ports = r.signature.outs()
    a_pos = [k for k, q in enumerate(out_ports) if q.party == "alice"]
    c_pos = [k for k, q in enumerate(out_ports) if q.party == "charlie"]
    out_alphas = tuple(q.alphabet for q in out_ports)

    def entry(a_idx: int, c_idx: int, b_idx: int):
        y = [0] * len(out_ports)
        for pos, v in zip(a_pos, _int_to_tuple(a_alphas, a_idx)):
            y[pos] = v
        for pos, v in zip(c_pos, _int_to_tuple(c_alphas, c_idx)):
            y[pos] = v
        return rk.matrix[tuple_index(out_alphas, tuple(y))][b_idx]

    nb = ports_size(tuple(q.alphabet for q in b_in))
    return entry, nb, ports_size(a_alphas), ports_size(c_alphas)


def doubled_middle(r: Resource, s_b: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Constructive direction: when Bob cheats by answering both middle wires
    with one input to r, the result IS a doubled-middle process.  `s_b` maps
    the middle pair (columns, left input most significant) to Bob's input
    (rows).  Returns D's table indexed [a * nc + c][bl * nb + br]."""
    r_entry, nb, na, nc = _r_entry_fn(r)
    d = [[Fraction(0)] * (nb * nb) for _ in range(na * nc)]
    for bl in range(nb):
        for br in range(nb):
            for b in range(nb):
                w = s_b[b][bl * nb + br]
                if not w:
                    continue
                for a in range(na):
                    for c in range(nc):
                        d[a * nc + c][bl * nb + br] += w * r_entry(a, c, b)
    return d


def tripartite_completion(r: Resource, d_table: Sequence[Sequence[Scalar]], lp_cap: int = DEFAULT_NOGO_LP_CAP) -> NogoVerdict:
    """Given a fixed doubled-middle process D, do the Alice- and
    Charlie-cheating simulators explaining D exist?"""
    r_entry, nb, na, nc = _r_entry_fn(r)
    bld = LpBuilder()
    sa_vars = list(bld.new_vars((na * nb) * na))
    sc_vars = list(bld.new_vars((nc * nb) * nc))

    def sa(ar, bl, a):
        return sa_vars[(ar * nb + bl) * na + a]

    def sc(cr, br, c):
        return sc_vars[(cr * nb + br) * nc + c]

    one_ = Fraction(1)
    for ar in range(na):
        for bl in range(nb):
            bld.add_eq({sa(ar, bl, a): one_ for a in range(na)}, one_)
    for cr in range(nc):
        for br in range(nb):
            bld.add_eq({sc(cr, br, c): one_ for c in range(nc)}, one_)
    for bl in range(nb):
        for br in range(nb):
            for a in range(na):
                for c in range(nc):
                    dv = d_table[a * nc + c][bl * nb + br]
                    row = {}
                    for ar in range(na):
                        w = r_entry(ar, c, br)
                        if w:
                            row[sa(ar, bl, a)] = row.get(sa(ar, bl, a), Fraction(0)) + w
                    bld.add_eq(row, dv)
                    row = {}
                    for cr in range(nc):
                        w = r_entry(a, cr, bl)
                        if w:
                            row[sc(cr, br, c)] = row.get(sc(cr, br, c), Fraction(0)) + w
                    bld.add_eq(row, dv)
    prog = bld.build(with_objective=False)
    if prog.n * prog.m > lp_cap:
        raise ProblemTooLarge(f"completion LP has {prog.n} vars x {prog.m} rows")
    out = lpmod.solve_feasible(prog)
    if isinstance(out, Infeasible):
        return _certified_farkas(out, prog, "completion")
    expect_outcome(out, Feasible, "completion")
    n_sa = len(sa_vars)
    return NogoVerdict(
        True,
        witness={"s_A": out.point[:n_sa], "s_C": out.point[n_sa:]},
        lp_size=(prog.n, prog.m),
    )


def _int_to_tuple(alphas, idx):
    vals = []
    for a in reversed(alphas):
        idx, v = divmod(idx, a.size)
        vals.append(v)
    return tuple(reversed(vals))


def _verify_tripartite_witness(r: Resource, witness) -> None:
    """Substitute the witness back into all three equation blocks."""
    r_entry, nb, na, nc = _r_entry_fn(r)
    D, SA, SB, SC = witness["D"], witness["s_A"], witness["s_B"], witness["s_C"]
    for bl in range(nb):
        for br in range(nb):
            for a in range(na):
                for c in range(nc):
                    dv = D[(bl * nb + br) * (na * nc) + a * nc + c]
                    ea = sum(r_entry(ar, c, br) * SA[(ar * nb + bl) * na + a] for ar in range(na))
                    eb = sum(r_entry(a, c, b) * SB[(bl * nb + br) * nb + b] for b in range(nb))
                    ec = sum(r_entry(a, cr, bl) * SC[(cr * nb + br) * nc + c] for cr in range(nc))
                    if not dv == ea == eb == ec:
                        raise CompositeVerificationFailed("tripartite witness failed re-verification")


@dataclass(frozen=True)
class OracleReport:
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


def broadcast_contradiction_oracle(r: Resource) -> OracleReport:
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
    rk = r.behavior.kernel
    out_ports = r.signature.outs()
    a_k = [k for k, q in enumerate(out_ports) if q.party == "alice"][0]
    c_k = [k for k, q in enumerate(out_ports) if q.party == "charlie"][0]
    na = a_out[0].alphabet.size
    nc = c_out[0].alphabet.size
    charlie_marg = marginalize(rk, [c_k])
    alice_marg = marginalize(rk, [a_k])
    charlie_forced = tuple(charlie_marg.matrix[v][1] for v in range(nc))  # driven by input 1
    alice_forced = tuple(alice_marg.matrix[v][0] for v in range(na))  # driven by input 0
    out_alphas = tuple(q.alphabet for q in out_ports)
    agree_by_b = []
    for b in range(b_in[0].alphabet.size):
        acc = Fraction(0)
        for y in all_tuples(out_alphas):
            if y[a_k] == y[c_k]:
                acc += rk.matrix[tuple_index(out_alphas, y)][b]
        agree_by_b.append(acc)
    required = min(agree_by_b)
    achievable = sum(min(a, c) for a, c in zip(alice_forced, charlie_forced))
    return OracleReport(achievable < required, charlie_forced, alice_forced, required, achievable)
