import random
from fractions import Fraction

import pytest

from composec.comb import (
    IN,
    OUT,
    Behavior,
    Network,
    PortSpec,
    canonical,
    causality_report,
    make_behavior,
    make_signature,
)
import composec.lp
import composec.nogo
from composec.errors import CompositeVerificationFailed, NotCausal, ShapeMismatch
from composec.lp import Feasible, Infeasible
from composec.nogo import (
    broadcast_contradiction_oracle,
    broadcast_resource,
    coin_commitment_resource,
    commitment_resource,
    constant_output_resource,
    identity_channel_resource,
    mediator_problem,
    min_split_advantage,
    ot_resource,
    product_uniform_resource,
    shared_bit_resource,
    split_check,
    tripartite_split_check,
)
from composec.stoch import Alphabet, make_kernel, marginalize, tuple_index
from tests.helpers import (
    BIT,
    TRIT,
    mix_resources,
    random_kernel,
    split,
    tripartite_program,
)

F = Fraction


def test_commitment_resource_shape():
    r = commitment_resource()
    assert causality_report(r) is None
    # binding: round-2 output equals round-1 input
    k = r.kernel
    for b in range(2):
        col = tuple_index(k.dom, (b, 0))
        assert k.matrix[tuple_index(k.cod, (0, b))][col] == 1
    # hiding: the receipt alphabet is trivial
    receipt = [p for p in r.signature.ports if p.id == "receipt"][0]
    assert receipt.alphabet.size == 1


def test_ot_resource_table():
    r = ot_resource()
    k = r.kernel
    col = tuple_index(k.dom, (0, 1, 1))
    assert k.matrix[1][col] == 1  # m_c with (m0,m1)=(0,1), c=1 -> 1
    assert causality_report(r) is None
    assert all(v in (0, 1) for row in k.matrix for v in row)


def test_mediator_signature_for_commitment():
    g_sig = mediator_problem(commitment_resource()).signature
    assert [(p.id, p.direction, p.round) for p in g_sig.ports] == [
        ("m1_receipt", "in", 1),
        ("m2_bit_in", "out", 1),
        ("m1_bit_out", "in", 2),
        ("m2_open", "out", 2),
    ]


def _exchange() -> Behavior:
    """Both parties have ports in both rounds: Alice's a1 reaches Bob as b1,
    Bob's b2 reaches Alice as a2."""
    sig = make_signature(
        ["alice", "bob"],
        2,
        [
            PortSpec("a1", "alice", BIT, IN, 1),
            PortSpec("b1", "bob", BIT, OUT, 1),
            PortSpec("b2", "bob", BIT, IN, 2),
            PortSpec("a2", "alice", BIT, OUT, 2),
        ],
    )
    table = [[0] * 4 for _ in range(4)]
    for a1 in range(2):
        for b2 in range(2):
            table[a1 * 2 + b2][a1 * 2 + b2] = 1  # b1 = a1, a2 = b2
    return make_behavior(sig, make_kernel((BIT, BIT), (BIT, BIT), table))


def test_mediator_shape_for_a_two_round_exchange():
    # the mediator takes copy 1's b1 before it feeds copy 2's a1; round 2
    # fires in copy 2 first, where Bob's b2 enters, and the mediator takes
    # copy 2's a2 before it feeds copy 1's b2
    r = _exchange()
    shape = mediator_problem(r)
    assert shape.label == "g"
    assert [(p.id, p.party, p.direction, p.round) for p in shape.signature.ports] == [
        ("m1_b1", "mediator", "in", 1),
        ("m2_a1", "mediator", "out", 1),
        ("m2_a2", "mediator", "in", 2),
        ("m1_b2", "mediator", "out", 2),
    ]
    assert shape.signature.rounds == 2
    assert list(shape.wires) == [
        (("g", "m1_b1"), ("c1", "b1")),
        (("g", "m2_a1"), ("c2", "a1")),
        (("g", "m2_a2"), ("c2", "a2")),
        (("g", "m1_b2"), ("c1", "b2")),
    ]
    assert list(shape.schedule) == [("c1", 1), ("g", 1), ("c2", 1), ("c2", 2), ("g", 2), ("c1", 2)]
    # a causal network: every wire's producer fires before its consumer
    Network([("c1", r), ("c2", r), (shape.label, shape.signature)], shape.wires, shape.schedule)


def test_split_check_forwards_a_two_round_exchange():
    # a mediator forwarding b1 to a1 and a2 to b2 splits the exchange exactly
    verdict = split_check(_exchange())
    assert verdict.feasible
    assert min_split_advantage(_exchange()) == 0


def test_split_identity_channel_with_identity_mediator():
    r = identity_channel_resource()
    g_sig = mediator_problem(r).signature
    g = make_behavior(g_sig, make_kernel([p.alphabet for p in g_sig.ins()], [p.alphabet for p in g_sig.outs()], [[1, 0], [0, 1]]))
    glued = split(r, g)
    assert glued.kernel.matrix == canonical(r).kernel.matrix


def test_split_check_identity_channel_feasible():
    verdict = split_check(identity_channel_resource())
    assert verdict.feasible
    assert verdict.witness is not None


def test_split_check_shared_bit_infeasible():
    # independent oracle: any mediated split is a product of marginals
    r = shared_bit_resource()
    joint = r.kernel
    pa = marginalize(joint, [0])
    pb = marginalize(joint, [1])
    product = [[pa.matrix[a][0] * pb.matrix[b][0]] for a in range(2) for b in range(2)]
    assert product != [list(row) for row in joint.matrix]
    verdict = split_check(r)
    assert not verdict.feasible
    assert verdict.cert is not None


def test_split_check_commitment_infeasible():
    verdict = split_check(commitment_resource())
    assert not verdict.feasible and verdict.cert is not None


def test_split_check_ot_infeasible():
    verdict = split_check(ot_resource())
    assert not verdict.feasible and verdict.cert is not None


def test_acausal_mediator_rejected():
    # a mediator whose round-1 guess depends on the round-2 input is not causal
    g_sig = mediator_problem(commitment_resource()).signature
    table = [[0] * 2 for _ in range(2)]
    # outs (m2_bit_in, m2_open) given ins (m1_receipt, m1_bit_out): copy the
    # future bit into the round-1 guess
    for bit in range(2):
        table[bit][bit] = 1
    with pytest.raises(NotCausal):
        make_behavior(
            g_sig,
            make_kernel(
                [p.alphabet for p in g_sig.ins()], [p.alphabet for p in g_sig.outs()], table
            ),
        )


def test_min_split_advantage_values():
    assert min_split_advantage(identity_channel_resource()) == 0
    assert min_split_advantage(commitment_resource()) == F(1, 2)
    assert min_split_advantage(ot_resource()) == F(1, 4)


def test_advantage_zero_iff_splittable():
    for make in [identity_channel_resource, commitment_resource, shared_bit_resource, coin_commitment_resource]:
        r = make()
        adv = min_split_advantage(r)
        feasible = split_check(r).feasible
        assert (adv == 0) == feasible, make.__name__


def test_advantage_monotone_towards_splittable():
    grid = [F(1), F(3, 4), F(1, 2), F(1, 4), F(0)]
    commit, coin = commitment_resource(), coin_commitment_resource()
    values = [min_split_advantage(mix_resources(commit, coin, lam)) for lam in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == F(1, 2) and values[-1] == 0


def test_broadcast_resource_shape():
    r = broadcast_resource()
    k = r.kernel
    for b in range(2):
        assert k.matrix[b * 2 + b][b] == 1
    assert causality_report(r) is None


def test_tripartite_broadcast_infeasible():
    verdict = tripartite_split_check(broadcast_resource())
    assert not verdict.feasible
    assert verdict.cert is not None


def test_tripartite_controls_feasible():
    for make in [constant_output_resource, product_uniform_resource]:
        verdict = tripartite_split_check(make())
        assert verdict.feasible, make.__name__


def test_oracle_broadcast_contradiction():
    rep = broadcast_contradiction_oracle(broadcast_resource())
    assert rep.contradiction
    assert rep.charlie_forced == (F(0), F(1))  # Charlie receives 1
    assert rep.alice_forced == (F(1), F(0))  # Alice receives 0
    assert rep.required_agreement == 1 and rep.achievable_agreement == 0


def test_oracle_controls_no_contradiction():
    for r in [constant_output_resource(), product_uniform_resource()]:
        assert not broadcast_contradiction_oracle(r).contradiction


@pytest.mark.parametrize(
    "check, make",
    [
        (split_check, identity_channel_resource),
        (split_check, commitment_resource),
        (tripartite_split_check, constant_output_resource),
        (tripartite_split_check, broadcast_resource),
    ],
)
def test_a_verdict_keeps_the_program_it_was_decided_on(check, make):
    verdict = check(make())
    if not verdict.feasible:
        out = Infeasible(verdict.cert)
    elif check is split_check:  # the mediator's cell (j, i) is variable j * n_y + i
        g = verdict.witness["g"].kernel
        out = Feasible(tuple(v for j in range(g.n_dom) for v in g.column(j)))
    else:  # the tables D, s_A, s_B, s_C, allocated in that order
        out = Feasible(tuple(v for table in verdict.witness.values() for v in table))
    assert composec.lp.verify(out, verdict.lp)


def test_oracle_and_lp_agree_on_shipped_resources():
    for make in [broadcast_resource, constant_output_resource, product_uniform_resource]:
        r = make()
        lp_infeasible = not tripartite_split_check(r).feasible
        oracle = broadcast_contradiction_oracle(r).contradiction
        assert lp_infeasible == oracle, make.__name__


def _two_receivers_resource():
    # three parties, but Charlie only sends: two input-only parties and one
    # output-only, so no party plays Charlie's role
    sig = make_signature(
        ["alice", "bob", "charlie"],
        1,
        [
            PortSpec("b_in", "bob", BIT, IN, 1),
            PortSpec("a_out", "alice", BIT, OUT, 1),
            PortSpec("c_in", "charlie", BIT, IN, 1),
        ],
    )
    return make_behavior(sig, make_kernel((BIT, BIT), (BIT,), [[1, 1, 1, 1], [0, 0, 0, 0]]))


def test_oracle_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        broadcast_contradiction_oracle(commitment_resource())
    with pytest.raises(ShapeMismatch):
        tripartite_split_check(commitment_resource())


def test_three_parties_without_the_roles_are_a_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        broadcast_contradiction_oracle(_two_receivers_resource())
    with pytest.raises(ShapeMismatch):
        tripartite_split_check(_two_receivers_resource())


def test_commitment_realize_roundtrip():
    from composec.comb import flatten, realize

    r = commitment_resource()
    comb = realize(r)
    assert comb.signature.rounds == 2
    again = flatten(comb)
    assert again.kernel.matrix == r.kernel.matrix


QUAD = Alphabet("quad", 4)


def _interleaved_resource(seed):
    """Alice's and Charlie's out-ports interleave, with different alphabets,
    so a wrong stride or port order reads another cell."""
    sig = make_signature(
        ["alice", "bob", "charlie"],
        1,
        [
            PortSpec("a1", "alice", TRIT, OUT, 1),
            PortSpec("b", "bob", TRIT, IN, 1),
            PortSpec("c1", "charlie", BIT, OUT, 1),
            PortSpec("a2", "alice", BIT, OUT, 1),
            PortSpec("c2", "charlie", QUAD, OUT, 1),
        ],
    )
    kernel = random_kernel(random.Random(seed), (TRIT,), (TRIT, BIT, BIT, QUAD))
    return make_behavior(sig, kernel)


class _Built(Exception):
    pass


def _split_check_program(monkeypatch, r):
    """The program `tripartite_split_check` builds for r, caught before it
    is solved."""
    built = []

    def capture(bld, what):
        built.append(bld.build())
        raise _Built

    monkeypatch.setattr(composec.nogo, "solve_checked", capture)
    with pytest.raises(_Built):
        tripartite_split_check(r)
    return built[0]


def _typed(prog):
    rows = [(i, [(j, type(v), v) for j, v in pairs], type(bi), bi) for i, pairs, bi in prog.rows]
    return prog.n, prog.m, rows


def _random_tripartite(seed):
    """Bob sends two ports, Alice and Charlie receive one or two each, in a
    random port order, through a random kernel."""
    rng = random.Random(seed)
    ports = [PortSpec(f"b{k}", "bob", rng.choice((BIT, TRIT)), IN, 1) for k in range(2)]
    for party in ("alice", "charlie"):
        ports += [PortSpec(f"{party[0]}{k}", party, rng.choice((BIT, TRIT)), OUT, 1) for k in range(rng.randint(1, 2))]
    rng.shuffle(ports)
    sig = make_signature(["alice", "bob", "charlie"], 1, ports)
    return make_behavior(sig, random_kernel(rng, [q.alphabet for q in sig.ins()], [q.alphabet for q in sig.outs()]))


RANDOM_SEEDS = (40, 41, 42, 43)


@pytest.mark.parametrize(
    "make",
    [broadcast_resource, constant_output_resource, product_uniform_resource]
    + [lambda seed=seed: _interleaved_resource(seed) for seed in (31, 32, 33)]
    + [lambda seed=seed: _random_tripartite(seed) for seed in RANDOM_SEEDS],
    ids=["broadcast", "constant", "product_uniform", "interleaved_31", "interleaved_32", "interleaved_33"]
    + [f"random_{seed}" for seed in RANDOM_SEEDS],
)
def test_split_check_builds_the_hand_written_program(monkeypatch, make):
    r = make()
    assert _typed(_split_check_program(monkeypatch, r)) == _typed(tripartite_program(r))


def test_the_roles_come_from_the_resource_not_from_party_names(monkeypatch):
    """Broadcast among parties named otherwise builds the program of the
    built-in broadcast and gets the digest of the shipped golden."""
    from composec.cli import parse_spec, run

    text = (
        "alphabet bit size 2\n"
        "resource bc parties ann,bo,cy rounds 1 ports b_in:bo:in:bit@1 a_out:ann:out:bit@1 c_out:cy:out:bit@1 "
        "rows 1 0 ; 0 0 ; 0 0 ; 0 1\ncheck broadcast bc expect infeasible\n"
    )
    (entry,) = run(parse_spec(text), no_meta=True).report["checks"]
    assert entry["pass"] and entry["certificate"] == "sha256:7796adc20db2afab"
    names = {"alice": "ann", "bob": "bo", "charlie": "cy"}
    r = broadcast_resource()
    ports = [PortSpec(q.id, names[q.party], q.alphabet, q.direction, 1) for q in r.signature.ports]
    renamed = make_behavior(make_signature(list(names.values()), 1, ports), r.kernel)
    assert _typed(_split_check_program(monkeypatch, renamed)) == _typed(_split_check_program(monkeypatch, r))


def _bit_resource(seed):
    """Broadcast's signature with a random kernel; on every third seed both
    columns are the same, so the outputs ignore Bob's input."""
    rng = random.Random(seed)
    kernel = random_kernel(rng, (BIT,), (BIT, BIT))
    if seed % 3 == 2:
        kernel = make_kernel((BIT,), (BIT, BIT), [[v, v] for v in kernel.column(0)])
    return make_behavior(broadcast_resource().signature, kernel)


def test_an_oracle_contradiction_implies_an_infeasible_program():
    """The oracle is sufficient for infeasibility, not necessary: on random
    bit-sized resources a contradiction always comes with an infeasible
    program, and some infeasible programs come with none."""
    seen = set()
    for seed in range(12):
        r = _bit_resource(seed)
        verdict, oracle = tripartite_split_check(r), broadcast_contradiction_oracle(r)
        assert not (oracle.contradiction and verdict.feasible), seed
        seen.add((verdict.feasible, oracle.contradiction))
    assert seen == {(True, False), (False, False), (False, True)}


def _alice_only_resource():
    # Alice receives Bob's bit and Charlie a constant 0: Bob's simulator must
    # pass the left middle input on, so moving mass within one of its
    # columns changes what his attack produces
    table = [[0] * 2 for _ in range(4)]
    for b in range(2):
        table[b * 2][b] = 1
    sig = broadcast_resource().signature
    return make_behavior(sig, make_kernel((BIT,), (BIT, BIT), table))


def test_witness_check_rejects_mass_moved_within_an_s_b_column(monkeypatch):
    r = _alice_only_resource()
    verdict = tripartite_split_check(r)
    assert verdict.feasible and broadcast_contradiction_oracle(r).contradiction is False
    witness = verdict.witness
    assert list(witness) == ["D", "s_A", "s_B", "s_C"]  # the program's variable order

    def check_with(s_b):
        point = (*witness["D"], *witness["s_A"], *s_b, *witness["s_C"])
        monkeypatch.setattr(composec.lp, "solve_feasible", lambda prog: Feasible(point))
        return tripartite_split_check(r)

    assert check_with(witness["s_B"]).feasible
    s_b = list(witness["s_B"])  # column (b_l, b_r) holds cells 2 * column + b
    full = next(k for k in range(2) if s_b[k] > 0)
    s_b[1 - full] += s_b[full]
    s_b[full] = F(0)
    assert sum(s_b[:2]) == 1
    with pytest.raises(CompositeVerificationFailed, match="tripartite LP's feasible point"):
        check_with(s_b)


class _SwappedBobNetwork(Network):
    """An encoding fault: the Bob-cheats forms read s_B's column (b_r, b_l)
    where (b_l, b_r) is meant, and the other networks' forms are right."""

    def linear_evaluate(self, into=None):
        sig, columns = super().linear_evaluate(into)
        if self.symbolic != "s_B":
            return sig, columns

        def swapped(k):  # cell (b_l * 2 + b_r) * 2 + b over bits
            col, b = divmod(k, 2)
            return (col % 2 * 2 + col // 2) * 2 + b

        return sig, [{i: {swapped(k): w for k, w in form.items()} for i, form in col.items()} for col in columns]


def test_substitution_catches_an_encoding_fault_that_lp_verify_passes(monkeypatch):
    """With Bob's rows written against the swapped middle pair, the program
    forces s_B to pass on the right input, so its solved point satisfies
    `lp.verify`, but Bob's network with that table in place hands Alice the
    right input where D gives her the left one."""
    r = _alice_only_resource()
    assert tripartite_split_check(r).feasible
    monkeypatch.setattr(composec.nogo, "Network", _SwappedBobNetwork)
    verified, verify = [], composec.lp.verify
    monkeypatch.setattr(composec.lp, "verify", lambda out, prog: verified.append(verify(out, prog)) or verified[-1])
    with pytest.raises(CompositeVerificationFailed, match="s_B table does not reproduce D"):
        tripartite_split_check(r)
    assert verified == [True]
