import random
from fractions import Fraction

import pytest

from composec.comb import (
    IN,
    OUT,
    PortSpec,
    behavior_from_table,
    canonical,
    causality_report,
    make_behavior,
    make_signature,
)
from composec.errors import NotCausal, ShapeMismatch
from composec.nogo import (
    NogoVerdict,
    broadcast_contradiction_oracle,
    broadcast_resource,
    coin_commitment_resource,
    commitment_resource,
    constant_output_resource,
    identity_channel_resource,
    mediator_problem,
    min_split_advantage,
    mix_resources,
    ot_resource,
    product_uniform_resource,
    shared_bit_resource,
    split,
    split_check,
    _r_entry_fn,
    tripartite_split_check,
)
from composec.resources import Resource
from composec.stoch import Alphabet, index_tuple, make_kernel, marginalize, tuple_index
from tests.helpers import BIT, TRIT, random_kernel

F = Fraction


def test_commitment_resource_shape():
    r = commitment_resource()
    assert causality_report(r.behavior).ok
    # binding: round-2 output equals round-1 input
    k = r.behavior.kernel
    for b in range(2):
        col = tuple_index(k.dom, (b, 0))
        assert k.matrix[tuple_index(k.cod, (0, b))][col] == 1
    # hiding: the receipt alphabet is trivial
    receipt = [p for p in r.signature.ports if p.id == "receipt"][0]
    assert receipt.alphabet.size == 1


def test_ot_resource_table():
    r = ot_resource()
    k = r.behavior.kernel
    col = tuple_index(k.dom, (0, 1, 1))
    assert k.matrix[1][col] == 1  # m_c with (m0,m1)=(0,1), c=1 -> 1
    assert causality_report(r.behavior).ok
    assert all(v in (0, 1) for row in k.matrix for v in row)


def test_mediator_signature_for_commitment():
    g_sig, wires, schedule = mediator_problem(commitment_resource())
    assert [(p.id, p.direction, p.round) for p in g_sig.ports] == [
        ("m1_receipt", "in", 1),
        ("m2_bit_in", "out", 1),
        ("m1_bit_out", "in", 2),
        ("m2_open", "out", 2),
    ]


def test_split_identity_channel_with_identity_mediator():
    r = identity_channel_resource()
    g_sig, _w, _s = mediator_problem(r)
    g = make_behavior(g_sig, make_kernel([p.alphabet for p in g_sig.ins()], [p.alphabet for p in g_sig.outs()], [[1, 0], [0, 1]]))
    glued = split(r, g)
    assert glued.kernel.matrix == canonical(r.behavior).kernel.matrix


def test_split_check_identity_channel_feasible():
    verdict = split_check(identity_channel_resource())
    assert verdict.feasible
    assert verdict.witness is not None


def test_split_check_shared_bit_infeasible():
    # independent oracle: any mediated split is a product of marginals
    r = shared_bit_resource()
    joint = r.behavior.kernel
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
    g_sig, _w, _s = mediator_problem(commitment_resource())
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
    for r in [
        identity_channel_resource(),
        commitment_resource(),
        shared_bit_resource(),
        coin_commitment_resource(),
    ]:
        adv = min_split_advantage(r)
        feasible = split_check(r).feasible
        assert (adv == 0) == feasible, r.name


def test_advantage_monotone_towards_splittable():
    grid = [F(1), F(3, 4), F(1, 2), F(1, 4), F(0)]
    commit, coin = commitment_resource(), coin_commitment_resource()
    values = [min_split_advantage(mix_resources(commit, coin, lam)) for lam in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == F(1, 2) and values[-1] == 0


def test_broadcast_resource_shape():
    r = broadcast_resource()
    k = r.behavior.kernel
    for b in range(2):
        assert k.matrix[b * 2 + b][b] == 1
    assert causality_report(r.behavior).ok


def test_tripartite_broadcast_infeasible():
    verdict = tripartite_split_check(broadcast_resource())
    assert not verdict.feasible
    assert verdict.cert is not None


def test_tripartite_controls_feasible():
    for r in [constant_output_resource(), product_uniform_resource()]:
        verdict = tripartite_split_check(r)
        assert verdict.feasible, r.name


def test_oracle_broadcast_contradiction():
    rep = broadcast_contradiction_oracle(broadcast_resource())
    assert rep.contradiction
    assert rep.charlie_forced == (F(0), F(1))  # Charlie receives 1
    assert rep.alice_forced == (F(1), F(0))  # Alice receives 0
    assert rep.required_agreement == 1 and rep.achievable_agreement == 0


def test_oracle_controls_no_contradiction():
    for r in [constant_output_resource(), product_uniform_resource()]:
        assert not broadcast_contradiction_oracle(r).contradiction


def test_oracle_and_lp_agree_on_shipped_resources():
    for r in [broadcast_resource(), constant_output_resource(), product_uniform_resource()]:
        lp_infeasible = not tripartite_split_check(r).feasible
        oracle = broadcast_contradiction_oracle(r).contradiction
        assert lp_infeasible == oracle, r.name


def test_oracle_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        broadcast_contradiction_oracle(commitment_resource())
    with pytest.raises(ShapeMismatch):
        tripartite_split_check(commitment_resource())


def test_commitment_realize_roundtrip():
    from composec.comb import flatten, realize

    r = commitment_resource()
    comb = realize(r.behavior)
    assert comb.signature.rounds == 2
    again = flatten(comb)
    assert again.kernel.matrix == r.behavior.kernel.matrix


def test_doubled_middle_constructive_on_controls():
    # Running Bob's attack across the middle wires builds a D that the other
    # two attacks can explain for the feasible controls, never for broadcast.
    from composec.nogo import doubled_middle, tripartite_completion

    s_b = [[1, 1, 0, 0], [0, 0, 1, 1]]  # b' = left middle input
    for r, expect in [
        (constant_output_resource(), True),
        (product_uniform_resource(), True),
        (broadcast_resource(), False),
    ]:
        d = doubled_middle(r, s_b)
        verdict = tripartite_completion(r, d)
        assert verdict.feasible == expect, r.name
        if not verdict.feasible:
            assert verdict.cert is not None


def test_r_entry_reads_interleaved_out_ports():
    # Alice's and Charlie's out-ports interleave, with different alphabets,
    # so a wrong stride or port order reads another cell
    quad = Alphabet("quad", 4)
    sig = make_signature(
        ["alice", "bob", "charlie"],
        1,
        [
            PortSpec("a1", "alice", TRIT, OUT, 1),
            PortSpec("b", "bob", TRIT, IN, 1),
            PortSpec("c1", "charlie", BIT, OUT, 1),
            PortSpec("a2", "alice", BIT, OUT, 1),
            PortSpec("c2", "charlie", quad, OUT, 1),
        ],
    )
    kernel = random_kernel(random.Random(31), (TRIT,), (TRIT, BIT, BIT, quad))
    r = Resource(make_behavior(sig, kernel), name="interleaved")
    entry, nb, na, nc = _r_entry_fn(r)
    assert (nb, na, nc) == (3, 6, 8)
    for b in range(nb):
        for a in range(na):
            a1, a2 = index_tuple((TRIT, BIT), a)
            for c in range(nc):
                c1, c2 = index_tuple((BIT, quad), c)
                assert entry(a, c, b) == kernel.entry((a1, c1, a2, c2), (b,))
