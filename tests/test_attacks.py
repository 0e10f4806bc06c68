import itertools
import random
from fractions import Fraction

import pytest

from composec import attacks, distinguisher
from composec import lp as lpmod
from composec.attacks import (
    Simulator,
    check_secure_with,
    compose_certs,
    derive_simulator_shape,
    dummy_attack,
    ideal_view,
    min_epsilon,
    search_simulator,
)
from composec.comb import (
    IN,
    OUT,
    Behavior,
    Network,
    PortSpec,
    behavior_distance,
    canonical,
    canonical_rounds,
    make_behavior,
    make_signature,
)
from composec.errors import CompositeVerificationFailed, InterfaceMismatch, WiringMismatch
from composec.hopf import OtpInstance, build_otp, group_make, otp_security
from composec.resources import Converter, Protocol, apply_protocol
from composec.stoch import Alphabet, all_tuples, compose, copy_map, make_kernel, marginalize, ports_size, tuple_index

from tests.helpers import (
    BIT,
    apply_protocol_via_dummy,
    attack_transfers,
    identity_protocol,
    index_tuple,
    merge_asap,
    observationally_equal,
    random_kernel,
    rename_ports,
)

F = Fraction


def three_party_resource(rng, sizes=(2, 2, 2), suffix=""):
    """One random out-port per party, jointly distributed."""
    a_a, a_b, a_e = (Alphabet(f"x{i}{suffix}", s) for i, s in enumerate(sizes))
    sig = make_signature(
        ["alice", "bob", "eve"],
        1,
        [
            PortSpec("pa" + suffix, "alice", a_a, OUT, 1),
            PortSpec("pb" + suffix, "bob", a_b, OUT, 1),
            PortSpec("pe" + suffix, "eve", a_e, OUT, 1),
        ],
    )
    kernel = random_kernel(rng, (), (a_a, a_b, a_e))
    return make_behavior(sig, kernel)


def random_bijection(rng, alphabet):
    perm = list(range(alphabet.size))
    rng.shuffle(perm)
    table = [[0] * alphabet.size for _ in range(alphabet.size)]
    for x, y in enumerate(perm):
        table[y][x] = 1
    return table, perm


def bijection_protocol(rng, src, stage=0):
    """Each party applies a random relabeling to its port; the declared
    target is the honestly transformed resource."""
    converters = []
    perms = {}
    for party in ("alice", "bob", "eve"):
        port = [p for p in src.signature.ports if p.party == party][0]
        table, perm = random_bijection(rng, port.alphabet)
        perms[party] = perm
        csig = make_signature(
            [party],
            1,
            [
                PortSpec(f"{port.id}_c{stage}", party, port.alphabet, IN, 1),
                PortSpec(f"{port.id}_s{stage}", party, port.alphabet, OUT, 1),
            ],
        )
        comb = make_behavior(csig, make_kernel([port.alphabet], [port.alphabet], table))
        converters.append(Converter(party, comb, ((f"{port.id}_c{stage}", port.id),)))
    schedule = [("res", r) for r in range(1, src.signature.rounds + 1)] + [
        ("alice", 1),
        ("bob", 1),
        ("eve", 1),
    ]
    net = Network(
        [("res", src)] + [(c.party, c.comb) for c in converters],
        [((c.party, cp), ("res", rp)) for c in converters for cp, rp in c.wiring],
        schedule,
    )
    tgt = net.evaluate()
    return Protocol(src, tgt, tuple(converters), tuple(schedule))


def test_dummy_attack_empty_j_is_honest_execution():
    rng = random.Random(51)
    src = three_party_resource(rng)
    p = bijection_protocol(rng, src)
    view = dummy_attack(p, src, ())
    honest = apply_protocol(p, src)
    assert observationally_equal(view, honest)


def test_dummy_attack_all_parties_is_resource():
    rng = random.Random(52)
    src = three_party_resource(rng)
    p = bijection_protocol(rng, src)
    view = dummy_attack(p, src, ("alice", "bob", "eve"))
    assert observationally_equal(view, src)


def test_dummy_attack_unknown_party():
    rng = random.Random(53)
    src = three_party_resource(rng)
    p = bijection_protocol(rng, src)
    with pytest.raises(WiringMismatch):
        dummy_attack(p, src, ("mallory",))


def test_dummy_attack_memo_returns_one_view_per_dishonest_set():
    p = build_otp(group_make(("cyclic", 3))).protocol
    view = dummy_attack(p, p.source, ("eve", "bob"))
    assert dummy_attack(p, p.source, ["bob", "eve"]) is view
    assert dummy_attack(p, p.source, ("bob", "eve", "bob")) is view
    assert p == build_otp(group_make(("cyclic", 3))).protocol  # the memo is not compared
    hash(p)


def test_dummy_attack_memo_misses_give_fresh_correct_views():
    rng = random.Random(55)
    src = three_party_resource(rng)
    p = bijection_protocol(rng, src)
    # a value-equal resource that is not the protocol's own object
    twin = Behavior(src.signature, src.kernel)
    assert twin == src and twin is not src
    eve = dummy_attack(p, src, ("eve",))
    other = dummy_attack(p, twin, ("eve",))
    assert other is not eve and other == eve
    bob = dummy_attack(p, src, ("bob",))
    assert bob is not eve and bob == dummy_attack(p, twin, ("bob",))
    assert dummy_attack(p, src, ("bob",)) is bob
    assert dummy_attack(p, src, ()) == dummy_attack(p, twin, ())
    assert observationally_equal(dummy_attack(p, src, ()), apply_protocol(p, src))


def test_dummy_attack_unknown_party_raises_after_memo():
    p = build_otp(group_make(("cyclic", 2))).protocol
    dummy_attack(p, p.source, ("eve",))
    for _ in range(2):
        with pytest.raises(WiringMismatch):
            dummy_attack(p, p.source, ("eve", "mallory"))


# ---------------------------------------------------------------------------
# the dummy factorization, on which every `secure` verdict rests: the dummy
# view exposes exactly the J parties' resource ports, and their own
# converters linked back onto it give the honest execution


def _dummy_factorization_failures(p, r):
    """The proper nonempty colluding sets J on which the law fails."""
    honest = apply_protocol(p, r)
    parties = r.signature.parties
    failures = []
    for k in range(1, len(parties)):
        for j in itertools.combinations(parties, k):
            exposed = {q.id for q in attacks.dummy_attack(p, r, j).signature.ports if q.party in j}
            owned = {q.id for q in r.signature.ports if q.party in j}
            if exposed != owned or not observationally_equal(apply_protocol_via_dummy(p, r, j), honest):
                failures.append(j)
    return failures


def _factorization_cases():
    """(is a one-time pad, protocol, resource): the shipped pads over Z2 and
    Z3, then seeded random relabelings of random three-party resources."""
    for order in (2, 3):
        inst = build_otp(group_make(("cyclic", order)))
        yield True, inst.protocol, inst.source
    rng = random.Random(65)
    for _ in range(3):
        src = three_party_resource(rng, sizes=(2, 3, 2))
        yield False, bijection_protocol(rng, src), src


def test_the_dummy_factorization_holds():
    for _pad, p, r in _factorization_cases():
        assert _dummy_factorization_failures(p, r) == []


def _drop_a_j_port(view, j_parties):
    """The view with its first J output port summed out."""
    outs = view.signature.outs()
    k = next(k for k, q in enumerate(outs) if q.party in j_parties)
    ports = [q for q in view.signature.ports if q is not outs[k]]
    sig = make_signature(view.signature.parties, view.signature.rounds, ports)
    return make_behavior(sig, marginalize(view.kernel, [i for i in range(len(outs)) if i != k]))


def _shift_a_j_port(view, j_parties):
    """The view with its first J output port's value moved up by one."""
    k = next(k for k, q in enumerate(view.signature.outs()) if q.party in j_parties)
    cod = view.kernel.cod
    rows = [[0] * ports_size(cod) for _ in range(ports_size(cod))]
    for y in all_tuples(cod):
        rows[tuple_index(cod, y[:k] + ((y[k] + 1) % cod[k].size,) + y[k + 1 :])][tuple_index(cod, y)] = 1
    return make_behavior(view.signature, compose(make_kernel(cod, cod, rows), view.kernel))


@pytest.mark.parametrize("wrong", [_drop_a_j_port, _shift_a_j_port], ids=["drop-a-j-port", "shift-a-j-port"])
def test_the_dummy_factorization_fails_on_a_wrong_dummy_view(monkeypatch, wrong):
    # a dropped port leaves the exposed interface short; a shifted one
    # keeps it and changes what J's converters compute, except on the pad
    # for Eve alone, whose honest converter discards her ciphertext
    dummy = attacks.dummy_attack
    monkeypatch.setattr(attacks, "dummy_attack", lambda p, r, j: wrong(dummy(p, r, j), j))
    for pad, p, r in _factorization_cases():
        parties = r.signature.parties
        proper = [j for k in range(1, len(parties)) for j in itertools.combinations(parties, k)]
        unseen = [("eve",)] if pad and wrong is _shift_a_j_port else []
        assert _dummy_factorization_failures(p, r) == [j for j in proper if j not in unseen]


def test_apply_attack_identity_is_dummy():
    # an attack is a comb linked onto the dummy view
    rng = random.Random(54)
    src = three_party_resource(rng)
    p = bijection_protocol(rng, src)
    view = dummy_attack(p, src, ("eve",))
    pe = [q for q in view.signature.ports if q.party == "eve"][0]
    csig = make_signature(
        ["eve"],
        1,
        [PortSpec("in0", "eve", pe.alphabet, IN, 1), PortSpec("out0", "eve", pe.alphabet, OUT, 1)],
    )
    idt = [[1 if i == j else 0 for j in range(pe.alphabet.size)] for i in range(pe.alphabet.size)]
    atk = make_behavior(csig, make_kernel([pe.alphabet], [pe.alphabet], idt))
    out = merge_asap(view, [("atk", atk)], [(("atk", "in0"), ("view", pe.id))])
    assert observationally_equal(out, rename_ports(view, {pe.id: "out0"}))


def test_apply_attack_delete_gives_honest_marginal():
    rng = random.Random(55)
    src = three_party_resource(rng)
    p = bijection_protocol(rng, src)
    view = dummy_attack(p, src, ("eve",))
    pe = [q for q in view.signature.ports if q.party == "eve"][0]
    csig = make_signature(["eve"], 1, [PortSpec("in0", "eve", pe.alphabet, IN, 1)])
    deleter = make_behavior(csig, make_kernel([pe.alphabet], [], [[1] * pe.alphabet.size]))
    out = merge_asap(view, [("atk", deleter)], [(("atk", "in0"), ("view", pe.id))])
    keep = [i for i, q in enumerate(view.signature.outs()) if q.id != pe.id]
    marg = marginalize(view.kernel, keep)
    assert canonical(out).kernel.matrix == marg.matrix


def test_search_simulator_finds_inverse_bijection():
    rng = random.Random(56)
    for _ in range(5):
        src = three_party_resource(rng)
        p = bijection_protocol(rng, src)
        rep = search_simulator(p, src, p.target, ("eve",))
        assert rep.secure, rep
        rep2 = check_secure_with(p, src, p.target, ("eve",), rep.cert.simulator)
        assert rep2.secure


def test_search_simulator_identity_on_trivial_protocol():
    rng = random.Random(57)
    src = three_party_resource(rng)
    p = identity_protocol(src)
    rep = search_simulator(p, src, src, ("eve",))
    assert rep.secure


def test_theorem2_transfer_random_attacks():
    # a simulator for the dummy attack transfers to arbitrary attacks
    rng = random.Random(58)
    inst = build_otp(group_make(("cyclic", 2)))
    leak = Alphabet("leak", 3)
    assert attack_transfers(inst, 25, lambda c: random_kernel(rng, (c,), (leak,))) == [True] * 25


def test_compose_certs_sequential_and_parallel():
    rng = random.Random(59)
    for trial in range(6):
        src = three_party_resource(rng)
        p1 = bijection_protocol(rng, src, stage=0)
        p2 = bijection_protocol(rng, p1.target, stage=1)
        c1 = search_simulator(p1, src, p1.target, ("eve",)).cert
        c2 = search_simulator(p2, p1.target, p2.target, ("eve",)).cert
        cert, rep = compose_certs(c1, c2, "sequential", (p2, p1), src, p2.target)
        assert rep.verdict == "secure" and rep.epsilon == 0
        # parallel with an independent instance
        src_b = three_party_resource(rng, suffix="q")
        q1 = bijection_protocol(rng, src_b, stage=2)
        c3 = search_simulator(q1, src_b, q1.target, ("eve",)).cert
        from composec.comb import tensor_behavior

        both_src = tensor_behavior(src, src_b)
        both_tgt = tensor_behavior(p1.target, q1.target)
        cert_par, rep_par = compose_certs(c1, c3, "parallel", (q1, p1), both_src, both_tgt)
        assert rep_par.verdict == "secure"


def test_compose_certs_requires_same_j():
    rng = random.Random(60)
    src = three_party_resource(rng)
    p1 = bijection_protocol(rng, src)
    c1 = search_simulator(p1, src, p1.target, ("eve",)).cert
    c2 = search_simulator(p1, src, p1.target, ("bob",)).cert
    with pytest.raises(InterfaceMismatch):
        compose_certs(c1, c2, "sequential", (p1, p1), src, p1.target)


def test_residual_is_the_distinguisher_advantage():
    # the uniform simulator against a key that is uniform on half of Z4: the
    # largest entrywise gap is 1/4, but a distinguisher tells them apart with
    # advantage 1/2, which is what composition budgets a residual against
    half = Fraction(1, 2)
    inst = build_otp(group_make(("cyclic", 4)), (half, half, Fraction(0), Fraction(0)))
    rep = check_secure_with(inst.protocol, inst.source, inst.target, ("eve",), inst.sigma)
    real = dummy_attack(inst.protocol, inst.source, ("eve",))
    ideal = ideal_view(inst.target, inst.sigma, real.signature)
    assert rep.verdict == "insecure"
    assert rep.cert.residual == half == behavior_distance(real, ideal)


def test_a_simulator_wire_to_a_missing_port_is_a_wiring_mismatch():
    # scheduling the ideal view orients the simulator's wires before the
    # network does, and must refuse a port its node lacks as the network would
    inst = build_otp(group_make(("cyclic", 2)))
    ((sim_port, res_port),) = inst.sigma.wires
    sim = Simulator(inst.sigma.nodes, (((sim_port[0], sim_port[1] + "x"), res_port),))
    with pytest.raises(WiringMismatch, match="no port 'sim__eve_flagx' on node 'sim'"):
        check_secure_with(inst.protocol, inst.source, inst.target, ("eve",), sim)


def test_lifting_deterministic_simulator_transfers():
    from composec.resources import lift_deterministic

    inst = build_otp(group_make(("cyclic", 3)))
    lifted = lift_deterministic(inst.protocol)
    rep = check_secure_with(lifted, inst.source, inst.target, ("eve",), inst.sigma)
    assert rep.secure


def test_search_simulator_evaluates_real_view_once(monkeypatch):
    inst = build_otp(group_make(("cyclic", 2)))
    calls = []
    dummy = attacks.dummy_attack
    monkeypatch.setattr(attacks, "dummy_attack", lambda *args: calls.append(args) or dummy(*args))
    assert search_simulator(inst.protocol, inst.source, inst.target, ("eve",)).secure
    assert len(calls) == 1


def test_search_simulator_rechecks_lp_simulator(monkeypatch):
    inst = build_otp(group_make(("cyclic", 2)))
    table_behavior = distinguisher.table_behavior

    def constant_simulator(sig, point):
        n_y = ports_size(tuple(p.alphabet for p in sig.outs()))
        return table_behavior(sig, [1 if k % n_y == 0 else 0 for k in range(len(point))])

    monkeypatch.setattr(distinguisher, "table_behavior", constant_simulator)
    with pytest.raises(CompositeVerificationFailed, match="^simulator LP's table does not achieve its value"):
        search_simulator(inst.protocol, inst.source, inst.target, ("eve",))


def test_min_epsilon_perfect_otp_is_zero():
    inst = build_otp(group_make(("cyclic", 2)))
    rep = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
    assert rep.epsilon == 0 and rep.verdict == "secure"


def test_a_found_simulator_keeps_the_program_it_solved():
    inst = build_otp(group_make(("cyclic", 3)))
    found = search_simulator(inst.protocol, inst.source, inst.target, ("eve",))
    ((_label, comb),) = found.cert.simulator.nodes
    table = tuple(v for j in range(comb.kernel.n_dom) for v in comb.kernel.column(j))
    assert found.secure and lpmod.verify(lpmod.Feasible(table), found.lp)
    # the least-advantage program: the same table, then its tree's variables
    least = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
    assert least.secure and least.lp.objective is not None and least.lp.n > len(table)


def test_min_epsilon_z6_is_the_keys_distance_from_uniform():
    # key (1/2, then uniform): epsilon = 1/2 sum |w_k - 1/6| = (6 - 2) / 12
    weights = [F(1, 2)] + [F(1, 10)] * 5
    inst = build_otp(group_make(("cyclic", 6)), weights)
    rep = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
    assert rep.verdict == "epsilon" and rep.epsilon == F(1, 3)


def test_min_epsilon_is_the_keys_distance_from_uniform_on_random_keys():
    """epsilon = 1/2 sum_k |w_k - 1/n| for an OTP over a group of order n with
    key weights w, on seeded random keys, zeros allowed.

    Why: Eve sees c = m k, whose law given the message m is w translated by
    m, L_m w; in the ideal world she sees a flag that says nothing, so a
    simulator is one law q on ciphertexts, and the best distinguisher picks
    the worst m: f(q) = max_m 1/2 |L_m w - q|_1.  f is convex, and it is
    unchanged when q is translated by a group element, since that only
    relabels the messages.  The average of q's n translates is the uniform
    law u, so f(u) <= the average of f over the translates = f(q): the
    uniform simulator is optimal, and f(u) = 1/2 |w - u|_1 for every m."""
    rng = random.Random(21)
    zeros = 0
    for source, keys in ((("cyclic", 2), 4), (("cyclic", 3), 4), (("cyclic", 4), 3), (("cyclic", 5), 2), ("symmetric3", 2)):
        g = group_make(source)
        n = g.order
        for _ in range(keys):
            raw = [0] * n
            while not any(raw):
                raw = [rng.randint(0, 4) for _ in range(n)]
            zeros += raw.count(0)
            w = [F(v, sum(raw)) for v in raw]
            inst = build_otp(g, w)
            rep = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
            assert rep.epsilon == sum(abs(v - F(1, n)) for v in w) / 2, (g.name, w)
    assert zeros >= 3


def test_search_simulator_colluding_pair():
    # two dishonest parties at once: the simulator undoes both bijections
    rng = random.Random(62)
    for _ in range(3):
        src = three_party_resource(rng)
        p = bijection_protocol(rng, src)
        rep = search_simulator(p, src, p.target, ("alice", "eve"))
        assert rep.secure
        again = check_secure_with(p, src, p.target, ("alice", "eve"), rep.cert.simulator)
        assert again.secure


def test_copy_ciphertext_attack_duplicates_view():
    inst = build_otp(group_make(("cyclic", 2)))
    view = dummy_attack(inst.protocol, inst.source, ("eve",))
    pe = [q for q in view.signature.ports if q.party == "eve"][0]
    csig = make_signature(
        ["eve"],
        1,
        [
            PortSpec("c_in", "eve", pe.alphabet, IN, 1),
            PortSpec("c1", "eve", pe.alphabet, OUT, 1),
            PortSpec("c2", "eve", pe.alphabet, OUT, 1),
        ],
    )
    atk = make_behavior(csig, copy_map([pe.alphabet]))
    out = canonical(merge_asap(view, [("atk", atk)], [(("atk", "c_in"), ("view", pe.id))]))
    k = out.kernel
    outs = out.signature.outs()
    i1 = [i for i, p in enumerate(outs) if p.id == "c1"][0]
    i2 = [i for i, p in enumerate(outs) if p.id == "c2"][0]
    for col in range(k.n_dom):
        for row in range(k.n_cod):
            y = index_tuple(k.cod, row)
            if y[i1] != y[i2]:
                assert k.matrix[row][col] == 0


def test_search_simulator_empty_dishonest_set():
    rng = random.Random(63)
    src = three_party_resource(rng)
    p = bijection_protocol(rng, src)
    rep = search_simulator(p, src, p.target, ())
    assert rep.secure


def test_multi_round_simulator_search():
    # dishonest ports in two rounds with an honest input in between force a
    # two-round simulator whose first output may not depend on its second
    # input; the LP carries that causality constraint
    rng = random.Random(64)
    a2 = Alphabet("w2", 2)
    sig = make_signature(
        ["alice", "eve"],
        2,
        [
            PortSpec("a1", "alice", a2, OUT, 1),
            PortSpec("e1", "eve", a2, OUT, 1),
            PortSpec("x2", "alice", BIT, IN, 2),
            PortSpec("e2", "eve", a2, OUT, 2),
        ],
    )
    table = [[0] * 2 for _ in range(8)]
    for x2 in range(2):
        for a1 in range(2):
            for e1 in range(2):
                e2 = (e1 + x2) % 2
                table[a1 * 4 + e1 * 2 + e2][x2] += F(1, 4)
    r = make_behavior(sig, make_kernel((BIT,), (a2, a2, a2), table))
    p = identity_protocol(r)
    rep = search_simulator(p, r, r, ("eve",))
    assert rep.secure
    sim_comb = rep.cert.simulator.nodes[0][1]
    assert sim_comb.signature.rounds >= 2


def _shape_rows(shape):
    return (
        [(p.id, p.party, p.direction, p.round) for p in shape.signature.ports],
        shape.signature.rounds,
        list(shape.wires),
        list(shape.schedule),
    )


def test_simulator_shape_for_otp_z2():
    # Eve's real interface is the ciphertext; the ideal channel's round
    # fires for Alice's message, so its flag waits until the simulator
    # emits the ciphertext, in the same round
    inst = build_otp(group_make(("cyclic", 2)))
    real = dummy_attack(inst.protocol, inst.source, ("eve",))
    shape = derive_simulator_shape(real.signature, inst.target, ("eve",))
    assert shape.label == "sim"
    assert _shape_rows(shape) == (
        [("sim__eve_flag", "eve", IN, 1), ("ce", "eve", OUT, 1)],
        1,
        [(("sim", "sim__eve_flag"), ("res", "eve_flag"))],
        [("res", 1), ("sim", 1)],
    )


def test_simulator_shape_fires_a_round_of_dishonest_outputs_eagerly():
    # ideal round 1 only hands Eve a leak, so it fires before her first
    # real moment and the simulator takes the leak before it emits e; ideal
    # round 2 fires for Alice's x, after the simulator has taken g, and the
    # simulator feeds it f in that same round
    s_sig = make_signature(
        ["alice", "eve"],
        2,
        [
            PortSpec("leak", "eve", BIT, OUT, 1),
            PortSpec("x", "alice", BIT, IN, 2),
            PortSpec("f", "eve", BIT, IN, 2),
            PortSpec("y", "alice", BIT, OUT, 2),
        ],
    )
    table = [[0] * 4 for _ in range(4)]
    for x in range(2):
        for f in range(2):
            table[x ^ f][x * 2 + f] = 1  # leak 0, y = x xor f
    s = make_behavior(s_sig, make_kernel((BIT, BIT), (BIT, BIT), table))
    real_sig = make_signature(
        ["alice", "eve"],
        2,
        [
            PortSpec("e", "eve", BIT, OUT, 1),
            PortSpec("g", "eve", BIT, IN, 2),
            PortSpec("x", "alice", BIT, IN, 2),
            PortSpec("y", "alice", BIT, OUT, 2),
        ],
    )
    shape = derive_simulator_shape(real_sig, s, ("eve",))
    assert _shape_rows(shape) == (
        [("sim__leak", "eve", IN, 1), ("e", "eve", OUT, 1), ("g", "eve", IN, 2), ("sim__f", "eve", OUT, 2)],
        2,
        [(("sim", "sim__leak"), ("res", "leak")), (("sim", "sim__f"), ("res", "f"))],
        [("res", 1), ("sim", 1), ("sim", 2), ("res", 2)],
    )
    # the shape is a causal network whose interface is the real view's
    net = Network([("res", s), (shape.label, shape.signature)], shape.wires, shape.schedule)
    assert canonical_rounds(net.result_signature())[0] == canonical_rounds(real_sig)[0]


def test_simulator_echoes_an_ideal_output_back():
    # r is a bare channel x -> y and Eve has no port; the ideal s hands Eve
    # leak = x in round 1 and takes back, with y = back, in round 2.  The
    # simulator takes leak before it feeds back, so echoing it is perfect
    r_sig = make_signature(["alice", "bob", "eve"], 1, [PortSpec("x", "alice", BIT, IN, 1), PortSpec("y", "bob", BIT, OUT, 1)])
    r = make_behavior(r_sig, make_kernel((BIT,), (BIT,), [[1, 0], [0, 1]]))
    s_sig = make_signature(
        ["alice", "bob", "eve"],
        2,
        [
            PortSpec("x", "alice", BIT, IN, 1),
            PortSpec("leak", "eve", BIT, OUT, 1),
            PortSpec("back", "eve", BIT, IN, 2),
            PortSpec("y", "bob", BIT, OUT, 2),
        ],
    )
    table = [[0] * 4 for _ in range(4)]
    for x in range(2):
        for back in range(2):
            table[x * 2 + back][x * 2 + back] = 1  # leak = x, y = back
    s = make_behavior(s_sig, make_kernel((BIT, BIT), (BIT, BIT), table))
    assert _shape_rows(derive_simulator_shape(r_sig, s, ("eve",))) == (
        [("sim__leak", "eve", IN, 1), ("sim__back", "eve", OUT, 1)],
        1,
        [(("sim", "sim__leak"), ("res", "leak")), (("sim", "sim__back"), ("res", "back"))],
        [("res", 1), ("sim", 1), ("res", 2)],
    )
    rep = search_simulator(identity_protocol(r), r, s, ("eve",))
    assert rep.verdict == "secure"


# ---------------------------------------------------------------------------
# the transfer claim of `check otp GROUP attacks N`: N attacks transfer
# exactly when `otp_security` says secure


def _linked_transfer(inst, n, seed):
    """The numeric reference: whether `n` seeded random attacks on Eve's
    ciphertext all transfer from the real view to the simulated one."""
    rng = random.Random(seed)
    leak = Alphabet("leak", 3)
    return all(attack_transfers(inst, n, lambda c: random_kernel(rng, (c,), (leak,))))


def _point_mass_simulator(inst):
    """A wrong simulator for Eve: it always emits ciphertext 0."""
    real = dummy_attack(inst.protocol, inst.source, ("eve",))
    shape = derive_simulator_shape(real.signature, inst.target, ("eve",))
    ins = tuple(p.alphabet for p in shape.signature.ins())
    outs = tuple(p.alphabet for p in shape.signature.outs())
    table = [[int(i == 0)] * ports_size(ins) for i in range(ports_size(outs))]
    comb = make_behavior(shape.signature, make_kernel(ins, outs, table))
    return Simulator(((shape.label, comb),), shape.wires)


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("seed", [0, 7, 58])
def test_transfer_probe_agrees_with_linking_each_attack(order, seed):
    inst = build_otp(group_make(("cyclic", order)))
    assert otp_security(inst).verdict == "secure"
    assert _linked_transfer(inst, 12, seed)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("wrong", ["point-mass simulator", "degraded key"])
def test_transfer_probe_fails_where_linking_each_attack_fails(wrong, seed):
    if wrong == "degraded key":
        inst = build_otp(group_make(("cyclic", 3)), [Fraction(1, 2), Fraction(1, 2), Fraction(0)])
        assert not _linked_transfer(inst, 5, seed)
        assert otp_security(inst).verdict == "insecure"
    else:
        # a secure search with a wrong supplied simulator is refused
        inst = build_otp(group_make(("cyclic", 3)))
        inst = OtpInstance(
            inst.group,
            inst.alphabet,
            inst.key,
            inst.auth_channel,
            inst.source,
            inst.protocol,
            inst.target,
            _point_mass_simulator(inst),
        )
        assert not _linked_transfer(inst, 5, seed)
        with pytest.raises(InterfaceMismatch, match="LP search found a simulator but the supplied one fails"):
            otp_security(inst)
