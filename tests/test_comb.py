import random
from fractions import Fraction

import pytest

from composec.comb import (
    IN,
    OUT,
    Behavior,
    CombKernels,
    Network,
    PortSpec,
    Signature,
    behavior_distance,
    behavior_equal,
    behavior_from_table,
    canonical,
    causality_report,
    flatten,
    link,
    make_behavior,
    make_signature,
    observationally_equal,
    realize,
    tensor_behavior,
    trivial_behavior,
)
from composec.errors import (
    AcausalSchedule,
    AlphabetMismatch,
    NotCausal,
    SignatureMismatch,
)
from composec.stoch import UNIT, Alphabet, channel_distance, identity, make_kernel, uniform

BIT = Alphabet("bit", 2)
TRIT = Alphabet("trit", 3)

F = Fraction


def port(pid, party, alphabet, direction, rnd):
    return PortSpec(pid, party, alphabet, direction, rnd)


from tests.helpers import random_comb, random_kernel, strategy_count


def one_round_behavior(kernel, party="p"):
    ports = [port(f"x{i}", party, a, IN, 1) for i, a in enumerate(kernel.dom)]
    ports += [port(f"y{i}", party, a, OUT, 1) for i, a in enumerate(kernel.cod)]
    sig = make_signature([party], 1, ports)
    return make_behavior(sig, kernel)


def test_flatten_one_round_is_kernel():
    k = make_kernel([BIT], [BIT], [[1, 0], [0, 1]])
    sig = make_signature(["p"], 1, [port("x", "p", BIT, IN, 1), port("y", "p", BIT, OUT, 1)])
    comb = CombKernels(sig, (UNIT, UNIT), (make_kernel((UNIT, BIT), (BIT, UNIT), k.matrix),))
    assert flatten(comb).kernel.matrix == k.matrix


def test_flatten_memory_passes_value():
    # round 1 stores x1 in memory, round 2 outputs it
    sig = make_signature(
        ["p"], 2, [port("x1", "p", BIT, IN, 1), port("y2", "p", BIT, OUT, 2)]
    )
    mem = Alphabet("m", 2)
    f1 = make_kernel((UNIT, BIT), (mem,), [[1, 0], [0, 1]])
    f2 = make_kernel((mem,), (BIT, UNIT), [[1, 0], [0, 1]])
    b = flatten(CombKernels(sig, (UNIT, mem, UNIT), (f1, f2)))
    assert b.kernel.matrix == ((F(1), F(0)), (F(0), F(1)))


def test_causality_detects_future_signalling():
    # y1 = x2: output in round 1 copies the round-2 input
    sig = make_signature(
        ["p"], 2, [port("y1", "p", BIT, OUT, 1), port("x2", "p", BIT, IN, 2)]
    )
    table = [[1, 0], [0, 1]]
    b = behavior_from_table(sig, table, check=False)
    report = causality_report(b)
    assert not report.ok
    assert report.violations[0].round == 1
    with pytest.raises(NotCausal):
        behavior_from_table(sig, table, check=True)


def test_flatten_always_causal():
    rng = random.Random(4)
    for _ in range(40):
        b = flatten(random_comb(rng, rounds=rng.randint(1, 3)))
        assert causality_report(b).ok


def test_realize_flatten_roundtrip():
    rng = random.Random(8)
    for _ in range(40):
        b = flatten(random_comb(rng, rounds=rng.randint(1, 3)))
        again = flatten(realize(b))
        assert behavior_equal(b, again, 0)


def test_realize_rejects_noncausal():
    sig = make_signature(
        ["p"], 2, [port("y1", "p", BIT, OUT, 1), port("x2", "p", BIT, IN, 2)]
    )
    b = behavior_from_table(sig, [[1, 0], [0, 1]], check=False)
    with pytest.raises(NotCausal):
        realize(b)


def test_tensor_unit_law_and_ports():
    rng = random.Random(3)
    b = flatten(random_comb(rng, rounds=2))
    assert tensor_behavior(b, trivial_behavior()) is b
    c = flatten(random_comb(rng, rounds=1))
    c = Behavior(
        c.signature.__class__(
            c.signature.parties,
            c.signature.rounds,
            tuple(p.__class__(p.id + "_c", p.party, p.alphabet, p.direction, p.round) for p in c.signature.ports),
        ),
        c.kernel,
    )
    t = tensor_behavior(b, c)
    assert len(t.signature.ports) == len(b.signature.ports) + len(c.signature.ports)
    assert causality_report(t).ok


def test_tensor_marginal_recovers_factor():
    u = one_round_behavior(uniform([BIT]))
    v = one_round_behavior(make_kernel([], [TRIT], [[F(1, 2)], [F(1, 4)], [F(1, 4)]]), party="q")
    v = Behavior(
        v.signature.__class__(v.signature.parties, 1, (v.signature.ports[0].__class__("z", "q", TRIT, OUT, 1),)),
        v.kernel,
    )
    t = tensor_behavior(u, v)
    from composec.stoch import marginalize

    assert marginalize(t.kernel, [0]).matrix == u.kernel.matrix


def test_link_identity_converter_noop():
    rng = random.Random(5)
    inner = flatten(random_comb(rng, rounds=1))
    # wrap each out port with an identity converter node
    outs = inner.signature.outs()
    if not outs:
        return
    p0 = outs[0]
    conv_sig = make_signature(
        [p0.party], 1, [port("win", p0.party, p0.alphabet, IN, 1), port(p0.id + "_out", p0.party, p0.alphabet, OUT, 1)]
    )
    conv = make_behavior(conv_sig, identity([p0.alphabet]))
    out = link(
        conv,
        inner,
        wiring=[("win", p0.id)],
        schedule=[("b", 1), ("a", 1)],
    )
    can_out = canonical(out)
    renamed = canonical(inner)
    # identity wrapping only renames the port
    from composec.comb import rename_ports

    assert observationally_equal(out, rename_ports(inner, {p0.id: p0.id + "_out"}))


def test_link_otp_correctness_z2():
    # one-time pad over Z2: f_A = xor with key, channel copies, f_B = xor with key
    G = Alphabet("g", 2)
    xor = make_kernel([G, G], [G], [[1, 0, 0, 1], [0, 1, 1, 0]])
    key = behavior_from_table(
        make_signature(["a", "b"], 1, [port("ka", "a", G, OUT, 1), port("kb", "b", G, OUT, 1)]),
        [[F(1, 2)], [0], [0], [F(1, 2)]],
    )
    chan = behavior_from_table(
        make_signature(
            ["a", "b", "e"],
            1,
            [port("cin", "a", G, IN, 1), port("cb", "b", G, OUT, 1), port("ce", "e", G, OUT, 1)],
        ),
        [[1, 0], [0, 0], [0, 0], [0, 1]],
    )
    src = tensor_behavior(key, chan)
    fa = behavior_from_table(
        make_signature(
            ["a"], 1, [port("m", "a", G, IN, 1), port("ka_in", "a", G, IN, 1), port("c_out", "a", G, OUT, 1)]
        ),
        xor.matrix,
    )
    fb = behavior_from_table(
        make_signature(
            ["b"], 1, [port("cb_in", "b", G, IN, 1), port("kb_in", "b", G, IN, 1), port("m_out", "b", G, OUT, 1)]
        ),
        xor.matrix,
    )
    step1 = link(fa, src, wiring=[("ka_in", "ka"), ("c_out", "cin")], schedule=[("b", 1), ("a", 1), ("b", 2)])
    step2 = link(fb, step1, wiring=[("kb_in", "kb"), ("cb_in", "cb")], schedule=[("b", 1), ("b", 2), ("b", 3), ("a", 1)])
    # expected: Alice->Bob identity channel; Eve's port carries m + k (uniform)
    # brute-force oracle over (m, k)
    expect = {}
    for m in range(2):
        for k in range(2):
            c = m ^ k
            out = c ^ k
            expect[(m, c, out)] = expect.get((m, c, out), F(0)) + F(1, 2)
    sig = step2.signature
    outs = sig.outs()
    ids = [p.id for p in outs]
    assert set(ids) == {"ce", "m_out"}
    for m in range(2):
        for yv in range(step2.kernel.n_cod):
            from composec.stoch import index_tuple

            y = index_tuple(step2.kernel.cod, yv)
            vals = dict(zip(ids, y))
            want = expect.get((m, vals["ce"], vals["m_out"]), F(0))
            assert step2.kernel.matrix[yv][m] == want


def test_link_alphabet_mismatch():
    a = one_round_behavior(identity([BIT]))
    b = one_round_behavior(identity([TRIT]), party="q")
    with pytest.raises(AlphabetMismatch):
        link(a, b, wiring=[("y0", "x0")], schedule=[("a", 1), ("b", 1)])


def test_link_acausal_schedule_rejected():
    a = one_round_behavior(identity([BIT]))
    b = one_round_behavior(identity([BIT]), party="q")
    with pytest.raises(AcausalSchedule):
        link(a, b, wiring=[("y0", "x0")], schedule=[("b", 1), ("a", 1)])


def test_network_output_causal():
    rng = random.Random(6)
    for _ in range(25):
        inner = flatten(random_comb(rng, rounds=2))
        outs = inner.signature.outs()
        ins = inner.signature.ins()
        if not outs or not ins:
            continue
        # random post-processing node reading one output
        p0 = outs[0]
        conv_sig = make_signature(
            [p0.party],
            1,
            [port("win", p0.party, p0.alphabet, IN, 1), port("res", p0.party, BIT, OUT, 1)],
        )
        conv = make_behavior(conv_sig, random_kernel(rng, (p0.alphabet,), (BIT,)), check=False)
        sched = [("b", r) for r in range(1, 3)]
        sched.insert(p0.round, ("a", 1))
        out = link(conv, inner, wiring=[("win", p0.id)], schedule=sched)
        assert causality_report(out).ok


def test_behavior_distance_basics():
    a = one_round_behavior(uniform([BIT]))
    assert behavior_distance(a, a) == 0
    rng = random.Random(10)
    for _ in range(20):
        f = random_kernel(rng, (BIT,), (TRIT,))
        g = random_kernel(rng, (BIT,), (TRIT,))
        bf, bg = one_round_behavior(f), one_round_behavior(g)
        assert behavior_distance(bf, bg) == channel_distance(f, g)


def test_behavior_distance_adaptive_beats_averaging():
    # 2-round: y1 uniform bit, then y2 = x2 XOR only if y1 = 0 in one model
    sig = make_signature(
        ["p"],
        2,
        [
            port("y1", "p", BIT, OUT, 1),
            port("x2", "p", BIT, IN, 2),
            port("y2", "p", BIT, OUT, 2),
        ],
    )
    # model a: y2 = x2 when y1=0 else y2 = 0; model b: y2 = x2 always
    ta = [[0] * 2 for _ in range(4)]
    tb = [[0] * 2 for _ in range(4)]
    for x2 in range(2):
        for y1 in range(2):
            ya = x2 if y1 == 0 else 0
            ta[y1 * 2 + ya][x2] += F(1, 2)
            tb[y1 * 2 + x2][x2] += F(1, 2)
    ba = behavior_from_table(sig, ta)
    bb = behavior_from_table(sig, tb)
    d = behavior_distance(ba, bb)
    assert d == F(1, 2)
    assert strategy_count(sig) == 4


def test_behavior_distance_equal_iff_zero():
    rng = random.Random(12)
    for _ in range(20):
        b = flatten(random_comb(rng, rounds=2))
        assert behavior_distance(b, b) == 0
        # perturb one entry pair if possible
        sig = b.signature
        if b.kernel.n_cod < 2 or not sig.ins():
            continue
        col = [b.kernel.matrix[i][0] for i in range(b.kernel.n_cod)]
        if col[0] >= F(1, 4):
            col2 = list(col)
            col2[0] -= F(1, 4)
            col2[1] += F(1, 4)
            table = [list(row) for row in b.kernel.matrix]
            for i in range(len(col2)):
                table[i][0] = col2[i]
            b2 = behavior_from_table(sig, table, check=False)
            if causality_report(b2).ok:
                assert behavior_distance(b, b2) > 0


def test_canonical_groups_moments():
    # ports at rounds (1 in), (3 out), (5 in), (6 out) -> canonical 2 rounds
    sig = make_signature(
        ["p"],
        6,
        [
            port("a", "p", BIT, IN, 1),
            port("b", "p", BIT, OUT, 3),
            port("c", "p", BIT, IN, 5),
            port("d", "p", BIT, OUT, 6),
        ],
    )
    table = [[F(1, 4)] * 4 for _ in range(4)]
    b = behavior_from_table(sig, table)
    cb = canonical(b)
    assert cb.signature.rounds == 2
    assert [(p.id, p.round) for p in cb.signature.ports] == [
        ("a", 1),
        ("b", 1),
        ("c", 2),
        ("d", 2),
    ]


def test_canonical_preserves_table_content():
    rng = random.Random(14)
    for _ in range(20):
        b = flatten(random_comb(rng, rounds=3))
        cb = canonical(b)
        assert causality_report(cb).ok
        assert observationally_equal(b, cb)


def test_link_associativity():
    # three chained identity-ish converters: ((a.b).c) == (a.(b.c))
    rng = random.Random(16)
    for _ in range(10):
        k1 = random_kernel(rng, (BIT,), (BIT,))
        k2 = random_kernel(rng, (BIT,), (BIT,))
        k3 = random_kernel(rng, (BIT,), (BIT,))
        s1 = make_signature(["p"], 1, [port("i1", "p", BIT, IN, 1), port("o1", "p", BIT, OUT, 1)])
        s2 = make_signature(["p"], 1, [port("i2", "p", BIT, IN, 1), port("o2", "p", BIT, OUT, 1)])
        s3 = make_signature(["p"], 1, [port("i3", "p", BIT, IN, 1), port("o3", "p", BIT, OUT, 1)])
        b1 = make_behavior(s1, k1)
        b2 = make_behavior(s2, k2)
        b3 = make_behavior(s3, k3)
        left_inner = link(b2, b1, wiring=[("i2", "o1")], schedule=[("b", 1), ("a", 1)])
        left = link(b3, left_inner, wiring=[("i3", "o2")], schedule=[("b", 1), ("b", 2), ("a", 1)])
        right_inner = link(b3, b2, wiring=[("i3", "o2")], schedule=[("b", 1), ("a", 1)])
        right = link(right_inner, b1, wiring=[("i2", "o1")], schedule=[("b", 1), ("a", 1), ("a", 2)])
        assert observationally_equal(left, right)


def test_symbolic_linear_evaluation_matches_numeric():
    rng = random.Random(18)
    for _ in range(10):
        inner = flatten(random_comb(rng, rounds=2))
        outs = inner.signature.outs()
        if not outs:
            continue
        p0 = outs[0]
        conv_sig = make_signature(
            [p0.party],
            1,
            [port("win", p0.party, p0.alphabet, IN, 1), port("res", p0.party, BIT, OUT, 1)],
        )
        kconv = random_kernel(rng, (p0.alphabet,), (BIT,))
        conv = make_behavior(conv_sig, kconv)
        sched = [("inner", r) for r in range(1, 3)]
        sched.insert(p0.round, ("conv", 1))
        wires = [(("conv", "win"), ("inner", p0.id))]
        numeric = Network([("conv", conv), ("inner", inner)], wires, sched).evaluate()
        sig_lin, cols = Network([("conv", conv_sig), ("inner", inner)], wires, sched).linear_evaluate()
        assert sig_lin == numeric.signature
        n_rows = kconv.n_cod
        for j in range(numeric.kernel.n_dom):
            for i in range(numeric.kernel.n_cod):
                forms = cols[j].get(i, {})
                val = sum(
                    coeff * kconv.matrix[var % n_rows][var // n_rows]
                    for var, coeff in forms.items()
                )
                assert val == numeric.kernel.matrix[i][j]


def test_behavior_signature_mismatch():
    a = one_round_behavior(identity([BIT]))
    b = one_round_behavior(identity([TRIT]))
    with pytest.raises(SignatureMismatch):
        behavior_equal(a, b)
    with pytest.raises(SignatureMismatch):
        behavior_distance(a, b)


def test_randomized_strategies_never_beat_deterministic():
    # convexity probe: total variation is linear in the tester's realization
    # weights, so deterministic strategies attain the maximum
    from composec.stoch import all_tuples, tuple_index

    rng = random.Random(22)
    for _ in range(15):
        comb1 = random_comb(rng, rounds=2)
        sig = comb1.signature
        b1 = flatten(comb1)
        kernels2 = []
        for r in range(1, 3):
            dom = (comb1.memories[r - 1],) + tuple(p.alphabet for p in sig.round_ins(r))
            cod = tuple(p.alphabet for p in sig.round_outs(r)) + (comb1.memories[r],)
            kernels2.append(random_kernel(rng, dom, cod))
        b2 = flatten(CombKernels(sig, comb1.memories, tuple(kernels2)))
        det_max = behavior_distance(b1, b2)
        ins, outs = sig.ins(), sig.outs()
        in_alphas = tuple(p.alphabet for p in ins)
        out_alphas = tuple(p.alphabet for p in outs)
        for _s in range(20):
            # random behavioural strategy: a distribution over round inputs
            # for every output prefix
            tables = {}
            for r in range(1, 3):
                x_opts = list(all_tuples(tuple(p.alphabet for p in ins if p.round == r)))
                for prefix in all_tuples(tuple(p.alphabet for p in outs if p.round < r)):
                    raw = [rng.randint(0, 5) for _ in x_opts]
                    if sum(raw) == 0:
                        raw[0] = 1
                    total = sum(raw)
                    tables[(r, prefix)] = {x: Fraction(v, total) for x, v in zip(x_opts, raw)}
            tv = Fraction(0)
            for y in all_tuples(out_alphas):
                i = tuple_index(out_alphas, y)
                for x in all_tuples(in_alphas):
                    weight = Fraction(1)
                    for r in range(1, 3):
                        prefix = tuple(v for v, p in zip(y, outs) if p.round < r)
                        x_r = tuple(v for v, p in zip(x, ins) if p.round == r)
                        weight *= tables[(r, prefix)][x_r]
                    if weight:
                        j = tuple_index(in_alphas, x)
                        tv += weight * abs(b1.kernel.matrix[i][j] - b2.kernel.matrix[i][j])
            assert tv / 2 <= det_max
