import gc
import math
import random
from fractions import Fraction

import pytest

from composec import comb
from composec.comb import (
    IN,
    OUT,
    Behavior,
    CombKernels,
    Network,
    PortSpec,
    behavior_distance,
    behavior_equal,
    canonical,
    causality_report,
    flatten,
    make_behavior,
    make_signature,
    realize,
    tensor_behavior,
)
from composec.errors import (
    AcausalSchedule,
    AlphabetMismatch,
    ColumnNotStochastic,
    CompositeVerificationFailed,
    DimensionMismatch,
    NegativeEntry,
    NotCausal,
    SignatureMismatch,
)
from composec.hopf import build_otp, group_alphabet, group_make, key_expansion_protocol
from composec.nogo import commitment_resource
from composec.stoch import (
    UNIT,
    Alphabet,
    Kernel,
    all_tuples,
    channel_distance,
    identity,
    kernel_from_columns,
    make_kernel,
    tuple_index,
    uniform,
)

BIT = Alphabet("bit", 2)
TRIT = Alphabet("trit", 3)

F = Fraction


def port(pid, party, alphabet, direction, rnd):
    return PortSpec(pid, party, alphabet, direction, rnd)


from tests.helpers import (
    align_to,
    behavior_from_table,
    fraction_evaluate,
    fraction_flatten,
    fraction_linear_evaluate,
    index_tuple,
    memo_free,
    observationally_equal,
    permute_forms,
    permute_to,
    random_comb,
    random_kernel,
    random_network,
    reached_keys,
    rename_ports,
    shuffle_ports,
    strategy_count,
    trivial_behavior,
)


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
    assert report == "outputs through round 1 differ between inputs x2=0 and x2=1"
    with pytest.raises(NotCausal, match=report):
        behavior_from_table(sig, table, check=True)


def test_align_to_refuses_a_round_structure_the_table_breaks():
    # y copies x within one round; the late signature moves y before x
    sig = make_signature(["p"], 1, [port("x", "p", BIT, IN, 1), port("y", "p", BIT, OUT, 1)])
    copy = behavior_from_table(sig, [[1, 0], [0, 1]])
    late = make_signature(["p"], 2, [port("y", "p", BIT, OUT, 1), port("x", "p", BIT, IN, 2)])
    coin = behavior_from_table(late, [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    with pytest.raises(SignatureMismatch, match="round structures are not compatible"):
        align_to(copy, late)
    assert observationally_equal(copy, copy) and observationally_equal(coin, coin)
    assert not observationally_equal(coin, copy)


def test_flatten_always_causal():
    rng = random.Random(4)
    for _ in range(40):
        b = flatten(random_comb(rng, rounds=rng.randint(1, 3)))
        assert causality_report(b) is None


def test_realize_flatten_roundtrip():
    rng = random.Random(8)
    for _ in range(40):
        b = flatten(random_comb(rng, rounds=rng.randint(1, 3)))
        again = flatten(realize(b))
        assert behavior_equal(b, again)


def test_realize_one_round_is_its_own_round_kernel():
    rng = random.Random(9)
    for _ in range(10):
        b = flatten(random_comb(rng, rounds=1))
        assert realize(b).kernels[0].cols is b.kernel.cols


def _entered_columns(comb):
    """Per round, the kernel columns some input sequence reaches with
    positive probability, found by running the comb forward."""
    ins = comb.signature.ins()
    entered = [set() for _ in comb.kernels]
    for x in all_tuples(tuple(p.alphabet for p in ins)):
        mems = {0}
        for r, f in enumerate(comb.kernels, start=1):
            x_r = tuple(v for v, p in zip(x, ins) if p.round == r)
            reached = set()
            for m in mems:
                col = tuple_index(f.dom, (m,) + x_r)
                entered[r - 1].add(col)
                reached.update(index_tuple(f.cod, i)[-1] for i, _p in f.cols[col])
            mems = reached
    return entered


def _reachable_histories(behavior, r):
    """The histories x_1 y_1 ... x_r y_r of positive probability, as the
    round-r truncations of the positive cells of the table."""
    sig = behavior.signature
    ins, outs = sig.ins(), sig.outs()
    seen = set()
    for j, col in enumerate(behavior.kernel.cols):
        x = index_tuple(behavior.kernel.dom, j)
        for i, _v in col:
            y = index_tuple(behavior.kernel.cod, i)
            seen.add(
                tuple((v, p.round) for v, p in zip(x, ins) if p.round <= r)
                + tuple((v, p.round) for v, p in zip(y, outs) if p.round <= r)
            )
    return seen


@pytest.mark.parametrize(
    "behavior,memory_sizes,round_columns",
    [
        # the source is a tensor, whose own comb is its factors'; its
        # memo-free copy gets the transcript realization.  Memory 1 holds
        # the 3 key pairs with ka = kb, not all 9, so round 2 has 3 x 3
        # columns, not 9 x 3
        (memo_free(build_otp(group_make(("cyclic", 3))).source), (1, 3, 1), (1, 9)),
        (commitment_resource(), (1, 2, 1), (2, 2)),
    ],
    ids=["otp_source_z3", "commitment"],
)
def test_realize_memories_index_reachable_histories(behavior, memory_sizes, round_columns):
    comb = realize(behavior)
    assert flatten(comb) == behavior
    for f, entered in zip(comb.kernels, _entered_columns(comb)):
        assert entered == set(range(f.n_dom))
    k = behavior.signature.rounds
    for r in range(1, k):
        assert comb.memories[r].size == len(_reachable_histories(behavior, r))
    assert tuple(m.size for m in comb.memories) == memory_sizes
    assert tuple(f.n_dom for f in comb.kernels) == round_columns


def test_realize_memo_belongs_to_each_behavior():
    b1 = flatten(random_comb(random.Random(12), rounds=2))
    b2 = Behavior(b1.signature, b1.kernel)
    assert b1 == b2 and b1 is not b2
    c1, c2 = realize(b1), realize(b2)
    assert realize(b1) is c1 and realize(b2) is c2
    del b1, c1
    gc.collect()
    assert realize(b2) is c2


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
    assert observationally_equal(tensor_behavior(b, trivial_behavior()), b)
    assert observationally_equal(tensor_behavior(trivial_behavior(), b), b)
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
    assert causality_report(t) is None


def test_tensor_comb_is_its_factors_combs():
    rng = random.Random(29)
    for _ in range(60):
        a = flatten(random_comb(rng, parties=("p", "q"), rounds=rng.randint(1, 3), prefix="a"))
        b = flatten(random_comb(rng, parties=("q", "r"), rounds=rng.randint(1, 3), prefix="b"))
        t = tensor_behavior(a, b)
        comb = realize(t)
        assert comb.kernels == realize(a).kernels + realize(b).kernels
        assert flatten(comb) == t


def test_a_tensor_table_is_the_kronecker_product_built_on_first_read(monkeypatch):
    """A network over a tensor runs its factors' combs and builds no table;
    the first read of `.kernel`, or an equality, hash or repr, builds
    `stoch.tensor` of the factors' tables once, and the tensor then equals
    a behaviour given that table."""
    from composec.stoch import tensor

    built = []
    monkeypatch.setattr(comb, "kernel_tensor", lambda f, g: built.append(1) or tensor(f, g))
    rng = random.Random(29)
    for k in range(60):
        a = flatten(random_comb(rng, parties=("p", "q"), rounds=rng.randint(1, 3), prefix="a"))
        b = flatten(random_comb(rng, parties=("q", "r"), rounds=rng.randint(1, 3), prefix="b"))
        table = tensor(a.kernel, b.kernel)
        t = tensor_behavior(a, b)
        view = Network([("t", t)], [], [("t", r) for r in range(1, t.signature.rounds + 1)]).evaluate(t.signature)
        assert not built
        eager = Behavior(t.signature, table)
        read = [lambda: t.kernel, lambda: t == eager, lambda: hash(t), lambda: repr(t)][k % 4]
        read()
        assert built == [1]
        assert t.kernel == table and view == t == eager
        assert hash(t) == hash(eager) and repr(t) == repr(eager)
        assert built == [1]
        built.clear()


@pytest.mark.parametrize(
    "n,expansion",
    [(n, False) for n in range(2, 7)] + [(4, True)],
    ids=[f"otp_z{n}" for n in range(2, 7)] + ["key_expansion_z4"],
)
def test_networks_over_a_tensor_equal_those_over_its_memo_free_copy(n, expansion):
    g = group_make(("cyclic", n))
    if expansion:
        expander = random_kernel(random.Random(n), (Alphabet("h", 2),), (group_alphabet(g),))
        protocol, source = key_expansion_protocol(g, expander)
    else:
        inst = build_otp(g)
        protocol, source = inst.protocol, inst.source
    copy = memo_free(source)
    assert realize(copy).memories != realize(source).memories
    for dishonest in [(), ("eve",)]:
        run = protocol.network(source, dishonest).evaluate()
        assert run == protocol.network(copy, dishonest).evaluate()


def test_network_plans_only_the_indexes_its_states_reach(monkeypatch):
    # each schedule item plans the moves of exactly the (memory, wired
    # inputs) indexes that some state reaches, over every external column;
    # the sweep drops each item's moves once it has run, so the test keeps
    # them as they are made
    made = []
    init = comb._Moves.__init__
    monkeypatch.setattr(comb._Moves, "__init__", lambda moves, *args: made.append(moves) or init(moves, *args))
    rng = random.Random(64)
    nets = [random_network(rng, symbolic=k % 2 == 1) for k in range(20)]
    # a key on half of Z16 reaches 8 of the 16 key values at Alice and Bob
    inst = build_otp(group_make(("cyclic", 16)), [F(1, 8)] * 8 + [F(0)] * 8)
    nets.append(inst.protocol.network(inst.source, ("eve",)))
    planned = possible = 0
    for net in nets:
        keys = reached_keys(net)
        made.clear()
        net.evaluate() if net.symbolic is None else net.linear_evaluate()
        assert [set(moves) for moves in made] == keys
        assert not hasattr(net, "_plan")
        for (lab, r), found in zip(net.schedule, keys):
            n_mem = net._combs[lab].memories[r - 1].size if lab in net._combs else 1
            wired = [p.alphabet.size for p in net.signatures[lab].round_ins(r) if (lab, p.id) in net._wired]
            planned += len(found)
            possible += n_mem * math.prod(wired)
    assert planned < possible


def _comb(rng, party, rounds, mems):
    """A random comb of `party`: round r has the ports rounds[r - 1], as
    (id, alphabet, direction), and memory r has mems[r - 1] values."""
    ports = [port(pid, party, a, d, r) for r, items in enumerate(rounds, start=1) for pid, a, d in items]
    sig = make_signature([party], len(rounds), ports)
    memories = (UNIT, *(Alphabet(f"{party}{r}", n) for r, n in enumerate(mems, start=1)), UNIT)
    kernels = []
    for r in range(1, len(rounds) + 1):
        dom = (memories[r - 1], *(p.alphabet for p in sig.round_ins(r)))
        kernels.append(random_kernel(rng, dom, (*(p.alphabet for p in sig.round_outs(r)), memories[r])))
    return CombKernels(sig, memories, tuple(kernels))


def _hand_built_networks(rng):
    """(what, network) pairs, each with a shape the sweep must get right."""
    # a reads x1, emits y1, then reads x2: external inputs at two items with
    # an output between; its memory has 3 values, then 2; b consumes a's
    # wire at the very next item
    a = _comb(
        rng,
        "a",
        [[("x1", BIT, IN), ("y1", TRIT, OUT)], [("x2", TRIT, IN), ("w", BIT, OUT)], [("y3", BIT, OUT)]],
        [3, 2],
    )
    b = _comb(rng, "b", [[("v", BIT, IN), ("z", TRIT, OUT)]], [])
    yield "two external reads", Network(
        [("a", a), ("b", b)], [(("a", "w"), ("b", "v"))], [("a", 1), ("a", 2), ("b", 1), ("a", 3)]
    )
    k = _comb(rng, "k", [[("ka", TRIT, OUT), ("kb", TRIT, OUT)]], [])
    c = _comb(rng, "c", [[("u", TRIT, IN), ("o", BIT, OUT)]], [])
    d = _comb(rng, "d", [[("v", TRIT, IN), ("q", BIT, OUT)]], [])
    wires = [(("k", "ka"), ("c", "u")), (("k", "kb"), ("d", "v"))]
    yield "no external input", Network([("k", k), ("c", c), ("d", d)], wires, [("k", 1), ("c", 1), ("d", 1)])
    # s has two rounds, the first wired both ways to a
    a = _comb(rng, "a", [[("x", BIT, IN), ("w", TRIT, OUT)], [("u", BIT, IN), ("y", BIT, OUT)]], [2])
    s = _comb(rng, "s", [[("si", TRIT, IN), ("so", BIT, OUT)], [("sx", BIT, IN), ("sy", TRIT, OUT)]], [3])
    wires = [(("a", "w"), ("s", "si")), (("s", "so"), ("a", "u"))]
    schedule = [("a", 1), ("s", 1), ("a", 2), ("s", 2)]
    yield "two-round node", Network([("a", a), ("s", s)], wires, schedule)
    yield "two-round symbolic node", Network([("a", a), ("s", s.signature)], wires, schedule)


def test_the_sweep_equals_the_fraction_oracle_on_hand_built_networks():
    rng = random.Random(65)
    for _ in range(5):
        for what, net in _hand_built_networks(rng):
            if net.symbolic is None:
                assert net.evaluate().kernel.cols == fraction_evaluate(net), what
            else:
                assert net.linear_evaluate() == fraction_linear_evaluate(net), what


def test_a_final_state_that_holds_a_wire_digit_is_refused(monkeypatch):
    # with no digit read, the consumers never clear their wires
    _what, net = list(_hand_built_networks(random.Random(65)))[1]
    assert net.evaluate().kernel.cols == fraction_evaluate(net)
    init = comb._Moves.__init__
    monkeypatch.setattr(comb._Moves, "__init__", lambda moves, reads, *rest: init(moves, [], *rest))
    with pytest.raises(CompositeVerificationFailed, match="holds memory or wire digits"):
        net.evaluate()


def test_network_schedule_covers_each_node_round_once_in_order():
    u = make_behavior(make_signature(["p"], 1, [port("u", "p", BIT, OUT, 1)]), uniform([BIT]))
    v = make_behavior(make_signature(["q"], 1, [port("v", "q", BIT, OUT, 1)]), uniform([BIT]))
    w = make_behavior(make_signature(["q"], 1, [port("w", "q", BIT, OUT, 1)]), uniform([BIT]))
    with pytest.raises(AcausalSchedule, match="does not cover each node round exactly once"):
        Network([("a", u), ("b", v)], [], [("a", 1)])
    with pytest.raises(AcausalSchedule, match="does not cover each node round exactly once"):
        Network([("a", u), ("b", v)], [], [("a", 1), ("b", 1), ("b", 1)])
    with pytest.raises(AcausalSchedule, match="violates round order of node 'a'"):
        Network([("a", tensor_behavior(u, v)), ("b", w)], [], [("a", 2), ("a", 1), ("b", 1)])


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
    out = Network([("a", conv), ("b", inner)], [(("a", "win"), ("b", p0.id))], [("b", 1), ("a", 1)]).evaluate()
    can_out = canonical(out)
    renamed = canonical(inner)
    # identity wrapping only renames the port
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
    step1 = Network(
        [("a", fa), ("b", src)], [(("a", "ka_in"), ("b", "ka")), (("a", "c_out"), ("b", "cin"))], [("b", 1), ("a", 1), ("b", 2)]
    ).evaluate()
    step2 = Network(
        [("a", fb), ("b", step1)],
        [(("a", "kb_in"), ("b", "kb")), (("a", "cb_in"), ("b", "cb"))],
        [("b", 1), ("b", 2), ("b", 3), ("a", 1)],
    ).evaluate()
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
            y = index_tuple(step2.kernel.cod, yv)
            vals = dict(zip(ids, y))
            want = expect.get((m, vals["ce"], vals["m_out"]), F(0))
            assert step2.kernel.matrix[yv][m] == want


def test_link_alphabet_mismatch():
    a = one_round_behavior(identity([BIT]))
    b = one_round_behavior(identity([TRIT]), party="q")
    with pytest.raises(AlphabetMismatch):
        Network([("a", a), ("b", b)], [(("a", "y0"), ("b", "x0"))], [("a", 1), ("b", 1)]).evaluate()


def test_link_acausal_schedule_rejected():
    a = one_round_behavior(identity([BIT]))
    b = one_round_behavior(identity([BIT]), party="q")
    with pytest.raises(AcausalSchedule):
        Network([("a", a), ("b", b)], [(("a", "y0"), ("b", "x0"))], [("b", 1), ("a", 1)]).evaluate()


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
        out = Network([("a", conv), ("b", inner)], [(("a", "win"), ("b", p0.id))], sched).evaluate()
        assert causality_report(out) is None


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
            if causality_report(b2) is None:
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
        assert causality_report(cb) is None
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
        w12, w23 = [(("a", "i2"), ("b", "o1"))], [(("a", "i3"), ("b", "o2"))]
        left_inner = Network([("a", b2), ("b", b1)], w12, [("b", 1), ("a", 1)]).evaluate()
        left = Network([("a", b3), ("b", left_inner)], w23, [("b", 1), ("b", 2), ("a", 1)]).evaluate()
        right_inner = Network([("a", b3), ("b", b2)], w23, [("b", 1), ("a", 1)]).evaluate()
        right = Network([("a", right_inner), ("b", b1)], w12, [("b", 1), ("a", 1), ("a", 2)]).evaluate()
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


# ---------------------------------------------------------------------------
# integer weights against the Fraction-weight oracle


def _simulations():
    """(what, wire count, result, reference) for seeded random networks,
    symbolic ones and flattened combs, some of two parties whose signatures
    do not list their ports round by round."""
    rng = random.Random(61)
    for _ in range(40):
        net = random_network(rng)
        yield "evaluate", len(net.wires), net.evaluate().kernel.cols, fraction_evaluate(net)
        net = random_network(rng, symbolic=True)
        yield "linear_evaluate", len(net.wires), net.linear_evaluate(), fraction_linear_evaluate(net)
        c = random_comb(rng, rounds=3)
        yield "flatten", 0, flatten(c).kernel.cols, fraction_flatten(c)
        c = shuffle_ports(rng, random_comb(rng, parties=("p", "q"), rounds=rng.randint(2, 3)))
        rounds = [p.round for p in c.signature.ports]
        what = "flatten" if rounds == sorted(rounds) else "flatten, ports out of round order"
        yield what, 0, flatten(c).kernel.cols, fraction_flatten(c)


def _entries(what, got):
    """Every value in a table's columns or in linear_evaluate's forms."""
    if what == "linear_evaluate":
        return [v for col in got[1] for forms in col.values() for v in forms.values()]
    return [v for col in got for _i, v in col]


def test_integer_weights_equal_fraction_weights():
    wires = {}
    for what, n_wires, got, want in _simulations():
        assert got == want, what
        assert all(type(v) is F for v in _entries(what, got)), what
        wires[what] = wires.get(what, 0) + n_wires
    assert wires["evaluate"] >= 15 and wires["linear_evaluate"] >= 15 and "flatten" in wires
    assert "flatten, ports out of round order" in wires


def _shuffled(rng, sig):
    """`sig` with its ports in a random order."""
    ports = list(sig.ports)
    rng.shuffle(ports)
    return make_signature(sig.parties, sig.rounds, ports)


def test_a_network_evaluates_straight_into_the_signature_it_is_given():
    # the oracle evaluates in the network's own port order, with Fraction
    # weights, and permutes the table afterwards
    rng = random.Random(63)
    moved = 0
    for _ in range(30):
        net = random_network(rng)
        sig = net.result_signature()
        alphas = [tuple(p.alphabet for p in ports) for ports in (sig.ins(), sig.outs())]
        b = Behavior(sig, kernel_from_columns(*alphas, fraction_evaluate(net)))
        for into in (net.canonical_signature(), _shuffled(rng, sig)):
            assert net.evaluate(into) == permute_to(b, into)
            moved += into.ports != sig.ports
        net = random_network(rng, symbolic=True)
        sig = net.result_signature()
        for into in (net.canonical_signature(), _shuffled(rng, sig)):
            assert net.linear_evaluate(into) == permute_forms(*fraction_linear_evaluate(net), into)
            moved += into.ports != sig.ports
    assert moved >= 90


def test_a_network_refuses_a_signature_with_other_ports():
    copy = one_round_behavior(identity([BIT]))
    x0, y0 = copy.signature.ports
    networks = [Network([("n", node)], [], [("n", 1)]) for node in (copy, copy.signature)]
    assert networks[0].evaluate(make_signature(["p"], 1, [y0, x0])).kernel == copy.kernel
    cases = [
        ([x0], "y0"),
        ([x0, y0, port("z", "p", BIT, OUT, 1)], "z"),
        ([port("x0", "q", BIT, IN, 1), y0], "x0"),
        ([port("x0", "p", TRIT, IN, 1), y0], "x0"),
        ([port("x0", "p", BIT, OUT, 1), y0], "x0"),
    ]
    for ports, pid in cases:
        into = make_signature(sorted({q.party for q in ports}), 1, ports)
        for net in networks:
            with pytest.raises(SignatureMismatch, match=rf"ports \['{pid}'\] differ"):
                net.evaluate(into) if net.symbolic is None else net.linear_evaluate(into)


# column 1 of a one-round node's kernel, unvalidated, and how the network's
# table is refused: the parent's Fraction check, reached from integer weights
UNSTOCHASTIC_COLUMNS = [
    (((1, F(1, 2)),), ColumnNotStochastic, (1, F(1, 2))),
    (((0, F(1, 4)), (1, F(1, 2))), ColumnNotStochastic, (1, F(3, 4))),
    (((0, F(1, 2)), (1, F(1))), ColumnNotStochastic, (1, F(3, 2))),
    (((0, F(3, 2)), (1, F(-1, 2))), NegativeEntry, "negative entry -1/2 in column 1"),
    (((0, F(0)), (1, F(1))), DimensionMismatch, "column 1: explicit zero at row 0"),
]


@pytest.mark.parametrize("column, error, detail", UNSTOCHASTIC_COLUMNS, ids=range(len(UNSTOCHASTIC_COLUMNS)))
def test_a_network_refuses_a_column_that_is_not_stochastic(column, error, detail):
    sig = make_signature(["p"], 1, [port("x", "p", BIT, IN, 1), port("y", "p", BIT, OUT, 1)])
    good = CombKernels(sig, (UNIT, UNIT), (Kernel((UNIT, BIT), (BIT, UNIT), (((0, F(1)),), ((1, F(1)),))),))
    assert Network([("n", good)], [], [("n", 1)]).evaluate().kernel == identity([BIT])
    bad = CombKernels(sig, (UNIT, UNIT), (Kernel((UNIT, BIT), (BIT, UNIT), (((0, F(1)),), column)),))
    with pytest.raises(error) as info:
        Network([("n", bad)], [], [("n", 1)]).evaluate()
    if error is ColumnNotStochastic:
        assert (info.value.column, info.value.total) == detail and type(info.value.total) is F
    else:
        assert str(info.value) == detail


def test_network_runs_round_kernels_as_given():
    rng = random.Random(62)
    for _ in range(10):
        net = random_network(rng)
        as_kernels = Network([(lab, realize(net.numeric[lab])) for lab in net.labels], net.wires, net.schedule)
        assert as_kernels.evaluate() == net.evaluate()


def _prime_kernel(primes, shift):
    """Kernel on an alphabet of len(primes) + 1 letters whose column c puts
    1/primes[(c + shift + i) % len(primes)] on letter i and the rest on the
    last."""
    a = Alphabet("p", len(primes) + 1)
    cols = []
    for c in range(a.size):
        col = [F(1, primes[(c + shift + i) % len(primes)]) for i in range(len(primes))]
        cols.append(col + [1 - sum(col)])
    return make_kernel((a,), (a,), [[cols[j][i] for j in range(a.size)] for i in range(a.size)])


def test_integer_weights_with_many_prime_denominators():
    # four chained nodes whose kernels each have 25 distinct prime
    # denominators: the shared denominator grows to about 2^625
    primes = [p for p in range(31, 200) if all(p % d for d in range(2, p))][:25]
    k = _prime_kernel(primes, 0)
    a = k.dom[0]
    assert len({v.denominator for col in k.cols for _i, v in col} & set(primes)) == 25
    nodes, wires = [], []
    for t in range(4):
        sig = make_signature(["p"], 1, [port(f"i{t}", "p", a, IN, 1), port(f"o{t}", "p", a, OUT, 1)])
        nodes.append((f"n{t}", make_behavior(sig, _prime_kernel(primes, 7 * t))))
        if t:
            wires.append(((f"n{t - 1}", f"o{t - 1}"), (f"n{t}", f"i{t}")))
    net = Network(nodes, wires, [(lab, 1) for lab, _b in nodes])
    assert net.evaluate().kernel.cols == fraction_evaluate(net)
