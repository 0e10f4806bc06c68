from collections import Counter
from fractions import Fraction

import pytest

from composec import comb, hopf, stoch
from composec.errors import ComposecError, InterfaceMismatch, NoIdentity, NotAssociative, NotLatinSquare
from composec.hopf import (
    auth_channel,
    build_otp,
    group_alphabet,
    group_kernels,
    group_make,
    hopf_axiom_suite,
    key_resource,
    loop_make,
    otp_correctness,
    otp_security,
    secure_channel,
    short_key_resource,
    stream_cipher_demo,
)
from composec.stoch import (
    Alphabet,
    compose,
    compose_after_tensor,
    copy_map,
    identity,
    kernel_equal,
    make_kernel,
    permute_axes,
    point,
    tensor,
    uniform,
)
from tests.helpers import eager_hopf_axiom_suite

F = Fraction

# order-5 loop: Latin square with identity 0 but (1*1)*2 != 1*(1*2)
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_cyclic_group():
    g = group_make(("cyclic", 2))
    assert g.order == 2 and g.mul(1, 1) == 0
    assert g.identity == 0 and g.inverse == (0, 1)


def test_symmetric3():
    g = group_make("symmetric3")
    assert g.order == 6
    # nonabelian: some pair does not commute
    assert any(g.mul(a, b) != g.mul(b, a) for a in range(6) for b in range(6))


def test_group_table_validation():
    with pytest.raises(NotLatinSquare):
        group_make([[0, 1], [0, 1]])
    with pytest.raises(NoIdentity):
        group_make([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    with pytest.raises(NotAssociative):
        group_make(LOOP5)


def test_loop5_is_a_loop():
    q = loop_make(LOOP5, "q5")
    assert q.identity == 0
    assert all(q.mul(x, q.inverse[x]) == 0 for x in range(5))


def test_group_kernels_cayley_column():
    g = group_make(("cyclic", 2))
    k = group_kernels(g)
    a = k["alphabet"]
    res = compose(k["mult"], tensor(point([a], [1]), point([a], [1])))
    assert kernel_equal(res, point([a], [0]))


def test_antipode_on_z3():
    g = group_make(("cyclic", 3))
    k = group_kernels(g)
    a = k["alphabet"]
    from composec.stoch import identity as idk

    lhs = compose(k["mult"], compose(tensor(idk([a]), k["inv"]), k["copy"]))
    rhs = compose(k["unit"], k["delete"])
    assert kernel_equal(lhs, rhs)


def test_hopf_axioms_pass_for_groups():
    for n in range(2, 9):
        assert hopf_axiom_suite(group_make(("cyclic", n))).all_pass
    assert hopf_axiom_suite(group_make("symmetric3")).all_pass


@pytest.mark.parametrize("n", [24, 32])
def test_hopf_axioms_pass_for_large_cyclic_groups(n):
    rep = hopf_axiom_suite(group_make(("cyclic", n)))
    assert len(rep.axioms) == 7 and rep.all_pass


def test_hopf_axioms_fail_for_loop():
    rep = hopf_axiom_suite(loop_make(LOOP5, "q5"))
    assert not rep.all_pass
    assert "H1 associativity" in rep.failed()
    # the integral axiom only needs the Latin square property
    assert "H7 integral" not in rep.failed()


def _suite_groups():
    """Z1..Z12, S3 and the order-5 loop."""
    return [group_make(("cyclic", n)) for n in range(1, 13)] + [group_make("symmetric3"), loop_make(LOOP5, "q5")]


def test_hopf_axiom_suite_equals_the_eager_suite():
    for g in _suite_groups():
        assert hopf_axiom_suite(g) == eager_hopf_axiom_suite(g), g.name
    # the loop's failing associativity, the same both ways
    assert eager_hopf_axiom_suite(loop_make(LOOP5, "q5")).failed() == ("H1 associativity",)


def test_compose_after_tensor_equals_compose_of_tensor_on_group_kernels():
    for g in _suite_groups():
        k = group_kernels(g)
        kernels = [k[n] for n in ("mult", "inv", "unit", "copy", "delete", "uniform")] + [identity([k["alphabet"]])]
        pairs = 0
        for f1 in kernels:
            for f2 in kernels:
                for h in kernels:
                    if h.dom == f1.cod + f2.cod:
                        assert compose_after_tensor(h, f1, f2) == compose(h, tensor(f1, f2)), g.name
                        pairs += 1
        assert pairs == 69


def test_the_copy_of_a_pair_is_the_pair_of_copies_with_the_middle_swapped():
    for n in range(1, 9):
        a = group_alphabet(group_make(("cyclic", n)))
        cpy = copy_map([a])
        assert copy_map([a, a]) == permute_axes(tensor(cpy, cpy), [0, 1], [0, 2, 1, 3])


def test_the_suite_builds_tensor_columns_only_where_compose_tensor_reaches(monkeypatch):
    # H1, H2 and H7 compose through their tensor products, and H5 copies
    # the pair at once: on Z6 no tensor column is built outside
    # compose_tensor, where eager H1 alone would build 2 * 6**3
    built = {"inside": 0, "outside": 0}
    lazy_calls = []
    column, lazy = stoch._tensor_column, hopf.compose_tensor

    def counted_column(*args):
        built["inside" if lazy_calls else "outside"] += 1
        return column(*args)

    def counted_lazy(*args):
        lazy_calls.append(args)
        try:
            return lazy(*args)
        finally:
            lazy_calls.pop()

    monkeypatch.setattr(stoch, "_tensor_column", counted_column)
    monkeypatch.setattr(hopf, "compose_tensor", counted_lazy)
    assert hopf_axiom_suite(group_make(("cyclic", 6))).all_pass
    assert built["outside"] == 0 and built["inside"] > 0


def test_uniform_over_z4():
    g = group_make(("cyclic", 4))
    k = group_kernels(g)
    assert k["uniform"].matrix == tuple((F(1, 4),) for _ in range(4))


def test_build_otp_interfaces():
    for n in (2, 3, 5):
        inst = build_otp(group_make(("cyclic", n)))
        assert inst.source.signature.rounds == 2
        eve_ports = [p for p in inst.target.signature.ports if p.party == "eve"]
        assert len(eve_ports) == 1 and eve_ports[0].alphabet.size == 1


def test_otp_real_eve_view_uniform():
    # brute force: for every message the ciphertext marginal is uniform
    from composec.attacks import dummy_attack

    g = group_make(("cyclic", 2))
    inst = build_otp(g)
    view = dummy_attack(inst.protocol, inst.source, ("eve",))
    sig = view.signature
    outs = sig.outs()
    ce_pos = [i for i, p in enumerate(outs) if p.id == "ce"][0]
    from composec.stoch import marginalize

    marg = marginalize(view.kernel, [ce_pos])
    for col in range(marg.n_dom):
        assert [marg.matrix[i][col] for i in range(2)] == [F(1, 2), F(1, 2)]


def test_otp_correctness_groups():
    for spec in [("cyclic", 2), ("cyclic", 6)]:
        assert otp_correctness(build_otp(group_make(spec)))
    assert otp_correctness(build_otp(group_make("symmetric3")))


def test_otp_corrupted_bob_breaks_correctness():
    # Bob multiplying by the key (not its inverse) is wrong on Z3
    g = group_make(("cyclic", 3))
    inst = build_otp(g)
    from composec.comb import make_behavior
    from composec.resources import Converter, Protocol

    k = group_kernels(g)
    a = k["alphabet"]
    (bob_sig,) = [c.comb.signature for c in inst.protocol.converters if c.party == "bob"]
    bad_bob = Converter("bob", make_behavior(bob_sig, k["mult"]), (("cb_c", "cb"), ("kb_c", "kb")))
    convs = tuple(
        bad_bob if c.party == "bob" else c for c in inst.protocol.converters
    )
    bad = Protocol(inst.source, inst.target, convs, inst.protocol.schedule)
    assert not otp_correctness(
        type(inst)(g, a, inst.key, inst.auth_channel, inst.source, bad, inst.target, inst.sigma)
    )


def test_otp_security_z2_and_s3():
    inst = build_otp(group_make(("cyclic", 2)))
    rep = otp_security(inst)
    assert rep.secure and rep.epsilon == 0
    # the LP's simulator is forced to the uniform distribution
    sim_behavior = rep.cert.simulator.nodes[0][1]
    assert all(w == F(1, 2) for row in sim_behavior.kernel.matrix for w in row)
    rep3 = otp_security(build_otp(group_make("symmetric3")))
    assert rep3.secure


def test_otp_security_z24_is_secure():
    # 24 x 13,825 dense cells, of which 25 rows survive presolve
    rep = otp_security(build_otp(group_make(("cyclic", 24))))
    assert rep.verdict == "secure" and rep.epsilon == 0



def test_otp_security_compares_the_supplied_views_without_a_distance(monkeypatch):
    # the supplied simulator is checked by exact equality of the views, so
    # an insecure key costs no distinguisher advantage
    from composec import attacks

    def no_distance(*_args):
        raise AssertionError("otp_security computed a distinguisher advantage")

    monkeypatch.setattr(attacks, "behavior_distance", no_distance)
    rep = otp_security(build_otp(group_make(("cyclic", 4)), [F(1, 2), F(1, 2), 0, 0]))
    assert rep.verdict == "insecure" and rep.farkas is not None


def test_otp_security_refuses_a_search_that_misses_the_supplied_simulator(monkeypatch):
    from composec import hopf
    from composec.attacks import SecurityReport
    from composec.errors import InterfaceMismatch

    monkeypatch.setattr(hopf, "search_simulator", lambda *_args: SecurityReport("insecure"))
    with pytest.raises(InterfaceMismatch, match="supplied simulator verified but LP search found none"):
        otp_security(build_otp(group_make(("cyclic", 2))))


def _counted(monkeypatch, calls, owner, name, key=None):
    """Count the calls of `owner.name` in `calls[key or name]`."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key or name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _with_sigma(inst, node):
    """`inst` with the supplied simulator's one node replaced by `node`."""
    from composec.attacks import Simulator

    ((label, _comb),) = inst.sigma.nodes
    sigma = Simulator(((label, node),), inst.sigma.wires)
    return hopf.OtpInstance(*[getattr(inst, f) for f in hopf.OtpInstance._fields[:-1]], sigma)


def test_secure_otp_z12_evaluates_three_networks_and_builds_no_source_table(monkeypatch):
    """The real view, the honest run and the searched simulator's view; the
    supplied simulator is the searched one on the same network, and no
    network reads the source's Kronecker table."""
    from composec.cli import parse_spec, run

    calls = Counter()
    _counted(monkeypatch, calls, comb.Network, "evaluate")
    _counted(monkeypatch, calls, stoch, "tensor")
    _counted(monkeypatch, calls, comb, "kernel_tensor", "tensor")
    outcome = run(parse_spec("group g cyclic 12\ncheck otp g expect secure\n"), no_meta=True)
    assert outcome.exit_code == 0 and outcome.report["checks"][0]["verdict"] == "secure"
    assert calls == {"evaluate": 3}


def test_otp_security_refuses_a_supplied_simulator_with_a_moved_entry():
    from composec.comb import Behavior

    inst = build_otp(group_make(("cyclic", 12)))
    ((_label, node),) = inst.sigma.nodes
    col = node.kernel.cols[0]
    moved = ((0, col[0][1] + col[1][1]),) + col[2:]  # ciphertext 1's weight on 0
    kernel = stoch.kernel_from_columns(node.kernel.dom, node.kernel.cod, [moved])
    with pytest.raises(InterfaceMismatch, match="LP search found a simulator but the supplied one fails"):
        otp_security(_with_sigma(inst, Behavior(node.signature, kernel)))


@pytest.mark.parametrize("how", ["two rounds", "search schedule"])
def test_otp_security_evaluates_a_supplied_simulator_on_another_schedule(monkeypatch, how):
    """The same table on another schedule is another network, so the
    search's re-check does not stand for it: with the simulator's output
    in a second round, or with the search's schedule read differently."""
    from composec.comb import IN, Behavior, Signature
    from composec.distinguisher import CombShape

    inst = build_otp(group_make(("cyclic", 6)))
    if how == "two rounds":
        ((_label, node),) = inst.sigma.nodes
        sig = node.signature
        ports = tuple(p.in_round(1 if p.direction == IN else 2) for p in sig.ports)
        inst = _with_sigma(inst, Behavior(Signature(sig.parties, 2, ports), node.kernel))
    else:
        derive = hopf.derive_simulator_shape

        def reversed_schedule(*args):
            shape = derive(*args)
            return CombShape(shape.label, shape.signature, shape.wires, shape.schedule[::-1])

        monkeypatch.setattr(hopf, "derive_simulator_shape", reversed_schedule)
    calls = Counter()
    _counted(monkeypatch, calls, comb.Network, "evaluate")
    assert otp_security(inst).verdict == "secure"
    assert calls == {"evaluate": 2}  # the search's re-check and the supplied view


def test_otp_zero_entropy_key_insecure():
    from composec.attacks import min_epsilon, search_simulator

    g = group_make(("cyclic", 2))
    inst = build_otp(g, key_weights=[1, 0])
    rep = search_simulator(inst.protocol, inst.source, inst.target, ("eve",))
    assert rep.verdict == "insecure"
    assert rep.farkas is not None
    eps = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
    assert eps.epsilon == F(1, 2)


def test_otp_biased_key_epsilon():
    from composec.attacks import min_epsilon

    g = group_make(("cyclic", 2))
    for p in [F(0), F(1, 4), F(1, 3), F(1, 2)]:
        inst = build_otp(g, key_weights=[1 - p, p])
        rep = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
        assert rep.epsilon == abs(p - F(1, 2)), p


def test_stream_cipher_identity_expander():
    g = group_make(("cyclic", 2))
    a = group_alphabet(g)
    from composec.stoch import identity as idk

    rep = stream_cipher_demo(g, idk([a]))
    assert rep.expansion_epsilon == 0
    assert rep.composite.epsilon == 0


def test_stream_cipher_toy_expander():
    g = group_make(("cyclic", 4))
    h = Alphabet("z2", 2)
    a = group_alphabet(g)
    table = [[0] * 2 for _ in range(4)]
    table[0][0] = 1  # 0 -> 0
    table[2][1] = 1  # 1 -> 2
    expander = make_kernel([h], [a], table)
    rep = stream_cipher_demo(g, expander)
    assert rep.expansion_epsilon == F(1, 2)
    assert rep.composite.epsilon <= F(1, 2)


def test_stream_cipher_bijection_expander():
    g = group_make(("cyclic", 2))
    h = Alphabet("h2", 2)
    a = group_alphabet(g)
    expander = make_kernel([h], [a], [[0, 1], [1, 0]])
    rep = stream_cipher_demo(g, expander)
    assert rep.expansion_epsilon == 0
    assert rep.composite.epsilon == 0


@pytest.mark.parametrize(
    "group, expander, message",
    [
        (
            lambda: group_make(("cyclic", 2)),
            lambda a: uniform([a]),
            "^expander must map one short-key port to the one-time-pad key alphabet of z2$",
        ),
        (lambda: loop_make(LOOP5, "q5"), lambda a: identity([a]), "^the one-time pad over q5 is insecure: "),
    ],
    ids=["expander-without-a-domain-port", "pad-over-a-loop"],
)
def test_stream_cipher_refuses_what_it_cannot_compose(group, expander, message):
    g = group()
    with pytest.raises(InterfaceMismatch, match=message):
        stream_cipher_demo(g, expander(group_alphabet(g)))


def test_group_kernels_equal_dense_table_builds():
    groups = [group_make(("cyclic", n)) for n in range(2, 13)]
    groups += [group_make("symmetric3"), loop_make(LOOP5, "q5")]
    for g in groups:
        a, n = group_alphabet(g), g.order
        mult = [[0] * (n * n) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                mult[g.mul(i, j)][i * n + j] = 1
        inv = [[0] * n for _ in range(n)]
        for i in range(n):
            inv[g.inverse[i]][i] = 1
        ks = group_kernels(g)
        assert ks["mult"] == make_kernel([a, a], [a], mult), g.name
        assert ks["inv"] == make_kernel([a], [a], inv), g.name
        assert {type(v) for name in ("mult", "inv") for col in ks[name].cols for _i, v in col} == {Fraction}


def test_otp_resources_equal_dense_table_builds():
    for g in [group_make(("cyclic", n)) for n in range(2, 9)] + [group_make("symmetric3")]:
        a, n = group_alphabet(g), g.order
        weights = [F(k + 1, n * (n + 1) // 2) for k in range(n)]
        key = [[0] for _ in range(n * n)]
        for i, w in enumerate(weights):
            key[i * n + i][0] = w
        auth = [[0] * n for _ in range(n * n)]
        secure = [[0] * n for _ in range(n)]
        for x in range(n):
            auth[x * n + x][x] = 1
            secure[x][x] = 1
        uniform_key = [[F(1, n) if i % (n + 1) == 0 else 0] for i in range(n * n)]
        assert key_resource(g, weights).kernel == make_kernel([], [a, a], key), g.name
        assert key_resource(g).kernel == make_kernel([], [a, a], uniform_key), g.name
        assert short_key_resource(a).kernel == make_kernel([], [a, a], uniform_key), g.name
        assert auth_channel(g).kernel == make_kernel([a], [a, a], auth), g.name
        assert secure_channel(g).kernel.cols == make_kernel([a], [a], secure).cols, g.name


@pytest.mark.parametrize(
    "weights",
    [
        [F(-1, 2), F(1, 2), 1],
        [F(1, 2), F(1, 4), F(1, 8)],
        [F(1, 4)] * 4,
        [F(1, 2), F(1, 2), 0, 0],
    ],
    ids=["negative", "sum_not_one", "longer_than_group", "zeros_past_the_group"],
)
def test_key_resource_rejects_bad_weights(weights):
    g = group_make(("cyclic", 3))
    with pytest.raises(ComposecError):
        key_resource(g, weights)
    with pytest.raises(ComposecError):
        build_otp(g, weights)


def test_key_weights_are_exact():
    g = group_make(("cyclic", 2))
    key = key_resource(g, [0.25, "3/4"]).kernel
    assert key.cols == (((0, F(1, 4)), (3, F(3, 4))),)
