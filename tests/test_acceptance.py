"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line (bypassing capture) so the run log shows the scorecard.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from composec import lp as lpmod
from composec.attacks import (
    check_secure_with,
    compose_certs,
    min_epsilon,
    search_simulator,
)
from composec.comb import (
    IN,
    OUT,
    Network,
    PortSpec,
    behavior_equal,
    causality_report,
    flatten,
    make_behavior,
    make_signature,
    realize,
)
from composec.stoch import channel_distance
from composec.hopf import (
    build_otp,
    group_alphabet,
    group_make,
    hopf_axiom_suite,
    key_expansion_protocol,
    loop_make,
    otp_correctness,
    otp_security,
)
from composec.lp import Infeasible
from composec.nogo import (
    broadcast_contradiction_oracle,
    broadcast_resource,
    commitment_resource,
    constant_output_resource,
    min_split_advantage,
    ot_resource,
    product_uniform_resource,
    split_check,
    tripartite_split_check,
)
from composec.resources import lift_deterministic
from composec.stoch import Alphabet, compose, identity, kernel_equal, make_kernel, tensor

F = Fraction

LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

GROUPS = [group_make(("cyclic", n)) for n in range(2, 9)] + [group_make("symmetric3")]


def announce(scorecard, criterion: str, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: PASS  ({detail})"
    scorecard.append(line)
    print(line)


def test_criterion_01_hopf_axioms(scorecard):
    t0 = time.monotonic()
    for g in GROUPS:
        rep = hopf_axiom_suite(g)
        assert rep.all_pass, (g.name, rep.failed())
    loop_rep = hopf_axiom_suite(loop_make(LOOP5, "q5"))
    assert "H1 associativity" in loop_rep.failed()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    announce(scorecard, "1 hopf-axioms", f"Z2..Z8 + S3 all pass, loop fails H1, {elapsed:.2f}s")


def test_criterion_02_otp_security(scorecard):
    t0 = time.monotonic()
    for g in GROUPS:
        inst = build_otp(g)
        supplied = check_secure_with(inst.protocol, inst.source, inst.target, ("eve",), inst.sigma)
        assert supplied.secure and supplied.epsilon == 0, g.name
        searched = search_simulator(inst.protocol, inst.source, inst.target, ("eve",))
        assert searched.secure and searched.epsilon == 0, g.name
        if g.order == 2 and g.name == "z2":
            table = searched.cert.simulator.nodes[0][1].kernel.matrix
            assert all(v == F(1, 2) for row in table for v in row)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    announce(scorecard, "2 otp-security", f"both checks exact for 8 groups, Z2 simulator uniform, {elapsed:.2f}s")


def test_criterion_03_otp_correctness(scorecard):
    instances = [build_otp(g) for g in GROUPS]
    t0 = time.monotonic()
    for inst in instances:
        assert otp_correctness(inst), inst.group.name
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    announce(scorecard, "3 otp-correctness", f"identity channel exact for 8 groups, {elapsed:.2f}s")


def test_criterion_04_degraded_keys(scorecard):
    t0 = time.monotonic()
    g = group_make(("cyclic", 2))
    zero = build_otp(g, key_weights=[1, 0])
    rep = search_simulator(zero.protocol, zero.source, zero.target, ("eve",))
    assert rep.verdict == "insecure" and rep.farkas is not None
    assert lpmod.verify(Infeasible(rep.farkas), rep.lp)
    eps0 = min_epsilon(zero.protocol, zero.source, zero.target, ("eve",))
    assert eps0.epsilon == F(1, 2)
    for p in [F(0), F(1, 4), F(1, 3), F(1, 2)]:
        inst = build_otp(g, key_weights=[1 - p, p])
        rep_p = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
        assert rep_p.epsilon == abs(p - F(1, 2)), p
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    announce(scorecard, "4 degraded-keys", f"Farkas verified, eps = |p - 1/2| exact on 4 biases, {elapsed:.2f}s")


def _random_three_party(rng, suffix=""):
    alphas = [Alphabet(f"v{i}{suffix}", rng.choice([2, 2, 3])) for i in range(3)]
    sig = make_signature(
        ["alice", "bob", "eve"],
        1,
        [
            PortSpec("pa" + suffix, "alice", alphas[0], OUT, 1),
            PortSpec("pb" + suffix, "bob", alphas[1], OUT, 1),
            PortSpec("pe" + suffix, "eve", alphas[2], OUT, 1),
        ],
    )
    from tests.helpers import random_kernel

    return make_behavior(sig, random_kernel(rng, (), tuple(alphas)))


def _bijection_protocol(rng, src, stage):
    from composec.resources import Converter, Protocol

    converters = []
    for party in ("alice", "bob", "eve"):
        port = [p for p in src.signature.ports if p.party == party][0]
        perm = list(range(port.alphabet.size))
        rng.shuffle(perm)
        table = [[0] * port.alphabet.size for _ in range(port.alphabet.size)]
        for x, y in enumerate(perm):
            table[y][x] = 1
        csig = make_signature(
            [party],
            1,
            [
                PortSpec(f"{port.id}_i{stage}", party, port.alphabet, IN, 1),
                PortSpec(f"{port.id}_o{stage}", party, port.alphabet, OUT, 1),
            ],
        )
        comb = make_behavior(csig, make_kernel([port.alphabet], [port.alphabet], table))
        converters.append(Converter(party, comb, ((f"{port.id}_i{stage}", port.id),)))
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


def test_criterion_05_composition_suite(scorecard):
    from composec.comb import tensor_behavior

    rng = random.Random(1005)
    composed = 0
    t0 = time.monotonic()
    for trial in range(35):
        src = _random_three_party(rng)
        p1 = _bijection_protocol(rng, src, 0)
        p2 = _bijection_protocol(rng, p1.target, 1)
        c1 = search_simulator(p1, src, p1.target, ("eve",)).cert
        c2 = search_simulator(p2, p1.target, p2.target, ("eve",)).cert
        _cert, rep = compose_certs(c1, c2, "sequential", (p2, p1), src, p2.target)
        assert rep.verdict == "secure"
        composed += 1
        if trial < 35:
            other = _random_three_party(rng, suffix="q")
            q1 = _bijection_protocol(rng, other, 2)
            c3 = search_simulator(q1, other, q1.target, ("eve",)).cert

            both_src = tensor_behavior(src, other)
            both_tgt = tensor_behavior(p1.target, q1.target)
            _c, rep_par = compose_certs(c1, c3, "parallel", (q1, p1), both_src, both_tgt)
            assert rep_par.verdict == "secure"
            composed += 1
    # key expansion (bijective) composed with the pad, across groups
    for n in (2, 3, 4, 5):
        g = group_make(("cyclic", n))
        a = group_alphabet(g)
        for _ in range(8):
            perm = list(range(n))
            rng.shuffle(perm)
            h = Alphabet(f"h{n}", n)
            table = [[0] * n for _ in range(n)]
            for x, y in enumerate(perm):
                table[y][x] = 1
            expander = make_kernel([h], [a], table)
            expansion, source1 = key_expansion_protocol(g, expander)
            otp = build_otp(g)
            cert_p = search_simulator(expansion, source1, expansion.target, ("eve",)).cert
            cert_q = otp_security(otp).cert
            _c, rep = compose_certs(
                cert_p, cert_q, "sequential", (otp.protocol, expansion), source1, otp.target
            )
            assert rep.verdict == "secure"
            composed += 1
    assert composed >= 100
    elapsed = time.monotonic() - t0
    announce(scorecard, "5 composition", f"{composed} composite certificates re-verified exactly, {elapsed:.1f}s")


def test_criterion_06_dummy_completeness(scorecard):
    rng = random.Random(1006)
    inst = build_otp(group_make(("cyclic", 2)))
    from tests.helpers import attack_transfers, random_kernel

    transfers = attack_transfers(inst, 50, lambda c: random_kernel(rng, (c,), (Alphabet("leak", rng.choice([2, 3])),)))
    assert transfers == [True] * 50
    announce(scorecard, "6 dummy-completeness", "50 random attacks transfer through the simulator exactly")


def test_criterion_07_lifting(scorecard):
    inst = build_otp(group_make(("cyclic", 3)))
    lifted = lift_deterministic(inst.protocol)
    assert lifted is inst.protocol
    rep = check_secure_with(lifted, inst.source, inst.target, ("eve",), inst.sigma)
    assert rep.secure and rep.epsilon == 0
    announce(scorecard, "7 lifting", "OTP converters deterministic; simulator verifies unchanged")


def test_criterion_08_commitment_nogo(scorecard):
    t0 = time.monotonic()
    verdict = split_check(commitment_resource())
    assert not verdict.feasible
    assert lpmod.verify(Infeasible(verdict.cert), verdict.lp)
    adv = min_split_advantage(commitment_resource())
    assert adv >= F(1, 2) and adv == F(1, 2)
    ot_verdict = split_check(ot_resource())
    assert not ot_verdict.feasible
    assert lpmod.verify(Infeasible(ot_verdict.cert), ot_verdict.lp)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    announce(scorecard, "8 commitment-nogo", f"commitment and OT infeasible with verified Farkas, advantage 1/2, {elapsed:.2f}s")


def test_criterion_09_broadcast_nogo(scorecard):
    verdict = tripartite_split_check(broadcast_resource())
    assert not verdict.feasible
    assert lpmod.verify(Infeasible(verdict.cert), verdict.lp)
    oracle = broadcast_contradiction_oracle(broadcast_resource())
    assert oracle.contradiction
    assert oracle.charlie_forced == (F(0), F(1))
    assert oracle.alice_forced == (F(1), F(0))
    assert oracle.required_agreement == 1
    for factory in [broadcast_resource, constant_output_resource, product_uniform_resource]:
        r = factory()
        lp_infeasible = not tripartite_split_check(r).feasible
        assert lp_infeasible == broadcast_contradiction_oracle(r).contradiction, factory.__name__
    announce(scorecard, "9 broadcast-nogo", "LP infeasible with verified Farkas; oracle agrees on all shipped resources")


def test_criterion_10_framework_laws(scorecard):
    from tests.helpers import random_comb, random_kernel

    rng = random.Random(1010)
    alphas = [Alphabet("l2", 2), Alphabet("l3", 3)]
    t0 = time.monotonic()

    def rnd_alpha():
        return rng.choice(alphas)

    for _ in range(1000):  # interchange
        a, b, c, d, e, f_ = (rnd_alpha() for _ in range(6))
        f1 = random_kernel(rng, (a,), (b,))
        g1 = random_kernel(rng, (b,), (c,))
        f2 = random_kernel(rng, (d,), (e,))
        g2 = random_kernel(rng, (e,), (f_,))
        assert kernel_equal(
            compose(tensor(g1, g2), tensor(f1, f2)), tensor(compose(g1, f1), compose(g2, f2))
        )
    for _ in range(1000):  # associativity and unitality
        a, b, c, d = (rnd_alpha() for _ in range(4))
        f1 = random_kernel(rng, (a,), (b,))
        g1 = random_kernel(rng, (b,), (c,))
        h1 = random_kernel(rng, (c,), (d,))
        assert kernel_equal(compose(h1, compose(g1, f1)), compose(compose(h1, g1), f1))
        assert kernel_equal(compose(f1, identity([a])), f1)
    for _ in range(1000):  # pseudometric
        a, b = rnd_alpha(), rnd_alpha()
        f1 = random_kernel(rng, (a,), (b,))
        g1 = random_kernel(rng, (a,), (b,))
        h1 = random_kernel(rng, (a,), (b,))
        assert channel_distance(f1, f1) == 0
        assert channel_distance(f1, g1) == channel_distance(g1, f1)
        assert channel_distance(f1, h1) <= channel_distance(f1, g1) + channel_distance(g1, h1)
    for _ in range(1000):  # flatten / realize round trip
        b1 = flatten(random_comb(rng, rounds=rng.randint(1, 3)))
        assert behavior_equal(b1, flatten(realize(b1)))
    causal_checked = 0
    while causal_checked < 1000:  # causality preservation under linking
        inner = flatten(random_comb(rng, rounds=2))
        outs = inner.signature.outs()
        if not outs:
            continue
        p0 = outs[0]
        conv_sig = make_signature(
            [p0.party],
            1,
            [PortSpec("win", p0.party, p0.alphabet, IN, 1), PortSpec("res0", p0.party, alphas[0], OUT, 1)],
        )
        conv = make_behavior(conv_sig, random_kernel(rng, (p0.alphabet,), (alphas[0],)))
        sched = [("b", 1), ("b", 2)]
        sched.insert(p0.round, ("a", 1))
        out = Network([("a", conv), ("b", inner)], [(("a", "win"), ("b", p0.id))], sched).evaluate()
        assert causality_report(out) is None
        causal_checked += 1
    elapsed = time.monotonic() - t0
    announce(scorecard, "10 framework-laws", f"5 law suites x 1000 randomized cases, exact, {elapsed:.1f}s")


def test_criterion_11_cli_corpus(scorecard):
    from composec.cli import parse_spec, run

    from tests.helpers import format_ast

    specs = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))
    assert len(specs) >= 6
    t0 = time.monotonic()
    renders = []
    for _ in range(2):
        batch = {}
        for path in specs:
            ast = parse_spec(path.read_text())
            assert format_ast(parse_spec(format_ast(ast))) == format_ast(ast)
            result = run(ast, no_meta=True)
            assert result.exit_code == 0, (path.name, result.report)
            batch[path.name] = json.dumps(result.report, indent=2, sort_keys=True, default=str)
        renders.append(batch)
    assert renders[0] == renders[1]
    elapsed = time.monotonic() - t0
    announce(scorecard, "11 cli-corpus", f"{len(specs)} spec files, byte-identical reports across runs, {elapsed:.1f}s")
