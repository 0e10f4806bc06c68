"""Finite groups as Hopf algebras over finite stochastic maps, and the
one-time pad built from them.

A finite group yields multiplication, unit, copy, delete and inverse kernels
satisfying the Hopf axioms, with the uniform distribution as integral; those
identities are exactly the rewrite steps in the one-time pad's security
argument, so the axiom suite and the OTP checks live together.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from .attacks import (
    SecurityReport,
    Simulator,
    SimulatorCert,
    compose_certs,
    derive_simulator_shape,
    dummy_attack,
    ideal_view,
    search_simulator,
)
from .comb import (
    IN,
    OUT,
    PortSpec,
    behavior_equal,
    make_behavior,
    make_signature,
    observationally_equal,
    tensor_behavior,
)
from .errors import DimensionMismatch, InterfaceMismatch, NoIdentity, NotAssociative, NotLatinSquare
from .record import Record
from .resources import RES, Converter, Protocol, Resource, apply_protocol
from .scalars import ONE, Scalar, as_scalar
from .stoch import (
    UNIT,
    Alphabet,
    Kernel,
    channel_distance,
    compose,
    compose_tensor,
    copy_map,
    delete,
    identity,
    kernel_equal,
    kernel_from_columns,
    make_kernel,
    permute_axes,
    point,
    ports_size,
    tensor,
    uniform,
)


class FiniteGroup(Record):
    name: str
    order: int
    cayley: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]


def _check_latin(table: Sequence[Sequence[int]]) -> int:
    n = len(table)
    want = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotLatinSquare(f"row {i} has length {len(row)}")
        if set(row) != want:
            raise NotLatinSquare(f"row {i} is not a permutation")
    for j in range(n):
        if {table[i][j] for i in range(n)} != want:
            raise NotLatinSquare(f"column {j} is not a permutation")
    return n


def _find_identity(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise NoIdentity("no two-sided identity element")


def _right_inverses(table, e: int) -> tuple[int, ...]:
    n = len(table)
    inv = []
    for x in range(n):
        inv.append(next(y for y in range(n) if table[x][y] == e))
    return tuple(inv)


def loop_make(table: Sequence[Sequence[int]], name: str = "loop") -> FiniteGroup:
    """Latin square with two-sided identity; associativity NOT required.
    Used to exhibit which Hopf axioms genuinely need a group."""
    n = _check_latin(table)
    e = _find_identity(table)
    inv = _right_inverses(table, e)
    return FiniteGroup(name, n, tuple(tuple(row) for row in table), e, inv)


def group_make(source, name: Optional[str] = None) -> FiniteGroup:
    """Build and validate a finite group.

    `source` is either `("cyclic", n)`, `"symmetric3"`, or an explicit n x n
    Cayley table of element indices.
    """
    if isinstance(source, tuple) and len(source) == 2 and source[0] == "cyclic":
        n = int(source[1])
        if n < 1:
            raise NotLatinSquare("cyclic group order must be >= 1")
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return group_make(table, name or f"z{n}")
    if source == "symmetric3":
        perms = sorted(itertools.permutations(range(3)))
        table = [
            [perms.index(tuple(p[q[x]] for x in range(3))) for q in perms]
            for p in perms
        ]
        return group_make(table, name or "s3")
    table = [list(row) for row in source]
    g = loop_make(table, name or "group")
    n = g.order
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    for x in range(n):
        if table[g.inverse[x]][x] != g.identity:
            raise NotAssociative(f"right inverse of {x} is not a left inverse")
    return g


def group_alphabet(g: FiniteGroup) -> Alphabet:
    return Alphabet(g.name, g.order)


def group_kernels(g: FiniteGroup) -> dict[str, Kernel]:
    """The Hopf-algebra generators of the group in FinStoch."""
    a = group_alphabet(g)
    n = g.order
    # deterministic columns, validated like any table
    mult = [((g.mul(i, j), ONE),) for i in range(n) for j in range(n)]
    inv = [((g.inverse[i], ONE),) for i in range(n)]
    return {
        "alphabet": a,
        "mult": kernel_from_columns([a, a], [a], mult),
        "inv": kernel_from_columns([a], [a], inv),
        "unit": point([a], [g.identity]),
        "copy": copy_map([a]),
        "delete": delete([a]),
        "uniform": uniform([a]),
    }


class HopfReport(Record):
    axioms: tuple[tuple[str, bool], ...]

    @property
    def all_pass(self) -> bool:
        return all(ok for _n, ok in self.axioms)

    def failed(self) -> tuple[str, ...]:
        return tuple(n for n, ok in self.axioms if not ok)


def hopf_axiom_suite(g: FiniteGroup) -> HopfReport:
    """Exact kernel equalities: associativity, unit, coassociativity, counit,
    bialgebra, antipode, and absorption of the uniform integral."""
    k = group_kernels(g)
    a = k["alphabet"]
    idk = identity([a])
    mult, inv, unit, cpy, dele, unif = (
        k["mult"], k["inv"], k["unit"], k["copy"], k["delete"], k["uniform"],
    )
    results = []
    results.append(
        ("H1 associativity", kernel_equal(compose(mult, tensor(mult, idk)), compose(mult, tensor(idk, mult))))
    )
    results.append(
        (
            "H2 unit",
            kernel_equal(compose(mult, tensor(unit, idk)), idk)
            and kernel_equal(compose(mult, tensor(idk, unit)), idk),
        )
    )
    results.append(
        ("H3 coassociativity", kernel_equal(compose_tensor(cpy, idk, cpy), compose_tensor(idk, cpy, cpy)))
    )
    results.append(
        (
            "H4 counit",
            kernel_equal(compose_tensor(dele, idk, cpy), idk)
            and kernel_equal(compose_tensor(idk, dele, cpy), idk),
        )
    )
    # the middle wire swap is applied as an axis permutation, and mult (x)
    # mult (n^4 columns) is built only at the n^2 columns the copies reach
    shuffled = permute_axes(tensor(cpy, cpy), [0, 1], [0, 2, 1, 3])
    rhs = compose_tensor(mult, mult, shuffled)
    results.append(("H5 bialgebra", kernel_equal(compose(cpy, mult), rhs)))
    results.append(
        ("H6 antipode", kernel_equal(compose(mult, compose_tensor(idk, inv, cpy)), compose(unit, dele)))
    )
    results.append(
        ("H7 integral", kernel_equal(compose(mult, tensor(unif, idk)), compose(unif, dele)))
    )
    return HopfReport(tuple(results))


# ---------------------------------------------------------------------------
# one-time pad


ALICE, BOB, EVE = "alice", "bob", "eve"
PARTIES = (ALICE, BOB, EVE)


class OtpInstance(Record):
    group: FiniteGroup
    alphabet: Alphabet
    key: Resource
    auth_channel: Resource
    source: Resource
    protocol: Protocol
    target: Resource
    sigma: Simulator


def key_resource(g: FiniteGroup, weights: Optional[Sequence[Scalar]] = None) -> Resource:
    """A key drawn from `weights` (uniform by default), copied to Alice and
    Bob."""
    a = group_alphabet(g)
    n = g.order
    if weights is None:
        weights = [Fraction(1, n)] * n
    sig = make_signature(
        PARTIES, 1, [PortSpec("ka", ALICE, a, OUT, 1), PortSpec("kb", BOB, a, OUT, 1)]
    )
    return Resource(make_behavior(sig, _shared_key(a, weights)), name=f"key_{g.name}")


def _shared_key(a: Alphabet, weights: Sequence[Scalar]) -> Kernel:
    """The state drawing k from `weights` and emitting (k, k), validated."""
    n = a.size
    if len(weights) > n:
        raise DimensionMismatch(f"{len(weights)} key weights for alphabet {a.name} of size {n}")
    col = tuple((i * n + i, w) for i, w in enumerate(map(as_scalar, weights)) if w)
    return kernel_from_columns((), (a, a), (col,))


def auth_channel(g: FiniteGroup) -> Resource:
    """Authenticated but insecure channel: Alice's input is copied to Bob and
    to Eve.  Tampering is out of scope."""
    a = group_alphabet(g)
    n = g.order
    sig = make_signature(
        PARTIES,
        1,
        [
            PortSpec("cin", ALICE, a, IN, 1),
            PortSpec("cb", BOB, a, OUT, 1),
            PortSpec("ce", EVE, a, OUT, 1),
        ],
    )
    kernel = kernel_from_columns((a,), (a, a), [((x * n + x, ONE),) for x in range(n)])
    return Resource(make_behavior(sig, kernel), name=f"auth_{g.name}")


def secure_channel(g: FiniteGroup) -> Resource:
    """Target: Bob receives Alice's message; Eve's interface is a single
    trivial port (she learns nothing, not even usable timing here)."""
    a = group_alphabet(g)
    n = g.order
    sig = make_signature(
        PARTIES,
        1,
        [
            PortSpec("msg", ALICE, a, IN, 1),
            PortSpec("eve_flag", EVE, UNIT, OUT, 1),
            PortSpec("m_out", BOB, a, OUT, 1),
        ],
    )
    kernel = kernel_from_columns((a,), (UNIT, a), [((x, ONE),) for x in range(n)])
    return Resource(make_behavior(sig, kernel), name=f"secure_{g.name}")


def build_otp(g: FiniteGroup, key_weights: Optional[Sequence[Scalar]] = None) -> OtpInstance:
    """The one-time pad protocol: Alice multiplies her message by the shared
    key into the channel; Bob multiplies by the key's inverse; honest Eve
    discards her copy of the ciphertext."""
    ks = group_kernels(g)
    a = ks["alphabet"]
    key = key_resource(g, key_weights)
    chan = auth_channel(g)
    source = Resource(
        tensor_behavior(
            key.behavior,
            chan.behavior,
            schedule=[("a", 1), ("b", 1)],
        ),
        name=f"key*auth_{g.name}",
    )
    alice_sig = make_signature(
        (ALICE,),
        1,
        [
            PortSpec("msg", ALICE, a, IN, 1),
            PortSpec("ka_c", ALICE, a, IN, 1),
            PortSpec("c_out", ALICE, a, OUT, 1),
        ],
    )
    f_alice = Converter(ALICE, make_behavior(alice_sig, ks["mult"]), (("ka_c", "ka"), ("c_out", "cin")))
    bob_kernel = compose(ks["mult"], tensor(identity([a]), ks["inv"]))
    bob_sig = make_signature(
        (BOB,),
        1,
        [
            PortSpec("cb_c", BOB, a, IN, 1),
            PortSpec("kb_c", BOB, a, IN, 1),
            PortSpec("m_out", BOB, a, OUT, 1),
        ],
    )
    f_bob = Converter(BOB, make_behavior(bob_sig, bob_kernel), (("cb_c", "cb"), ("kb_c", "kb")))
    eve_sig = make_signature(
        (EVE,),
        1,
        [PortSpec("ce_c", EVE, a, IN, 1), PortSpec("eve_flag", EVE, UNIT, OUT, 1)],
    )
    discard = make_kernel([a], [UNIT], [[1] * g.order])
    f_eve = Converter(EVE, make_behavior(eve_sig, discard), (("ce_c", "ce"),))
    target = secure_channel(g)
    protocol = Protocol(
        source,
        target,
        (f_alice, f_bob, f_eve),
        ((RES, 1), (ALICE, 1), (RES, 2), (EVE, 1), (BOB, 1)),
        name=f"otp_{g.name}",
    )
    sigma = uniform_simulator(protocol, source, target)
    return OtpInstance(g, a, key, chan, source, protocol, target, sigma)


def uniform_simulator(protocol: Protocol, source: Resource, target: Resource) -> Simulator:
    """Eve's canonical simulator: read the trivial flag, emit a fresh uniform
    ciphertext."""
    real = dummy_attack(protocol, source, (EVE,))
    shape = derive_simulator_shape(real.signature, target, (EVE,))
    ins = tuple(p.alphabet for p in shape.signature.ins())
    outs = tuple(p.alphabet for p in shape.signature.outs())
    n_out = ports_size(outs)
    table = [[Fraction(1, n_out)] * ports_size(ins) for _ in range(n_out)]
    comb = make_behavior(shape.signature, make_kernel(ins, outs, table))
    return Simulator(((shape.label, comb),), shape.wires)


def otp_correctness(inst: OtpInstance) -> bool:
    """Honest execution equals the secure channel exactly: Alice's message
    comes out at Bob's end with probability one."""
    result = apply_protocol(inst.protocol, inst.source)
    return observationally_equal(result.behavior, inst.target.behavior)


def otp_security(inst: OtpInstance) -> SecurityReport:
    """Check the supplied simulator `inst.sigma` (its ideal view equals the
    real one exactly) AND search for one by LP; both verdicts must agree,
    either way round.  A `secure` verdict therefore means the supplied
    simulator's view is the real view, so every attack linked onto the two
    gives the same table.  Returns the search report (it carries the
    certificate)."""
    real = dummy_attack(inst.protocol, inst.source, (EVE,))
    supplied = behavior_equal(ideal_view(inst.target, inst.sigma, real.signature), real)
    searched = search_simulator(inst.protocol, inst.source, inst.target, (EVE,))
    if supplied and not searched.secure:
        raise InterfaceMismatch("supplied simulator verified but LP search found none")
    if searched.secure and not supplied:
        raise InterfaceMismatch("LP search found a simulator but the supplied one fails")
    return searched


# ---------------------------------------------------------------------------
# stream cipher: key expansion composed with the one-time pad


class StreamCipherReport(Record):
    expansion_epsilon: Scalar
    composite: SecurityReport


def short_key_resource(h: Alphabet, name: str = "short_key") -> Resource:
    sig = make_signature(
        PARTIES, 1, [PortSpec("ka_s", ALICE, h, OUT, 1), PortSpec("kb_s", BOB, h, OUT, 1)]
    )
    return Resource(make_behavior(sig, _shared_key(h, [Fraction(1, h.size)] * h.size)), name=name)


def key_expansion_protocol(g: FiniteGroup, expander: Kernel) -> tuple[Protocol, Resource]:
    """Alice and Bob push their shared short key through the expander; the
    channel is untouched.  Returns the protocol and its source."""
    a = group_alphabet(g)
    if len(expander.dom) != 1 or expander.cod != (a,):
        raise InterfaceMismatch(f"expander must map one short-key port to the one-time-pad key alphabet of {g.name}")
    h = expander.dom[0]
    short = short_key_resource(h)
    chan = auth_channel(g)
    source = Resource(
        tensor_behavior(short.behavior, chan.behavior, schedule=[("a", 1), ("b", 1)]),
        name=f"short*auth_{g.name}",
    )
    target = Resource(
        tensor_behavior(
            key_resource(g).behavior, chan.behavior, schedule=[("a", 1), ("b", 1)]
        ),
        name=f"key*auth_{g.name}",
    )
    alice_sig = make_signature(
        (ALICE,), 1, [PortSpec("ka_s_c", ALICE, h, IN, 1), PortSpec("ka", ALICE, a, OUT, 1)]
    )
    bob_sig = make_signature(
        (BOB,), 1, [PortSpec("kb_s_c", BOB, h, IN, 1), PortSpec("kb", BOB, a, OUT, 1)]
    )
    conv_a = Converter(ALICE, make_behavior(alice_sig, expander), (("ka_s_c", "ka_s"),))
    conv_b = Converter(BOB, make_behavior(bob_sig, expander), (("kb_s_c", "kb_s"),))
    protocol = Protocol(
        source,
        target,
        (conv_a, conv_b),
        ((RES, 1), (ALICE, 1), (BOB, 1), (RES, 2)),
        name=f"expand_{g.name}",
    )
    return protocol, source


def stream_cipher_demo(g: FiniteGroup, expander: Kernel) -> StreamCipherReport:
    """Compose an imperfect key expansion with the perfect one-time pad and
    verify the composite's advantage is bounded by the expansion's.

    The expansion step is budgeted by the total variation distance between
    the expanded key and a perfect one (the channel part is untouched, so
    that distance bounds the whole view); the composite's true advantage is
    then re-measured and checked against the budget by compose_certs.
    Refuses an expander that is not one short-key port to the group's key
    alphabet, and a group whose one-time pad is insecure.
    """
    a = group_alphabet(g)
    expansion, source1 = key_expansion_protocol(g, expander)
    otp = build_otp(g)
    cert_q = otp_security(otp).cert
    if cert_q is None:
        raise InterfaceMismatch(f"the one-time pad over {g.name} is insecure: no pad certificate to compose")
    eps1 = channel_distance(compose(expander, uniform(expander.dom)), uniform([a]))
    real1 = dummy_attack(expansion, source1, (EVE,))
    shape = derive_simulator_shape(real1.signature, expansion.target, (EVE,))
    sigma_p = make_behavior(shape.signature, identity([a]))
    sim_p = Simulator(((shape.label, sigma_p),), shape.wires)
    cert_p = SimulatorCert((EVE,), sim_p, eps1)
    _cert, report = compose_certs(
        cert_p,
        cert_q,
        "sequential",
        (otp.protocol, expansion),
        source1,
        otp.target,
    )
    return StreamCipherReport(eps1, report)
