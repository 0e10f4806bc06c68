"""Attack models, the dummy adversary, simulator search, and certificates.

Security of a protocol against a dishonest subset J is checked against the
initial (dummy) attack only: the J parties' converters are removed, exposing
their raw resource ports.  A simulator is a process wrapped around the ideal
resource's J interface that reproduces that view exactly; searching for one
is a linear feasibility problem because the attacked ideal execution is
linear in the simulator's table.  `derive_simulator_shape` says which ideal
rounds fire when and which real ports the simulator plays, and
`distinguisher.ShapeBuilder` opens its rounds.  Simulator search and the
minimum ε solve on that shape through `distinguisher.solve_comb`:
infeasibility comes back as a re-verified exact Farkas certificate, and a
simulator is substituted back and must reach the program's value exactly.
A search's report keeps the program it solved (`SecurityReport.lp`), whatever
the verdict, so its size and its certificate are read from one record.
A certificate's residual is always the distinguisher advantage between the
real and the simulated view (`simulator_distance`), so `compose_certs` adds
like with like.  Nodes are linked onto a view here only: an attack
(`link_attack`) or the J parties' converters.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from . import lp as lpmod
from .comb import (
    IN,
    OUT,
    Behavior,
    Network,
    PortSpec,
    Signature,
    Wire,
    behavior_distance,
    canonical,
    make_behavior,
    make_signature,
    merge_asap,
    moment_order,
    observationally_equal,
    schedule_to_match,
)
from .distinguisher import CombShape, ShapeBuilder, solve_comb
from .errors import (
    ColumnNotStochastic,
    CompositeVerificationFailed,
    DimensionMismatch,
    InterfaceMismatch,
    NegativeEntry,
    ShapeMismatch,
    WiringMismatch,
)
from .lp import FarkasCert
from .record import Record
from .resources import RES, Protocol, apply_protocol, par_compose, seq_compose
from .scalars import ZERO, Scalar
from .stoch import (
    Kernel,
    compose as k_compose,
    copy_map,
    identity as k_identity,
    kernel_equal,
    make_kernel,
    tensor as k_tensor,
    validate_kernel,
)


# ---------------------------------------------------------------------------
# attack model specifications


class Minimal(Record):
    pass


class Maximal(Record):
    pass


class PerParty(Record):
    models: tuple[Union[Minimal, Maximal], ...]


class Colluding(Record):
    parties: frozenset[str]

    def __init__(self, parties: frozenset[str]) -> None:
        if not parties:
            raise ValueError("a colluding set must be nonempty")
        super().__init__(parties)


AttackModelSpec = Union[Minimal, Maximal, PerParty, Colluding]


class Attack(Record):
    """A process linked onto the dummy-exposed interface."""

    j_parties: tuple[str, ...]
    comb: Behavior
    wiring: tuple[tuple[str, str], ...]  # (attack port id, exposed view port id)


class Simulator(Record):
    """Ideal-side wrapper: nodes wired onto the ideal resource ("res") and
    each other, exposing the real dishonest interface."""

    nodes: tuple[tuple[str, Behavior], ...]
    wires: tuple[Wire, ...]


class SimulatorCert(Record):
    j_parties: tuple[str, ...]
    simulator: Simulator
    residual: Scalar  # distinguisher advantage between the real and simulated views


class SecurityReport(Record):
    verdict: str  # "secure" | "insecure" | "epsilon"
    epsilon: Optional[Scalar] = None
    cert: Optional[SimulatorCert] = None
    farkas: Optional[FarkasCert] = None
    # the program a search solved, on every verdict; None when no program
    # was solved (a supplied or composed simulator checked directly)
    lp: Optional[lpmod.LinearProgram] = None

    @property
    def secure(self) -> bool:
        return self.verdict == "secure"


# ---------------------------------------------------------------------------
# dummy adversary and attacked executions


def dummy_attack(p: Protocol, r: Behavior, j_parties: Sequence[str]) -> Behavior:
    """Real-world view under the initial attack: honest converters linked,
    every J-party resource port left exposed.  Returned in canonical form.

    The view of the protocol's own source (`r is p.source`) is memoised on
    `p` by dishonest set; everything is immutable, so sharing is safe."""
    j = set(j_parties)
    unknown = j - set(r.signature.parties)
    if unknown:
        raise WiringMismatch(f"dishonest parties {sorted(unknown)} not in the resource")
    if r.signature != p.source.signature:
        raise WiringMismatch("resource does not match the protocol's source interface")
    key = tuple(sorted(j))
    if r is p.source and key in p._views:
        return p._views[key]
    honest = [c for c in p.converters if c.party not in j]
    nodes = [(RES, r)] + [(c.party, c.comb) for c in honest]
    wires = [((c.party, cp), (RES, rp)) for c in honest for cp, rp in c.wiring]
    schedule = [item for item in p.schedule if item[0] == RES or item[0] not in j]
    view = canonical(Network(nodes, wires, schedule).evaluate())
    if r is p.source:
        p._views[key] = view
    return view


def apply_attack(p: Protocol, r: Behavior, a: Attack) -> Behavior:
    """Generic attacked execution: the attack comb linked onto the dummy view."""
    return link_attack(dummy_attack(p, r, a.j_parties), a)


def link_attack(view: Behavior, a: Attack) -> Behavior:
    """The attack comb linked onto `view`, a behaviour with the dummy view's
    J interface (the real view, or a simulator-wrapped ideal one)."""
    wires = [(("atk", ap), ("view", vp)) for ap, vp in a.wiring]
    return _onto_view(view, [("atk", a.comb)], wires).evaluate()


def _onto_view(view: Behavior, nodes: list[tuple[str, Behavior]], wires: list[Wire]) -> Network:
    """`nodes` wired onto `view` ("view"), each round firing as soon as its
    wired inputs are available."""
    nodes = [("view", view), *nodes]
    return Network(nodes, wires, merge_asap(nodes, wires, view_label="view"))


# ---------------------------------------------------------------------------
# simulator shape derivation


def derive_simulator_shape(real_sig: Signature, s: Behavior, j_parties: Sequence[str]) -> CombShape:
    """Shape of the canonical simulator ("sim"): it consumes the ideal
    resource's J ports (ideal outputs as early as possible, ideal inputs fed
    as late as possible) and carries the real dishonest interface port for
    port, in the real view's moment order."""
    j = set(j_parties)
    s_sig = s.signature
    ideal_rounds = [[q for q in s_sig.ports if q.round == t] for t in range(1, s_sig.rounds + 1)]
    sim = ShapeBuilder("sim", lambda _lab, q: (f"sim__{q.id}", q.party))

    def fire_while(ready) -> None:
        """Fire the ideal rounds in turn while `ready(the round's ports)`."""
        while sim.fired[RES] < s_sig.rounds and ready(ports := ideal_rounds[sim.fired[RES]]):
            sim.fire(RES, [q for q in ports if q.party in j])

    for i in moment_order(real_sig.ports):
        m = real_sig.ports[i]
        if m.party not in j:
            try:
                sp = s_sig.port(m.id)
            except KeyError:
                raise InterfaceMismatch(f"honest port {m.id!r} missing from the ideal resource") from None
            if (sp.party, sp.alphabet, sp.direction) != (m.party, m.alphabet, m.direction):
                raise InterfaceMismatch(f"honest port {m.id!r} differs between real and ideal")
            # already-fired rounds are fine; the final canonical comparison
            # arbitrates whether the moment orders genuinely agree
            fire_while(lambda _ports: sim.fired[RES] < sp.round)
        else:
            # ideal rounds that only hand the simulator outputs fire eagerly
            fire_while(lambda ports: all(q.party in j and q.direction == OUT for q in ports))
            sim.play(m)
    fire_while(lambda _ports: True)
    return sim.shape(tuple(sorted(j)) or ("sim",))


# ---------------------------------------------------------------------------
# security checks


def ideal_view(s: Behavior, sim: Simulator, match: Signature) -> Behavior:
    """The simulator wrapped around the ideal resource, scheduled so that its
    moments follow `match` (the real view's signature), canonicalized."""
    nodes = [(RES, s)] + list(sim.nodes)
    schedule = schedule_to_match(nodes, sim.wires, match)
    return canonical(Network(nodes, list(sim.wires), schedule).evaluate())


def simulator_distance(real: Behavior, s: Behavior, sim: Simulator) -> Scalar:
    """The distinguisher advantage between the real view and the
    simulator-wrapped ideal view: a simulator certificate's residual."""
    ideal = ideal_view(s, sim, real.signature)
    if ideal.signature != real.signature:
        raise InterfaceMismatch(
            f"ideal view interface {[q.id for q in ideal.signature.ports]} does not match "
            f"real view {[q.id for q in real.signature.ports]}"
        )
    return behavior_distance(real, ideal)


def check_secure_with(
    p: Protocol,
    r: Behavior,
    s: Behavior,
    j_parties: Sequence[str],
    sim: Simulator,
) -> SecurityReport:
    """Verify the security equation: the dummy-attacked real view equals the
    simulator-wrapped ideal view."""
    residual = simulator_distance(dummy_attack(p, r, j_parties), s, sim)
    cert = SimulatorCert(tuple(j_parties), sim, residual)
    if residual == 0:
        return SecurityReport("secure", epsilon=ZERO, cert=cert)
    return SecurityReport("insecure", epsilon=None, cert=cert)


def _search(p: Protocol, r: Behavior, s: Behavior, j_parties: Sequence[str], minimize: bool) -> SecurityReport:
    """Solve for the simulator's table on the derived simulator shape: a
    perfect simulator, or one of least advantage when `minimize`."""
    real = dummy_attack(p, r, j_parties)
    shape = derive_simulator_shape(real.signature, s, j_parties)
    what = "epsilon" if minimize else "simulator"
    prog, out, comb = solve_comb([(RES, s)], shape, real, what, minimize)
    if comb is None:
        return SecurityReport("insecure", farkas=out.cert, lp=prog)
    eps = out.value if minimize else ZERO
    cert = SimulatorCert(tuple(j_parties), Simulator(((shape.label, comb),), shape.wires), eps)
    return SecurityReport("secure" if eps == 0 else "epsilon", epsilon=eps, cert=cert, lp=prog)


def search_simulator(
    p: Protocol,
    r: Behavior,
    s: Behavior,
    j_parties: Sequence[str],
) -> SecurityReport:
    """Decide security against the dummy attack by linear feasibility over
    the simulator's table entries; the dummy attack is initial (every attack
    factors through it), so this verdict covers all attacks."""
    return _search(p, r, s, j_parties, minimize=False)


def min_epsilon(
    p: Protocol,
    r: Behavior,
    s: Behavior,
    j_parties: Sequence[str],
) -> SecurityReport:
    """Best achievable distinguisher advantage: minimize over simulators the
    adaptive distinguisher's advantage between real and ideal views, as one
    linear program (see `distinguisher`)."""
    return _search(p, r, s, j_parties, minimize=True)


# ---------------------------------------------------------------------------
# semi-honest (honest-but-curious) attacks


def semi_honest_attack(p: Protocol, j_parties: Sequence[str]) -> Attack:
    """The initial honest-but-curious attack: J parties follow their
    converters but copy every value exchanged with the resource (and every
    passed-through port) to a leak interface.

    Supported for single-round J converters, which covers the protocols
    shipped here.
    """
    j = list(j_parties)
    src = p.source.signature
    nodes: list[tuple[str, Behavior]] = []
    internal: list[Wire] = []
    wiring: list[tuple[str, str]] = []
    order: list[str] = []

    def gadget(label: str, pid: str, alphabet, party, fwd_id: str, leak_id: str, out_id: str):
        sig = make_signature(
            [party],
            1,
            [
                PortSpec(pid, party, alphabet, IN, 1),
                PortSpec(fwd_id, party, alphabet, OUT, 1),
                PortSpec(leak_id, party, alphabet, OUT, 1),
            ],
        )
        nodes.append((label, make_behavior(sig, copy_map((alphabet,)))))
        order.append(label)

    for party in j:
        conv = p.converter_for(party)
        party_ports = [q for q in src.ports if q.party == party]
        wired = {rp: cp for cp, rp in (conv.wiring if conv else ())}
        if conv is not None and conv.comb.signature.rounds != 1:
            raise ShapeMismatch("semi-honest attacks support single-round converters only")
        if conv is not None:
            nodes.append((party, conv.comb))
        for q in party_ports:
            lab = f"g_{party}_{q.id}"
            if q.direction == OUT:
                # resource emits; attack consumes the exposed port
                gadget(lab, f"tap__{q.id}", q.alphabet, party, f"fwd__{q.id}", f"leak__{q.id}", q.id)
                wiring.append((f"tap__{q.id}", q.id))
                if q.id in wired:
                    internal.append(((lab, f"fwd__{q.id}"), (party, wired[q.id])))
                # unwired: fwd__ stays outer, same data as the honest pass-through
            else:
                # resource consumes; attack must feed the exposed port
                gadget(lab, f"src__{q.id}", q.alphabet, party, q.id + "__fwd", f"leak__{q.id}", q.id)
                wiring.append((q.id + "__fwd", q.id))
                if q.id in wired:
                    internal.append(((lab, f"src__{q.id}"), (party, wired[q.id])))
                # unwired in-port: src__ stays outer for the environment
        if conv is not None:
            order.append(party)

    if not nodes:
        sig = make_signature(["env"], 1, ())
        comb = make_behavior(sig, make_kernel((), (), [[1]]))
        return Attack(tuple(j), comb, ())
    # order: feeding gadgets and converters sorted so converters run after
    # their tap gadgets; merge_asap at application time does the real work
    schedule = merge_asap(nodes, internal, view_label=order[0]) if len(nodes) > 1 else [(nodes[0][0], 1)]
    comb = Network(nodes, internal, schedule).evaluate()
    return Attack(tuple(j), comb, tuple(wiring))


# ---------------------------------------------------------------------------
# certificate composition


def compose_certs(
    cert_p: SimulatorCert,
    cert_q: SimulatorCert,
    mode: str,
    q_after_p: tuple[Protocol, Protocol],
    r: Behavior,
    s: Behavior,
) -> tuple[SimulatorCert, SecurityReport]:
    """Compose two simulator certificates along protocol composition and
    RE-VERIFY the composite; `mode` is "sequential" or "parallel".

    Returns the composite certificate plus the verification report; raises
    CompositeVerificationFailed if the composite residual exceeds the sum of
    the component residuals.
    """
    q, p = q_after_p
    if set(cert_p.j_parties) != set(cert_q.j_parties):
        raise InterfaceMismatch("certificates are for different dishonest sets")
    j = cert_p.j_parties
    p_sim, q_sim = cert_p.simulator, cert_q.simulator
    if mode == "sequential":
        comp = seq_compose(q, p)
        q_nodes, q_wires = _prefixed(q_sim, "q__")
        # σ_p's wires into the middle resource now reach the σ_q node that
        # leaves that middle port unwired
        wired = {ref for w in q_wires for ref in w}
        owner = {
            port.id: lab for lab, node in q_nodes for port in node.signature.ports if (lab, port.id) not in wired
        }

        def middle(ref):
            if ref[1] not in owner:
                raise InterfaceMismatch(f"middle port {ref[1]!r} not exposed by the q-simulator")
            return (owner[ref[1]], ref[1])

        p_nodes, p_wires = _prefixed(p_sim, "p__", middle)
        sim = Simulator(q_nodes + p_nodes, q_wires + p_wires)
    elif mode == "parallel":
        comp = par_compose(p, q)
        p_nodes, p_wires = _prefixed(p_sim, "p__")
        q_nodes, q_wires = _prefixed(q_sim, "q__")
        sim = Simulator(p_nodes + q_nodes, p_wires + q_wires)
    else:
        raise ValueError(f"unknown composition mode {mode!r}")
    eps = simulator_distance(dummy_attack(comp, r, j), s, sim)
    budget = cert_p.residual + cert_q.residual
    if eps > budget:
        raise CompositeVerificationFailed(
            f"composite residual {eps} exceeds component budget {budget}"
        )
    cert = SimulatorCert(j, sim, eps)
    verdict = "secure" if eps == 0 else "epsilon"
    report = SecurityReport(verdict, epsilon=eps, cert=cert)
    return cert, report


def _prefixed(sim: Simulator, prefix: str, res_ref=lambda end: end) -> tuple[tuple, tuple]:
    """sim's nodes and wires with `prefix` on every node label; a wire end
    on the ideal resource goes through `res_ref` instead."""
    nodes = tuple((prefix + lab, node) for lab, node in sim.nodes)

    def ref(end):
        return res_ref(end) if end[0] == RES else (prefix + end[0], end[1])

    return nodes, tuple((ref(a), ref(b)) for a, b in sim.wires)


# ---------------------------------------------------------------------------
# attack model axiom suite


class AxiomCheck(Record):
    name: str
    passed: bool


class AxiomSuiteReport(Record):
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def attack_model_axiom_suite(
    spec: AttackModelSpec,
    samples: Sequence[Kernel],
    protocol: Optional[Protocol] = None,
    resource: Optional[Behavior] = None,
) -> AxiomSuiteReport:
    """Constructively checkable halves of the attack-model conditions for the
    shipped concrete models.  The factorization halves quantify over infinite
    classes; for the colluding model they are witnessed through the dummy
    factorization (any attacked execution is an attack comb linked onto the
    dummy view), which is checked when a protocol is supplied."""
    checks: list[AxiomCheck] = []

    def membership(model, k: Kernel) -> bool:
        """Whether the model admits k.  The minimal model admits only the
        honest kernel, so its only attack is the trivial one: composing with
        identities and tensoring with the trivial kernel must give k back.
        The maximal model admits every stochastic kernel."""
        if isinstance(model, Minimal):
            unit = k_identity(())
            return (
                kernel_equal(k_compose(k_identity(k.cod), k), k)
                and kernel_equal(k_compose(k, k_identity(k.dom)), k)
                and kernel_equal(k_tensor(k, unit), k)
                and kernel_equal(k_tensor(unit, k), k)
            )
        if isinstance(model, Maximal):
            try:
                validate_kernel(k)
            except (ColumnNotStochastic, DimensionMismatch, NegativeEntry):
                return False
            return True
        raise ValueError(model)

    composable = [(f, g) for f in samples for g in samples if f.cod == g.dom]
    if isinstance(spec, (Minimal, Maximal)):
        checks.append(AxiomCheck("honest-inclusion", all(membership(spec, f) for f in samples)))
        checks.append(
            AxiomCheck(
                "sequential-closure",
                all(membership(spec, k_compose(g, f)) for f, g in composable),
            )
        )
        checks.append(
            AxiomCheck(
                "parallel-closure",
                all(membership(spec, k_tensor(f, g)) for f in samples for g in samples),
            )
        )
    elif isinstance(spec, PerParty):
        checks.append(
            AxiomCheck(
                "honest-inclusion",
                all(membership(m, f) for m in spec.models for f in samples),
            )
        )
        checks.append(
            AxiomCheck(
                "componentwise-closure",
                all(membership(m, k_compose(g, f)) for m in spec.models for f, g in composable),
            )
        )
    elif isinstance(spec, Colluding):
        if protocol is None or resource is None:
            raise ValueError("the colluding model is checked against a protocol execution")
        j = tuple(sorted(spec.parties))
        if not set(j) < set(resource.signature.parties):
            raise ValueError("colluding set must be a proper subset of the parties")
        view = dummy_attack(protocol, resource, j)
        # honest inclusion: replaying the J converters on the dummy view
        # reproduces the honest execution
        honest = apply_protocol_via_dummy(protocol, resource, j)
        full = apply_protocol(protocol, resource)
        checks.append(
            AxiomCheck(
                "honest-inclusion (dummy factorization of the protocol)",
                observationally_equal(honest, full),
            )
        )
        checks.append(AxiomCheck("dummy-exposes-J-interface", _exposes_j(view, resource, j)))
    else:
        raise ValueError(f"unknown attack model {spec!r}")
    return AxiomSuiteReport(tuple(checks))


def _exposes_j(view: Behavior, resource: Behavior, j) -> bool:
    want = {q.id for q in resource.signature.ports if q.party in j}
    have = {q.id for q in view.signature.ports if q.party in j}
    return want == have


def apply_protocol_via_dummy(p: Protocol, r: Behavior, j_parties) -> Behavior:
    """Link the J parties' honest converters back onto the dummy view; by
    initiality this reproduces the honest execution."""
    convs = [c for c in map(p.converter_for, j_parties) if c is not None]
    wires = [((c.party, cp), ("view", rp)) for c in convs for cp, rp in c.wiring]
    return _onto_view(dummy_attack(p, r, j_parties), [(c.party, c.comb) for c in convs], wires).evaluate()
