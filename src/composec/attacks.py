"""Attack models, the dummy adversary, simulator search, and certificates.

Security of a protocol against a dishonest subset J is checked against the
initial (dummy) attack only: the J parties' converters are removed, exposing
their raw resource ports.  A simulator is a process wrapped around the ideal
resource's J interface that reproduces that view exactly; searching for one
is a linear feasibility problem because the attacked ideal execution is
linear in the simulator's table.  Infeasibility comes back as an exact
Farkas certificate, feasibility as a re-verified simulator.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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
    behavior_distance,
    canonical,
    make_behavior,
    make_signature,
    merge_asap,
    schedule_to_match,
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
    WiringMismatch,
)
from .lp import FarkasCert, Feasible, Infeasible, Optimal
from .resources import RES, Protocol, Resource
from .scalars import RATIONAL, TOL_EQ, Scalar, zero
from .stoch import Kernel, make_kernel

DEFAULT_LP_CAP = 200_000  # variables x rows guard for simulator searches


# ---------------------------------------------------------------------------
# attack model specifications


@dataclass(frozen=True)
class Minimal:
    pass


@dataclass(frozen=True)
class Maximal:
    pass


@dataclass(frozen=True)
class PerParty:
    models: tuple[Union[Minimal, Maximal], ...]


@dataclass(frozen=True)
class Colluding:
    parties: frozenset[str]

    def __post_init__(self) -> None:
        if not self.parties:
            raise ValueError("a colluding set must be nonempty")


AttackModelSpec = Union[Minimal, Maximal, PerParty, Colluding]


@dataclass(frozen=True)
class Attack:
    """A process linked onto the dummy-exposed interface."""

    j_parties: tuple[str, ...]
    comb: Behavior
    wiring: tuple[tuple[str, str], ...]  # (attack port id, exposed view port id)


@dataclass(frozen=True)
class Simulator:
    """Ideal-side wrapper: nodes wired onto the ideal resource ("res") and
    each other, exposing the real dishonest interface."""

    j_parties: tuple[str, ...]
    nodes: tuple[tuple[str, Behavior], ...]
    wires: tuple[Wire, ...]


@dataclass(frozen=True)
class SimulatorCert:
    j_parties: tuple[str, ...]
    simulator: Simulator
    residual: Scalar
    protocol_name: str = ""


@dataclass(frozen=True)
class SecurityReport:
    verdict: str  # "secure" | "insecure" | "epsilon"
    epsilon: Optional[Scalar] = None
    cert: Optional[SimulatorCert] = None
    farkas: Optional[FarkasCert] = None
    lp_size: tuple[int, int] = (0, 0)  # (variables, rows)
    wall_ms: float = 0.0
    lp: Optional[lpmod.LinearProgram] = None  # for external certificate audits

    @property
    def secure(self) -> bool:
        return self.verdict == "secure"


# ---------------------------------------------------------------------------
# dummy adversary and attacked executions


def dummy_attack(p: Protocol, r: Resource, j_parties: Sequence[str]) -> Behavior:
    """Real-world view under the initial attack: honest converters linked,
    every J-party resource port left exposed.  Returned in canonical form."""
    j = set(j_parties)
    unknown = j - set(r.signature.parties)
    if unknown:
        raise WiringMismatch(f"dishonest parties {sorted(unknown)} not in the resource")
    if r.signature != p.source.signature:
        raise WiringMismatch("resource does not match the protocol's source interface")
    nodes = [(RES, r.behavior)]
    wires = []
    for c in p.converters:
        if c.party in j:
            continue
        nodes.append((c.party, c.comb))
        for cp, rp in c.wiring:
            wires.append(((c.party, cp), (RES, rp)))
    schedule = [item for item in p.schedule if item[0] == RES or item[0] not in j]
    view = Network(nodes, wires, schedule).evaluate()
    return canonical(view)


def apply_attack(p: Protocol, r: Resource, a: Attack) -> Behavior:
    """Generic attacked execution: the attack comb linked onto the dummy view."""
    view = dummy_attack(p, r, a.j_parties)
    wires = [(("atk", ap), ("view", vp)) for ap, vp in a.wiring]
    nodes = [("view", view), ("atk", a.comb)]
    schedule = merge_asap(nodes, wires, view_label="view")
    return Network(nodes, wires, schedule).evaluate()


# ---------------------------------------------------------------------------
# simulator shape derivation


@dataclass(frozen=True)
class SimulatorShape:
    signature: Signature  # the simulator comb's interface
    wires: tuple[Wire, ...]  # ("sim", port) <-> ("res", ideal port)
    schedule: tuple[ScheduleItem, ...]  # over ("res", t) and ("sim", k)


def derive_simulator_shape(real_sig: Signature, s: Resource, j_parties: Sequence[str]) -> SimulatorShape:
    """Interface of the canonical simulator: it consumes the ideal resource's
    J ports (ideal outputs as early as possible, ideal inputs fed as late as
    possible) and carries the real dishonest interface port for port."""
    j = set(j_parties)
    s_sig = s.signature
    sched: list[ScheduleItem] = []
    wires: list[Wire] = []
    sim_ports: list[PortSpec] = []
    rounds = 0
    cur_open = False
    phase = IN
    s_ptr = 0
    pending: list[PortSpec] = []

    def open_round():
        nonlocal rounds, cur_open, phase
        rounds += 1
        cur_open = True
        phase = IN
        sched.append(("sim", rounds))

    def add_in(port: PortSpec, wire_to: Optional[str]) -> None:
        nonlocal cur_open, phase
        if not cur_open or phase == OUT:
            open_round()
        sim_ports.append(PortSpec(port.id if wire_to is None else f"sim__{port.id}", port.party, port.alphabet, IN, rounds))
        if wire_to is not None:
            wires.append((("sim", f"sim__{port.id}"), (RES, wire_to)))

    def add_out(port: PortSpec, wire_to: Optional[str]) -> None:
        nonlocal cur_open, phase
        if not cur_open:
            open_round()
        phase = OUT
        sim_ports.append(PortSpec(port.id if wire_to is None else f"sim__{port.id}", port.party, port.alphabet, OUT, rounds))
        if wire_to is not None:
            wires.append((("sim", f"sim__{port.id}"), (RES, wire_to)))

    def fire_s(t: int) -> None:
        nonlocal cur_open, s_ptr
        for port in s_sig.ports:
            if port.round == t and port.party in j and port.direction == IN:
                add_out(port, wire_to=port.id)
        sched.append((RES, t))
        cur_open = False
        for port in s_sig.ports:
            if port.round == t and port.party in j and port.direction == OUT:
                pending.append(port)
        s_ptr = t

    def eager_fire() -> None:
        while s_ptr + 1 <= s_sig.rounds:
            t = s_ptr + 1
            ports_t = [p for p in s_sig.ports if p.round == t]
            if any(p.party not in j for p in ports_t):
                break
            if any(p.party in j and p.direction == IN for p in ports_t):
                break
            fire_s(t)

    def drain() -> None:
        for port in pending:
            add_in(port, wire_to=port.id)
        pending.clear()

    order = sorted(
        range(len(real_sig.ports)),
        key=lambda i: (real_sig.ports[i].round, 0 if real_sig.ports[i].direction == IN else 1, real_sig.ports[i].id),
    )
    for i in order:
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
            for t in range(s_ptr + 1, sp.round + 1):
                fire_s(t)
        else:
            eager_fire()
            drain()
            if m.direction == IN:
                add_in(m, wire_to=None)
            else:
                add_out(m, wire_to=None)
    for t in range(s_ptr + 1, s_sig.rounds + 1):
        fire_s(t)
    drain()
    if rounds == 0:
        rounds = 1
        sched.append(("sim", 1))
    parties = tuple(sorted({p.party for p in sim_ports})) or tuple(sorted(j)) or ("sim",)
    sig = Signature(parties, rounds, tuple(sim_ports))
    return SimulatorShape(sig, tuple(wires), tuple(sched))


# ---------------------------------------------------------------------------
# security checks


def ideal_view(s: Resource, sim: Simulator, match: Optional[Signature] = None) -> Behavior:
    """The simulator wrapped around the ideal resource, canonicalized."""
    nodes = [(RES, s.behavior)] + list(sim.nodes)
    if match is not None:
        schedule = schedule_to_match(nodes, sim.wires, match)
    else:
        schedule = merge_asap(nodes, sim.wires, view_label=RES)
    return canonical(Network(nodes, list(sim.wires), schedule).evaluate())


def check_secure_with(
    p: Protocol,
    r: Resource,
    s: Resource,
    j_parties: Sequence[str],
    sim: Simulator,
) -> SecurityReport:
    """Verify the security equation: the dummy-attacked real view equals the
    simulator-wrapped ideal view."""
    t0 = time.perf_counter()
    real = dummy_attack(p, r, j_parties)
    ideal = ideal_view(s, sim, match=real.signature)
    if ideal.signature != real.signature:
        raise InterfaceMismatch(
            f"ideal view interface {[q.id for q in ideal.signature.ports]} does not match "
            f"real view {[q.id for q in real.signature.ports]}"
        )
    residual = zero(real.mode)
    for ri, ii in zip(real.kernel.matrix, ideal.kernel.matrix):
        for a, b in zip(ri, ii):
            d = abs(a - b)
            if d > residual:
                residual = d
    ms = (time.perf_counter() - t0) * 1000
    cert = SimulatorCert(tuple(j_parties), sim, residual, p.name)
    tol = 0 if real.mode == RATIONAL else TOL_EQ
    if residual <= tol:
        return SecurityReport("secure", epsilon=zero(real.mode), cert=cert, wall_ms=ms)
    return SecurityReport("insecure", epsilon=None, cert=cert, wall_ms=ms)


def _symbolic_ideal(real: Behavior, s: Resource, j_parties: Sequence[str]):
    """Linear forms of the simulator-wrapped ideal view, aligned to the
    canonical real view's indexing."""
    shape = derive_simulator_shape(real.signature, s, j_parties)
    nodes = [(RES, s.behavior), ("sim", shape.signature)]
    can_sig, aligned = canonical_forms(Network(nodes, list(shape.wires), list(shape.schedule)))
    if can_sig != real.signature:
        raise InterfaceMismatch(
            "derived simulator interface cannot reproduce the real view's moment structure"
        )
    return shape, aligned


def search_simulator(
    p: Protocol,
    r: Resource,
    s: Resource,
    j_parties: Sequence[str],
    lp_cap: int = DEFAULT_LP_CAP,
) -> SecurityReport:
    """Decide security against the dummy attack by linear feasibility over
    the simulator's table entries; the dummy attack is initial (every attack
    factors through it), so this verdict covers all attacks."""
    t0 = time.perf_counter()
    real = dummy_attack(p, r, j_parties)
    shape, aligned = _symbolic_ideal(real, s, j_parties)
    bld = table_lp(shape.signature, real.mode)
    add_match_rows(bld, aligned, real)
    prog = bld.build(with_objective=False)
    if prog.n * prog.m > lp_cap:
        raise ProblemTooLarge(f"simulator LP has {prog.n} vars x {prog.m} rows")
    out = lpmod.solve_feasible(prog)
    ms = (time.perf_counter() - t0) * 1000
    size = (prog.n, prog.m)
    if isinstance(out, Infeasible):
        verify_or_raise(out, prog, "simulator")
        return SecurityReport("insecure", farkas=out.cert, lp_size=size, wall_ms=ms, lp=prog)
    expect_outcome(out, Feasible, "simulator")
    sigma_b = table_behavior(shape.signature, out.point, real.mode)
    sim = Simulator(tuple(j_parties), (("sim", sigma_b),), shape.wires)
    recheck = check_secure_with(p, r, s, j_parties, sim)
    if not recheck.secure:
        raise CompositeVerificationFailed("LP simulator failed re-verification")
    return SecurityReport(
        "secure",
        epsilon=zero(real.mode),
        cert=SimulatorCert(tuple(j_parties), sim, zero(real.mode), p.name),
        lp_size=size,
        wall_ms=ms,
    )


def min_epsilon(
    p: Protocol,
    r: Resource,
    s: Resource,
    j_parties: Sequence[str],
    lp_cap: int = DEFAULT_LP_CAP,
) -> SecurityReport:
    """Best achievable distinguisher advantage: minimize over simulators the
    adaptive distinguisher's advantage between real and ideal views, as one
    linear program (see `distinguisher`)."""
    t0 = time.perf_counter()
    real = dummy_attack(p, r, j_parties)
    shape, aligned = _symbolic_ideal(real, s, j_parties)
    mode = real.mode
    bld = table_lp(shape.signature, mode)
    add_advantage_objective(bld, aligned, real)
    prog = bld.build(with_objective=True)
    if prog.n * prog.m > lp_cap:
        raise ProblemTooLarge(f"epsilon LP has {prog.n} vars x {prog.m} rows")
    out = lpmod.minimize(prog)
    ms = (time.perf_counter() - t0) * 1000
    size = (prog.n, prog.m)
    if isinstance(out, Infeasible):
        verify_or_raise(out, prog, "epsilon")
        return SecurityReport("insecure", farkas=out.cert, lp_size=size, wall_ms=ms, lp=prog)
    expect_outcome(out, Optimal, "epsilon")
    sigma_b = table_behavior(shape.signature, out.point, mode)
    sim = Simulator(tuple(j_parties), (("sim", sigma_b),), shape.wires)
    eps = out.value
    if mode == RATIONAL:
        ideal = ideal_view(s, sim, match=real.signature)
        if ideal.signature != real.signature or behavior_distance(real, ideal) != eps:
            raise CompositeVerificationFailed("epsilon LP's simulator does not achieve its value")
    verdict = "secure" if eps == 0 else "epsilon"
    return SecurityReport(
        verdict,
        epsilon=eps,
        cert=SimulatorCert(tuple(j_parties), sim, eps, p.name),
        lp_size=size,
        wall_ms=ms,
    )


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
        n = alphabet.size
        table = [[0] * n for _ in range(n * n)]
        for v in range(n):
            table[v * n + v][v] = 1
        nodes.append((label, make_behavior(sig, make_kernel((alphabet,), (alphabet, alphabet), table))))
        order.append(label)

    for party in j:
        conv = p.converter_for(party)
        party_ports = [q for q in src.ports if q.party == party]
        wired = {rp: cp for cp, rp in (conv.wiring if conv else ())}
        if conv is not None and conv.comb.signature.rounds != 1:
            raise ProblemTooLarge("semi-honest attacks support single-round converters only")
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
    r: Resource,
    s: Resource,
) -> tuple[SimulatorCert, SecurityReport]:
    """Compose two simulator certificates along protocol composition and
    RE-VERIFY the composite; `mode` is "sequential" or "parallel".

    Returns the composite certificate plus the verification report; raises
    CompositeVerificationFailed if the composite residual exceeds the sum of
    the component residuals.
    """
    from .resources import par_compose, seq_compose

    q, p = q_after_p
    if set(cert_p.j_parties) != set(cert_q.j_parties):
        raise InterfaceMismatch("certificates are for different dishonest sets")
    j = cert_p.j_parties
    if mode == "sequential":
        comp = seq_compose(q, p)
        outer_ids = {
            port.id
            for _lab, node in cert_q.simulator.nodes
            for port in node.signature.ports
        }
        wired_sim_refs = {ref for w in cert_q.simulator.wires for ref in w}
        # σ_p's wires into the middle resource now reach σ_q's outer ports
        relabel_q = {lab: f"q__{lab}" for lab, _n in cert_q.simulator.nodes}
        relabel_p = {lab: f"p__{lab}" for lab, _n in cert_p.simulator.nodes}
        nodes = tuple(
            (relabel_q[lab], node) for lab, node in cert_q.simulator.nodes
        ) + tuple((relabel_p[lab], node) for lab, node in cert_p.simulator.nodes)
        wires = []
        for a, b in cert_q.simulator.wires:
            wires.append(
                (
                    (relabel_q.get(a[0], a[0]), a[1]) if a[0] != RES else a,
                    (relabel_q.get(b[0], b[0]), b[1]) if b[0] != RES else b,
                )
            )
        # locate σ_q node exposing each middle port id
        owner: dict[str, str] = {}
        for lab, node in cert_q.simulator.nodes:
            for port in node.signature.ports:
                if (lab, port.id) not in wired_sim_refs:
                    owner[port.id] = relabel_q[lab]
        for a, b in cert_p.simulator.wires:
            def remap(ref):
                if ref[0] == RES:
                    if ref[1] not in owner:
                        raise InterfaceMismatch(f"middle port {ref[1]!r} not exposed by the q-simulator")
                    return (owner[ref[1]], ref[1])
                return (relabel_p[ref[0]], ref[1])
            wires.append((remap(a), remap(b)))
        sim = Simulator(j, nodes, tuple(wires))
    elif mode == "parallel":
        comp = par_compose(p, q)
        relabel_p = {lab: f"p__{lab}" for lab, _n in cert_p.simulator.nodes}
        relabel_q = {lab: f"q__{lab}" for lab, _n in cert_q.simulator.nodes}
        nodes = tuple((relabel_p[lab], node) for lab, node in cert_p.simulator.nodes) + tuple(
            (relabel_q[lab], node) for lab, node in cert_q.simulator.nodes
        )
        wires = tuple(
            (
                (relabel_p.get(a[0], a[0]), a[1]) if a[0] != RES else a,
                (relabel_p.get(b[0], b[0]), b[1]) if b[0] != RES else b,
            )
            for a, b in cert_p.simulator.wires
        ) + tuple(
            (
                (relabel_q.get(a[0], a[0]), a[1]) if a[0] != RES else a,
                (relabel_q.get(b[0], b[0]), b[1]) if b[0] != RES else b,
            )
            for a, b in cert_q.simulator.wires
        )
        sim = Simulator(j, nodes, wires)
    else:
        raise ValueError(f"unknown composition mode {mode!r}")
    real = dummy_attack(comp, r, j)
    ideal = ideal_view(s, sim, match=real.signature)
    if ideal.signature != real.signature:
        raise CompositeVerificationFailed("composite simulator has the wrong interface")
    eps = behavior_distance(real, ideal)
    budget = cert_p.residual + cert_q.residual
    if eps > budget:
        raise CompositeVerificationFailed(
            f"composite residual {eps} exceeds component budget {budget}"
        )
    cert = SimulatorCert(j, sim, eps, comp.name)
    verdict = "secure" if eps == 0 else "epsilon"
    report = SecurityReport(verdict, epsilon=eps, cert=cert)
    return cert, report


# ---------------------------------------------------------------------------
# attack model axiom suite


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomSuiteReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def attack_model_axiom_suite(
    spec: AttackModelSpec,
    samples: Sequence[Kernel],
    protocol: Optional[Protocol] = None,
    resource: Optional[Resource] = None,
) -> AxiomSuiteReport:
    """Constructively checkable halves of the attack-model conditions for the
    shipped concrete models.  The factorization halves quantify over infinite
    classes; for the colluding model they are witnessed through the dummy
    factorization (any attacked execution is an attack comb linked onto the
    dummy view), which is checked when a protocol is supplied."""
    from .stoch import compose as k_compose
    from .stoch import kernel_equal, tensor as k_tensor, validate_kernel

    checks: list[AxiomCheck] = []

    def membership(model, honest: Kernel, attacked: Kernel) -> bool:
        if isinstance(model, Minimal):
            return kernel_equal(honest, attacked)
        if isinstance(model, Maximal):
            validate_kernel(attacked)
            return True
        raise ValueError(model)

    if isinstance(spec, (Minimal, Maximal)):
        checks.append(
            AxiomCheck(
                "honest-inclusion",
                all(membership(spec, f, f) for f in samples),
            )
        )
        composable = [
            (f, g) for f in samples for g in samples if f.cod == g.dom
        ]
        ok = True
        for f, g in composable:
            gf = k_compose(g, f)
            ok = ok and membership(spec, gf, gf)
        checks.append(AxiomCheck("sequential-closure", ok))
        ok = True
        for f in samples:
            for g in samples:
                fg = k_tensor(f, g)
                ok = ok and membership(spec, fg, fg)
        checks.append(AxiomCheck("parallel-closure", ok))
    elif isinstance(spec, PerParty):
        ok = True
        for combo in itertools.product(samples, repeat=len(spec.models)):
            for model, f in zip(spec.models, combo):
                ok = ok and membership(model, f, f)
        checks.append(AxiomCheck("honest-inclusion", ok))
        checks.append(
            AxiomCheck(
                "componentwise-closure",
                all(
                    membership(m, k_compose(g, f), k_compose(g, f))
                    for m in spec.models
                    for f in samples
                    for g in samples
                    if f.cod == g.dom
                ),
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
        from .comb import observationally_equal
        from .resources import apply_protocol

        full = apply_protocol(protocol, resource)
        checks.append(
            AxiomCheck(
                "honest-inclusion (dummy factorization of the protocol)",
                observationally_equal(honest, full.behavior),
            )
        )
        checks.append(AxiomCheck("dummy-exposes-J-interface", _exposes_j(view, resource, j)))
    else:
        raise ValueError(f"unknown attack model {spec!r}")
    return AxiomSuiteReport(tuple(checks))


def _exposes_j(view: Behavior, resource: Resource, j) -> bool:
    want = {q.id for q in resource.signature.ports if q.party in j}
    have = {q.id for q in view.signature.ports if q.party in j}
    return want == have


def apply_protocol_via_dummy(p: Protocol, r: Resource, j_parties) -> Behavior:
    """Link the J parties' honest converters back onto the dummy view; by
    initiality this reproduces the honest execution."""
    view = dummy_attack(p, r, j_parties)
    nodes: list[tuple[str, Behavior]] = [("view", view)]
    wires: list[Wire] = []
    for party in j_parties:
        conv = p.converter_for(party)
        if conv is None:
            continue
        nodes.append((party, conv.comb))
        for cp, rp in conv.wiring:
            wires.append(((party, cp), ("view", rp)))
    schedule = merge_asap(nodes, wires, view_label="view")
    return Network(nodes, wires, schedule).evaluate()
