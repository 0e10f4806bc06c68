"""The dummy adversary, simulator search, and certificates.

Security of a protocol against a dishonest subset J is checked against the
initial (dummy) attack only: the J parties' converters are removed, exposing
their raw resource ports.  Every attack factors through that view (linking
the J parties' own converters back onto it gives the honest execution), so
a simulator for it covers all attacks.  A simulator is a process wrapped
around the ideal resource's J interface that reproduces that view exactly;
searching for one is a linear feasibility problem because the attacked
ideal execution is linear in the simulator's table.
`derive_simulator_shape` says which ideal rounds fire when and which real
ports the simulator plays, and `distinguisher.ShapeBuilder` opens its
rounds.  Simulator search and the minimum ε solve on that shape through
`distinguisher.solve_comb`: infeasibility comes back as a re-verified exact
Farkas certificate, and a simulator is substituted back and must reach the
program's value exactly.  A search's report keeps the program it solved
(`SecurityReport.lp`), whatever the verdict, so its size and its
certificate are read from one record.  A certificate's residual is always
the distinguisher advantage between the real and the simulated view
(`simulator_distance`), so `compose_certs` adds like with like.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import lp as lpmod
from .comb import (
    OUT,
    Behavior,
    Network,
    Signature,
    Wire,
    behavior_distance,
    moment_order,
    schedule_to_match,
)
from .distinguisher import CombShape, ShapeBuilder, solve_comb
from .errors import CompositeVerificationFailed, InterfaceMismatch, WiringMismatch
from .lp import FarkasCert
from .record import Record
from .resources import RES, Protocol, par_compose, seq_compose
from .scalars import ZERO, Scalar


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
    every J-party resource port left exposed, evaluated into the network's
    canonical signature.

    The view of the protocol's own source (`r is p.source`) is memoised on
    `p` by dishonest set; everything is immutable, so sharing is safe."""
    j = set(j_parties)
    unknown = j - set(r.signature.parties)
    if unknown:
        raise WiringMismatch(f"dishonest parties {sorted(unknown)} not in the resource")
    key = tuple(sorted(j))
    if r is p.source and key in p._views:
        return p._views[key]
    net = p.network(r, j)
    view = net.evaluate(net.canonical_signature())
    if r is p.source:
        p._views[key] = view
    return view


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


def ideal_network(s: Behavior, sim: Simulator, match: Signature) -> Network:
    """The simulator wrapped around the ideal resource, scheduled so that its
    moments follow `match` (the real view's signature)."""
    nodes = [(RES, s)] + list(sim.nodes)
    return Network(nodes, list(sim.wires), schedule_to_match(nodes, sim.wires, match))


def ideal_view(s: Behavior, sim: Simulator, match: Signature) -> Behavior:
    """`ideal_network` evaluated into its canonical signature."""
    net = ideal_network(s, sim, match)
    return net.evaluate(net.canonical_signature())


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

