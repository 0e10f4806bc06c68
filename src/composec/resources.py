"""n-partite resources and the protocols that transform them.

A resource is a causal `Behavior` itself: its signature already names the
party that owns each port.  A Protocol gives each party a local converter:
a comb that consumes some of that party's resource ports (its wiring) and
exposes fresh ports; resource ports left unwired pass through to the target
untouched, so the identity converter is simply "no converter".  A protocol
also fixes the global round order in which converter rounds interleave with
resource rounds, because linking is only defined relative to an explicit
schedule.

Construction validates the whole shape statically: the wired network
(`Protocol.network`) is built without being evaluated, and its canonical
signature must match the declared target's.  `apply_protocol` therefore
only computes tables.

Sequential and parallel composition are one construction, `_stack`: a
lower and an upper layer of converters run in one order of rounds, and a
party with a converter in both layers runs the two linked as one.
"""

from __future__ import annotations

from typing import Collection

from .comb import (
    Behavior,
    Network,
    ScheduleItem,
    Signature,
    canonical_rounds,
    tensor_behavior,
)
from .errors import (
    InterfaceMismatch,
    NotDeterministic,
    WiringMismatch,
)
from .record import Record

RES = "res"


class Converter(Record):
    """One party's local process.  `wiring` pairs a comb port with the
    resource port it consumes or feeds; unpaired comb ports are the new
    outer interface."""

    party: str
    comb: Behavior
    wiring: tuple[tuple[str, str], ...] = ()

    def outer_ids(self) -> tuple[str, ...]:
        wired = {c for c, _ in self.wiring}
        return tuple(p.id for p in self.comb.signature.ports if p.id not in wired)


class Protocol(Record):
    """`attacks.dummy_attack` memoises the dummy-attacked view of `source`
    on the object, by dishonest set, in `_views`."""

    source: Behavior
    target: Behavior
    converters: tuple[Converter, ...]
    schedule: tuple[ScheduleItem, ...]

    def __init__(
        self,
        source: Behavior,
        target: Behavior,
        converters: tuple[Converter, ...],
        schedule: tuple[ScheduleItem, ...],
    ) -> None:
        super().__init__(source, target, converters, schedule)
        object.__setattr__(self, "_views", {})
        parties = [c.party for c in self.converters]
        if len(set(parties)) != len(parties):
            raise WiringMismatch(f"multiple converters for one party: {parties}")
        src = self.source.signature
        owners = {p.id: p.party for p in src.ports}
        for c in self.converters:
            if c.party not in src.parties:
                raise WiringMismatch(f"converter party {c.party!r} not in {src.parties}")
            for port in c.comb.signature.ports:
                if port.party != c.party:
                    raise WiringMismatch(
                        f"converter for {c.party!r} has a port owned by {port.party!r}"
                    )
            for _cp, rp in c.wiring:
                if rp not in owners:
                    raise WiringMismatch(f"converter for {c.party!r} wires port {rp!r}, which its source lacks")
                if owners[rp] != c.party:
                    raise WiringMismatch(f"converter for {c.party!r} wires port {rp!r} of party {owners[rp]!r}")
        wired_res = [rp for c in self.converters for _cp, rp in c.wiring]
        if len(set(wired_res)) != len(wired_res):
            raise WiringMismatch("a resource port is wired twice")
        derived = self.network(self.source).result_signature()
        want = canonical_rounds(self.target.signature)[0]
        got = canonical_rounds(derived)[0]
        if want != got:
            raise WiringMismatch(
                f"protocol produces interface {_sig_brief(got)}, target declares {_sig_brief(want)}"
            )

    def network(self, r: Behavior, dishonest: Collection[str] = ()) -> Network:
        """r, which must present the source interface, linked to the honest
        parties' converters; the dishonest parties' rounds are left out of
        the schedule, so their resource ports stay exposed."""
        if r.signature != self.source.signature:
            raise WiringMismatch("resource does not match the protocol's source interface")
        honest = [c for c in self.converters if c.party not in dishonest]
        nodes = [(RES, r)] + [(c.party, c.comb) for c in honest]
        wires = [((c.party, cp), (RES, rp)) for c in honest for cp, rp in c.wiring]
        schedule = [item for item in self.schedule if item[0] == RES or item[0] not in dishonest]
        return Network(nodes, wires, schedule)


def _sig_brief(sig: Signature) -> str:
    return "[" + ", ".join(f"{p.id}:{p.direction}@{p.round}" for p in sig.ports) + "]"


def apply_protocol(p: Protocol, r: Behavior) -> Behavior:
    """Link every converter onto r; the network is evaluated straight into
    the declared target signature.

    The table is causal under the network's rounds, and `Protocol.__init__`
    proved that signature's canonical form equal to the target's: the same
    ports with the same OUT -> IN cut points in moment order, so the same
    outputs precede the same inputs.  The table is therefore causal under
    the target's rounds too, as `Network.evaluate(into)` requires.
    """
    return p.network(r).evaluate(p.target.signature)


# ---------------------------------------------------------------------------
# composition: a lower layer of converters and an upper one on top of it


def _stack(
    source: Behavior,
    target: Behavior,
    lower: tuple[Converter, ...],
    upper: tuple[Converter, ...],
    inner: set[tuple[str, str]],
    order: list[tuple[str, str, int]],
) -> Protocol:
    """The protocol from `source` to `target` running the `lower` ("p") and
    `upper` ("q") converters.  An upper converter's wire to a (party, port)
    in `inner` links it to its party's lower converter.  `order` lists the
    rounds as (layer, label, round) triples, resource rounds numbered as in
    `source`; each party's rounds are counted afresh."""
    items: dict[str, list[ScheduleItem]] = {}  # each party's items of `order`
    schedule: list[ScheduleItem] = []
    for layer, lab, idx in order:
        if lab != RES:
            items.setdefault(lab, []).append((layer, idx))
            idx = len(items[lab])
        schedule.append((lab, idx))
    low, up = {c.party: c for c in lower}, {c.party: c for c in upper}
    converters = []
    for party in sorted(low.keys() | up.keys()):
        if party not in low or party not in up:
            converters.append(low.get(party) or up[party])
            continue
        pc, qc = low[party], up[party]
        wires = [(("q", cp), ("p", rp)) for cp, rp in qc.wiring if (party, rp) in inner]
        external = pc.wiring + tuple(w for w in qc.wiring if (party, w[1]) not in inner)
        comb = Network([("p", pc.comb), ("q", qc.comb)], wires, items[party]).evaluate()
        converters.append(Converter(party, comb, external))
    return Protocol(source, target, tuple(converters), tuple(schedule))


def _positions_by_declared_round(p: Protocol) -> list[int]:
    """For each round j of p's declared target, the last index in p.schedule
    (1-based) that must have executed before round j is complete."""
    derived = p.network(p.source).result_signature()
    tgt = p.target.signature
    emit_before = [0] * (tgt.rounds + 1)
    for port in derived.ports:
        j = tgt.port(port.id).round
        emit_before[j] = max(emit_before[j], port.round)
    for j in range(1, tgt.rounds + 1):
        emit_before[j] = max(emit_before[j], emit_before[j - 1])
    return emit_before


def seq_compose(q: Protocol, p: Protocol) -> Protocol:
    """Party-wise linking: run p, then q on p's target.  Each resource round
    in q's schedule runs p's schedule up to where that round of p's target
    is complete.  q's wires to its party's p converter are inner."""
    if p.target.signature != q.source.signature:
        raise InterfaceMismatch("q's source does not match p's target")
    emit_before = _positions_by_declared_round(p)
    order, done = [], 0  # `done` items of p.schedule are in `order`
    for lab, idx in q.schedule:
        if lab == RES:
            order += [("p", *item) for item in p.schedule[done : emit_before[idx]]]
            done = emit_before[idx]
        else:
            order.append(("q", lab, idx))
    order += [("p", *item) for item in p.schedule[done:]]
    inner = {(c.party, port) for c in p.converters for port in c.outer_ids()}
    return _stack(p.source, q.target, p.converters, q.converters, inner, order)


def par_compose(p: Protocol, q: Protocol) -> Protocol:
    """Tensor of protocols: p's schedule, then q's on the resource rounds
    after p's.  A party with a converter on both sides runs the two side by
    side; one with a converter on one side only is padded with the identity."""
    shift = p.source.signature.rounds
    order = [("p", lab, idx) for lab, idx in p.schedule]
    order += [("q", lab, idx + shift if lab == RES else idx) for lab, idx in q.schedule]
    src, tgt = tensor_behavior(p.source, q.source), tensor_behavior(p.target, q.target)
    return _stack(src, tgt, p.converters, q.converters, set(), order)


# ---------------------------------------------------------------------------
# deterministic sub-category


def is_deterministic(b: Behavior) -> bool:
    return all(v == 1 for col in b.kernel.cols for _i, v in col)


def lift_deterministic(p: Protocol) -> Protocol:
    """Check that every converter lies in the deterministic sub-category and
    return the protocol viewed inside the stochastic ambient; tables are
    unchanged, so applications and certificates carry over verbatim."""
    for c in p.converters:
        if not is_deterministic(c.comb):
            raise NotDeterministic(f"converter for {c.party!r} uses randomness")
    return p
