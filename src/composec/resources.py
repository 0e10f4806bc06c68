"""n-partite resources and the protocols that transform them.

A Resource is a causal behavior whose ports are owned by parties.  A
Protocol gives each party a local converter: a comb that consumes some of
that party's resource ports (its wiring) and exposes fresh ports; resource
ports left unwired pass through to the target untouched, so the identity
converter is simply "no converter".  A protocol also fixes the global
round order in which converter rounds interleave with resource rounds,
because linking is only defined relative to an explicit schedule.

Construction validates the whole shape statically: the wired network is
built (without being evaluated) and its canonical signature must match the
declared target's.  `apply_protocol` therefore only computes tables.
"""

from __future__ import annotations

from typing import Optional

from .comb import (
    Behavior,
    Network,
    ScheduleItem,
    Signature,
    align_to,
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


class Resource(Record):
    behavior: Behavior
    name: str = ""

    @property
    def signature(self) -> Signature:
        return self.behavior.signature


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

    source: Resource
    target: Resource
    converters: tuple[Converter, ...]
    schedule: tuple[ScheduleItem, ...]
    name: str

    def __init__(
        self,
        source: Resource,
        target: Resource,
        converters: tuple[Converter, ...],
        schedule: tuple[ScheduleItem, ...],
        name: str = "",
    ) -> None:
        super().__init__(source, target, converters, schedule, name)
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
        net = self._network(self.source.behavior)
        derived = net.result_signature()
        want = canonical_rounds(self.target.signature)[0]
        got = canonical_rounds(derived)[0]
        if want != got:
            raise WiringMismatch(
                f"protocol produces interface {_sig_brief(got)}, target declares {_sig_brief(want)}"
            )

    def _network(self, resource_behavior: Behavior) -> Network:
        nodes = [(RES, resource_behavior)]
        wires = []
        for c in self.converters:
            nodes.append((c.party, c.comb))
            for cp, rp in c.wiring:
                wires.append(((c.party, cp), (RES, rp)))
        return Network(nodes, wires, list(self.schedule))

    def converter_for(self, party: str) -> Optional[Converter]:
        for c in self.converters:
            if c.party == party:
                return c
        return None


def _sig_brief(sig: Signature) -> str:
    return "[" + ", ".join(f"{p.id}:{p.direction}@{p.round}" for p in sig.ports) + "]"


def identity_protocol(r: Resource, name: str = "identity") -> Protocol:
    sched = tuple((RES, i) for i in range(1, r.signature.rounds + 1))
    return Protocol(r, r, (), sched, name)


def apply_protocol(p: Protocol, r: Resource) -> Resource:
    """Link every converter onto r; the result carries the declared target
    signature.  r must present the source interface (tables may differ)."""
    if r.signature != p.source.signature:
        raise WiringMismatch("resource does not match the protocol's source interface")
    out = p._network(r.behavior).evaluate()
    return Resource(align_to(out, p.target.signature), name=p.target.name)


# ---------------------------------------------------------------------------
# sequential composition


def _positions_by_declared_round(p: Protocol) -> list[int]:
    """For each round j of p's declared target, the last index in p.schedule
    (1-based) that must have executed before round j is complete."""
    derived = p._network(p.source.behavior).result_signature()
    tgt = p.target.signature
    emit_before = [0] * (tgt.rounds + 1)
    for port in derived.ports:
        j = tgt.port(port.id).round
        emit_before[j] = max(emit_before[j], port.round)
    for j in range(1, tgt.rounds + 1):
        emit_before[j] = max(emit_before[j], emit_before[j - 1])
    return emit_before


def seq_compose(q: Protocol, p: Protocol, name: str = "") -> Protocol:
    """Party-wise linking: run p, then q on p's target."""
    if p.target.signature != q.source.signature:
        raise InterfaceMismatch("q's source does not match p's target")
    emit_before = _positions_by_declared_round(p)
    # interleave p's and q's schedules, expanding q's view of the middle
    # resource into p's execution order
    combined: list[tuple[str, tuple[str, int]]] = []  # (origin, item)
    pointer = 0

    def emit_p_through(limit: int) -> None:
        nonlocal pointer
        while pointer < limit:
            combined.append(("p", p.schedule[pointer]))
            pointer += 1

    for item in q.schedule:
        lab, idx = item
        if lab == RES:
            emit_p_through(emit_before[idx])
        else:
            combined.append(("q", item))
    emit_p_through(len(p.schedule))

    # per-party interleavings for the composite converter combs
    parties = {c.party for c in p.converters} | {c.party for c in q.converters}
    new_converters = []
    party_counts: dict[str, int] = {}
    renumbered: list[tuple[str, int]] = []
    party_pair_schedules: dict[str, list[tuple[str, int]]] = {pt: [] for pt in parties}
    for origin, (lab, idx) in combined:
        if lab == RES:  # q's middle rounds were expanded into p's
            renumbered.append((RES, idx))
        else:
            party_pair_schedules[lab].append((origin, idx))
            n = party_counts.get(lab, 0) + 1
            party_counts[lab] = n
            renumbered.append((lab, n))

    for party in sorted(parties):
        pc = p.converter_for(party)
        qc = q.converter_for(party)
        if pc is None or qc is None:
            new_converters.append(qc if pc is None else pc)
            continue
        # q's wires are internal if they hit an outer port of p's converter;
        # any other port of the party's is one p passed through, under the
        # same id
        outer = set(pc.outer_ids())
        internal = []
        external = list(pc.wiring)
        for cp, rp in qc.wiring:
            if rp in outer:
                internal.append((("q", cp), ("p", rp)))
            else:
                external.append((cp, rp))
        pair_sched = party_pair_schedules[party]
        comb = Network([("p", pc.comb), ("q", qc.comb)], internal, pair_sched).evaluate()
        new_converters.append(Converter(party, comb, tuple(external)))
    return Protocol(
        p.source,
        q.target,
        tuple(new_converters),
        tuple(renumbered),
        name or f"{q.name}.{p.name}",
    )


# ---------------------------------------------------------------------------
# parallel composition


def par_compose(p: Protocol, q: Protocol, name: str = "") -> Protocol:
    """Tensor of protocols; parties missing a converter on one side are
    implicitly padded with the identity."""
    src = Resource(tensor_behavior(p.source.behavior, q.source.behavior), name=f"{p.source.name}*{q.source.name}")
    tgt = Resource(tensor_behavior(p.target.behavior, q.target.behavior), name=f"{p.target.name}*{q.target.name}")
    parties = {c.party for c in p.converters} | {c.party for c in q.converters}
    converters = []
    p_rounds: dict[str, int] = {}
    for party in sorted(parties):
        pc = p.converter_for(party)
        qc = q.converter_for(party)
        if pc is not None and qc is None:
            converters.append(pc)
            p_rounds[party] = pc.comb.signature.rounds
        elif pc is None and qc is not None:
            converters.append(qc)
            p_rounds[party] = 0
        else:
            comb = tensor_behavior(pc.comb, qc.comb)
            converters.append(Converter(party, comb, pc.wiring + qc.wiring))
            p_rounds[party] = pc.comb.signature.rounds
    schedule: list[ScheduleItem] = []
    for lab, idx in p.schedule:
        schedule.append((lab, idx))
    for lab, idx in q.schedule:
        if lab == RES:
            schedule.append((RES, idx + p.source.signature.rounds))
        else:
            schedule.append((lab, idx + p_rounds.get(lab, 0)))
    return Protocol(src, tgt, tuple(converters), tuple(schedule), name or f"{p.name}|{q.name}")


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
