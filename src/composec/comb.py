"""Multi-round causal stochastic processes ("combs") and their composition.

A Behavior is the observable content of an interactive process: the
conditional distribution of all its outputs given all its inputs, together
with a signature assigning each port a party, a direction and a round.  The
table must be causal: outputs through round i may not depend on inputs of
later rounds.

Processes are composed by `Network`: a set of behaviors, a wiring between
output and input ports, and an explicit total order on the rounds of all
participants.  Evaluation runs the joint process forward, so the result is
causal by construction.  A network may contain one *symbolic* node, in which
case evaluation returns, for every transcript, an exact linear form over the
symbolic node's table entries; this is what turns simulator existence and
splittability questions into linear programs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    AcausalSchedule,
    AlphabetMismatch,
    ChainMismatch,
    DimensionMismatch,
    DirectionMismatch,
    DuplicatePortId,
    NotCausal,
    SignatureMismatch,
    WiringMismatch,
)
from .scalars import RATIONAL, TOL_EQ, Scalar, one, zero
from .stoch import (
    UNIT,
    Alphabet,
    Kernel,
    all_tuples,
    index_tuple,
    make_kernel,
    marginalize,
    permute_axes,
    ports_size,
    tuple_index,
)

IN = "in"
OUT = "out"


@dataclass(frozen=True)
class PortSpec:
    id: str
    party: str
    alphabet: Alphabet
    direction: str
    round: int

    def __post_init__(self) -> None:
        if self.direction not in (IN, OUT):
            raise ValueError(f"port {self.id!r}: direction must be 'in' or 'out'")
        if self.round < 1:
            raise ValueError(f"port {self.id!r}: round must be >= 1")


@dataclass(frozen=True)
class Signature:
    parties: tuple[str, ...]
    rounds: int
    ports: tuple[PortSpec, ...]

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("a signature has at least one round")
        ids = [p.id for p in self.ports]
        if len(set(ids)) != len(ids):
            raise DuplicatePortId(f"duplicate port ids in signature: {sorted(ids)}")
        for p in self.ports:
            if p.round > self.rounds:
                raise ValueError(f"port {p.id!r} in round {p.round} > {self.rounds}")
            if p.party not in self.parties:
                raise ValueError(f"port {p.id!r} names unknown party {p.party!r}")

    def ins(self) -> tuple[PortSpec, ...]:
        return tuple(p for p in self.ports if p.direction == IN)

    def outs(self) -> tuple[PortSpec, ...]:
        return tuple(p for p in self.ports if p.direction == OUT)

    def port(self, pid: str) -> PortSpec:
        for p in self.ports:
            if p.id == pid:
                return p
        raise KeyError(pid)

    def round_ins(self, r: int) -> tuple[PortSpec, ...]:
        return tuple(p for p in self.ports if p.direction == IN and p.round == r)

    def round_outs(self, r: int) -> tuple[PortSpec, ...]:
        return tuple(p for p in self.ports if p.direction == OUT and p.round == r)


def make_signature(parties: Sequence[str], rounds: int, ports: Sequence[PortSpec]) -> Signature:
    return Signature(tuple(parties), rounds, tuple(ports))


@dataclass(frozen=True)
class Behavior:
    """Conditional transcript table P(all outputs | all inputs).

    The kernel's domain lists the in-ports and its codomain the out-ports,
    both in signature order.
    """

    signature: Signature
    kernel: Kernel

    @property
    def mode(self) -> str:
        return self.kernel.mode


def make_behavior(signature: Signature, kernel: Kernel, check: bool = True) -> Behavior:
    ins = tuple(p.alphabet for p in signature.ins())
    outs = tuple(p.alphabet for p in signature.outs())
    if kernel.dom != ins or kernel.cod != outs:
        raise DimensionMismatch(
            f"kernel ports {[a.name for a in kernel.dom]} -> {[a.name for a in kernel.cod]} "
            f"do not match signature {[a.name for a in ins]} -> {[a.name for a in outs]}"
        )
    b = Behavior(signature, kernel)
    if check:
        report = causality_report(b)
        if not report.ok:
            raise NotCausal(str(report.violations[0]))
    return b


def behavior_from_table(signature: Signature, table, mode: str = RATIONAL, check: bool = True) -> Behavior:
    ins = tuple(p.alphabet for p in signature.ins())
    outs = tuple(p.alphabet for p in signature.outs())
    return make_behavior(signature, make_kernel(ins, outs, table, mode), check)


def trivial_behavior(mode: str = RATIONAL) -> Behavior:
    sig = Signature((), 1, ())
    return Behavior(sig, make_kernel((), (), [[1]], mode))


def to_float_behavior(b: Behavior) -> Behavior:
    from .stoch import to_float

    return Behavior(b.signature, to_float(b.kernel))


# ---------------------------------------------------------------------------
# causality


@dataclass(frozen=True)
class CausalityViolation:
    round: int
    x_prefix: tuple[tuple[str, int], ...]
    x_pair: tuple[tuple[int, ...], tuple[int, ...]]

    def __str__(self) -> str:
        pre = ", ".join(f"{pid}={v}" for pid, v in self.x_prefix)
        return (
            f"outputs through round {self.round} differ for input suffixes "
            f"{self.x_pair[0]} vs {self.x_pair[1]} (shared prefix {pre or 'empty'})"
        )


@dataclass(frozen=True)
class CausalityReport:
    ok: bool
    violations: tuple[CausalityViolation, ...]


def causality_report(b: Behavior) -> CausalityReport:
    """No signalling from the future: for each round i the distribution of
    outputs up to round i must be the same for all settings of later inputs."""
    sig = b.signature
    ins = sig.ins()
    outs = sig.outs()
    tol = 0 if b.mode == RATIONAL else TOL_EQ
    violations = []
    for r in range(1, sig.rounds + 1):
        late = [k for k, p in enumerate(ins) if p.round > r]
        if not late:
            continue
        keep = [k for k, p in enumerate(outs) if p.round <= r]
        marg = marginalize(b.kernel, keep)
        early = [k for k, p in enumerate(ins) if p.round <= r]
        groups: dict[tuple[int, ...], int] = {}
        for j in range(marg.n_dom):
            x = index_tuple(marg.dom, j)
            key = tuple(x[k] for k in early)
            if key not in groups:
                groups[key] = j
                continue
            j0 = groups[key]
            same = all(
                (marg.matrix[i][j] == marg.matrix[i][j0])
                if b.mode == RATIONAL
                else abs(marg.matrix[i][j] - marg.matrix[i][j0]) <= tol
                for i in range(marg.n_cod)
            )
            if not same:
                x0 = index_tuple(marg.dom, j0)
                prefix = tuple((ins[k].id, x[k]) for k in early)
                violations.append(
                    CausalityViolation(
                        r,
                        prefix,
                        (tuple(x0[k] for k in late), tuple(x[k] for k in late)),
                    )
                )
                break
        if violations:
            break
    return CausalityReport(not violations, tuple(violations))


def check_causal(b: Behavior) -> CausalityReport:
    return causality_report(b)


# ---------------------------------------------------------------------------
# comb kernels (memoryful round-by-round presentation)


@dataclass(frozen=True)
class CombKernels:
    """Per-round kernels f_i: M_(i-1) (x) X_i -> Y_i (x) M_i with trivial
    first and last memories."""

    signature: Signature
    memories: tuple[Alphabet, ...]
    kernels: tuple[Kernel, ...]

    def __post_init__(self) -> None:
        k = self.signature.rounds
        if len(self.memories) != k + 1 or len(self.kernels) != k:
            raise ChainMismatch("need k kernels and k+1 memories")
        if self.memories[0].size != 1 or self.memories[-1].size != 1:
            raise ChainMismatch("first and last memories must be trivial")
        for i, f in enumerate(self.kernels, start=1):
            want_dom = (self.memories[i - 1],) + tuple(p.alphabet for p in self.signature.round_ins(i))
            want_cod = tuple(p.alphabet for p in self.signature.round_outs(i)) + (self.memories[i],)
            if f.dom != want_dom or f.cod != want_cod:
                raise ChainMismatch(f"round {i} kernel interface does not chain")


def flatten(c: CombKernels) -> Behavior:
    """Sum out the memory wires, producing the conditional transcript table."""
    sig = c.signature
    ins, outs = sig.ins(), sig.outs()
    in_alphas = tuple(p.alphabet for p in ins)
    out_alphas = tuple(p.alphabet for p in outs)
    # processing order of outputs: round by round, signature order inside
    proc_outs = [k for r in range(1, sig.rounds + 1) for k, p in enumerate(outs) if p.round == r]
    inv_out = {k: pos for pos, k in enumerate(proc_outs)}
    round_in_pos = [
        [k for k, p in enumerate(ins) if p.round == r] for r in range(1, sig.rounds + 1)
    ]
    mode = c.kernels[0].mode if c.kernels else RATIONAL
    n_in, n_out = ports_size(in_alphas), ports_size(out_alphas)
    table = [[zero(mode)] * n_in for _ in range(n_out)]
    for j, x in enumerate(all_tuples(in_alphas)):
        states: dict[tuple[tuple[int, ...], int], Scalar] = {((), 0): one(mode)}
        for r in range(1, sig.rounds + 1):
            f = c.kernels[r - 1]
            x_r = tuple(x[k] for k in round_in_pos[r - 1])
            n_round_outs = len(f.cod) - 1
            new_states: dict[tuple[tuple[int, ...], int], Scalar] = {}
            for (ys, mem), w in states.items():
                col = tuple_index(f.dom, (mem,) + x_r)
                for i in range(f.n_cod):
                    p = f.matrix[i][col]
                    if not p:
                        continue
                    cod_vals = index_tuple(f.cod, i)
                    y_new = ys + cod_vals[:n_round_outs]
                    key = (y_new, cod_vals[-1])
                    new_states[key] = new_states.get(key, zero(mode)) + w * p
            states = new_states
        for (ys, _m), w in states.items():
            y_sig = tuple(ys[inv_out[k]] for k in range(len(outs)))
            table[tuple_index(out_alphas, y_sig)][j] += w
    kernel = make_kernel(in_alphas, out_alphas, table, mode)
    return Behavior(sig, kernel)


_REALIZE_CACHE: "weakref.WeakKeyDictionary[Behavior, CombKernels]" = weakref.WeakKeyDictionary()


def realize(b: Behavior) -> CombKernels:
    """Transcript-memory realization: memory i stores everything seen through
    round i, and round i emits with the conditional P(y_i | x..i, y..i-1).

    flatten(realize(b)) reproduces b exactly.  Results are cached per
    behavior instance; everything is immutable so sharing is safe.
    """
    cached = _REALIZE_CACHE.get(b) if _REALIZE_CACHE is not None else None
    if cached is not None:
        return cached
    comb = _realize(b)
    if _REALIZE_CACHE is not None:
        _REALIZE_CACHE[b] = comb
    return comb


def _realize(b: Behavior) -> CombKernels:
    report = causality_report(b)
    if not report.ok:
        raise NotCausal(str(report.violations[0]))
    sig = b.signature
    ins, outs = sig.ins(), sig.outs()
    in_alphas = tuple(p.alphabet for p in ins)
    mode = b.mode
    k = sig.rounds
    # ports seen through round r, in (round, kind, signature position) order
    seen: list[list[tuple[str, int, Alphabet]]] = []  # (kind, sig position, alphabet)
    running: list[tuple[str, int, Alphabet]] = []
    for r in range(1, k + 1):
        for pos, p in enumerate(ins):
            if p.round == r:
                running.append(("in", pos, p.alphabet))
        for pos, p in enumerate(outs):
            if p.round == r:
                running.append(("out", pos, p.alphabet))
        seen.append(list(running))
    memories = [UNIT]
    for r in range(1, k):
        size = 1
        for _, _, a in seen[r - 1]:
            size *= a.size
        memories.append(Alphabet(f"mem{r}", size))
    memories.append(UNIT)

    outs_le = [[pos for pos, p in enumerate(outs) if p.round <= r] for r in range(0, k + 1)]
    margs = [marginalize(b.kernel, outs_le[r]) for r in range(0, k + 1)]

    def prefix_prob(r, x_by_pos, y_by_pos):
        """P(outputs through round r | inputs through round r), future inputs 0."""
        marg = margs[r]
        x_full = [0] * len(ins)
        for pos, v in x_by_pos.items():
            x_full[pos] = v
        y_vals = tuple(y_by_pos[pos] for pos in outs_le[r])
        return marg.matrix[tuple_index(marg.cod, y_vals)][tuple_index(in_alphas, x_full)]

    kernels = []
    for r in range(1, k + 1):
        r_ins = [(pos, p) for pos, p in enumerate(ins) if p.round == r]
        r_outs = [(pos, p) for pos, p in enumerate(outs) if p.round == r]
        dom = (memories[r - 1],) + tuple(p.alphabet for _, p in r_ins)
        cod = tuple(p.alphabet for _, p in r_outs) + (memories[r],)
        hist_ports = seen[r - 1]
        prev_ports = seen[r - 2] if r >= 2 else []
        n_dom = ports_size(dom)
        n_cod = ports_size(cod)
        table = [[zero(mode)] * n_dom for _ in range(n_cod)]
        for col in range(n_dom):
            dom_vals = index_tuple(dom, col)
            mem_val, x_r = dom_vals[0], dom_vals[1:]
            # decode the transcript stored in memory
            prev_alphas = tuple(a for _, _, a in prev_ports)
            prev_vals = index_tuple(prev_alphas, mem_val) if prev_ports else ()
            x_by_pos = {pos: v for (kind, pos, _), v in zip(prev_ports, prev_vals) if kind == "in"}
            y_by_pos = {pos: v for (kind, pos, _), v in zip(prev_ports, prev_vals) if kind == "out"}
            for (pos, _p), v in zip(r_ins, x_r):
                x_by_pos[pos] = v
            den = prefix_prob(r - 1, x_by_pos, y_by_pos) if r >= 2 else one(mode)
            out_alphas_r = tuple(p.alphabet for _, p in r_outs)
            for y_r in all_tuples(out_alphas_r):
                y2 = dict(y_by_pos)
                for (pos, _p), v in zip(r_outs, y_r):
                    y2[pos] = v
                if den == 0:
                    p_y = Fraction(1, ports_size(out_alphas_r)) if mode == RATIONAL else 1.0 / ports_size(out_alphas_r)
                else:
                    p_y = prefix_prob(r, x_by_pos, y2) / den
                if r < k:
                    hist_vals = tuple(
                        (x_by_pos[pos] if kind == "in" else y2[pos]) for kind, pos, _ in hist_ports
                    )
                    mem_next = tuple_index(tuple(a for _, _, a in hist_ports), hist_vals)
                else:
                    mem_next = 0
                if p_y:
                    table[tuple_index(cod, y_r + (mem_next,))][col] += p_y
        kernels.append(make_kernel(dom, cod, table, mode))
    return CombKernels(sig, tuple(memories), tuple(kernels))


# ---------------------------------------------------------------------------
# canonical round structure


def canonical_rounds(sig: Signature) -> tuple[Signature, tuple[int, ...]]:
    """Regroup rounds into maximal in*/out* runs of the moment order and sort
    ports by (new round, direction, id).  Returns the new signature plus the
    port order as indices into the old one.  The regrouping preserves exactly
    which outputs may depend on which inputs, so causality is untouched."""
    moment_order = sorted(
        range(len(sig.ports)),
        key=lambda i: (sig.ports[i].round, 0 if sig.ports[i].direction == IN else 1, sig.ports[i].id),
    )
    new_round = {}
    rnd, phase = 1, IN
    for i in moment_order:
        p = sig.ports[i]
        if p.direction == IN and phase == OUT:
            rnd += 1
            phase = IN
        elif p.direction == OUT:
            phase = OUT
        new_round[i] = rnd
    order = sorted(
        range(len(sig.ports)),
        key=lambda i: (new_round[i], 0 if sig.ports[i].direction == IN else 1, sig.ports[i].id),
    )
    new_ports = tuple(replace(sig.ports[i], round=new_round[i]) for i in order)
    parties = tuple(sorted({p.party for p in new_ports}))
    return Signature(parties, max(rnd, 1), new_ports), tuple(order)


def canonical(b: Behavior) -> Behavior:
    """Normal form for observational comparison; see canonical_rounds."""
    sig = b.signature
    new_sig, order = canonical_rounds(sig)
    ins_old = [i for i in range(len(sig.ports)) if sig.ports[i].direction == IN]
    outs_old = [i for i in range(len(sig.ports)) if sig.ports[i].direction == OUT]
    dom_perm = [ins_old.index(i) for i in order if sig.ports[i].direction == IN]
    cod_perm = [outs_old.index(i) for i in order if sig.ports[i].direction == OUT]
    return Behavior(new_sig, permute_axes(b.kernel, dom_perm, cod_perm))


def rename_ports(b: Behavior, mapping: dict[str, str]) -> Behavior:
    ports = tuple(replace(p, id=mapping.get(p.id, p.id)) for p in b.signature.ports)
    return Behavior(replace(b.signature, ports=ports), b.kernel)


def align_to(b: Behavior, ref: Signature) -> Behavior:
    """Permute b's ports into ref's order (matching by id) and adopt ref.

    Requires identical port data and an order-isomorphic round structure;
    raises SignatureMismatch otherwise.
    """
    by_id = {p.id: (i, p) for i, p in enumerate(b.signature.ports)}
    if set(by_id) != {p.id for p in ref.ports}:
        raise SignatureMismatch(
            f"port ids {sorted(by_id)} vs {sorted(p.id for p in ref.ports)}"
        )
    perm = []
    for p in ref.ports:
        i, q = by_id[p.id]
        if (q.party, q.alphabet, q.direction) != (p.party, p.alphabet, p.direction):
            raise SignatureMismatch(f"port {p.id!r} differs between signatures")
        perm.append(i)
    ins_old = [i for i in range(len(b.signature.ports)) if b.signature.ports[i].direction == IN]
    outs_old = [i for i in range(len(b.signature.ports)) if b.signature.ports[i].direction == OUT]
    dom_perm = [ins_old.index(i) for i in perm if b.signature.ports[i].direction == IN]
    cod_perm = [outs_old.index(i) for i in perm if b.signature.ports[i].direction == OUT]
    aligned = Behavior(ref, permute_axes(b.kernel, dom_perm, cod_perm))
    if not causality_report(aligned).ok:
        raise SignatureMismatch("round structures are not compatible")
    return aligned


# ---------------------------------------------------------------------------
# comparison


def behavior_equal(a: Behavior, b: Behavior, tol: Scalar = 0) -> bool:
    if a.signature != b.signature:
        raise SignatureMismatch("behaviors have different signatures")
    if a.mode == RATIONAL:
        if tol != 0:
            raise ValueError("rational mode requires tol = 0")
        return a.kernel.matrix == b.kernel.matrix
    return all(
        abs(x - y) <= tol for rx, ry in zip(a.kernel.matrix, b.kernel.matrix) for x, y in zip(rx, ry)
    )


def observationally_equal(a: Behavior, b: Behavior, tol: Scalar = 0) -> bool:
    """Equality after canonicalization and port alignment."""
    ca, cb = canonical(a), canonical(b)
    try:
        cb = align_to(cb, ca.signature)
    except SignatureMismatch:
        return False
    return behavior_equal(ca, cb, tol)


def _round_offsets(ports: Sequence[PortSpec], r: int) -> tuple[int, ...]:
    """Index offsets, within the table of all `ports`, of every value of the
    round-r ports (row-major, leftmost port most significant)."""
    stride = 1
    picked = []
    for p in reversed(ports):
        if p.round == r:
            picked.append((p.alphabet, stride))
        stride *= p.alphabet.size
    picked.reverse()
    return tuple(
        sum(v * s for v, (_a, s) in zip(vals, picked))
        for vals in all_tuples(tuple(a for a, _s in picked))
    )


def decision_rounds(sig: Signature) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The adaptive distinguisher's decision tree, one entry per round: the
    column offsets of the round's input choices and the row offsets of its
    outputs.  A history x_1 y_1 ... x_r y_r is identified by the sums of its
    offsets, and a full history's sums are its table cell (column, row)."""
    ins, outs = sig.ins(), sig.outs()
    return tuple(
        (_round_offsets(ins, r), _round_offsets(outs, r)) for r in range(1, sig.rounds + 1)
    )


def behavior_distance(a: Behavior, b: Behavior) -> Scalar:
    """Distinguisher advantage: max over adaptive strategies of the total
    variation distance between induced transcript distributions.

    Backward induction over the decision tree: a node's value is the best
    input choice's sum of its children's values, a leaf's value is
    |a[y|x] - b[y|x]|, and the advantage is half the root's value.  This is
    linear in the table size."""
    if a.signature != b.signature:
        raise SignatureMismatch("behaviors have different signatures")
    steps = decision_rounds(a.signature)
    ma, mb = a.kernel.matrix, b.kernel.matrix

    def value(r: int, j: int, i: int) -> Scalar:
        if r == len(steps):
            return abs(ma[i][j] - mb[i][j])
        xs, ys = steps[r]
        return max(sum(value(r + 1, j + dj, i + di) for di in ys) for dj in xs)

    return value(0, 0, 0) / 2


# ---------------------------------------------------------------------------
# linking networks


PortRef = tuple[str, str]  # (node label, port id)
Wire = tuple[PortRef, PortRef]
ScheduleItem = tuple[str, int]  # (node label, round)


class Network:
    """Behaviors wired together under an explicit global round order.

    `nodes` maps labels to Behaviors; at most one label may instead map to a
    bare Signature, making that node symbolic.  Wires join an out-port to an
    in-port of matching alphabet.  The schedule is a total order on all
    (label, round) pairs, consistent with each node's own round order; every
    wire's producer must be scheduled before its consumer.
    """

    def __init__(
        self,
        nodes: Sequence[tuple[str, Union[Behavior, Signature]]],
        wires: Sequence[Wire],
        schedule: Sequence[ScheduleItem],
    ) -> None:
        self.labels = [lab for lab, _ in nodes]
        if len(set(self.labels)) != len(self.labels):
            raise DuplicatePortId(f"duplicate node labels {self.labels}")
        self.behaviors: dict[str, Optional[Behavior]] = {}
        self.signatures: dict[str, Signature] = {}
        self.symbolic: Optional[str] = None
        for lab, item in nodes:
            if isinstance(item, Behavior):
                self.behaviors[lab] = item
                self.signatures[lab] = item.signature
            else:
                if self.symbolic is not None:
                    raise WiringMismatch("at most one symbolic node is supported")
                self.symbolic = lab
                self.behaviors[lab] = None
                self.signatures[lab] = item
        self.wires = [((a[0], a[1]), (b[0], b[1])) for a, b in wires]
        self.schedule = list(schedule)
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        expected = {(lab, r) for lab in self.labels for r in range(1, self.signatures[lab].rounds + 1)}
        if set(self.schedule) != expected or len(self.schedule) != len(expected):
            raise AcausalSchedule(
                f"schedule {self.schedule} does not cover each node round exactly once"
            )
        last: dict[str, int] = {}
        for lab, r in self.schedule:
            if r <= last.get(lab, 0):
                raise AcausalSchedule(f"schedule violates round order of node {lab!r}")
            last[lab] = r
        pos = {item: t for t, item in enumerate(self.schedule)}
        self._wire_out: list[PortRef] = []
        self._wire_in: list[PortRef] = []
        used: set[PortRef] = set()
        for a, b in self.wires:
            pa, pb = self._port(a), self._port(b)
            if pa.direction == OUT and pb.direction == IN:
                src, dst, ps, pd = a, b, pa, pb
            elif pa.direction == IN and pb.direction == OUT:
                src, dst, ps, pd = b, a, pb, pa
            else:
                raise DirectionMismatch(f"wire {a} -> {b} must join an out-port to an in-port")
            if ps.alphabet != pd.alphabet:
                raise AlphabetMismatch(f"wire {src} -> {dst}: {ps.alphabet.name} vs {pd.alphabet.name}")
            if src in used or dst in used:
                raise WiringMismatch(f"port wired twice: {src if src in used else dst}")
            used.add(src)
            used.add(dst)
            if pos[(src[0], ps.round)] >= pos[(dst[0], pd.round)]:
                raise AcausalSchedule(
                    f"wire {src} -> {dst} consumes an output before it is produced"
                )
            self._wire_out.append(src)
            self._wire_in.append(dst)
        self._wired = used
        ext_ids = [p.id for lab in self.labels for p in self.signatures[lab].ports if (lab, p.id) not in used]
        if len(set(ext_ids)) != len(ext_ids):
            raise DuplicatePortId(f"external port ids clash: {sorted(ext_ids)}")

    def _port(self, ref: PortRef) -> PortSpec:
        lab, pid = ref
        try:
            return self.signatures[lab].port(pid)
        except KeyError:
            raise WiringMismatch(f"no port {pid!r} on node {lab!r}") from None

    # -- result signature -----------------------------------------------------

    def result_signature(self) -> Signature:
        ports = []
        for t, (lab, r) in enumerate(self.schedule, start=1):
            for p in self.signatures[lab].ports:
                if p.round == r and (lab, p.id) not in self._wired:
                    ports.append(replace(p, round=t))
        parties: list[str] = []
        for lab in self.labels:
            for pty in self.signatures[lab].parties:
                if pty not in parties:
                    parties.append(pty)
        return Signature(tuple(parties), max(len(self.schedule), 1), tuple(ports))

    # -- evaluation -----------------------------------------------------------

    def _prepare(self):
        mode = None
        for lab in self.labels:
            b = self.behaviors[lab]
            if b is not None:
                mode = b.mode if mode is None else mode
                if b.mode != mode:
                    raise WiringMismatch("nodes use different scalar modes")
        self._mode = mode or RATIONAL
        self._combs = {
            lab: realize(b) for lab, b in self.behaviors.items() if b is not None
        }
        wire_index = {ref: k for k, ref in enumerate(self._wire_in)}
        out_wire = {ref: k for k, ref in enumerate(self._wire_out)}
        # per schedule item: the port plumbing needed to run that round
        self._plan = []
        for lab, r in self.schedule:
            sig = self.signatures[lab]
            ins = [
                (p, ("wire", wire_index[(lab, p.id)]) if (lab, p.id) in wire_index else ("ext", p.id))
                for p in sig.round_ins(r)
            ]
            outs = [
                (p, ("wire", out_wire[(lab, p.id)]) if (lab, p.id) in out_wire else ("ext", p.id))
                for p in sig.round_outs(r)
            ]
            self._plan.append((lab, r, ins, outs))
        self._numeric_labels = [lab for lab in self.labels if self.behaviors[lab] is not None]
        self._mem_pos = {lab: i for i, lab in enumerate(self._numeric_labels)}
        if self.symbolic is not None:
            # map consumption order (round by round) back to signature order
            sym = self.signatures[self.symbolic]
            ins, outs = sym.ins(), sym.outs()
            in_cons = [k for r in range(1, sym.rounds + 1) for k, p in enumerate(ins) if p.round == r]
            out_cons = [k for r in range(1, sym.rounds + 1) for k, p in enumerate(outs) if p.round == r]
            self._sym_in_inv = [in_cons.index(k) for k in range(len(ins))]
            self._sym_out_inv = [out_cons.index(k) for k in range(len(outs))]

    def _run(self, x_ext: dict[str, int], symbolic: bool):
        """Forward-simulate one external input assignment.

        Returns {y_tuple: weight} for numeric evaluation, or
        {y_tuple: {var_index: coeff}} when a symbolic node is present.
        """
        mode = self._mode
        n_wires = len(self.wires)
        init_mems = tuple(0 for _ in self._numeric_labels)
        # state: (mems, wire values, external outputs so far, symbolic history)
        states: dict[tuple, Scalar] = {(init_mems, (None,) * n_wires, (), ()): one(mode)}
        for lab, r, ins, outs in self._plan:
            new_states: dict[tuple, Scalar] = {}
            consumed = [spec[1] for _p, spec in ins if spec[0] == "wire"]
            if self.behaviors[lab] is not None:
                comb = self._combs[lab]
                f = comb.kernels[r - 1]
                n_round_outs = len(f.cod) - 1
                mem_i = self._mem_pos[lab]
                col_cache: dict[int, list] = {}
                for (mems, wvals, ys, hist), w in states.items():
                    x_vals = tuple(
                        wvals[spec[1]] if spec[0] == "wire" else x_ext[spec[1]]
                        for _p, spec in ins
                    )
                    col = tuple_index(f.dom, (mems[mem_i],) + x_vals)
                    moves = col_cache.get(col)
                    if moves is None:
                        moves = []
                        for i in range(f.n_cod):
                            p = f.matrix[i][col]
                            if p:
                                moves.append((index_tuple(f.cod, i), p))
                        col_cache[col] = moves
                    for cod_vals, p in moves:
                        y_r, mem_next = cod_vals[:n_round_outs], cod_vals[-1]
                        wv = list(wvals)
                        for k in consumed:
                            wv[k] = None
                        ys2 = ys
                        for (pp, spec), v in zip(outs, y_r):
                            if spec[0] == "wire":
                                wv[spec[1]] = v
                            else:
                                ys2 = ys2 + (v,)
                        mems2 = mems[:mem_i] + (mem_next,) + mems[mem_i + 1 :]
                        key = (mems2, tuple(wv), ys2, hist)
                        new_states[key] = new_states.get(key, zero(mode)) + w * p
            else:
                out_alphas = tuple(p.alphabet for p, _spec in outs)
                for (mems, wvals, ys, hist), w in states.items():
                    x_vals = tuple(
                        wvals[spec[1]] if spec[0] == "wire" else x_ext[spec[1]]
                        for _p, spec in ins
                    )
                    for y_r in all_tuples(out_alphas):
                        wv = list(wvals)
                        for k in consumed:
                            wv[k] = None
                        ys2 = ys
                        for (pp, spec), v in zip(outs, y_r):
                            if spec[0] == "wire":
                                wv[spec[1]] = v
                            else:
                                ys2 = ys2 + (v,)
                        key = (mems, tuple(wv), ys2, hist + ((x_vals, y_r),))
                        new_states[key] = new_states.get(key, zero(mode)) + w
            states = new_states
        if not symbolic:
            result: dict[tuple, Scalar] = {}
            for (_m, _w, ys, _h), w in states.items():
                result[ys] = result.get(ys, zero(mode)) + w
            return result
        sym_sig = self.signatures[self.symbolic]
        sym_ins = tuple(p.alphabet for p in sym_sig.ins())
        sym_outs = tuple(p.alphabet for p in sym_sig.outs())
        n_rows = ports_size(sym_outs)
        lin: dict[tuple, dict[int, Scalar]] = {}
        for (_m, _wv, ys, hist), w in states.items():
            xs_cons = tuple(v for x_r, _y in hist for v in x_r)
            yv_cons = tuple(v for _x, y_r in hist for v in y_r)
            xs = tuple(xs_cons[self._sym_in_inv[k]] for k in range(len(sym_ins)))
            yv = tuple(yv_cons[self._sym_out_inv[k]] for k in range(len(sym_outs)))
            var = tuple_index(sym_ins, xs) * n_rows + tuple_index(sym_outs, yv)
            forms = lin.setdefault(ys, {})
            forms[var] = forms.get(var, zero(mode)) + w
        return lin

    def evaluate(self, check: bool = False) -> Behavior:
        if self.symbolic is not None:
            raise WiringMismatch("network contains a symbolic node; use linear_evaluate")
        self._prepare()
        sig = self.result_signature()
        ins, outs = sig.ins(), sig.outs()
        in_alphas = tuple(p.alphabet for p in ins)
        out_alphas = tuple(p.alphabet for p in outs)
        table = [[zero(self._mode)] * ports_size(in_alphas) for _ in range(ports_size(out_alphas))]
        for j, x in enumerate(all_tuples(in_alphas)):
            x_ext = {p.id: v for p, v in zip(ins, x)}
            for ys, w in self._run(x_ext, symbolic=False).items():
                table[tuple_index(out_alphas, ys)][j] += w
        kernel = make_kernel(in_alphas, out_alphas, table, self._mode)
        return make_behavior(sig, kernel, check=check)

    def linear_evaluate(self):
        """Returns (signature, columns) where columns[x_index][y_index] is a
        LinForm over the symbolic node's table entries.

        Variable k stands for entry (column x_sym, row y_sym) of the symbolic
        node's behavior table with k = x_sym * n_rows + y_sym; the symbolic
        node's interaction is affine in its whole table, so the composite
        transcript weights are exact linear forms.
        """
        if self.symbolic is None:
            raise WiringMismatch("no symbolic node in this network")
        self._prepare()
        sig = self.result_signature()
        ins, outs = sig.ins(), sig.outs()
        in_alphas = tuple(p.alphabet for p in ins)
        out_alphas = tuple(p.alphabet for p in outs)
        columns = []
        for x in all_tuples(in_alphas):
            x_ext = {p.id: v for p, v in zip(ins, x)}
            col: dict[int, dict[int, Scalar]] = {}
            for ys, forms in self._run(x_ext, symbolic=True).items():
                col[tuple_index(out_alphas, ys)] = forms
            columns.append(col)
        return sig, columns


def _wire_deps(signatures: dict[str, Signature], wires: Sequence[Wire]):
    """For each (label, round), the (label, round) items that must fire first
    because they produce a wired input."""
    producer_of: dict[PortRef, tuple[str, int]] = {}
    consumer_deps: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for a, b in wires:
        pa = signatures[a[0]].port(a[1])
        pb = signatures[b[0]].port(b[1])
        if pa.direction == OUT:
            src, dst, ps, pd = a, b, pa, pb
        else:
            src, dst, ps, pd = b, a, pb, pa
        producer_of[dst] = (src[0], ps.round)
        consumer_deps.setdefault((dst[0], pd.round), []).append((src[0], ps.round))
    return consumer_deps


def schedule_to_match(
    node_items: Sequence[tuple[str, Union[Behavior, Signature]]],
    wires: Sequence[Wire],
    target: Signature,
) -> list[ScheduleItem]:
    """Find a schedule whose external ports occur in the moment order of
    `target` (matching ports by id), firing rounds as late as possible.

    Lazy firing is optimal here: a round is only scheduled when some already
    required moment needs it, so if the result still misses the target order
    no schedule would have achieved it (the final canonical comparison is the
    arbiter).  Raises AcausalSchedule on cyclic wiring.
    """
    signatures = {
        lab: (item.signature if isinstance(item, Behavior) else item) for lab, item in node_items
    }
    deps = _wire_deps(signatures, wires)
    wired_refs = {ref for pair in wires for ref in pair}
    locate: dict[str, tuple[str, int]] = {}
    for lab, sig in signatures.items():
        for p in sig.ports:
            if (lab, p.id) not in wired_refs:
                locate[p.id] = (lab, p.round)
    schedule: list[ScheduleItem] = []
    next_round = {lab: 1 for lab in signatures}
    in_progress: set[tuple[str, int]] = set()

    def fire_upto(lab: str, k: int) -> None:
        if (lab, k) in in_progress:
            raise AcausalSchedule(f"cyclic wiring around node {lab!r} round {k}")
        in_progress.add((lab, k))
        try:
            while next_round[lab] <= k:
                r = next_round[lab]
                for dlab, dk in deps.get((lab, r), ()):  # producers first
                    fire_upto(dlab, dk)
                if next_round[lab] == r:  # not fired recursively meanwhile
                    schedule.append((lab, r))
                    next_round[lab] = r + 1
        finally:
            in_progress.discard((lab, k))

    order = sorted(
        range(len(target.ports)),
        key=lambda i: (target.ports[i].round, 0 if target.ports[i].direction == IN else 1, target.ports[i].id),
    )
    for i in order:
        pid = target.ports[i].id
        if pid not in locate:
            raise SignatureMismatch(f"target port {pid!r} is not an external port of the network")
        lab, k = locate[pid]
        fire_upto(lab, k)
    for lab, sig in signatures.items():
        fire_upto(lab, sig.rounds)
    return schedule


def merge_asap(
    node_items: Sequence[tuple[str, Union[Behavior, Signature]]],
    wires: Sequence[Wire],
    view_label: str,
) -> list[ScheduleItem]:
    """Total order firing non-view rounds as soon as their wired inputs are
    available, advancing the view only when nothing else can run."""
    signatures = {
        lab: (item.signature if isinstance(item, Behavior) else item) for lab, item in node_items
    }
    deps = _wire_deps(signatures, wires)
    fired: set[tuple[str, int]] = set()
    next_round = {lab: 1 for lab in signatures}
    others = [lab for lab in signatures if lab != view_label]
    schedule: list[ScheduleItem] = []
    total = sum(sig.rounds for sig in signatures.values())
    while len(schedule) < total:
        progressed = False
        for lab in others + [view_label]:
            r = next_round[lab]
            if r > signatures[lab].rounds:
                continue
            if all(d in fired for d in deps.get((lab, r), ())):
                schedule.append((lab, r))
                fired.add((lab, r))
                next_round[lab] = r + 1
                progressed = True
                break
        if not progressed:
            raise AcausalSchedule("wiring admits no causal schedule")
    return schedule


def link(
    a: Behavior,
    b: Behavior,
    wiring: Sequence[tuple[str, str]],
    schedule: Sequence[ScheduleItem],
    check: bool = False,
) -> Behavior:
    """Wire two behaviors together; `wiring` pairs an a-port id with a b-port
    id (directions inferred), and `schedule` totally orders the rounds using
    labels "a" and "b"."""
    wires = [(("a", pa), ("b", pb)) for pa, pb in wiring]
    return Network([("a", a), ("b", b)], wires, schedule).evaluate(check=check)


def tensor_behavior(a: Behavior, b: Behavior, schedule: Optional[Sequence[ScheduleItem]] = None) -> Behavior:
    """Parallel composition; by default a's rounds come first."""
    from .stoch import tensor as kernel_tensor

    if not b.signature.ports and schedule is None:
        return a
    if not a.signature.ports and schedule is None:
        return b
    if schedule is None:
        schedule = [("a", r) for r in range(1, a.signature.rounds + 1)] + [
            ("b", r) for r in range(1, b.signature.rounds + 1)
        ]
    expected = {("a", r) for r in range(1, a.signature.rounds + 1)} | {
        ("b", r) for r in range(1, b.signature.rounds + 1)
    }
    if set(schedule) != expected or len(schedule) != len(expected):
        raise AcausalSchedule("tensor schedule must cover each round exactly once")
    last = {}
    for lab, r in schedule:
        if r <= last.get(lab, 0):
            raise AcausalSchedule("tensor schedule violates a node's round order")
        last[lab] = r
    pos = {item: t + 1 for t, item in enumerate(schedule)}
    ports = [replace(p, round=pos[("a", p.round)]) for p in a.signature.ports] + [
        replace(p, round=pos[("b", p.round)]) for p in b.signature.ports
    ]
    parties = list(a.signature.parties) + [
        p for p in b.signature.parties if p not in a.signature.parties
    ]
    sig = Signature(tuple(parties), len(schedule), tuple(ports))
    return make_behavior(sig, kernel_tensor(a.kernel, b.kernel), check=False)
