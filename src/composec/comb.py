"""Multi-round causal stochastic processes ("combs") and their composition.

A Behavior is the observable content of an interactive process: the
conditional distribution of all its outputs given all its inputs, together
with a signature assigning each port a party, a direction and a round.  The
table must be causal: outputs through round i may not depend on inputs of
later rounds.  `causal_rounds` states that rule once; `causality_report`
checks a table against it and `distinguisher.causality_rows` writes it as
linear equations over an unknown table.

Processes are composed by `Network`: a set of behaviors or round kernels, a
wiring between output and input ports, and an explicit total order on the
rounds of all participants.  Evaluation runs the joint process forward, so
the result is causal by construction.  It is the only code that runs round
kernels: `flatten` evaluates a one-node network, and the parallel product
`tensor_behavior` runs through its factors' round kernels, its Kronecker
table built only when read.  A network may contain one *symbolic* node, in
which case evaluation returns, for every transcript, an exact linear form
over the symbolic node's table entries; this is what turns simulator
existence and splittability questions into linear programs.

`Network` evaluation runs every external input column in one sweep over
integer state codes.  A state is one mixed-radix integer: a digit per node
memory and per wire value, then the symbolic node's cell, the result row
and the result column, each port adding its value times its stride, so
evaluation never turns indices into value tuples and back.  A wire's digit
is 0 until its producer runs and is set back to 0 when its consumer reads
it, so every move is one integer addition and every final state holds only
its cell, row and column, which evaluation checks.  A state's weight is an
integer numerator over `_den`, the product of the scales (`Kernel.scaled`)
of the kernels the sweep runs; `evaluate` checks every column on those
integers (weights positive, summing to `_den`) before it divides, once per
distinct weight.  The row and column strides are those of the signature the
caller names (`Network.evaluate(into)`), so a network is evaluated straight
into its caller's port order and its table is never permuted afterwards;
`canonical` is left for behaviours that do not come from a network.  A
symbolic node's cell (column * rows + row) is the sum of its rounds'
`decision_rounds` offsets, the numbering the advantage LP's decision-tree
rows use.  This module alone knows the moment order of ports
(`moment_order`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import (
    AcausalSchedule,
    AlphabetMismatch,
    BadParties,
    ChainMismatch,
    CompositeVerificationFailed,
    DimensionMismatch,
    DirectionMismatch,
    DuplicatePortId,
    NotCausal,
    SignatureMismatch,
    WiringMismatch,
)
from .record import Record
from .scalars import ZERO, Scalar
from .stoch import (
    UNIT,
    Alphabet,
    Kernel,
    all_tuples,
    index_projection,
    kernel_from_columns,
    permute_axes,
    ports_size,
    tensor as kernel_tensor,
)

IN = "in"
OUT = "out"


class PortSpec(Record):
    id: str
    party: str
    alphabet: Alphabet
    direction: str
    round: int

    def __init__(self, id: str, party: str, alphabet: Alphabet, direction: str, round: int) -> None:
        if direction not in (IN, OUT):
            raise ValueError(f"port {id!r}: direction must be 'in' or 'out'")
        if round < 1:
            raise ValueError(f"port {id!r}: round must be >= 1")
        super().__init__(id, party, alphabet, direction, round)

    def in_round(self, round: int) -> PortSpec:
        """The same port moved to another round."""
        return PortSpec(self.id, self.party, self.alphabet, self.direction, round)


class Signature(Record):
    parties: tuple[str, ...]
    rounds: int
    ports: tuple[PortSpec, ...]

    def __init__(self, parties: tuple[str, ...], rounds: int, ports: tuple[PortSpec, ...]) -> None:
        if rounds < 1:
            raise ValueError("a signature has at least one round")
        if len(set(parties)) != len(parties) or "" in parties:
            raise BadParties(f"parties must be distinct nonempty names, got {list(parties)}")
        ids = [p.id for p in ports]
        if len(set(ids)) != len(ids):
            raise DuplicatePortId(f"duplicate port ids in signature: {sorted(ids)}")
        for p in ports:
            if p.round > rounds:
                raise ValueError(f"port {p.id!r} in round {p.round} > {rounds}")
            if p.party not in parties:
                raise ValueError(f"port {p.id!r} names unknown party {p.party!r}")
        super().__init__(parties, rounds, ports)

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


class Behavior(Record):
    """Conditional transcript table P(all outputs | all inputs).

    The kernel's domain lists the in-ports and its codomain the out-ports,
    both in signature order.  Its comb is memoised on the object, by
    `realize` or, for a tensor, by `tensor_behavior`.
    """

    signature: Signature
    kernel: Kernel
    _comb = None  # the memo, set on the object by `_memoise`

    def __getattr__(self, name: str):
        # reached only for a missing attribute: a tensor's table, built from
        # its factors' on first read (`tensor_behavior`)
        if name != "kernel" or "_factors" not in self.__dict__:
            raise AttributeError(name)
        k = self.__dict__["kernel"] = kernel_tensor(*(f.kernel for f in self.__dict__.pop("_factors")))
        return k


def make_behavior(signature: Signature, kernel: Kernel, check: bool = True) -> Behavior:
    ins = tuple(p.alphabet for p in signature.ins())
    outs = tuple(p.alphabet for p in signature.outs())
    if kernel.dom != ins or kernel.cod != outs:
        raise DimensionMismatch(
            f"kernel ports {[a.name for a in kernel.dom]} -> {[a.name for a in kernel.cod]} "
            f"do not match signature {[a.name for a in ins]} -> {[a.name for a in outs]}"
        )
    b = Behavior(signature, kernel)
    if check and (report := causality_report(b)) is not None:
        raise NotCausal(report)
    return b


# ---------------------------------------------------------------------------
# causality


def causal_rounds(sig: Signature) -> list[tuple[int, Callable[[int], int], Callable[[int], int], int]]:
    """The comb causality condition (Chiribella, D'Ariano and Perinotti, PRA
    80, 022339, 2009): no signalling from the future.  One entry for each
    round r that some input follows: r, the projection of a table column to
    its inputs through round r, the projection of a row to its outputs
    through round r, and the number of values of those outputs.  A table is
    causal when, for every entry, columns with the same projection have the
    same marginal on the projected rows."""
    ins, outs = sig.ins(), sig.outs()
    in_alphas = tuple(p.alphabet for p in ins)
    out_alphas = tuple(p.alphabet for p in outs)
    rules = []
    for r in range(1, sig.rounds):
        if all(p.round <= r for p in ins):
            continue
        keep = [k for k, p in enumerate(outs) if p.round <= r]
        early = index_projection(in_alphas, [k for k, p in enumerate(ins) if p.round <= r])
        prefix = index_projection(out_alphas, keep)
        rules.append((r, early, prefix, ports_size(tuple(out_alphas[k] for k in keep))))
    return rules


def causality_report(b: Behavior) -> Optional[str]:
    """None when b is causal (`causal_rounds`); otherwise a line naming the
    first round whose outputs depend on a later input and two input
    assignments that disagree there."""
    ins = b.signature.ins()
    for r, early, prefix, _n in causal_rounds(b.signature):
        first: dict[int, tuple[int, dict[int, Scalar]]] = {}  # early inputs -> first column, its marginal
        for j, col in enumerate(b.kernel.cols):
            marg: dict[int, Scalar] = {}
            for i, v in col:
                k = prefix(i)
                marg[k] = marg[k] + v if k in marg else v
            j0, marg0 = first.setdefault(early(j), (j, marg))
            if marg != marg0:
                return (
                    f"outputs through round {r} differ between inputs "
                    f"{_assignment(ins, j0)} and {_assignment(ins, j)}"
                )
    return None


def _assignment(ports: Sequence[PortSpec], j: int) -> str:
    """The values of `ports` at index j of a table over them, as port=value."""
    alphas = tuple(p.alphabet for p in ports)
    return ", ".join(f"{p.id}={index_projection(alphas, [k])(j)}" for k, p in enumerate(ports))


# ---------------------------------------------------------------------------
# comb kernels (memoryful round-by-round presentation)


class CombKernels(Record):
    """Per-round kernels f_i: M_(i-1) (x) X_i -> Y_i (x) M_i with trivial
    first and last memories."""

    signature: Signature
    memories: tuple[Alphabet, ...]
    kernels: tuple[Kernel, ...]

    def __init__(self, signature: Signature, memories: tuple[Alphabet, ...], kernels: tuple[Kernel, ...]) -> None:
        k = signature.rounds
        if len(memories) != k + 1 or len(kernels) != k:
            raise ChainMismatch("need k kernels and k+1 memories")
        if memories[0].size != 1 or memories[-1].size != 1:
            raise ChainMismatch("first and last memories must be trivial")
        for i, f in enumerate(kernels, start=1):
            want_dom = (memories[i - 1],) + tuple(p.alphabet for p in signature.round_ins(i))
            want_cod = tuple(p.alphabet for p in signature.round_outs(i)) + (memories[i],)
            if f.dom != want_dom or f.cod != want_cod:
                raise ChainMismatch(f"round {i} kernel interface does not chain")
        super().__init__(signature, memories, kernels)


def flatten(c: CombKernels) -> Behavior:
    """Sum out the memory wires, producing the conditional transcript table:
    the evaluation of `c` as a one-node network."""
    return Network([("c", c)], [], [("c", r) for r in range(1, c.signature.rounds + 1)]).evaluate(c.signature)


def realize(b: Behavior) -> CombKernels:
    """The round kernels that run b, memoised on `b` itself; everything is
    immutable, so sharing is safe.

    A tensor's comb is its factors' combs, set by `tensor_behavior`.  Any
    other behaviour gets the transcript-memory realization: memory i stores
    everything seen through round i, and round i emits with the conditional
    P(y_i | x..i, y..i-1).  Memory i indexes only the histories through
    round i that have positive probability, in increasing history code, so
    every column of every round kernel is entered by some execution, and
    flatten(realize(b)) reproduces b exactly.
    """
    if b._comb is None:
        _memoise(b, _realize(b))
    return b._comb


def _memoise(b: Behavior, comb: CombKernels) -> None:
    object.__setattr__(b, "_comb", comb)


def _realize(b: Behavior) -> CombKernels:
    sig = b.signature
    if sig.rounds == 1:
        # b's own kernel behind trivial memories; with no late input there is
        # no causality to check
        k = b.kernel
        return CombKernels(sig, (UNIT, UNIT), (Kernel((UNIT,) + k.dom, k.cod + (UNIT,), k.cols),))
    if (report := causality_report(b)) is not None:
        raise NotCausal(report)
    ins, outs = sig.ins(), sig.outs()
    k = sig.rounds
    rounds = range(1, k + 1)
    x_alphas = [tuple(p.alphabet for p in sig.round_ins(r)) for r in rounds]
    y_alphas = [tuple(p.alphabet for p in sig.round_outs(r)) for r in rounds]
    n_x = [ports_size(a) for a in x_alphas]
    n_y = [ports_size(a) for a in y_alphas]
    x_code = [
        index_projection(b.kernel.dom, [pos for pos, p in enumerate(ins) if p.round == r]) for r in rounds
    ]
    y_code = [
        index_projection(b.kernel.cod, [pos for pos, p in enumerate(outs) if p.round == r]) for r in rounds
    ]

    # A history through round r is coded row-major over x_1, y_1, ..., x_r,
    # y_r.  Round r's column c codes (history through r-1, x_r) and its cell
    # h codes (c, y_r).  den[r][c] = P(y..r-1 | x..r) and num[r][h] =
    # P(y..r | x..r), both read from the column of b whose inputs after
    # round r are 0 and summed in row order, as marginals of b would be; so
    # num[r] holds exactly the histories of positive probability.
    den: list[dict[int, Scalar]] = [{} for _ in rounds]
    num: list[dict[int, Scalar]] = [{} for _ in rounds]
    y_codes: dict[int, list[int]] = {}
    for j, col in enumerate(b.kernel.cols):
        xs = [code(j) for code in x_code]
        first = max([r for r in rounds if xs[r - 1]], default=1)
        for i, v in col:
            ys = y_codes.get(i)
            if ys is None:
                ys = y_codes[i] = [code(i) for code in y_code]
            h = 0
            for r in rounds:
                c = h * n_x[r - 1] + xs[r - 1]
                h = c * n_y[r - 1] + ys[r - 1]
                if r >= first:
                    d, n = den[r - 1], num[r - 1]
                    d[c] = d[c] + v if c in d else v
                    n[h] = n[h] + v if h in n else v

    # memory r holds the index of a history through round r among num[r]'s
    # in increasing code; by causality every (such history, x_r+1) has
    # P(y..r | x..r+1) > 0, so every column of round r+1 is entered
    memories = [UNIT]
    memory_of = {0: 0}  # history code through round r-1 -> memory value
    kernels = []
    for r in rounds:
        n_xr, n_yr = n_x[r - 1], n_y[r - 1]
        histories = sorted(num[r - 1])
        memories.append(Alphabet(f"mem{r}", len(histories)) if r < k else UNIT)
        n_mem = memories[r].size
        cols: list[list] = [[] for _ in range(len(memory_of) * n_xr)]
        for m, h in enumerate(histories):
            c, y = divmod(h, n_yr)
            prev, x = divmod(c, n_xr)
            q = num[r - 1][h] / den[r - 1][c] if r > 1 else num[r - 1][h]
            # increasing h gives increasing codomain index within a column
            cols[memory_of[prev] * n_xr + x].append((y * n_mem + (m if r < k else 0), q))
        dom = (memories[r - 1],) + x_alphas[r - 1]
        cod = y_alphas[r - 1] + (memories[r],)
        kernels.append(kernel_from_columns(dom, cod, [tuple(col) for col in cols]))
        memory_of = {h: m for m, h in enumerate(histories)}
    return CombKernels(sig, tuple(memories), tuple(kernels))


# ---------------------------------------------------------------------------
# canonical round structure


def moment_order(ports: Sequence[PortSpec]) -> list[int]:
    """Positions of `ports` in moment order: by round, in-ports before
    out-ports within a round, then by id."""
    return sorted(range(len(ports)), key=lambda i: (ports[i].round, ports[i].direction == OUT, ports[i].id))


def axis_perms(ports: Sequence[PortSpec], order: Sequence[int]) -> tuple[list[int], list[int]]:
    """The `permute_axes` arguments that put the table of a behaviour over
    `ports` into the port order `order` (positions in `ports`)."""
    ins = [i for i, p in enumerate(ports) if p.direction == IN]
    outs = [i for i, p in enumerate(ports) if p.direction == OUT]
    axis = {i: k for k, i in enumerate(ins)} | {i: k for k, i in enumerate(outs)}
    return (
        [axis[i] for i in order if ports[i].direction == IN],
        [axis[i] for i in order if ports[i].direction == OUT],
    )


def canonical_rounds(sig: Signature) -> tuple[Signature, tuple[int, ...]]:
    """Regroup rounds into maximal in*/out* runs of the moment order and sort
    ports by (new round, direction, id).  Returns the new signature plus the
    port order as indices into the old one.  The regrouping preserves exactly
    which outputs may depend on which inputs, so causality is untouched."""
    new_round = {}
    rnd, phase = 1, IN
    for i in moment_order(sig.ports):
        p = sig.ports[i]
        if p.direction == IN and phase == OUT:
            rnd += 1
            phase = IN
        elif p.direction == OUT:
            phase = OUT
        new_round[i] = rnd
    renumbered = [p.in_round(new_round[i]) for i, p in enumerate(sig.ports)]
    order = moment_order(renumbered)
    new_ports = tuple(renumbered[i] for i in order)
    parties = tuple(sorted({p.party for p in new_ports}))
    return Signature(parties, max(rnd, 1), new_ports), tuple(order)


def canonical(b: Behavior) -> Behavior:
    """Normal form for observational comparison; see canonical_rounds."""
    new_sig, order = canonical_rounds(b.signature)
    return Behavior(new_sig, permute_axes(b.kernel, *axis_perms(b.signature.ports, order)))


# ---------------------------------------------------------------------------
# comparison


def behavior_equal(a: Behavior, b: Behavior) -> bool:
    """Exact equality of two tables with the same signature."""
    if a.signature != b.signature:
        raise SignatureMismatch("behaviors have different signatures")
    return a.kernel.cols == b.kernel.cols


def _strides(ports: Sequence[PortSpec]) -> list[int]:
    """Each port's weight in the row-major index of a table over `ports`."""
    strides = [1] * len(ports)
    for k in range(len(ports) - 1, 0, -1):
        strides[k - 1] = strides[k] * ports[k].alphabet.size
    return strides


def _round_offsets(ports: Sequence[PortSpec], r: int) -> tuple[int, ...]:
    """Index offsets, within the table of all `ports`, of every value of the
    round-r ports (row-major, leftmost port most significant)."""
    picked = [(p.alphabet, s) for p, s in zip(ports, _strides(ports)) if p.round == r]
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
    linear in the table size; equal tables are at distance 0 at once.  It
    adds integer numerators over both tables' lcm and divides at the root."""
    if a.signature != b.signature:
        raise SignatureMismatch("behaviors have different signatures")
    if a.kernel.cols == b.kernel.cols:
        return ZERO
    steps = decision_rounds(a.signature)
    cols = (a.kernel.cols, b.kernel.cols)
    den = lcm(*{p.denominator for table in cols for col in table for _, p in col})
    ca, cb = ([{i: p.numerator * (den // p.denominator) for i, p in col} for col in table] for table in cols)

    def value(r: int, j: int, i: int) -> int:
        if r == len(steps):
            return abs(ca[j].get(i, 0) - cb[j].get(i, 0))
        xs, ys = steps[r]
        return max(sum(value(r + 1, j + dj, i + di) for di in ys) for dj in xs)

    return Fraction(value(0, 0, 0), 2 * den)


# ---------------------------------------------------------------------------
# linking networks


PortRef = tuple[str, str]  # (node label, port id)
Wire = tuple[PortRef, PortRef]
ScheduleItem = tuple[str, int]  # (node label, round)


class Network:
    """Processes wired together under an explicit global round order.

    `nodes` pairs labels with processes of three kinds: a Behavior, which
    evaluation runs through its round kernels (`realize`); a CombKernels,
    whose round kernels run as given; and, for at most one label, a bare
    Signature, making that node symbolic.  Wires join an out-port to an
    in-port of matching alphabet.  The schedule is a total order on all
    (label, round) pairs, consistent with each node's own round order; every
    wire's producer must be scheduled before its consumer.
    """

    def __init__(
        self,
        nodes: Sequence[tuple[str, Union[Behavior, CombKernels, Signature]]],
        wires: Sequence[Wire],
        schedule: Sequence[ScheduleItem],
    ) -> None:
        self.labels = [lab for lab, _ in nodes]
        if len(set(self.labels)) != len(self.labels):
            raise DuplicatePortId(f"duplicate node labels {self.labels}")
        self.numeric: dict[str, Union[Behavior, CombKernels]] = {}
        self.signatures: dict[str, Signature] = {}
        self.symbolic: Optional[str] = None
        for lab, item in nodes:
            if isinstance(item, Signature):
                if self.symbolic is not None:
                    raise WiringMismatch("at most one symbolic node is supported")
                self.symbolic = lab
                self.signatures[lab] = item
            else:
                self.numeric[lab] = item
                self.signatures[lab] = item.signature
        self.wires = [((a[0], a[1]), (b[0], b[1])) for a, b in wires]
        self.schedule = list(schedule)
        self._result: Optional[Signature] = None
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        expected = {(lab, r) for lab in self.labels for r in range(1, self.signatures[lab].rounds + 1)}
        if set(self.schedule) != expected or len(self.schedule) != len(expected):
            raise AcausalSchedule(f"schedule {self.schedule} does not cover each node round exactly once")
        last: dict[str, int] = {}
        for lab, r in self.schedule:
            if r <= last.get(lab, 0):
                raise AcausalSchedule(f"schedule violates round order of node {lab!r}")
            last[lab] = r
        pos = {item: t for t, item in enumerate(self.schedule)}
        self._wire_out: list[PortRef] = []
        self._wire_in: list[PortRef] = []
        used: set[PortRef] = set()
        for wire in self.wires:
            src, dst, ps, pd = _orient(self.signatures, wire)
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

    # -- result signature -----------------------------------------------------

    def result_signature(self) -> Signature:
        """The external ports, each in its schedule item's round; built
        once, since it depends only on the nodes, wires and schedule."""
        if self._result is None:
            ports = []
            for t, (lab, r) in enumerate(self.schedule, start=1):
                for p in self.signatures[lab].ports:
                    if p.round == r and (lab, p.id) not in self._wired:
                        ports.append(p.in_round(t))
            parties: list[str] = []
            for lab in self.labels:
                for pty in self.signatures[lab].parties:
                    if pty not in parties:
                        parties.append(pty)
            self._result = Signature(tuple(parties), max(len(self.schedule), 1), tuple(ports))
        return self._result

    def canonical_signature(self) -> Signature:
        """The canonical form (`canonical_rounds`) of the result signature."""
        return canonical_rounds(self.result_signature())[0]

    # -- evaluation -----------------------------------------------------------

    def _prepare(self, into: Optional[Signature] = None) -> Signature:
        """Realize the Behavior nodes and plan every schedule item for
        `_sweep`, laying the result's columns and rows out in the port order
        of `into` (by default the result signature); returns the result's
        signature.

        `into` must list exactly the network's external ports, with the same
        id, party, alphabet and direction, in any order and rounds; the
        caller vouches that the table is causal under its rounds.  Raises
        SignatureMismatch otherwise."""
        result = self.result_signature()
        if into is not None:
            have, want = ({p.id: (p.party, p.alphabet, p.direction) for p in sig.ports} for sig in (result, into))
            if bad := sorted(have.keys() ^ want.keys()) or [pid for pid in want if have[pid] != want[pid]]:
                raise SignatureMismatch(f"ports {bad} differ between the network and the signature asked for")
            result = into
        self._combs = {lab: realize(n) if isinstance(n, Behavior) else n for lab, n in self.numeric.items()}
        # _sweep's weights are numerators over the product of the scales of
        # the kernels it runs (see Kernel.scaled)
        self._den = 1
        for lab, r in self.schedule:
            if lab in self._combs:
                self._den *= self._combs[lab].kernels[r - 1].scaled[0]
        # a state's code: one digit per numeric node's memory and per wire
        # value, then the symbolic cell, the result row and the result
        # column; `mem` is each node's digit weight and radix, `at` each
        # wired port's digit weight and `ext` each external port's
        stride, mem, at = 1, {}, {}
        for lab, comb in self._combs.items():
            mem[lab] = (stride, max(m.size for m in comb.memories))
            stride *= mem[lab][1]
        for src, dst in zip(self._wire_out, self._wire_in):
            at[src] = at[dst] = stride
            stride *= self.signatures[src[0]].port(src[1]).alphabet.size
        self._cell_stride = stride
        if self.symbolic is not None:
            # the symbolic node keeps its table cell (column * n_rows + row)
            # as its memory digit: each round adds its `decision_rounds`
            # offsets and no round reads it
            sym = self.signatures[self.symbolic]
            sym_steps = decision_rounds(sym)
            n_rows = ports_size(tuple(p.alphabet for p in sym.outs()))
            n_cells = ports_size(tuple(p.alphabet for p in sym.ins())) * n_rows
            mem[self.symbolic] = (stride, 1)
            stride *= n_cells
        self._row_stride = stride
        ext_ins, ext_outs = result.ins(), result.outs()
        self._col_stride = stride * ports_size(tuple(p.alphabet for p in ext_outs))
        ext = {p.id: s * self._row_stride for p, s in zip(ext_outs, _strides(ext_outs))}
        ext |= {p.id: s * self._col_stride for p, s in zip(ext_ins, _strides(ext_ins))}
        self._plan: list[_Moves] = []
        for lab, r in self.schedule:
            sig = self.signatures[lab]
            x_ports, y_ports = sig.round_ins(r), sig.round_outs(r)
            n_x = ports_size(tuple(p.alphabet for p in x_ports))
            m_stride, m_size = mem[lab]
            reads = [(m_stride, m_size, n_x)] if m_size > 1 else []
            # (kernel column offset, code delta) of each value of the
            # round's external inputs
            branches = [(0, 0)]
            for p, s in zip(x_ports, _strides(x_ports)):
                if (lab, p.id) in at:
                    reads.append((at[(lab, p.id)], p.alphabet.size, s))
                else:
                    branches = [(c + v * s, d + v * ext[p.id]) for c, d in branches for v in range(p.alphabet.size)]
            outs = [(s, p.alphabet.size, at.get((lab, p.id)) or ext[p.id]) for p, s in zip(y_ports, _strides(y_ports))]
            if lab == self.symbolic:
                # every output value y at weight 1, its entry y * n_cells +
                # the cell offset
                x_offsets, y_offsets = sym_steps[r - 1]
                n_mem = n_cells
                columns = [[(y * n_cells + dj * n_rows + di, 1) for y, di in enumerate(y_offsets)] for dj in x_offsets]
            else:
                f = self._combs[lab].kernels[r - 1]
                n_mem, columns = f.cod[-1].size, f.scaled[1]
            self._plan.append(_Moves(reads, branches, outs, columns, n_mem, m_stride))
        return result

    def _sweep(self) -> Iterator[tuple[int, int, int, int]]:
        """Run every external input column at once, from the empty state;
        yields (column, row, symbolic cell, weight) for each final state,
        the cell 0 when there is no symbolic node and the weight an integer
        numerator over `self._den`.  Each item's planned moves are dropped
        once the item has run.  Raises CompositeVerificationFailed when a
        final state still holds a memory or wire digit."""
        states, plan = {0: 1}, self._plan
        del self._plan
        plan.reverse()
        while plan:
            states = _step(states, plan.pop())
        for code, w in states.items():
            col, code = divmod(code, self._col_stride)
            row, code = divmod(code, self._row_stride)
            cell, left = divmod(code, self._cell_stride)
            if left:
                raise CompositeVerificationFailed(f"a final network state holds memory or wire digits ({left})")
            yield col, row, cell, w

    def evaluate(self, into: Optional[Signature] = None) -> Behavior:
        """The network's table, with the signature `into` when given (see
        `_prepare`) and the result signature otherwise."""
        if self.symbolic is not None:
            raise WiringMismatch("network contains a symbolic node; use linear_evaluate")
        sig = self._prepare(into)
        in_alphas = tuple(p.alphabet for p in sig.ins())
        out_alphas = tuple(p.alphabet for p in sig.outs())
        cols: dict[int, dict[int, int]] = {}
        for col, row, _cell, w in self._sweep():
            cols.setdefault(col, {})[row] = w
        # a column is stochastic when its weights are positive and sum to
        # _den; otherwise kernel_from_columns raises its Fraction check's
        # exception for the first column that fails
        den, quotient, table, stochastic = self._den, _Quotients(self._den), [], True
        for j in range(ports_size(in_alphas)):
            col = cols.pop(j, {})
            stochastic = stochastic and sum(col.values()) == den
            table.append(tuple((i, quotient[col[i]]) for i in sorted(col)))
        if stochastic and min(quotient) > 0:
            kernel = Kernel(in_alphas, out_alphas, tuple(table))
        else:
            kernel = kernel_from_columns(in_alphas, out_alphas, table)
        return make_behavior(sig, kernel, check=False)

    def linear_evaluate(self, into: Optional[Signature] = None):
        """Returns (signature, columns) where columns[x_index][y_index] is a
        LinForm over the symbolic node's table entries, indexed like
        `evaluate(into)`'s table; a cell no execution reaches has no form.

        Variable k stands for entry (column x_sym, row y_sym) of the symbolic
        node's behavior table with k = x_sym * n_rows + y_sym; the symbolic
        node's interaction is affine in its whole table, so the composite
        transcript weights are exact linear forms.
        """
        if self.symbolic is None:
            raise WiringMismatch("no symbolic node in this network")
        sig = self._prepare(into)
        n_cols = ports_size(tuple(p.alphabet for p in sig.ins()))
        columns: list[dict[int, dict[int, Scalar]]] = [{} for _ in range(n_cols)]
        quotient = _Quotients(self._den)
        for col, row, cell, w in self._sweep():
            columns[col].setdefault(row, {})[cell] = quotient[w]
        return sig, columns


class _Quotients(dict):
    """weight -> Fraction(weight, den), made once per distinct weight."""

    def __init__(self, den: int) -> None:
        super().__init__()
        self.den = den

    def __missing__(self, w: int) -> Fraction:
        v = self[w] = Fraction(w, self.den)
        return v


def _step(states: dict[int, int], moves: _Moves) -> dict[int, int]:
    """The states after one schedule item, by code, with their weights."""
    reads, new = moves.reads, {}
    for code, w in states.items():
        key = 0
        for stride, size, weight in reads:
            key += code // stride % size * weight
        for d, p in moves[key]:
            c = code + d
            new[c] = new[c] + w * p if c in new else w * p
    return new


class _Moves(dict):
    """One schedule item's moves, by key: the column of its kernel that a
    state's memory and wired inputs select with every external input at 0.

    `reads` gives, per memory or wired-input digit of a state's code, its
    weight in the code, its radix and its weight in the key.  A key's moves
    are built when a state first reaches it: a (code delta, weight) pair for
    every value of the round's external inputs (`branches`: offset in the
    kernel column, column digits in the code) and every entry (i, weight) of
    the column they complete, i being output value * n_mem + next memory.
    The delta clears the digits the key was read from and adds the next
    memory (`m_stride` its weight in the code), the outputs' digits (`outs`:
    weight in the output value, size, weight in the code) and the column
    digits.  A wire's digit is 0 before its producer runs and after its
    consumer reads it, so one delta serves every state that reaches the
    key."""

    def __init__(self, reads, branches, outs, columns, n_mem: int, m_stride: int) -> None:
        super().__init__()
        self.reads, self.branches, self.outs = reads, branches, outs
        self.columns, self.n_mem, self.m_stride = columns, n_mem, m_stride
        self.codes: dict[int, int] = {}  # entry -> its next memory and outputs in the code

    def __missing__(self, key: int) -> list[tuple[int, int]]:
        clear = 0
        for stride, size, weight in self.reads:
            clear += key // weight % size * stride
        moves, codes = [], self.codes
        for c, d in self.branches:
            d -= clear
            for i, p in self.columns[key + c]:
                if (e := codes.get(i)) is None:
                    y, m = divmod(i, self.n_mem)
                    e = codes[i] = m * self.m_stride + sum(y // w % size * stride for w, size, stride in self.outs)
                moves.append((d + e, p))
        self[key] = moves
        return moves


def _orient(signatures: dict[str, Signature], wire: Wire) -> tuple[PortRef, PortRef, PortSpec, PortSpec]:
    """(producer, consumer, producer's port, consumer's port) of a wire.
    Raises WiringMismatch when a node lacks the port, DirectionMismatch
    unless the wire joins an out-port to an in-port."""
    ports = []
    for lab, pid in wire:
        try:
            ports.append(signatures[lab].port(pid))
        except KeyError:
            raise WiringMismatch(f"no port {pid!r} on node {lab!r}") from None
    (a, b), (pa, pb) = wire, ports
    if pa.direction == OUT and pb.direction == IN:
        return a, b, pa, pb
    if pa.direction == IN and pb.direction == OUT:
        return b, a, pb, pa
    raise DirectionMismatch(f"wire {a} -> {b} must join an out-port to an in-port")


def _wire_deps(signatures: dict[str, Signature], wires: Sequence[Wire]):
    """For each (label, round), the (label, round) items that must fire first
    because they produce a wired input."""
    consumer_deps: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for wire in wires:
        src, dst, ps, pd = _orient(signatures, wire)
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

    for i in moment_order(target.ports):
        pid = target.ports[i].id
        if pid not in locate:
            raise SignatureMismatch(f"target port {pid!r} is not an external port of the network")
        lab, k = locate[pid]
        fire_upto(lab, k)
    for lab, sig in signatures.items():
        fire_upto(lab, sig.rounds)
    return schedule


def tensor_behavior(a: Behavior, b: Behavior) -> Behavior:
    """Parallel composition: a's rounds, then b's.

    The table is the Kronecker product of the two, built when first read
    (a `Network` never reads it), and the comb is a's round kernels
    followed by b's, memoised on the result: a's last memory and b's first
    are trivial, and the factors are causal, so the product is realized
    without a causality pass or a transcript memory."""
    shift = a.signature.rounds
    ports = a.signature.ports + tuple(p.in_round(p.round + shift) for p in b.signature.ports)
    parties = a.signature.parties + tuple(p for p in b.signature.parties if p not in a.signature.parties)
    sig = Signature(parties, shift + b.signature.rounds, ports)
    t = Behavior.__new__(Behavior)
    t.__dict__.update(signature=sig, _factors=(a, b))
    ca, cb = realize(a), realize(b)
    _memoise(t, CombKernels(sig, ca.memories + cb.memories[1:], ca.kernels + cb.kernels))
    return t
