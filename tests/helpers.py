"""Shared randomized generators for the test suite (seeded, deterministic),
small constructors that only tests use, and the slow, plain implementations
that serve as test oracles: exhaustive strategy enumeration for the
adaptive distinguisher, dense kernel algebra, the Hopf axiom suite with its
tensor products built in full, a dense simplex, network simulation on
scalar weights, tables put in another port order after they are built
(`permute_to`, `align_to` and `observationally_equal`), the match rows
written cell by cell over dense forms, the tripartite no-go program written
out row by row, and the linker of nodes onto a view, which replays the J
parties' converters (the dummy factorization) and links random attacks onto
the real and the simulated view."""

import itertools
from fractions import Fraction

from composec import attacks
from composec.attacks import derive_simulator_shape, ideal_view
from composec.comb import (
    IN,
    OUT,
    Behavior,
    CombKernels,
    Network,
    PortSpec,
    Signature,
    axis_perms,
    behavior_equal,
    canonical,
    causality_report,
    flatten,
    make_behavior,
    make_signature,
)
from composec.distinguisher import fill
from composec.hopf import HopfReport, group_kernels
from composec.errors import AcausalSchedule, CompositeVerificationFailed, InterfaceMismatch, SignatureMismatch
from composec.nogo import mediator_problem
from composec.resources import RES, Converter, Protocol
from composec.stoch import (
    UNIT,
    Alphabet,
    all_tuples,
    compose,
    identity,
    index_projection,
    kernel_equal,
    make_kernel,
    permute_axes,
    ports_size,
    tensor,
    tuple_index,
)

BIT = Alphabet("bit", 2)
TRIT = Alphabet("trit", 3)


def random_kernel(rng, dom, cod):
    n_dom, n_cod = ports_size(dom), ports_size(cod)
    cols = []
    for _ in range(n_dom):
        raw = [rng.randint(0, 6) for _ in range(n_cod)]
        if sum(raw) == 0:
            raw[rng.randrange(n_cod)] = 1
        total = sum(raw)
        cols.append([Fraction(v, total) for v in raw])
    table = [[cols[j][i] for j in range(n_dom)] for i in range(n_cod)]
    return make_kernel(dom, cod, table)


def random_comb(rng, parties=("p",), rounds=2, max_size=2, prefix="p", alphabets=None):
    """Random comb kernels; flattening gives a causal behavior by construction."""
    mems = [UNIT]
    for r in range(1, rounds):
        mems.append(Alphabet(f"m{r}", rng.randint(1, max_size)))
    mems.append(UNIT)
    if alphabets is None:
        alphabets = [BIT, TRIT][:max_size] if max_size >= 2 else [BIT]
    ports = []
    for r in range(1, rounds + 1):
        for k in range(rng.randint(0, 2)):
            ports.append(
                PortSpec(
                    f"{prefix}{r}_{k}",
                    rng.choice(parties),
                    rng.choice(alphabets),
                    rng.choice([IN, OUT]),
                    r,
                )
            )
    sig = make_signature(parties, rounds, ports)
    kernels = []
    for r in range(1, rounds + 1):
        dom = (mems[r - 1],) + tuple(p.alphabet for p in sig.round_ins(r))
        cod = tuple(p.alphabet for p in sig.round_outs(r)) + (mems[r],)
        kernels.append(random_kernel(rng, dom, cod))
    return CombKernels(sig, tuple(mems), tuple(kernels))


def shuffle_ports(rng, c):
    """`c` with its signature's ports in a random order that keeps each
    round's in-ports, and its out-ports, in their order, so that the round
    kernels still chain."""
    sig = c.signature
    groups = {}
    for p in sig.ports:
        groups.setdefault((p.round, p.direction), []).append(p)
    keys = [(p.round, p.direction) for p in sig.ports]
    rng.shuffle(keys)
    ports = [groups[key].pop(0) for key in keys]
    return CombKernels(make_signature(sig.parties, sig.rounds, ports), c.memories, c.kernels)


def memo_free(b: Behavior) -> Behavior:
    """A copy of b without `realize`'s memo: a tensor's copy is realized from
    its table (transcript memories), not from its factors' combs."""
    return Behavior(b.signature, b.kernel)


def random_behavior(rng, parties=("p",), rounds=2, max_size=2, prefix="p"):
    return flatten(random_comb(rng, parties, rounds, max_size, prefix))


def random_protocol(rng, source: Behavior, prefix: str) -> Protocol:
    """A random protocol on `source`.  Each party gets, on a biased coin, a
    converter of one or two rounds, and the schedule interleaves the
    converters' rounds with the resource's at random.  A converter takes
    some of its party's resource ports, each in a round of its own that the
    schedule puts after the port's round for a resource output, before it
    for an input.  Each of its rounds adds, on a biased coin, an outer bit
    port whose id starts with `prefix`.  The target is what the protocol
    makes of `source`."""
    sig = source.signature
    rounds = {party: rng.randint(1, 2) for party in sig.parties if rng.random() < 0.7}
    pending = {RES: list(range(1, sig.rounds + 1))}
    pending |= {party: list(range(1, k + 1)) for party, k in rounds.items()}
    schedule = []
    while any(pending.values()):
        lab = rng.choice([lab for lab, left in pending.items() if left])
        schedule.append((lab, pending[lab].pop(0)))
    pos = {item: t for t, item in enumerate(schedule)}
    converters = []
    for party, k in rounds.items():
        ports, wiring = [], []
        for q in sig.ports:
            fits = [c for c in range(1, k + 1) if (pos[(party, c)] > pos[(RES, q.round)]) == (q.direction == OUT)]
            if q.party == party and fits and rng.random() < 0.7:
                direction = IN if q.direction == OUT else OUT
                ports.append(PortSpec(f"{prefix}{party}_{q.id}", party, q.alphabet, direction, rng.choice(fits)))
                wiring.append((ports[-1].id, q.id))
        for c in range(1, k + 1):
            if rng.random() < 0.7:
                ports.append(PortSpec(f"{prefix}{party}{c}", party, BIT, rng.choice([IN, OUT]), c))
        csig = make_signature([party], k, ports)
        mems = (UNIT, *(Alphabet(f"m{c}", rng.randint(1, 2)) for c in range(1, k)), UNIT)
        kernels = []
        for c in range(1, k + 1):
            dom = (mems[c - 1], *(p.alphabet for p in csig.round_ins(c)))
            kernels.append(random_kernel(rng, dom, (*(p.alphabet for p in csig.round_outs(c)), mems[c])))
        converters.append(Converter(party, flatten(CombKernels(csig, mems, tuple(kernels))), tuple(wiring)))
    nodes = [(RES, source)] + [(c.party, c.comb) for c in converters]
    wires = [((c.party, cp), (RES, rp)) for c in converters for cp, rp in c.wiring]
    return Protocol(source, Network(nodes, wires, schedule).evaluate(), tuple(converters), tuple(schedule))


# ---------------------------------------------------------------------------
# small constructors


def behavior_from_table(signature: Signature, table, check: bool = True) -> Behavior:
    ins = tuple(p.alphabet for p in signature.ins())
    outs = tuple(p.alphabet for p in signature.outs())
    return make_behavior(signature, make_kernel(ins, outs, table), check)


def trivial_behavior() -> Behavior:
    sig = Signature((), 1, ())
    return Behavior(sig, make_kernel((), (), [[1]]))


def rename_ports(b: Behavior, mapping: dict[str, str]) -> Behavior:
    ports = tuple(
        PortSpec(mapping.get(p.id, p.id), p.party, p.alphabet, p.direction, p.round) for p in b.signature.ports
    )
    return Behavior(Signature(b.signature.parties, b.signature.rounds, ports), b.kernel)


def mix_resources(r1: Behavior, r2: Behavior, weight) -> Behavior:
    """Convex mixture of two same-signature resources (weight on r1)."""
    if r1.signature != r2.signature:
        raise InterfaceMismatch("mixture needs identical signatures")
    w = weight
    k1, k2 = r1.kernel, r2.kernel
    columns = [
        [w * a + (1 - w) * b for a, b in zip(k1.column(j), k2.column(j))] for j in range(k1.n_dom)
    ]
    kern = make_kernel(k1.dom, k1.cod, list(zip(*columns)))
    return make_behavior(r1.signature, kern)


def kernel_entry(k, out_values, in_values):
    """The probability of the output values `out_values` given the input
    values `in_values`."""
    return k.column(tuple_index(k.dom, in_values))[tuple_index(k.cod, out_values)]


def format_ast(ast) -> str:
    """A parsed spec file written back, one statement per line."""
    return "\n".join(" ".join(s.tokens) for s in ast.statements) + "\n"


def index_tuple(ports, index: int) -> tuple[int, ...]:
    """The values at `index` of a table over `ports`, leftmost port most
    significant: the inverse of `stoch.tuple_index`."""
    values = [0] * len(ports)
    for k in range(len(ports) - 1, -1, -1):
        index, values[k] = divmod(index, ports[k].size)
    return tuple(values)


def identity_protocol(r: Behavior) -> Protocol:
    """The protocol with no converter, from r to r."""
    return Protocol(r, r, (), tuple((RES, i) for i in range(1, r.signature.rounds + 1)))


# ---------------------------------------------------------------------------
# tables put in another port order after they are built: the oracles for a
# network evaluated straight into a signature (`Network.evaluate(into)`)


def _positions(sig: Signature, ref: Signature) -> list[int]:
    """The position in `sig` of each of ref's ports, matched by id.  Raises
    SignatureMismatch unless both list the same ports with the same party,
    alphabet and direction."""
    by_id = {p.id: (i, p) for i, p in enumerate(sig.ports)}
    if set(by_id) != {p.id for p in ref.ports}:
        raise SignatureMismatch(f"port ids {sorted(by_id)} vs {sorted(p.id for p in ref.ports)}")
    perm = []
    for p in ref.ports:
        i, q = by_id[p.id]
        if (q.party, q.alphabet, q.direction) != (p.party, p.alphabet, p.direction):
            raise SignatureMismatch(f"port {p.id!r} differs between signatures")
        perm.append(i)
    return perm


def permute_to(b: Behavior, ref: Signature) -> Behavior:
    """b's table with its ports in ref's order, under ref, without checking
    that it is causal under ref's rounds."""
    return Behavior(ref, permute_axes(b.kernel, *axis_perms(b.signature.ports, _positions(b.signature, ref))))


def permute_forms(sig: Signature, columns, ref: Signature):
    """`permute_to` for the (signature, columns of linear forms) that
    `Network.linear_evaluate` gives."""
    dom_perm, cod_perm = axis_perms(sig.ports, _positions(sig, ref))
    col = index_projection(tuple(p.alphabet for p in sig.ins()), dom_perm)
    row = index_projection(tuple(p.alphabet for p in sig.outs()), cod_perm)
    permuted = [{} for _ in columns]
    for j, forms in enumerate(columns):
        permuted[col(j)] = {row(i): form for i, form in forms.items()}
    return ref, permuted


def align_to(b: Behavior, ref: Signature) -> Behavior:
    """`permute_to`, for a round structure that b's table must also keep:
    raises SignatureMismatch when the result is not causal under ref."""
    aligned = permute_to(b, ref)
    if causality_report(aligned) is not None:
        raise SignatureMismatch("round structures are not compatible")
    return aligned


def observationally_equal(a: Behavior, b: Behavior) -> bool:
    """Equality after canonicalization and port alignment."""
    ca, cb = canonical(a), canonical(b)
    try:
        cb = align_to(cb, ca.signature)
    except SignatureMismatch:
        return False
    return behavior_equal(ca, cb)


# ---------------------------------------------------------------------------
# nodes linked onto a view


def merge_asap(view: Behavior, nodes, wires) -> Behavior:
    """`nodes` wired onto `view` (labelled "view") and evaluated: the first
    node round whose wired inputs are all available fires next, and the view
    advances only when no node round can."""
    items = [("view", view), *nodes]
    sigs = {lab: b.signature for lab, b in items}
    deps: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for pair in wires:
        ends = [(lab, sigs[lab].port(pid)) for lab, pid in pair]
        (src, ps), (dst, pd) = ends if ends[0][1].direction == OUT else ends[::-1]
        deps.setdefault((dst, pd.round), []).append((src, ps.round))
    next_round = dict.fromkeys(sigs, 1)
    schedule = []
    while len(schedule) < sum(sig.rounds for sig in sigs.values()):
        for lab in [*(lab for lab, _ in nodes), "view"]:
            r = next_round[lab]
            if r <= sigs[lab].rounds and all(next_round[d] > k for d, k in deps.get((lab, r), ())):
                break
        else:
            raise AcausalSchedule("wiring admits no causal schedule")
        schedule.append((lab, r))
        next_round[lab] = r + 1
    return Network(items, list(wires), schedule).evaluate()


def apply_protocol_via_dummy(p: Protocol, r: Behavior, j_parties) -> Behavior:
    """The J parties' converters linked back onto the dummy view
    `attacks.dummy_attack(p, r, J)`; the dummy factorization says this is
    the honest execution `apply_protocol(p, r)`."""
    convs = [c for party in j_parties for c in p.converters if c.party == party]
    wires = [((c.party, cp), ("view", rp)) for c in convs for cp, rp in c.wiring]
    return merge_asap(attacks.dummy_attack(p, r, j_parties), [(c.party, c.comb) for c in convs], wires)


def attack_transfers(inst, n: int, draw) -> list[bool]:
    """For each of `n` attacks on Eve's ciphertext in the OTP instance
    `inst`, whether linking it onto the real view and onto the ideal view
    wrapped in `inst.sigma` gives the same canonical table.  `draw(c)` gives
    an attack's kernel from the ciphertext alphabet c to one leak port."""
    real = attacks.dummy_attack(inst.protocol, inst.source, ("eve",))
    ideal = ideal_view(inst.target, inst.sigma, match=real.signature)
    assert ideal.signature == real.signature
    (pe,) = [q for q in real.signature.ports if q.party == "eve"]
    wires = [(("atk", "a_in"), ("view", pe.id))]
    verdicts = []
    for _ in range(n):
        k = draw(pe.alphabet)
        ports = [PortSpec("a_in", "eve", pe.alphabet, IN, 1), PortSpec("a_out", "eve", k.cod[0], OUT, 1)]
        comb = make_behavior(make_signature(["eve"], 1, ports), k)
        verdicts.append(behavior_equal(*(canonical(merge_asap(view, [("atk", comb)], wires)) for view in (real, ideal))))
    return verdicts


# ---------------------------------------------------------------------------
# strategy enumeration (oracle; doubly exponential in the rounds)


def strategies(sig: Signature):
    """All deterministic adaptive input strategies, as one dict mapping
    (round, y_prefix) -> input tuple for that round."""
    ins, outs = sig.ins(), sig.outs()
    per_round = []
    for r in range(1, sig.rounds + 1):
        x_alphas = tuple(p.alphabet for p in ins if p.round == r)
        y_prev = tuple(p.alphabet for p in outs if p.round < r)
        per_round.append((r, list(all_tuples(y_prev)), list(all_tuples(x_alphas))))
    selectors = []
    for r, prefixes, choices in per_round:
        selectors.append([(r, prefixes, assign) for assign in itertools.product(choices, repeat=len(prefixes))])
    for combo in itertools.product(*selectors):
        strat = {}
        for r, prefixes, assign in combo:
            for prefix, x in zip(prefixes, assign):
                strat[(r, prefix)] = x
        yield strat


def strategy_count(sig: Signature) -> int:
    ins, outs = sig.ins(), sig.outs()
    count = 1
    for r in range(1, sig.rounds + 1):
        n_x = ports_size(tuple(p.alphabet for p in ins if p.round == r))
        n_prev = ports_size(tuple(p.alphabet for p in outs if p.round < r))
        count *= n_x ** n_prev
    return count


def strategy_input_index(sig: Signature, strat, y_vals: tuple[int, ...]) -> int:
    """Input column the strategy induces along the transcript y_vals
    (y_vals indexed over out-ports in signature order)."""
    ins, outs = sig.ins(), sig.outs()
    x_by_pos: dict[int, int] = {}
    for r in range(1, sig.rounds + 1):
        prefix = tuple(y_vals[k] for k, p in enumerate(outs) if p.round < r)
        x_r = strat[(r, prefix)]
        for k, v in zip([k for k, p in enumerate(ins) if p.round == r], x_r):
            x_by_pos[k] = v
    x_full = tuple(x_by_pos[k] for k in range(len(ins)))
    return tuple_index(tuple(p.alphabet for p in ins), x_full)


def strategy_cells(sig: Signature):
    """For every deterministic strategy, the (column, row) table cells it
    reads, one per output transcript."""
    out_alphas = tuple(p.alphabet for p in sig.outs())
    ys = list(all_tuples(out_alphas))
    for strat in strategies(sig):
        yield [(strategy_input_index(sig, strat, y), tuple_index(out_alphas, y)) for y in ys]


def enumerated_distance(a, b):
    """max over deterministic strategies of the total variation distance."""
    ma, mb = a.kernel.matrix, b.kernel.matrix
    return max(sum(abs(ma[i][j] - mb[i][j]) for j, i in cells) for cells in strategy_cells(a.signature)) / 2


# ---------------------------------------------------------------------------
# the linear forms that the split and simulator programs equate with their
# targets, built from the public network constructors


def _forms_against(nodes, wires, schedule, target):
    """The network's canonical transcript as linear forms in its symbolic
    node's table; InterfaceMismatch unless its signature is the target's."""
    net = Network(nodes, wires, schedule)
    sig, forms = net.linear_evaluate(net.canonical_signature())
    if sig != target.signature:
        raise InterfaceMismatch("the network cannot reproduce the target's moment structure")
    return forms


def split_forms(r):
    """(mediator signature, forms of the split in the mediator's table, the
    canonical r they must match)."""
    shape = mediator_problem(r)
    target = canonical(r)
    nodes = [("c1", r), (shape.label, shape.signature), ("c2", r)]
    return shape.signature, _forms_against(nodes, shape.wires, shape.schedule, target), target


def split(r: Behavior, g: Behavior) -> Behavior:
    """Two copies of r glued by the mediator g, canonicalized."""
    shape = mediator_problem(r)
    if [
        (q.id, q.alphabet, q.direction, q.round) for q in g.signature.ports
    ] != [(q.id, q.alphabet, q.direction, q.round) for q in shape.signature.ports]:
        raise InterfaceMismatch("mediator does not fit the split interface")
    return fill([("c1", r), ("c2", r)], shape, g)


def simulator_forms(real, s, j_parties):
    """(simulator signature, forms of the simulator-wrapped ideal view in the
    simulator's table), aligned to the real view."""
    shape = derive_simulator_shape(real.signature, s, j_parties)
    nodes = [("res", s), (shape.label, shape.signature)]
    return shape.signature, _forms_against(nodes, shape.wires, shape.schedule, real)


def dense_forms(aligned, target):
    """The forms `linear_evaluate` gives, made dense: every cell of every
    column present, with an empty form where no execution reaches it."""
    return [{i: col.get(i, {}) for i in range(target.kernel.n_cod)} for col in aligned]


def dense_match_rows(bld, aligned, target):
    """`distinguisher.add_match_rows` over the dense forms: one `add_eq` per
    cell, in (column, row) order, empty forms included."""
    for j, col in enumerate(dense_forms(aligned, target)):
        values = target.kernel.column(j)
        for i, form in col.items():
            bld.add_eq(form, values[i])


# ---------------------------------------------------------------------------
# dense kernel algebra (oracles for the sparse column kernels of `stoch`):
# the loops over full matrix[cod_index][dom_index] tables, in the order
# their sums accumulate


def dense_compose(g, f):
    zero_ = Fraction(0)
    fm, gm = f.matrix, g.matrix
    rows = [[zero_] * f.n_dom for _ in range(g.n_cod)]
    for k in range(f.n_cod):
        frow = fm[k]
        hot = [j for j in range(f.n_dom) if frow[j]]
        for i in range(g.n_cod):
            gik = gm[i][k]
            if gik:
                for j in hot:
                    rows[i][j] += gik * frow[j]
    return tuple(tuple(r) for r in rows)


def dense_tensor(f, g):
    return tuple(
        tuple(a * b for a in frow for b in grow) for frow in f.matrix for grow in g.matrix
    )


def dense_marginalize(f, keep):
    zero_ = Fraction(0)
    new_cod = tuple(f.cod[i] for i in keep)
    rows = [[zero_] * f.n_dom for _ in range(ports_size(new_cod))]
    for i, y in enumerate(all_tuples(f.cod)):
        target = rows[tuple_index(new_cod, tuple(y[p] for p in keep))]
        for j in range(f.n_dom):
            target[j] += f.matrix[i][j]
    return tuple(tuple(r) for r in rows)


def dense_permute_axes(f, dom_perm, cod_perm):
    new_dom = tuple(f.dom[p] for p in dom_perm)
    new_cod = tuple(f.cod[p] for p in cod_perm)
    col_map = [0] * f.n_dom  # new column -> old column
    for j, x in enumerate(all_tuples(f.dom)):
        col_map[tuple_index(new_dom, tuple(x[p] for p in dom_perm))] = j
    row_map = [0] * f.n_cod
    for i, y in enumerate(all_tuples(f.cod)):
        row_map[tuple_index(new_cod, tuple(y[p] for p in cod_perm))] = i
    return tuple(tuple(f.matrix[oi][col_map[nj]] for nj in range(f.n_dom)) for oi in row_map)


def eager_hopf_axiom_suite(g) -> HopfReport:
    """`hopf.hopf_axiom_suite` in its plain form: every tensor product is
    built in full and then composed, and the bialgebra law's middle wires
    are swapped by an axis permutation."""
    k = group_kernels(g)
    idk = identity([k["alphabet"]])
    mult, inv, unit, cpy, dele, unif = (k[n] for n in ("mult", "inv", "unit", "copy", "delete", "uniform"))
    shuffled = permute_axes(tensor(cpy, cpy), [0, 1], [0, 2, 1, 3])
    sides = {
        "H1 associativity": [(compose(mult, tensor(mult, idk)), compose(mult, tensor(idk, mult)))],
        "H2 unit": [(compose(mult, tensor(unit, idk)), idk), (compose(mult, tensor(idk, unit)), idk)],
        "H3 coassociativity": [(compose(tensor(cpy, idk), cpy), compose(tensor(idk, cpy), cpy))],
        "H4 counit": [(compose(tensor(dele, idk), cpy), idk), (compose(tensor(idk, dele), cpy), idk)],
        "H5 bialgebra": [(compose(cpy, mult), compose(tensor(mult, mult), shuffled))],
        "H6 antipode": [(compose(mult, compose(tensor(idk, inv), cpy)), compose(unit, dele))],
        "H7 integral": [(compose(mult, tensor(unif, idk)), compose(unif, dele))],
    }
    return HopfReport(tuple((name, all(kernel_equal(*pair) for pair in pairs)) for name, pairs in sides.items()))


def dense_channel_distance(f, g):
    zero_ = Fraction(0)
    best = zero_
    for j in range(f.n_dom):
        acc = zero_
        for i in range(f.n_cod):
            acc += abs(f.matrix[i][j] - g.matrix[i][j])
        acc = acc / 2
        if acc > best:
            best = acc
    return best


# ---------------------------------------------------------------------------
# dense rational simplex (oracle for the sparse integer-row solver of `lp`):
# the two-phase Bland tableau over `Fraction` cells, zeros included, with the
# same row preprocessing and certificate lifting


def dense_program(n, a, b, objective=None):
    """The `LinearProgram` with dense rows `a` and right-hand sides `b`: each
    row stored as its nonzero (column, value) pairs, unless it is 0 = 0."""
    from composec.lp import LinearProgram

    rows = []
    for i, (row, bi) in enumerate(zip(a, b)):
        pairs = tuple((j, v) for j, v in enumerate(row) if v)
        if pairs or bi:
            rows.append((i, pairs, bi))
    return LinearProgram(n, len(a), tuple(rows), objective)


def dense_solve_feasible(lp):
    """`lp.solve_feasible` on a dense `Fraction` tableau."""
    from composec.lp import FarkasCert, Feasible, Infeasible

    start = _dense_start(lp)
    if isinstance(start, Infeasible):
        return start
    sx, keep = start
    if sx is None:
        return Feasible((Fraction(0),) * lp.n)
    status, y = sx.phase1()
    if status == "infeasible":
        return Infeasible(FarkasCert(_dense_lift(y, keep, lp.m)))
    return Feasible(tuple(sx.point()))


def dense_minimize(lp):
    """`lp.minimize` on a dense `Fraction` tableau; raises
    `CompositeVerificationFailed` on an objective unbounded below."""
    from composec.lp import FarkasCert, Infeasible, Optimal

    start = _dense_start(lp)
    if isinstance(start, Infeasible):
        return start
    sx, keep = start
    c = list(lp.objective)
    if sx is None:
        if any(v < 0 for v in c):
            raise CompositeVerificationFailed("LP objective is unbounded below")
        return Optimal((Fraction(0),) * lp.n, Fraction(0))
    status, y = sx.phase1()
    if status == "infeasible":
        return Infeasible(FarkasCert(_dense_lift(y, keep, lp.m)))
    x, value = sx.phase2(c)
    return Optimal(tuple(x), value)


def _dense_start(lp):
    """Drop empty and duplicate rows and set up the tableau: (simplex or None
    when no row is left, keep) or Infeasible."""
    from composec.lp import FarkasCert, Infeasible

    seen = set()
    rows, rhs, keep = [], [], []
    for i, (row, bi) in enumerate(zip(lp.a, lp.b)):
        if all(v == 0 for v in row):
            if bi == 0:
                continue
            y = [Fraction(0)] * lp.m
            y[i] = 1 if bi > 0 else -1
            return Infeasible(FarkasCert(tuple(y)))
        key = (tuple(row), bi)
        if key in seen:
            continue
        seen.add(key)
        rows.append(list(row))
        rhs.append(bi)
        keep.append(i)
    return (DenseSimplex(rows, rhs, lp.n) if rows else None), keep


def _dense_lift(y_red, keep, m_full):
    y = [Fraction(0)] * m_full
    for v, i in zip(y_red, keep):
        y[i] = v
    return tuple(y)


class DenseSimplex:
    def __init__(self, rows, rhs, n):
        self.n = n
        self.m = len(rows)
        self.signs = []
        self.tab = []
        for i in range(self.m):
            sign = -1 if rhs[i] < 0 else 1
            self.signs.append(sign)
            art = [Fraction(1) if k == i else Fraction(0) for k in range(self.m)]
            self.tab.append([sign * v for v in rows[i]] + art + [sign * rhs[i]])
        self.basis = [n + i for i in range(self.m)]

    def _pivot(self, obj, r, col):
        inv = 1 / self.tab[r][col]
        prow = self.tab[r] = [v * inv for v in self.tab[r]]
        # subtracting factor * 0 leaves a cell as it is, so only the pivot
        # row's nonzero cells are visited
        support = [k for k, v in enumerate(prow) if v]
        for i in range(self.m):
            row = self.tab[i]
            factor = row[col]
            if i != r and factor:
                for k in support:
                    row[k] -= factor * prow[k]
        factor = obj[col]
        if factor:
            for k in support:
                obj[k] -= factor * prow[k]
        self.basis[r] = col

    def _iterate(self, obj, allowed_cols):
        """Bland's rule; raises when a column enters with no row to leave."""
        while True:
            enter = next((j for j in allowed_cols if obj[j] < 0), -1)
            if enter < 0:
                return
            leave, best = -1, None
            for i in range(self.m):
                piv = self.tab[i][enter]
                if piv > 0:
                    ratio = self.tab[i][-1] / piv
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best, leave = ratio, i
            if leave < 0:
                raise CompositeVerificationFailed("LP objective is unbounded below")
            self._pivot(obj, leave, enter)

    def phase1(self):
        n, m = self.n, self.m
        obj = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
        for row in self.tab:
            for k in range(len(obj)):
                obj[k] -= row[k]
        self._iterate(obj, range(n + m))
        if obj[-1] != 0:
            return "infeasible", [s * (1 - obj[n + i]) for i, s in enumerate(self.signs)]
        r = 0
        while r < self.m:
            if self.basis[r] >= n:
                col = next((j for j in range(n) if self.tab[r][j] != 0), -1)
                if col >= 0:
                    self._pivot(obj, r, col)
                    r += 1
                else:
                    del self.tab[r]
                    del self.basis[r]
                    self.m -= 1
            else:
                r += 1
        self.tab = [row[:n] + [row[-1]] for row in self.tab]
        return "feasible", None

    def point(self):
        x = [Fraction(0)] * self.n
        for i in range(self.m):
            if self.basis[i] < self.n:
                x[self.basis[i]] = self.tab[i][-1]
        return x

    def phase2(self, c):
        """(point, value) at the optimum."""
        obj = list(c) + [Fraction(0)]
        for i in range(self.m):
            cb = c[self.basis[i]]
            if cb:
                for k in range(len(obj)):
                    obj[k] -= cb * self.tab[i][k]
        self._iterate(obj, range(self.n))
        return self.point(), -obj[-1]


# ---------------------------------------------------------------------------
# Fraction-weight network simulation (oracle for the integer weights of
# `Network`'s sweep and `flatten`): every state carries its own weight as a
# `Fraction`, summed as it arrives


def _fraction_run(net, x_ext, symbolic, reached=None):
    """One external input column of `net` (prepared), run alone with
    `Fraction` weights, on value tuples: wire values by producing port,
    external outputs as a growing tuple, and the symbolic node's history put
    back in signature order at the end.  With `reached`, adds to reached[t]
    each (memory, inputs) of a state at schedule item t, external inputs
    set to 0."""
    zero_ = Fraction(0)
    source = {}  # consuming port -> producing port, as (label, port id)
    for a, b in net.wires:
        src, dst = (a, b) if net.signatures[a[0]].port(a[1]).direction == OUT else (b, a)
        source[dst] = src
    produced = set(source.values())
    labels = list(net.signatures)
    # state: (memories by label, sorted (producing port, value) pairs not yet
    # consumed, external outputs so far, symbolic node's (inputs, outputs) per round)
    states = {((0,) * len(labels), (), (), ()): Fraction(1)}
    for t, (lab, r) in enumerate(net.schedule):
        sig = net.signatures[lab]
        slot = labels.index(lab)
        new_states = {}
        for (mems, wires, ys, hist), w in states.items():
            pending = dict(wires)
            x_vals = tuple(
                pending.pop(source[(lab, q.id)]) if (lab, q.id) in source else x_ext[q.id] for q in sig.round_ins(r)
            )
            if reached is not None:
                wired = (v if (lab, q.id) in source else 0 for q, v in zip(sig.round_ins(r), x_vals))
                reached[t].add((mems[slot], *wired))
            if lab != net.symbolic:
                f = net._combs[lab].kernels[r - 1]
                moves = [(index_tuple(f.cod, i), p) for i, p in f.cols[tuple_index(f.dom, (mems[slot],) + x_vals)]]
            else:
                moves = [(y_r + (0,), None) for y_r in all_tuples(tuple(q.alphabet for q in sig.round_outs(r)))]
            for cod_vals, p in moves:
                wv = dict(pending)
                ys2 = ys
                for q, v in zip(sig.round_outs(r), cod_vals):
                    if (lab, q.id) in produced:
                        wv[(lab, q.id)] = v
                    else:
                        ys2 = ys2 + (v,)
                mems2 = mems[:slot] + (cod_vals[-1],) + mems[slot + 1 :]
                if p is None:
                    key, add = (mems2, tuple(sorted(wv.items())), ys2, hist + ((x_vals, cod_vals[:-1]),)), w
                else:
                    key, add = (mems2, tuple(sorted(wv.items())), ys2, hist), w * p
                new_states[key] = new_states.get(key, zero_) + add
        states = new_states
    if not symbolic:
        result = {}
        for (_m, _w, ys, _h), w in states.items():
            result[ys] = result.get(ys, zero_) + w
        return result
    sym = net.signatures[net.symbolic]
    rounds = range(1, sym.rounds + 1)
    in_ids = [q.id for r in rounds for q in sym.round_ins(r)]  # consumption order
    out_ids = [q.id for r in rounds for q in sym.round_outs(r)]
    sym_ins = tuple(q.alphabet for q in sym.ins())
    sym_outs = tuple(q.alphabet for q in sym.outs())
    lin = {}
    for (_m, _wv, ys, hist), w in states.items():
        x_by_id = dict(zip(in_ids, (v for x_r, _y in hist for v in x_r)))
        y_by_id = dict(zip(out_ids, (v for _x, y_r in hist for v in y_r)))
        xs = tuple(x_by_id[q.id] for q in sym.ins())
        yv = tuple(y_by_id[q.id] for q in sym.outs())
        var = tuple_index(sym_ins, xs) * ports_size(sym_outs) + tuple_index(sym_outs, yv)
        forms = lin.setdefault(ys, {})
        forms[var] = forms.get(var, zero_) + w
    return lin


def fraction_evaluate(net):
    """The columns `net.evaluate()` gives, from `Fraction` weights."""
    net._prepare()
    sig = net.result_signature()
    ins, outs = sig.ins(), sig.outs()
    out_alphas = tuple(p.alphabet for p in outs)
    cols = []
    for x in all_tuples(tuple(p.alphabet for p in ins)):
        run = _fraction_run(net, {p.id: v for p, v in zip(ins, x)}, symbolic=False)
        cols.append(tuple(sorted((tuple_index(out_alphas, ys), w) for ys, w in run.items() if w)))
    return tuple(cols)


def fraction_linear_evaluate(net):
    """`net.linear_evaluate()` from `Fraction` weights."""
    net._prepare()
    sig = net.result_signature()
    ins, outs = sig.ins(), sig.outs()
    out_alphas = tuple(p.alphabet for p in outs)
    columns = []
    for x in all_tuples(tuple(p.alphabet for p in ins)):
        run = _fraction_run(net, {p.id: v for p, v in zip(ins, x)}, symbolic=True)
        columns.append({tuple_index(out_alphas, ys): forms for ys, forms in run.items()})
    return sig, columns


def reached_keys(net):
    """For each schedule item of `net`, the kernel columns (memory * inputs'
    size + inputs' index) that its states select with every external input
    at 0, over all external input columns: the keys a `Network` plans."""
    net._prepare()
    sig = net.result_signature()
    reached = [set() for _ in net.schedule]
    for x in all_tuples(tuple(p.alphabet for p in sig.ins())):
        _fraction_run(net, {p.id: v for p, v in zip(sig.ins(), x)}, net.symbolic is not None, reached)
    keys = []
    for (lab, r), found in zip(net.schedule, reached):
        x_alphas = tuple(p.alphabet for p in net.signatures[lab].round_ins(r))
        keys.append({m * ports_size(x_alphas) + tuple_index(x_alphas, xs) for m, *xs in found})
    return keys


def fraction_flatten(c):
    """The columns `flatten(c)` gives, from `Fraction` weights."""
    sig = c.signature
    ins, outs = sig.ins(), sig.outs()
    out_alphas = tuple(p.alphabet for p in outs)
    proc_outs = [k for r in range(1, sig.rounds + 1) for k, p in enumerate(outs) if p.round == r]
    inv_out = {k: pos for pos, k in enumerate(proc_outs)}
    cols = []
    for x in all_tuples(tuple(p.alphabet for p in ins)):
        states = {((), 0): Fraction(1)}
        for r, f in enumerate(c.kernels, start=1):
            x_r = tuple(x[k] for k, p in enumerate(ins) if p.round == r)
            new_states = {}
            for (ys, mem), w in states.items():
                for i, p in f.cols[tuple_index(f.dom, (mem,) + x_r)]:
                    cod_vals = index_tuple(f.cod, i)
                    key = (ys + cod_vals[:-1], cod_vals[-1])
                    new_states[key] = new_states.get(key, Fraction(0)) + w * p
            states = new_states
        acc = {}
        for (ys, _m), w in states.items():
            i = tuple_index(out_alphas, tuple(ys[inv_out[k]] for k in range(len(outs))))
            acc[i] = acc.get(i, Fraction(0)) + w
        cols.append(tuple((i, v) for i, v in sorted(acc.items()) if v))
    return tuple(cols)


def random_network(rng, symbolic=False):
    """Three flattened random combs under a random interleaving of
    their rounds, each out-port wired at random to a later in-port of the
    same alphabet; with `symbolic`, one node is its bare signature."""
    labels = ["a", "b", "c"]
    nodes = {}
    for lab in labels:
        nodes[lab] = flatten(random_comb(rng, parties=(lab,), rounds=rng.randint(1, 2), prefix=lab))
    pending = {lab: list(range(1, b.signature.rounds + 1)) for lab, b in nodes.items()}
    schedule = []
    while any(pending.values()):
        lab = rng.choice([lab for lab in labels if pending[lab]])
        schedule.append((lab, pending[lab].pop(0)))
    pos = {item: t for t, item in enumerate(schedule)}
    free_ins = [(lab, p) for lab in labels for p in nodes[lab].signature.ins()]
    wires = []
    for lab, p in [(lab, p) for lab in labels for p in nodes[lab].signature.outs()]:
        for k, (lab2, q) in enumerate(free_ins):
            if q.alphabet == p.alphabet and pos[(lab, p.round)] < pos[(lab2, q.round)] and rng.random() < 0.9:
                wires.append(((lab, p.id), (lab2, q.id)))
                del free_ins[k]
                break
    if symbolic:
        lab = rng.choice(labels)
        nodes[lab] = nodes[lab].signature
    return Network(list(nodes.items()), wires, schedule)


def tripartite_program(r):
    """The tripartite split check's program written out by hand, cell by
    cell, from r's kernel: the variables of D, s_A, s_B and s_C in that
    order; the stochastic rows of D and s_B interleaved per middle pair,
    then s_A's, then s_C's; then, per (b_l, b_r, a, c), the rows where Alice,
    Bob and Charlie cheat.  Returns the built program."""
    from composec.lp import LpBuilder

    sig = r.signature
    outs = sig.outs()
    a_alphas = tuple(q.alphabet for q in outs if q.party == "alice")
    c_alphas = tuple(q.alphabet for q in outs if q.party == "charlie")
    b_alphas = tuple(q.alphabet for q in sig.ins())
    nb, na, nc = ports_size(b_alphas), ports_size(a_alphas), ports_size(c_alphas)

    def r_entry(a_idx, c_idx, b_idx):
        a_vals, c_vals = iter(index_tuple(a_alphas, a_idx)), iter(index_tuple(c_alphas, c_idx))
        y = tuple(next(a_vals) if q.party == "alice" else next(c_vals) for q in outs)
        return kernel_entry(r.kernel, y, index_tuple(b_alphas, b_idx))

    bld = LpBuilder()
    d_vars = list(bld.new_vars((nb * nb) * (na * nc)))
    sa_vars = list(bld.new_vars((na * nb) * na))
    sb_vars = list(bld.new_vars((nb * nb) * nb))
    sc_vars = list(bld.new_vars((nc * nb) * nc))

    def d(bl, br, a, c):
        return d_vars[(bl * nb + br) * (na * nc) + a * nc + c]

    def sa(ar, bl, a):
        return sa_vars[(ar * nb + bl) * na + a]

    def sb(bl, br, b):
        return sb_vars[(bl * nb + br) * nb + b]

    def sc(cr, br, c):
        return sc_vars[(cr * nb + br) * nc + c]

    one_ = Fraction(1)
    for bl in range(nb):
        for br in range(nb):
            bld.add_eq({d(bl, br, a, c): one_ for a in range(na) for c in range(nc)}, one_)
            bld.add_eq({sb(bl, br, b): one_ for b in range(nb)}, one_)
    for ar in range(na):
        for bl in range(nb):
            bld.add_eq({sa(ar, bl, a): one_ for a in range(na)}, one_)
    for cr in range(nc):
        for br in range(nb):
            bld.add_eq({sc(cr, br, c): one_ for c in range(nc)}, one_)
    for bl in range(nb):
        for br in range(nb):
            for a in range(na):
                for c in range(nc):
                    # Alice cheats: the honest side drives r with the right input
                    row = {d(bl, br, a, c): one_}
                    for ar in range(na):
                        row[sa(ar, bl, a)] = -r_entry(ar, c, br)
                    bld.add_eq(row, Fraction(0))
                    # Bob cheats: both middle inputs feed his simulator
                    row = {d(bl, br, a, c): one_}
                    for b in range(nb):
                        row[sb(bl, br, b)] = -r_entry(a, c, b)
                    bld.add_eq(row, Fraction(0))
                    # Charlie cheats: mirror of Alice
                    row = {d(bl, br, a, c): one_}
                    for cr in range(nc):
                        row[sc(cr, br, c)] = -r_entry(a, cr, bl)
                    bld.add_eq(row, Fraction(0))
    return bld.build()
