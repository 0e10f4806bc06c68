"""Shared randomized generators for the test suite (seeded, deterministic),
and the exhaustive strategy enumeration that serves as a test oracle for the
adaptive distinguisher."""

import itertools
from fractions import Fraction

from composec.comb import IN, OUT, CombKernels, PortSpec, Signature, flatten, make_signature
from composec.stoch import UNIT, Alphabet, all_tuples, make_kernel, ports_size, tuple_index

BIT = Alphabet("bit", 2)
TRIT = Alphabet("trit", 3)


def random_kernel(rng, dom, cod, mode="rational"):
    n_dom, n_cod = ports_size(dom), ports_size(cod)
    cols = []
    for _ in range(n_dom):
        raw = [rng.randint(0, 6) for _ in range(n_cod)]
        if sum(raw) == 0:
            raw[rng.randrange(n_cod)] = 1
        total = sum(raw)
        cols.append([Fraction(v, total) for v in raw])
    table = [[cols[j][i] for j in range(n_dom)] for i in range(n_cod)]
    return make_kernel(dom, cod, table, mode)


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


def random_behavior(rng, parties=("p",), rounds=2, max_size=2, prefix="p"):
    return flatten(random_comb(rng, parties, rounds, max_size, prefix))


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
# dense kernel algebra (oracles for the sparse column kernels of `stoch`):
# the loops over full matrix[cod_index][dom_index] tables, in the order
# their sums accumulate


def dense_compose(g, f):
    zero_ = Fraction(0) if f.mode == "rational" else 0.0
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
    zero_ = Fraction(0) if f.mode == "rational" else 0.0
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


def dense_channel_distance(f, g):
    zero_ = Fraction(0) if f.mode == "rational" else 0.0
    best = zero_
    for j in range(f.n_dom):
        acc = zero_
        for i in range(f.n_cod):
            acc += abs(f.matrix[i][j] - g.matrix[i][j])
        acc = acc / 2
        if acc > best:
            best = acc
    return best
