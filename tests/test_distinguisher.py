"""The adaptive distinguisher by backward induction, checked against the
exhaustive strategy enumeration kept in tests/helpers.py, and the sparse
match rows checked against their dense build."""

import copy
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from composec import distinguisher, lp as lpmod
from composec.attacks import dummy_attack, min_epsilon, search_simulator
from composec.comb import (
    IN,
    OUT,
    Behavior,
    CombKernels,
    PortSpec,
    behavior_distance,
    causality_report,
    decision_rounds,
    flatten,
    make_signature,
)
from composec.cli import parse_spec, run
from composec.distinguisher import add_advantage_objective, add_cell_gaps, add_match_rows, causality_rows, table_lp
from composec.errors import CompositeVerificationFailed, InterfaceMismatch
from composec.hopf import build_otp, group_make
from composec.lp import FarkasCert, Infeasible, LpBuilder, Optimal
from composec.nogo import (
    broadcast_resource,
    commitment_resource,
    min_split_advantage,
    split_check,
    tripartite_completion,
    tripartite_split_check,
)
from composec.resources import Protocol, Resource
from composec.stoch import UNIT, Alphabet, Kernel, index_projection
from tests.helpers import (
    BIT,
    TRIT,
    behavior_from_table,
    dense_forms,
    dense_match_rows,
    enumerated_distance,
    random_comb,
    random_kernel,
    simulator_forms,
    split_forms,
    strategy_cells,
    strategy_count,
)

ONE = Alphabet("one", 1)
SRC = Path(__file__).resolve().parent.parent / "src"
SPECS = sorted((SRC.parent / "specs").glob("*.spec"))


def _pair(rng, parties, rounds, alphabets):
    """Two random causal behaviours with one signature."""
    comb = random_comb(rng, parties=parties, rounds=rounds, alphabets=alphabets)
    kernels = tuple(random_kernel(rng, k.dom, k.cod) for k in comb.kernels)
    return flatten(comb), flatten(CombKernels(comb.signature, comb.memories, kernels))


def test_backward_induction_matches_enumeration():
    rng = random.Random(2105)
    checked = wide_rounds = unit_ports = 0
    while checked < 40:
        rounds = rng.choice([2, 3])
        a, b = _pair(rng, ("p",), rounds, [BIT, TRIT, ONE] if rounds == 2 else [BIT, ONE])
        sig = a.signature
        if strategy_count(sig) > 4000:
            continue
        checked += 1
        wide_rounds += any(len(sig.round_ins(r)) + len(sig.round_outs(r)) >= 2 for r in range(1, rounds + 1))
        unit_ports += any(p.alphabet.size == 1 for p in sig.ports)
        assert behavior_distance(a, b) == enumerated_distance(a, b)
        assert behavior_distance(a, a) == 0
    assert wide_rounds and unit_ports


def _satisfies_causality_rows(b: Behavior) -> bool:
    n_y = b.kernel.n_cod
    cols = [dict(col) for col in b.kernel.cols]

    def var(j: int, i: int) -> int:
        return j * n_y + i

    rows = causality_rows(b.signature, var)
    return all(sum(c * cols[v // n_y].get(v % n_y, 0) for v, c in row.items()) == 0 for row in rows)


def test_causality_rows_hold_exactly_when_causal():
    # random causal combs, and copies with two columns swapped: columns that
    # share their round-1 inputs, and any two columns, which mostly breaks
    # causality when some input comes after an output
    rng = random.Random(4417)
    seen = {True: 0, False: 0}
    for _ in range(60):
        b = flatten(random_comb(rng, rounds=rng.choice([2, 3])))
        assert causality_report(b).ok and _satisfies_causality_rows(b)
        ins = b.signature.ins()
        early = index_projection(b.kernel.dom, [k for k, p in enumerate(ins) if p.round == 1])
        pairs = [(j1, j2) for j1 in range(b.kernel.n_dom) for j2 in range(j1)]
        sharing = [(j1, j2) for j1, j2 in pairs if early(j1) == early(j2)]
        for j1, j2 in rng.sample(sharing, min(2, len(sharing))) + rng.sample(pairs, min(2, len(pairs))):
            cols = list(b.kernel.cols)
            cols[j1], cols[j2] = cols[j2], cols[j1]
            swapped = Behavior(b.signature, Kernel(b.kernel.dom, b.kernel.cod, tuple(cols)))
            ok = causality_report(swapped).ok
            assert _satisfies_causality_rows(swapped) == ok
            seen[ok] += 1
    assert seen[True] >= 10 and seen[False] >= 10


def _enumeration_value(bld, aligned, target) -> Fraction:
    """The advantage LP as it was built before backward induction: one row
    t >= 1/2 sum of cell gaps per deterministic strategy."""
    t, u = add_cell_gaps(bld, aligned, target)
    half = Fraction(1, 2)
    for cells in strategy_cells(target.signature):
        row = {u[j][i]: -half for j, i in cells}
        row[t] = Fraction(1)
        bld.add_ge(row, Fraction(0))
    bld.set_objective({t: Fraction(1)})
    prog = bld.build()
    out = lpmod.minimize(prog)
    assert isinstance(out, Optimal) and lpmod.verify(out, prog)
    return out.value


def _enumerated_split_advantage(r: Resource) -> Fraction:
    g_sig, aligned, target = split_forms(r)
    return _enumeration_value(table_lp(g_sig), aligned, target)


def _enumerated_epsilon(p: Protocol, j) -> Fraction:
    real = dummy_attack(p, p.source, j)
    sim_sig, aligned = simulator_forms(real, p.target, j)
    return _enumeration_value(table_lp(sim_sig), aligned, real)


def _adaptive(sig) -> bool:
    """Some input choice comes after an output with more than one value."""
    seen = 1
    for xs, ys in decision_rounds(sig):
        if len(xs) > 1 and seen > 1:
            return True
        seen *= len(ys)
    return False


# two-party, two-round signatures whose splits are adaptive: (id, party,
# direction, round) with bit alphabets
SPLIT_SHAPES = (
    (("a1", "alice", IN, 1), ("b1", "bob", OUT, 1), ("a2", "alice", IN, 2), ("b2", "bob", OUT, 2)),
    (("a1", "alice", IN, 1), ("a1o", "alice", OUT, 1), ("b2", "bob", IN, 2), ("b2o", "bob", OUT, 2)),
)


def _random_on(rng, ports) -> Resource:
    sig = make_signature(["alice", "bob"], 2, [PortSpec(pid, pa, BIT, d, r) for pid, pa, d, r in ports])
    mems = (UNIT, BIT, UNIT)
    kernels = []
    for r in (1, 2):
        dom = (mems[r - 1],) + tuple(p.alphabet for p in sig.round_ins(r))
        cod = tuple(p.alphabet for p in sig.round_outs(r)) + (mems[r],)
        kernels.append(random_kernel(rng, dom, cod))
    return Resource(flatten(CombKernels(sig, mems, tuple(kernels))), name="r")


def test_split_advantage_matches_enumeration_rows():
    r = commitment_resource()
    assert r.signature.rounds == 2
    assert min_split_advantage(r) == _enumerated_split_advantage(r) == Fraction(1, 2)
    rng = random.Random(2007)
    for shape in SPLIT_SHAPES:
        r = _random_on(rng, shape)
        assert _adaptive(split_forms(r)[2].signature)
        want = _enumerated_split_advantage(r)
        assert want > 0
        assert min_split_advantage(r) == want


def test_min_epsilon_matches_enumeration_rows():
    # counts the cases whose distinguisher adapts and whose value is nonzero
    rng = random.Random(2009)
    found = 0
    for _ in range(400):
        if found >= 4:
            break
        real, ideal = _pair(rng, ("alice", "bob"), 2, [BIT, ONE])
        sig = real.signature
        if strategy_count(sig) > 64 or not _adaptive(sig):
            continue
        r = Resource(real, name="r")
        schedule = tuple(("res", t) for t in range(1, sig.rounds + 1))
        proto = Protocol(r, Resource(ideal, name="s"), (), schedule, name="pid")
        j = (rng.choice(["alice", "bob"]),)
        try:
            want = _enumerated_epsilon(proto, j)
        except InterfaceMismatch:
            continue
        assert min_epsilon(proto, r, proto.target, j).epsilon == want
        found += want > 0 and _adaptive(dummy_attack(proto, r, j).signature)
    assert found >= 4


def test_min_epsilon_checks_farkas_certificate(monkeypatch):
    from composec.hopf import build_otp, group_make

    inst = build_otp(group_make(("cyclic", 2)), (Fraction(3, 4), Fraction(1, 4)))
    bogus = lambda prog: Infeasible(FarkasCert(tuple(Fraction(0) for _ in range(prog.m))))
    monkeypatch.setattr(lpmod, "minimize", bogus)
    with pytest.raises(CompositeVerificationFailed):
        min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
    monkeypatch.setattr(lpmod, "verify", lambda out, prog: True)
    rep = min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))
    assert rep.verdict == "insecure" and rep.lp is not None and rep.farkas.y == (0,) * rep.lp.m


def test_min_epsilon_checks_simulator_achieves_value(monkeypatch):
    from composec.hopf import build_otp, group_make

    inst = build_otp(group_make(("cyclic", 2)), (Fraction(3, 4), Fraction(1, 4)))
    assert min_epsilon(inst.protocol, inst.source, inst.target, ("eve",)).epsilon == Fraction(1, 4)
    solve = lpmod.minimize

    def understated(prog):
        out = solve(prog)
        return Optimal(out.point, out.value - Fraction(1, 8))

    monkeypatch.setattr(lpmod, "minimize", understated)
    with pytest.raises(CompositeVerificationFailed):
        min_epsilon(inst.protocol, inst.source, inst.target, ("eve",))


def test_split_advantage_is_rechecked_by_substitution(monkeypatch):
    # without the tree rows nothing bounds t from below, so the LP reports
    # advantage 0; the mediator it returns still leaves the split at 1/2
    assert min_split_advantage(commitment_resource()) == Fraction(1, 2)
    monkeypatch.setattr(distinguisher, "add_tree_rows", lambda bld, t, u, sig: None)
    with pytest.raises(CompositeVerificationFailed, match="^advantage LP's table does not achieve its value"):
        min_split_advantage(commitment_resource())


def test_reverification_survives_optimized_python():
    code = (
        "import sys\n"
        "import composec.lp\n"
        "from composec.errors import CompositeVerificationFailed\n"
        "from composec.nogo import commitment_resource, split_check\n"
        "assert False, 'asserts must be stripped'\n"
        "composec.lp.verify = lambda out, prog: False\n"
        "try:\n"
        "    split_check(commitment_resource())\n"
        "except CompositeVerificationFailed:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _otp_z2():
    from composec.hopf import build_otp, group_make

    inst = build_otp(group_make(("cyclic", 2)))
    return inst.protocol, inst.source, inst.target, ("eve",)


def _completion_input():
    from composec.nogo import constant_output_resource, doubled_middle

    r = constant_output_resource()
    return r, doubled_middle(r, [[1, 1, 0, 0], [0, 0, 1, 1]])


LP_CHECKS = {
    "simulator": lambda: search_simulator(*_otp_z2()),
    "epsilon": lambda: min_epsilon(*_otp_z2()),
    "split": lambda: split_check(commitment_resource()),
    "advantage": lambda: min_split_advantage(commitment_resource()),
    "tripartite": lambda: tripartite_split_check(broadcast_resource()),
    "completion": lambda: tripartite_completion(*_completion_input()),
}

def _unbounded(prog):
    raise CompositeVerificationFailed("LP objective is unbounded below")


# each wrong outcome, and the message the check must fail with
WRONG_OUTCOMES = {
    "unbounded": (_unbounded, lambda what: "^LP objective is unbounded below$"),
    "zero-farkas": (
        lambda prog: Infeasible(FarkasCert(tuple(Fraction(0) for _ in range(prog.m)))),
        lambda what: f"^{what} LP",
    ),
}


@pytest.mark.parametrize("outcome", sorted(WRONG_OUTCOMES))
@pytest.mark.parametrize("what", sorted(LP_CHECKS))
def test_every_lp_check_rejects_a_wrong_outcome(monkeypatch, what, outcome):
    """A forged Farkas certificate fails the check's own re-verification,
    and the solver's refusal of an unbounded objective is not swallowed."""
    LP_CHECKS[what]()  # passes with the real solver
    solve, message = WRONG_OUTCOMES[outcome]
    monkeypatch.setattr(lpmod, "solve_feasible", solve)
    monkeypatch.setattr(lpmod, "minimize", solve)
    with pytest.raises(CompositeVerificationFailed, match=message(what)):
        LP_CHECKS[what]()


def test_completion_rechecks_its_feasible_point(monkeypatch):
    r, d = _completion_input()
    assert tripartite_completion(r, d).feasible
    monkeypatch.setattr(lpmod, "verify", lambda out, prog: False)
    with pytest.raises(CompositeVerificationFailed, match="completion LP's feasible point"):
        tripartite_completion(r, d)


# ---------------------------------------------------------------------------
# match rows over the reached cells only, against the dense build


def _program(prog):
    return prog.n, prog.rows, prog.b, prog.objective


def _dense_objective(bld, aligned, target):
    add_advantage_objective(bld, dense_forms(aligned, target), target)


def _otp_keys(n):
    """Uniform, (1/2, then uniform) and half-support keys over Z_n."""
    half = n // 2
    return (
        None,
        (Fraction(1, 2),) + (Fraction(1, 2 * (n - 1)),) * (n - 1),
        (Fraction(1, half),) * half + (Fraction(0),) * (n - half),
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_sparse_match_rows_equal_the_dense_build_on_otp(n):
    for key in _otp_keys(n):
        inst = build_otp(group_make(("cyclic", n)), key)
        real = dummy_attack(inst.protocol, inst.source, ("eve",))
        sig, aligned = simulator_forms(real, inst.target, ("eve",))
        for add, dense in ((add_match_rows, dense_match_rows), (add_advantage_objective, _dense_objective)):
            bld, ref = table_lp(sig), table_lp(sig)
            add(bld, aligned, real)
            dense(ref, aligned, real)
            assert _program(bld.build()) == _program(ref.build())


def test_sparse_match_rows_equal_the_dense_build_on_every_spec(monkeypatch):
    """Every simulator, split and epsilon program that verifying specs/
    builds equals its build from the dense forms."""
    pairs = {"match": [], "objective": []}

    def both(kind, add, dense):
        def build(bld, aligned, target):
            ref = copy.deepcopy(bld)
            add(bld, aligned, target)
            dense(ref, aligned, target)
            pairs[kind].append((bld.build(), ref.build()))

        return build

    monkeypatch.setattr(distinguisher, "add_match_rows", both("match", add_match_rows, dense_match_rows))
    monkeypatch.setattr(
        distinguisher, "add_advantage_objective", both("objective", add_advantage_objective, _dense_objective)
    )
    for path in SPECS:
        run(parse_spec(path.read_text()), no_meta=True)
    assert len(pairs["match"]) >= 10 and len(pairs["objective"]) >= 5
    for sparse, dense in pairs["match"] + pairs["objective"]:
        assert _program(sparse) == _program(dense)


def test_an_unreached_cell_with_a_target_entry_is_an_immediate_certificate():
    """A cell no execution reaches but the target weighs is the empty row
    0 = 1/2; both builds give it the same index and the same e_i."""
    sig = make_signature(("p",), 1, (PortSpec("y", "p", BIT, OUT, 1),))
    target = behavior_from_table(sig, [[Fraction(1, 2)], [Fraction(1, 2)]])
    aligned = [{0: {0: Fraction(1)}}]  # cell (0, 1) is never reached
    outs = []
    for add in (add_match_rows, dense_match_rows):
        bld = table_lp(sig)
        add(bld, aligned, target)
        prog = bld.build()
        assert prog.m == 3 and prog.rows[-1] == (2, (), Fraction(1, 2))
        out = lpmod.solve_feasible(prog)
        assert lpmod.verify(out, prog)
        outs.append((_program(prog), out))
    assert outs[0] == outs[1]
    assert outs[0][1] == Infeasible(FarkasCert((0, 0, 1)))


def test_otp_z8_search_builds_only_the_reached_match_rows(monkeypatch):
    """The Z8 simulator program has 513 rows, but only the stochastic row and
    the 64 reached cells are built from a coefficient map and stored; the
    rest are runs of 0 = 0 rows, counted and not stored."""
    inst = build_otp(group_make(("cyclic", 8)))
    real = dummy_attack(inst.protocol, inst.source, ("eve",))
    _sig, aligned = simulator_forms(real, inst.target, ("eve",))
    forms = [form for col in aligned for form in col.values()]
    assert len(forms) == 64 and all(forms)
    maps = []
    add_eq = LpBuilder.add_eq

    def counted(self, coeffs, rhs):
        maps.append(coeffs)
        add_eq(self, coeffs, rhs)

    monkeypatch.setattr(LpBuilder, "add_eq", counted)
    rep = search_simulator(inst.protocol, inst.source, inst.target, ("eve",))
    assert rep.lp.m == 513
    assert len(rep.lp.rows) == 1 + 64
    assert len(maps) <= 1 + 64
