"""The adaptive distinguisher by backward induction, checked against the
exhaustive strategy enumeration kept in tests/helpers.py."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from composec import lp as lpmod
from composec.attacks import _symbolic_ideal, dummy_attack, min_epsilon
from composec.comb import (
    IN,
    OUT,
    CombKernels,
    PortSpec,
    behavior_distance,
    decision_rounds,
    flatten,
    make_signature,
)
from composec.distinguisher import add_cell_gaps, table_lp
from composec.errors import CompositeVerificationFailed, InterfaceMismatch
from composec.lp import FarkasCert, Infeasible, Optimal
from composec.nogo import _split_linear, commitment_resource, min_split_advantage
from composec.resources import Protocol, Resource
from composec.stoch import UNIT, Alphabet
from tests.helpers import (
    BIT,
    TRIT,
    enumerated_distance,
    random_comb,
    random_kernel,
    strategy_cells,
    strategy_count,
)

ONE = Alphabet("one", 1)
SRC = Path(__file__).resolve().parent.parent / "src"


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
    prog = bld.build(with_objective=True)
    out = lpmod.minimize(prog)
    assert isinstance(out, Optimal) and lpmod.verify(out, prog)
    return out.value


def _enumerated_split_advantage(r: Resource) -> Fraction:
    g_sig, aligned, target = _split_linear(r)
    return _enumeration_value(table_lp(g_sig), aligned, target)


def _enumerated_epsilon(p: Protocol, j) -> Fraction:
    real = dummy_attack(p, p.source, j)
    shape, aligned = _symbolic_ideal(real, p.target, j)
    return _enumeration_value(table_lp(shape.signature), aligned, real)


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
        assert _adaptive(_split_linear(r)[2].signature)
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
