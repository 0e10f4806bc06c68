"""Every record class of the package keeps what a frozen dataclass gave it:
its fields in order, a constructor that binds its arguments to them as a
function with the fields for parameters would, their defaults, equality and
hash over the field tuple (and only between records of one class), the
`Name(field=value!r, ...)` repr, refusal to assign or delete, weak
references, and the memos and cached views that live beside the fields."""

import importlib
import weakref
from fractions import Fraction

import pytest

from composec.comb import IN, OUT, Behavior, CombKernels, PortSpec, Signature, realize
from composec.errors import ChainMismatch, DimensionMismatch, DuplicatePortId, WiringMismatch
from composec.lp import FarkasCert, Feasible, Infeasible, LinearProgram
from composec.record import Record
from composec.resources import Converter, Protocol
from composec.stoch import UNIT, Alphabet, Kernel, make_kernel

from tests.helpers import BIT, behavior_from_table, identity_protocol

F = Fraction

# module.class: (fields in order, constructor defaults)
RECORDS = {
    "attacks.SecurityReport": (
        "verdict epsilon cert farkas lp",
        {"epsilon": None, "cert": None, "farkas": None, "lp": None},
    ),
    "attacks.Simulator": ("nodes wires", {}),
    "attacks.SimulatorCert": ("j_parties simulator residual", {}),
    "cli.RunResult": ("report exit_code", {}),
    "cli.SpecFileAst": ("statements", {}),
    "cli.Statement": ("line tokens", {}),
    "comb.Behavior": ("signature kernel", {}),
    "comb.CombKernels": ("signature memories kernels", {}),
    "comb.PortSpec": ("id party alphabet direction round", {}),
    "comb.Signature": ("parties rounds ports", {}),
    "distinguisher.CombShape": ("label signature wires schedule", {}),
    "hopf.FiniteGroup": ("name order cayley identity inverse", {}),
    "hopf.HopfReport": ("axioms", {}),
    "hopf.OtpInstance": ("group alphabet key auth_channel source protocol target sigma", {}),
    "hopf.StreamCipherReport": ("expansion_epsilon composite", {}),
    "lp.FarkasCert": ("y", {}),
    "lp.Feasible": ("point", {}),
    "lp.Infeasible": ("cert", {}),
    "lp.LinearProgram": ("n m rows objective", {"objective": None}),
    "lp.Optimal": ("point value", {}),
    "nogo.NogoVerdict": ("feasible witness cert lp", {"witness": None, "cert": None, "lp": None}),
    "nogo.OracleReport": ("contradiction charlie_forced alice_forced required_agreement achievable_agreement", {}),
    "resources.Converter": ("party comb wiring", {"wiring": ()}),
    "resources.Protocol": ("source target converters schedule", {}),
    "stoch.Alphabet": ("name size", {}),
    "stoch.Kernel": ("dom cod cols", {}),
}


def _class(name: str) -> type:
    module, cls = name.split(".")
    return getattr(importlib.import_module(f"composec.{module}"), cls)


def _filled(cls: type, values) -> Record:
    """A record holding `values`, set as its constructor sets them, without
    the constructor's checks."""
    record = object.__new__(cls)
    for field, value in zip(cls._fields, values):
        object.__setattr__(record, field, value)
    return record


def test_every_record_class_is_listed():
    importlib.import_module("composec.cli")  # imports every module
    found = {f"{c.__module__.split('.')[1]}.{c.__qualname__}" for c in Record.__subclasses__()}
    assert found == set(RECORDS)


def _arguments(name: str) -> tuple:
    """Field values the constructor of `name` accepts: the fields of a
    record built by other means where the constructor checks its arguments,
    else placeholders."""
    valid = {
        "comb.CombKernels": lambda: realize(_echo())._values,
        "comb.PortSpec": lambda: _echo().signature.ports[0]._values,
        "comb.Signature": lambda: _echo().signature._values,
        "lp.LinearProgram": lambda: (2, 2, ((0, ((0, F(1)),), F(1)),), (F(1), F(0))),
        "resources.Protocol": lambda: identity_protocol(_echo())._values,
        "stoch.Alphabet": lambda: ("z2", 2),
    }
    if name in valid:
        return valid[name]()
    return tuple(("v", k) for k in range(len(_class(name)._fields)))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_and_constructor_parameters(name):
    """The constructor takes the fields in order, positionally or by
    keyword, fills the pinned defaults, and refuses a call a function with
    the fields as parameters would refuse."""
    fields, defaults = RECORDS[name]
    cls = _class(name)
    assert cls._fields == tuple(fields.split())
    values = _arguments(name)
    assert cls(*values)._values == values
    assert cls(**dict(zip(cls._fields, values)))._values == values
    required = len(cls._fields) - len(defaults)
    assert cls._fields[required:] == tuple(defaults)
    assert cls(*values[:required])._values == values[:required] + tuple(defaults.values())
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    if cls._fields:
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_hash_and_repr_follow_the_field_tuple(name):
    cls = _class(name)
    values = tuple(("v", k) for k in range(len(cls._fields)))
    a, b = _filled(cls, values), _filled(cls, values)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    for k in range(len(values)):
        other = _filled(cls, values[:k] + (("w", k),) + values[k + 1 :])
        assert a != other
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
    assert repr(a) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    cls = _class(name)
    values = tuple(range(len(cls._fields)))
    record = _filled(cls, values)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, "changed")
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, f) for f in cls._fields) == values
    assert weakref.ref(record)() is record


def test_records_of_different_classes_are_unequal():
    p = (F(1), F(0))
    records = [Feasible(p), FarkasCert(p), Infeasible(p)]
    assert len({hash(r) for r in records}) == 1  # the same field tuple
    assert all(r != s for r in records for s in records if r is not s)
    assert len(set(records)) == 3


def test_repr():
    z2 = Alphabet("z2", 2)
    assert repr(z2) == "Alphabet(name='z2', size=2)"
    assert repr(PortSpec("m", "alice", z2, IN, 1)) == (
        "PortSpec(id='m', party='alice', alphabet=Alphabet(name='z2', size=2), direction='in', round=1)"
    )
    assert repr(FarkasCert((F(1, 2),))) == "FarkasCert(y=(Fraction(1, 2),))"


def _echo() -> Behavior:
    sig = Signature(("a",), 1, (PortSpec("x", "a", BIT, IN, 1), PortSpec("y", "a", BIT, OUT, 1)))
    return behavior_from_table(sig, [[1, 0], [0, 1]])


def test_behavior_memo_and_weak_reference():
    b = _echo()
    ref = weakref.ref(b)
    assert ref() is b
    comb = realize(b)
    assert realize(b) is comb and b._comb is comb
    twin = Behavior(b.signature, b.kernel)
    assert twin._comb is None
    assert b == twin and hash(b) == hash(twin)
    assert "_comb" not in repr(b)
    with pytest.raises(AttributeError):
        b._comb = None


def test_cached_views_are_built_once_and_stay_out_of_equality():
    k = make_kernel((BIT,), (BIT,), [[F(1, 2), 0], [F(1, 2), 1]])
    assert k.matrix is k.matrix and k.scaled is k.scaled
    assert k.scaled == (2, (((0, 1), (1, 1)), ((1, 2),)))
    assert k == Kernel(k.dom, k.cod, k.cols) and hash(k) == hash(Kernel(k.dom, k.cod, k.cols))
    prog = LinearProgram(2, 2, ((0, ((0, F(1)),), F(1)),))
    assert prog.a is prog.a and prog.a == ((F(1), F(0)), (F(0), F(0)))
    assert prog.b is prog.b and prog.b == (F(1), F(0))
    assert prog == LinearProgram(2, 2, prog.rows)
    # read by the benchmark's answer check, and not a field
    assert prog.lower_bounds is None and "lower_bounds" not in vars(prog)


def test_each_protocol_has_its_own_view_memo():
    r = _echo()
    p, q = identity_protocol(r), identity_protocol(r)
    assert p._views == {} and p._views is not q._views
    p._views[("a",)] = r
    assert p == q and hash(p) == hash(q)
    assert "_views" not in repr(p)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Alphabet("empty", 0), ValueError, "must have size >= 1"),
        (lambda: PortSpec("x", "a", BIT, "sideways", 1), ValueError, "direction must be"),
        (lambda: PortSpec("x", "a", BIT, IN, 0), ValueError, "round must be >= 1"),
        (lambda: Signature(("a",), 0, ()), ValueError, "at least one round"),
        (lambda: Signature(("a",), 1, (PortSpec("x", "a", BIT, IN, 1),) * 2), DuplicatePortId, "duplicate"),
        (lambda: Signature(("a",), 1, (PortSpec("x", "a", BIT, IN, 2),)), ValueError, "in round 2 > 1"),
        (lambda: Signature(("a",), 1, (PortSpec("x", "b", BIT, IN, 1),)), ValueError, "unknown party"),
        (lambda: CombKernels(_echo().signature, (UNIT,), ()), ChainMismatch, "need k kernels"),
        (lambda: LinearProgram(1, 0, ((0, ((0, F(1)),), F(1)),)), DimensionMismatch, "1 rows vs 0"),
        (lambda: LinearProgram(1, 1, ((0, (), F(0)),)), DimensionMismatch, "0 = 0, which is counted, not stored"),
        (lambda: LinearProgram(1, 2, ((1, (), F(1)), (0, (), F(1)))), DimensionMismatch, "indexes out of order"),
        (lambda: LinearProgram(1, 1, ((0, ((1, F(1)),), F(0)),)), DimensionMismatch, "out of order or out of range"),
        (lambda: LinearProgram(1, 0, (), objective=()), DimensionMismatch, "objective length"),
        (
            lambda: Protocol(*[_echo()] * 2, (Converter("a", _echo()),) * 2, ()),
            WiringMismatch,
            "multiple converters",
        ),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_constructors_check_their_arguments(build, error, message):
    with pytest.raises(error, match=message):
        build()
