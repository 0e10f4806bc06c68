"""Immutable records.

Every value type of the package (alphabets, kernels, signatures, LP
outcomes, verdicts, ...) is a `Record`: a plain class whose fields are its
own annotated attributes, in order, and whose own `__init__` checks its
arguments and sets the fields through `object.__setattr__`.  The base class
gives what a frozen dataclass would:

- equality: a record equals only a record of the same class whose field
  tuple is equal;
- a hash of the field tuple;
- the repr `Name(field=value!r, ...)`;
- assigning or deleting an attribute raises `AttributeError`.

Attributes that are not annotated (a memo set with `object.__setattr__`, a
`functools.cached_property` value) live in the instance dict and take no
part in any of these.  Records keep an instance dict and accept weak
references.

Records are built by the thousand in one check, so each class spells out
its own constructor rather than going through a generic one.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # `_values` is the field tuple; `attrgetter` of one name gives the
        # bare value, and of none raises
        if len(fields) > 1:
            cls._values = property(attrgetter(*fields))
        elif fields:
            get = attrgetter(fields[0])
            cls._values = property(lambda self: (get(self),))
        else:
            cls._values = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: records are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: records are immutable")
