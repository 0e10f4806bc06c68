"""Immutable records.

Every value type of the package (alphabets, kernels, signatures, LP
outcomes, verdicts, ...) is a `Record`: a plain class whose fields are its
own annotated attributes, in order, with a default wherever the class body
gives the annotated name a value (`name: str = ""`).  The base class gives
what a frozen dataclass would:

- one constructor, `Record.__init__`, which binds positional arguments in
  field order, then keywords, then defaults, and raises `TypeError` on too
  many arguments, an unknown keyword, a repeated argument or a missing one;
- equality: a record equals only a record of the same class whose field
  tuple is equal;
- a hash of the field tuple;
- the repr `Name(field=value!r, ...)`;
- assigning or deleting an attribute raises `AttributeError`.

A class whose arguments need checking defines its own `__init__`, checks
them and hands them to `super().__init__`.  Attributes that are not
annotated (a memo set with `object.__setattr__`, a
`functools.cached_property` value) live in the instance dict and take no
part in any of these.  Records keep an instance dict and accept weak
references.

One pass of the benchmark (seed 101) builds 3,755 records on the spec
corpus (1,344 `PortSpec`, 906 `Kernel`), 233 on the large tables and 577 on
the adaptive checks.  Against a constructor spelled out per class, the shared one costs
between 0.1 us less (a three-field `Kernel`, which it fills in one dict
update) and 0.15 us more (a `PortSpec`, which checks its arguments first),
under a millisecond of a corpus pass (timeit, Python 3.11).
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        # `_values` is the field tuple; `attrgetter` of one name gives the
        # bare value, and of none raises
        if len(fields) > 1:
            cls._values = property(attrgetter(*fields))
        elif fields:
            get = attrgetter(fields[0])
            cls._values = property(lambda self: (get(self),))
        else:
            cls._values = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, from positional arguments, keywords
        and defaults."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = list(args)
        for field in fields[len(args) :]:
            if field in kwargs:
                values.append(kwargs[field])
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        return values

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
