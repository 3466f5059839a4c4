"""Immutable value records: what a frozen dataclass gives, without
generating code when a class is defined.

A subclass declares its fields as class annotations, in order, with
defaults as class attributes.  ``__init_subclass__`` reads them once, and
the methods below then construct (positionally or by keyword, then
``__post_init__``), compare and hash by the field tuple, print as
``Name(field=value, ...)`` and refuse assignment and deletion, exactly as
the frozen dataclass would.

>>> class Point(Record):
...     x: int
...     y: int = 0
>>> p = Point(1)
>>> p, p == Point(y=0, x=1), hash(p) == hash((1, 0))
(Point(x=1, y=0), True, True)
>>> p.x = 2
Traceback (most recent call last):
    ...
AttributeError: cannot assign to field 'x'
"""

from __future__ import annotations

from operator import attrgetter, itemgetter


def _gather(keys, getter=itemgetter):
    """The function x |-> tuple(x[k] for k in keys), or with ``attrgetter``
    the tuple of x's attributes named by keys, gathering at C level;
    ``keys`` is not empty."""
    get = getter(*keys)
    return get if len(keys) > 1 else lambda x: (get(x),)


def _group_law(table, e, inverse, generators):
    """The first failure of the group law on a table of tuples
    (``table[a][b]`` is a * b), or None.  Element by element, e is a
    two-sided identity, witness ("identity", a), and ``inverse[a]`` a
    two-sided inverse of a, witness ("inverse", a); then, for each s in
    ``generators``, (x s) y = x (s y) for all x and y, witness
    ("associativity", x, s).  When the generators generate the table, the
    last is Light's test that it is associative (Clifford and Preston,
    The Algebraic Theory of Semigroups, vol. 1, 1961, section 1.2):
    k generators cost k |G| row gathers, not the |G|^3 of every triple."""
    for a, (b, row) in enumerate(zip(inverse, table)):
        if not table[e][a] == a == row[e]:
            return "identity", a
        if not row[b] == e == table[b][a]:
            return "inverse", a
    return next((("associativity", x, s) for s in generators
                 for through in [_gather(table[s])]  # x (s y) from row x
                 for x, row in enumerate(table)
                 if table[row[s]] != through(row)), None)


def _is_int(x):
    """Whether x is an integer: an int, not a bool (JSON true is 1) or a
    float that compares equal to one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _ints(values, what):
    """``values`` as a list, refused with ValueError unless each is an
    integer by ``_is_int``: a float or a bool is never rounded."""
    values = list(values)
    if not all(map(_is_int, values)):
        raise ValueError(f"{what} must be integers")
    return values


class Record:
    """Base of the library's immutable values (see the module docstring)."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        # as in a dataclass, defaults are class attributes on trailing fields
        required = len(fields)
        while required and hasattr(cls, fields[required - 1]):
            required -= 1
        cls._fields, cls._astuple = fields, staticmethod(
            _gather(fields, attrgetter))
        # all that a construction reads, in one lookup
        cls._init = (fields, required,
                     tuple(getattr(cls, n) for n in fields[required:]),
                     getattr(cls, "__post_init__", None))

    def __init__(self, *args, **kwargs):
        fields, required, defaults, post_init = self._init
        if kwargs or not required <= len(args) <= len(fields):
            args = self._bind(args, kwargs)
        elif len(args) < len(fields):
            args += defaults[len(args) - required:]
        self.__dict__.update(zip(fields, args))
        if post_init is not None:
            post_init(self)

    @classmethod
    def _bind(cls, args, kwargs):
        """Field values in order from arguments that are not all positional."""
        fields, required, defaults, _ = cls._init
        name = cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but "
                            f"{len(args)} were given")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(
                    f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(
                    f"{name}() got multiple values for argument {key!r}")
        values = {**dict(zip(fields[required:], defaults)), **given, **kwargs}
        missing = [n for n in fields if n not in values]
        if missing:
            raise TypeError(
                f"{name}() missing arguments: {', '.join(missing)}")
        return [values[n] for n in fields]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            astuple = self._astuple
            return astuple(self) == astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
