"""Finite groups and crossed modules by table: what parsing builds.

``FiniteGroup`` holds a group of order up to 64 by its table, every axiom
checked.  ``CrossedModule`` checks the shapes of its tables, ``crossed``
its axioms.  The table-coded abelian groups of the scans, which need no
axiom check, and the unit-groupoid scan are in ``coded``.

This lazy layer imports no other; the crossed-module commands and parsing
a crossed module execute it.
"""

from __future__ import annotations

import itertools

from .record import Record, _group_law, _is_int
from .verification import CapExceeded

MAX_GROUP_ORDER = 64


class FiniteGroup:
    """A finite group as a multiplication table on 0..n-1.

    Closure, identity, inverses and associativity are all verified at
    construction; the order is capped so exhaustive checks stay cheap.
    Associativity is ``record._group_law`` with every element as one of
    the ``generators``, |G|^2 row gathers, as in the unit scan of
    ``coded``.
    """

    def __init__(self, table, name="G"):
        self.table = tuple(tuple(row) for row in table)
        self.name = name
        n = len(self.table)
        if n > MAX_GROUP_ORDER:
            raise CapExceeded(f"group order {n} exceeds {MAX_GROUP_ORDER}")
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table must be square")
        if not all(_is_index(x, n) for row in self.table for x in row):
            raise ValueError("table entries must be element indices")
        self.order, self.generators = n, range(n)
        # row equations: e's row and column are range(n), and b^-1 is where
        # row b and column b hold e
        ident, cols = tuple(range(n)), tuple(zip(*self.table))
        e = next((a for a in range(n)
                  if self.table[a] == ident == cols[a]), None)
        if e is None:
            raise ValueError("no identity element")
        self.identity = e
        self.inverse = [next((b for b, (x, y) in enumerate(zip(row, col))
                              if x == e == y), None)
                        for row, col in zip(self.table, cols)]
        if None in self.inverse:
            raise ValueError(
                f"element {self.inverse.index(None)} has no inverse")
        if _group_law(self.table, e, self.inverse, self.generators):
            raise ValueError("table is not associative")

    def mul(self, a, b):
        return self.table[a][b]

    def elements(self):
        return range(self.order)

    def __str__(self):
        return f"{self.name} (order {self.order})"

    # ---- constructors ----

    @classmethod
    def trivial(cls):
        return cls(((0,),), "1")

    @classmethod
    def cyclic(cls, n):
        return cls([[(a + b) % n for b in range(n)] for a in range(n)],
                   f"Z/{n}")

    @classmethod
    def symmetric(cls, n):
        if n > 4:
            raise CapExceeded("symmetric(n) supported for n <= 4")
        elems = sorted(itertools.permutations(range(n)))
        index = {p: k for k, p in enumerate(elems)}

        def mul(p, q):  # apply p first, then q
            return tuple(q[p[i]] for i in range(n))

        table = [[index[mul(p, q)] for q in elems] for p in elems]
        return cls(table, f"S{n}")


class CrossedModule(Record):
    G: FiniteGroup
    H: FiniteGroup
    boundary: tuple  # boundary[g] in H
    action: tuple    # action[g][h] = g^h, an element of G

    def __post_init__(self):
        object.__setattr__(self, "boundary", tuple(self.boundary))
        object.__setattr__(self, "action",
                           tuple(tuple(r) for r in self.action))
        if len(self.boundary) != self.G.order or \
                any(len(r) != self.H.order for r in self.action) or \
                len(self.action) != self.G.order:
            raise ValueError("boundary/action tables have wrong shapes")
        if not all(_is_index(h, self.H.order) for h in self.boundary) or \
                not all(_is_index(g, self.G.order)
                        for r in self.action for g in r):
            raise ValueError("boundary/action values must be element indices")

    def __str__(self):
        return f"[{self.G} -> {self.H}]"


def _is_index(x, n):
    """Whether x is an element index below n, an integer by ``_is_int``."""
    return _is_int(x) and 0 <= x < n
