"""Finite groups and crossed modules by table, and the unit-groupoid scan.

``FiniteGroup`` holds a group of order up to 64 by its table, every axiom
checked; ``FiniteGroup.from_invariant_factors`` codes a finite abelian
group, numbering elements in the order of ``FgAbGroup.elements()``, so
addition is a lookup and a homomorphism an array of image indices.
``CrossedModule`` checks the shapes of its tables, ``crossed`` its axioms.

``unit_morphism_checks`` scans the units of a crossed module on its
tables, in the conventions of ``crossed``.  It is the library's one
unit-groupoid scan: ``point_models`` runs it on lam: A -> B with trivial
action (level 1) and on delta: A -> B (level 2), and ``crossed`` on a
crossed module.

This lazy layer imports no other; the unit scans, the crossed-module
commands, ``cech-classify`` and parsing a crossed module execute it.
"""

from __future__ import annotations

import itertools
from math import prod
from operator import itemgetter

from .record import Record
from .verification import MAX_CODED_ORDER, CapExceeded

MAX_GROUP_ORDER = 64


class FiniteGroup:
    """A finite group as a multiplication table on 0..n-1.

    Closure, identity, inverses and associativity are all verified at
    construction; the order is capped so exhaustive checks stay cheap.
    Groups built by ``from_invariant_factors`` are correct by construction
    and skip those checks.
    """

    radix = None  # invariant factors of a table-coded abelian group

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
        self.order = n
        # row equations: e's row and column are range(n), and (ab)c = a(bc)
        # for all c reads row ab against row a gathered at row b
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
        then = [_gather(row) for row in self.table]
        for row in self.table:
            if any(self.table[ab] != through(row)
                   for ab, through in zip(row, then)):
                raise ValueError("table is not associative")

    @classmethod
    def from_invariant_factors(cls, factors, name=None):
        """Z/d_1 x ... x Z/d_k, table-coded.

        Element k has the coordinates ``coords(k)``, the k-th tuple in
        lexicographic order, so indices follow ``FgAbGroup.elements()``.
        Orders up to MAX_CODED_ORDER are allowed.
        """
        factors = tuple(int(d) for d in factors)
        if any(d < 1 for d in factors):
            raise ValueError("cyclic factors must be positive")
        n = prod(factors)
        if n > MAX_CODED_ORDER:
            raise CapExceeded(f"group order {n} exceeds {MAX_CODED_ORDER}")
        # append one cyclic factor at a time: (a, x) has index a * d + x
        table, inverse = ((0,),), (0,)
        for d in factors:
            shift = [[(x + y) % d for y in range(d)] for x in range(d)]
            table = tuple(tuple(ab * d + z for ab in row for z in shift[x])
                          for row in table for x in range(d))
            inverse = tuple(a * d + (-x) % d for a in inverse
                            for x in range(d))
        group = cls.__new__(cls)
        group.table, group.inverse, group.order = table, inverse, n
        group.name = name or " x ".join(f"Z/{d}" for d in factors) or "0"
        group.identity, group.radix = 0, factors
        return group

    def mul(self, a, b):
        return self.table[a][b]

    def elements(self):
        return range(self.order)

    # ---- coordinates of a table-coded abelian group ----

    def coords(self, k):
        """The coordinate tuple of element k."""
        out = []
        for d in reversed(self.radix):
            k, c = divmod(k, d)
            out.append(c)
        return tuple(reversed(out))

    def index(self, coords):
        """The element with these coordinates, each reduced mod its factor."""
        k = 0
        for c, d in zip(coords, self.radix, strict=True):
            k = k * d + c % d
        return k

    def image_array(self, matrix, target):
        """The image index of every element under the homomorphism whose
        integer matrix has rows indexed by generators of the table-coded
        ``target`` and columns by ours: element k goes to entry k."""
        images = [target.identity]
        for i, d in enumerate(self.radix):
            gen = target.index([row[i] for row in matrix])
            multiples = [target.identity]
            for _ in range(d - 1):
                multiples.append(target.table[multiples[-1]][gen])
            images = [target.table[x][m] for x in images for m in multiples]
        return images

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
    """Whether x is an element index below n: an int, not a bool or a
    float that compares equal to one (JSON true is 1)."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n


def _gather(indices):
    """The function seq |-> tuple(seq[i] for i in indices), gathering at C
    level; ``indices`` is not empty."""
    get = itemgetter(*indices)
    return get if len(indices) > 1 else lambda seq: (get(seq),)


def _coded(G):
    """The table-coded form of a finite ``FgAbGroup``."""
    return FiniteGroup.from_invariant_factors(G.invariant_factors, str(G))


# --------------------------------------------------------------------------
# units and the unit-groupoid scan


def _coded_units(src, f):
    """Units (e, x) with f[x] = e as index pairs, in lexicographic order;
    x |-> (f[x], x) is a bijection, so there are |src| of them."""
    return sorted((f[x], x) for x in src.elements())


def _fibers(src, tgt, f):
    """The preimages under the array f of every element of tgt, ascending."""
    out = [[] for _ in tgt.elements()]
    for x in src.elements():
        out[f[x]].append(x)
    return out


def unit_morphism_checks(G, H, bnd, act, units, key):
    """The failures of the two checks that make a unit groupoid
    contractible, for the caller to report, and the number of ordered
    pairs of units with exactly one unit morphism.

    ``bnd`` and ``act`` are the boundary array and the action table of a
    crossed module G -> H, ``units`` its units from ``_coded_units``, and
    ``key`` names a unit in witnesses.  Every ordered pair (s, t) must carry
    exactly one unit morphism, found by scanning the fiber of bnd over
    e_t^-1 e_s, and it must be u = (g_t^(e_t^-1))^-1 (g_s^(e_s^-1)); a pair
    that fails is listed as (key(s), key(t), the morphisms found).  These
    morphisms must compose coherently; a triple that fails is listed as
    (key(s), key(t), key(w)).
    """
    mul, inv, h_mul, h_inv = G.table, G.inverse, H.table, H.inverse
    cols = tuple(zip(*mul))  # cols[b][a] = a * b
    fibers = _fibers(G, H, bnd)
    # over u: phi_s then u is cols[g_s][u], (u (x) u) then phi_t squares[t][u]
    squares = [[mul[g][mul[act[u][e]][u]] for u in G.elements()]
               for e, g in units]
    twisted = [act[g][h_inv[e]] for e, g in units]  # g^(e^-1)
    unique = [tuple(mul[inv[x_t]][x_s] for x_t in twisted) for x_s in twisted]
    pair_failures, morphisms = [], 0
    for s, to_t in zip(units, unique):
        through_source, e_s = cols[s[1]], s[0]
        for t, square, u in zip(units, squares, to_t):
            sols = [x for x in fibers[h_mul[h_inv[t[0]]][e_s]]
                    if through_source[x] == square[x]]
            morphisms += len(sols) == 1
            if sols != [u]:
                pair_failures.append((key(s), key(t), sols))
    coherence_failures, rows = [], [_gather(to_w) for to_w in unique]
    for s, to_t in zip(units, unique):
        for t, u_st, to_w in zip(units, to_t, rows):
            composites = to_w(cols[u_st])  # u_st then u_tw is u_tw * u_st
            if composites != to_t:
                coherence_failures.extend(
                    (key(s), key(t), key(w))
                    for w, c, u_sw in zip(units, composites, to_t)
                    if c != u_sw)
    return pair_failures, coherence_failures, morphisms
