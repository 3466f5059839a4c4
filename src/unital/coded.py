"""Table-coded finite abelian groups, and the unit-groupoid scan.

``CodedGroup`` codes Z/d_1 x ... x Z/d_k as an addition table on
0..n-1, numbering elements in the order of ``FgAbGroup.elements()``, so
addition is a lookup and a homomorphism an array of image indices
(``image_array``).  It is correct by construction, so it runs none of the
axiom checks of ``tables.FiniteGroup``, and it has the attributes the
scans read of either: ``table``, ``inverse``, ``identity``, ``order``,
``generators`` (the unit vectors here, every element there) and
``elements()``.

``unit_morphism_checks`` scans the units of a crossed module on its
tables, in the conventions of ``crossed``.  It is the library's one
unit-groupoid scan: ``point_models`` runs it on lam: A -> B with trivial
action (level 1) and on delta: A -> B (level 2), and ``crossed`` on a
crossed module.  It derives the units it checks from the boundary and
returns them, so no caller builds a unit list for it; level 2 compares
each pair's 1-morphisms with the delta units it returns.  Coherence
needs no scan of its own.  The one morphism of each ordered pair of
units is u_st = x_t^-1 x_s, with x_s the twisted g_s^(e_s^-1), so
u_tw u_st = x_w^-1 (x_t x_t^-1) x_s = u_sw on every triple of units once
the table of G obeys the group law.  So the scan checks that law,
``record._group_law`` on the ``generators`` (k |G| row gathers for k
cyclic factors), and a table that breaks it fails coherence.

``_cech_differential`` is the one Cech differential d0*(x) (d1*(x))^-1
of a coded section x over a nerve's face table: the torsor scans of
``cech`` take the lam-fibers over it and their coboundaries from it, and
the descent triples of ``crossed`` their level-1 part.

This lazy layer imports no other; the unit scans, ``crossed-units`` and
the torsor scans of ``cech-classify`` execute it.
"""

from __future__ import annotations

from math import prod

from .record import _group_law, _ints
from .verification import MAX_CODED_ORDER, CapExceeded


class CodedGroup:
    """Z/d_1 x ... x Z/d_k, table-coded.

    Element k has the coordinates ``coords(k)``, the k-th tuple in
    lexicographic order, so indices follow ``FgAbGroup.elements()``.
    Orders up to MAX_CODED_ORDER are allowed.
    """

    def __init__(self, factors, name=None):
        factors = tuple(_ints(factors, "cyclic factors"))
        if any(d < 1 for d in factors):
            raise ValueError("cyclic factors must be positive")
        n = prod(factors)
        if n > MAX_CODED_ORDER:
            raise CapExceeded(f"group order {n} exceeds {MAX_CODED_ORDER}")
        # append one cyclic factor at a time: (a, x) has index a * d + x
        table, inverse, generators = ((0,),), (0,), ()
        for d in factors:
            shift = [[(x + y) % d for y in range(d)] for x in range(d)]
            table = tuple(tuple(ab * d + z for ab in row for z in shift[x])
                          for row in table for x in range(d))
            inverse = tuple(a * d + (-x) % d for a in inverse
                            for x in range(d))
            # the unit vectors: e_i has index d_(i+1) ... d_k (0 if d_i = 1)
            generators = tuple(g * d for g in generators) + (1 % d,)
        self.table, self.inverse, self.generators = table, inverse, generators
        self.name = name or " x ".join(f"Z/{d}" for d in factors) or "0"
        self.identity, self.radix, self.order = 0, factors, n

    def elements(self):
        return range(self.order)

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


def _coded(G):
    """The table-coded form of a finite ``FgAbGroup``."""
    return CodedGroup(G.invariant_factors, str(G))


def _cech_differential(G, faces):
    """The Cech differential x |-> d0*(x) (d1*(x))^-1 of a coded section x
    of G, in cell order, over ``faces``: per level-1 cell, the positions
    (d0, d1) of its faces (``Nerve.faces(1)``).  G is a ``CodedGroup`` or
    a parsed table.  It returns a function of x, with G's tables looked
    up once, here, not per section."""
    mul, inv = G.table, G.inverse
    return lambda x: tuple([mul[x[f0]][inv[x[f1]]] for f0, f1 in faces])


def _fibers(src, tgt, f):
    """The preimages under the array f of every element of tgt, ascending."""
    out = [[] for _ in tgt.elements()]
    for x in src.elements():
        out[f[x]].append(x)
    return out


# --------------------------------------------------------------------------
# units and the unit-groupoid scan


def _coded_units(src, f):
    """Units (e, x) with f[x] = e as index pairs, in lexicographic order;
    x |-> (f[x], x) is a bijection, so there are |src| of them."""
    return sorted((f[x], x) for x in src.elements())


def unit_morphism_checks(G, H, bnd, act, key):
    """The units of a crossed module, the failures of the two checks that
    make its unit groupoid contractible, for the caller to report, and the
    number of ordered pairs of units with exactly one unit morphism.

    ``bnd`` and ``act`` are the boundary array and the action table of a
    crossed module G -> H, and ``key`` names a unit in witnesses.  The
    units are derived from ``bnd`` (``_coded_units``), one per element of
    G, and returned as coded pairs.  Every ordered pair (s, t) must carry
    exactly one unit morphism, found by scanning the fiber of bnd over
    e_t^-1 e_s, and it must be u = (g_t^(e_t^-1))^-1 (g_s^(e_s^-1)); a pair
    that fails is listed as (key(s), key(t), the morphisms found).  These
    morphisms must compose coherently, u_tw u_st = u_sw for every triple:
    the group law of G on its generators (see the module docstring),
    whose first failure, from ``record._group_law``, is listed.
    """
    mul, inv, h_mul, h_inv = G.table, G.inverse, H.table, H.inverse
    cols = tuple(zip(*mul))  # cols[b][a] = a * b
    units, fibers = _coded_units(G, bnd), _fibers(G, H, bnd)
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
    law = _group_law(mul, G.identity, inv, G.generators)
    return units, pair_failures, [law] if law else [], morphisms
