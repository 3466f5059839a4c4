"""Table-coded finite abelian groups, and the unit-groupoid check.

``CodedGroup`` codes Z/d_1 x ... x Z/d_k as an addition table on
0..n-1, numbering elements in the order of ``FgAbGroup.elements()``, so
addition is a lookup and a homomorphism an array of image indices
(``image_array``).  It is correct by construction, so it runs none of the
axiom checks of ``tables.FiniteGroup``, and it has the attributes the
scans read of either: ``table``, ``inverse``, ``identity``, ``order``,
``generators`` (the unit vectors here, every element there) and
``elements()``.

``unit_morphism_checks`` is the library's one unit-groupoid check, on the
tables of a crossed module in the conventions of ``crossed``:
``point_models`` runs it with the trivial action on lam: A -> B (level 1,
``units`` and ``contractible``) and, at level 2, on lam: B -> C and on
delta: A -> B, and ``crossed`` on a crossed module (``crossed-units``).
It derives the units it checks from the boundary and returns them, so no
caller builds a unit list for it.  It visits no pair of units and no
fiber.  That each ordered pair carries exactly one unit morphism is
cancellation in a group (Kock [MR2388233]; Joyal and Kock, 2009): the
Peiffer identity reduces the unit square to x g_s = x g_t x, whose one
solution g_t^-1 g_s lies in the right fiber because the boundary is a
homomorphism.  So the check tests those premises on the tables, each on
every element: the group law of G (``record._group_law`` on the
``generators``, k |G| row gathers for k cyclic factors, and every
element a product of them), the additivity of the boundary, and the
Peiffer identity, which under the trivial action is the commutativity
of G.
Coherence needs no scan of its own either.  The one morphism of each
ordered pair of units is u_st = x_t^-1 x_s, with x_s the twisted
g_s^(e_s^-1), so u_tw u_st = x_w^-1 (x_t x_t^-1) x_s = u_sw on every
triple of units once G is a group, and a table that breaks the group law
fails both checks.

``_cech_differential`` is the one Cech differential d0*(x) (d1*(x))^-1
of a coded section x over a nerve's face table: the torsor scans of
``cech`` take the lam-fibers over it and their coboundaries from it, and
the descent triples of ``crossed`` their level-1 part.

This lazy layer imports no other; ``units``, ``contractible``,
``crossed-units`` and the torsor scans of ``cech-classify`` execute it.
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
# units and the unit-groupoid check


def _coded_units(src, f):
    """Units (e, x) with f[x] = e as index pairs, in lexicographic order;
    x |-> (f[x], x) is a bijection, so there are |src| of them."""
    return sorted((f[x], x) for x in src.elements())


def unit_morphism_checks(G, H, bnd, act=None, names=("G", "bnd")):
    """The units of a crossed module, and the failed hypotheses of the two
    checks that make its unit groupoid contractible, for the caller to
    report.

    ``bnd`` and ``act`` are the boundary array and the action table of a
    crossed module G -> H, ``act`` None for the trivial action, and
    ``names`` name G and bnd in witnesses.  The units are derived from
    ``bnd`` (``_coded_units``), one per element of G, and returned as
    coded pairs.  Every ordered pair of units (s, t) carries exactly one
    unit morphism, an x in G with bnd(x) = e_t^-1 e_s and
    x g_s = g_t x^(e_t) x (Kock [MR2388233]; Joyal and Kock, 2009), by
    cancellation:

    - e_t = bnd(g_t), so the Peiffer identity turns x^(e_t) into
      g_t^-1 x g_t and the square into x g_s = x g_t x, whose one
      solution in the group G is x = g_t^-1 g_s, which is the
      (g_t^(e_t^-1))^-1 g_s^(e_s^-1) of the module docstring of
      ``crossed``, since g^(bnd(g^-1)) = g;
    - it lies over e_t^-1 e_s because bnd is a homomorphism.

    So no pair is visited.  The hypotheses are checked on the tables, each
    on every element and, where it says so, on each of G's
    ``generators``; H is trusted to be a group, as a ``CodedGroup`` is by
    construction and a ``tables.FiniteGroup`` by its own check:

    - G is a group: ``record._group_law`` on its generators (k |G| row
      gathers for k cyclic factors, |G|^2 on a parsed table, whose every
      element is a generator), and every element is a product of them,
      witness ("generation", a) for the least that is not, which Light's
      associativity test inside ``_group_law`` needs;
    - bnd is additive: bnd(x s) = bnd(x) bnd(s) for every x and each
      generator s;
    - the Peiffer identity g^(bnd s) = s^-1 g s, read as
      s g^(bnd s) = g s, for every g and each generator s: every element
      of a parsed table.  Under the trivial action it says that G is
      commutative, and the generators suffice, since the centre of a
      group is a subgroup.

    The failed ones are returned in this order, each with its first
    failing element in coded indices (the group law's as ``_group_law``
    gives it): "exactly one unit morphism per ordered pair" rests on all
    three.  The morphisms compose coherently, u_tw u_st = u_sw on every
    triple of units, once G is a group: u_st = x_t^-1 x_s with
    x_s = g_s^(e_s^-1), so u_tw u_st = x_w^-1 (x_t x_t^-1) x_s = u_sw.
    The group law's failure, if any, is returned a second time, as the
    one failure of coherence.
    """
    (group, boundary), mul, h_mul, gens = names, G.table, H.table, G.generators
    products = new = {G.identity}  # the products of generators
    while new:
        new = {mul[x][s] for x in new for s in gens} - products
        products |= new
    law = _group_law(mul, G.identity, G.inverse, gens) or next(
        (("generation", a) for a in G.elements() if a not in products), None)
    failed = [h for h in [  # each failure is a tuple, or None
        (f"{group} is a group", law),
        (f"{boundary} is additive",
         next(((x, s) for s in gens for x, row in enumerate(mul)
               if bnd[row[s]] != h_mul[bnd[x]][bnd[s]]), None)),
        # Peiffer as s g^(bnd s) = g s, which is s g = g s for g^h = g
        (f"{group} is commutative" if act is None else "Peiffer identity",
         next(((x, s) for s in gens for x, row in enumerate(mul)
               if mul[s][act[x][bnd[s]] if act else x] != row[s]), None))]
        if h[1]]
    return _coded_units(G, bnd), failed, [law] if law else []
