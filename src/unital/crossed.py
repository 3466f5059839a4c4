"""Finite crossed modules and the units of the group-like groupoids they
present.

A crossed module is a boundary map lam: G -> H between finite groups with a
right action of H on G, written act(g, h) for g^h, satisfying

    equivariance   lam(g^h) = h^-1 * lam(g) * h
    Peiffer        g^(lam(g')) = g'^-1 * g * g'

A ``tables.CrossedModule`` holds its groups as ``tables.FiniteGroup``
tables (order capped at 64); every axiom is checked exhaustively, as row
equations on the tables, and a failed check names its first violation.

The point model of the presented groupoid has objects H and morphisms
g: h -> h' whenever lam(g) = h'^-1 * h; composition of g then g' is the
product g' * g, and the tensor of morphisms twists the left factor by the
target of the right one: g1 (x) g2 = g1^(tgt g2) * g2.  With these
conventions a unit is a pair (e, g_phi) with lam(g_phi) = e, the unique
unit morphism (e1, g1) -> (e2, g2) is

    u = (g2^(e2^-1))^-1 * (g1^(e1^-1)),

and units with e = 1 are exactly the kernel of lam.

``coded.unit_morphism_checks`` verifies this on tables alone, by
scanning each morphism fiber of lam; the point models run the same scan.
This lazy layer executes ``tables`` with it, and binds ``coded`` and
``covers`` as modules: ``crossed-verify`` executes no other layer, and
``crossed-units`` executes both, for its unit scan and its nerve, and no
Cech calculus.  Parsing and the commands on a complex never execute it.
The report handlers of both commands are at the end of the module.

The unit crossed module lives on K = {(g, h) : lam(g) * h = 1} inside the
right-action semidirect product (g1, h1)(g2, h2) = (g1^h2 * g2, h1 h2), with
boundary g |-> (g^-1, lam g) and K acting through its H-coordinate.  This is
the unique sign reading under which K is closed, the boundary is a
homomorphism, and the crossed-module axioms hold for noncommutative H.
Since h = lam(g)^-1, K is G itself with the twisted product
k1 * k2 = k1^(lam(k2)^-1) k2: its boundary G -> K is the inverse map of G,
and k acts on G through lam(k)^-1.  The cocycle-level group law

    (g1, g1', h1) * (g2, g2', h2) = (g1^(d0* h2) g2, g1'^(h2) g2', h1 h2)

is then closed on valid descent triples.  Units and descent triples have
one coded form: a unit is the index pair (e, g_phi), and a triple
(g, g', h) is three index tuples in cell order, g over level-1 cells and
g', h over level-0 cells.  A triple is valid when, pointwise,
bnd(g') h = 1 and g = d0*(g') (d1*(g'))^-1, so g' determines it.  These
conditions mirror the abelian descent calculus multiplicatively.  For a
2-term complex read as a crossed module with trivial action and boundary
lam they are a tested consequence: (g, g', h) is then the unit cocycle
(a, a_phi, -b), and the law is its pointwise tensor.  For nonabelian
modules on non-point nerves they remain an assumption recorded by the
validator of ``h0_group_law``, not a statement from a reference.
"""

from __future__ import annotations

import itertools

from . import coded, covers
from .record import _gather
from .specfile import _built
from .tables import CrossedModule, FiniteGroup, _is_index
from .verification import MAX_STATES, Report, charge


def _conjugation(group):
    """The table of b^-1 a b, row a and column b."""
    T, inv, elements = group.table, group.inverse, group.elements()
    return [tuple(T[T[inv[b]][a]][b] for b in elements) for a in elements]


def _first_violation(rows):
    """The key of the first (key, lhs, rhs) row with lhs != rhs plus the
    first column where they differ, or None: for rows in key order, the
    first violation in ``itertools.product`` order."""
    return next((key + (next(c for c, (x, y) in enumerate(zip(lhs, rhs))
                             if x != y),)
                 for key, lhs, rhs in rows if lhs != rhs), None)


def verify_crossed_module(X: CrossedModule) -> Report:
    """Exhaustive axiom check, each axiom a family of row equations on the
    tables; each failed check carries its first violation."""
    G, H, bnd, act = X.G, X.H, X.boundary, X.action
    mul, h_mul, Gs, Hs = G.table, H.table, G.elements(), H.elements()
    at_bnd, h_rows = _gather(bnd), [_gather(row) for row in h_mul]
    columns, h_conj = tuple(zip(*act)), _conjugation(H)  # g^h at [h][g]
    report = Report(f"crossed module axioms for {X}")
    for name, rows in (
            ("boundary is a homomorphism",  # row g1, column g2
             (((g1,), _gather(mul[g1])(bnd), at_bnd(h_mul[bnd[g1]]))
              for g1 in Gs)),
            ("identity acts trivially",  # column g
             [((), columns[H.identity], tuple(Gs))]),
            ("action composes as a right action",  # row (g, h1), column h2
             (((g, h1), h_rows[h1](row), act[row[h1]])
              for g, row in enumerate(act) for h1 in Hs)),
            ("each element acts by an endomorphism",  # row (g1, g2), column h
             (((g1, g2), act[mul[g1][g2]],
               tuple(mul[x][y] for x, y in zip(act[g1], act[g2])))
              for g1 in Gs for g2 in Gs)),
            ("each element acts bijectively",  # column h
             [((), tuple(map(len, map(set, columns))),
               (G.order,) * H.order)]),
            ("equivariance: bnd(g^h) = h^-1 bnd(g) h",  # row g, column h
             (((g,), _gather(row)(bnd), h_conj[b])
              for g, row, b in zip(Gs, act, bnd))),
            ("Peiffer identity: g^(bnd g') = g'^-1 g g'",  # row g, column g'
             (((g,), at_bnd(row), conj)
              for g, row, conj in zip(Gs, act, _conjugation(G))))):
        w = _first_violation(rows)
        report.add(name, w is None, w)
    report.data.update({"|G|": G.order, "|H|": H.order})
    return report


def pi1_order(X: CrossedModule):
    return X.boundary.count(X.H.identity)


def pi0_order(X: CrossedModule):
    return X.H.order // len(set(X.boundary))


def unit_crossed_module(X: CrossedModule) -> CrossedModule:
    """The crossed module G -> K presenting the unit groupoid of X, with
    K as in the module docstring: element k of G is (k, bnd(k)^-1) in K.
    The boundary is bijective, so both homotopy groups of the result are
    trivial.  The result is not verified here: ``crossed-units`` checks
    its axioms as named checks.
    """
    if not verify_crossed_module(X).passed:
        raise ValueError("not a crossed module")
    G, H = X.G, X.H
    twisted = _gather([H.inverse[b] for b in X.boundary])
    action = [twisted(row) for row in X.action]  # g^(bnd(k)^-1) at k
    table = [[G.table[x][k2] for k2, x in enumerate(row)] for row in action]
    K = FiniteGroup(table, f"ker({G.name} semidirect {H.name} -> {H.name})")
    return CrossedModule(G, K, G.inverse, action)


# --------------------------------------------------------------------------
# point-model units


def enumerate_units_nonabelian(X: CrossedModule, max_states=MAX_STATES):
    """All units as coded pairs (e, g_phi), plus the contractibility report.

    ``unit_morphism_checks`` derives the units, lam(g) |-> (lam(g), g) for
    g in G, and checks that every ordered pair carries exactly one unit
    morphism and that these compose coherently, the latter as the group
    law of G on its ``generators``, every element of a parsed table:
    |G|^2 row gathers.  Here the units with e = 1 are checked to be the
    kernel of the boundary.  The charge, made before the scan builds any
    unit, is still |G|^3, the coherence triples once scanned, so it
    over-counts the work.
    """
    G, H = X.G, X.H
    charge("coherence scan", G.order ** 3, "|G|^3", max_states)
    units, pairs, coherence, _ = coded.unit_morphism_checks(
        G, H, X.boundary, X.action, lambda unit: unit)
    report = Report("contractibility of the nonabelian unit groupoid")
    report.add("unit set nonempty", len(units) == G.order,
               f"{len(units)} units")
    kernel = [g for g, e in enumerate(X.boundary) if e == H.identity]
    trivial_e = sorted(g for e, g in units if e == H.identity)
    report.add("units over the identity are the kernel of the boundary",
               trivial_e == kernel, (trivial_e, kernel))
    report.add("exactly one unit morphism per ordered pair", not pairs,
               pairs[:3] or f"{len(units) ** 2} morphisms")
    report.add("composition of unique morphisms is coherent", not coherence,
               coherence[:3] or None)
    report.data["units"] = len(units)
    return units, report


# --------------------------------------------------------------------------
# descent triples and their group law


def _triple_of(X, faces):
    """g' |-> (d0*(g') (d1*(g'))^-1, g', bnd(g')^-1): the descent triple
    over a level-0 choice g', coded in cell order.  Its g is the Cech
    differential of g' (``coded._cech_differential``) on the table of G."""
    d = coded._cech_differential(X.G, faces)
    h_inv, bnd = X.H.inverse, X.boundary
    return lambda gp: (d(gp), gp, tuple(h_inv[bnd[x]] for x in gp))


def enumerate_unit_triples(X, nerve, max_states=MAX_STATES):
    """Every descent triple (g, g', h) over the nerve, one per g' in
    G(V_0), as index tuples in cell order: g over level 1, g' and h over
    level 0.  The |G|^|V_0| triples are charged before any table is read,
    and then yielded one at a time."""
    n0 = len(nerve.level(0))
    charge("triple enumeration", X.G.order ** n0, "|G|^|V_0|", max_states)
    return map(_triple_of(X, nerve.faces(1)),
               itertools.product(X.G.elements(), repeat=n0))


def _product(X, faces, t1, t2):
    (g1, gp1, h1), (g2, gp2, h2) = t1, t2
    mul, act = X.G.table, X.action
    return (tuple(mul[act[x][h2[f0]]][y]
                  for x, (f0, _), y in zip(g1, faces, g2)),
            tuple(mul[act[x][h]][y] for x, h, y in zip(gp1, h2, gp2)),
            tuple(X.H.table[x][y] for x, y in zip(h1, h2)))


def h0_group_law(X, nerve, t1, t2):
    """(g1, g1', h1)(g2, g2', h2) = (g1^(d0* h2) g2, g1'^(h2) g2', h1 h2) on
    coded triples, after validating both operands: ValueError names the
    part whose length or indices are off, else the first cell where
    bnd(g') h = 1 or g = d0*(g') (d1*(g'))^-1 fails."""
    faces = nerve.faces(1)
    triple_of = _triple_of(X, faces)
    for g, gp, h in (t1, t2):
        for name, part, level, group in (("g", g, 1, X.G), ("g'", gp, 0, X.G),
                                         ("h", h, 0, X.H)):
            cells = len(nerve.level(level))
            if len(part) != cells or not all(_is_index(x, group.order)
                                             for x in part):
                raise ValueError(f"{name} must have length {cells}, one index "
                                 f"below {group.order} per level-{level} cell")
        want_g, _, want_h = triple_of(gp)  # bnd(g') h = 1 iff h = bnd(g')^-1
        for c, x, y in zip(nerve.level(0), h, want_h):
            if x != y:
                raise ValueError(f"membership bnd(g') h = 1 fails at {c}")
        for c, x, y in zip(nerve.level(1), g, want_g):
            if x != y:
                raise ValueError(
                    f"level-1 condition g = d0*(g') (d1*(g'))^-1 fails at {c}")
    return _product(X, faces, t1, t2)


def descent_identity_check(X, nerve, max_states=MAX_STATES):
    """Whether (1,1,1) is a right identity of every descent triple, checked
    on the tables; returns ``(holds, number of triples)``.

    Streams ``enumerate_unit_triples``, with its |G|^|V_0| charge first,
    and compares each triple t with t (1,1,1) under the law of
    ``h0_group_law``.  Its triples are valid by construction, so the law's
    body runs unvalidated; a product equal to a valid triple is valid
    too, which is why the comparison alone decides the check.
    """
    triples = enumerate_unit_triples(X, nerve, max_states)
    faces = nerve.faces(1)
    one = _triple_of(X, faces)((X.G.identity,) * len(nerve.level(0)))
    return (all(_product(X, faces, t, one) == t for t in triples),
            X.G.order ** len(nerve.level(0)))


# --------------------------------------------------------------------------
# the report handlers of crossed-verify and crossed-units (see reporting)


def _crossed_verify(report, X, opts):
    report.merge(verify_crossed_module(X))


def _crossed_units(report, X, opts):
    """Units of X and their contractibility, the axioms and homotopy groups
    of the unit module U, and the identity law of the descent triples over
    the nerve, checked on the tables (``descent_identity_check``).  X's
    axioms are checked once, by the guard of ``unit_crossed_module``; only
    when it refuses X are they checked again, to name the failures."""
    try:  # its guard is the one axiom check of X
        U = unit_crossed_module(X)
    except ValueError:  # name the failed axioms; nothing more to build
        axioms = verify_crossed_module(X)
        if axioms.passed:
            raise
        report.checks += axioms.failures
        return
    units, rep = enumerate_units_nonabelian(X, max_states=opts.max_states)
    report.data["units"] = units
    report.merge(rep)
    report.merge(verify_crossed_module(U), prefix="unit module: ")
    pi0, pi1 = pi0_order(U), pi1_order(U)
    report.add("unit module has trivial pi0", pi0 == 1, pi0)
    report.add("unit module has trivial pi1", pi1 == 1, pi1)
    # the nerve of the --nerve cover, else of the input's, else a point
    nerve = _built("nerve", covers.Nerve, opts.cover or covers.point_cover())
    holds, count = descent_identity_check(X, nerve, opts.max_states)
    report.add("descent triples: (1,1,1) is the identity", holds, count)
