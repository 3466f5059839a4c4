"""Strict Picard groupoids and 2-groupoids over a point, and their units.

A 2-term complex A -> B presents a strict Picard groupoid: objects are the
elements of B, a morphism b -> b' is an element a of A with lam(a) = b - b',
and both composition and tensor are addition.  A Saavedra unit is an object
e together with a morphism e + e -> e, i.e. a pair (e, a_phi) with
lam(a_phi) = e.  A morphism of units s -> t is an a with
lam(a) = e_s - e_t whose square commutes: a_phi(s) + a = a + a + a_phi(t).

Read as a crossed module with trivial action, lam: A -> B has the same
units and unit morphisms, so level-1 contractibility is
``coded.unit_morphism_checks`` on the coded tables.

A 3-term complex A -> B -> C presents a strict Picard 2-groupoid the same
way one level up: objects C, 1-morphisms {b : lam(b) = c - c'}, 2-morphisms
{alpha : delta(alpha) = b - b'}.  A unit is a pair (e, phi) with
lam(phi) = e; morphisms of units carry a filling 2-cell.  Each
hom-groupoid of the unit 2-groupoid is the unit groupoid of the 2-term
complex delta: A -> B (Kock [MR2388233]; Joyal and Kock, 2009):
translation by (phi_t - phi_s, 0) maps the unit 1-morphisms s -> t onto
delta's graph {(delta(theta), theta)}, since B is a group, lam is
additive, each unit lies over its e and lam delta = 0.  So level-2
contractibility checks those hypotheses on the coded tables, each on
every element, and runs the same ``unit_morphism_checks`` scan once, on
delta; no unit pair is visited.

Orientation of the filling 2-cell: theta runs from the path
(f tensor f) ; phi_target to the path phi_source ; f, so membership reads
delta(theta) = f + phi_target - phi_source.  Both pastings are re-evaluated
independently wherever a 2-cell equation is used, which pins this sign.

Exhaustive loops run on table-coded groups (``coded.CodedGroup``):
element k is the k-th element of ``FgAbGroup.elements()``, addition and
negation are lookups, and each map is an array of image indices; one
builder, ``_tables``, codes a complex of either length.  Units leave the
scans as coordinate pairs (e, phi); morphisms exist only as coded index
pairs inside them.  This lazy layer executes ``groups`` and ``coded``
only, never the Smith forms, homology or crossed modules.  The report
handlers of ``units`` and ``contractible`` are at the end of the module:
one per level for ``units``, and one for ``contractible``, which calls
``verify_contractible_1`` or ``_2`` by the length of the complex.
"""

from __future__ import annotations

from .coded import _coded, _coded_units, unit_morphism_checks
from .groups import Complex, _require_finite
from .record import _group_law
from .verification import MAX_STATES, Report, charge


def _pairs(O, S):
    """A coded unit (e, phi) as its coordinate pair, e in O and phi in S."""
    return lambda unit: (O.coords(unit[0]), S.coords(unit[1]))


def _tables(X: Complex):
    """The table-coded terms of X and the image array of each map."""
    _require_finite(X, "point-model enumeration")
    coded = [_coded(G) for G in X.terms]
    return coded, [S.image_array(f.matrix, T)
                   for S, T, f in zip(coded, coded[1:], X.maps)]


def enumerate_units_1(X: Complex):
    """All units (e, a_phi) as coordinate pairs, in lexicographic order;
    exactly |A| of them."""
    (A, B), (lam,) = _tables(X)
    return list(map(_pairs(B, A), _coded_units(A, lam)))


def units_and_morphism_count_1(X: Complex):
    """``enumerate_units_1`` of X, and the number of ordered pairs of units
    (s, t) for which u = a_phi(s) - a_phi(t) is a unit morphism s -> t:
    lam(u) = e_s - e_t and the unit square commutes.  One build of the
    coded tables serves both."""
    (A, B), (lam,) = _tables(X)
    add, neg = A.table, A.inverse
    units = _coded_units(A, lam)
    count = 0
    for e_s, a_s in units:
        e_s_plus = B.table[e_s]
        for e_t, a_t in units:
            u = add[a_s][neg[a_t]]
            if lam[u] == e_s_plus[B.inverse[e_t]] and \
                    add[a_s][u] == add[add[u][u]][a_t]:
                count += 1
    return list(map(_pairs(B, A), units)), count


def _unit_scan(A, B, f):
    """``unit_morphism_checks`` on f: A -> B read as a crossed module with
    trivial action, its units keyed as coordinate pairs in witnesses: the
    coded units of f, which the scan derives, the pair and coherence
    failures, and the morphism count."""
    action = tuple((g,) * B.order for g in A.elements())
    return unit_morphism_checks(A, B, f, action, _pairs(B, A))


def verify_contractible_1(X: Complex, max_states=MAX_STATES) -> Report:
    """Check that the unit groupoid is contractible, exhaustively.

    (i) units exist, (ii) every ordered pair of units carries exactly one
    unit morphism (scanning each morphism fiber), (iii) the unique morphisms
    compose coherently.  (ii) and (iii) are ``unit_morphism_checks`` on
    lam: A -> B read as a crossed module with trivial action; (iii) is the
    group law of A on its k cyclic generators, k |A|^2 table reads.  The
    charge, made before any scan, is still |A|^3, the coherence triples
    that (iii) once scanned, so it over-counts the work.
    """
    _require_finite(X, "point-model enumeration")
    charge("coherence scan", X.terms[0].order() ** 3, "|A|^3", max_states)
    report = Report("contractibility of the unit groupoid")
    (A, B), (lam,) = _tables(X)
    units, pairs, coherence, morphisms = _unit_scan(A, B, lam)
    report.add("unit set nonempty", len(units) > 0, f"{len(units)} units")
    report.add("exactly one unit morphism per ordered pair", not pairs,
               pairs[:3] or f"{len(units) ** 2} morphisms")
    report.add("composition of unique morphisms is coherent", not coherence,
               coherence[:3] or None)
    report.data["units"] = len(units)
    report.data["morphisms"] = morphisms
    return report


# --------------------------------------------------------------------------
# one level up


def enumerate_units_2(X: Complex):
    """All units (e, phi) as coordinate pairs, in lexicographic order;
    exactly |B| of them: the level-1 units of lam: B -> C."""
    _require_finite(X, "point-model enumeration")
    return enumerate_units_1(Complex(X.terms[1:], X.maps[1:]))


def verify_contractible_2(X: Complex, max_states=MAX_STATES) -> Report:
    """Check that the unit 2-groupoid is contractible, exhaustively, by
    translation to the unit groupoid of delta.

    Each hom-groupoid of the unit 2-groupoid is the unit groupoid of
    delta: A -> B (Kock [MR2388233]; Joyal and Kock, 2009).  For units
    s, t the 1-morphisms s -> t are the (f, theta) with lam(f) = e_s - e_t
    and delta(theta) = f + phi_t - phi_s.  Translation by
    (phi_t - phi_s, 0) maps them bijectively onto {(f', theta) :
    lam(f') = 0, delta(theta) = f'}, which is delta's graph
    {(delta(theta), theta)} because lam delta = 0: one 1-morphism per
    theta, the same set for every pair, and (phi_s - phi_t, 0) the one
    over theta = 0.  A 2-cell between (., theta_1) and (., theta_2) then
    solves the equation of a unit morphism between the units
    (delta(theta_i), theta_i) of delta.

    So no unit pair is visited.  The proof's hypotheses are checked on
    the coded tables, each on every element, in this order:

    - B is a group: its table passes ``record._group_law`` on its
      generators;
    - lam is additive: lam(b + g) = lam(b) + lam(g) for every b and each
      generator g of B, k |B| reads;
    - every unit lies over its e, relative to the base unit c, the first
      unit: the shift (phi_s - phi_c, 0) is a unit 1-morphism s -> c,
      that is delta(0) = 0 and lam(phi_s - phi_c) = e_s - e_c;
    - lam delta = 0, on every element of A.

    The first two make lam a homomorphism, and with the third every pair
    s, t has the 1-morphism (phi_s - phi_t, 0), so "every unit pair is
    connected" rests on those three.  With the fourth, the translate of the 1-morphisms s -> t is
    all of delta's graph, and one ``unit_morphism_checks`` scan of delta
    covers every parallel pair of every unit pair, and vertical coherence
    on every triple as the group law of A: "exactly one unit 2-morphism
    per parallel pair" rests on all four and the scan.  A failing check
    lists its failed hypotheses in this order, then the scan's failures,
    at most three, each with the first element that breaks it in the
    indices of the coded tables (the group law's as ``_group_law`` gives
    it).

    The charge is still that of the per-pair listing this replaced,
    |B|^2 |A| 1-morphisms, plus the scan's fibers (|A|^2 |ker delta|) and
    the |A|^3 coherence triples, made on the coded tables alone,
    |ker delta| read off delta's image array, before any unit or fiber is
    built; it over-counts the work.
    """
    report = Report("contractibility of the unit 2-groupoid")
    (A, B, C), (delta, lam) = _tables(X)
    a = A.order
    charge("2-cell verification",
           B.order ** 2 * a + a ** 2 * (a + delta.count(B.identity)),
           "|B|^2 |A| + |A|^2 (|A| + |ker delta|)", max_states)
    units = _coded_units(B, lam)
    report.add("unit set nonempty", len(units) > 0, f"{len(units)} units")
    _, pairs, coherence, _ = _unit_scan(A, B, delta)
    add, neg, (e_c, phi_c) = B.table, B.inverse, units[0]  # the base unit c
    shifts = [(s, add[s[1]][neg[phi_c]]) for s in units]  # phi_s - phi_c
    joined = [h for h in [  # each failure is a tuple, or None
        ("B is a group", _group_law(add, B.identity, neg, B.generators)),
        ("lam is additive",
         next(((b, g) for g in B.generators for b, row in enumerate(add)
               if lam[row[g]] != C.table[lam[b]][lam[g]]), None)),
        ("every unit lies over its e",
         next((s for s, f in shifts if delta[A.identity] != B.identity
               or lam[f] != C.table[s[0]][C.inverse[e_c]]), None))] if h[1]]
    graph = [("lam delta = 0", x) for x in A.elements()
             if lam[delta[x]] != C.identity][:1]
    report.add("every unit pair is connected by a unit 1-morphism",
               not joined, joined or None)
    report.add("exactly one unit 2-morphism per parallel pair",
               not (joined or graph or pairs), (joined + graph + pairs)[:3]
               or f"{(B.order * a) ** 2} parallel pairs")
    report.add("vertical composition of unique 2-morphisms is coherent",
               not coherence, coherence[:3] or None)
    report.data["units"] = len(units)
    return report


# --------------------------------------------------------------------------
# the report handlers of units and contractible (see reporting)


def _order(G):
    """|G| for a unit scan's charge; an infinite G charges nothing here
    and is refused by the scan itself."""
    return G.order() if G.is_finite else 0


def _units_1(report, X, opts):
    # the morphism count scans every ordered pair of units
    A = X.terms[0]
    charge("unit scan", _order(A) ** 2, "|A|^2", opts.max_states)
    units, morphisms = units_and_morphism_count_1(X)
    report.data["units"] = units
    report.data["unique_morphisms"] = morphisms
    report.add("unit count equals |A|", len(units) == A.order(), len(units))
    report.add("one morphism per ordered pair", morphisms == len(units) ** 2,
               morphisms)


def _units_2(report, X, opts):
    B = X.terms[1]
    charge("unit scan", _order(B), "|B|", opts.max_states)
    units = enumerate_units_2(X)
    report.data["units"] = units
    report.add("unit count equals |B|", len(units) == B.order(), len(units))


def _contractible(report, X, opts):
    verify = verify_contractible_1 if len(X.maps) == 1 \
        else verify_contractible_2
    report.merge(verify(X, max_states=opts.max_states))
