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
complex delta: A -> B, so level-2 contractibility is the same
``unit_morphism_checks`` scan, run once on delta after the unit
1-morphisms are checked to be (delta(theta) + phi_s - phi_t, theta).

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
handlers of ``units`` and ``contractible`` are at the end of the module.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .coded import _coded, _coded_units, _fibers, unit_morphism_checks
from .groups import Complex, _require_finite
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


def _trivial_action(G, H):
    """The action table of H on G by the identity."""
    return tuple((g,) * H.order for g in G.elements())


def verify_contractible_1(X: Complex, max_states=MAX_STATES) -> Report:
    """Check that the unit groupoid is contractible, exhaustively.

    (i) units exist, (ii) every ordered pair of units carries exactly one
    unit morphism (scanning each morphism fiber), (iii) the unique morphisms
    compose coherently.  (ii) and (iii) are ``unit_morphism_checks`` on
    lam: A -> B read as a crossed module with trivial action.  The |A|^3
    coherence triples count against ``max_states`` before any scan.
    """
    _require_finite(X, "point-model enumeration")
    charge("coherence scan", X.terms[0].order() ** 3, "|A|^3", max_states)
    report = Report("contractibility of the unit groupoid")
    (A, B), (lam,) = _tables(X)
    units = _coded_units(A, lam)
    report.add("unit set nonempty", len(units) > 0, f"{len(units)} units")
    pairs, coherence, morphisms = unit_morphism_checks(
        A, B, lam, _trivial_action(A, B), units, _pairs(B, A))
    report.add("exactly one unit morphism per ordered pair", not pairs,
               pairs[:3] or f"{len(units) ** 2} morphisms")
    report.add("composition of unique morphisms is coherent", not coherence,
               coherence[:3] or None)
    report.data["units"] = len(units)
    report.data["morphisms"] = morphisms
    return report


# --------------------------------------------------------------------------
# one level up


def _coded_1morphisms(B, C, f_fibers, theta_fibers, s, t):
    """The unit 1-morphisms s -> t as (f, theta) index pairs, in
    lexicographic order: lam(f) = e_s - e_t, and theta lies over the
    boundary f + phi_t - phi_s."""
    (e_s, phi_s), (e_t, phi_t) = s, t
    add, neg = B.table, B.inverse
    return [(f, theta) for f in f_fibers[C.table[e_s][C.inverse[e_t]]]
            for theta in theta_fibers[add[add[f][phi_t]][neg[phi_s]]]]


def enumerate_units_2(X: Complex):
    """All units (e, phi) as coordinate pairs, in lexicographic order;
    exactly |B| of them: the level-1 units of lam: B -> C."""
    _require_finite(X, "point-model enumeration")
    return enumerate_units_1(Complex(X.terms[1:], X.maps[1:]))


def verify_contractible_2(X: Complex, max_states=MAX_STATES) -> Report:
    """Check that the unit 2-groupoid is contractible, exhaustively, by a
    checked reduction to level 1.

    Units exist, every ordered pair of units s, t is connected by the unit
    1-morphism (phi_s - phi_t, 0), and the unit 1-morphisms s -> t, listed
    from the fibers, are exactly (delta(theta) + phi_s - phi_t, theta), one
    per theta in A.  A 2-cell between (., theta_1) and (., theta_2) then
    solves the equation of a unit morphism between the units
    (delta(theta_i), theta_i) of delta: A -> B, so one
    ``unit_morphism_checks`` scan of delta covers every parallel pair of
    every unit pair, and vertical coherence on every triple.  The listing
    (|B|^2 |A|), the scan's fibers (|A|^2 |ker delta|) and its coherence
    triples (|A|^3) are charged before any 1-morphism is listed.
    """
    report = Report("contractibility of the unit 2-groupoid")
    (A, B, C), (delta, lam) = _tables(X)
    units = _coded_units(B, lam)
    report.add("unit set nonempty", len(units) > 0, f"{len(units)} units")
    f_fibers, theta_fibers = _fibers(B, C, lam), _fibers(A, B, delta)
    a = A.order
    charge("2-cell verification",
           B.order ** 2 * a + a ** 2 * (a + len(theta_fibers[B.identity])),
           "|B|^2 |A| + |A|^2 (|A| + |ker delta|)", max_states)
    add, neg, unit_key = B.table, B.inverse, _pairs(C, B)
    connected_failures, unlisted, onemorphisms = [], [], 0
    for s, t in itertools.product(units, repeat=2):
        ms = _coded_1morphisms(B, C, f_fibers, theta_fibers, s, t)
        onemorphisms += len(ms)
        shift = add[s[1]][neg[t[1]]]  # phi_s - phi_t
        if (shift, A.identity) not in ms:
            connected_failures.append((unit_key(s), unit_key(t)))
        if sorted(ms, key=itemgetter(1)) != \
                [(add[delta[theta]][shift], theta) for theta in A.elements()]:
            unlisted.append((unit_key(s), unit_key(t)))
    # delta's unit (delta(theta), theta) is a 1-morphism s -> s; keyed so
    pairs, coherence, _ = unit_morphism_checks(
        A, B, delta, _trivial_action(A, B), _coded_units(A, delta),
        _pairs(B, A))
    pairs = unlisted + pairs
    report.add("every unit pair is connected by a unit 1-morphism",
               not connected_failures, connected_failures[:3] or None)
    report.add("exactly one unit 2-morphism per parallel pair", not pairs,
               pairs[:3] or f"{(B.order * a) ** 2} parallel pairs")
    report.add("vertical composition of unique 2-morphisms is coherent",
               not coherence, coherence[:3] or None)
    report.data["units"] = len(units)
    report.data["unit 1-morphisms"] = onemorphisms
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


def _contractible_1(report, X, opts):
    report.merge(verify_contractible_1(X, max_states=opts.max_states))


def _contractible_2(report, X, opts):
    report.merge(verify_contractible_2(X, max_states=opts.max_states))
