"""Strict Picard groupoids and 2-groupoids over a point, and their units.

A 2-term complex A -> B presents a strict Picard groupoid: objects are the
elements of B, a morphism b -> b' is an element a of A with lam(a) = b - b',
and both composition and tensor are addition.  A Saavedra unit is an object
e together with a morphism e + e -> e, i.e. a pair (e, a_phi) with
lam(a_phi) = e.  A morphism of units s -> t is an a with
lam(a) = e_s - e_t whose square commutes: a_phi(s) + a = a + a + a_phi(t).

Read as a crossed module with trivial action, lam: A -> B has the same
units and unit morphisms, so level-1 contractibility is
``coded.unit_morphism_checks`` on the coded tables, and so is the count of
``units``.  Each ordered pair of units has exactly one unit morphism,
u = a_phi(s) - a_phi(t), by cancellation: in a commutative group A,
cancelling a from the square a_phi(s) + a = a + a + a_phi(t) leaves
a = a_phi(s) - a_phi(t), and u lies over e_s - e_t once lam is additive
(Kock [MR2388233]; Joyal and Kock, 2009).  So the check tests that A is a
group, that lam is additive and that A is commutative, each on every
element and each of A's generators, and visits no pair of units.

A 3-term complex A -> B -> C presents a strict Picard 2-groupoid the same
way one level up: objects C, 1-morphisms {b : lam(b) = c - c'}, 2-morphisms
{alpha : delta(alpha) = b - b'}.  A unit is a pair (e, phi) with
lam(phi) = e; morphisms of units carry a filling 2-cell.  Each
hom-groupoid of the unit 2-groupoid is the unit groupoid of the 2-term
complex delta: A -> B (Kock [MR2388233]; Joyal and Kock, 2009):
translation by (phi_t - phi_s, 0) maps the unit 1-morphisms s -> t onto
delta's graph {(delta(theta), theta)}, since B is a commutative group,
lam is additive, each unit lies over its e and lam delta = 0.  The first
three are the premises of the level-1 unit check of lam: B -> C, whose
units are the units here.  So level-2 contractibility is level 1 run
twice, ``unit_morphism_checks`` on lam and on delta, plus the two glue
facts, each checked on every element of the coded tables; no unit pair
is visited.  "Every unit pair is connected" rests on lam's check and on
each unit lying over its e; "exactly one unit 2-morphism per parallel
pair" on both checks and both glue facts; vertical coherence on the
group law of A, which delta's check tests.

Orientation of the filling 2-cell: theta runs from the path
(f tensor f) ; phi_target to the path phi_source ; f, so membership reads
delta(theta) = f + phi_target - phi_source.  Both pastings are re-evaluated
independently wherever a 2-cell equation is used, which pins this sign.

Exhaustive checks run on table-coded groups (``coded.CodedGroup``):
element k is the k-th element of ``FgAbGroup.elements()``, addition and
negation are lookups, and each map is an array of image indices; one
builder, ``_tables``, codes a complex of either length.  Units leave the
checks as coordinate pairs (e, phi); no morphism is ever built.  This
lazy layer executes ``groups`` and ``coded`` only, never the Smith forms,
homology or crossed modules.  The report handlers of ``units`` and
``contractible`` are at the end of the module: one per level for
``units``, and one for ``contractible``, which calls
``verify_contractible_1`` or ``_2`` by the length of the complex.
"""

from __future__ import annotations

from .coded import _coded, _coded_units, unit_morphism_checks
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
    """``enumerate_units_1`` of X, the number of ordered pairs of units
    (s, t) with exactly one unit morphism s -> t, and the failed
    hypotheses of that count, from one build of the coded tables.

    The count is ``coded.unit_morphism_checks`` on lam: A -> B with the
    trivial action: every ordered pair has exactly one, u = a_s - a_t,
    once A is a group, lam is additive and A is commutative, each checked
    on every element and each of A's k cyclic generators (k |A| row
    gathers for the group law, k |A| reads for each of the others).  So
    it is |A|^2 when no hypothesis fails, and None when one does, since
    the proof then counts nothing; the failures name each hypothesis with
    its first failing element in coded indices.
    """
    (A, B), (lam,) = _tables(X)
    units, failed, _ = unit_morphism_checks(A, B, lam, names=("A", "lam"))
    return (list(map(_pairs(B, A), units)),
            None if failed else len(units) ** 2, failed)


def verify_contractible_1(X: Complex, max_states=MAX_STATES) -> Report:
    """Check that the unit groupoid is contractible, exhaustively.

    (i) units exist, (ii) every ordered pair of units carries exactly one
    unit morphism, (iii) the unique morphisms compose coherently.  Both
    (ii) and (iii) are ``coded.unit_morphism_checks`` on lam: A -> B read
    as a crossed module with the trivial action (Kock [MR2388233]; Joyal
    and Kock, 2009).  By cancellation, (ii) rests on three hypotheses,
    each checked on every element and each of A's k cyclic generators: A
    is a group, lam is additive and A is commutative (the Peiffer
    identity under the trivial action); a failure lists those that fail,
    each with its first failing element in coded indices.  (iii) is the
    group law of A.  So no pair or triple of units is visited, and the
    checks read k |A|^2 + (3 k + 2) |A| table entries.  The charge, made
    before any table is built, is still |A|^3, the coherence triples that
    (iii) once scanned, so it over-counts the work.
    """
    _require_finite(X, "point-model enumeration")
    charge("coherence scan", X.terms[0].order() ** 3, "|A|^3", max_states)
    report = Report("contractibility of the unit groupoid")
    (A, B), (lam,) = _tables(X)
    units, pairs, coherence = unit_morphism_checks(A, B, lam,
                                                   names=("A", "lam"))
    report.add("unit set nonempty", len(units) > 0, f"{len(units)} units")
    report.add("exactly one unit morphism per ordered pair", not pairs,
               pairs or f"{len(units) ** 2} morphisms")
    report.add("composition of unique morphisms is coherent", not coherence,
               coherence or None)
    report.data["units"] = len(units)
    report.data["morphisms"] = None if pairs else len(units) ** 2
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

    - the level-1 unit check of lam: B -> C, ``unit_morphism_checks``
      with the trivial action, which also derives the units: B is a
      group (``record._group_law`` on B's k generators, and every element
      a product of them, which Light's associativity test needs), lam is
      additive and B is commutative (lam's Peiffer identity under the
      trivial action), k |B| reads each;
    - every unit lies over its e, relative to the base unit c, the first
      unit: the shift (phi_s - phi_c, 0) is a unit 1-morphism s -> c,
      that is delta(0) = 0 and lam(phi_s - phi_c) = e_s - e_c;
    - lam delta = 0, on every element of A.

    Lam's check makes lam a homomorphism of commutative groups, in which
    the translation is taken, and with the second every pair s, t has
    the 1-morphism (phi_s - phi_t, 0), so "every unit pair is connected"
    rests on those two.  With the third, the translate of the
    1-morphisms s -> t is all of delta's graph, and the same check of
    delta covers every parallel pair of every unit pair, by cancellation
    in A (A a group, delta additive and A commutative, each on every
    element and each generator of A), and vertical coherence on every
    triple as the group law of A: "exactly one unit 2-morphism per
    parallel pair" rests on all three and delta's check.  A failing
    check lists its failed hypotheses in this order, then those of the
    delta check, at most three, each with the first element that breaks
    it in the indices of the coded tables (the group law's as
    ``_group_law`` gives it, or ("generation", b) for the least b that
    B's generators miss).

    The charge is still that of the per-pair listing this replaced,
    |B|^2 |A| 1-morphisms, plus the fibers of delta that the delta check
    once scanned (|A|^2 |ker delta|) and the |A|^3 coherence triples,
    made on the coded tables alone, |ker delta| read off delta's image
    array, before any unit is built; it over-counts the work.
    """
    report = Report("contractibility of the unit 2-groupoid")
    (A, B, C), (delta, lam) = _tables(X)
    a = A.order
    charge("2-cell verification",
           B.order ** 2 * a + a ** 2 * (a + delta.count(B.identity)),
           "|B|^2 |A| + |A|^2 (|A| + |ker delta|)", max_states)
    units, joined, _ = unit_morphism_checks(B, C, lam, names=("B", "lam"))
    report.add("unit set nonempty", len(units) > 0, f"{len(units)} units")
    _, pairs, coherence = unit_morphism_checks(A, B, delta,
                                               names=("A", "delta"))
    add, neg, (e_c, phi_c) = B.table, B.inverse, units[0]  # the base unit c
    over = next((s for s in units if delta[A.identity] != B.identity
                 # the shift phi_s - phi_c lies over e_s - e_c
                 or lam[add[s[1]][neg[phi_c]]] !=
                 C.table[s[0]][C.inverse[e_c]]), None)
    joined += [("every unit lies over its e", over)] if over else []
    graph = [("lam delta = 0", x) for x in A.elements()
             if lam[delta[x]] != C.identity][:1]
    report.add("every unit pair is connected by a unit 1-morphism",
               not joined, joined or None)
    report.add("exactly one unit 2-morphism per parallel pair",
               not (joined or graph or pairs), (joined + graph + pairs)[:3]
               or f"{(B.order * a) ** 2} parallel pairs")
    report.add("vertical composition of unique 2-morphisms is coherent",
               not coherence, coherence or None)
    report.data["units"] = len(units)
    return report


# --------------------------------------------------------------------------
# the report handlers of units and contractible (see reporting)


def _order(G):
    """|G| for a unit scan's charge; an infinite G charges nothing here
    and is refused by the scan itself."""
    return G.order() if G.is_finite else 0


def _units_1(report, X, opts):
    # the charge still counts every ordered pair of units
    A = X.terms[0]
    charge("unit scan", _order(A) ** 2, "|A|^2", opts.max_states)
    units, morphisms, failed = units_and_morphism_count_1(X)
    report.data["units"] = units
    report.data["unique_morphisms"] = morphisms
    report.add("unit count equals |A|", len(units) == A.order(), len(units))
    report.add("one morphism per ordered pair", not failed,
               failed or morphisms)


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
