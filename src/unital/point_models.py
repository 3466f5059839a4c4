"""Strict Picard groupoids and 2-groupoids over a point, and their units.

A 2-term complex A -> B presents a strict Picard groupoid: objects are the
elements of B, a morphism b -> b' is an element a of A with lam(a) = b - b',
and both composition and tensor are addition.  A Saavedra unit is an object
e together with a morphism e + e -> e, i.e. a pair (e, a_phi) with
lam(a_phi) = e.  A morphism of units s -> t is an a with
lam(a) = e_s - e_t whose square commutes: a_phi(s) + a = a + a + a_phi(t).

Read as a crossed module with trivial action, lam: A -> B has the same
units and unit morphisms, so level-1 contractibility is
``crossed.unit_morphism_checks`` on the coded tables.

A 3-term complex A -> B -> C presents a strict Picard 2-groupoid the same
way one level up: objects C, 1-morphisms {b : lam(b) = c - c'}, 2-morphisms
{alpha : delta(alpha) = b - b'}.  A unit is a pair (e, phi) with
lam(phi) = e; morphisms of units carry a filling 2-cell.

Orientation of the filling 2-cell: theta runs from the path
(f tensor f) ; phi_target to the path phi_source ; f, so membership reads
delta(theta) = f + phi_target - phi_source.  Both pastings are re-evaluated
independently wherever a 2-cell equation is used, which pins this sign.

Exhaustive loops run on table-coded groups (``crossed.FiniteGroup``):
element k is the k-th element of ``FgAbGroup.elements()``, addition and
negation are lookups, and each map is an array of image indices.  Units
leave the scans as coordinate pairs (e, phi); morphisms exist only as
coded index pairs inside them.
"""

from __future__ import annotations

import itertools

from .abelian import charge
from .complexes import Complex2, Complex3, _require_finite
from .crossed import _coded, _coded_units, _fibers, unit_morphism_checks
from .verification import Report

COHERENCE_BOUND = 12  # unit 1-morphisms per pair in vertical-coherence triples


def _pairs(O, S):
    """A coded unit (e, phi) as its coordinate pair, e in O and phi in S."""
    return lambda unit: (O.coords(unit[0]), S.coords(unit[1]))


def _tables_1(X: Complex2):
    """Table-coded A and B and the array of lam."""
    _require_finite(X, "point-model enumeration")
    A, B = _coded(X.A), _coded(X.B)
    return A, B, A.image_array(X.lam.matrix, B)


def enumerate_units_1(X: Complex2):
    """All units (e, a_phi) as coordinate pairs, in lexicographic order;
    exactly |A| of them."""
    A, B, lam = _tables_1(X)
    return list(map(_pairs(B, A), _coded_units(A, lam)))


def count_unit_morphisms_1(X: Complex2):
    """The number of ordered pairs of units (s, t) for which
    u = a_phi(s) - a_phi(t) is a unit morphism s -> t: lam(u) = e_s - e_t
    and the unit square commutes."""
    A, B, lam = _tables_1(X)
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
    return count


def verify_contractible_1(X: Complex2, max_states=10 ** 7) -> Report:
    """Check that the unit groupoid is contractible, exhaustively.

    (i) units exist, (ii) every ordered pair of units carries exactly one
    unit morphism (scanning each morphism fiber), (iii) the unique morphisms
    compose coherently.  (ii) and (iii) are ``unit_morphism_checks`` on
    lam: A -> B read as a crossed module with trivial action.  The |A|^3
    coherence triples count against ``max_states`` before any scan.
    """
    _require_finite(X, "point-model enumeration")
    charge("coherence scan", X.A.order() ** 3, "|A|^3", max_states)
    report = Report("contractibility of the unit groupoid")
    A, B, lam = _tables_1(X)
    units = _coded_units(A, lam)
    report.add("unit set nonempty", len(units) > 0, f"{len(units)} units")
    trivial = tuple((a,) * B.order for a in A.elements())
    morphisms = unit_morphism_checks(report, A, B, lam, trivial, units,
                                     _pairs(B, A))
    report.data["units"] = len(units)
    report.data["morphisms"] = morphisms
    return report


# --------------------------------------------------------------------------
# one level up


def _tables_2(X: Complex3):
    """Table-coded A, B and C and the arrays of delta and lam."""
    _require_finite(X, "point-model enumeration")
    A, B, C = _coded(X.A), _coded(X.B), _coded(X.C)
    return (A, B, C, A.image_array(X.delta.matrix, B),
            B.image_array(X.lam.matrix, C))


def _coded_1morphisms(B, C, f_fibers, theta_fibers, s, t):
    """The unit 1-morphisms s -> t as (f, theta) index pairs, in
    lexicographic order: lam(f) = e_s - e_t, and theta lies over the
    boundary f + phi_t - phi_s."""
    (e_s, phi_s), (e_t, phi_t) = s, t
    add, neg = B.table, B.inverse
    return [(f, theta) for f in f_fibers[C.table[e_s][C.inverse[e_t]]]
            for theta in theta_fibers[add[add[f][phi_t]][neg[phi_s]]]]


def _canonical_1morphism(B, s, t):
    """(phi_s - phi_t, 0), which is always a unit 1-morphism s -> t."""
    return B.table[s[1]][B.inverse[t[1]]], 0


def enumerate_units_2(X: Complex3):
    """All units (e, phi) as coordinate pairs, in lexicographic order;
    exactly |B| of them."""
    _, B, C, _, lam = _tables_2(X)
    return list(map(_pairs(C, B), _coded_units(B, lam)))


def verify_contractible_2(X: Complex3, max_states=10 ** 7) -> Report:
    """Check that the unit 2-groupoid is contractible, exhaustively.

    Units exist; every ordered pair of units is connected by the unit
    1-morphism (phi_s - phi_t, 0); every ordered pair of parallel unit
    1-morphisms carries exactly one unit 2-morphism.  The 2-cell scan runs
    over the whole delta fiber once per distinct difference class of
    parallel pairs, which covers every pair: translating a parallel pair
    leaves its pasting equation literally unchanged.  Vertical-composition
    coherence is checked on all triples when a morphism set is small, and
    on the first ``COHERENCE_BOUND`` morphisms otherwise.

    Each of the |B|^2 unit pairs has |im delta| |ker delta| = |A| unit
    1-morphisms, so a pair is charged its |A|^2 parallel pairs plus one
    ker(delta) fiber per 1-morphism; the total is charged before any
    1-morphism is listed.
    """
    report = Report("contractibility of the unit 2-groupoid")
    A, B, C, delta, lam = _tables_2(X)
    units = _coded_units(B, lam)
    report.add("unit set nonempty", len(units) > 0, f"{len(units)} units")
    unit_key = _pairs(C, B)

    def key(s, t, m):  # witness: (source, target, f, theta)
        return (unit_key(s), unit_key(t), B.coords(m[0]), A.coords(m[1]))

    f_fibers, theta_fibers = _fibers(B, C, lam), _fibers(A, B, delta)
    fiber = theta_fibers[B.identity]  # ker(delta)
    charge("2-cell verification",
           B.order ** 2 * A.order * (A.order + len(fiber)),
           "|B|^2 |A| (|A| + |ker delta|)", max_states)

    add_a, neg_a = A.table, A.inverse
    add_b, neg_b = B.table, B.inverse
    connected_failures, pair_failures, coherence_failures = [], [], []
    onemorphisms = total_pairs = 0
    for s, t in itertools.product(units, repeat=2):
        ms = _coded_1morphisms(B, C, f_fibers, theta_fibers, s, t)
        onemorphisms += len(ms)
        if _canonical_1morphism(B, s, t) not in ms:
            connected_failures.append((unit_key(s), unit_key(t)))
        verified_diffs = {}
        for m1, m2 in itertools.product(ms, repeat=2):
            (f1, theta1), (f2, theta2) = m1, m2
            total_pairs += 1
            gamma0 = add_a[theta1][neg_a[theta2]]
            diff = (add_b[f1][neg_b[f2]], gamma0)
            if diff not in verified_diffs:
                # the pastings (gamma + gamma) + theta_2 and theta_1 + gamma
                found = [g for g in (add_a[gamma0][k] for k in fiber)
                         if delta[g] == diff[0]
                         and add_a[add_a[g][g]][theta2] == add_a[theta1][g]]
                verified_diffs[diff] = len(found) == 1 and found[0] == gamma0
            if not verified_diffs[diff]:
                pair_failures.append((key(s, t, m1), key(s, t, m2)))
        for m1, m2, m3 in itertools.product(ms[:COHERENCE_BOUND], repeat=3):
            g12 = add_a[m1[1]][neg_a[m2[1]]]
            g23 = add_a[m2[1]][neg_a[m3[1]]]
            if add_a[g12][g23] != add_a[m1[1]][neg_a[m3[1]]]:
                coherence_failures.append(
                    (key(s, t, m1), key(s, t, m2), key(s, t, m3)))
    report.add("every unit pair is connected by a unit 1-morphism",
               not connected_failures, connected_failures[:3] or None)
    report.add("exactly one unit 2-morphism per parallel pair",
               not pair_failures,
               pair_failures[:3] if pair_failures else
               f"{total_pairs} parallel pairs")
    report.add("vertical composition of unique 2-morphisms is coherent",
               not coherence_failures, coherence_failures[:3] or None)
    report.data["units"] = len(units)
    report.data["unit 1-morphisms"] = onemorphisms
    return report
