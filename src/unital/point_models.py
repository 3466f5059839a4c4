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
negation are lookups, and each map is an array of image indices.
``GroupElem`` appears only in the unit objects and their keys; morphisms
exist only as coded index pairs inside the scans.
"""

from __future__ import annotations

import itertools

from .abelian import CapExceeded, FinitenessError, GroupElem
from .complexes import Complex2, Complex3
from .crossed import (FiniteGroup, _coded_units, _fibers,
                      unit_morphism_checks)
from .record import Record
from .verification import Report

COHERENCE_BOUND = 12  # unit 1-morphisms per pair in vertical-coherence triples


def _coded(G):
    return FiniteGroup.from_invariant_factors(G.invariant_factors, str(G))


class PicardModel1(Record):
    """The strict Picard groupoid over a point presented by a 2-term complex."""

    base: Complex2

    def _require_finite(self):
        if not (self.base.A.is_finite and self.base.B.is_finite):
            raise FinitenessError("point-model enumeration needs finite groups")


class SaavedraUnit(Record):
    model: PicardModel1
    e: GroupElem
    a_phi: GroupElem

    def __post_init__(self):
        if self.model.base.lam(self.a_phi) != self.e:
            raise ValueError("not a unit: lam(a_phi) != e")

    def key(self):
        return (self.e.coords, self.a_phi.coords)


def _tables_1(model: PicardModel1):
    """Table-coded A and B and the array of lam."""
    model._require_finite()
    A, B = _coded(model.base.A), _coded(model.base.B)
    return A, B, A.image_array(model.base.lam.matrix, B)


def enumerate_units_1(model: PicardModel1):
    """All units in lexicographic (e, a_phi) order; exactly |A| of them."""
    A, B, lam = _tables_1(model)
    base = model.base
    return [SaavedraUnit(model, base.B.element(B.coords(e)),
                         base.A.element(A.coords(a)))
            for e, a in _coded_units(A, lam)]


def count_unit_morphisms_1(model: PicardModel1):
    """The number of ordered pairs of units (s, t) for which
    u = a_phi(s) - a_phi(t) is a unit morphism s -> t: lam(u) = e_s - e_t
    and the unit square commutes."""
    A, B, lam = _tables_1(model)
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


def tensor_units_1(s: SaavedraUnit, t: SaavedraUnit) -> SaavedraUnit:
    """Tensor of units; the structure morphism is the five-arrow composite,
    which collapses to a_phi(s) + a_phi(t) in the strict model."""
    if s.model != t.model:
        raise ValueError("units live in different models")
    return SaavedraUnit(s.model, s.e + t.e, s.a_phi + t.a_phi)


def verify_contractible_1(model: PicardModel1,
                          max_states=10 ** 7) -> Report:
    """Check that the unit groupoid is contractible, exhaustively.

    (i) units exist, (ii) every ordered pair of units carries exactly one
    unit morphism (scanning each morphism fiber), (iii) the unique morphisms
    compose coherently.  (ii) and (iii) are ``unit_morphism_checks`` on
    lam: A -> B read as a crossed module with trivial action.  The |A|^3
    coherence triples count against ``max_states`` before any scan.
    """
    model._require_finite()
    triples = model.base.A.order() ** 3
    if triples > max_states:
        raise CapExceeded(f"coherence scan needs {triples} states (|A|^3), "
                          f"above the cap {max_states}")
    report = Report("contractibility of the unit groupoid")
    A, B, lam = _tables_1(model)
    units = _coded_units(A, lam)
    report.add("unit set nonempty", len(units) > 0, f"{len(units)} units")
    trivial = tuple((a,) * B.order for a in A.elements())
    morphisms = unit_morphism_checks(
        report, A, B, lam, trivial, units,
        lambda unit: (B.coords(unit[0]), A.coords(unit[1])))
    report.data["units"] = len(units)
    report.data["morphisms"] = morphisms
    return report


# --------------------------------------------------------------------------
# one level up


class PicardModel2(Record):
    """The strict Picard 2-groupoid over a point presented by a 3-term
    complex."""

    base: Complex3

    def _require_finite(self):
        if not (self.base.A.is_finite and self.base.B.is_finite
                and self.base.C.is_finite):
            raise FinitenessError("point-model enumeration needs finite groups")


class JKUnit(Record):
    model: PicardModel2
    e: GroupElem
    phi: GroupElem

    def __post_init__(self):
        if self.model.base.lam(self.phi) != self.e:
            raise ValueError("not a unit: lam(phi) != e")

    def key(self):
        return (self.e.coords, self.phi.coords)


def _tables_2(model: PicardModel2):
    """Table-coded A, B and C and the arrays of delta and lam."""
    model._require_finite()
    base = model.base
    A, B, C = _coded(base.A), _coded(base.B), _coded(base.C)
    return (A, B, C, A.image_array(base.delta.matrix, B),
            B.image_array(base.lam.matrix, C))


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


def enumerate_units_2(model: PicardModel2):
    """All units in lexicographic (e, phi) order; exactly |B| of them."""
    _, B, C, _, lam = _tables_2(model)
    base = model.base
    return [JKUnit(model, base.C.element(C.coords(e)),
                   base.B.element(B.coords(phi)))
            for e, phi in _coded_units(B, lam)]


def tensor_units_2(s: JKUnit, t: JKUnit) -> JKUnit:
    if s.model != t.model:
        raise ValueError("units live in different models")
    return JKUnit(s.model, s.e + t.e, s.phi + t.phi)


def verify_contractible_2(model: PicardModel2, max_states=10 ** 7) -> Report:
    """Check that the unit 2-groupoid is contractible, exhaustively.

    Units exist; every ordered pair of units is connected by the unit
    1-morphism (phi_s - phi_t, 0); every ordered pair of parallel unit
    1-morphisms carries exactly one unit 2-morphism.  The 2-cell scan runs
    over the whole delta fiber once per distinct difference class of
    parallel pairs, which covers every pair: translating a parallel pair
    leaves its pasting equation literally unchanged.  Vertical-composition
    coherence is checked on all triples when a morphism set is small, and
    on the first ``COHERENCE_BOUND`` morphisms otherwise.
    """
    report = Report("contractibility of the unit 2-groupoid")
    A, B, C, delta, lam = _tables_2(model)
    units = _coded_units(B, lam)
    report.add("unit set nonempty", len(units) > 0, f"{len(units)} units")

    def unit_key(u):
        return (C.coords(u[0]), B.coords(u[1]))

    def key(s, t, m):  # witness: (source, target, f, theta)
        return (unit_key(s), unit_key(t), B.coords(m[0]), A.coords(m[1]))

    f_fibers, theta_fibers = _fibers(B, C, lam), _fibers(A, B, delta)
    fiber = theta_fibers[B.identity]  # ker(delta)

    connected_failures = []
    onemors = []
    budget = 0
    for s in units:
        for t in units:
            ms = _coded_1morphisms(B, C, f_fibers, theta_fibers, s, t)
            budget += len(ms) ** 2 + len(ms) * len(fiber)
            if budget > max_states:
                raise CapExceeded(
                    f"2-cell verification needs more than {max_states} states")
            if _canonical_1morphism(B, s, t) not in ms:
                connected_failures.append((unit_key(s), unit_key(t)))
            onemors.append((s, t, ms))
    report.add("every unit pair is connected by a unit 1-morphism",
               not connected_failures, connected_failures[:3] or None)

    add_a, neg_a = A.table, A.inverse
    add_b, neg_b = B.table, B.inverse
    pair_failures = []
    total_pairs = 0
    for s, t, ms in onemors:
        verified_diffs = {}
        for m1 in ms:
            f1, theta1 = m1
            for m2 in ms:
                f2, theta2 = m2
                total_pairs += 1
                gamma0 = add_a[theta1][neg_a[theta2]]
                diff = (add_b[f1][neg_b[f2]], gamma0)
                if diff not in verified_diffs:
                    # the pastings (gamma + gamma) + theta_2 and theta_1 + gamma
                    found = [g for g in (add_a[gamma0][k] for k in fiber)
                             if delta[g] == diff[0]
                             and add_a[add_a[g][g]][theta2]
                             == add_a[theta1][g]]
                    verified_diffs[diff] = (len(found) == 1
                                            and found[0] == gamma0)
                if not verified_diffs[diff]:
                    pair_failures.append((key(s, t, m1), key(s, t, m2)))
    report.add("exactly one unit 2-morphism per parallel pair",
               not pair_failures,
               pair_failures[:3] if pair_failures else
               f"{total_pairs} parallel pairs")

    coherence_failures = []
    for s, t, ms in onemors:
        for m1, m2, m3 in itertools.product(ms[:COHERENCE_BOUND], repeat=3):
            g12 = add_a[m1[1]][neg_a[m2[1]]]
            g23 = add_a[m2[1]][neg_a[m3[1]]]
            if add_a[g12][g23] != add_a[m1[1]][neg_a[m3[1]]]:
                coherence_failures.append(
                    (key(s, t, m1), key(s, t, m2), key(s, t, m3)))
    report.add("vertical composition of unique 2-morphisms is coherent",
               not coherence_failures, coherence_failures[:3] or None)
    report.data["units"] = len(units)
    report.data["unit 1-morphisms"] = sum(len(ms) for _, _, ms in onemors)
    return report
