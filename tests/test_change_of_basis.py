"""Metamorphic relations: an isomorphic question gets the same answer.

Change of basis.  An automorphism P_k of each term turns a complex X into
the isomorphic complex X' with differentials P_(k+1) d_k P_k^-1, so every
command must give X' the checks and the group-valued data it gives X.
The Gaussian reduction in ``abelian.subquotient`` cancels the +-1 entries
of the differentials where they sit, and a change of basis moves them.

Finite terms, of order up to 64, change by elementary automorphisms:
e_i -> e_i + k e_j where k o_i = 0 mod o_j, and e_i -> a e_i for a unit a
modulo o_i.  Free terms, of rank up to 4, change by unimodular matrices
drawn from a seed as products of the same elementary steps.  The commands
are ``homology``, ``unit-complex --check-acyclic``, ``qiso`` against each
model, ``cech-classify`` over the point nerve, ``units`` and
``contractible``; ``cech-classify`` also over the circle and the ring, on
terms of order up to 8.  Unit lists move with the basis: a unit (e, phi)
of X is the unit (P e, P phi) of X'.  ``contractible`` also keeps the
counts its verifier records and its report leaves out: units, and at
level 1 morphisms.

Relabelled covers.  Permuting the parts of a cover, its lists of
intersections and of containments, and the parts within each entry gives
the same nerve with its cells renamed, so ``cech-classify`` at both
lengths and ``crossed-units`` keep their checks and data,
``nerve_levels`` included, over the point, the circle, the ring, two arcs
meeting in two components, and two parts in two components each, whose
every face is resolved by a containment.

The point nerve.  ``cech-classify`` over the point reports
``h0_of_coefficients`` equal to ``homology``'s group in degree 0, and for
a 2-term complex ``torsor_classes`` equal to its order.

A command that refuses the input on either side must refuse it on both,
with the same message; each refused pair is returned by name, the message
naming the charge, and reported to hypothesis as an event, never skipped.
At the default cap the torsor charge |A|^|V_1| |B|^|V_0| refuses most
inputs over the circle and the ring; ``test_refusals_over_covers_are_counted``
gives the counts on a fixed sweep of 49 complexes.
"""

import itertools
import json
import random
from collections import Counter
from math import gcd, prod

import pytest
from hypothesis import event, example, given, settings, strategies as st

from unital.abelian import FgAbGroup, GroupElem, GroupHom, kernel
from unital.complexes import Complex, StrictMorphism
from unital.point_models import verify_contractible_1, verify_contractible_2
from unital.reporting import run
from unital.specfile import COMPLEX_KINDS, SpecError, parse_spec
from unital.verification import CapExceeded, FinitenessError

from test_abelian import random_hom
from test_crossed import ORACLE_MODULES

# (name, command, options of reporting.run)
COMMANDS = (("homology", "homology", {}),
            ("unit-complex --check-acyclic", "unit-complex",
             {"check_acyclic": True}),
            ("qiso --against idA", "qiso", {"against": "idA"}),
            ("qiso --against idker", "qiso", {"against": "idker"}),
            ("cech-classify", "cech-classify", {}),
            ("units", "units", {}),
            ("contractible", "contractible", {}))
CECH = (("cech-classify", "cech-classify", {}),)

COVERS = {
    "point": {"parts": ["U"]},
    "circle": {"parts": ["a0", "a1", "a2"],
               "intersections": [{"parts": ["a0", "a1"]},
                                 {"parts": ["a1", "a2"]},
                                 {"parts": ["a0", "a2"]}]},
    "ring": {"parts": ["a0", "a1", "a2", "a3"],
             "intersections": [{"parts": [f"a{i}", f"a{(i + 1) % 4}"]}
                               for i in range(4)]},
    "two-arcs": {"parts": ["u", "v"],
                 "intersections": [{"parts": ["u", "v"],
                                    "components": ["p", "q"]}]},
    # U and V each in two components x, y, and U n V in two, p and q,
    # every face of which needs a containment: U:x and V:x joined by p,
    # U:x and V:y by q
    "split": {"parts": ["U", "V"],
              "intersections": [{"parts": ["U"], "components": ["x", "y"]},
                                {"parts": ["V"], "components": ["x", "y"]},
                                {"parts": ["U", "V"],
                                 "components": ["p", "q"]}],
              "containments": [
                  {"parts": ["U", "V"], "component": c, "sub_parts": [part],
                   "sub_component": sub}
                  for c, part, sub in (("p", "U", "x"), ("p", "V", "x"),
                                       ("q", "U", "x"), ("q", "V", "y"))]},
}


def _finite_group(rng, max_order=64):
    """A finite group of order at most max_order."""
    divisors = []
    for _ in range(rng.randrange(4)):
        d = rng.choice((2, 3, 4, 8))
        if prod(divisors) * d <= max_order:
            divisors.append(d)
    return FgAbGroup.from_divisors(*divisors)


def _free_hom(rng, A, B):
    return GroupHom(A, B, [[rng.randint(-3, 3) for _ in range(A.ngens)]
                           for _ in range(B.ngens)])


def _complex(rng, kind, terms, max_order=64):
    """A random 2- or 3-term complex with finite terms, or free ones."""
    group, hom = ((lambda rng: _finite_group(rng, max_order), random_hom)
                  if kind == "finite" else
                  (lambda rng: FgAbGroup.free(rng.randint(1, 4)), _free_hom))
    A, B, C = (group(rng) for _ in range(3))
    if terms == 2:
        return Complex((A, B), (hom(rng, A, B),))
    lam = hom(rng, B, C)
    K, incl = kernel(lam)
    return Complex((A, B, C), (incl.compose(hom(rng, A, K)), lam))


def _automorphism(rng, G):
    """A random automorphism of G with its inverse: a product of steps
    e_i -> e_i + k e_j, with k o_i = 0 mod o_j, and e_i -> a e_i, with a a
    unit mod o_i (-1 on a free coordinate)."""
    n, orders = G.ngens, G.orders
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]
    for _ in range(rng.randrange(8) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        oi, oj = orders[i], orders[j]
        if i == j:
            a = rng.choice([a for a in range(1, oi) if gcd(a, oi) == 1]
                           if oi else [-1])
            b = pow(a, -1, oi) if oi else -1
            P[i] = [a * x for x in P[i]]  # the step times P
            for row in Q:  # Q times the inverse step
                row[i] *= b
        elif oi == 0 or oj:  # k o_i = 0 mod o_j has a nonzero solution
            k = rng.choice([-2, -1, 1, 2]) * (oj // gcd(oi, oj) if oj else 1)
            P[j] = [x + k * y for x, y in zip(P[j], P[i])]
            for row in Q:
                row[i] -= k * row[j]
    return GroupHom(G, G, P), GroupHom(G, G, Q)


def changed_basis(rng, X):
    """X' = P X P^-1 for a random automorphism P of each term, checked to
    be isomorphic to X through P, and the P of each term."""
    autos = [_automorphism(rng, G) for G in X.terms]
    for P, Q in autos:
        assert P.compose(Q) == GroupHom.identity(P.source)
    maps = tuple(autos[k + 1][0].compose(d).compose(autos[k][1])
                 for k, d in enumerate(X.maps))
    Y = Complex(X.terms, maps)
    StrictMorphism(X, Y, tuple(P for P, _ in autos))  # squares commute
    return Y, [P for P, _ in autos]


def relabelled(rng, cover):
    """A cover document with its parts, its lists of intersections and of
    containments, and the parts within each of their entries permuted."""
    def permuted(items):
        return rng.sample(items, len(items))

    out = dict(cover, parts=permuted(cover["parts"]))
    for key, fields in (("intersections", ("parts",)),
                        ("containments", ("parts", "sub_parts"))):
        if key in cover:
            out[key] = permuted([dict(entry, **{f: permuted(entry[f])
                                                for f in fields})
                                 for entry in cover[key]])
    return out


def _spec(X, cover=None):
    """The input document of a complex, or of a crossed module, over the
    cover document if one is given."""
    if isinstance(X, Complex):
        kind = f"complex{len(X.terms)}"
        names, map_names = COMPLEX_KINDS[kind]
        doc = {"kind": kind,
               "groups": {name: {"inv": list(G.invariant_factors),
                                 "free": G.free_rank}
                          for name, G in zip(names, X.terms)},
               "maps": {name: [list(r) for r in f.matrix]
                        for name, f in zip(map_names, X.maps)}}
    else:
        doc = {"kind": "crossed_module", "G": {"table": X.G.table},
               "H": {"table": X.H.table}, "boundary": list(X.boundary),
               "action": X.action}
    return parse_spec(json.dumps(doc if cover is None
                                 else dict(doc, nerve=cover)))


def _outcome(command, spec, opts):
    """The checks and data of the report, or the refusal; for
    ``contractible`` the data are the counts its verifier records."""
    try:
        body = run(command, spec, **opts).body()
        if command == "contractible":
            X = spec.payload
            body["data"] = (verify_contractible_1 if len(X.maps) == 1
                            else verify_contractible_2)(X).data
    except (SpecError, FinitenessError, CapExceeded) as exc:
        return "refused", type(exc).__name__, str(exc)
    return body["checks"], body["data"]


def _moved(units, X, autos):
    """A unit list of X as coordinate pairs (e, phi), each moved to
    (P e, P phi) by the automorphisms of the terms they lie in, sorted."""
    (S, O), (P_s, P_o) = X.terms[-2:], autos[-2:]
    return sorted([list(P_o(GroupElem(O, e)).coords),
                   list(P_s(GroupElem(S, phi)).coords)] for e, phi in units)


def assert_same_reports(X, Y, autos=None, commands=COMMANDS,
                        covers=(None, None)):
    """Every command gives X and Y, each over its cover document, the same
    checks and data, with X's unit lists moved by ``autos``, or refuses
    both alike; returns the refused (command, message) pairs."""
    refused = []
    for name, command, opts in commands:
        before = _outcome(command, _spec(X, covers[0]), opts)
        after = _outcome(command, _spec(Y, covers[1]), opts)
        if command == "units" and before[0] != "refused" and autos:
            before[1]["units"] = _moved(before[1]["units"], X, autos)
            after[1]["units"] = sorted(after[1]["units"])
        assert after == before, name
        if before[0] == "refused":
            refused.append((name, before[2]))
    return refused


def _events(refused):
    for name, message in refused:
        event(f"refused on both sides: {name}: {message}")


@pytest.mark.parametrize("kind", ["finite", "free"])
@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]))
def test_reports_survive_a_change_of_basis(kind, rng, terms):
    X = _complex(rng, kind, terms)
    _events(assert_same_reports(X, *changed_basis(rng, X)))


@pytest.mark.parametrize("cover", ["circle", "ring"])
@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]))
def test_cech_classify_survives_a_change_of_basis_over_a_cover(cover, rng,
                                                              terms):
    X = _complex(rng, "finite", terms, max_order=8)
    _events(assert_same_reports(X, *changed_basis(rng, X), commands=CECH,
                                covers=(COVERS[cover],) * 2))


@pytest.mark.parametrize("cover", sorted(COVERS))
@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]))
# seed 20 swaps the parts of the split cover and puts q in V:y before q
# in U:x, so its faces read the containments in another order
@example(random.Random(20), 2)
@example(random.Random(20), 3)
def test_cech_classify_survives_relabelled_covers(cover, rng, terms):
    X = _complex(rng, "finite", terms, max_order=8)
    _events(assert_same_reports(
        X, X, commands=CECH,
        covers=(COVERS[cover], relabelled(rng, COVERS[cover]))))


@pytest.mark.parametrize("cover", sorted(COVERS))
@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(ORACLE_MODULES))
def test_crossed_units_survives_relabelled_covers(cover, rng, X):
    _events(assert_same_reports(
        X, X, commands=(("crossed-units", "crossed-units", {}),),
        covers=(COVERS[cover], relabelled(rng, COVERS[cover]))))


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]))
def test_point_nerve_h0_is_degree_0_homology(rng, terms):
    X = _complex(rng, "finite", terms)
    data = run("cech-classify", _spec(X)).data
    H0 = run("homology", _spec(X)).data["homology"]["0"]
    assert data["h0_of_coefficients"] == H0
    if terms == 2:
        assert data["torsor_classes"] == H0.order()


def test_refusals_are_named_not_skipped():
    # cech-classify and the point-model scans take finite groups only; the
    # other commands take free ones, and the free unit complex is acyclic
    rng = random.Random(17)
    X = _complex(rng, "free", 2)
    assert assert_same_reports(X, *changed_basis(rng, X)) == [
        ("cech-classify", "torsor enumeration needs finite groups"),
        ("units", "point-model enumeration needs finite groups"),
        ("contractible", "point-model enumeration needs finite groups")]


def _sweep():
    """Z/n -l-> Z/m for every n and m in {2, 3, 4, 6, 8, 9, 12}, l drawn
    from ``random.Random(7)``: 49 complexes."""
    rng, orders = random.Random(7), (2, 3, 4, 6, 8, 9, 12)
    out = []
    for A, B in itertools.product(map(FgAbGroup.cyclic, orders), repeat=2):
        (n,), (m,) = A.invariant_factors, B.invariant_factors
        l = m // gcd(n, m) * rng.randrange(gcd(n, m))  # n l = 0 mod m
        out.append(Complex((A, B), (GroupHom(A, B, [[l]]),)))
    return out


def test_refusals_over_covers_are_counted():
    # the change of basis of cech-classify over the circle and the ring, on
    # the sweep: the torsor charge |A|^|V_1| |B|^|V_0| refuses most of it
    # at the default cap; each refused pair is counted by its charge, and
    # the rest must agree
    rng, counts = random.Random(11), Counter()
    for X in _sweep():
        Y, autos = changed_basis(rng, X)
        for cover in ("circle", "ring"):
            for _, message in assert_same_reports(
                    X, Y, autos, commands=CECH, covers=(COVERS[cover],) * 2):
                counts[cover, message.split(" needs ")[0]] += 1
    assert counts == {("circle", "torsor scan"): 36,
                      ("ring", "torsor scan"): 44}
