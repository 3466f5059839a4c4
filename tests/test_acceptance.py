"""Acceptance suite.

One test per criterion; each prints a single pass/fail line with its
runtime (run pytest with -s to see them).  All comparisons are exact
integer arithmetic; the stated runtime budgets are asserted.
"""

import itertools
import random
import time
from math import prod

import pytest

from unital.abelian import (
    CapExceeded,
    FgAbGroup,
    GroupHom,
    kernel,
    smith_normal_form,
    solve,
)
from unital.cech import (
    cech_nerve,
    classify_h0,
    torsor_classes,
    unit_cocycles,
)
from unital.complexes import (
    Complex,
    cone_comparison,
    homology,
    identity_model,
    is_complex_isomorphism,
    is_quasi_isomorphism,
    kernel_model,
    kernel_sum_model,
    sum_model,
    unit_complex_1,
    unit_complex_2,
)
from unital.covers import point_cover
from unital.crossed import (
    enumerate_unit_triples,
    h0_group_law,
    pi0_order,
    pi1_order,
    unit_crossed_module,
    verify_crossed_module,
)
from unital.point_models import (
    enumerate_units_1,
    verify_contractible_1,
    verify_contractible_2,
)

from constructions import identity_model_projection
from oracles import (
    cokernel_order_2x2_bruteforce,
    invariant_factors_from_minors,
    oracle_circle_nerve,
    oracle_torsor_classes,
)
from test_abelian import random_hom
from test_cech import circle_cover
from test_complexes import random_complex3
from test_crossed import (
    inverses_by_search,
    oracle_one,
    random_crossed_module,
    unit_morphisms_by_method,
)

Z2 = FgAbGroup.cyclic(2)

FACTORS_36 = [(), (2,), (3,), (4,), (5,), (6,), (8,), (9,), (12,), (16,),
              (18,), (25,), (27,), (36,), (2, 2), (2, 4), (2, 6), (3, 3),
              (2, 12), (3, 9), (6, 6), (2, 2, 2), (2, 2, 4), (3, 3, 3)]


def random_group_to(rng, max_order):
    while True:
        inv = rng.choice(FACTORS_36)
        if prod(inv, start=1) <= max_order:
            return FgAbGroup(inv, 0)


def random_complex2_to(rng, max_order):
    A = random_group_to(rng, max_order)
    B = random_group_to(rng, max_order)
    return Complex((A, B), (random_hom(rng, A, B),))


def _criterion(number, name, started):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} ({name}): PASS  [{elapsed:.2f}s]")
    return elapsed


def _saavedra_sample(seed=1001, count=50, max_order=36):
    rng = random.Random(seed)
    return [random_complex2_to(rng, max_order) for _ in range(count)]


def test_criterion_1_saavedra_contractibility():
    started = time.monotonic()
    complexes = _saavedra_sample()
    assert len(complexes) >= 50
    for X in complexes:
        report = verify_contractible_1(X)
        assert report.passed, str(report)
        assert report.data["units"] == X.terms[0].order()
        assert report.data["morphisms"] == X.terms[0].order() ** 2
    elapsed = _criterion(1, "unit groupoid is contractible", started)
    assert elapsed < 10.0


def test_criterion_2_representing_complex():
    started = time.monotonic()
    for X in _saavedra_sample():
        U, _ = unit_complex_1(X)
        assert homology(U, -1).is_trivial and homology(U, 0).is_trivial
        # comparison with the two smaller models, both directions where a
        # strict morphism exists
        assert is_quasi_isomorphism(identity_model_projection(X)).is_qiso
        assert is_quasi_isomorphism(identity_model(X)[1]).is_qiso
        assert is_quasi_isomorphism(kernel_model(X)[1]).is_qiso
    _criterion(2, "unit complex acyclic and equal to the small models",
               started)


def test_criterion_3_cone_truncation_identity():
    started = time.monotonic()
    for X in _saavedra_sample():
        cmp_mor = cone_comparison(X)
        assert is_complex_isomorphism(cmp_mor)
        assert is_quasi_isomorphism(cmp_mor).is_qiso
    _criterion(3, "truncated cone of the identity is the unit complex",
               started)


def _jk_sample(seed=2002, count=25, max_order=16):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        out.append(random_complex3(rng, max_order))
    return out


def test_criterion_4_jk_contractibility():
    started = time.monotonic()
    done = 0
    for X in _jk_sample(count=40):
        if done >= 25:
            break
        try:
            report = verify_contractible_2(X)
        except CapExceeded:
            continue
        assert report.passed, str(report)
        assert report.data["units"] == X.terms[1].order()
        done += 1
    assert done >= 25
    elapsed = _criterion(4, "unit 2-groupoid is contractible", started)
    assert elapsed < 30.0


def test_criterion_5_two_stack_representing_complex():
    started = time.monotonic()
    for X in _jk_sample():
        U, _ = unit_complex_2(X)
        assert all(homology(U, d).is_trivial for d in (-2, -1, 0))
        for build in (sum_model, kernel_sum_model):
            alt, mor = build(X)
            assert is_quasi_isomorphism(mor).is_qiso
    _criterion(5, "2-level unit complex acyclic, alternates equivalent",
               started)


def test_criterion_6_cech_classification():
    started = time.monotonic()
    nerves = [cech_nerve(point_cover()), cech_nerve(circle_cover())]
    rng = random.Random(3003)
    two_term = [random_complex2_to(rng, 16) for _ in range(6)]
    for X in two_term:
        for nerve in nerves:
            U, _ = unit_complex_1(X)
            classes, group = unit_cocycles(nerve, U)
            assert len(classes) == 1
            assert group.is_trivial
            assert classify_h0(nerve, U).is_trivial
    three_term = [random_complex3(rng, 16) for _ in range(3)] + \
        [random_complex3(rng, 6) for _ in range(2)]
    for k, X in enumerate(three_term):
        U, _ = unit_complex_2(X)
        assert classify_h0(nerves[0], U).is_trivial
        if prod(G.order() for G in X.terms) <= 64:
            assert classify_h0(nerves[1], U).is_trivial
    # circle-nerve torsor count, against the independently written
    # brute-force enumerator
    X = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))
    res = torsor_classes(nerves[1], X)
    cells, faces = oracle_circle_nerve()
    assert res.count == 4
    assert res.count == oracle_torsor_classes(cells, faces, (2,), (2,),
                                              lambda a: (0,))
    _criterion(6, "descent classification: one unit class, trivial group, "
                  "4 torsor classes on the circle", started)


def test_criterion_7_crossed_modules():
    started = time.monotonic()
    rng = random.Random(4004)
    nerve = cech_nerve(point_cover())
    modules = [random_crossed_module(rng, 12) for _ in range(20)]
    for X in modules:
        U = unit_crossed_module(X)
        assert verify_crossed_module(U).passed
        assert pi0_order(U) == 1 and pi1_order(U) == 1
        triples = list(enumerate_unit_triples(X, nerve))
        ident = oracle_one(X, nerve)
        for t in triples:
            assert h0_group_law(X, nerve, t, ident) == t
            assert h0_group_law(X, nerve, ident, t) == t
            [inv] = inverses_by_search(X, nerve, t)
            assert h0_group_law(X, nerve, t, inv) == ident
        sample = triples if len(triples) <= 8 else triples[:8]
        for t1, t2, t3 in itertools.product(sample, repeat=3):
            left = h0_group_law(X, nerve, h0_group_law(X, nerve, t1, t2), t3)
            right = h0_group_law(X, nerve, t1, h0_group_law(X, nerve, t2, t3))
            assert left == right
        # the law reproduces composition of the unique unit morphisms over
        # the identity object; on the point, triples[g] has g' = g
        one = X.H.identity
        ker = [g for g in X.G.elements() if X.boundary[g] == one]
        for (_, a), (_, b), sols, u in unit_morphisms_by_method(
                X, [(one, g) for g in ker]):
            assert sols == [u] == [X.G.mul(X.G.inverse[b], a)]
            [inv] = inverses_by_search(X, nerve, triples[b])
            assert h0_group_law(X, nerve, inv, triples[a])[1] == (u,)
    _criterion(7, "nonabelian units: axioms, trivial homotopy, group law",
               started)


def test_criterion_8_kernel_parametrizes_units():
    started = time.monotonic()
    rng = random.Random(5005)
    for _ in range(15):
        X = random_complex2_to(rng, 16)
        units = enumerate_units_1(X)
        A, B = X.terms
        over_zero = [a_phi for e, a_phi in units if e == B.zero().coords]
        K, incl = kernel(X.maps[0])
        # explicit bijection: k |-> (0, incl(k)), inverted by solving
        image = {incl(k).coords for k in K.elements()}
        assert image == set(over_zero)
        assert len(over_zero) == K.order()
        for a_phi in over_zero:
            assert solve(incl, a_phi) is not None
    for _ in range(10):
        Xc = random_crossed_module(rng, 12)
        ker = sorted(g for g in Xc.G.elements()
                     if Xc.boundary[g] == Xc.H.identity)
        units = sorted(g for g in Xc.G.elements()
                       if Xc.boundary[g] == Xc.H.identity)
        assert ker == units  # units over the identity are (e=1, g), g in ker
    _criterion(8, "kernel of the differential parametrizes units over 0",
               started)


def test_criterion_9_smith_normal_form():
    started = time.monotonic()
    rng = random.Random(6006)
    checked_boxes = 0
    for k in range(200):
        if k % 7 == 0:
            # small 2x2 batch so the bounded-quotient brute force gets used
            m = n = 2
            M = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        else:
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        U, D, V = smith_normal_form(M)
        UM = _mul(U, M)
        UMV = _mul(UM, V)
        assert UMV == [list(r) for r in D]
        assert abs(_det([list(r) for r in U])) == 1
        assert abs(_det([list(r) for r in V])) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] and diag[i + 1] % diag[i] == 0
        # independent determinantal-divisor oracle for the diagonal
        assert diag == invariant_factors_from_minors(M)
        # brute-force bounded-quotient comparison where the quotient is small
        if m == n == 2:
            det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
            if det and abs(det) <= 12:
                assert prod(diag) == cokernel_order_2x2_bruteforce(M)
                checked_boxes += 1
    assert checked_boxes >= 3
    elapsed = _criterion(9, "Smith form exactness, unimodularity, "
                            "divisibility, cokernel counts", started)
    assert elapsed < 5.0


def _mul(A, B):
    k = len(B)
    n = len(B[0]) if B else 0
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)]
            for i in range(len(A))]


def _det(M):
    if not M:
        return 1
    if len(M) == 1:
        return M[0][0]
    total = 0
    for j in range(len(M)):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det(minor)
    return total
