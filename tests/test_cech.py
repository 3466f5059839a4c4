import itertools
import random
import time
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from unital import cech
from unital.abelian import (
    CapExceeded, FgAbGroup, GroupHom, direct_sum_many, kernel, subquotient)
from unital.cech import (
    MAX_CELLS_PER_LEVEL,
    CocycleError,
    Cover,
    Nerve,
    SheafSections,
    TotalCocycle,
    UnitCocycle1,
    cech_differential,
    cech_nerve,
    classify_h0,
    cocycle_of_unit,
    cover_of_parts,
    point_cover,
    torsor_classes,
    total_complex_piece,
    unit_cocycles,
    unit_of_cocycle,
    _group_from_orders,
)
from unital.complexes import Complex2, Complex3, homology, unit_complex_1, unit_complex_2
from unital.crossed import (
    CrossedModule,
    FiniteGroup,
    enumerate_unit_triples,
    h0_group_law,
    verify_crossed_module,
)
from unital.point_models import (
    PicardModel1,
    PicardModel2,
    enumerate_units_1,
    enumerate_units_2,
    unit_morphisms_1,
    verify_contractible_1,
)

from oracles import oracle_circle_nerve, oracle_point_nerve, oracle_torsor_classes
from test_abelian import random_group, random_hom
from test_coded_groups import finite_groups, homs
from test_complexes import c2_times2, c3_zero_id, random_complex2, random_complex3

Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)
TRIV = FgAbGroup.trivial()


def circle_cover(names=("a0", "a1", "a2")):
    pairs = [((names[0], names[1]), ("c",)),
             ((names[1], names[2]), ("c",)),
             ((names[0], names[2]), ("c",))]
    return cover_of_parts(names, pairs)


def point_nerve():
    return cech_nerve(point_cover())


def circle_nerve():
    return cech_nerve(circle_cover())


def ring_nerve(k=4):
    """k parts in a cycle, each meeting its two neighbours: levels
    [4, 12, 28, 60] for k = 4."""
    names = [f"a{i}" for i in range(k)]
    return cech_nerve(cover_of_parts(
        names, [((names[i], names[(i + 1) % k]), ("c",)) for i in range(k)]))



# --------------------------------------------------------------------------
# the SheafSections route that the coded scans replaced, kept as oracles


def _all_sections(group, nerve, level):
    cells = nerve.level(level)
    for values in itertools.product(group.elements(), repeat=len(cells)):
        yield SheafSections(group, level, dict(zip(cells, values)))


def _coboundary_action(nerve, X, a, b, alpha):
    """Re-choose the local section by alpha in A(V_0)."""
    new_a = a + alpha.pullback(nerve, 0) - alpha.pullback(nerve, 1)
    new_b = b + alpha.map_values(X.lam)
    return new_a, new_b


def unit_cocycle_from_phi(nerve, X, a_phi):
    """The unit cocycle determined by a choice of a_phi in A(V_0)."""
    a = a_phi.pullback(nerve, 0) - a_phi.pullback(nerve, 1)
    b = a_phi.map_values(X.lam)
    c = UnitCocycle1(a, a_phi, b)
    c.validate(nerve, X)
    return c


def _shifted(nerve, X, c, alpha):
    """The cohomologous cocycle after re-choosing sections by alpha."""
    new_a, new_b = _coboundary_action(nerve, X, c.a, c.b, alpha)
    return UnitCocycle1(new_a, c.a_phi + alpha, new_b)


def _oracle_unit_cocycles(nerve, X):
    """Oracle: unit_cocycles as it ran before its scan moved to table-coded
    groups, without the state cap."""
    cocycles = {}
    for a_phi in _all_sections(X.A, nerve, 0):
        c = unit_cocycle_from_phi(nerve, X, a_phi)
        cocycles[c.key()] = c
    alphas = list(_all_sections(X.A, nerve, 0))
    reps, seen, rep_of = [], set(), {}
    for key in sorted(cocycles):
        if key in seen:
            continue
        orbit = {_shifted(nerve, X, cocycles[key], alpha).key()
                 for alpha in alphas}
        seen |= orbit
        rep_of.update(dict.fromkeys(orbit, min(orbit)))
        reps.append(cocycles[min(orbit)])
    # class orders under the pointwise tensor
    zero = rep_of[unit_cocycle_from_phi(
        nerve, X, SheafSections.zero(X.A, nerve, 0)).key()]
    orders = []
    for r in sorted(set(rep_of.values())):
        acc, n = r, 1
        while acc != zero:
            acc = rep_of[unit_cocycle_from_phi(
                nerve, X, cocycles[acc].a_phi + cocycles[r].a_phi).key()]
            n += 1
        orders.append(n)
    return reps, _group_from_orders(orders)


class TestNerve:
    def test_point(self):
        N = point_nerve()
        assert [len(N.level(n)) for n in range(4)] == [1, 1, 1, 1]
        c1 = N.level(1)[0]
        assert N.face(1, 0, c1) == N.level(0)[0]

    def test_circle_counts(self):
        N = circle_nerve()
        assert [len(N.level(n)) for n in range(4)] == [3, 9, 21, 45]
        nondegenerate = [c for c in N.level(1) if len(set(c[0])) == 2]
        assert len(nondegenerate) == 6

    def test_disjoint_parts(self):
        N = cech_nerve(cover_of_parts(("U", "V"), []))
        assert all(len(set(c[0])) == 1 for c in N.level(1))

    def test_inconsistent_table_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Cover(("U", "V", "W"),
                  {frozenset({0, 1, 2}): ("c",)})  # pairs not declared

    def test_undeclared_containment_target_rejected(self):
        split_u = [(("U",), ("x", "y")), (("U", "V"), ("*",))]
        with pytest.raises(ValueError, match=r"target \[0\]:z is not"):
            cover_of_parts(("U", "V"), split_u, [(("U", "V"), "*", ("U",), "z")])
        N = cech_nerve(cover_of_parts(
            ("U", "V"), split_u, [(("U", "V"), "*", ("U",), "y")]))
        assert N.face(1, 1, ((0, 1), "*")) == ((0,), "y")

    def test_faces_drop_indices(self):
        N = circle_nerve()
        cell = ((0, 1), "c")
        assert N.face(1, 0, cell)[0] == (1,)
        assert N.face(1, 1, cell)[0] == (0,)

    def test_point_and_circle_against_oracles(self):
        for N, (cells, faces), name in (
                (point_nerve(), oracle_point_nerve(), lambda t: ("pt",) * len(t)),
                (circle_nerve(), oracle_circle_nerve(), lambda t: t)):
            for n in range(4):
                assert [name(t) for t, _ in N.level(n)] == cells[n]
            for (n, i), face in faces.items():
                for cell in N.level(n):
                    assert name(N.face(n, i, cell)[0]) == face[name(cell[0])]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_cells_and_faces_as_the_full_product(self, data):
        nparts = data.draw(st.integers(1, 4))
        sets = data.draw(st.lists(st.frozensets(st.integers(0, nparts - 1)),
                                  max_size=4))
        closed = {frozenset(sub) for key in sets for r in range(2, len(key) + 1)
                  for sub in itertools.combinations(sorted(key), r)}
        # two components only on maximal sets, so no face is ambiguous
        comps = {key: ("c", "d")[:data.draw(st.integers(1, 2))]
                 if not any(key < other for other in closed) else ("c",)
                 for key in closed}
        cover = Cover(tuple(f"p{i}" for i in range(nparts)), comps)
        # the enumeration that Nerve ran before pruning
        levels = [sorted((tup, comp)
                         for tup in itertools.product(range(nparts),
                                                      repeat=n + 1)
                         for comp in cover.components.get(frozenset(tup), ()))
                  for n in range(4)]
        if any(len(lv) > MAX_CELLS_PER_LEVEL for lv in levels):
            with pytest.raises(CapExceeded):
                Nerve(cover)
            return
        N = Nerve(cover)
        assert [list(N.level(n)) for n in range(4)] == levels
        for n in range(1, 4):
            for i in range(n + 1):
                for k, (tup, comp) in enumerate(N.level(n)):
                    face = N.face(n, i, (tup, comp))
                    assert face[0] == tup[:i] + tup[i + 1:]
                    assert N.level(n - 1)[N.face_index(n, i)[k]] == face

    def test_many_disjoint_parts_build_fast(self):
        cover = cover_of_parts([f"p{i}" for i in range(64)], [])
        started = time.perf_counter()
        N = cech_nerve(cover)
        assert time.perf_counter() - started < 0.5
        assert [len(N.level(n)) for n in range(4)] == [64] * 4


class TestSections:
    def test_cech_differential_squares_to_zero(self):
        N = circle_nerve()
        rng = random.Random(17)
        G = FgAbGroup.from_divisors(4)
        s = SheafSections(G, 0, {c: G.element([rng.randrange(4)])
                                 for c in N.level(0)})
        dd = cech_differential(N, cech_differential(N, s))
        assert dd.is_zero

    def test_pullback_along_faces(self):
        N = circle_nerve()
        s = SheafSections(Z2, 0, {c: Z2.element([i % 2])
                                  for i, c in enumerate(N.level(0))})
        p0 = s.pullback(N, 0)
        for c in N.level(1):
            assert p0(c) == s(N.face(1, 0, c))


class TestTorsorClasses:
    def test_point_nerve_is_cokernel(self):
        rng = random.Random(23)
        for _ in range(8):
            X = random_complex2(rng, 9)
            res = torsor_classes(point_nerve(), X)
            assert res.count == homology(X, 0).order()

    def test_circle_z2_against_oracle(self):
        X = Complex2(Z2, Z2, GroupHom.zero(Z2, Z2))
        res = torsor_classes(circle_nerve(), X)
        cells, faces = oracle_circle_nerve()
        oracle = oracle_torsor_classes(cells, faces, (2,), (2,),
                                       lambda a: (0,))
        assert res.count == oracle == 4

    def test_point_z2_against_oracle(self):
        X = Complex2(Z2, Z2, GroupHom.zero(Z2, Z2))
        res = torsor_classes(point_nerve(), X)
        cells, faces = oracle_point_nerve()
        oracle = oracle_torsor_classes(cells, faces, (2,), (2,),
                                       lambda a: (0,))
        assert res.count == oracle == 2

    def test_identity_coefficients_one_class(self):
        for N in (point_nerve(), circle_nerve()):
            X = Complex2(Z2, Z2, GroupHom.identity(Z2))
            assert torsor_classes(N, X).count == 1

    def test_relabeling_invariance(self):
        X = Complex2(Z2, Z2, GroupHom.zero(Z2, Z2))
        a = torsor_classes(cech_nerve(circle_cover()), X).count
        b = torsor_classes(cech_nerve(circle_cover(("z", "m", "a"))), X).count
        assert a == b

    def test_coboundary_is_group_action(self):
        N = circle_nerve()
        X = Complex2(Z2, Z2, GroupHom.zero(Z2, Z2))
        rng = random.Random(29)
        a = SheafSections(X.A, 1, {c: X.A.element([rng.randrange(2)])
                                   for c in N.level(1)})
        b = SheafSections(X.B, 0, {c: X.B.element([rng.randrange(2)])
                                   for c in N.level(0)})
        al1 = SheafSections(X.A, 0, {c: X.A.element([rng.randrange(2)])
                                     for c in N.level(0)})
        al2 = SheafSections(X.A, 0, {c: X.A.element([rng.randrange(2)])
                                     for c in N.level(0)})
        a1, b1 = _coboundary_action(N, X, *_coboundary_action(N, X, a, b, al1),
                                    al2)
        a2, b2 = _coboundary_action(N, X, a, b, al1 + al2)
        assert a1.key() == a2.key() and b1.key() == b2.key()


def _filter_torsor_classes(nerve, X):
    """Oracle: the SheafSections filter that torsor_classes ran before its
    scan moved to table-coded groups, returning the representatives."""
    def relations_hold(a, b):
        if not (a.pullback(nerve, 0) + a.pullback(nerve, 2)
                - a.pullback(nerve, 1)).is_zero:
            return False
        return (b.pullback(nerve, 0) - b.pullback(nerve, 1)
                - a.map_values(X.lam)).is_zero

    cocycles = {}
    for a in _all_sections(X.A, nerve, 1):
        for b in _all_sections(X.B, nerve, 0):
            if relations_hold(a, b):
                cocycles[(a.key(), b.key())] = (a, b)
    alphas = list(_all_sections(X.A, nerve, 0))
    reps, seen = [], set()
    for key in sorted(cocycles):
        if key in seen:
            continue
        orbit = set()
        for alpha in alphas:
            na, nb = _coboundary_action(nerve, X, *cocycles[key], alpha)
            orbit.add((na.key(), nb.key()))
        seen |= orbit
        reps.append(cocycles[min(orbit)])
    return reps


def _check_coded_scan(N, oracle_nerve, X):
    res = torsor_classes(N, X)
    assert res.representatives == _filter_torsor_classes(N, X)
    cells, faces = oracle_nerve
    lam = lambda a: X.lam(X.A.element(a)).coords  # noqa: E731
    assert res.count == oracle_torsor_classes(
        cells, faces, X.A.invariant_factors, X.B.invariant_factors, lam)
    # two ways to one number: torsor classes and |H^0(Tot X)|
    assert res.count == classify_h0(N, X).order()


def _complexes2(groups):
    """Every 2-term complex with both terms from ``groups``."""
    for A, B in itertools.product(groups, repeat=2):
        pools = [[y for y in B.elements() if y.scale(d).is_zero]
                 for d in A.invariant_factors]
        for images in itertools.product(*pools):
            yield Complex2(A, B, GroupHom.from_images(A, B, list(images)))


ORDER_AT_MOST_4 = (TRIV, Z2, Z3, FgAbGroup.cyclic(4),
                   FgAbGroup.from_divisors(2, 2))


class TestCodedTorsorScan:
    @settings(max_examples=40, deadline=None)
    @given(homs(max_order=12))
    def test_point_against_filter_and_oracles(self, lam):
        X = Complex2(lam.source, lam.target, lam)
        _check_coded_scan(point_nerve(), oracle_point_nerve(), X)

    @pytest.mark.parametrize("X", list(_complexes2((TRIV, Z2))),
                             ids=lambda X: f"{X.A}->{X.B}:{X.lam.matrix}")
    def test_circle_against_filter_and_oracles(self, X):
        # every complex with |A|, |B| <= 2: Z/2 -> Z/2 is 4096 candidates
        _check_coded_scan(circle_nerve(), oracle_circle_nerve(), X)

    def test_cap_refuses_before_any_table(self, monkeypatch):
        X = Complex2(Z2, Z2, GroupHom.zero(Z2, Z2))

        def no_tables(G):
            raise AssertionError("coded tables built before the cap check")
        monkeypatch.setattr(cech, "_coded", no_tables)
        with pytest.raises(CapExceeded, match="4096 candidate"):
            torsor_classes(circle_nerve(), X, max_states=4095)


class TestUnitCocycles:
    def test_one_class_point(self):
        classes, group = unit_cocycles(point_nerve(), c2_times2())
        assert len(classes) == 1
        assert group.is_trivial

    def test_one_class_circle_z3(self):
        X = Complex2(Z3, Z3, GroupHom.zero(Z3, Z3))
        classes, group = unit_cocycles(circle_nerve(), X)
        assert len(classes) == 1 and group.is_trivial

    def test_trivial_A(self):
        X = Complex2(TRIV, Z2, GroupHom.zero(TRIV, Z2))
        classes, group = unit_cocycles(circle_nerve(), X)
        assert len(classes) == 1 and group.is_trivial
        assert classes[0].a_phi.is_zero

    def test_agreement_with_point_model(self):
        # point-nerve unit classes biject with iso classes of units: both 1
        X = c2_times2()
        classes, _ = unit_cocycles(point_nerve(), X)
        rep = verify_contractible_1(PicardModel1(X))
        assert len(classes) == 1 and rep.passed


def _check_unit_scan(N, X):
    classes, group = unit_cocycles(N, X)
    oracle_classes, oracle_group = _oracle_unit_cocycles(N, X)
    assert [c.key() for c in classes] == [c.key() for c in oracle_classes]
    assert classes == oracle_classes
    assert group == oracle_group


class TestCodedUnitScan:
    @settings(max_examples=40, deadline=None)
    @given(homs(max_order=16))
    def test_point_against_oracle(self, lam):
        _check_unit_scan(point_nerve(), Complex2(lam.source, lam.target, lam))

    @pytest.mark.parametrize("X", list(_complexes2(ORDER_AT_MOST_4)),
                             ids=lambda X: f"{X.A}->{X.B}:{X.lam.matrix}")
    def test_circle_against_oracle(self, X):
        # every complex with |A|, |B| <= 4: at most 4^3 = 64 states
        _check_unit_scan(circle_nerve(), X)

    def test_cap_refuses_before_any_table(self, monkeypatch):
        X = Complex2(Z2, Z2, GroupHom.zero(Z2, Z2))

        def no_tables(G):
            raise AssertionError("coded tables built before the cap check")
        monkeypatch.setattr(cech, "_coded", no_tables)
        with pytest.raises(CapExceeded, match="^8 states exceed 7$"):
            unit_cocycles(circle_nerve(), X, max_states=7)

    @pytest.mark.parametrize("cells,relation", [
        # a constant shift of b cancels in d0*(b) - d1*(b)
        ((0, 1, 2), r"lambda\(a_phi\) = b at \(\(0,\), '\*'\)"),
        ((0,), r"d0\*\(b\) = d1\*\(b\) \+ lambda\(a\) at \(\(0, 1\), 'c'\)")])
    def test_broken_cocycle_names_its_relation(self, monkeypatch, cells,
                                               relation):
        X = Complex2(Z3, Z3, GroupHom.zero(Z3, Z3))
        coboundary = cech._coboundary

        def shifted_b(A, lam, faces1, alpha):  # Z/3 indices are coordinates
            a, b = coboundary(A, lam, faces1, alpha)
            return a, tuple((y + (k in cells)) % 3 for k, y in enumerate(b))
        monkeypatch.setattr(cech, "_coboundary", shifted_b)
        with pytest.raises(CocycleError, match=relation):
            unit_cocycles(circle_nerve(), X)


@settings(max_examples=60, deadline=None)
@given(finite_groups())
def test_group_from_its_element_orders(G):
    orders = [lcm(*(d // gcd(c, d)
                    for c, d in zip(x.coords, G.invariant_factors)))
              for x in G.elements()]
    assert _group_from_orders(orders) == G


def _as_crossed_module(X):
    """A 2-term complex read as a crossed module: boundary lam, trivial
    action."""
    G = FiniteGroup.from_invariant_factors(X.A.invariant_factors)
    H = FiniteGroup.from_invariant_factors(X.B.invariant_factors)
    return CrossedModule(G, H, G.image_array(X.lam.matrix, H),
                         [[g] * H.order for g in G.elements()])


def _cocycle_key(t):
    """The key of the unit cocycle (a, a_phi, b) = (g, g', -h) of a triple."""
    G, H = t.module.G, t.module.H
    return (tuple(G.coords(v) for _, v in t.g),
            tuple(G.coords(v) for _, v in t.g_prime),
            tuple(H.coords(H.inv(v)) for _, v in t.h))


def _check_triples_are_unit_cocycles(N, X):
    XC = _as_crossed_module(X)
    assert verify_crossed_module(XC).passed
    triples = enumerate_unit_triples(XC, N)
    cocycles = {c.key(): c for c in (unit_cocycle_from_phi(N, X, phi)
                                     for phi in _all_sections(X.A, N, 0))}
    keys = [_cocycle_key(t) for t in triples]
    assert len(set(keys)) == len(triples) == len(cocycles)
    assert set(keys) == set(cocycles)
    # h0_group_law is the pointwise tensor of unit cocycles
    rng = random.Random(len(triples))
    pairs = list(itertools.product(triples, repeat=2)) if len(triples) <= 8 \
        else [(rng.choice(triples), rng.choice(triples)) for _ in range(64)]
    for t1, t2 in pairs:
        c1, c2 = cocycles[_cocycle_key(t1)], cocycles[_cocycle_key(t2)]
        tensor = (c1.a + c2.a, c1.a_phi + c2.a_phi, c1.b + c2.b)
        assert _cocycle_key(h0_group_law(t1, t2, N)) == \
            tuple(s.key() for s in tensor)


def _complex2(a_factors, b_factors, lam):
    A = FgAbGroup.from_divisors(*a_factors)
    B = FgAbGroup.from_divisors(*b_factors)
    return Complex2(A, B, GroupHom(A, B, lam))


class TestTriplesAreUnitCocycles:
    """A 2-term complex is a crossed module with trivial action and boundary
    lam: its descent triples (g, g', h) are its unit cocycles
    (a, a_phi, -b), and the triple law is the pointwise tensor."""

    @settings(max_examples=30, deadline=None)
    @given(homs(max_order=64))
    def test_point(self, lam):
        _check_triples_are_unit_cocycles(
            point_nerve(), Complex2(lam.source, lam.target, lam))

    @pytest.mark.parametrize("X", [
        _complex2((2,), (2,), [[0]]), _complex2((2,), (2,), [[1]]),
        _complex2((3,), (3,), [[0]]), _complex2((4,), (2,), [[1]]),
        _complex2((2, 2), (2,), [[1, 1]]), _complex2((2,), (4,), [[2]]),
        _complex2((4,), (4,), [[3]]), _complex2((8,), (4,), [[1]])],
        ids=lambda X: f"{X.A}->{X.B}:{X.lam.matrix}")
    def test_circle(self, X):
        # |A|^3 <= 512 triples keeps the SheafSections oracle quick
        _check_triples_are_unit_cocycles(circle_nerve(), X)


class TestClassifyH0:
    def test_sections_of_b(self):
        X = Complex2(TRIV, Z2, GroupHom.zero(TRIV, Z2))
        assert classify_h0(point_nerve(), X) == Z2

    def test_point_nerve_matches_complex_h0(self):
        rng = random.Random(31)
        for _ in range(6):
            X = random_complex2(rng, 9)
            assert classify_h0(point_nerve(), X) == homology(X, 0)

    def test_circle_constant_sections(self):
        X = Complex2(TRIV, Z2, GroupHom.zero(TRIV, Z2))
        assert classify_h0(circle_nerve(), X) == Z2

    def test_circle_degree_one_part(self):
        # coefficients concentrated one step down see H^1 of the circle
        X = Complex2(Z2, TRIV, GroupHom.zero(Z2, TRIV))
        assert classify_h0(circle_nerve(), X) == Z2

    def test_unit_complex_trivial_both_nerves(self):
        rng = random.Random(37)
        for _ in range(4):
            U1, _ = unit_complex_1(random_complex2(rng, 9))
            for N in (point_nerve(), circle_nerve()):
                assert classify_h0(N, U1).is_trivial

    def test_unit_complex_2_trivial(self):
        U2 = unit_complex_2(c3_zero_id())
        assert classify_h0(point_nerve(), U2).is_trivial
        assert classify_h0(circle_nerve(), U2).is_trivial

    def test_total_complex_is_a_complex(self):
        (_, _, l1), (d_low, d_high) = total_complex_piece(c3_zero_id(),
                                                          circle_nerve())
        assert _zero_mod(_matmul(d_high, d_low), l1.orders)

    @pytest.mark.parametrize("nerve,terms,count", [
        ("point", 2, 8), ("point", 3, 8), ("circle", 2, 3), ("circle", 3, 3),
        ("ring4", 2, 2)])
    def test_matches_packed_route(self, nerve, terms, count):
        # Z/6 and Z/9 next to Z/2, Z/3 and Z/4 make the canonical sums of
        # the packed route merge primary parts; block coordinates never do.
        # Beyond the point, the packed route's integer eliminations run
        # for over a minute on two-generator terms such as Z/3 x Z/9, so
        # the circles get cyclic ones.
        rng = random.Random(f"packed{terms}{nerve}")
        N = {"point": point_nerve, "circle": circle_nerve,
             "ring4": ring_nerve}[nerve]()
        pool = MIXED_PRIMES + [(2, 6), (3, 9)] if nerve == "point" \
            else MIXED_PRIMES
        for _ in range(count):
            X = _mixed_prime_complex(rng, terms, pool)
            assert classify_h0(N, X) == _packed_h0(N, X)

    @pytest.mark.parametrize("nerve", ["circle", "ring4"])
    def test_zero_maps_split_by_degree(self, nerve):
        # with zero differentials H^0(Tot X) is the sum of the H^(-p) of
        # the nerve, a circle, with coefficients X^p: X^0 from H^0, X^-1
        # from H^1, and nothing from H^2.  The packed route ran for over a
        # minute on the first of these over the circle
        N = circle_nerve() if nerve == "circle" else ring_nerve()
        for inv in [((4,), (3, 9), (2,)), ((2, 6), (3, 9), (9,))]:
            A, B, C = (FgAbGroup(i) for i in inv)
            X = Complex3(A, B, C, GroupHom.zero(A, B), GroupHom.zero(B, C))
            assert classify_h0(N, X) == FgAbGroup.from_divisors(
                *B.invariant_factors, *C.invariant_factors)
            assert classify_h0(N, Complex2(A, B, GroupHom.zero(A, B))) == \
                FgAbGroup.from_divisors(*A.invariant_factors,
                                        *B.invariant_factors)

    def test_matches_packed_route_ring4_three_term(self):
        # fixed complexes: the packed route runs for more than 15 s on some
        # random ones here, such as Z/4 -3-> Z/6 -1-> Z/3
        Z3, Z6, Z9 = (FgAbGroup.cyclic(n) for n in (3, 6, 9))
        N = ring_nerve()
        for X in (Complex3(Z3, Z6, Z2, GroupHom(Z3, Z6, [[2]]),
                           GroupHom(Z6, Z2, [[1]])),
                  Complex3(Z9, Z3, Z6, GroupHom(Z9, Z3, [[1]]),
                           GroupHom.zero(Z3, Z6))):
            assert classify_h0(N, X) == _packed_h0(N, X)


# --------------------------------------------------------------------------
# the packed route that block coordinates replaced, kept as the oracle of
# classify_h0 and of the block differential


MIXED_PRIMES = [(), (2,), (3,), (4,), (6,), (9,)]


def _mixed_prime_complex(rng, terms, pool=MIXED_PRIMES):
    A, B, C = (FgAbGroup(rng.choice(pool)) for _ in range(3))
    if terms == 2:
        return Complex2(A, B, random_hom(rng, A, B))
    lam = random_hom(rng, B, C)
    K, incl = kernel(lam)
    return Complex3(A, B, C, incl.compose(random_hom(rng, A, K)), lam)


class _PackedLayout:
    """The total-degree-n part packed into one canonical direct sum, with
    an injection and a projection per (p, q, cell) block."""

    def __init__(self, X, nerve, total_degree):
        self.X = X
        self.blocks = [(p, total_degree - p, cell) for p in X.degrees
                       if 0 <= total_degree - p <= cech.TOP_LEVEL
                       for cell in nerve.level(total_degree - p)]
        ds = direct_sum_many([X.group_at(p) for p, _, _ in self.blocks])
        self.group, self.inj, self.proj = \
            ds.group, ds.injections, ds.projections

    def unpack(self, elem):
        comps = {}
        for (p, q, cell), proj in zip(self.blocks, self.proj):
            comps.setdefault((p, q), {})[cell] = proj(elem)
        return {pq: SheafSections(self.X.group_at(pq[0]), pq[1], data)
                for pq, data in comps.items()}


def _differential_by_sections(X, nerve, comps, blocks):
    """d_X + (-1)^(p+1) cech of the components {(p, q): SheafSections} at
    each (p, q, cell) of ``blocks``, in GroupElem arithmetic."""
    for p, q, cell in blocks:
        val = X.group_at(p).zero()
        if (p - 1, q) in comps:
            val = val + X.differential(p - 1)(comps[(p - 1, q)](cell))
        if (p, q - 1) in comps:
            acc = X.group_at(p).zero()
            for i in range(q + 1):
                face_val = comps[(p, q - 1)](nerve.face(q, i, cell))
                acc = acc + face_val if i % 2 == 0 else acc - face_val
            val = val + (acc if p % 2 else -acc)
        yield val


def _packed_differential(X, nerve, source, target):
    """The packed total differential, generator by generator."""
    images = []
    for g in range(source.group.ngens):
        out = target.group.zero()
        values = _differential_by_sections(
            X, nerve, source.unpack(source.group.generator(g)), target.blocks)
        for val, inj in zip(values, target.inj):
            out = out + inj(val)
        images.append(out)
    return GroupHom.from_images(source.group, target.group, images)


def _packed_h0(nerve, X):
    """Oracle: classify_h0 as it ran before block coordinates, as homology
    of the total complex packed into canonical direct sums."""
    lm1, l0, l1 = (_PackedLayout(X, nerve, n) for n in (-1, 0, 1))
    return homology(Complex3(lm1.group, l0.group, l1.group,
                             _packed_differential(X, nerve, lm1, l0),
                             _packed_differential(X, nerve, l0, l1)), -1)


def _matvec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _matmul(A, B):
    columns = list(zip(*B))
    return [_matvec(columns, row) for row in A]


def _zero_mod(rows, orders):
    """Every row i of the matrix lies in orders[i] * Z."""
    return all(x % d == 0 if d else x == 0
               for row, d in zip(rows, orders) for x in row)


class TestBlockDifferential:
    @pytest.mark.parametrize("terms", [2, 3])
    @pytest.mark.parametrize("nerve,count", [("point", 8), ("circle", 3)])
    def test_matches_generator_images(self, terms, nerve, count):
        rng = random.Random(f"{terms}{nerve}")
        N = point_nerve() if nerve == "point" else circle_nerve()
        make = random_complex2 if terms == 2 else random_complex3
        for _ in range(count):
            X = make(rng, 8)
            layouts, matrices = total_complex_piece(X, N)
            for source, target, D in zip(layouts, layouts[1:], matrices):
                for j in range(len(source.orders)):  # the image of e_j
                    e_j = [int(i == j) for i in range(len(source.orders))]
                    image = [x for val in _differential_by_sections(
                        X, N, source.unpack(e_j), target.blocks)
                        for x in val.coords]
                    assert _zero_mod([[row[j] - y] for row, y in
                                      zip(D, image)], target.orders)
            assert _zero_mod(_matmul(matrices[1], matrices[0]),
                             layouts[2].orders)


class TestSubquotient:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_homology(self, seed):
        # free ranks included: Z^r next to torsion in every term
        rng = random.Random(f"subquotient{seed}")
        for X in (_free_complex(rng, 2), _free_complex(rng, 3)):
            for d in X.degrees:
                G = X.group_at(d)
                d_in = X.differential(d - 1).matrix \
                    if d > X.degrees[0] else [[]] * G.ngens
                out = X.differential(d)
                assert subquotient(d_in, G.orders, out.matrix,
                                   out.target.orders)[0] == homology(X, d)


def _free_group(rng):
    return FgAbGroup(rng.choice(MIXED_PRIMES), rng.randrange(3))


def _free_hom(rng, A, B):
    """A random well-defined hom: a torsion generator of order d goes to an
    element killed by d, a free one anywhere."""
    images = []
    for d in A.orders:
        steps = [1 if d == 0 else e // gcd(d, e) if e else 0
                 for e in B.orders]
        images.append(B.element(rng.randrange(-3, 4) * k for k in steps))
    return GroupHom.from_images(A, B, images)


def _free_complex(rng, terms):
    A, B, C = (_free_group(rng) for _ in range(3))
    if terms == 2:
        return Complex2(A, B, _free_hom(rng, A, B))
    lam = _free_hom(rng, B, C)
    K, incl = kernel(lam)
    return Complex3(A, B, C, incl.compose(_free_hom(rng, A, K)), lam)


class TestUnitCocycleRoundTrip:
    def test_saavedra_constant(self):
        X = c2_times2()
        unit = enumerate_units_1(PicardModel1(X))[1]  # (2, 1)
        N = point_nerve()
        c = cocycle_of_unit(unit, N)
        assert c.a.is_zero
        assert c.a_phi(N.level(0)[0]) == unit.a_phi
        back, alpha = unit_of_cocycle(c, N, X)
        assert back.key() == unit.key()
        (mor,) = unit_morphisms_1(back, unit)
        assert mor.u.is_zero

    def test_zero_unit(self):
        X = c2_times2()
        unit = enumerate_units_1(PicardModel1(X))[0]
        c = cocycle_of_unit(unit, circle_nerve())
        assert c.a.is_zero and c.b.is_zero and c.a_phi.is_zero

    def test_nonconstant_cocycle_decodes_to_connected_unit(self):
        N = circle_nerve()
        X = Complex2(Z3, Z3, GroupHom.zero(Z3, Z3))
        phi = SheafSections(X.A, 0,
                            {c: X.A.element([i % 3])
                             for i, c in enumerate(N.level(0))})
        c = unit_cocycle_from_phi(N, X, phi)
        unit, alpha = unit_of_cocycle(c, N, X)
        # the trivializing cochain really makes the cocycle constant
        shifted = _shifted(N, X, c, alpha)
        assert shifted.a.is_zero
        assert all(v == unit.a_phi for v in shifted.a_phi.data.values())
        # decoded unit is a valid unit connected to the canonical one
        assert len(unit_morphisms_1(
            unit, enumerate_units_1(PicardModel1(X))[0])) == 1

    def test_corrupted_cocycle_names_relation(self):
        X = c2_times2()
        N = point_nerve()
        unit = enumerate_units_1(PicardModel1(X))[1]
        c = cocycle_of_unit(unit, N)
        bad = UnitCocycle1(c.a, c.a_phi,
                           c.b + SheafSections.constant(X.B.element([1]),
                                                        N, 0))
        with pytest.raises(CocycleError, match=r"lambda\(a_phi\) = b"):
            bad.validate(N, X)

    def test_jk_constant_total_cocycle(self):
        X = c3_zero_id()
        unit = enumerate_units_2(PicardModel2(X))[1]
        for N in (point_nerve(), circle_nerve()):
            c = cocycle_of_unit(unit, N)
            c.validate(N)
            back, w = unit_of_cocycle(c, N, X)
            assert back.key() == unit.key()

    def test_jk_nonconstant_total_cocycle(self):
        X = c3_zero_id()
        U = unit_complex_2(X)
        N = point_nerve()
        (lm1, l0, _), (d_low, _) = total_complex_piece(U, N)
        unit = enumerate_units_2(PicardModel2(X))[1]
        const = cocycle_of_unit(unit, N)
        for w_in in itertools.islice(
                itertools.product(*map(range, lm1.orders)), 1, 7):
            shift = l0.unpack(_matvec(d_low, w_in))
            comps = {pq: const.components[pq] + shift[pq]
                     for pq in const.components}
            moved = TotalCocycle(U, comps)
            moved.validate(N)
            back, w = unit_of_cocycle(moved, N, X)
            assert back.model == PicardModel2(X)
            # the returned cochain carries the cocycle onto the constant
            # one of the decoded unit
            gap = [[x - y - z] for x, y, z in zip(
                l0.pack(comps), l0.pack(cocycle_of_unit(back, N).components),
                _matvec(d_low, lm1.pack(w)))]
            assert _zero_mod(gap, l0.orders)
