import itertools
import random

import pytest

from unital.abelian import CapExceeded, FgAbGroup, FinitenessError, GroupHom
from unital.complexes import Complex2, Complex3, GroupElem, homology, unit_complex_1
from unital import point_models
from unital.point_models import (
    JKUnit,
    PicardModel1,
    PicardModel2,
    SaavedraUnit,
    count_unit_morphisms_1,
    enumerate_units_1,
    enumerate_units_2,
    tensor_units_1,
    tensor_units_2,
    verify_contractible_1,
    verify_contractible_2,
)

from test_abelian import random_group, random_hom
from test_complexes import c2_times2, c3_zero_id, random_complex2, random_complex3

Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)
Z4 = FgAbGroup.cyclic(4)


def model_times2():
    return PicardModel1(c2_times2())


def model_zero_z3():
    return PicardModel1(Complex2(Z3, Z3, GroupHom.zero(Z3, Z3)))


def model2_example():
    return PicardModel2(c3_zero_id())


# brute-force oracles on GroupElem arithmetic, from the definitions


def oracle_unit_morphisms_1(s, t):
    """Every a with lam(a) = e_s - e_t whose unit square commutes:
    a_phi(s) + a = a + a + a_phi(t)."""
    X = s.model.base
    return [a for a in X.A.elements()
            if X.lam(a) == s.e - t.e and s.a_phi + a == a + a + t.a_phi]


def oracle_unit_1morphisms(s, t):
    """Every (f, theta) with lam(f) = e_s - e_t and theta filling the
    square: delta(theta) = f + phi_t - phi_s."""
    X = s.model.base
    return [(f, theta) for f in X.B.elements() if X.lam(f) == s.e - t.e
            for theta in X.A.elements()
            if X.delta(theta) == f + t.phi - s.phi]


def oracle_unit_2morphisms(X, m1, m2):
    """Every gamma with delta(gamma) = f_1 - f_2 whose two pastings agree:
    (gamma + gamma) + theta_2 = theta_1 + gamma."""
    (f1, theta1), (f2, theta2) = m1, m2
    return [g for g in X.A.elements()
            if X.delta(g) == f1 - f2 and g + g + theta2 == theta1 + g]


class TestSaavedraUnits:
    def test_times2_units(self):
        units = enumerate_units_1(model_times2())
        assert [u.key() for u in units] == [((0,), (0,)), ((2,), (1,))]

    def test_zero_map_units_are_kernel(self):
        units = enumerate_units_1(model_zero_z3())
        assert [u.key() for u in units] == \
            [((0,), (0,)), ((0,), (1,)), ((0,), (2,))]

    def test_trivial_A(self):
        m = PicardModel1(Complex2(FgAbGroup.trivial(), Z4,
                                  GroupHom.zero(FgAbGroup.trivial(), Z4)))
        units = enumerate_units_1(m)
        assert len(units) == 1 and units[0].e.is_zero

    def test_membership_enforced(self):
        m = model_times2()
        with pytest.raises(ValueError):
            SaavedraUnit(m, Z4.element([1]), Z2.element([0]))

    def test_infinite_guard(self):
        G = FgAbGroup.free(1)
        m = PicardModel1(Complex2(G, G, GroupHom.identity(G)))
        with pytest.raises(FinitenessError):
            enumerate_units_1(m)


class TestUnitMorphisms1:
    def test_doubling_complex(self):
        m = model_times2()
        s, t = enumerate_units_1(m)
        (u,) = oracle_unit_morphisms_1(s, t)
        assert u.coords == (1,)
        assert count_unit_morphisms_1(m) == 4

    def test_identity(self):
        m = model_times2()
        s = enumerate_units_1(m)[1]
        (u,) = oracle_unit_morphisms_1(s, s)
        assert u.is_zero

    def test_zero_model(self):
        units = enumerate_units_1(model_zero_z3())
        s = units[1]  # (0, 1)
        t = units[2]  # (0, 2)
        (u,) = oracle_unit_morphisms_1(s, t)
        assert u.coords == (2,)

    def test_exhaustive_uniqueness(self):
        # the unique morphism is a_phi(s) - a_phi(t), the one the coded
        # count tests, and the count is every ordered pair
        rng = random.Random(101)
        for _ in range(15):
            m = PicardModel1(random_complex2(rng, 12))
            units = enumerate_units_1(m)
            for s, t in itertools.product(units, repeat=2):
                assert oracle_unit_morphisms_1(s, t) == [s.a_phi - t.a_phi]
            assert count_unit_morphisms_1(m) == len(units) ** 2

    def test_morphism_sets_and_count(self):
        rng = random.Random(105)
        for _ in range(10):
            m = PicardModel1(random_complex2(rng, 12))
            assert count_unit_morphisms_1(m) == m.base.A.order() ** 2

    def test_morphism_to_canonical_is_a_phi(self):
        rng = random.Random(103)
        for _ in range(10):
            units = enumerate_units_1(PicardModel1(random_complex2(rng, 12)))
            can = units[0]  # (0, 0), first in lexicographic order
            assert can.key() == (can.e.group.zero().coords,
                                 can.a_phi.group.zero().coords)
            for s in units:
                assert oracle_unit_morphisms_1(s, can) == [s.a_phi]


class TestTensor1:
    def test_self_tensor(self):
        m = model_times2()
        s = enumerate_units_1(m)[1]  # (2, 1)
        st = tensor_units_1(s, s)
        assert st.key() == ((0,), (0,))

    def test_canonical_is_neutral(self):
        units = enumerate_units_1(model_zero_z3())
        for s in units:
            assert tensor_units_1(s, units[0]).key() == s.key()

    def test_z3_example(self):
        units = enumerate_units_1(model_zero_z3())
        assert tensor_units_1(units[1], units[2]).key() == ((0,), (0,))

    def test_tensor_functorial_on_morphisms(self):
        # unique morphism (s (x) s2 -> t (x) t2) is the sum of the uniques
        rng = random.Random(107)
        for _ in range(10):
            m = PicardModel1(random_complex2(rng, 9))
            units = enumerate_units_1(m)
            for s, t, s2, t2 in itertools.product(units[:4], repeat=4):
                (u1,) = oracle_unit_morphisms_1(s, t)
                (u2,) = oracle_unit_morphisms_1(s2, t2)
                assert oracle_unit_morphisms_1(
                    tensor_units_1(s, s2), tensor_units_1(t, t2)) == [u1 + u2]


class TestContractible1:
    def test_times2(self):
        rep = verify_contractible_1(model_times2())
        assert rep.passed
        assert rep.data["units"] == 2
        assert rep.data["morphisms"] == 4

    def test_point(self):
        T = FgAbGroup.trivial()
        rep = verify_contractible_1(
            PicardModel1(Complex2(T, T, GroupHom.zero(T, T))))
        assert rep.passed and rep.data["units"] == 1

    def test_zero_z3(self):
        rep = verify_contractible_1(model_zero_z3())
        assert rep.passed and rep.data["morphisms"] == 9

    def test_coherence_triples_count_against_max_states(self):
        m = PicardModel1(Complex2(FgAbGroup.cyclic(8), Z2,
                                  GroupHom.zero(FgAbGroup.cyclic(8), Z2)))
        with pytest.raises(CapExceeded, match="512"):
            verify_contractible_1(m, max_states=511)
        assert verify_contractible_1(m, max_states=512).passed

    def test_iso_class_count_matches_unit_complex(self):
        rng = random.Random(109)
        for _ in range(10):
            X = random_complex2(rng, 12)
            rep = verify_contractible_1(PicardModel1(X))
            assert rep.passed  # one iso class
            U, _ = unit_complex_1(X)
            assert homology(U, 0).is_trivial


class TestJKUnits:
    def test_example_units(self):
        units = enumerate_units_2(model2_example())
        assert [u.key() for u in units] == [((0,), (0,)), ((1,), (1,))]

    def test_trivial_C_units_are_kernel(self):
        X = Complex3(Z2, Z4, FgAbGroup.trivial(),
                     GroupHom(Z2, Z4, [[2]]),
                     GroupHom.zero(Z4, FgAbGroup.trivial()))
        units = enumerate_units_2(PicardModel2(X))
        assert len(units) == 4 and all(u.e.is_zero for u in units)

    def test_trivial_B(self):
        X = Complex3(Z2, FgAbGroup.trivial(), Z2,
                     GroupHom.zero(Z2, FgAbGroup.trivial()),
                     GroupHom.zero(FgAbGroup.trivial(), Z2))
        units = enumerate_units_2(PicardModel2(X))
        assert len(units) == 1

    def test_unit_1morphisms_example(self):
        model = model2_example()
        units = enumerate_units_2(model)
        ms = oracle_unit_1morphisms(units[0], units[1])
        assert sorted((f.coords, theta.coords) for f, theta in ms) == \
            [((1,), (0,)), ((1,), (1,))]
        # the coded scan finds the same pairs
        A, B, C, delta, lam = point_models._tables_2(model)
        coded = [(C.index(u.e.coords), B.index(u.phi.coords)) for u in units]
        assert [(B.coords(f), A.coords(theta)) for f, theta in
                point_models._coded_1morphisms(
                    B, C, point_models._fibers(B, C, lam),
                    point_models._fibers(A, B, delta), *coded)] == \
            [((1,), (0,)), ((1,), (1,))]

    def test_unit_2morphism_example(self):
        units = enumerate_units_2(model2_example())
        m1, m2 = oracle_unit_1morphisms(units[0], units[1])
        (g,) = oracle_unit_2morphisms(model2_example().base, m1, m2)
        assert g.coords == (1,)

    def test_identity_2morphism(self):
        units = enumerate_units_2(model2_example())
        m1 = oracle_unit_1morphisms(units[0], units[1])[0]
        (g,) = oracle_unit_2morphisms(model2_example().base, m1, m1)
        assert g.is_zero

    def test_sigma_orientation_pins_gamma(self):
        # solve the pasting equation exhaustively; the unique solution must
        # be theta_1 - theta_2, never the opposite sign when they differ
        rng = random.Random(113)
        for _ in range(10):
            X = random_complex3(rng, 9)
            m = PicardModel2(X)
            units = enumerate_units_2(m)
            for s, t in itertools.product(units[:3], repeat=2):
                ms = oracle_unit_1morphisms(s, t)
                for m1, m2 in itertools.product(ms[:4], repeat=2):
                    assert oracle_unit_2morphisms(X, m1, m2) == [m1[1] - m2[1]]

    def test_theta_solvability_identity(self):
        rng = random.Random(127)
        for _ in range(8):
            X = random_complex3(rng, 9)
            m = PicardModel2(X)
            units = enumerate_units_2(m)
            for s, t in itertools.product(units[:3], repeat=2):
                ms = oracle_unit_1morphisms(s, t)
                for (f1, theta1), (f2, theta2) in \
                        itertools.product(ms[:5], repeat=2):
                    assert X.delta(theta1 - theta2) == f1 - f2


class TestTensor2AndContractible2:
    def test_tensor_example(self):
        units = enumerate_units_2(model2_example())
        u = units[1]
        assert tensor_units_2(u, u).key() == ((0,), (0,))
        assert tensor_units_2(u, units[0]).key() == u.key()

    def test_contractible_example(self):
        rep = verify_contractible_2(model2_example())
        assert rep.passed
        assert rep.data["units"] == 2

    def test_contractible_random(self):
        rng = random.Random(131)
        for _ in range(8):
            rep = verify_contractible_2(PicardModel2(random_complex3(rng, 8)))
            assert rep.passed


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


class TestFaultInjection:
    """Corrupted coded tables, patched in behind the verifiers, must turn
    into failing named checks rather than exceptions or silent passes."""

    def test_incoherent_composition_fails_level_1(self, monkeypatch):
        # Z/3 -> 0 with b - a in place of a + b: the square still has one
        # solution u = a_s + a_t per pair, but these no longer compose
        tables = point_models._tables_1

        def subtracting(model):
            A, B, lam = tables(model)
            A.table = tuple(tuple((b - a) % 3 for b in range(3))
                            for a in range(3))
            return A, B, lam

        T = FgAbGroup.trivial()
        model = PicardModel1(Complex2(Z3, T, GroupHom.zero(Z3, T)))
        monkeypatch.setattr(point_models, "_tables_1", subtracting)
        rep = verify_contractible_1(model)
        assert _check(rep, "exactly one unit morphism per ordered pair").passed
        coherence = _check(rep, "composition of unique morphisms is coherent")
        assert not coherence.passed
        assert coherence.witness

    def test_incoherent_vertical_composition_fails_level_2(self, monkeypatch):
        # Z/3 -> 0 -> 0 with every element its own inverse: the three
        # parallel unit 1-morphisms (0, theta) no longer compose vertically
        tables = point_models._tables_2

        def self_inverse(model):
            A, B, C, delta, lam = tables(model)
            A.inverse = tuple(range(A.order))
            return A, B, C, delta, lam

        T = FgAbGroup.trivial()
        model = PicardModel2(Complex3(Z3, T, T, GroupHom.zero(Z3, T),
                                      GroupHom.zero(T, T)))
        monkeypatch.setattr(point_models, "_tables_2", self_inverse)
        rep = verify_contractible_2(model)
        assert rep.data["unit 1-morphisms"] == 3
        coherence = _check(
            rep, "vertical composition of unique 2-morphisms is coherent")
        assert not coherence.passed
        assert coherence.witness

    def test_missing_canonical_1morphism_fails_named_check(self,
                                                           monkeypatch):
        # swapping lam on Z/2 makes (phi_s - phi_t, 0) miss the fiber of
        # e_s - e_t for every pair of units
        model = model2_example()
        tables = point_models._tables_2

        def swapped(model):
            return (*tables(model)[:4], (1, 0))

        monkeypatch.setattr(point_models, "_tables_2", swapped)
        rep = verify_contractible_2(model)
        connected = _check(
            rep, "every unit pair is connected by a unit 1-morphism")
        assert not connected.passed
        key = (((0,), (1,)), ((0,), (1,)))
        assert connected.witness[0] == key
