import itertools
import json
import random
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from unital.abelian import FgAbGroup, GroupElem, GroupHom, kernel
from unital.cech import cech_nerve, cocycle_of_unit
from unital.covers import point_cover
from unital.complexes import Complex, homology, unit_complex_1
from unital import coded, point_models
from unital.cli import main
from unital.record import _group_law
from unital.reporting import run
from unital.specfile import parse_spec
from unital.point_models import (
    enumerate_units_1,
    enumerate_units_2,
    units_and_morphism_count_1,
    verify_contractible_1,
    verify_contractible_2,
)
from unital.verification import CapExceeded, FinitenessError

import oracles
from test_abelian import random_group, random_hom
from test_crossed import _one_entry_moved
from test_complexes import (
    c2_times2, c3_zero_id, drawn_complex, random_complex2, random_complex3)

Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)
Z4 = FgAbGroup.cyclic(4)
Z64 = FgAbGroup.cyclic(64)


model_times2, model2_example = c2_times2, c3_zero_id


def model_zero_z3():
    return Complex((Z3, Z3), (GroupHom.zero(Z3, Z3),))


# brute-force oracles on GroupElem arithmetic, from the definitions; a
# unit enters them as its coordinate pair (e, phi)


def unit_elems(X, unit):
    """The pair (e, phi) as elements: e of the object group, phi of the
    structure group, which are B and A for a 2-term X, C and B else."""
    objects, structure = X.group_at(0), X.group_at(-1)
    return GroupElem(objects, unit[0]), GroupElem(structure, unit[1])


def oracle_unit_morphisms_1(X, s, t):
    """Every a with lam(a) = e_s - e_t whose unit square commutes:
    a_phi(s) + a = a + a + a_phi(t)."""
    (e_s, a_s), (e_t, a_t) = unit_elems(X, s), unit_elems(X, t)
    (A, _), (lam,) = X.terms, X.maps
    return [a for a in A.elements()
            if lam(a) == e_s - e_t and a_s + a == a + a + a_t]


def oracle_unit_1morphisms(X, s, t):
    """Every (f, theta) with lam(f) = e_s - e_t and theta filling the
    square: delta(theta) = f + phi_t - phi_s."""
    (e_s, phi_s), (e_t, phi_t) = unit_elems(X, s), unit_elems(X, t)
    (A, B, _), (delta, lam) = X.terms, X.maps
    return [(f, theta) for f in B.elements() if lam(f) == e_s - e_t
            for theta in A.elements()
            if delta(theta) == f + phi_t - phi_s]


def oracle_unit_2morphisms(X, m1, m2):
    """Every gamma with delta(gamma) = f_1 - f_2 whose two pastings agree:
    (gamma + gamma) + theta_2 = theta_1 + gamma."""
    (f1, theta1), (f2, theta2) = m1, m2
    A, delta = X.terms[0], X.maps[0]
    return [g for g in A.elements()
            if delta(g) == f1 - f2 and g + g + theta2 == theta1 + g]


def tensor(X, s, t):
    """The tensor of units in the strict model, the pointwise sum: its
    structure morphism is the five-arrow composite, which collapses to
    phi(s) + phi(t)."""
    (e_s, phi_s), (e_t, phi_t) = unit_elems(X, s), unit_elems(X, t)
    return (e_s + e_t).coords, (phi_s + phi_t).coords


class TestSaavedraUnits:
    def test_times2_units(self):
        units = enumerate_units_1(model_times2())
        assert units == [((0,), (0,)), ((2,), (1,))]

    def test_zero_map_units_are_kernel(self):
        units = enumerate_units_1(model_zero_z3())
        assert units == [((0,), (0,)), ((0,), (1,)), ((0,), (2,))]

    def test_trivial_A(self):
        m = Complex((FgAbGroup.trivial(), Z4),
                    (GroupHom.zero(FgAbGroup.trivial(), Z4),))
        assert enumerate_units_1(m) == [((0,), ())]

    def test_membership_enforced(self):
        # a pair enters the library from outside only through J, which
        # refuses it unless lam(phi) = e
        m, N = model_times2(), cech_nerve(point_cover())
        for pair in [((1,), (0,)), ((0,), (1,)), ((2,), (0,))]:
            with pytest.raises(ValueError,
                               match=r"^not a unit: lam\(phi\) != e$"):
                cocycle_of_unit(m, pair, N)
        assert not any(cocycle_of_unit(m, ((0,), (0,)), N))

    def test_infinite_guard(self):
        G = FgAbGroup.free(1)
        m = Complex((G, G), (GroupHom.identity(G),))
        # lam's units are finite at level 2, but the input as a whole is not
        m2 = Complex((G, Z2, Z2),
                     (GroupHom.zero(G, Z2), GroupHom.identity(Z2)))
        for scan, X in [(enumerate_units_1, m), (units_and_morphism_count_1, m),
                        (verify_contractible_1, m), (enumerate_units_2, m2)]:
            with pytest.raises(FinitenessError,
                               match="point-model enumeration needs finite"):
                scan(X)


class TestUnitMorphisms1:
    def test_units_command_builds_the_coded_tables_once(self, monkeypatch):
        calls, tables = [], point_models._tables
        monkeypatch.setattr(point_models, "_tables",
                            lambda X: calls.append(X) or tables(X))
        report = run("units", parse_spec(json.dumps(
            {"kind": "complex2", "groups": {"A": {"inv": [2]},
                                            "B": {"inv": [4]}},
             "maps": {"lambda": [[2]]}})))
        assert report.passed and len(calls) == 1
        m = model_times2()
        assert report.data["units"] == enumerate_units_1(m)
        assert report.data["unique_morphisms"] == \
            units_and_morphism_count_1(m)[1]

    def test_doubling_complex(self):
        m = model_times2()
        s, t = enumerate_units_1(m)
        (u,) = oracle_unit_morphisms_1(m, s, t)
        assert u.coords == (1,)
        assert units_and_morphism_count_1(m)[1] == 4

    def test_identity(self):
        m = model_times2()
        s = enumerate_units_1(m)[1]
        (u,) = oracle_unit_morphisms_1(m, s, s)
        assert u.coords == (0,)

    def test_zero_model(self):
        m = model_zero_z3()
        units = enumerate_units_1(m)
        s = units[1]  # (0, 1)
        t = units[2]  # (0, 2)
        (u,) = oracle_unit_morphisms_1(m, s, t)
        assert u.coords == (2,)

    def test_exhaustive_uniqueness(self):
        # the unique morphism is a_phi(s) - a_phi(t), the one the coded
        # count tests, and the count is every ordered pair
        rng = random.Random(101)
        for _ in range(15):
            m = random_complex2(rng, 12)
            units = enumerate_units_1(m)
            for s, t in itertools.product(units, repeat=2):
                assert oracle_unit_morphisms_1(m, s, t) == \
                    [unit_elems(m, s)[1] - unit_elems(m, t)[1]]
            assert units_and_morphism_count_1(m)[1] == len(units) ** 2

    def test_morphism_sets_and_count(self):
        rng = random.Random(105)
        for _ in range(10):
            m = random_complex2(rng, 12)
            assert units_and_morphism_count_1(m)[1] == m.terms[0].order() ** 2

    def test_morphism_to_canonical_is_a_phi(self):
        rng = random.Random(103)
        for _ in range(10):
            m = random_complex2(rng, 12)
            units = enumerate_units_1(m)
            can = units[0]  # (0, 0), first in lexicographic order
            assert can == ((0,) * m.terms[1].ngens, (0,) * m.terms[0].ngens)
            for s in units:
                assert oracle_unit_morphisms_1(m, s, can) == \
                    [unit_elems(m, s)[1]]


class TestTensor1:
    def test_self_tensor(self):
        m = model_times2()
        s = enumerate_units_1(m)[1]  # (2, 1)
        assert tensor(m, s, s) == ((0,), (0,))

    def test_canonical_is_neutral(self):
        m = model_zero_z3()
        units = enumerate_units_1(m)
        for s in units:
            assert tensor(m, s, units[0]) == tensor(m, units[0], s) == s

    def test_z3_example(self):
        m = model_zero_z3()
        units = enumerate_units_1(m)
        assert tensor(m, units[1], units[2]) == ((0,), (0,))

    def test_sum_of_units_is_a_unit(self):
        rng = random.Random(109)
        for m in [random_complex2(rng, 9) for _ in range(5)] + \
                [random_complex3(rng, 8) for _ in range(5)]:
            scan = enumerate_units_1 if len(m.terms) == 2 \
                else enumerate_units_2
            units = scan(m)
            for s, t in itertools.product(units, repeat=2):
                assert tensor(m, s, t) in units

    def test_tensor_functorial_on_morphisms(self):
        # unique morphism (s (x) s2 -> t (x) t2) is the sum of the uniques
        rng = random.Random(107)
        for _ in range(10):
            m = random_complex2(rng, 9)
            units = enumerate_units_1(m)
            for s, t, s2, t2 in itertools.product(units[:4], repeat=4):
                (u1,) = oracle_unit_morphisms_1(m, s, t)
                (u2,) = oracle_unit_morphisms_1(m, s2, t2)
                assert oracle_unit_morphisms_1(
                    m, tensor(m, s, s2), tensor(m, t, t2)) == [u1 + u2]


class TestContractible1:
    def test_times2(self):
        rep = verify_contractible_1(model_times2())
        assert rep.passed
        assert rep.data["units"] == 2
        assert rep.data["morphisms"] == 4

    def test_point(self):
        T = FgAbGroup.trivial()
        rep = verify_contractible_1(Complex((T, T), (GroupHom.zero(T, T),)))
        assert rep.passed and rep.data["units"] == 1

    def test_zero_z3(self):
        rep = verify_contractible_1(model_zero_z3())
        assert rep.passed and rep.data["morphisms"] == 9

    def test_coherence_triples_count_against_max_states(self):
        # the charge still counts the |A|^3 = 512 coherence triples, which
        # the scan no longer visits: it checks the group law of A instead
        m = Complex((FgAbGroup.cyclic(8), Z2),
                    (GroupHom.zero(FgAbGroup.cyclic(8), Z2),))
        with pytest.raises(CapExceeded, match="512"):
            verify_contractible_1(m, max_states=511)
        assert verify_contractible_1(m, max_states=512).passed

    def test_iso_class_count_matches_unit_complex(self):
        rng = random.Random(109)
        for _ in range(10):
            X = random_complex2(rng, 12)
            rep = verify_contractible_1(X)
            assert rep.passed  # one iso class
            U, _ = unit_complex_1(X)
            assert homology(U, 0).is_trivial


class TestJKUnits:
    def test_example_units(self):
        units = enumerate_units_2(model2_example())
        assert units == [((0,), (0,)), ((1,), (1,))]

    def test_trivial_C_units_are_kernel(self):
        X = Complex((Z2, Z4, FgAbGroup.trivial()),
                    (GroupHom(Z2, Z4, [[2]]),
                     GroupHom.zero(Z4, FgAbGroup.trivial())))
        units = enumerate_units_2(X)
        assert len(units) == 4 and {e for e, _ in units} == {()}

    def test_trivial_B(self):
        X = Complex((Z2, FgAbGroup.trivial(), Z2),
                    (GroupHom.zero(Z2, FgAbGroup.trivial()),
                     GroupHom.zero(FgAbGroup.trivial(), Z2)))
        units = enumerate_units_2(X)
        assert units == [((0,), ())]

    def test_unit_1morphisms_example(self):
        model = model2_example()
        units = enumerate_units_2(model)
        ms = oracle_unit_1morphisms(model, units[0], units[1])
        assert sorted((f.coords, theta.coords) for f, theta in ms) == \
            [((1,), (0,)), ((1,), (1,))]
        # the coded per-pair listing of the oracles finds the same pairs
        (A, B, C), (delta, lam) = point_models._tables(model)
        pair = [(C.index(e), B.index(phi)) for e, phi in units]
        assert [(B.coords(f), A.coords(theta)) for f, theta in
                oracles.unit_1morphism_lister(B, C, delta, lam)(*pair)] == \
            [((1,), (0,)), ((1,), (1,))]

    def test_unit_2morphism_example(self):
        X = model2_example()
        units = enumerate_units_2(X)
        m1, m2 = oracle_unit_1morphisms(X, units[0], units[1])
        (g,) = oracle_unit_2morphisms(X, m1, m2)
        assert g.coords == (1,)

    def test_identity_2morphism(self):
        X = model2_example()
        units = enumerate_units_2(X)
        m1 = oracle_unit_1morphisms(X, units[0], units[1])[0]
        (g,) = oracle_unit_2morphisms(X, m1, m1)
        assert not any(g.coords)

    def test_sigma_orientation_pins_gamma(self):
        # solve the pasting equation exhaustively; the unique solution must
        # be theta_1 - theta_2, never the opposite sign when they differ
        rng = random.Random(113)
        for _ in range(10):
            X = random_complex3(rng, 9)
            units = enumerate_units_2(X)
            for s, t in itertools.product(units[:3], repeat=2):
                ms = oracle_unit_1morphisms(X, s, t)
                for m1, m2 in itertools.product(ms[:4], repeat=2):
                    assert oracle_unit_2morphisms(X, m1, m2) == [m1[1] - m2[1]]

    def test_theta_solvability_identity(self):
        rng = random.Random(127)
        for _ in range(8):
            X = random_complex3(rng, 9)
            units = enumerate_units_2(X)
            for s, t in itertools.product(units[:3], repeat=2):
                ms = oracle_unit_1morphisms(X, s, t)
                for (f1, theta1), (f2, theta2) in \
                        itertools.product(ms[:5], repeat=2):
                    assert X.maps[0](theta1 - theta2) == f1 - f2


class TestTensor2AndContractible2:
    def test_tensor_example(self):
        X = model2_example()
        units = enumerate_units_2(X)
        u = units[1]
        assert tensor(X, u, u) == ((0,), (0,))
        assert tensor(X, u, units[0]) == u

    def test_contractible_example(self):
        rep = verify_contractible_2(model2_example())
        assert rep.passed
        assert rep.data["units"] == 2

    def test_contractible_random(self):
        rng = random.Random(131)
        for _ in range(8):
            rep = verify_contractible_2(random_complex3(rng, 8))
            assert rep.passed


def direct_enumerate_units_2(X):
    """The units of X read off the coded tables of all three terms: the
    oracle of ``enumerate_units_2``, which takes the level-1 units of
    lam."""
    (_, B, C), (_, lam) = point_models._tables(X)
    return list(map(point_models._pairs(C, B),
                    point_models._coded_units(B, lam)))


class TestUnits2FromLevelOne:
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_equals_the_direct_oracle(self, rng, free):
        X = drawn_complex(rng, 3, free)
        try:
            want = direct_enumerate_units_2(X)
        except FinitenessError:
            with pytest.raises(FinitenessError,
                               match="point-model enumeration needs finite"):
                enumerate_units_2(X)
        else:
            assert enumerate_units_2(X) == want

    def test_reads_the_units_of_lam(self, monkeypatch):
        seen, level1 = [], point_models.enumerate_units_1
        monkeypatch.setattr(point_models, "enumerate_units_1",
                            lambda X: seen.append(X) or level1(X))
        X = Complex((Z2, Z4, Z2),
                    (GroupHom(Z2, Z4, [[2]]), GroupHom(Z4, Z2, [[1]])))
        assert enumerate_units_2(X) == level1(Complex(X.terms[1:],
                                                      X.maps[1:]))
        assert seen == [Complex(X.terms[1:], X.maps[1:])]


class TestLevel2Reduction:
    """The translation argument behind ``verify_contractible_2``, checked
    against the brute-force oracles: the unit 1-morphisms s -> t are
    (delta(theta) + phi_s - phi_t, theta), one per theta, and every
    hom-groupoid is the unit groupoid of delta."""

    def test_every_pair_and_triple_matches_the_oracles(self):
        rng = random.Random(139)
        for _ in range(10):
            X = random_complex3(rng, 8)
            rep = verify_contractible_2(X)
            assert rep.passed
            (A, B, C), (delta, lam) = point_models._tables(X)
            listing = oracles.unit_1morphism_lister(B, C, delta, lam)
            units = enumerate_units_2(X)
            parallel = 0
            for s, t in itertools.product(units, repeat=2):
                ms = oracle_unit_1morphisms(X, s, t)
                listed = listing((C.index(s[0]), B.index(s[1])),
                                 (C.index(t[0]), B.index(t[1])))
                assert [(f.coords, theta.coords) for f, theta in ms] == \
                    [(B.coords(f), A.coords(theta)) for f, theta in listed]
                shift = GroupElem(X.terms[1], s[1]) - \
                    GroupElem(X.terms[1], t[1])
                assert sorted((f.coords, theta.coords) for f, theta in ms) \
                    == sorted(((X.maps[0](theta) + shift).coords, theta.coords)
                              for theta in X.terms[0].elements())
                gamma = [[oracle_unit_2morphisms(X, m1, m2) for m2 in ms]
                         for m1 in ms]
                for (_, theta1), row in zip(ms, gamma):
                    assert row == [[theta1 - theta2] for _, theta2 in ms]
                parallel += len(ms) ** 2
                # vertical composition on every triple, not a sample
                n = range(len(ms))
                assert all(gamma[i][j][0] + gamma[j][k][0] == gamma[i][k][0]
                           for i in n for j in n for k in n)
            assert parallel == (len(units) * A.order) ** 2
            assert _check(rep, "exactly one unit 2-morphism per parallel "
                               "pair").witness == f"{parallel} parallel pairs"

    def test_dropped_theta_fails_the_2morphism_check(self, monkeypatch):
        # Z/2 -2-> Z/4 -1-> Z/2: theta = 1 is the whole delta fiber over 2,
        # and moving delta(1) to 1 drops it: delta's graph leaves ker lam
        # and delta is no longer additive, and the witness names both
        X = Complex((Z2, Z4, Z2),
                    (GroupHom(Z2, Z4, [[2]]), GroupHom(Z4, Z2, [[1]])))
        terms, (delta, lam) = point_models._tables(X)
        assert delta == [0, 2]
        monkeypatch.setattr(point_models, "_tables",
                            lambda X: (terms, ([0, 1], lam)))
        rep = verify_contractible_2(X)
        pairs = _check(rep, "exactly one unit 2-morphism per parallel pair")
        assert not pairs.passed
        assert pairs.witness == [("lam delta = 0", 1),
                                 ("delta is additive", (1, 1))]
        assert [c.name for c in rep.failures] == [pairs.name]
        # the listing of the oracles misses every unit 1-morphism with
        # theta = 1, which no longer fills the square
        _, _, unlisted, _ = oracles.level2_pair_listing(*terms, [0, 1], lam)
        assert len(unlisted) == 16


ORDERS_TO_64 = [(), (2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (9,),
                (3, 3), (12,), (2, 6), (16,), (2, 8), (4, 4), (2, 2, 2),
                (27,), (32,), (2, 16), (4, 8), (2, 2, 8), (64,), (8, 8),
                (4, 16), (2, 32)]


@st.composite
def complexes3_to_64(draw):
    """A 3-term complex with every term of order at most 64: lam drawn
    first, and delta factored through its kernel."""
    rng = draw(st.randoms(use_true_random=False))
    A, B, C = (FgAbGroup(draw(st.sampled_from(ORDERS_TO_64)))
               for _ in range(3))
    lam = random_hom(rng, B, C)
    K, incl = kernel(lam)
    return Complex((A, B, C), (incl.compose(random_hom(rng, A, K)), lam))


LEVEL2_CHECKS = ("unit set nonempty",
                 "every unit pair is connected by a unit 1-morphism",
                 "exactly one unit 2-morphism per parallel pair",
                 "vertical composition of unique 2-morphisms is coherent")


def _listed_checks(tables):
    """The status of each check of ``verify_contractible_2`` by the per-pair
    listing of the oracles, with the witness of each that passes: the
    oracle that the hypotheses of the translation argument replace.  The
    2-morphisms of delta come from the pair scan of the oracles, and
    coherence from their triple scan."""
    (A, B, C), (delta, lam) = tables
    units, unconnected, unlisted, parallel = oracles.level2_pair_listing(
        A, B, C, delta, lam)
    _, pairs, _ = oracles.unit_pair_scan(A, B, delta)
    coherence = oracles.coherence_triple_failures(
        A.table, A.inverse, B.inverse, [(a,) * B.order for a in A.elements()],
        sorted((delta[a], a) for a in A.elements()))
    return [(bool(units), f"{len(units)} units"), (not unconnected, None),
            (not (unlisted or pairs), f"{parallel} parallel pairs"),
            (not coherence, None)]


def _checks_of(report):
    """The status of each check of a level-2 report, with the witness of
    each that passes, in ``LEVEL2_CHECKS`` order."""
    assert [c.name for c in report.checks] == list(LEVEL2_CHECKS)
    return [(c.passed, c.witness) if c.passed else (False, None)
            for c in report.checks]


def _moved(array, size):
    """Each copy of the array with one entry moved to another of 0..size-1,
    named by its position and new value."""
    for x, was in enumerate(array):
        for y in range(size):
            if y != was:
                yield (x, y), array[:x] + [y] + array[x + 1:]


def _associative_through_1():
    """Every table on 0..3 with identity 0 and two-sided inverses, each
    element's least inverse taken, that passes ``record._group_law`` on
    Z/4's one generator 1 but not with every element a generator: it is
    not associative, and 1 does not generate it, which Light's test
    through 1 needs.  (x 1) y = x (1 y), the part of that law through 1,
    is tested first only because it skips most of the 4^9 tables fast."""
    rows = list(itertools.product(range(4), repeat=3))
    for r1, r2, r3 in itertools.product(rows, repeat=3):
        T = ((0, 1, 2, 3), (1, *r1), (2, *r2), (3, *r3))
        through = itemgetter(*T[1])
        if any(T[row[1]] != through(row) for row in T):
            continue
        inverse = tuple(next((b for b, ab in enumerate(row)
                              if ab == 0 == T[b][a]), None)
                        for a, row in enumerate(T))
        if None not in inverse and \
                _group_law(T, 0, inverse, (1,)) is None and \
                _group_law(T, 0, inverse, range(4)):
            yield T, inverse


def _corrupted_tables():
    """(name, complex, coded tables) for every corruption: the tables of
    ``TestFaultInjection`` at level 2, and each complex below with one
    entry of lam, of delta or of B's table or inverse array moved.  The
    complexes have elements of order 3 and 4, so a sign shows, and a delta
    into Z/2 x Z/2 whose moved entries are homomorphisms that lam does not
    kill."""
    T = FgAbGroup.trivial()
    Z3zero = Complex((Z3, T, T), (GroupHom.zero(Z3, T), GroupHom.zero(T, T)))
    tables = point_models._tables
    (A, B, C), maps = tables(Z3zero)
    A.inverse = tuple(range(3))
    yield "self-inverse A", Z3zero, ((A, B, C), maps)
    (A, B, C), maps = tables(Z3zero)
    A.table = tuple(tuple((b - a) % 3 for b in range(3)) for a in range(3))
    yield "subtracting A", Z3zero, ((A, B, C), maps)
    terms, (delta, _) = tables(model2_example())
    yield "swapped lam", model2_example(), (terms, (delta, [1, 0]))
    Z4zero = Complex((Z4, Z4, Z4), (GroupHom.zero(Z4, Z4),
                                    GroupHom.zero(Z4, Z4)))
    for table, inverse in _associative_through_1():
        (A, B, C), maps = tables(Z4zero)
        B.table, B.inverse = table, inverse
        yield f"B through 1: {table}", Z4zero, ((A, B, C), maps)
    V4 = FgAbGroup.from_divisors(2, 2)
    for name, X in [
            ("Z/2 -0-> Z/2 -1-> Z/2", model2_example()),
            ("Z/2 -2-> Z/4 -1-> Z/2",
             Complex((Z2, Z4, Z2), (GroupHom(Z2, Z4, [[2]]),
                                    GroupHom(Z4, Z2, [[1]])))),
            ("Z/3 -1-> Z/3 -0-> Z/3",
             Complex((Z3, Z3, Z3), (GroupHom.identity(Z3),
                                    GroupHom.zero(Z3, Z3)))),
            ("Z/4 -2-> Z/4 -1-> Z/2",
             Complex((Z4, Z4, Z2), (GroupHom(Z4, Z4, [[2]]),
                                    GroupHom(Z4, Z2, [[1]])))),
            ("Z/4 -0-> Z/4 -1-> Z/4",
             Complex((Z4, Z4, Z4), (GroupHom.zero(Z4, Z4),
                                    GroupHom.identity(Z4)))),
            ("Z/2 -(1,0)-> Z/2 x Z/2 -(0,1)-> Z/2",
             Complex((Z2, V4, Z2), (GroupHom(Z2, V4, [[1], [0]]),
                                    GroupHom(V4, Z2, [[0, 1]]))))]:
        (A, B, C), (delta, lam) = tables(X)
        for at, moved in _moved(lam, C.order):
            yield f"{name}: lam{at}", X, ((A, B, C), (delta, moved))
        for at, moved in _moved(delta, B.order):
            yield f"{name}: delta{at}", X, ((A, B, C), (moved, lam))
        n = B.order
        for a, b, x in itertools.product(range(n), [*range(n), None],
                                         range(n)):
            if x != (B.table[a][b] if b is not None else B.inverse[a]):
                yield (f"{name}: B{(a, b, x)}", X,
                       ((A, _one_entry_moved(B, a, b, x), C), (delta, lam)))


class TestLevel2Translation:
    """``verify_contractible_2`` checks the hypotheses of the translation
    argument where it once listed the unit 1-morphisms of every unit pair;
    that listing, kept in the oracles, is the reference."""

    @settings(max_examples=100, deadline=None)
    @given(complexes3_to_64())
    @example(Complex((Z64, Z64, Z64), (GroupHom.identity(Z64),
                                       GroupHom.zero(Z64, Z64))))
    @example(Complex((Z4, Z4, Z4), (GroupHom.zero(Z4, Z4),
                                    GroupHom.identity(Z4))))
    def test_agrees_with_the_pair_listing(self, X):
        # the Z/4 example has units lying over e of order 4, where a shift
        # (phi_c - phi_s, 0) taken the wrong way lies over -e_s
        assert _checks_of(verify_contractible_2(X)) == \
            _listed_checks(point_models._tables(X))

    def test_every_corruption_the_listing_fails_fails_here(self,
                                                           monkeypatch):
        # and the disagreements are named: the listing passes some tables
        # of B that are not a group, mostly with one inverse moved, whose
        # first failed hypothesis here is the group law of B; and the pair
        # scan finds one solution per pair on the subtracting A, which
        # fails the group law of A here
        missed, stricter, cases = [], [], 0
        for name, X, tables in _corrupted_tables():
            monkeypatch.setattr(point_models, "_tables", lambda X: tables)
            report = verify_contractible_2(X)
            new = [passed for passed, _ in _checks_of(report)]
            listed = [passed for passed, _ in _listed_checks(tables)]
            missed += [(name, check) for check, n, o in
                       zip(LEVEL2_CHECKS, new, listed) if n and not o]
            stricter += [(name, check.name, check.witness[0][0])
                         for check, n, o in zip(report.checks, new, listed)
                         if o and not n]
            cases += 1
        assert cases == 389
        assert missed == []
        assert stricter[0] == ("subtracting A", LEVEL2_CHECKS[2],
                               "A is a group"), stricter
        moves = stricter[1:]
        assert {(name.split(": ")[-1][0], hypothesis)
                for name, _, hypothesis in moves} == \
            {("B", "B is a group")}, stricter
        assert len({name for name, _, _ in moves}) == 23
        assert len(moves) == 29  # 6 of the 23 fail both checks here


def _level_2_states(X):
    """|B|^2 |A| + |A|^2 (|A| + |ker delta|), on the groups of X: |A| unit
    1-morphisms listed for each of the |B|^2 unit pairs, a ker(delta)
    fiber per pair of delta's units, and the |A|^3 coherence triples: the
    work of the listing and the scans that the charge still counts,
    though the hypotheses of the translation and cancellation arguments
    are checked in their place."""
    a, b = (G.order() for G in X.terms[:2])
    return b ** 2 * a + a ** 2 * (a + kernel(X.maps[0])[0].order())


class TestContractible2Charge:
    @staticmethod
    def complexes():
        rng = random.Random(137)
        onto_z2 = GroupHom(Z4, Z2, [[1]])
        return [model2_example(),  # ker delta = A
                # 0 < ker delta < A
                Complex((Z4, Z4, Z2), (GroupHom(Z4, Z4, [[2]]), onto_z2)),
                # ker delta = 0
                Complex((Z2, Z4, Z2), (GroupHom(Z2, Z4, [[2]]), onto_z2))
                ] + [random_complex3(rng, 8) for _ in range(6)]

    def test_refuses_below_the_exact_count_and_passes_at_it(self):
        kernels = set()
        for X in self.complexes():
            n = _level_2_states(X)
            with pytest.raises(CapExceeded):
                verify_contractible_2(X, max_states=n - 1)
            assert verify_contractible_2(X, max_states=n).passed
            kernels.add((X.terms[0].order(), kernel(X.maps[0])[0].order()))
        assert {(2, 2), (4, 2), (2, 1)} <= kernels

    def test_refusal_builds_nothing_and_no_fiber_is_built(self,
                                                          monkeypatch):
        # a refusal builds no unit and checks no hypothesis
        called = []
        for module, name in ((point_models, "_coded_units"),
                             (coded, "_coded_units"),
                             (coded, "_fibers"),
                             (coded, "_group_law")):
            monkeypatch.setattr(
                module, name, lambda *args, name=name,
                real=getattr(module, name): called.append(name) or
                real(*args))
        X = model2_example()
        with pytest.raises(CapExceeded):
            verify_contractible_2(X, max_states=_level_2_states(X) - 1)
        assert called == []
        verify_contractible_2(X, max_states=_level_2_states(X))
        # the units of lam and of delta, and the group laws of B and of A,
        # each once; the check of delta reads no fiber
        assert sorted(called) == ["_coded_units"] * 2 + ["_group_law"] * 2


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


class TestFaultInjection:
    """Corrupted coded tables, patched in behind the verifiers, must turn
    into failing named checks rather than exceptions or silent passes."""

    def test_incoherent_composition_fails_level_1(self, monkeypatch):
        # Z/3 -> 0 with b - a in place of a + b: the square still has one
        # solution u = a_s + a_t per pair, but these no longer compose, and
        # the pair check, which rests on the group law, fails with it
        tables = point_models._tables

        def subtracting(X):
            (A, B), maps = tables(X)
            A.table = tuple(tuple((b - a) % 3 for b in range(3))
                            for a in range(3))
            return (A, B), maps

        T = FgAbGroup.trivial()
        model = Complex((Z3, T), (GroupHom.zero(Z3, T),))
        monkeypatch.setattr(point_models, "_tables", subtracting)
        rep = verify_contractible_1(model)
        pairs = _check(rep, "exactly one unit morphism per ordered pair")
        assert pairs.witness == [("A is a group", ("identity", 1)),
                                 ("A is commutative", (0, 1))]
        coherence = _check(rep, "composition of unique morphisms is coherent")
        assert not coherence.passed
        assert coherence.witness == [("identity", 1)]
        # the pair scan of the oracles finds the one solution per pair
        (A, B), (lam,) = subtracting(model)
        assert oracles.unit_pair_scan(A, B, lam)[1:] == ([], 9)

    # A is Z/3 with a table that is not a commutative group, but on which
    # u = a_s - a_t passes the square of every pair: each element its own
    # inverse, and not associative; and 1 x = 1, 2 x = 2 (x != 0), which
    # is associative but has no inverses
    NOT_A_COMMUTATIVE_GROUP = [
        ("self-inverse", ((0, 1, 2), (1, 0, 2), (2, 1, 0)), (0, 1, 2),
         [["A is a group", ["associativity", 2, 1]],
          ["A is commutative", [2, 1]]]),
        ("left-absorbing", ((0, 1, 2), (1, 1, 1), (2, 2, 2)), (0, 2, 1),
         [["A is a group", ["inverse", 1]], ["A is commutative", [2, 1]]])]

    @pytest.mark.parametrize("name, table, inverse, witness",
                             NOT_A_COMMUTATIVE_GROUP,
                             ids=[c[0] for c in NOT_A_COMMUTATIVE_GROUP])
    def test_units_fails_on_a_table_that_is_not_a_commutative_group(
            self, monkeypatch, tmp_path, capsys, name, table, inverse,
            witness):
        # the uniqueness check of units can fail, where the loop that
        # tried only u = a_s - a_t passed every pair
        tables = point_models._tables

        def corrupted(X):
            (A, B), maps = tables(X)
            A.table, A.inverse = table, inverse
            return (A, B), maps

        monkeypatch.setattr(point_models, "_tables", corrupted)
        path = tmp_path / "in.json"
        path.write_text(json.dumps({
            "kind": "complex2", "groups": {"A": {"inv": [3]},
                                           "B": {"inv": []}},
            "maps": {"lambda": []}}))
        assert main(["units", "--in", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [(c["name"], c["status"], c["witness"])
                for c in report["checks"]] == [
            ("unit count equals |A|", "pass", 3),
            ("one morphism per ordered pair", "fail", witness)]
        assert report["data"]["unique_morphisms"] is None
        (A, B), (lam,) = corrupted(parse_spec(path.read_text()).payload)
        assert oracles.unit_pair_loop(A, B, lam) == 9

    def test_incoherent_vertical_composition_fails_level_2(self, monkeypatch):
        # Z/3 -> 0 -> 0 with every element its own inverse: the three
        # parallel unit 1-morphisms (0, theta) no longer compose vertically
        tables = point_models._tables

        def self_inverse(X):
            (A, B, C), maps = tables(X)
            A.inverse = tuple(range(A.order))
            return (A, B, C), maps

        T = FgAbGroup.trivial()
        model = Complex((Z3, T, T),
                        (GroupHom.zero(Z3, T), GroupHom.zero(T, T)))
        monkeypatch.setattr(point_models, "_tables", self_inverse)
        rep = verify_contractible_2(model)
        assert [c.name for c in rep.failures] == [
            "exactly one unit 2-morphism per parallel pair",
            "vertical composition of unique 2-morphisms is coherent"]
        coherence = _check(
            rep, "vertical composition of unique 2-morphisms is coherent")
        assert not coherence.passed
        assert coherence.witness

    def test_level_2_fails_on_a_b_that_one_generator_misses(self,
                                                            monkeypatch):
        # Z/4 -0-> Z/4 -0-> Z/4 with each such table as B: the group law
        # of B through 1 holds, so only the generation check that lam's
        # unit check runs with it sees that B is not a group, where the
        # group law alone on B's generators passed all four checks
        tables = point_models._tables
        model = Complex((Z4, Z4, Z4), (GroupHom.zero(Z4, Z4),
                                       GroupHom.zero(Z4, Z4)))
        found = list(_associative_through_1())
        assert len(found) == 40
        assert found[0] == (((0, 1, 2, 3), (1, 0, 2, 3), (2, 2, 0, 0),
                             (3, 3, 0, 0)), (0, 1, 2, 2))
        firsts = []
        for table, inverse in found:
            def corrupted(X):
                (A, B, C), maps = tables(X)
                B.table, B.inverse = table, inverse
                return (A, B, C), maps

            monkeypatch.setattr(point_models, "_tables", corrupted)
            rep = verify_contractible_2(model)
            for name in ("every unit pair is connected by a unit 1-morphism",
                         "exactly one unit 2-morphism per parallel pair"):
                check = _check(rep, name)
                assert not check.passed, table
                hypothesis, (kind, a) = check.witness[0]
                assert (hypothesis, kind) == ("B is a group", "generation")
                firsts.append(a)
        assert firsts[:2] == [2, 2]  # in the first, 1 generates {0, 1}

    def test_missing_canonical_1morphism_fails_named_check(self,
                                                           monkeypatch):
        # swapping lam on Z/2 makes (phi_s - phi_t, 0) miss the fiber of
        # e_s - e_t for every pair of units, and lam(0 + 1) = 0 is not
        # lam(0) + lam(1) = 1: the witness names the additivity that failed
        model = model2_example()
        tables = point_models._tables

        def swapped(X):
            coded, (delta, _) = tables(X)
            return coded, (delta, (1, 0))

        monkeypatch.setattr(point_models, "_tables", swapped)
        rep = verify_contractible_2(model)
        connected = _check(
            rep, "every unit pair is connected by a unit 1-morphism")
        assert not connected.passed
        # and the base unit (0, 1) is no longer joined to itself by (0, 0)
        assert connected.witness == [("lam is additive", (0, 1)),
                                     ("every unit lies over its e", (0, 1))]
        assert _check(rep, "exactly one unit 2-morphism per parallel pair"
                      ).witness == connected.witness + [("lam delta = 0", 0)]
        (A, B, C), (delta, lam) = swapped(model)
        _, unconnected, _, _ = oracles.level2_pair_listing(A, B, C, delta, lam)
        assert len(unconnected) == 4  # the listing misses every pair

    def test_fault_injected_contractible_exits_1(self, monkeypatch, tmp_path,
                                                  capsys):
        # the CLI names the failing hypothesis: delta(1) moved to (0, 1),
        # which lam = (0, 1) does not kill, though delta is still additive
        V4 = FgAbGroup.from_divisors(2, 2)
        tables = point_models._tables

        def moved(X):
            terms, (delta, lam) = tables(X)
            return terms, ([delta[0], terms[1].index((0, 1))], lam)

        monkeypatch.setattr(point_models, "_tables", moved)
        path = tmp_path / "in.json"
        path.write_text(json.dumps({
            "kind": "complex3", "groups": {"A": {"inv": [2]},
                                           "B": {"inv": [2, 2]},
                                           "C": {"inv": [2]}},
            "maps": {"delta": [[1], [0]], "lambda": [[0, 1]]}}))
        assert parse_spec(path.read_text()).payload.terms[1] == V4
        assert main(["contractible", "--in", str(path), "--json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["status"], c["witness"]) for c in checks] == [
            ("pass", "4 units"), ("pass", None),
            ("fail", [["lam delta = 0", 1]]), ("pass", None)]
