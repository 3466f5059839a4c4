import itertools
import random
import re
import time
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from unital import cech, coded, point_models
from unital.abelian import (
    FgAbGroup, GroupElem, GroupHom, direct_sum, direct_sum_many, kernel,
    solve, subquotient)
from unital.cech import (
    MAX_CELLS_PER_LEVEL,
    CocycleError,
    Nerve,
    cech_nerve,
    classify_h0,
    cocycle_of_unit,
    torsor_classes,
    total_complex_piece,
    unit_cocycles,
    unit_of_cocycle,
    _group_from_orders,
)
from unital.complexes import Complex, homology, unit_complex_1, unit_complex_2
from unital.covers import Cover, cover_of_parts, point_cover
from unital.crossed import (
    CrossedModule,
    FiniteGroup,
    enumerate_unit_triples,
    h0_group_law,
    verify_crossed_module,
)
from unital.point_models import (
    enumerate_units_1,
    enumerate_units_2,
    verify_contractible_1,
)
from unital.verification import CapExceeded, Report

from constructions import from_images
from oracles import (oracle_circle_nerve, oracle_face, oracle_point_nerve,
                     oracle_torsor_classes)
from test_abelian import killed_by, random_group, random_hom
from test_coded_groups import finite_groups, homs
from test_complexes import (
    MIXED_PRIMES, OracleHomology, c2_times2, c3_zero_id, random_complex2,
    random_complex3, random_free_complex)

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


NERVES = {"point": point_nerve, "circle": circle_nerve, "ring4": ring_nerve}


def _face(nerve, n, i, cell):
    """d_i of a level-n cell, read from the nerve's face table."""
    return nerve.level(n - 1)[nerve.faces(n)[nerve.level(n).index(cell)][i]]


def assert_faces_match_oracle(nerve):
    """The face table holds, for each cell, the positions of the cells the
    cover's own tables give as its faces."""
    assert nerve.faces(0) == ((),) * len(nerve.level(0))
    for n in range(1, 4):
        assert len(nerve.faces(n)) == len(nerve.level(n))
        for cell, faces in zip(nerve.level(n), nerve.faces(n)):
            assert [nerve.level(n - 1)[k] for k in faces] == \
                [oracle_face(nerve.cover, cell, i) for i in range(n + 1)]


def dense_piece(X, nerve):
    """``total_complex_piece`` with its sparse rows written out densely."""
    layouts, matrices = total_complex_piece(X, nerve)
    return layouts, tuple(
        [[row.get(j, 0) for j in range(len(source.orders))] for row in D]
        for source, D in zip(layouts, matrices))


# --------------------------------------------------------------------------
# brute-force oracles on sections: a section over a nerve level is a tuple
# of group elements in cell order


def _all_sections(group, nerve, level):
    return itertools.product(list(group.elements()),
                             repeat=len(nerve.level(level)))


def _pull(nerve, s, level, i):
    """d_i^*: the section over ``level`` whose value at each cell is the
    value of s, a section one level down, at the cell's i-th face."""
    return tuple(s[faces[i]] for faces in nerve.faces(level))


def _add(s, t):
    return tuple(x + y for x, y in zip(s, t))


def _sub(s, t):
    return tuple(x - y for x, y in zip(s, t))


def _keys(*sections):
    return tuple(tuple(x.coords for x in s) for s in sections)


def _decoded(group, coded):
    """Coordinates of a coded section, indices in ``elements()`` order."""
    elems = list(group.elements())
    return tuple(elems[k].coords for k in coded)


def _coboundary_action(nerve, X, a, b, alpha):
    """Re-choose the local section by alpha in A(V_0)."""
    shift = _sub(_pull(nerve, alpha, 1, 0), _pull(nerve, alpha, 1, 1))
    return _add(a, shift), _add(b, tuple(map(X.maps[0], alpha)))


def _torsor_relations(nerve, X, a, b):
    """Whether d0*(a) + d2*(a) = d1*(a) and d0*(b) = d1*(b) + lam(a) hold."""
    return [_add(_pull(nerve, a, 2, 0), _pull(nerve, a, 2, 2))
            == _pull(nerve, a, 2, 1),
            _pull(nerve, b, 1, 0)
            == _add(_pull(nerve, b, 1, 1), tuple(map(X.maps[0], a)))]


def _descent_relations(nerve, X, a, a_phi, b):
    """Whether each of the four relations of a descent datum holds."""
    return _torsor_relations(nerve, X, a, b) + [
        a == _sub(_pull(nerve, a_phi, 1, 0), _pull(nerve, a_phi, 1, 1)),
        tuple(map(X.maps[0], a_phi)) == b]


def unit_cocycle_from_phi(nerve, X, a_phi):
    """The unit cocycle (a, a_phi, b) determined by a_phi in A(V_0)."""
    c = (_sub(_pull(nerve, a_phi, 1, 0), _pull(nerve, a_phi, 1, 1)), a_phi,
         tuple(map(X.maps[0], a_phi)))
    assert all(_descent_relations(nerve, X, *c))
    return c


def _shifted(nerve, X, c, alpha):
    """The cohomologous cocycle after re-choosing sections by alpha."""
    new_a, new_b = _coboundary_action(nerve, X, c[0], c[2], alpha)
    return new_a, _add(c[1], alpha), new_b


def _oracle_unit_cocycles(nerve, X):
    """Oracle: unit_cocycles by brute force on sections, without the state
    cap; representatives as coordinates."""
    cocycles = {}
    for a_phi in _all_sections(X.terms[0], nerve, 0):
        c = unit_cocycle_from_phi(nerve, X, a_phi)
        cocycles[_keys(*c)] = c
    alphas = list(_all_sections(X.terms[0], nerve, 0))
    reps, seen, rep_of = [], set(), {}
    for key in sorted(cocycles):
        if key in seen:
            continue
        orbit = {_keys(*_shifted(nerve, X, cocycles[key], alpha))
                 for alpha in alphas}
        seen |= orbit
        rep_of.update(dict.fromkeys(orbit, min(orbit)))
        reps.append(min(orbit))
    # class orders under the pointwise tensor; alphas[0] is the zero section
    zero = rep_of[_keys(*unit_cocycle_from_phi(nerve, X, alphas[0]))]
    orders = []
    for r in sorted(set(rep_of.values())):
        acc, n = r, 1
        while acc != zero:
            acc = rep_of[_keys(*unit_cocycle_from_phi(
                nerve, X, _add(cocycles[acc][1], cocycles[r][1])))]
            n += 1
        orders.append(n)
    return reps, _group_from_orders(orders)


def _unit_classes(nerve, X, **kwargs):
    """``unit_cocycles`` of X, scanned on its unit complex."""
    return unit_cocycles(nerve, unit_complex_1(X)[0], **kwargs)


class TestNerve:
    def test_point(self):
        N = point_nerve()
        assert [len(N.level(n)) for n in range(4)] == [1, 1, 1, 1]
        assert [N.faces(n) for n in range(4)] == \
            [((),), ((0, 0),), ((0, 0, 0),), ((0, 0, 0, 0),)]

    @pytest.mark.parametrize("name", NERVES)
    def test_face_table_matches_the_cell_oracle(self, name):
        assert_faces_match_oracle(NERVES[name]())

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
        with pytest.raises(ValueError, match=r"target \['U'\]:z is not"):
            cover_of_parts(("U", "V"), split_u, [(("U", "V"), "*", ("U",), "z")])
        N = cech_nerve(cover_of_parts(
            ("U", "V"), split_u, [(("U", "V"), "*", ("U",), "y")]))
        assert _face(N, 1, 1, ((0, 1), "*")) == ((0,), "y")

    @pytest.mark.parametrize("intersections,containments,message", [
        ([(("U", "V"), ("x", "x"))], [],
         r"^component names repeat in \['U', 'V'\]: \['x', 'x'\]$"),
        ([(("U",), ("y", "x", "y"))], [],
         r"^component names repeat in \['U'\]: \['y', 'x', 'y'\]$"),
        # out of a component U n V does not have, or has not at all
        ([(("U", "V"), ("*",))], [(("U", "V"), "x", ("U",), "*")],
         r"^containment source \['U', 'V'\]:x is not a declared component$"),
        ([], [(("U", "V"), "*", ("U",), "*")],
         r"^containment source \['U', 'V'\]:\* is not a declared "
         r"component$"),
        # a face drops one part: not none, not one added, not two
        ([(("U", "V"), ("*",))], [(("U", "V"), "*", ("U", "V"), "*")],
         r"^containment \['U', 'V'\]:\* in \['U', 'V'\] is never consulted: "
         r"\['U', 'V'\] is not \['U', 'V'\] less one part$"),
        ([(("U", "V"), ("*",))], [(("U",), "*", ("U", "V"), "*")],
         r"^containment \['U'\]:\* in \['U', 'V'\] is never consulted: "
         r"\['U', 'V'\] is not \['U'\] less one part$"),
        ([(("U", "V"), ("*",)), (("U", "W"), ("*",)), (("V", "W"), ("*",)),
          (("U", "V", "W"), ("*",))], [(("U", "V", "W"), "*", ("W",), "*")],
         r"^containment \['U', 'V', 'W'\]:\* in \['W'\] is never "
         r"consulted: \['W'\] is not \['U', 'V', 'W'\] less one part$")])
    def test_unconsulted_cover_data_rejected(self, intersections,
                                             containments, message):
        with pytest.raises(ValueError, match=message):
            cover_of_parts(("U", "V", "W"), intersections, containments)

    @pytest.mark.parametrize("parts,intersections,message", [
        (("U",), [((), ("c",))], r"^an intersection names no part$"),
        (("U", "V"), [(("V", "U"), ())],
         r"^declare at least one component of \['U', 'V'\] or omit the set$"),
        (("W", "V", "U"), [(("U", "V", "W"), ("c",))],
         r"^inconsistent table: \['U', 'V', 'W'\] is nonempty but "
         r"\['V', 'W'\] is not declared$")])
    def test_cover_errors_name_the_parts(self, parts, intersections, message):
        with pytest.raises(ValueError, match=message):
            cover_of_parts(parts, intersections)

    def test_containment_indices_past_the_parts_are_value_errors(self):
        with pytest.raises(ValueError,
                           match=r"^bad containment key \{0, 1\} in \{0\}$"):
            Cover(("U",), {}, {(frozenset({0, 1}), "x", frozenset({0})): "y"})

    def test_undeclared_part_names_are_value_errors(self):
        # the error names the part; no bare KeyError escapes
        with pytest.raises(ValueError, match=r"^unknown part 'b'$"):
            cover_of_parts(("a",), [(("a", "b"), ("c",))])
        declared = [(("U", "V"), ("*",))]
        for key, sub, unknown in ((("U", "W"), ("U",), "W"),
                                  (("U", "V"), ("z",), "z")):
            with pytest.raises(ValueError, match=rf"^unknown part '{unknown}'$"):
                cover_of_parts(("U", "V"), declared, [(key, "*", sub, "*")])

    def test_failed_identity_names_its_first_cell(self, monkeypatch):
        # U n V sits in U:x and U n W in U:y, so the two routes from
        # (1, 2, 0) down to its U vertex disagree; a triple intersection
        # puts 82 cells at level 3, so the cap is raised to reach the check
        monkeypatch.setattr(cech, "MAX_CELLS_PER_LEVEL", 82)
        cover = cover_of_parts(
            ("U", "V", "W"),
            [(("U",), ("x", "y")), (("U", "V"), ("*",)),
             (("U", "W"), ("*",)), (("V", "W"), ("*",)),
             (("U", "V", "W"), ("*",))],
            [(("U", "V"), "*", ("U",), "x"), (("U", "W"), "*", ("U",), "y")])
        with pytest.raises(ValueError, match=re.escape(
                "simplicial identity d_0 d_1 = d_0 d_0 fails at "
                "((1, 2, 0), '*')")):
            Nerve(cover)

    def test_faces_drop_indices(self):
        N = circle_nerve()
        cell = ((0, 1), "c")
        assert _face(N, 1, 0, cell)[0] == (1,)
        assert _face(N, 1, 1, cell)[0] == (0,)

    def test_point_and_circle_against_oracles(self):
        for N, (cells, faces), name in (
                (point_nerve(), oracle_point_nerve(), lambda t: ("pt",) * len(t)),
                (circle_nerve(), oracle_circle_nerve(), lambda t: t)):
            for n in range(4):
                assert [name(t) for t, _ in N.level(n)] == cells[n]
            for (n, i), face in faces.items():
                for cell in N.level(n):
                    assert name(_face(N, n, i, cell)[0]) == \
                        face[name(cell[0])]

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
        assert_faces_match_oracle(N)

    def test_many_disjoint_parts_build_fast(self):
        cover = cover_of_parts([f"p{i}" for i in range(64)], [])
        started = time.perf_counter()
        N = cech_nerve(cover)
        assert time.perf_counter() - started < 0.5
        assert [len(N.level(n)) for n in range(4)] == [64] * 4


class TestSections:
    def test_cech_differential_squares_to_zero(self):
        # for X = G -> 0 the composite D0 D-1 is the Cech differential
        # twice, from G(V_0) through G(V_1) to G(V_2)
        G = FgAbGroup.from_divisors(4)
        X = Complex((G, TRIV), (GroupHom.zero(G, TRIV),))
        (_, _, l1), (d_low, d_high) = dense_piece(X, circle_nerve())
        assert any(map(any, d_low))
        assert _zero_mod(_matmul(d_high, d_low), l1.orders)

    def test_pullback_along_faces(self):
        N = circle_nerve()
        s = tuple(GroupElem(Z2, [i % 2]) for i in range(len(N.level(0))))
        p0 = _pull(N, s, 1, 0)
        for k, c in enumerate(N.level(1)):
            assert p0[k] == s[N.level(0).index(oracle_face(N.cover, c, 0))]


class TestTorsorClasses:
    def test_point_nerve_is_cokernel(self):
        rng = random.Random(23)
        for _ in range(8):
            X = random_complex2(rng, 9)
            res = torsor_classes(point_nerve(), X)
            assert res.count == homology(X, 0).order()

    def test_circle_z2_against_oracle(self):
        X = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))
        res = torsor_classes(circle_nerve(), X)
        cells, faces = oracle_circle_nerve()
        oracle = oracle_torsor_classes(cells, faces, (2,), (2,),
                                       lambda a: (0,))
        assert res.count == oracle == 4

    def test_point_z2_against_oracle(self):
        X = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))
        res = torsor_classes(point_nerve(), X)
        cells, faces = oracle_point_nerve()
        oracle = oracle_torsor_classes(cells, faces, (2,), (2,),
                                       lambda a: (0,))
        assert res.count == oracle == 2

    def test_identity_coefficients_one_class(self):
        for N in (point_nerve(), circle_nerve()):
            X = Complex((Z2, Z2), (GroupHom.identity(Z2),))
            assert torsor_classes(N, X).count == 1

    def test_relabeling_invariance(self):
        X = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))
        a = torsor_classes(cech_nerve(circle_cover()), X).count
        b = torsor_classes(cech_nerve(circle_cover(("z", "m", "a"))), X).count
        assert a == b

    def test_coboundary_is_group_action(self):
        N = circle_nerve()
        X = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))
        rng = random.Random(29)
        A, B = X.terms
        a, b, al1, al2 = (tuple(GroupElem(G, [rng.randrange(2)])
                                for _ in N.level(level))
                          for G, level in ((A, 1), (B, 0), (A, 0), (A, 0)))
        a1, b1 = _coboundary_action(N, X, *_coboundary_action(N, X, a, b, al1),
                                    al2)
        a2, b2 = _coboundary_action(N, X, a, b, _add(al1, al2))
        assert _keys(a1, b1) == _keys(a2, b2)


def _filter_torsor_classes(nerve, X):
    """Oracle: the torsor classes by filtering every pair of sections,
    returning the representatives as coordinates."""
    cocycles = {}
    for a in _all_sections(X.terms[0], nerve, 1):
        for b in _all_sections(X.terms[1], nerve, 0):
            if all(_torsor_relations(nerve, X, a, b)):
                cocycles[_keys(a, b)] = (a, b)
    alphas = list(_all_sections(X.terms[0], nerve, 0))
    reps, seen = [], set()
    for key in sorted(cocycles):
        if key in seen:
            continue
        orbit = {_keys(*_coboundary_action(nerve, X, *cocycles[key], alpha))
                 for alpha in alphas}
        seen |= orbit
        reps.append(min(orbit))
    return reps


def _check_coded_scan(N, oracle_nerve, X):
    res = torsor_classes(N, X)
    A, B = X.terms
    assert [(_decoded(A, a), _decoded(B, b))
            for a, b in res.representatives] == _filter_torsor_classes(N, X)
    cells, faces = oracle_nerve
    lam = lambda a: X.maps[0](GroupElem(A, a)).coords  # noqa: E731
    assert res.count == oracle_torsor_classes(
        cells, faces, A.invariant_factors, B.invariant_factors, lam)
    # two ways to one number: torsor classes and |H^0(Tot X)|
    assert res.count == classify_h0(N, X).order()


def _complex_id(X):
    (A, B), (lam,) = X.terms, X.maps
    return f"{A}->{B}:{lam.matrix}"


def _complexes2(groups):
    """Every 2-term complex with both terms from ``groups``."""
    for A, B in itertools.product(groups, repeat=2):
        pools = [killed_by(d, B) for d in A.invariant_factors]
        for images in itertools.product(*pools):
            yield Complex((A, B), (from_images(A, B, images),))


def _complex2(a_factors, b_factors, lam):
    A = FgAbGroup.from_divisors(*a_factors)
    B = FgAbGroup.from_divisors(*b_factors)
    return Complex((A, B), (GroupHom(A, B, lam),))


ORDER_AT_MOST_4 = (TRIV, Z2, Z3, FgAbGroup.cyclic(4),
                   FgAbGroup.from_divisors(2, 2))


class TestCodedTorsorScan:
    @settings(max_examples=40, deadline=None)
    @given(homs(max_order=12))
    def test_point_against_filter_and_oracles(self, lam):
        X = Complex((lam.source, lam.target), (lam,))
        _check_coded_scan(point_nerve(), oracle_point_nerve(), X)

    @pytest.mark.parametrize("X", list(_complexes2((TRIV, Z2))),
                             ids=_complex_id)
    def test_circle_against_filter_and_oracles(self, X):
        # every complex with |A|, |B| <= 2: Z/2 -> Z/2 is 4096 candidates
        _check_coded_scan(circle_nerve(), oracle_circle_nerve(), X)

    def test_cap_refuses_before_any_table(self, monkeypatch):
        X = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))

        def no_tables(G):
            raise AssertionError("coded tables built before the cap check")
        monkeypatch.setattr(coded, "_coded", no_tables)
        with pytest.raises(CapExceeded) as exc:
            torsor_classes(circle_nerve(), X, max_states=4095)
        assert str(exc.value) == "torsor scan needs 4096 states " \
            "(|A|^|V_1| |B|^|V_0|), above the cap 4095"

    def test_sweep_is_charged_class_by_class(self):
        # 4 classes, each swept by the 2^3 coboundaries
        X = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))
        assert len(cech._cocycle_classes(circle_nerve(), X, 32)[0]) == 4
        with pytest.raises(CapExceeded) as exc:
            cech._cocycle_classes(circle_nerve(), X, 31)
        assert str(exc.value) == "coboundary quotient needs 32 states " \
            "(|A|^|V_0| per class swept), above the cap 31"


# Scans whose charge does not come before all of their work, and why;
# every other charged scan is a case of test_charge_comes_first
CHARGED_DURING_THE_WORK = {
    "verify_contractible_2": "codes its tables first, to read |ker delta| "
                             "off delta's image array",
    "_cocycle_classes": "charges its coboundary sweep class by class",
    "classify_h0": "uncharged, as are the unit-complex eliminations "
                   "(ROADMAP item 3)",
    "crossed-units": "runs its unit scan and axiom checks uncharged, "
                     "bounded only by tables.MAX_GROUP_ORDER = 64",
}


def _charged_scans():
    """(name, run(max_states), the charge) of each scan charged up front:
    every charge formula's value on one small input."""
    Z4 = FgAbGroup.cyclic(4)
    onto = Complex((Z4, Z2), (GroupHom(Z4, Z2, [[1]]),))
    level2 = Complex((Z2, Z4, Z2), (GroupHom(Z2, Z4, [[2]]),
                                    GroupHom(Z4, Z2, [[1]])))
    zero2 = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))
    Z3t, Z2t = FiniteGroup.cyclic(3), FiniteGroup.cyclic(2)
    trivial = CrossedModule(Z3t, Z2t, (0, 0, 0),
                            [(g, g) for g in Z3t.elements()])

    def handler(scan, X):
        return lambda cap: scan(Report("scan"), X,
                                SimpleNamespace(max_states=cap))

    return [
        ("_units_1", handler(point_models._units_1, onto), 4 ** 2),  # |A|^2
        ("_units_2", handler(point_models._units_2, level2), 4),  # |B|
        ("verify_contractible_1",
         lambda cap: verify_contractible_1(onto, cap), 4 ** 3),  # |A|^3
        # |A|^|V_1| |B|^|V_0|, with 9 cells at level 1 and 3 at level 0
        ("torsor_classes",
         lambda cap: torsor_classes(circle_nerve(), zero2, cap), 2 ** 12),
        ("unit_cocycles",  # |A|^|V_0|
         lambda cap: unit_cocycles(circle_nerve(),
                                   unit_complex_1(zero2)[0], cap), 2 ** 3),
        ("enumerate_unit_triples",  # |G|^|V_0|
         lambda cap: list(enumerate_unit_triples(trivial, circle_nerve(),
                                                 cap)), 3 ** 3),
    ]


@pytest.mark.parametrize("name, scan, states", [
    pytest.param(*case, id=case[0]) for case in _charged_scans()])
def test_charge_comes_first(monkeypatch, name, scan, states):
    # refused one state below its charge, a scan has built no coded table;
    # at its charge it runs
    assert name not in CHARGED_DURING_THE_WORK
    builds = []
    real = coded.CodedGroup.__init__
    monkeypatch.setattr(coded.CodedGroup, "__init__",
                        lambda self, *args: builds.append(args) or
                        real(self, *args))
    with pytest.raises(CapExceeded, match=f" needs {states} states "):
        scan(states - 1)
    assert builds == []
    scan(states)
    # the spy sees the tables of each abelian scan; the triples read the
    # crossed module's own tables
    assert bool(builds) == (name != "enumerate_unit_triples")


class TestUnitCocycles:
    def test_one_class_point(self):
        classes, group = _unit_classes(point_nerve(), c2_times2())
        assert len(classes) == 1
        assert group.is_trivial

    def test_one_class_circle_z3(self):
        X = Complex((Z3, Z3), (GroupHom.zero(Z3, Z3),))
        classes, group = _unit_classes(circle_nerve(), X)
        assert len(classes) == 1 and group.is_trivial

    def test_trivial_A(self):
        X = Complex((TRIV, Z2), (GroupHom.zero(TRIV, Z2),))
        classes, group = _unit_classes(circle_nerve(), X)
        assert len(classes) == 1 and group.is_trivial
        assert classes[0][1] == (0, 0, 0)  # u = (a_phi, b) is zero

    def test_agreement_with_point_model(self):
        # point-nerve unit classes biject with iso classes of units: both 1
        X = c2_times2()
        classes, _ = _unit_classes(point_nerve(), X)
        rep = verify_contractible_1(X)
        assert len(classes) == 1 and rep.passed


def _check_unit_scan(N, X):
    U, emb = unit_complex_1(X)
    classes, group = unit_cocycles(N, U)
    oracle_classes, oracle_group = _oracle_unit_cocycles(N, X)
    # a coded point u of ker(lam - id) is (a_phi, b) through the embedding
    _, _, _, proj_a, proj_b = direct_sum(*X.terms)
    points = list(map(emb, U.terms[1].elements()))
    assert [(_decoded(X.terms[0], a),
             tuple(proj_a(points[k]).coords for k in u),
             tuple(proj_b(points[k]).coords for k in u))
            for a, u in classes] == oracle_classes
    assert group == oracle_group


class TestCodedUnitScan:
    @settings(max_examples=40, deadline=None)
    @given(homs(max_order=16))
    def test_point_against_oracle(self, lam):
        _check_unit_scan(point_nerve(),
                         Complex((lam.source, lam.target), (lam,)))

    @pytest.mark.parametrize("X", list(_complexes2(ORDER_AT_MOST_4)),
                             ids=_complex_id)
    def test_circle_against_oracle(self, X):
        # every complex with |A|, |B| <= 4: at most 4^3 = 64 states
        _check_unit_scan(circle_nerve(), X)

    def test_cap_refuses_before_any_table(self, monkeypatch):
        X = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))

        def no_tables(G):
            raise AssertionError("coded tables built before the cap check")
        monkeypatch.setattr(coded, "_coded", no_tables)
        with pytest.raises(CapExceeded) as exc:
            _unit_classes(circle_nerve(), X, max_states=7)
        assert str(exc.value) == \
            "unit-cocycle scan needs 8 states (|A|^|V_0|), above the cap 7"

    @pytest.mark.parametrize("X", list(_complexes2((TRIV, Z2))),
                             ids=_complex_id)
    def test_ring_against_oracle(self, X):
        # 4 parts: 16 sections a_phi for A = Z/2
        _check_unit_scan(ring_nerve(), X)


# the first class swept is that of the zero cocycle (a, b) = (0, 0)
ZERO_PLUS_COBOUNDARY = (r"^violated relation: cocycle \+ coboundary is a "
                        r"cocycle at \(\(0, 0, 0, 0, 0, 0, 0, 0, 0\), "
                        r"\(0, 0, 0\)\)$")

SCANS = pytest.mark.parametrize("scan", [torsor_classes, _unit_classes],
                                ids=["torsor", "unit"])


class TestScanSelfCheck:
    """Broken scans that the CocycleError self-check catches: each
    mutation is patched into ``cech``, or into the ``coded`` function it
    calls, for one call."""

    X = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))

    def test_fibers_ignoring_lam_give_extra_unit_cocycles(self, monkeypatch):
        # every a then fits every u: 2^9 a's over 8 u's pass the V_1 cells
        monkeypatch.setattr(coded, "_fibers", lambda src, tgt, f: [
            list(src.elements()) for _ in tgt.elements()])
        with pytest.raises(CocycleError,
                           match=r"violated relation: 64 unit cocycles, one "
                                 r"per a_phi: \|A\|\^\|V_0\| = 8$"):
            _unit_classes(circle_nerve(), self.X)

    @SCANS
    def test_lost_cocycles_miss_a_coboundary(self, monkeypatch, scan):
        fibers = coded._fibers
        monkeypatch.setattr(coded, "_fibers", lambda *args: [
            f[:-1] for f in fibers(*args)])
        with pytest.raises(CocycleError, match=ZERO_PLUS_COBOUNDARY):
            scan(circle_nerve(), self.X)

    @SCANS
    def test_broken_coboundary_is_no_cocycle(self, monkeypatch, scan):
        coboundary = cech._coboundary

        def shifted_b(A, lam, faces1, alpha):  # b moves at the first cell
            a, b = coboundary(A, lam, faces1, alpha)
            return a, (1 - b[0],) + b[1:]
        monkeypatch.setattr(cech, "_coboundary", shifted_b)
        with pytest.raises(CocycleError, match=ZERO_PLUS_COBOUNDARY):
            scan(circle_nerve(), self.X)

    @SCANS
    def test_broken_sum_lands_outside(self, monkeypatch, scan):
        add = cech._add

        def shifted_b(adds, x, y):  # b moves at the first cell
            a, b = add(adds, x, y)
            return a, (1 - b[0],) + b[1:]
        monkeypatch.setattr(cech, "_add", shifted_b)
        with pytest.raises(CocycleError, match=ZERO_PLUS_COBOUNDARY):
            scan(circle_nerve(), self.X)


@pytest.mark.parametrize("nerve,lam", [
    (circle_nerve, _complex2((4,), (2,), [[1]])),
    (circle_nerve, _complex2((2, 2), (2,), [[1, 1]])),
    (ring_nerve, _complex2((2,), (2,), [[0]]))],
    ids=["Z4-1->Z2 circle", "Z2xZ2-[1 1]->Z2 circle", "Z2-0->Z2 ring"])
def test_torsor_count_with_large_fibers_is_h0(nerve, lam):
    # every nonempty lam-fiber has two elements, so a takes two values on
    # each V_1 cell for every b that has a cocycle
    N = nerve()
    assert torsor_classes(N, lam).count == classify_h0(N, lam).order()


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
    G = coded.CodedGroup(X.terms[0].invariant_factors)
    H = coded.CodedGroup(X.terms[1].invariant_factors)
    return CrossedModule(G, H, G.image_array(X.maps[0].matrix, H),
                         [[g] * H.order for g in G.elements()])


def _cocycle_key(XC, t):
    """The key of the unit cocycle (a, a_phi, b) = (g, g', -h) of a coded
    triple."""
    G, H = XC.G, XC.H
    g, gp, h = t
    return (tuple(map(G.coords, g)), tuple(map(G.coords, gp)),
            tuple(H.coords(H.inverse[v]) for v in h))


def _check_triples_are_unit_cocycles(N, X):
    XC = _as_crossed_module(X)
    assert verify_crossed_module(XC).passed
    triples = list(enumerate_unit_triples(XC, N))
    phis = _all_sections(X.terms[0], N, 0)
    cocycles = {_keys(*c): c for c in (unit_cocycle_from_phi(N, X, phi)
                                       for phi in phis)}
    keys = [_cocycle_key(XC, t) for t in triples]
    assert len(set(keys)) == len(triples) == len(cocycles)
    assert set(keys) == set(cocycles)
    # h0_group_law is the pointwise tensor of unit cocycles
    rng = random.Random(len(triples))
    pairs = list(itertools.product(triples, repeat=2)) if len(triples) <= 8 \
        else [(rng.choice(triples), rng.choice(triples)) for _ in range(64)]
    for t1, t2 in pairs:
        c1, c2 = cocycles[_cocycle_key(XC, t1)], cocycles[_cocycle_key(XC, t2)]
        assert _cocycle_key(XC, h0_group_law(XC, N, t1, t2)) == \
            _keys(*map(_add, c1, c2))


class TestTriplesAreUnitCocycles:
    """A 2-term complex is a crossed module with trivial action and boundary
    lam: its descent triples (g, g', h) are its unit cocycles
    (a, a_phi, -b), and the triple law is the pointwise tensor."""

    @settings(max_examples=30, deadline=None)
    @given(homs(max_order=64))
    def test_point(self, lam):
        _check_triples_are_unit_cocycles(
            point_nerve(), Complex((lam.source, lam.target), (lam,)))

    @pytest.mark.parametrize("X", [
        _complex2((2,), (2,), [[0]]), _complex2((2,), (2,), [[1]]),
        _complex2((3,), (3,), [[0]]), _complex2((4,), (2,), [[1]]),
        _complex2((2, 2), (2,), [[1, 1]]), _complex2((2,), (4,), [[2]]),
        _complex2((4,), (4,), [[3]]), _complex2((8,), (4,), [[1]])],
        ids=_complex_id)
    def test_circle(self, X):
        # |A|^3 <= 512 triples keeps the section oracle quick
        _check_triples_are_unit_cocycles(circle_nerve(), X)


class TestClassifyH0:
    def test_sections_of_b(self):
        X = Complex((TRIV, Z2), (GroupHom.zero(TRIV, Z2),))
        assert classify_h0(point_nerve(), X) == Z2

    def test_point_nerve_matches_complex_h0(self):
        rng = random.Random(31)
        for _ in range(6):
            X = random_complex2(rng, 9)
            assert classify_h0(point_nerve(), X) == homology(X, 0)

    def test_circle_constant_sections(self):
        X = Complex((TRIV, Z2), (GroupHom.zero(TRIV, Z2),))
        assert classify_h0(circle_nerve(), X) == Z2

    def test_circle_degree_one_part(self):
        # coefficients concentrated one step down see H^1 of the circle
        X = Complex((Z2, TRIV), (GroupHom.zero(Z2, TRIV),))
        assert classify_h0(circle_nerve(), X) == Z2

    def test_unit_complex_trivial_both_nerves(self):
        rng = random.Random(37)
        for _ in range(4):
            U1, _ = unit_complex_1(random_complex2(rng, 9))
            for N in (point_nerve(), circle_nerve()):
                assert classify_h0(N, U1).is_trivial

    def test_unit_complex_2_trivial(self):
        U2, _ = unit_complex_2(c3_zero_id())
        assert classify_h0(point_nerve(), U2).is_trivial
        assert classify_h0(circle_nerve(), U2).is_trivial

    def test_total_complex_is_a_complex(self):
        (_, _, l1), (d_low, d_high) = dense_piece(c3_zero_id(),
                                                  circle_nerve())
        assert _zero_mod(_matmul(d_high, d_low), l1.orders)

    @pytest.mark.parametrize("nerve,terms,count", [
        ("point", 2, 8), ("point", 3, 8), ("circle", 2, 3), ("circle", 3, 3),
        ("ring4", 2, 2)])
    def test_matches_packed_route(self, nerve, terms, count):
        # Z/6 and Z/9 next to Z/2, Z/3 and Z/4 make the canonical sums of
        # the packed route merge primary parts; block coordinates never do.
        # Over the circles, two-generator terms such as Z/3 x Z/9 give the
        # packed route dense integer kernels of about 60 x 90
        rng = random.Random(f"packed{terms}{nerve}")
        N = {"point": point_nerve, "circle": circle_nerve,
             "ring4": ring_nerve}[nerve]()
        pool = MIXED_PRIMES + [(2, 6), (3, 9)]
        for _ in range(count):
            X = _mixed_prime_complex(rng, terms, pool)
            assert classify_h0(N, X) == _packed_h0(N, X)

    @pytest.mark.parametrize("nerve", ["circle", "ring4"])
    def test_zero_maps_split_by_degree(self, nerve):
        # with zero differentials H^0(Tot X) is the sum of the H^(-p) of
        # the nerve, a circle, with coefficients X^p: X^0 from H^0, X^-1
        # from H^1, and nothing from H^2
        N = circle_nerve() if nerve == "circle" else ring_nerve()
        for inv in [((4,), (3, 9), (2,)), ((2, 6), (3, 9), (9,)),
                    ((2, 2, 2, 2), (16,), (2, 2, 2, 2)),
                    ((16,), (2, 2, 2, 2), (16,))]:
            A, B, C = (FgAbGroup(i) for i in inv)
            X = Complex((A, B, C), (GroupHom.zero(A, B), GroupHom.zero(B, C)))
            assert classify_h0(N, X) == FgAbGroup.from_divisors(
                *B.invariant_factors, *C.invariant_factors)
            assert classify_h0(N, Complex((A, B), (GroupHom.zero(A, B),))) == \
                FgAbGroup.from_divisors(*A.invariant_factors,
                                        *B.invariant_factors)

    def test_matches_packed_route_ring4_three_term(self):
        Z3, Z4, Z6, Z9 = (FgAbGroup.cyclic(n) for n in (3, 4, 6, 9))
        N = ring_nerve()
        for X in (Complex((Z3, Z6, Z2), (GroupHom(Z3, Z6, [[2]]),
                                         GroupHom(Z6, Z2, [[1]]))),
                  Complex((Z9, Z3, Z6), (GroupHom(Z9, Z3, [[1]]),
                                         GroupHom.zero(Z3, Z6))),
                  Complex((Z4, Z6, Z3), (GroupHom(Z4, Z6, [[3]]),
                                         GroupHom(Z6, Z3, [[1]])))):
            assert classify_h0(N, X) == _packed_h0(N, X)

    def test_matches_packed_route_circle_zero_maps(self):
        # the packed T^0 -> T^1 map is 63 x 87 with its relation columns
        A, B = FgAbGroup.cyclic(4), FgAbGroup((3, 9))
        X = Complex((A, B, Z2), (GroupHom.zero(A, B), GroupHom.zero(B, Z2)))
        N = circle_nerve()
        assert classify_h0(N, X) == _packed_h0(N, X) == \
            FgAbGroup.from_divisors(3, 9, 2)


# --------------------------------------------------------------------------
# the packed route that block coordinates replaced, kept as the oracle of
# classify_h0 and of the block differential


def _mixed_prime_complex(rng, terms, pool=MIXED_PRIMES):
    A, B, C = (FgAbGroup(rng.choice(pool)) for _ in range(3))
    if terms == 2:
        return Complex((A, B), (random_hom(rng, A, B),))
    lam = random_hom(rng, B, C)
    K, incl = kernel(lam)
    return Complex((A, B, C), (incl.compose(random_hom(rng, A, K)), lam))


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
        return comps


def _cell_blocks(nerve, layout):
    """The (p, q, k) blocks of a layout as (p, q, cell)."""
    return [(p, q, nerve.level(q)[k]) for p, q, k in layout.blocks]


def _unpack(X, nerve, layout, coords):
    """{(p, q): {cell: element}} of a block coordinate vector."""
    comps = {}
    for block, (p, q, cell) in zip(layout.blocks,
                                   _cell_blocks(nerve, layout)):
        G, off = X.group_at(p), layout.offset[block]
        comps.setdefault((p, q), {})[cell] = GroupElem(
            G, coords[off:off + G.ngens])
    return comps


def _differential_by_sections(X, nerve, comps, blocks):
    """d_X + (-1)^(p+1) cech of the components {(p, q): {cell: element}}
    at each (p, q, cell) of ``blocks``, in GroupElem arithmetic."""
    for p, q, cell in blocks:
        G = X.group_at(p)
        val = zero = GroupElem(G, (0,) * G.ngens)
        if (p - 1, q) in comps:
            val = val + X.differential(p - 1)(comps[(p - 1, q)][cell])
        if (p, q - 1) in comps:
            acc = zero
            for i in range(q + 1):
                face = oracle_face(nerve.cover, cell, i)
                face_val = comps[(p, q - 1)][face]
                acc = acc + face_val if i % 2 == 0 else acc - face_val
            val = val + (acc if p % 2 else -acc)
        yield val


def _packed_differential(X, nerve, source, target):
    """The packed total differential, generator by generator."""
    S, T = source.group, target.group
    images = []
    for g in range(S.ngens):
        generator = GroupElem(S, [int(j == g) for j in range(S.ngens)])
        out = GroupElem(T, (0,) * T.ngens)
        values = _differential_by_sections(
            X, nerve, source.unpack(generator), target.blocks)
        for val, inj in zip(values, target.inj):
            out = out + inj(val)
        images.append(out.coords)
    return from_images(S, T, images)


def _packed_h0(nerve, X):
    """Oracle: classify_h0 as it ran before block coordinates, as homology
    of the total complex packed into canonical direct sums."""
    lm1, l0, l1 = (_PackedLayout(X, nerve, n) for n in (-1, 0, 1))
    return homology(Complex((lm1.group, l0.group, l1.group),
                            (_packed_differential(X, nerve, lm1, l0),
                             _packed_differential(X, nerve, l0, l1))), -1)


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
            layouts, matrices = dense_piece(X, N)
            for source, target, D in zip(layouts, layouts[1:], matrices):
                for j in range(len(source.orders)):  # the image of e_j
                    e_j = [int(i == j) for i in range(len(source.orders))]
                    image = [x for val in _differential_by_sections(
                        X, N, _unpack(X, N, source, e_j),
                        _cell_blocks(N, target)) for x in val.coords]
                    assert _zero_mod([[row[j] - y] for row, y in
                                      zip(D, image)], target.orders)
            assert _zero_mod(_matmul(matrices[1], matrices[0]),
                             layouts[2].orders)


class TestSubquotient:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_homology(self, seed):
        # free ranks included: Z^r next to torsion in every term; homology
        # itself is one subquotient call, so the oracle is the kernel,
        # lift and cokernel construction
        rng = random.Random(f"subquotient{seed}")
        for X in (random_free_complex(rng, 2), random_free_complex(rng, 3)):
            for d in X.degrees:
                G = X.group_at(d)
                d_in = X.differential(d - 1).matrix \
                    if d > X.degrees[0] else [[]] * G.ngens
                out = X.differential(d)
                assert subquotient(d_in, G.orders, out.matrix,
                                   out.target.orders)[0] == \
                    OracleHomology(X, d).group


# --------------------------------------------------------------------------
# Gaussian reduction of the total complex before classify_h0


def _unreduced_h0(N, X):
    """Oracle: subquotient on the whole block matrices, as classify_h0 ran
    before it cancelled unit pivots."""
    (_, l0, l1), (d_low, d_high) = dense_piece(X, N)
    return subquotient(d_low, l0.orders, d_high, l1.orders)[0]


def _unit_complex(X):
    return unit_complex_1(X)[0] if len(X.terms) == 2 \
        else unit_complex_2(X)[0]


def _minus_one_complex(d, terms):
    """Z/d -(-1)-> Z/d (-> Z/d by zero): the differential stored as d-1."""
    G = FgAbGroup.cyclic(d)
    minus = GroupHom(G, G, [[-1]])
    assert minus.matrix == ((d - 1,),)
    if terms == 2:
        return Complex((G, G), (minus,))
    return Complex((G, G, G), (minus, GroupHom.zero(G, G)))


def _assert_reduced(piece):
    """Torsion rows reduced into [0, d), no zero T^1 row and no zero T^-1
    column left behind."""
    d_in, orders, d_out, out_orders = piece
    for rows, row_orders in ((d_in, orders), (d_out, out_orders)):
        for row, d in zip(rows, row_orders):
            if d:
                assert all(0 <= v < d for v in row)
    assert all(any(row) for row in d_out)
    assert all(any(col) for col in zip(*d_in))


class TestReducedTotalComplex:
    @pytest.mark.parametrize("terms", [2, 3])
    @pytest.mark.parametrize("nerve,count", [
        ("point", 10), ("circle", 5), ("ring4", 3)])
    def test_matches_unreduced_subquotient(self, nerve, count, terms):
        rng = random.Random(f"reduced{terms}{nerve}")
        N = NERVES[nerve]()
        make = random_complex2 if terms == 2 else random_complex3
        for _ in range(count):
            # the unreduced oracle is slow on the ring beyond order 6
            X = make(rng, 6 if nerve == "ring4" else 8)
            for Y in (X, _unit_complex(X)):
                assert classify_h0(N, Y) == _unreduced_h0(N, Y)
                _assert_reduced(cech._reduced_piece(Y, N))

    @pytest.mark.parametrize("nerve", list(NERVES))
    @pytest.mark.parametrize("terms", [2, 3])
    def test_minus_one_entries(self, terms, nerve):
        # -1 on Z/d is stored as d-1, and the Cech faces add -1 entries
        N = NERVES[nerve]()
        for d in (3, 4, 5, 8):
            X = _minus_one_complex(d, terms)
            for Y in (X, _unit_complex(X)):
                assert classify_h0(N, Y) == _unreduced_h0(N, Y)
        # over the point Z/5 -(4)-> Z/5 cancels to nothing: both D-1 pivots
        # are stored as 4
        assert cech._reduced_piece(_minus_one_complex(5, 2),
                                   point_nerve()) == ([], [], [], [])

    @pytest.mark.parametrize("terms", [2, 3])
    def test_free_coordinates(self, terms):
        # free pivots must be exactly +-1; subquotient is the oracle
        rng = random.Random(f"reduced-free{terms}")
        for _ in range(8):
            X = random_free_complex(rng, terms)
            (_, l0, l1), (d_low, d_high) = dense_piece(X, point_nerve())
            piece = cech._reduced_piece(X, point_nerve())
            assert subquotient(*piece)[0] == \
                subquotient(d_low, l0.orders, d_high, l1.orders)[0]
            _assert_reduced(piece)

    def test_unequal_orders_are_not_cancelled(self):
        # Z/4 -1-> Z/2 is onto but not an isomorphism; over the point H^0
        # is the cokernel, 0, and over the circle it is ker lam = Z/2 from
        # H^1 of the circle
        Z4 = FgAbGroup.cyclic(4)
        X = Complex((Z4, Z2), (GroupHom(Z4, Z2, [[1]]),))
        assert classify_h0(point_nerve(), X).is_trivial
        assert classify_h0(circle_nerve(), X) == Z2 == \
            _unreduced_h0(circle_nerve(), X)

    def test_found_ring_input_is_fast(self):
        # (Z/2)^4 -0-> (Z/2)^4 -id-> (Z/2)^4 over the 4-part ring: one
        # unreduced call took 2.3-2.7 s on a 2-core Xeon
        G = FgAbGroup.from_divisors(2, 2, 2, 2)
        X = Complex((G, G, G), (GroupHom.zero(G, G), GroupHom.identity(G)))
        N = ring_nerve()
        started = time.perf_counter()
        h0, h0_unit = classify_h0(N, X), classify_h0(N, unit_complex_2(X)[0])
        assert time.perf_counter() - started < 1.0
        # X is quasi-isomorphic to A[2], which H^0 sees only through H^2
        # of the ring, a circle: nothing
        assert h0.is_trivial and h0_unit.is_trivial
        assert cech._reduced_piece(unit_complex_2(X)[0], N) == ([], [], [], [])


# --------------------------------------------------------------------------
# J and K: point-model units and total 0-cocycles of the unit complex


def _unit_piece(X, N):
    return dense_piece(_unit_complex(X), N)


def _units(X):
    if len(X.terms) == 2:
        return enumerate_units_1(X)
    return enumerate_units_2(X)


def _carries(x, w, unit, N, X):
    """Whether x - D-1 w is J(unit) modulo R0."""
    (_, l0, _), (d_low, _) = _unit_piece(X, N)
    return _zero_mod([[v - y - z] for v, y, z in zip(
        x, cocycle_of_unit(X, unit, N), _matvec(d_low, w))], l0.orders)


def _block_coder(N, X):
    """The T^0 coordinates, on the unit complex A -> K of a 2-term X, of a
    descent datum (a, a_phi, b): a on the (-1, 1) blocks and the
    K-coordinates of (a_phi, b) on the (0, 0) blocks; None unless
    lam(a_phi) = b, since (a_phi, b) then lies outside K."""
    (_, l0, _), _ = _unit_piece(X, N)
    _, emb = unit_complex_1(X)
    _, inj_a, inj_b, _, _ = direct_sum(*X.terms)

    def code(a, a_phi, b):
        points = [solve(emb, (inj_a(f) + inj_b(y)).coords)
                  for f, y in zip(a_phi, b)]
        if any(k is None for k in points):
            return None
        value = {(-1, 1, k): x.coords for k, x in enumerate(a)}
        value.update(((0, 0, k), point) for k, point in enumerate(points))
        return [v for block in l0.blocks for v in value[block]]
    return code


class TestUnitCocycleRoundTrip:
    def test_saavedra_constant(self):
        X = c2_times2()
        unit = _units(X)[1]
        assert unit == ((2,), (1,))
        N = point_nerve()
        x = cocycle_of_unit(X, unit, N)
        A, B = X.terms
        assert x == _block_coder(N, X)((GroupElem(A, [0]),),
                                       (GroupElem(A, [1]),),
                                       (GroupElem(B, [2]),))
        assert unit_of_cocycle(x, N, X)[0] == unit

    def test_zero_unit(self):
        X = c2_times2()
        assert not any(cocycle_of_unit(X, _units(X)[0], circle_nerve()))

    def test_nonconstant_cocycle_decodes_to_connected_unit(self):
        N = circle_nerve()
        X = Complex((Z3, Z3), (GroupHom.zero(Z3, Z3),))
        phi = tuple(GroupElem(Z3, [i % 3]) for i in range(len(N.level(0))))
        x = _block_coder(N, X)(*unit_cocycle_from_phi(N, X, phi))
        unit, w = unit_of_cocycle(x, N, X)
        # K reads the base cell, and w carries x onto the constant cocycle
        assert unit[1] == phi[0].coords
        assert _carries(x, w, unit, N, X)

    def test_corrupted_cocycle_names_relation(self):
        # D0 x leaves R1 first at the first T^1 block reading the corrupted
        # coordinate: the K-coordinate at the base cell first meets the edge
        # (0, 1), in bidegree (0, 1); the A-coordinate on that edge first
        # meets the triangle (0, 1, 0), in bidegree (-1, 2), since on
        # (0, 0, 1) its d0 and d1 terms cancel
        N = circle_nerve()
        X = Complex((Z3, Z3), (GroupHom.zero(Z3, Z3),))
        (_, l0, _), _ = _unit_piece(X, N)
        x = cocycle_of_unit(X, _units(X)[1], N)
        for block, bidegree, cell in [
                ((0, 0, 0), (0, 1), ((0, 1), "c")),
                ((-1, 1, N.level(1).index(((0, 1), "c"))), (-1, 2),
                 ((0, 1, 0), "c"))]:
            bad = list(x)
            bad[l0.offset[block]] += 1
            with pytest.raises(CocycleError) as info:
                unit_of_cocycle(bad, N, X)
            assert info.value.relation == \
                f"total differential nonzero at bidegree {bidegree}"
            assert info.value.where == cell

    def test_jk_constant_total_cocycle(self):
        X = c3_zero_id()
        unit = _units(X)[1]
        for N in (point_nerve(), circle_nerve()):
            x = cocycle_of_unit(X, unit, N)
            back, w = unit_of_cocycle(x, N, X)
            assert back == unit and _carries(x, w, unit, N, X)

    def test_jk_nonconstant_total_cocycle(self):
        # J(u) + D-1 w, reduced, decodes to a unit of the same model, and
        # the returned cochain carries it onto J of that unit modulo R0
        for X in (c2_times2(), c3_zero_id()):
            for N in (point_nerve(), circle_nerve()):
                (lm1, l0, _), (d_low, _) = _unit_piece(X, N)
                rng = random.Random(len(l0.orders))
                for unit in _units(X):
                    w_in = [rng.randrange(d or 5) for d in lm1.orders]
                    moved = [v % d if d else v for v, d in zip(
                        map(sum, zip(cocycle_of_unit(X, unit, N),
                                     _matvec(d_low, w_in))), l0.orders)]
                    back, w = unit_of_cocycle(moved, N, X)
                    assert back in _units(X)
                    assert _carries(moved, w, back, N, X)

    @pytest.mark.parametrize("nerve", list(NERVES))
    @pytest.mark.parametrize("terms", [2, 3])
    def test_round_trip_every_unit(self, terms, nerve):
        rng = random.Random(f"jk{terms}{nerve}")
        N = NERVES[nerve]()
        make = random_complex2 if terms == 2 else random_complex3
        for _ in range(3):
            X = make(rng, 6)
            for unit in _units(X):
                x = cocycle_of_unit(X, unit, N)
                back, w = unit_of_cocycle(x, N, X)
                assert back == unit and _carries(x, w, unit, N, X)

    @pytest.mark.parametrize("X", [
        _complex2((3,), (3,), [[0]]), _complex2((4,), (4,), [[1]]),
        _complex2((4,), (2,), [[1]])], ids=str)
    def test_descent_relations_are_the_block_cocycle_condition(self, X):
        # pins the sign of D = d_X + (-1)^(p+1) cech: over the circle, the
        # descent datum of every a_phi, the same with a moved on one edge,
        # and with a random a, each satisfy the four relations iff their
        # block vector x has D0 x in R1
        N = circle_nerve()
        (_, _, l1), (_, d_high) = _unit_piece(X, N)
        code, rng = _block_coder(N, X), random.Random(str(X))
        A, B = X.terms
        elems, g, h = list(A.elements()), GroupElem(A, [1]), GroupElem(B, [1])
        for a_phi in _all_sections(A, N, 0):
            a, _, b = unit_cocycle_from_phi(N, X, a_phi)
            k = rng.randrange(len(a))
            for a in (a, a[:k] + (a[k] + g,) + a[k + 1:],
                      tuple(rng.choice(elems) for _ in a)):
                x = code(a, a_phi, b)
                assert all(_descent_relations(N, X, a, a_phi, b)) == \
                    _zero_mod([[v] for v in _matvec(d_high, x)], l1.orders)
            # moving b off lam(a_phi) leaves K: the fourth relation
            assert code(a, a_phi, (b[0] + h,) + b[1:]) is None
