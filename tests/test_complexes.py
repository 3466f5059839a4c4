import json
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from unital import abelian, groups
from unital import complexes as complexes_module
from unital.abelian import (
    FgAbGroup, GroupElem, GroupHom, cokernel, direct_sum, is_isomorphism,
    kernel, lift_through, solve)
from unital.complexes import (
    Complex,
    HomologyData,
    StrictMorphism,
    cone,
    cone_comparison,
    homology,
    identity_model,
    is_complex_isomorphism,
    is_quasi_isomorphism,
    kernel_model,
    kernel_sum_model,
    sum_model,
    truncate_shift,
    unit_complex_1,
    unit_complex_2,
)
from unital.reporting import run
from unital.specfile import parse_spec

from constructions import (
    compose,
    forgetful_morphism_1,
    forgetful_morphism_2,
    from_images,
    identity_model_projection,
    is_acyclic,
    lift_by_images,
)
from test_abelian import random_group, random_hom

Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)
Z4 = FgAbGroup.cyclic(4)
TRIV = FgAbGroup.trivial()


TRIPWIRE_QISO_DIGEST = ("8811db88b0cb8ee3b8c2c92ead24bd68"
                        "a2844c9c9aad52594ebfe26f6a9000c6")


def c2_times2():
    return Complex((Z2, Z4), (GroupHom(Z2, Z4, [[2]]),))


def c3_zero_id():
    return Complex((Z2, Z2, Z2),
                   (GroupHom.zero(Z2, Z2), GroupHom.identity(Z2)))


def brute_homology_order(X, degree):
    """Independent |H| by enumerating cycles and boundaries."""
    out = X.differential(degree)
    grp = X.group_at(degree)
    cycles = [x for x in grp.elements() if not any(out(x).coords)]
    if degree == X.degrees[0]:
        boundaries = {(0,) * grp.ngens}
    else:
        inc = X.differential(degree - 1)
        boundaries = {inc(y).coords for y in X.group_at(degree - 1).elements()}
    seen = set()
    count = 0
    for z in cycles:
        if z.coords in seen:
            continue
        count += 1
        for b in boundaries:
            seen.add((z + GroupElem(grp, b)).coords)
    return count


def random_complex2(rng, max_order=16):
    A = random_group(rng, max_order)
    B = random_group(rng, max_order)
    return Complex((A, B), (random_hom(rng, A, B),))


def random_complex3(rng, max_order=16):
    # generate lam first, then factor delta through its kernel so that
    # lam . delta = 0 by construction
    A = random_group(rng, max_order)
    B = random_group(rng, max_order)
    C = random_group(rng, max_order)
    lam = random_hom(rng, B, C)
    K, incl = kernel(lam)
    delta = incl.compose(random_hom(rng, A, K))
    return Complex((A, B, C), (delta, lam))


MIXED_PRIMES = [(), (2,), (3,), (4,), (6,), (9,)]


def _free_group(rng):
    return FgAbGroup(rng.choice(MIXED_PRIMES), rng.randrange(3))


def _free_hom(rng, A, B):
    """A random well-defined hom: a torsion generator of order d goes to an
    element killed by d, a free one anywhere."""
    images = []
    for d in A.orders:
        steps = [1 if d == 0 else e // gcd(d, e) if e else 0
                 for e in B.orders]
        images.append([rng.randrange(-3, 4) * k for k in steps])
    return from_images(A, B, images)


def random_free_complex(rng, terms):
    """A 2- or 3-term complex, torsion and free rank up to 2 in each term."""
    A, B, C = (_free_group(rng) for _ in range(3))
    if terms == 2:
        return Complex((A, B), (_free_hom(rng, A, B),))
    lam = _free_hom(rng, B, C)
    K, incl = kernel(lam)
    return Complex((A, B, C), (incl.compose(_free_hom(rng, A, K)), lam))


class OracleHomology:
    """Homology at one degree by a second construction, the oracle of
    HomologyData: the cycles K = ker(outgoing), the boundaries lifted into
    K, and the cokernel of that lift, with classification through it, on
    coordinates."""

    def __init__(self, X, degree):
        G = X.group_at(degree)
        incoming = X.differential(degree - 1) if degree > X.degrees[0] \
            else GroupHom.zero(TRIV, G)
        self.incl = kernel(X.differential(degree))[1]
        self.group, self.proj = cokernel(lift_through(self.incl, incoming))

    def classify(self, x):
        return self.proj(GroupElem(self.incl.source,
                                   solve(self.incl, x))).coords


class TestLiftThrough:
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_equals_the_per_column_route(self, rng):
        # incl is injective, a kernel inclusion or a direct-sum injection,
        # with free ranks; incl . g factors through it, with lift g, and a
        # drawn map into its target may not
        A, B, C = (_free_group(rng) for _ in range(3))
        incl = kernel(_free_hom(rng, A, B))[1] if rng.random() < 0.5 \
            else direct_sum(A, B)[1]
        g = _free_hom(rng, C, incl.source)
        assert lift_through(incl, incl.compose(g)) == g
        for f in (incl.compose(g), _free_hom(rng, C, incl.target)):
            try:
                want = lift_by_images(incl, f)
            except ValueError:
                with pytest.raises(ValueError, match="does not factor"):
                    lift_through(incl, f)
            else:
                assert lift_through(incl, f) == want


# The direct constructions of level 2 and of the comparison models: each
# degree-0 map is a lift through the unit complex's embedding, and level 2
# solves its own kernel in B (+) C.  The library builds level 2 on
# unit_complex_1 of lam and each pair of models from one construction;
# these are its oracles.


def direct_unit_complex_2(X):
    (A, B, C), (delta, lam) = X.terms, X.maps
    _, inj_b, inj_a, proj_b, proj_a = direct_sum(B, A)
    _, jnj_b, jnj_c, qroj_b, qroj_c = direct_sum(B, C)
    K, incl = kernel(lam.compose(qroj_b) - qroj_c)
    d1 = inj_b.compose(delta) + inj_a  # a |-> (delta a, a)
    # (b, a) |-> (b - delta a, lam b), landing in the kernel
    to_bc = jnj_b.compose(proj_b - delta.compose(proj_a)) \
        + jnj_c.compose(lam.compose(proj_b))
    d2 = lift_through(incl, to_bc)
    return Complex((A, d1.target, K), (d1, d2)), incl


def direct_identity_model(X):
    U, _ = unit_complex_1(X)
    idA = GroupHom.identity(X.terms[0])
    model = Complex((idA.source,) * 2, (idA,))
    return model, StrictMorphism(model, U, (idA, U.maps[0]))


def direct_kernel_model(X):
    U, emb = unit_complex_1(X)
    Kl, kincl = kernel(X.maps[0])
    idK = Complex((Kl, Kl), (GroupHom.identity(Kl),))
    _, inj_a, _, _, _ = direct_sum(*X.terms)
    deg0 = lift_through(emb, inj_a.compose(kincl))
    return idK, StrictMorphism(idK, U, (kincl, deg0))


def direct_sum_model(X):
    U, emb = direct_unit_complex_2(X)
    (A, B, C), (delta, lam) = X.terms, X.maps
    _, inj_b, inj_a, proj_b, proj_a = direct_sum(B, A)
    d1 = inj_b.compose(delta) + inj_a
    d2 = proj_b - delta.compose(proj_a)
    alt = Complex((A, d1.target, B), (d1, d2))
    _, jnj_b, jnj_c, _, _ = direct_sum(B, C)
    deg0 = lift_through(emb, jnj_b + jnj_c.compose(lam))  # b |-> (b, lam b)
    mor = StrictMorphism(alt, U, (GroupHom.identity(A),
                                  GroupHom.identity(d1.target), deg0))
    return alt, mor


def direct_kernel_sum_model(X):
    U, emb = direct_unit_complex_2(X)
    (A, B, C), (delta, lam) = X.terms, X.maps
    Kl, kincl = kernel(lam)
    delta_k = lift_through(kincl, delta)
    _, inj_k, inj_a, proj_k, proj_a = direct_sum(Kl, A)
    d1 = inj_k.compose(delta_k) + inj_a
    d2 = proj_k - delta_k.compose(proj_a)
    alt = Complex((A, d1.target, Kl), (d1, d2))
    _, jnj_b, _, _, _ = direct_sum(B, C)
    _, binj_b, binj_a, _, _ = direct_sum(B, A)
    mid = binj_b.compose(kincl.compose(proj_k)) + binj_a.compose(proj_a)
    deg0 = lift_through(emb, jnj_b.compose(kincl))  # k |-> (k, 0)
    mor = StrictMorphism(alt, U, (GroupHom.identity(A), mid, deg0))
    return alt, mor


# per length, each builder with its direct oracle
DIRECT = {2: ((identity_model, direct_identity_model),
              (kernel_model, direct_kernel_model)),
          3: ((unit_complex_2, direct_unit_complex_2),
              (sum_model, direct_sum_model),
              (kernel_sum_model, direct_kernel_sum_model))}


def drawn_complex(rng, terms, free):
    """A random complex of the given length: torsion only, or with free
    ranks (``random_free_complex``)."""
    if free:
        return random_free_complex(rng, terms)
    return random_complex2(rng) if terms == 2 else random_complex3(rng, 9)


class TestComplexValidation:
    def test_rejects_non_complex(self):
        with pytest.raises(ValueError):
            Complex((Z2, Z2, Z2),
                    (GroupHom.identity(Z2), GroupHom.identity(Z2)))

    def test_composite_names_its_generator(self):
        # generator 0 of Z/2 x Z/2 maps to zero, generator 1 does not
        A = FgAbGroup.from_divisors(2, 2)
        delta = GroupHom(A, Z2, [[0, 1]])
        X = Complex((A, Z2, Z3), (delta, GroupHom.zero(Z2, Z3)))
        assert X.degrees == (-2, -1, 0)
        with pytest.raises(ValueError,
                           match="^composite nonzero at generator 1$"):
            Complex((A, Z2, Z2), (delta, GroupHom.identity(Z2)))

    def test_wrong_endpoint_at_each_degree(self):
        good = (GroupHom.zero(Z2, Z4), GroupHom.zero(Z4, Z3))
        bad = (GroupHom.zero(Z3, Z4), GroupHom.zero(Z4, Z2))
        for k, degree in enumerate((-2, -1)):
            maps = list(good)
            maps[k] = bad[k]
            with pytest.raises(ValueError, match=f"^map at degree {degree} "
                                                 "does not match the terms$"):
                Complex((Z2, Z4, Z3), maps)
        with pytest.raises(ValueError, match="^map at degree -1 "):
            Complex((Z2, Z4), (GroupHom.zero(Z4, Z2),))

    def test_one_term_more_than_maps(self):
        for terms, maps in (((Z2, Z2), ()), ((), ()),
                            ((Z2,), (GroupHom.zero(Z2, Z2),))):
            with pytest.raises(ValueError, match="one term more than maps"):
                Complex(terms, maps)

    @pytest.mark.parametrize("X", [c2_times2(), c3_zero_id()],
                             ids=["2-term", "3-term"])
    def test_degrees_out_of_range(self, X):
        # below the lowest degree no negative index wraps round to a term,
        # and above degree 0 no IndexError escapes
        low = X.degrees[0]
        assert X.degrees == tuple(range(low, 1))
        assert [X.group_at(d) for d in X.degrees] == list(X.terms)
        assert [X.differential(d) for d in X.degrees[:-1]] == list(X.maps)
        assert X.differential(0) == GroupHom.zero(X.terms[-1], TRIV)
        for degree in (low - 1, low - 2, 1, 2):
            for method in (X.group_at, X.differential):
                with pytest.raises(ValueError,
                                   match=f"^degree {degree} out of range$"):
                    method(degree)

    def test_equal_records_compare_and_hash_equal(self):
        lam = GroupHom(Z2, Z4, [[2]])
        X = Complex([Z2, Z4], [lam])
        assert X.terms == (Z2, Z4) and X.maps == (lam,)
        assert X == c2_times2() and hash(X) == hash(c2_times2())
        assert X != Complex((Z2, Z4), (GroupHom.zero(Z2, Z4),))
        assert c3_zero_id() == c3_zero_id()
        assert hash(c3_zero_id()) == hash(c3_zero_id())
        assert X != c3_zero_id()
        assert str(X) == "[Z/2 -> Z/4]"
        assert str(c3_zero_id()) == "[Z/2 -> Z/2 -> Z/2]"

    def test_strict_morphism_needs_equal_lengths(self):
        X, Y = c2_times2(), c3_zero_id()
        with pytest.raises(ValueError, match="different lengths"):
            StrictMorphism(X, Y, (GroupHom.zero(Z2, Z2),
                                  GroupHom.zero(Z4, Z2)))
        with pytest.raises(ValueError, match="different lengths"):
            StrictMorphism(Y, X, (GroupHom.zero(Z2, Z2),
                                  GroupHom.zero(Z2, Z4)))

    def test_strict_morphism_square_checked(self):
        X = c2_times2()
        with pytest.raises(ValueError):
            StrictMorphism(X, X, (GroupHom.zero(Z2, Z2),
                                  GroupHom.identity(Z4)))


class TestHomology:
    def test_times2(self):
        X = c2_times2()
        assert homology(X, -1).is_trivial
        assert homology(X, 0) == Z2

    def test_identity_acyclic(self):
        for G in (Z4, FgAbGroup.from_divisors(2, 6)):
            X = Complex((G, G), (GroupHom.identity(G),))
            assert is_acyclic(X)

    def test_three_term(self):
        X = c3_zero_id()
        assert homology(X, -2) == Z2
        assert homology(X, -1).is_trivial
        assert homology(X, 0).is_trivial

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            homology(c2_times2(), 1)

    def test_against_enumeration(self):
        rng = random.Random(21)
        for _ in range(20):
            X = random_complex2(rng)
            for d in X.degrees:
                assert homology(X, d).order() == brute_homology_order(X, d)
        for _ in range(10):
            X = random_complex3(rng, 8)
            for d in X.degrees:
                assert homology(X, d).order() == brute_homology_order(X, d)

    def test_representative_is_a_cycle_in_its_class(self):
        rng = random.Random(131)
        for X in [c2_times2(), c3_zero_id()] \
                + [random_complex2(rng) for _ in range(10)] \
                + [random_complex3(rng, 8) for _ in range(10)]:
            for d in X.degrees:
                hd, G = HomologyData(X, d), X.group_at(d)
                for h in (h.coords for h in hd.group.elements()):
                    x = hd.representative(h)
                    assert x == G.reduce(x)
                    assert not any(X.differential(d)(GroupElem(G, x)).coords)
                    assert hd.classify(x) == h

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([2, 3]))
    def test_matches_the_kernel_cokernel_oracle(self, rng, terms):
        X = random_free_complex(rng, terms)

        def draw(G):
            return GroupElem(G, [rng.randrange(-4, 5) for _ in range(G.ngens)])

        for d in X.degrees:
            hd, oracle = HomologyData(X, d), OracleHomology(X, d)
            H = hd.group
            assert H == oracle.group
            # the isomorphism fixed on generators: the oracle's class of
            # each generator's cycle
            phi = from_images(H, H, [
                oracle.classify(hd.representative(
                    tuple(int(j == i) for j in range(H.ngens))))
                for i in range(H.ngens)])
            assert is_isomorphism(phi)
            for _ in range(4):
                h = draw(H).coords
                assert hd.classify(hd.representative(h)) == h
                x = oracle.incl(draw(oracle.incl.source)).coords  # a cycle
                assert phi(GroupElem(H, hd.classify(x))).coords == \
                    oracle.classify(x)
            if d > X.degrees[0]:
                inc = X.differential(d - 1)
                S = inc.source
                for y in [draw(S) for _ in range(4)] + [
                        GroupElem(S, [int(j == i) for j in range(S.ngens)])
                        for i in range(S.ngens)]:
                    assert not any(hd.classify(inc(y).coords))

    def test_at_most_three_smith_forms_per_degree(self, monkeypatch):
        # one subquotient call: a kernel, the relations of the cycle
        # generators and the quotient's canonical form; in degree 0 the
        # outgoing map has no rows, so the first kernel needs no Smith form
        rng = random.Random(197)
        complexes = [c2_times2(), c3_zero_id()] + [
            random_free_complex(rng, terms) for terms in (2, 3) * 6]
        calls = []
        snf = abelian._snf_full
        monkeypatch.setattr(abelian, "_snf_full",
                            lambda *a, **k: calls.append(1) or snf(*a, **k))
        for X in complexes:
            for d in X.degrees:
                calls.clear()
                homology(X, d)
                assert len(calls) <= (2 if d == 0 else 3)


class TestUnitComplex1:
    def test_times2(self):
        U, emb = unit_complex_1(c2_times2())
        assert U.terms == (Z2, Z2)
        assert is_acyclic(U)
        # kernel of (a,b) |-> lam(a) - b is {(0,0), (1,2)}
        members = sorted(emb(k).coords for k in U.terms[1].elements())
        assert members == [(0, 0), (1, 2)]

    def test_trivial_A(self):
        X = Complex((TRIV, Z4), (GroupHom.zero(TRIV, Z4),))
        U, _ = unit_complex_1(X)
        assert U.terms == (TRIV, TRIV)

    def test_zero_map(self):
        X = Complex((Z3, Z3), (GroupHom.zero(Z3, Z3),))
        U, emb = unit_complex_1(X)
        assert U.terms[1] == Z3
        assert is_isomorphism(U.maps[0])
        # kernel members are the pairs (a, 0)
        assert all(emb(k).coords[1] == 0 for k in U.terms[1].elements())

    def test_always_acyclic(self):
        rng = random.Random(31)
        for _ in range(25):
            U, _ = unit_complex_1(random_complex2(rng))
            assert is_acyclic(U)


class TestUnitComplex2:
    def test_example(self):
        U, _ = unit_complex_2(c3_zero_id())
        assert is_acyclic(U)

    def test_all_trivial(self):
        X = Complex((TRIV,) * 3, (GroupHom.zero(TRIV, TRIV),) * 2)
        U, _ = unit_complex_2(X)
        assert U.terms == (TRIV, TRIV, TRIV)

    def test_id_then_zero(self):
        X = Complex((Z4, Z4, Z2),
                    (GroupHom.identity(Z4), GroupHom.zero(Z4, Z2)))
        assert is_acyclic(unit_complex_2(X)[0])

    def test_always_acyclic(self):
        rng = random.Random(41)
        for _ in range(15):
            assert is_acyclic(unit_complex_2(random_complex3(rng, 9))[0])


class TestCone:
    def test_cone_of_identity_acyclic(self):
        for X in (c2_times2(),
                  Complex((TRIV, Z3), (GroupHom.zero(TRIV, Z3),))):
            assert is_acyclic(cone(StrictMorphism.identity(X)))

    def test_cone_from_zero_complex(self):
        X = c2_times2()
        Z = Complex((TRIV, TRIV), (GroupHom.zero(TRIV, TRIV),))
        f = StrictMorphism(Z, X, (GroupHom.zero(TRIV, Z2),
                                  GroupHom.zero(TRIV, Z4)))
        C = cone(f)
        assert homology(C, -2).is_trivial
        assert homology(C, -1) == homology(X, -1)
        assert homology(C, 0) == homology(X, 0)

    def test_truncate_shift_zero_differentials(self):
        X = Complex((Z2, Z4, TRIV),
                    (GroupHom.zero(Z2, Z4), GroupHom.zero(Z4, TRIV)))
        T = truncate_shift(X)
        assert T.terms == (Z2, Z4)

    def test_truncate_shift_forced_trivial(self):
        T = truncate_shift(c3_zero_id())
        assert T.terms[1].is_trivial

    def test_cone_comparison_is_isomorphism(self):
        rng = random.Random(51)
        for _ in range(20):
            X = random_complex2(rng)
            cmp = cone_comparison(X)
            assert is_complex_isomorphism(cmp)
            assert is_quasi_isomorphism(cmp).is_qiso


class TestQuasiIsomorphism:
    def test_identity_model_map(self):
        X = c2_times2()
        idA, mor = identity_model(X)
        res = is_quasi_isomorphism(mor)
        assert res.is_qiso
        assert set(res.induced) == {-1, 0}

    def test_identity_reflexive(self):
        X = c2_times2()
        assert is_quasi_isomorphism(StrictMorphism.identity(X)).is_qiso

    def test_failing_case(self):
        Y = Complex((TRIV, Z2), (GroupHom.zero(TRIV, Z2),))
        Z = Complex((TRIV, TRIV), (GroupHom.zero(TRIV, TRIV),))
        f = StrictMorphism(Y, Z, (GroupHom.zero(TRIV, TRIV),
                                  GroupHom.zero(Z2, TRIV)))
        assert not is_quasi_isomorphism(f).is_qiso

    def test_composition_closed(self):
        rng = random.Random(61)
        for _ in range(10):
            X = random_complex2(rng)
            _, f = identity_model(X)          # idA -> U1
            g = identity_model_projection(X)  # U1 -> idA
            assert is_quasi_isomorphism(compose(g, f)).is_qiso
            assert is_quasi_isomorphism(compose(f, g)).is_qiso

    def test_kernel_model(self):
        rng = random.Random(71)
        for _ in range(10):
            X = random_complex2(rng)
            _, mor = kernel_model(X)
            assert is_quasi_isomorphism(mor).is_qiso

    def test_invariant_under_composing_with_isomorphisms(self):
        rng = random.Random(73)
        for _ in range(8):
            X = random_complex2(rng)
            iso = cone_comparison(X)  # an isomorphism of complexes into U1
            _, into_u1 = identity_model(X)  # a quasi-isomorphism into U1
            back = identity_model_projection(X)  # U1 -> idA
            assert is_quasi_isomorphism(compose(back, iso)).is_qiso
            roundabout = compose(compose(back, iso),
                                 StrictMorphism.identity(iso.source))
            assert is_quasi_isomorphism(roundabout).is_qiso

    @staticmethod
    def z64_tripwire():
        """The scale tripwire's qiso input, Z^64 -delta-> Z^64 -0-> Z^64."""
        r = random.Random(64)
        delta = [[r.randint(-9, 9) for _ in range(64)] for _ in range(64)]
        return parse_spec(json.dumps({
            "kind": "complex3",
            "groups": {"A": {"free": 64}, "B": {"free": 64},
                       "C": {"free": 64}},
            "maps": {"delta": delta}}))

    def test_z64_tripwire_cancels_before_its_smith_forms(self, monkeypatch):
        # the +-1 graph entries of the unit complex are cancelled before any
        # Smith form; eliminating the whole matrices took 62 _snf_full
        # calls on 290,816 entries
        entries, snf = [], abelian._snf_full
        monkeypatch.setattr(abelian, "_snf_full", lambda M, *a, **k: (
            entries.append(len(M) * len(M[0]) if M else 0) or snf(M, *a, **k)))
        report = run("qiso", self.z64_tripwire())
        assert len(entries) <= 40 and sum(entries) <= 40_000
        assert report.digest() == TRIPWIRE_QISO_DIGEST

    def test_z64_tripwire_products_cost_their_nonzeros(self, monkeypatch):
        # every integer matrix product (groups._matmul, which abelian binds
        # too) multiplies only the nonzero entries that meet: 110,788
        # multiplications, where the dense products did 4,704,128.  The
        # left factor's entries count each product they take part in
        count = [0]

        class Counted(int):
            def __mul__(self, other):
                count[0] += 1
                return int(self) * other
            __rmul__ = __mul__

        matmul = groups._matmul

        def counting(A, B, m, k, n):
            return matmul([[Counted(x) for x in row] for row in A], B, m, k, n)

        monkeypatch.setattr(groups, "_matmul", counting)
        monkeypatch.setattr(abelian, "_matmul", counting)
        report = run("qiso", self.z64_tripwire())
        assert 0 < count[0] <= 150_000
        assert report.digest() == TRIPWIRE_QISO_DIGEST

    def test_three_term_alternates(self):
        # seed 81 draws deltas of order at most 2, where s + delta_s a and
        # s - delta_s a agree; seed 29's draws and the two built complexes
        # have an image element of order > 2, so they see the gluing's sign
        rng, signed = random.Random(81), random.Random(29)
        Z8 = FgAbGroup.cyclic(8)
        built = [Complex((Z3, Z3, Z2), (GroupHom.identity(Z3),
                                        GroupHom.zero(Z3, Z2))),
                 Complex((Z8, Z8, Z2), (GroupHom(Z8, Z8, [[2]]),
                                        GroupHom(Z8, Z2, [[1]])))]
        drawn = [random_complex3(signed, 9) for _ in range(10)]
        seen = [X for X in drawn + built
                if any(X.maps[0](a) != -X.maps[0](a)
                       for a in X.terms[0].elements())]
        assert len(seen) == 5
        for X in [random_complex3(rng, 9) for _ in range(10)] + drawn + built:
            for build in (sum_model, kernel_sum_model):
                alt, mor = build(X)
                assert is_acyclic(alt)
                assert is_quasi_isomorphism(mor).is_qiso


class TestForgetful:
    def test_two_term_squares(self):
        X = c2_times2()
        mor = forgetful_morphism_1(X)
        U, emb = unit_complex_1(X)
        # exhaustive square check on elements
        for a in X.terms[0].elements():
            assert mor.map_at(0)(U.maps[0](a)) == \
                X.maps[0](mor.map_at(-1)(a))
        # projection of the kernel member (1, 2) is 2
        one = [k for k in U.terms[1].elements() if emb(k).coords == (1, 2)]
        assert mor.map_at(0)(one[0]).coords == (2,)

    def test_trivial(self):
        X = Complex((TRIV, TRIV), (GroupHom.zero(TRIV, TRIV),))
        mor = forgetful_morphism_1(X)
        assert mor.map_at(0) == GroupHom.zero(TRIV, TRIV)

    def test_three_term_squares(self):
        X = c3_zero_id()
        mor = forgetful_morphism_2(X)
        U = mor.source
        for d in (-2, -1):
            for x in U.group_at(d).elements():
                assert mor.map_at(d + 1)(U.differential(d)(x)) == \
                    X.differential(d)(mor.map_at(d)(x))


class TestLevelTwoFromLevelOne:
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([2, 3]),
           st.booleans())
    def test_builders_equal_their_direct_oracles(self, rng, terms, free):
        X = drawn_complex(rng, terms, free)
        for build, oracle in DIRECT[terms]:
            assert build(X) == oracle(X), build.__name__

    def test_no_builder_makes_more_smith_forms(self, monkeypatch):
        # kernel_model and kernel_sum_model drop a direct sum and a lift
        # through the embedding, the other builders at least break even
        rng = random.Random(229)
        complexes = {terms: [drawn_complex(rng, terms, k % 3 == 0)
                             for k in range(12)] for terms in (2, 3)}
        calls = []
        snf = abelian._snf_full
        monkeypatch.setattr(abelian, "_snf_full",
                            lambda *a, **k: calls.append(1) or snf(*a, **k))

        def count(f, X):
            calls.clear()
            f(X)
            return len(calls)

        fewer = {kernel_model, kernel_sum_model}
        for terms, builders in DIRECT.items():
            for build, oracle in builders:
                pairs = [(count(build, X), count(oracle, X))
                         for X in complexes[terms]]
                assert all(n <= m for n, m in pairs), build.__name__
                if build in fewer:
                    assert sum(n for n, _ in pairs) < \
                        sum(m for _, m in pairs), build.__name__
        # each level-2 model glues a level-1 model of lam and the unit
        # complex of lam, one direct sum each: over these 50 complexes
        # sum_model makes 309 Smith forms and kernel_sum_model 465
        rng = random.Random(12)
        drawn = [drawn_complex(rng, 3, k % 3 == 0) for k in range(50)]
        assert sum(count(sum_model, X) for X in drawn) <= 309
        assert sum(count(kernel_sum_model, X) for X in drawn) <= 465

    @pytest.mark.parametrize("build,level1", [
        ("sum_model", "identity_model"),
        ("kernel_sum_model", "kernel_model")])
    def test_level_two_models_glue_a_level_one_model_of_lam(
            self, monkeypatch, build, level1):
        seen, second = [], []
        for name in ("identity_model", "kernel_model"):
            real = getattr(complexes_module, name)
            monkeypatch.setattr(complexes_module, name, lambda X, name=name,
                                real=real: seen.append((name, X)) or real(X))
        unit2 = complexes_module.unit_complex_2
        monkeypatch.setattr(complexes_module, "unit_complex_2",
                            lambda X: second.append(X) or unit2(X))
        rng = random.Random(39)
        for X in (c3_zero_id(), *(drawn_complex(rng, 3, k % 2 == 0)
                                  for k in range(4))):
            seen.clear()
            _, mor = getattr(complexes_module, build)(X)
            assert seen == [(level1, Complex(X.terms[1:], X.maps[1:]))]
            assert mor.target == unit2(X)[0]
        assert second == []

    def test_level_two_calls_level_one_of_lam(self, monkeypatch):
        seen = []
        level1 = complexes_module.unit_complex_1
        monkeypatch.setattr(complexes_module, "unit_complex_1",
                            lambda X: seen.append(X) or level1(X))
        X = c3_zero_id()
        U, emb = complexes_module.unit_complex_2(X)
        assert seen == [Complex(X.terms[1:], X.maps[1:])]
        assert emb == unit_complex_1(seen[0])[1]
