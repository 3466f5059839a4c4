import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from unital import point_models
from unital.cech import cech_nerve
from unital.covers import point_cover
from unital.crossed import (
    CrossedModule,
    FiniteGroup,
    descent_identity_check,
    enumerate_unit_triples,
    enumerate_units_nonabelian,
    h0_group_law,
    pi0_order,
    pi1_order,
    unit_crossed_module,
    verify_crossed_module,
)
from unital.coded import unit_morphism_checks
from unital.point_models import verify_contractible_1
from unital.specfile import SpecError, parse_spec
from unital.verification import CapExceeded

from test_cech import circle_cover
from test_coded_groups import is_abelian
from test_complexes import random_complex2
from test_golden_digests import _corpus


# ---- finite groups by table that only the tests build ----


def dihedral(n):
    """Order 2n: (i, f) with (i1,f1)(i2,f2) = (i1 + (-1)^f1 i2, f1+f2)."""
    elems = [(i, f) for f in range(2) for i in range(n)]
    index = {e: k for k, e in enumerate(elems)}

    def mul(x, y):
        i1, f1 = x
        i2, f2 = y
        return ((i1 + (i2 if f1 == 0 else -i2)) % n, (f1 + f2) % 2)

    table = [[index[mul(x, y)] for y in elems] for x in elems]
    return FiniteGroup(table, f"D{n}")


def direct_product(a, b):
    elems = [(x, y) for x in a.elements() for y in b.elements()]
    index = {e: k for k, e in enumerate(elems)}
    table = [[index[(a.mul(x1, x2), b.mul(y1, y2))]
              for (x2, y2) in elems] for (x1, y1) in elems]
    return FiniteGroup(table, f"{a.name} x {b.name}")


def subgroup(big, subset, name=None):
    """The subgroup on the given closed subset, with its inclusion map."""
    subset = tuple(sorted(subset))
    pos = {g: k for k, g in enumerate(subset)}
    table = [[pos[big.mul(x, y)] for y in subset] for x in subset]
    return FiniteGroup(table, name or f"sub({big.name})"), subset


def conj(G, a, b):
    """b^-1 a b, read off the table."""
    return G.table[G.table[G.inverse[b]][a]][b]


def closure(G, gens):
    out = {G.identity}
    frontier = set(gens) | {G.identity}
    while frontier:
        new = set()
        for a in frontier:
            for b in list(out) + list(gens):
                for c in (G.mul(a, b), G.mul(b, a), G.inverse[a]):
                    if c not in out and c not in frontier:
                        new.add(c)
        out |= frontier
        frontier = new
    return tuple(sorted(out))


def is_normal(G, subset):
    sub = set(subset)
    return all(conj(G, a, b) in sub for a in sub for b in range(G.order))


def point_nerve():
    return cech_nerve(point_cover())


def conjugation_module(G, name=None):
    """(id: G -> G) with right conjugation action g^h = h^-1 g h."""
    boundary = tuple(G.elements())
    action = tuple(tuple(conj(G, g, h) for h in G.elements())
                   for g in G.elements())
    return CrossedModule(G, G, boundary, action)


def inversion_module():
    """(trivial: Z/3 -> Z/2) with the nonidentity element acting by inversion."""
    G = FiniteGroup.cyclic(3)
    H = FiniteGroup.cyclic(2)
    boundary = (0, 0, 0)
    action = tuple((g, (-g) % 3) for g in range(3))
    return CrossedModule(G, H, boundary, action)


def inclusion_module(big, subset):
    """(N -> G) for a normal subgroup N, with conjugation action."""
    sub, elems = subgroup(big, subset)
    pos = {g: k for k, g in enumerate(elems)}
    boundary = elems
    action = tuple(tuple(pos[conj(big, g, h)] for h in big.elements())
                   for g in elems)
    return CrossedModule(sub, big, boundary, action)


def module_action_module(n, m, u):
    """(trivial: Z/n -> Z/m) with h acting by multiplication by u^h."""
    assert pow(u, m, n) == 1 % n
    G = FiniteGroup.cyclic(n)
    H = FiniteGroup.cyclic(m)
    boundary = (0,) * n
    action = tuple(tuple((g * pow(u, h, n)) % n for h in range(m))
                   for g in range(n))
    return CrossedModule(G, H, boundary, action)


GROUP_POOL = [
    FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.cyclic(4),
    FiniteGroup.cyclic(5), FiniteGroup.cyclic(6), FiniteGroup.cyclic(8),
    FiniteGroup.cyclic(12), FiniteGroup.symmetric(3),
    dihedral(4), dihedral(6),
    direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
    direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(6)),
]

MODULE_ACTION_CASES = [(3, 2, 2), (5, 2, 4), (5, 4, 2), (7, 3, 2),
                       (8, 2, 3), (9, 3, 4), (12, 2, 5), (4, 2, 3)]


def random_crossed_module(rng, max_order=12):
    while True:
        kind = rng.choice(["conjugation", "inclusion", "module", "trivial"])
        if kind == "conjugation":
            G = rng.choice([g for g in GROUP_POOL if g.order <= max_order])
            return conjugation_module(G)
        if kind == "inclusion":
            G = rng.choice([g for g in GROUP_POOL if g.order <= max_order])
            gens = [rng.randrange(G.order) for _ in range(rng.randint(1, 2))]
            subset = closure(G, gens)
            if is_normal(G, subset):
                return inclusion_module(G, subset)
            continue
        if kind == "module":
            n, m, u = rng.choice(MODULE_ACTION_CASES)
            if n <= max_order and m <= max_order:
                return module_action_module(n, m, u)
            continue
        G = rng.choice([g for g in GROUP_POOL
                        if g.order <= max_order and is_abelian(g)])
        H = rng.choice([g for g in GROUP_POOL if g.order <= max_order])
        boundary = (0,) * G.order  # wrong unless identity index is 0
        if H.identity != 0:
            continue
        action = tuple(tuple(g for _ in H.elements()) for g in G.elements())
        return CrossedModule(G, H, boundary, action)


class TestFiniteGroup:
    def test_s3(self):
        S3 = FiniteGroup.symmetric(3)
        assert S3.order == 6 and not is_abelian(S3)

    def test_dihedral(self):
        D4 = dihedral(4)
        assert D4.order == 8 and not is_abelian(D4)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            FiniteGroup(((0, 1), (1, 1)))

    def test_closure_and_normality(self):
        S3 = FiniteGroup.symmetric(3)
        three_cycles = [g for g in S3.elements()
                        if g != S3.identity and
                        S3.mul(g, S3.mul(g, g)) == S3.identity]
        A3 = closure(S3, three_cycles[:1])
        assert len(A3) == 3 and is_normal(S3, A3)


def _assert_table_agrees(table):
    """FiniteGroup accepts the table with the oracle's identity and
    inverses, or refuses it with the oracle's message."""
    want = oracles.group_table_error(table)
    if want is None:
        G = FiniteGroup(table)
        assert (G.identity, list(G.inverse)) == (
            oracles.group_identity(table), oracles.group_inverses(table))
    else:
        with pytest.raises(ValueError) as exc:
            FiniteGroup(table)
        assert str(exc.value) == want


class TestTableValidation:
    def test_every_magma_up_to_order_3(self):
        for n in range(1, 4):
            for entries in itertools.product(range(n), repeat=n * n):
                _assert_table_agrees([entries[k:k + n]
                                      for k in range(0, n * n, n)])

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([FiniteGroup.symmetric(3), FiniteGroup.cyclic(5),
                            dihedral(4), dihedral(6),
                            FiniteGroup.symmetric(4)]), st.data())
    def test_one_entry_perturbations(self, G, data):
        n = G.order
        table = [list(row) for row in G.table]
        a, b, x = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table[a][b] = x
        _assert_table_agrees(table)


class TestIntegerIndices:
    """The tables take element indices as ints only, as an input file
    does: int() would read 1.5 as 1, and a float equal to an index passes
    a range check and fails later as an index."""

    def test_group_table_refuses_a_float(self):
        with pytest.raises(ValueError, match="must be element indices"):
            FiniteGroup([[0, 1.5], [1.5, 0]])

    def test_crossed_module_refuses_a_float(self):
        Z3, one = FiniteGroup.cyclic(3), FiniteGroup.trivial()
        for boundary, action in [([0.0, 0, 0], [[0], [1], [2]]),
                                 ([0, 0, 0], [[0], [1.0], [2]])]:
            with pytest.raises(ValueError, match="must be element indices"):
                CrossedModule(Z3, one, boundary, action)

    def test_group_law_refuses_a_float(self):
        X, one = conjugation_module(FiniteGroup.cyclic(3)), ((0,),) * 3
        with pytest.raises(ValueError, match=re.escape(
                "g' must have length 1, one index below 3 per level-0 cell")):
            h0_group_law(X, point_nerve(), one, ((0,), (1.0,), (0,)))


class TestVerify:
    def test_conjugation_passes(self):
        rep = verify_crossed_module(conjugation_module(
            FiniteGroup.symmetric(3)))
        assert rep.passed

    def test_inversion_passes(self):
        assert verify_crossed_module(inversion_module()).passed

    def test_transposition_with_trivial_action_fails_equivariance(self):
        S3 = FiniteGroup.symmetric(3)
        transpositions = [g for g in S3.elements()
                          if g != S3.identity
                          and S3.mul(g, g) == S3.identity]
        Z2 = FiniteGroup.cyclic(2)
        boundary = (S3.identity, transpositions[0])
        action = tuple(tuple(g for _ in S3.elements()) for g in range(2))
        X = CrossedModule(Z2, S3, boundary, action)
        rep = verify_crossed_module(X)
        assert not rep.passed
        failed = [c.name for c in rep.failures]
        assert "equivariance: bnd(g^h) = h^-1 bnd(g) h" in failed

    def test_random_families_pass(self):
        rng = random.Random(211)
        for _ in range(15):
            assert verify_crossed_module(random_crossed_module(rng)).passed


class TestUnitCrossedModule:
    def test_s3_identity(self):
        X = conjugation_module(FiniteGroup.symmetric(3))
        U = unit_crossed_module(X)
        assert U.H.order == 6
        assert pi0_order(U) == 1 and pi1_order(U) == 1
        # boundary is injective and surjective, an isomorphism onto K
        assert len(set(U.boundary)) == U.G.order == U.H.order

    def test_inversion_module(self):
        U = unit_crossed_module(inversion_module())
        assert U.H.order == 3
        assert pi0_order(U) == 1 and pi1_order(U) == 1

    def test_trivial(self):
        X = conjugation_module(FiniteGroup.trivial())
        U = unit_crossed_module(X)
        assert U.G.order == 1 and U.H.order == 1

    def test_random(self):
        rng = random.Random(223)
        for _ in range(12):
            U = unit_crossed_module(random_crossed_module(rng))
            assert verify_crossed_module(U).passed
            assert pi0_order(U) == 1 and pi1_order(U) == 1


# --------------------------------------------------------------------------
# the row checks and the unit module against the element-by-element oracles


def quotient_module(n, m):
    """(Z/n -> Z/m, g |-> g mod m) with the trivial action, for m | n."""
    G, H = FiniteGroup.cyclic(n), FiniteGroup.cyclic(m)
    return CrossedModule(G, H, [g % m for g in G.elements()],
                         [(g,) * m for g in G.elements()])


ORACLE_MODULES = [
    conjugation_module(FiniteGroup.symmetric(3)),
    conjugation_module(dihedral(4)),
    module_action_module(7, 3, 2),  # Z/7 semidirect Z/3
    quotient_module(8, 4),
    inversion_module(),
    inclusion_module(FiniteGroup.symmetric(3), (0, 3, 4)),  # A3 in S3
    inclusion_module(dihedral(4), range(4)),  # the rotations in D4
    conjugation_module(FiniteGroup.trivial()),
    quotient_module(6, 3),
]


def _relabeled(X, pG, pH):
    """X with each element a of G renamed pG[a] and h of H renamed pH[h]."""
    def renamed(group, p):
        table = [[0] * group.order for _ in p]
        for a, row in enumerate(group.table):
            for b, x in enumerate(row):
                table[p[a]][p[b]] = p[x]
        return FiniteGroup(table, group.name)

    boundary, action = [0] * X.G.order, [[0] * X.H.order for _ in pG]
    for g, row in enumerate(X.action):
        boundary[pG[g]] = pH[X.boundary[g]]
        for h, x in enumerate(row):
            action[pG[g]][pH[h]] = pG[x]
    return CrossedModule(renamed(X.G, pG), renamed(X.H, pH), boundary,
                         action)


@st.composite
def drawn_modules(draw):
    """A relabeled module of ORACLE_MODULES, and, in most draws, one entry
    of its action or boundary moved to another element."""
    X = draw(st.sampled_from(ORACLE_MODULES))
    X = _relabeled(X, draw(st.permutations(range(X.G.order))),
                   draw(st.permutations(range(X.H.order))))
    boundary, action = list(X.boundary), [list(r) for r in X.action]
    where = draw(st.sampled_from(["none", "action", "boundary"]))
    g = draw(st.integers(0, X.G.order - 1))
    if where == "action" and X.G.order > 1:
        h = draw(st.integers(0, X.H.order - 1))
        action[g][h] = (action[g][h] + draw(st.integers(1, X.G.order - 1))) \
            % X.G.order
    if where == "boundary" and X.H.order > 1:
        boundary[g] = (boundary[g] + draw(st.integers(1, X.H.order - 1))) \
            % X.H.order
    return CrossedModule(X.G, X.H, boundary, action)


def _oracle_body(X):
    """The report body of ``verify_crossed_module`` from the oracle."""
    found = oracles.crossed_module_violations(X.G.table, X.H.table,
                                              X.boundary, X.action)
    return {"command": f"crossed module axioms for {X}", "input_digest": "",
            "checks": [{"name": name, "status": "fail" if w else "pass",
                        "witness": list(w) if w else None}
                       for name, w in found],
            "data": {"|G|": X.G.order, "|H|": X.H.order}}


def _assert_matches_oracles(X):
    body = verify_crossed_module(X).body()
    assert body == _oracle_body(X)
    if any(c["status"] == "fail" for c in body["checks"]):
        with pytest.raises(ValueError, match="not a crossed module"):
            unit_crossed_module(X)
        return
    U = unit_crossed_module(X)
    assert (U.G, U.H.table, U.boundary, U.action) == \
        (X.G, *oracles.unit_module_by_search(X.G.table, X.H.table,
                                            X.boundary, X.action))
    assert U.H.name == f"ker({X.G.name} semidirect {X.H.name} -> {X.H.name})"
    assert verify_crossed_module(U).body() == _oracle_body(U)
    assert (pi0_order(U), pi1_order(U)) == (1, 1)


class TestAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(drawn_modules())
    def test_drawn_modules(self, X):
        _assert_matches_oracles(X)

    @pytest.mark.parametrize("X", ORACLE_MODULES, ids=str)
    def test_every_one_entry_mutation(self, X):
        # each boundary and action entry moved to every other element: a
        # first violation in the last row or the last column is among them
        _assert_matches_oracles(X)
        for g, h, x in itertools.product(X.G.elements(), X.H.elements(),
                                         X.G.elements()):
            if x != X.action[g][h]:
                action = [list(r) for r in X.action]
                action[g][h] = x
                _assert_matches_oracles(
                    CrossedModule(X.G, X.H, X.boundary, action))
        for g, e in itertools.product(X.G.elements(), X.H.elements()):
            if e != X.boundary[g]:
                boundary = list(X.boundary)
                boundary[g] = e
                _assert_matches_oracles(
                    CrossedModule(X.G, X.H, boundary, X.action))

    def test_corpus_crossed_modules(self):
        # every crossed-module input of the benchmark corpus that parses
        corpus, checked = _corpus(), 0
        for workload in corpus.WORKLOADS:
            for item in corpus.all_variants(workload):
                if '"crossed_module"' not in item["spec"]:
                    continue
                try:
                    X = parse_spec(item["spec"]).payload
                except SpecError:
                    continue
                _assert_matches_oracles(X)
                checked += 1
        assert checked == 120


class TestNonabelianUnits:
    def test_inversion_units(self):
        units, rep = enumerate_units_nonabelian(inversion_module())
        assert len(units) == 3
        assert all(e == 0 for e, _ in units)
        assert rep.passed

    def test_s3_units(self):
        units, rep = enumerate_units_nonabelian(
            conjugation_module(FiniteGroup.symmetric(3)))
        assert len(units) == 6
        assert rep.passed

    def test_trivial(self):
        units, rep = enumerate_units_nonabelian(
            conjugation_module(FiniteGroup.trivial()))
        assert len(units) == 1 and rep.passed

    def test_kernel_parametrizes_identity_units(self):
        rng = random.Random(227)
        for _ in range(10):
            X = random_crossed_module(rng)
            units, _ = enumerate_units_nonabelian(X)
            with_e1 = sorted(g for e, g in units if e == X.H.identity)
            ker = sorted(g for g in X.G.elements()
                         if X.boundary[g] == X.H.identity)
            assert with_e1 == ker

    def test_random_contractible(self):
        rng = random.Random(229)
        for _ in range(8):
            _, rep = enumerate_units_nonabelian(random_crossed_module(rng, 8))
            assert rep.passed


def random_tables(rng):
    """Uniformly random boundary and action tables between two pool groups;
    these almost never satisfy the crossed-module axioms."""
    G, H = rng.choice(GROUP_POOL), rng.choice(GROUP_POOL)
    boundary = [rng.randrange(H.order) for _ in G.elements()]
    action = [[rng.randrange(G.order) for _ in H.elements()]
              for _ in G.elements()]
    return CrossedModule(G, H, boundary, action)


def unit_morphisms_by_method(X, units):
    """(s, t, solutions, formula) for each ordered pair of units (e, g_phi):
    the unit morphisms s -> t found by trying every element of G, and the
    formula morphism (g_t^(e_t^-1))^-1 (g_s^(e_s^-1))."""
    G, H = X.G, X.H
    out = []
    for (e_s, g_s), (e_t, g_t) in itertools.product(units, repeat=2):
        sols = [u for u in G.elements()
                if X.boundary[u] == H.mul(H.inverse[e_t], e_s)
                and G.mul(u, g_s) == G.mul(g_t, G.mul(X.action[u][e_t], u))]
        formula = G.mul(G.inverse[X.action[g_t][H.inverse[e_t]]],
                        X.action[g_s][H.inverse[e_s]])
        out.append(((e_s, g_s), (e_t, g_t), sols, formula))
    return out


class TestUnitScan:
    CHECKS = ["unit set nonempty",
              "units over the identity are the kernel of the boundary",
              "exactly one unit morphism per ordered pair",
              "composition of unique morphisms is coherent"]

    def test_tables_failing_the_axioms_fail_named_checks(self):
        rng = random.Random(251)
        for _ in range(200):
            X = random_tables(rng)
            assert not verify_crossed_module(X).passed
            units, rep = enumerate_units_nonabelian(X)
            assert [c.name for c in rep.checks] == self.CHECKS
            pairs = unit_morphisms_by_method(X, units)
            failures = [(s, t, sols) for s, t, sols, u in pairs
                        if sols != [u]]
            assert failures and not rep.passed
            pair = rep.checks[2]
            assert not pair.passed and pair.witness == failures[:3]
            pair_failures, coherence_failures, unique = unit_morphism_checks(
                X.G, X.H, X.boundary, X.action, units, lambda unit: unit)
            assert pair_failures == failures
            assert [not pair_failures, not coherence_failures] == \
                [c.passed for c in rep.checks[2:]]
            assert coherence_failures[:3] == (rep.checks[3].witness or [])
            assert unique == sum(len(sols) == 1 for _, _, sols, _ in pairs)

    def test_trivial_action_module_matches_level_1(self):
        # lam: A -> B with trivial action presents the Picard groupoid of
        # the 2-term complex, so the shared checks must agree exactly
        rng = random.Random(257)
        for _ in range(20):
            Y = random_complex2(rng, 64)
            (A, B), (lam,) = point_models._tables(Y)
            X = CrossedModule(A, B, lam,
                              tuple((a,) * B.order for a in A.elements()))
            _, rep = enumerate_units_nonabelian(X)
            level_1 = verify_contractible_1(Y)
            shared = {c.name for c in level_1.checks}
            assert [c for c in rep.checks if c.name in shared] == \
                level_1.checks
            assert len(shared) == 3 and rep.data["units"] == A.order


# --------------------------------------------------------------------------
# descent triples: a brute-force oracle on cells by name


def _named(N, t):
    """A coded triple as dicts by cell: g on level 1, g' and h on level 0."""
    return tuple(dict(zip(N.level(k), part)) for k, part in zip((1, 0, 0), t))


def _coded(N, t):
    return tuple(tuple(part[c] for c in N.level(k))
                 for k, part in zip((1, 0, 0), t))


def _d(N, i, c):
    """d_i of a level-1 cell, from the cover's own tables."""
    return oracles.oracle_face(N.cover, c, i)


def oracle_triple(X, N, values):
    """The descent triple over g' = values in cell order: h by search for
    bnd(g') h = 1, and g = d0*(g') (d1*(g'))^-1 read off the faces."""
    G, H = X.G, X.H
    gp = dict(zip(N.level(0), values))
    h = {c: next(y for y in H.elements()
                 if H.mul(X.boundary[x], y) == H.identity)
         for c, x in gp.items()}
    g = {c: G.mul(gp[_d(N, 0, c)], G.inverse[gp[_d(N, 1, c)]])
         for c in N.level(1)}
    return _coded(N, (g, gp, h))


def oracle_triples(X, N):
    """Every descent triple, in the order of g' in G(V_0)."""
    return [oracle_triple(X, N, values) for values in
            itertools.product(X.G.elements(), repeat=len(N.level(0)))]


def oracle_one(X, N):
    """The triple (1, 1, 1), over g' = 1."""
    return oracle_triple(X, N, [X.G.identity] * len(N.level(0)))


def oracle_law(X, N, t1, t2):
    """(g1^(d0* h2) g2, g1'^(h2) g2', h1 h2), cell by cell."""
    (g1, gp1, h1), (g2, gp2, h2) = _named(N, t1), _named(N, t2)
    G, H = X.G, X.H
    return _coded(N, (
        {c: G.mul(X.action[g1[c]][h2[_d(N, 0, c)]], g2[c])
         for c in g1},
        {c: G.mul(X.action[gp1[c]][h2[c]], gp2[c]) for c in gp1},
        {c: H.mul(h1[c], h2[c]) for c in h1}))


def oracle_inverse(X, N, t):
    """The explicit inverse ((g^-1)^(d0* h^-1), (g'^-1)^(h^-1), h^-1)."""
    g, gp, h = _named(N, t)
    G, H = X.G, X.H
    return _coded(N, (
        {c: X.action[G.inverse[g[c]]][H.inverse[h[_d(N, 0, c)]]]
         for c in g},
        {c: X.action[G.inverse[gp[c]]][H.inverse[h[c]]] for c in gp},
        {c: H.inverse[h[c]] for c in h}))


def inverses_by_search(X, N, t, triples=None):
    """Every triple s with t s = (1,1,1) = s t under the oracle law."""
    one = oracle_one(X, N)
    return [s for s in triples or oracle_triples(X, N)
            if oracle_law(X, N, t, s) == one == oracle_law(X, N, s, t)]


def law_modules():
    """The inversion module, whose h is always 1, then three modules whose
    h and action both vary, so that both twists of the law matter."""
    return [inversion_module(), conjugation_module(FiniteGroup.symmetric(3)),
            conjugation_module(dihedral(4)),
            inclusion_module(FiniteGroup.symmetric(3), (0, 3, 4))]  # A3


NERVES = pytest.mark.parametrize("nerve", ["point", "circle"])


def _nerve(name):
    return point_nerve() if name == "point" else cech_nerve(circle_cover())


class TestH0GroupLaw:
    def test_formula_example(self):
        # raw product formula on the inversion module, additive notation
        X = inversion_module()
        act, mul_g, mul_h = X.action, X.G.mul, X.H.mul
        g = mul_g(act[1][1], 2)       # g1^(h2) * g2 with g1=1, g2=2, h2=1
        gp = mul_g(act[2][1], 2)      # g1'^(h2) * g2' with g1'=g2'=2
        h = mul_h(1, 1)
        assert (g, gp, h) == (1, 0, 0)

    @NERVES
    def test_triples_and_law_match_the_oracle(self, nerve):
        N, rng = _nerve(nerve), random.Random(f"law{nerve}")
        for X in law_modules()[:3] + [random_crossed_module(rng, 8)
                                      for _ in range(4)]:
            triples = list(enumerate_unit_triples(X, N))
            assert triples == oracle_triples(X, N)
            pairs = itertools.product(triples, repeat=2) \
                if len(triples) <= 12 else \
                [rng.sample(triples, 2) for _ in range(64)]
            for t1, t2 in pairs:
                assert h0_group_law(X, N, t1, t2) == \
                    oracle_law(X, N, t1, t2)

    def test_identity_and_validation(self):
        # each product validates both operands on the way
        for N, X in itertools.product(map(_nerve, ("point", "circle")),
                                      law_modules()[:3]):
            one = oracle_one(X, N)
            for t in enumerate_unit_triples(X, N):
                assert h0_group_law(X, N, t, one) == t == \
                    h0_group_law(X, N, one, t)

    def test_inverses_by_search(self):
        # the explicit inverse is the one triple that the search finds
        rng = random.Random(237)
        for N, X in itertools.product(map(_nerve, ("point", "circle")),
                                      law_modules()[:2]):
            one, triples = oracle_one(X, N), oracle_triples(X, N)
            for t in rng.sample(triples, min(len(triples), 12)):
                inv = oracle_inverse(X, N, t)
                assert inverses_by_search(X, N, t, triples) == [inv]
                assert h0_group_law(X, N, t, inv) == one == \
                    h0_group_law(X, N, inv, t)

    def test_associative_exhaustive_point(self):
        rng = random.Random(233)
        N = point_nerve()
        for X in law_modules() + [random_crossed_module(rng, 8)
                                  for _ in range(6)]:
            triples = list(enumerate_unit_triples(X, N))
            for t1, t2, t3 in itertools.product(triples[:6], repeat=3):
                assert h0_group_law(X, N, h0_group_law(X, N, t1, t2), t3) \
                    == h0_group_law(X, N, t1, h0_group_law(X, N, t2, t3))

    def test_associative_on_circle(self):
        N = cech_nerve(circle_cover())
        rng = random.Random(239)
        for X in law_modules()[:2]:
            triples = list(enumerate_unit_triples(X, N))
            assert len(triples) == X.G.order ** 3
            sample = rng.sample(triples, 6)
            for t1, t2, t3 in itertools.product(sample, repeat=3):
                assert h0_group_law(X, N, h0_group_law(X, N, t1, t2), t3) \
                    == h0_group_law(X, N, t1, h0_group_law(X, N, t2, t3))

    def test_matches_unit_morphism_composition(self):
        # over e = identity the twist is trivial: the triple of unit b,
        # inverted, times the triple of unit a has g' = the unit morphism
        # a -> b, exactly as the unique unit morphisms compose
        rng = random.Random(241)
        N = point_nerve()
        for _ in range(8):
            X = random_crossed_module(rng)
            one = X.H.identity
            ker = [g for g in X.G.elements() if X.boundary[g] == one]
            triples = list(enumerate_unit_triples(X, N))
            for (_, a), (_, b), sols, u in unit_morphisms_by_method(
                    X, [(one, g) for g in ker]):
                assert sols == [u] == [X.G.mul(X.G.inverse[b], a)]
                assert triples[a][1] == (a,) and triples[b][1] == (b,)
                [inv] = inverses_by_search(X, N, triples[b])
                assert h0_group_law(X, N, inv, triples[a])[1] == (u,)

    def test_invalid_triple_rejected(self):
        X = inversion_module()
        N = point_nerve()
        _, gp, h = list(enumerate_unit_triples(X, N))[1]  # g' = 1: g = 0
        tampered = ((1,), gp, h)
        with pytest.raises(ValueError, match="level-1 condition"):
            h0_group_law(X, N, tampered, tampered)

    @pytest.mark.parametrize("side", [0, 1])
    def test_each_validation_error_names_its_cell(self, side):
        X = conjugation_module(FiniteGroup.symmetric(3))
        N = cech_nerve(circle_cover())
        t = list(enumerate_unit_triples(X, N))[100]
        g, gp, h = t
        for k, cell in enumerate(N.level(0)):
            bad = (g, gp, h[:k] + (X.H.mul(h[k], 1),) + h[k + 1:])
            with pytest.raises(ValueError, match=re.escape(
                    f"membership bnd(g') h = 1 fails at {cell}")):
                h0_group_law(X, N, *[(t, bad), (bad, t)][side])
        for k, cell in enumerate(N.level(1)):
            bad = (g[:k] + (X.G.mul(g[k], 1),) + g[k + 1:], gp, h)
            with pytest.raises(ValueError, match=re.escape(
                    "level-1 condition g = d0*(g') (d1*(g'))^-1 fails at "
                    f"{cell}")):
                h0_group_law(X, N, *[(t, bad), (bad, t)][side])
        # a part of the wrong length, or with an index outside its group,
        # is named before the triple is rebuilt from g'
        shape_g = "g must have length 9, one index below 6 per level-1 cell"
        shape_gp = "g' must have length 3, one index below 6 per level-0 cell"
        shape_h = "h must have length 3, one index below 6 per level-0 cell"
        Z3, P = conjugation_module(FiniteGroup.cyclic(3)), point_nerve()
        one = ((0,), (0,), (0,))
        shape_z3 = "g' must have length 1, one index below 3 per level-0 cell"
        for M, nerve, good, bad, message in [
                (X, N, t, (g[:-1], gp, h), shape_g),
                (X, N, t, (g + (0,), gp, h), shape_g),
                (X, N, t, (g[:-1] + (6,), gp, h), shape_g),
                (X, N, t, (g, gp[:-1], h), shape_gp),
                (X, N, t, (g, gp + (0,), h), shape_gp),
                (X, N, t, (g, (-1,) + gp[1:], h), shape_gp),
                (X, N, t, (g, gp, h[:-1]), shape_h),
                (X, N, t, (g, gp, h + (0,)), shape_h),
                (X, N, t, (g, gp, h[:-1] + (6,)), shape_h),
                (Z3, P, one, ((0,), (), ()), shape_z3),
                (Z3, P, one, ((0,), (5,), (0,)), shape_z3),
                (Z3, P, one, ((0,), (0, 0), (0,)), shape_z3)]:
            with pytest.raises(ValueError, match=re.escape(message)):
                h0_group_law(M, nerve, *[(good, bad), (bad, good)][side])


# --------------------------------------------------------------------------
# the coded descent-triple check against the oracle


def _identity_by_triples(X, N):
    """Oracle: crossed-units' check, t (1,1,1) = t for every triple, with
    the oracle's triples and law."""
    triples, one = oracle_triples(X, N), oracle_one(X, N)
    return (all(oracle_law(X, N, t, one) == t for t in triples),
            len(triples))


def _scrambled_action(rng, X, keep_identity):
    """X with a random action table, except that the identity of H acts
    trivially when ``keep_identity``."""
    H = X.H
    action = [[g if keep_identity and h == H.identity
               else rng.randrange(X.G.order) for h in H.elements()]
              for g in X.G.elements()]
    return CrossedModule(X.G, H, X.boundary, action)


class TestDescentIdentityCheck:
    @NERVES
    def test_matches_triples_on_random_modules(self, nerve):
        rng = random.Random(f"descent{nerve}")
        N = _nerve(nerve)
        for _ in range(12):
            X = random_crossed_module(rng, 12 if nerve == "point" else 8)
            assert descent_identity_check(X, N) == _identity_by_triples(X, N)
            assert descent_identity_check(X, N)[0]

    def test_bad_tables_agree(self):
        # tables that fail the axioms, passed straight to the check: a
        # scrambled action that keeps 1 acting trivially still has (1,1,1)
        # as identity, one that does not loses it
        rng = random.Random(263)
        N = cech_nerve(circle_cover())
        seen = set()
        for _ in range(30):
            X = random_crossed_module(rng, 6)
            for Y in (_scrambled_action(rng, X, True),
                      _scrambled_action(rng, X, False), random_tables(rng)):
                if Y.G.order ** 3 > 512:
                    continue
                got = descent_identity_check(Y, N)
                assert got == _identity_by_triples(Y, N)
                seen.add((verify_crossed_module(Y).passed, got[0]))
        assert {(False, True), (False, False)} <= seen
        # a boundary that moves 1, under the trivial action: the product
        # with (1,1,1) differs from t only in its h part
        G, H = FiniteGroup.cyclic(3), FiniteGroup.cyclic(2)
        Y = CrossedModule(G, H, (1, 1, 1), [(g, g) for g in G.elements()])
        assert descent_identity_check(Y, N) == _identity_by_triples(Y, N) \
            == (False, 27)

    def test_cap_is_charged_before_any_triple(self):
        class Trap(tuple):
            def __getitem__(self, k):
                raise AssertionError("a table was read")

        X = inversion_module()
        trapped = CrossedModule(X.G, X.H, X.boundary, X.action)
        object.__setattr__(trapped, "boundary", Trap(X.boundary))
        N = cech_nerve(circle_cover())  # 3^3 = 27 triples
        with pytest.raises(CapExceeded) as exc:
            descent_identity_check(trapped, N, max_states=26)
        assert str(exc.value) == "triple enumeration needs 27 states " \
            "(|G|^|V_0|), above the cap 26"
        assert descent_identity_check(X, N, max_states=27) == (True, 27)
