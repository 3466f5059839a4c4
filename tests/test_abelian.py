import random
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from unital.groups import _matmul, _matvec
from unital.verification import FinitenessError
from unital.abelian import (
    FgAbGroup,
    GroupElem,
    GroupHom,
    cokernel,
    direct_sum,
    direct_sum_many,
    is_isomorphism,
    kernel,
    lift_through,
    smith_normal_form,
    solve,
    _canonicalize_presentation,
    _identity,
    _snf_full,
)

from constructions import from_images
from oracles import (
    cokernel_order_2x2_bruteforce,
    invariant_factors_from_minors,
    invariant_factors_from_orders,
)


def mat_mul(A, B):
    k = len(B)
    n = len(B[0]) if B else 0
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)]
            for i in range(len(A))]


def det(M):
    if not M:
        return 1
    if len(M) == 1:
        return M[0][0]
    total = 0
    for j in range(len(M)):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det(minor)
    return total


def check_snf(M):
    U, D, V = smith_normal_form(M)
    m, n = len(M), len(M[0]) if M else 0
    UM = mat_mul([list(r) for r in U], [list(r) for r in M])
    UMV = mat_mul(UM, [list(r) for r in V])
    assert UMV == [list(r) for r in D]
    assert abs(det([list(r) for r in U])) == 1
    assert abs(det([list(r) for r in V])) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    assert all(d >= 0 for d in diag)
    return diag


class TestSmithNormalForm:
    def test_identity_case(self):
        _, D, _ = smith_normal_form([[1]])
        assert D == ((1,),)

    def test_zero_map(self):
        _, D, _ = smith_normal_form([[0]])
        assert D == ((0,),)

    def test_frozen_example(self):
        # cokernel order 20, confirmed by brute-force box enumeration
        M = [[2, 4], [-2, 6]]
        diag = check_snf(M)
        assert diag == [2, 10]
        assert cokernel_order_2x2_bruteforce(M) == 20
        assert prod(diag) == 20

    def test_empty_shapes(self):
        for M in ([], [[]], [[], []]):
            check_snf(M)

    def test_against_determinantal_divisors(self):
        # the smallest entry reaches the corner by a row and a column swap
        for M in ([[0, 2], [3, 0]], [[5, 0, 0], [0, 0, 2]]):
            assert check_snf(M) == invariant_factors_from_minors(M)
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            diag = check_snf(M)
            assert diag == invariant_factors_from_minors(M)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=6),
                    min_size=1, max_size=6).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_properties_random(self, M):
        check_snf(M)


class TestCanonicalForm:
    def test_from_divisors(self):
        assert FgAbGroup.from_divisors(2, 3).invariant_factors == (6,)
        assert FgAbGroup.from_divisors(2, 2).invariant_factors == (2, 2)
        assert FgAbGroup.from_divisors(1, 1) == FgAbGroup.trivial()
        assert FgAbGroup.from_divisors(0, 4, 6) == FgAbGroup((2, 12), 1)

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            FgAbGroup((3, 2), 0)
        with pytest.raises(ValueError):
            FgAbGroup((1,), 0)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(40):
            divs = [rng.choice([0, 2, 3, 4, 5, 6, 8, 9, 12])
                    for _ in range(rng.randint(0, 4))]
            G = FgAbGroup.from_divisors(*divs)
            again = FgAbGroup.from_divisors(*(G.invariant_factors
                                              + (0,) * G.free_rank))
            assert G == again

    def test_order_census_matches(self):
        # identical element-order multisets give identical invariant factors
        for divs in [(4, 2), (2, 4), (6, 2), (12,), (2, 3, 4), (8, 8)]:
            G = FgAbGroup.from_divisors(*divs)
            elems = list(G.elements())
            census = invariant_factors_from_orders(
                [e.coords for e in elems],
                lambda u, v: G.reduce(a + b for a, b in zip(u, v)),
                (0,) * G.ngens)
            assert census == [d for d in G.invariant_factors]

    def test_enumeration_guard(self):
        with pytest.raises(FinitenessError):
            list(FgAbGroup.free(1).elements())
        with pytest.raises(FinitenessError):
            FgAbGroup((2,), 1).order()


# the flags with which the library calls _snf_full: smith_normal_form and
# LinearSolver, _canonicalize_presentation, _int_kernel, and the default
CALLER_FLAGS = [(True, False, True), (True, True, False), (False, False, True),
                (True, True, True)]


@st.composite
def sparse_matrices(draw):
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-40, 40))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]


def triple_sum_matmul(A, B, m, k, n):
    """The plain triple sum over every index, the oracle of ``_matmul``."""
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)]
            for i in range(m)]


@st.composite
def matmul_shapes(draw):
    """(A, B, m, k, n) with A m-by-k and B k-by-n, any dimension 0, and
    most entries 0."""
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-40, 40))
    A, B = ([draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]
            for r, c in ((m, k), (k, n)))
    return A, B, m, k, n


class TestMatmul:
    @settings(max_examples=300, deadline=None)
    @given(matmul_shapes())
    def test_matches_the_triple_sum(self, shapes):
        assert _matmul(*shapes) == triple_sum_matmul(*shapes)

    def test_zero_rows_and_columns(self):
        assert _matmul([[], []], [], 2, 0, 3) == [[0] * 3] * 2
        assert _matmul([], [[1, 2]], 0, 1, 2) == []
        assert _matmul([[0, 5]], [[], []], 1, 2, 0) == [[]]


def plain_sum_matvec(A, v, m, k):
    """The plain sum over every index, the oracle of ``_matvec``."""
    return [sum(A[i][t] * v[t] for t in range(k)) for i in range(m)]


@st.composite
def matvec_shapes(draw):
    """(A, v, m, k) with A m-by-k, any dimension 0, and most entries of v
    and A 0."""
    m, k = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-40, 40))
    A = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
    return A, draw(st.lists(entry, min_size=k, max_size=k)), m, k


class TestMatvec:
    @settings(max_examples=300, deadline=None)
    @given(matvec_shapes())
    def test_matches_the_plain_sum(self, shapes):
        assert _matvec(*shapes) == plain_sum_matvec(*shapes)

    def test_zero_rows_and_columns(self):
        assert _matvec([[], []], [], 2, 0) == [0, 0]
        assert _matvec([], [3, 0], 0, 2) == []
        assert _matvec([[7, 5]], [0, 0], 1, 2) == [0]


class TestElimination:
    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices(), st.sampled_from([0, 2, 4, 6, 8, 12, 36, 64]),
           st.sampled_from(CALLER_FLAGS))
    def test_matches_the_extended_gcd_oracle(self, M, e, flags):
        m, n = len(M), len(M[0]) if M else 0
        full = _snf_full(M, modulus=e)
        # a transform not asked for is dropped, and nothing else changes
        wanted = (flags[0], flags[1], True, flags[2])
        assert _snf_full(M, *flags, modulus=e) == tuple(
            x if want else None for x, want in zip(full, wanted))
        U, Ui, D, V = full
        _, _, D0, _ = oracle_snf_full(M, modulus=e)
        assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        if e:
            assert [gcd(D[i][i], e) for i in range(min(m, n))] == \
                [gcd(D0[i][i], e) for i in range(min(m, n))]
        else:
            assert D == D0
            assert abs(det(U)) == 1 and abs(det(V)) == 1

        def red(A):
            return [[x % e for x in row] for row in A] if e else A
        assert red(mat_mul(mat_mul(U, M), V)) == red(D)
        assert red(mat_mul(U, Ui)) == red(_identity(m))

    def test_transforms_stay_small_on_dense_matrices(self):
        # extended-gcd steps give entries of 9,033 to 456,738 bits here
        for seed in range(1, 5):
            rng = random.Random(seed)
            M = [[rng.randint(-9, 9) for _ in range(45)] for _ in range(30)]
            U, Ui, _, V = _snf_full(M)
            assert max(abs(x).bit_length()
                       for T in (U, Ui, V) for row in T for x in row) <= 2048


# --------------------------------------------------------------------------
# the elimination that smallest-entry pivoting replaced, kept as the oracle
# of _snf_full


def oracle_snf_full(M, want_u=True, want_ui=True, want_v=True, modulus=0):
    """``abelian._snf_full`` by extended-gcd steps: an entry that the pivot
    does not divide is cleared by a unimodular 2 x 2 step on its row (or
    column) and the pivot's, which leaves (gcd, 0).  Its transforms grow
    quickly on dense matrices, but its D is the reference.

    Returns ``(U, Ui, D, V)`` with ``U * M * V == D`` and ``Ui`` the inverse
    of ``U``; transforms not asked for come back None.

    A nonzero ``modulus`` e runs the same steps with every entry that a step
    touches reduced into [0, e), so the two equations hold modulo e.  Each
    reduction adjoins a vector of e * Z^m, so ``D`` then presents the
    quotient by the columns together with e * Z^m (see
    ``_canonicalize_presentation``).
    """
    e = modulus
    A = [[int(x) % e if e else int(x) for x in row] for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    # Row i of W is row i of A followed by row i of U, and the rows of V
    # follow, so that one step on two rows or two columns of W carries the
    # transforms along.  Ui takes the inverse row steps on its columns, so
    # it is held transposed.
    W = ([row + u for row, u in zip(A, _identity(m))] if want_u else A) \
        + (_identity(n) if want_v else [])
    UiT = _identity(m) if want_ui else None

    def lin(p, q, x, y, u, v):
        # (p, q) <- (x p + y q, u p + v q) in place, with x v - y u = 1;
        # y = 0 comes with x = v = 1 and changes q only
        if y:
            for s in range(len(p)):
                a, b = p[s], q[s]
                p[s] = (x * a + y * b) % e if e else x * a + y * b
                q[s] = (u * a + v * b) % e if e else u * a + v * b
        else:
            for s in range(len(p)):
                q[s] = (q[s] + u * p[s]) % e if e else q[s] + u * p[s]

    def row_step(t, i, x, y, u, v):  # lin on rows t and i
        lin(W[t], W[i], x, y, u, v)
        if UiT is not None:  # Ui times the inverse block
            lin(UiT[i], UiT[t], x, -y, -u, v)

    def col_step(t, j, x, y, u, v):  # lin on columns t and j
        if y:
            for r in W:
                a, b = r[t], r[j]
                r[t] = (x * a + y * b) % e if e else x * a + y * b
                r[j] = (u * a + v * b) % e if e else u * a + v * b
        else:
            for r in W:
                r[j] = (r[j] + u * r[t]) % e if e else r[j] + u * r[t]

    t = 0
    while t < m and t < n:
        piv = None
        best = None
        for i in range(t, m):
            row = W[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    v = -v if v < 0 else v
                    if best is None or v < best:
                        piv, best = (i, j), v
                        if v == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            W[t], W[i] = W[i], W[t]
            if UiT is not None:
                UiT[t], UiT[i] = UiT[i], UiT[t]
        if j != t:
            for r in W:
                r[t], r[j] = r[j], r[t]
        while True:
            # a divisible entry is cleared by one addition, any other by one
            # unimodular step that leaves (gcd, 0)
            for i in range(t + 1, m):
                b = W[i][t]
                if b:
                    a = W[t][t]
                    g, x, y = (a, 1, 0) if b % a == 0 else _xgcd(a, b)
                    row_step(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, n):
                b = W[t][j]
                if b:
                    a = W[t][t]
                    g, x, y = (a, 1, 0) if b % a == 0 else _xgcd(a, b)
                    col_step(t, j, x, y, -(b // g), a // g)
            if all(W[i][t] == 0 for i in range(t + 1, m)):
                break
        if W[t][t] < 0:  # never with a modulus
            W[t] = [-x for x in W[t]]
            if UiT is not None:
                UiT[t] = [-x for x in UiT[t]]
        d = W[t][t]
        bad = None if d == 1 else next(  # a unit pivot divides everything
            (i for i in range(t + 1, m) for j in range(t + 1, n)
             if W[i][j] % d), None)
        if bad is not None:
            # add the offending row to row t, so that the next pass replaces
            # the pivot with a proper divisor; the pivot strictly decreases
            row_step(bad, t, 1, 0, 1, 1)
            continue
        t += 1
    return ([r[n:] for r in W[:m]] if want_u else None,
            [list(c) for c in zip(*UiT)] if want_ui else None,
            [r[:n] for r in W[:m]],
            W[m:] if want_v else None)


def _xgcd(a, b):
    """g = gcd(a, b) > 0 with x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


@st.composite
def finite_presentations(draw):
    """(n, relation columns, exponent): d_i e_i columns certify the exponent
    lcm(d_i), and up to four further columns relate the generators."""
    n = draw(st.integers(1, 4))
    orders = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    extra = draw(st.lists(st.lists(st.integers(-30, 30), min_size=n,
                                   max_size=n), max_size=4))
    diagonal = [[d * (i == j) for i in range(n)] for j, d in enumerate(orders)]
    return n, draw(st.permutations(extra + diagonal)), lcm(*orders)


class TestPresentation:
    @settings(max_examples=200, deadline=None)
    @given(finite_presentations())
    def test_modular_and_integer_elimination_agree(self, presentation):
        n, cols, exponent = presentation
        R = [[col[i] for col in cols] for i in range(n)]
        modular = _canonicalize_presentation(R, exponent)
        integer = _canonicalize_presentation(R)
        assert modular[0] == integer[0]
        for G, to_can, from_can in (modular, integer):
            assert G.free_rank == 0
            for i, d in enumerate(G.invariant_factors):
                # to_can . from_can = I and to_can . relations = 0, mod d_i
                for j in range(G.ngens):
                    entry = sum(to_can[i][t] * from_can[t][j]
                                for t in range(n))
                    assert (entry - (i == j)) % d == 0
                for col in cols:
                    assert sum(a * b for a, b in zip(to_can[i], col)) % d == 0


class TestElements:
    def test_modular_add(self):
        G = FgAbGroup.cyclic(4)
        assert (GroupElem(G, [3]) + GroupElem(G, [3])).coords == (2,)

    def test_neg_zero(self):
        G = FgAbGroup.cyclic(5)
        assert (-GroupElem(G, [0])).coords == (0,)

    def test_free_coords_unreduced(self):
        G = FgAbGroup((2,), 1)
        x = GroupElem(G, [3, -7])
        assert x.coords == (1, -7)

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            GroupElem(FgAbGroup.cyclic(2), [0]) + \
                GroupElem(FgAbGroup.cyclic(3), [0])


class TestHoms:
    def test_apply(self):
        f = GroupHom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [[2]])
        assert f(GroupElem(f.source, [1])).coords == (2,)

    def test_ill_defined_rejected(self):
        with pytest.raises(ValueError):
            GroupHom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [[1]])

    def test_apply_respects_composition(self):
        rng = random.Random(3)
        for _ in range(25):
            A = random_group(rng, 16)
            B = random_group(rng, 16)
            C = random_group(rng, 16)
            f = random_hom(rng, A, B)
            g = random_hom(rng, B, C)
            gf = g.compose(f)
            for x in A.elements():
                assert gf(x) == g(f(x))

    def test_kernel_example_mod2(self):
        f = GroupHom(FgAbGroup.cyclic(4), FgAbGroup.cyclic(2), [[1]])
        K, incl = kernel(f)
        assert K == FgAbGroup.cyclic(2)
        assert incl(GroupElem(K, [1])).coords == (2,)

    def test_kernel_of_identity(self):
        f = GroupHom.identity(FgAbGroup.cyclic(6))
        K, _ = kernel(f)
        assert K.is_trivial

    def test_kernel_of_zero(self):
        f = GroupHom.zero(FgAbGroup.cyclic(3), FgAbGroup.cyclic(5))
        K, incl = kernel(f)
        assert K == FgAbGroup.cyclic(3)
        assert is_isomorphism(incl)

    def test_cokernel_examples(self):
        f = GroupHom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [[2]])
        Q, proj = cokernel(f)
        assert Q == FgAbGroup.cyclic(2)
        assert proj.compose(f) == GroupHom.zero(f.source, Q)
        Q2, _ = cokernel(GroupHom.identity(FgAbGroup.cyclic(6)))
        assert Q2.is_trivial
        Q3, _ = cokernel(GroupHom.zero(FgAbGroup.cyclic(2),
                                       FgAbGroup.cyclic(4)))
        assert Q3 == FgAbGroup.cyclic(4)

    def test_exactness_counts_random(self):
        # |source| = |kernel| * |image| and |target| = |image| * |cokernel|
        rng = random.Random(5)
        for _ in range(50):
            A = random_group(rng, 64)
            B = random_group(rng, 64)
            f = random_hom(rng, A, B)
            K, incl = kernel(f)
            Q, proj = cokernel(f)
            image = {f(x).coords for x in A.elements()}
            assert A.order() == K.order() * len(image)
            assert B.order() == len(image) * Q.order()
            # kernel is exactly the vanishing locus
            kset = {incl(k).coords for k in K.elements()}
            assert kset == {x.coords for x in A.elements()
                            if not any(f(x).coords)}
            assert incl.source.order() == len(kset)

    def test_solve(self):
        rng = random.Random(9)
        for _ in range(30):
            A = random_group(rng, 36)
            B = random_group(rng, 36)
            f = random_hom(rng, A, B)
            image = {f(x).coords for x in A.elements()}
            for y in (y.coords for y in B.elements()):
                x = solve(f, y)
                if y in image:
                    # source coordinates, reduced, of a preimage
                    assert x == A.reduce(x) and \
                        f(GroupElem(A, x)).coords == y
                else:
                    assert x is None

    def test_solve_reduces_its_argument(self):
        f = GroupHom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [[2]])
        assert solve(f, (6,)) == solve(f, (2,)) == (1,)
        assert solve(f, (5,)) is None
        with pytest.raises(ValueError, match="coordinate length mismatch"):
            solve(f, (2, 0))

    def test_lift_through(self):
        f = GroupHom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [[2]])
        K, incl = kernel(GroupHom(FgAbGroup.cyclic(4), FgAbGroup.cyclic(2),
                                  [[1]]))
        lifted = lift_through(incl, f)
        assert incl.compose(lifted) == f
        with pytest.raises(ValueError, match="does not factor"):
            lift_through(incl, GroupHom.identity(FgAbGroup.cyclic(4)))
        with pytest.raises(ValueError, match="different targets"):
            lift_through(incl, GroupHom.identity(FgAbGroup.cyclic(2)))


class TestDirectSum:
    def test_z2_plus_z3(self):
        Z2, Z3 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)
        S, iG, iH, pG, pH = direct_sum(Z2, Z3)
        assert S.invariant_factors == (6,)
        assert pG.compose(iG) == GroupHom.identity(Z2)
        assert pH.compose(iH) == GroupHom.identity(Z3)
        assert pG.compose(iH) == GroupHom.zero(Z3, Z2)
        assert pH.compose(iG) == GroupHom.zero(Z2, Z3)

    def test_with_trivial(self):
        G = FgAbGroup.from_divisors(4, 2)
        S, iG, _, pG, _ = direct_sum(G, FgAbGroup.trivial())
        assert S == G
        assert pG.compose(iG) == GroupHom.identity(G)

    def test_already_canonical(self):
        S, *_ = direct_sum(FgAbGroup.cyclic(2), FgAbGroup.cyclic(2))
        assert S.invariant_factors == (2, 2)

    def test_structure_by_order_census(self):
        S, iG, iH, _, _ = direct_sum(FgAbGroup.cyclic(2),
                                     FgAbGroup.cyclic(3))
        elems = list(S.elements())
        census = invariant_factors_from_orders(
            [e.coords for e in elems],
            lambda u, v: S.reduce(a + b for a, b in zip(u, v)),
            (0,) * S.ngens)
        assert census == [6]

    def test_many(self):
        parts = [FgAbGroup.cyclic(2), FgAbGroup.cyclic(4),
                 FgAbGroup.cyclic(3)]
        ds = direct_sum_many(parts)
        assert ds.group.order() == 24
        for i, G in enumerate(parts):
            assert ds.projections[i].compose(ds.injections[i]) == \
                GroupHom.identity(G)
            for j in range(len(parts)):
                if j != i:
                    assert ds.projections[i].compose(
                        ds.injections[j]) == GroupHom.zero(parts[j], G)
        # injections jointly surject
        got = set()
        for x in parts[0].elements():
            for y in parts[1].elements():
                for z in parts[2].elements():
                    s = ds.injections[0](x) + ds.injections[1](y) \
                        + ds.injections[2](z)
                    got.add(s.coords)
        assert len(got) == 24


# --------------------------------------------------------------------------
# shared random generators (imported by other test modules)

SMALL_FACTORS = [(), (2,), (3,), (4,), (5,), (6,), (8,), (9,), (2, 2),
                 (2, 4), (3, 3), (2, 6), (12,), (16,), (2, 2, 2)]


def random_group(rng, max_order):
    while True:
        inv = rng.choice(SMALL_FACTORS)
        if prod(inv, start=1) <= max_order:
            return FgAbGroup(inv, 0)


def killed_by(d, B):
    """The coordinates of the elements of the finite group B that d
    kills, in ``B.elements()`` order."""
    return [y.coords for y in B.elements()
            if all(d * c % n == 0 for c, n in zip(y.coords, B.orders))]


def random_hom(rng, A, B):
    """Uniform-ish well-defined hom, one admissible image per generator."""
    return from_images(A, B, [rng.choice(killed_by(d, B))
                              for d in A.invariant_factors])
