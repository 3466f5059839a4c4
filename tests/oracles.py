"""Independent brute-force oracles.

Everything here is deliberately written from scratch against the mathematical
definitions (determinant expansions, exhaustive enumeration, union-find on
boxes) and shares no code path with the library it checks, with one
exception at the end: ``oracle_dense_subquotient`` is the whole-matrix
pipeline that ``abelian.subquotient`` ran before it cancelled unit pivots,
kept on the library's elimination so that it checks the cancellation and
the lift alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod


# --------------------------------------------------------------------------
# Smith normal form oracle: determinantal divisors.
#
# The k-th determinantal divisor d_k(M) = gcd of all k-by-k minors is
# invariant under unimodular row/column operations, and the invariant factors
# are s_k = d_k / d_{k-1}.  Minors are expanded by permutations: exact and
# completely independent of any elimination strategy.

def _det_permutation_expansion(rows):
    k = len(rows)
    total = 0
    for perm in itertools.permutations(range(k)):
        sign = 1
        seen = list(perm)
        for i in range(k):
            for j in range(i + 1, k):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(k):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def determinantal_divisors(M):
    """[d_1, d_2, ...] up to min(m, n); d_k = 0 once all k-minors vanish."""
    m = len(M)
    n = len(M[0]) if m else 0
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                minor = _det_permutation_expansion(
                    [[M[i][j] for j in cols] for i in rows])
                g = gcd(g, minor)
        out.append(g)
    return out


def invariant_factors_from_minors(M):
    """Diagonal of the Smith form, derived purely from determinantal divisors."""
    dd = determinantal_divisors(M)
    factors = []
    prev = 1
    for d in dd:
        if d == 0:
            factors.append(0)
        else:
            factors.append(d // prev)
            prev = d
    return factors


# --------------------------------------------------------------------------
# Cokernel-order oracle for full-rank 2x2 integer matrices: enumerate a box of
# representatives of Z^2 / (column lattice) and union-find by exact membership
# tests (rational solve + integrality), as brute force as it gets.

def _in_column_lattice_2x2(M, v):
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if det == 0:
        raise ValueError("needs a full-rank matrix")
    a = Fraction(v[0] * M[1][1] - v[1] * M[0][1], det)
    b = Fraction(M[0][0] * v[1] - M[1][0] * v[0], det)
    return a.denominator == 1 and b.denominator == 1


def cokernel_order_2x2_bruteforce(M):
    det = abs(M[0][0] * M[1][1] - M[0][1] * M[1][0])
    if det == 0:
        raise ValueError("needs a full-rank matrix")
    box = [(x, y) for x in range(det) for y in range(det)]
    parent = {p: p for p in box}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for p, q in itertools.combinations(box, 2):
        if find(p) != find(q):
            if _in_column_lattice_2x2(M, (p[0] - q[0], p[1] - q[1])):
                parent[find(p)] = find(q)
    return len({find(p) for p in box})


# --------------------------------------------------------------------------
# Structure-from-orders oracle: reconstruct the invariant factors of a finite
# abelian group from nothing but the multiset of element orders, via the
# counting identity  #{x : p^j * x = 0} = prod_i gcd(d_i, p^j).

def _element_order(x, add, zero):
    n = 1
    acc = x
    while acc != zero:
        acc = add(acc, x)
        n += 1
    return n


def invariant_factors_from_orders(elements, add, zero):
    """Ascending invariant factors (1s dropped) from element orders alone.

    Uses #{x : p^j x = 0} = p^(sum_i min(e_i, j)) per prime, so the count
    ratio N(j)/N(j-1) = p^(number of cyclic p-factors of exponent >= j).
    """
    orders = [_element_order(x, add, zero) for x in elements]
    primes = set()
    for o in orders:
        d, p = o, 2
        while p * p <= d:
            if d % p == 0:
                primes.add(p)
                while d % p == 0:
                    d //= p
            p += 1
        if d > 1:
            primes.add(d)
    per_prime = {}  # p -> exponent list, descending
    for p in sorted(primes):
        exps = []
        j = 1
        while True:
            n_j = sum(1 for o in orders if (p ** j) % o == 0)
            n_prev = sum(1 for o in orders if (p ** (j - 1)) % o == 0)
            ratio = n_j // n_prev
            r_j = 0
            while ratio > 1:
                ratio //= p
                r_j += 1
            if r_j == 0:
                break
            exps.append(r_j)  # exps[j-1] = #factors with exponent >= j
            j += 1
        factor_exps = []
        for jj, r in enumerate(exps, start=1):
            higher = exps[jj] if jj < len(exps) else 0
            factor_exps += [jj] * (r - higher)
        per_prime[p] = sorted((p ** e for e in factor_exps), reverse=True)
    width = max((len(v) for v in per_prime.values()), default=0)
    factors = []
    for i in range(width):
        factors.append(prod(v[i] for v in per_prime.values() if i < len(v)))
    return sorted(factors)  # ascending divisibility chain


# --------------------------------------------------------------------------
# Independent Cech machinery on two hardcoded nerves.
#
# A nerve is represented as {level: [cells]}, faces as {(level, i): {cell:
# cell}} mapping a level-(n) cell to its i-th face at level n-1.  Cocycle and
# coboundary enumeration below works with plain dicts of group elements
# (tuples of ints mod the invariant factors) and never touches the library.

def oracle_point_nerve():
    cells = {n: [("pt",) * (n + 1)] for n in range(4)}
    faces = {}
    for n in (1, 2, 3):
        for i in range(n + 1):
            faces[(n, i)] = {cells[n][0]: cells[n - 1][0]}
    return cells, faces


def oracle_circle_nerve():
    """Cech nerve of a circle covered by three arcs, adjacent pairs meeting."""
    parts = (0, 1, 2)
    good = lambda t: len(set(t)) <= 2  # no triple intersections
    cells = {n: [t for t in itertools.product(parts, repeat=n + 1) if good(t)]
             for n in range(4)}
    faces = {}
    for n in (1, 2, 3):
        for i in range(n + 1):
            faces[(n, i)] = {t: t[:i] + t[i + 1:] for t in cells[n]}
    return cells, faces


def oracle_face(cover, cell, i):
    """The i-th face of a nerve cell (index tuple, component), read off the
    cover's tables: index i dropped, in the same component when the
    index set stays, else in the smaller intersection's only component
    or the one its declared containment names."""
    tup, comp = cell
    sub = tup[:i] + tup[i + 1:]
    source, target = frozenset(tup), frozenset(sub)
    if source == target:
        return sub, comp
    names = cover.components[target]
    return sub, names[0] if len(names) == 1 else \
        cover.containments[(source, comp, target)]


def _mod_add(u, v, mods):
    return tuple((a + b) % m for a, b, m in zip(u, v, mods))


def _mod_neg(u, mods):
    return tuple((-a) % m for a, m in zip(u, mods))


def oracle_torsor_classes(cells, faces, a_mods, b_mods, lam):
    """Count classes of pairs (a, b) under the coboundary action.

    a: level-1 sections of A, cocycle on level 2;
    b: level-0 sections of B with d0*b = d1*b + lam(a);
    action by alpha in A(V_0):  a += d0*alpha - d1*alpha,  b += lam(alpha).
    lam maps an A-tuple to a B-tuple.
    """
    A_elems = list(itertools.product(*[range(m) for m in a_mods]))
    B_elems = list(itertools.product(*[range(m) for m in b_mods]))
    zero_a = tuple(0 for _ in a_mods)

    def is_cocycle(a_fun, b_fun):
        for c in cells[2]:
            lhs = _mod_add(a_fun[faces[(2, 0)][c]], a_fun[faces[(2, 2)][c]],
                           a_mods)
            if lhs != a_fun[faces[(2, 1)][c]]:
                return False
        for c in cells[1]:
            lhs = b_fun[faces[(1, 0)][c]]
            rhs = _mod_add(b_fun[faces[(1, 1)][c]], lam(a_fun[c]), b_mods)
            if lhs != rhs:
                return False
        return True

    pairs = []
    for a_choice in itertools.product(A_elems, repeat=len(cells[1])):
        a_fun = dict(zip(cells[1], a_choice))
        for b_choice in itertools.product(B_elems, repeat=len(cells[0])):
            b_fun = dict(zip(cells[0], b_choice))
            if is_cocycle(a_fun, b_fun):
                pairs.append((a_choice, b_choice))
    index = {p: k for k, p in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for a_choice, b_choice in pairs:
        a_fun = dict(zip(cells[1], a_choice))
        b_fun = dict(zip(cells[0], b_choice))
        for alpha_choice in itertools.product(A_elems, repeat=len(cells[0])):
            alpha = dict(zip(cells[0], alpha_choice))
            new_a = tuple(
                _mod_add(a_fun[c],
                         _mod_add(alpha[faces[(1, 0)][c]],
                                  _mod_neg(alpha[faces[(1, 1)][c]], a_mods),
                                  a_mods),
                         a_mods)
                for c in cells[1])
            new_b = tuple(_mod_add(b_fun[c], lam(alpha[c]), b_mods)
                          for c in cells[0])
            k1 = index[(a_choice, b_choice)]
            k2 = index[(new_a, new_b)]
            r1, r2 = find(k1), find(k2)
            if r1 != r2:
                parent[r1] = r2
    return len({find(k) for k in range(len(pairs))})


# --------------------------------------------------------------------------
# Finite groups and crossed modules on plain tables, element by element.
#
# A group is its multiplication table T (T[a][b] = a * b on 0..n-1), and a
# crossed module G -> H is the tables (G, H, boundary, action) with
# action[g][h] = g^h.  Every law is tried on every tuple of elements, in
# itertools.product order, exactly as the definitions read.

def group_table_error(T):
    """The ValueError message a square table of element indices earns, or
    None: the identity, inverses and associativity tried one tuple at a
    time."""
    n = len(T)
    e = next((a for a in range(n)
              if all(T[a][b] == b == T[b][a] for b in range(n))), None)
    if e is None:
        return "no identity element"
    for a in range(n):
        if not any(T[a][b] == e == T[b][a] for b in range(n)):
            return f"element {a} has no inverse"
    for a, b, c in itertools.product(range(n), repeat=3):
        if T[T[a][b]][c] != T[a][T[b][c]]:
            return "table is not associative"
    return None


def group_identity(T):
    return next(e for e in range(len(T))
                if all(T[e][x] == x == T[x][e] for x in range(len(T))))


def group_inverses(T):
    e = group_identity(T)
    return [next(b for b in range(len(T)) if T[a][b] == e == T[b][a])
            for a in range(len(T))]


def _first(pred, *ranges):
    return next((w for w in itertools.product(*ranges) if not pred(*w)),
                None)


def crossed_module_violations(G, H, bnd, act):
    """[(axiom, first violating tuple or None)] for the seven crossed-module
    axioms, each tested on every tuple of elements."""
    Gs, Hs, eH = range(len(G)), range(len(H)), group_identity(H)
    inv_g, inv_h = group_inverses(G), group_inverses(H)

    def conj_g(a, b):
        return G[G[inv_g[b]][a]][b]

    def conj_h(a, b):
        return H[H[inv_h[b]][a]][b]

    return [
        ("boundary is a homomorphism",
         _first(lambda g1, g2: bnd[G[g1][g2]] == H[bnd[g1]][bnd[g2]],
                Gs, Gs)),
        ("identity acts trivially", _first(lambda g: act[g][eH] == g, Gs)),
        ("action composes as a right action",
         _first(lambda g, h1, h2: act[g][H[h1][h2]] == act[act[g][h1]][h2],
                Gs, Hs, Hs)),
        ("each element acts by an endomorphism",
         _first(lambda g1, g2, h: act[G[g1][g2]][h] ==
                G[act[g1][h]][act[g2][h]], Gs, Gs, Hs)),
        ("each element acts bijectively",
         _first(lambda h: len({act[g][h] for g in Gs}) == len(G), Hs)),
        ("equivariance: bnd(g^h) = h^-1 bnd(g) h",
         _first(lambda g, h: bnd[act[g][h]] == conj_h(bnd[g], h), Gs, Hs)),
        ("Peiffer identity: g^(bnd g') = g'^-1 g g'",
         _first(lambda g, g2: act[g][bnd[g2]] == conj_g(g, g2), Gs, Gs)),
    ]


def unit_module_by_search(G, H, bnd, act):
    """(K, boundary, action) of the unit crossed module of a valid crossed
    module: K = {(g, h) : bnd(g) h = 1} found by searching G x H, numbered
    in that order, with (g1, h1)(g2, h2) = (g1^h2 g2, h1 h2), boundary
    g |-> (g^-1, bnd g), and K acting on G through its H-coordinate."""
    eH, inv_g = group_identity(H), group_inverses(G)
    pairs = [(g, h) for g in range(len(G)) for h in range(len(H))
             if H[bnd[g]][h] == eH]
    index = {p: k for k, p in enumerate(pairs)}
    K = tuple(tuple(index[(G[act[g1][h2]][g2], H[h1][h2])]
                    for g2, h2 in pairs) for g1, h1 in pairs)
    boundary = tuple(index[(inv_g[g], bnd[g])] for g in range(len(G)))
    action = tuple(tuple(act[g][h] for _, h in pairs)
                   for g in range(len(G)))
    return K, boundary, action


def coherence_triple_failures(T, inv, h_inv, act, units):
    """The triples (s, t, w) of units (e, g) of the crossed module with
    G-table T and action act, where the unique unit morphisms do not
    compose: u_tw * u_st != u_sw, with u_st = x_t^-1 x_s and
    x_s = g_s^(e_s^-1), read with the inverse arrays inv of G and h_inv
    of H.  This is the triple scan of the unit groupoid, tried on every
    triple; the library checks the group law of G in its place."""
    x = [act[g][h_inv[e]] for e, g in units]
    u = [[T[inv[x_t]][x_s] for x_t in x] for x_s in x]
    return [(units[s], units[t], units[w])
            for s, t, w in itertools.product(range(len(units)), repeat=3)
            if T[u[t][w]][u[s][t]] != u[s][w]]


# --------------------------------------------------------------------------
# Level-2 contractibility pair by pair: the listing that
# ``point_models.verify_contractible_2`` ran before it checked the
# hypotheses of the translation argument in its place.  It reads table-coded
# groups (``table``, ``inverse``, ``identity``, ``order``) and image arrays,
# trusting none of them, so corrupted tables give what they give.

def _preimages(f, n):
    """The preimages under the array f of each of 0..n-1, ascending."""
    out = [[] for _ in range(n)]
    for x, y in enumerate(f):
        out[y].append(x)
    return out


def unit_1morphism_lister(B, C, delta, lam):
    """A function of two units s = (e_s, phi_s), t of A -delta-> B -lam-> C,
    as index pairs, giving the unit 1-morphisms s -> t as (f, theta) index
    pairs in lexicographic order: lam(f) = e_s - e_t, and theta lies over
    f + phi_t - phi_s."""
    f_fibers = _preimages(lam, C.order)
    theta_fibers = _preimages(delta, B.order)
    add, neg = B.table, B.inverse

    def listing(s, t):
        (e_s, phi_s), (e_t, phi_t) = s, t
        return [(f, theta) for f in f_fibers[C.table[e_s][C.inverse[e_t]]]
                for theta in theta_fibers[add[add[f][phi_t]][neg[phi_s]]]]
    return listing


def level2_pair_listing(A, B, C, delta, lam):
    """Every ordered pair of units (s, t), s = (lam(phi), phi), with its unit
    1-morphisms listed and shifted back by (phi_t - phi_s, 0).  Returns the
    units, the pairs whose list lacks (phi_s - phi_t, 0), the pairs whose
    shifted list is not delta's graph {(delta(theta), theta)}, and the
    number of parallel pairs of 1-morphisms, summed over the unit pairs."""
    listing = unit_1morphism_lister(B, C, delta, lam)
    add, neg = B.table, B.inverse
    units = sorted((lam[phi], phi) for phi in range(B.order))
    graph = sorted((delta[theta], theta) for theta in range(A.order))
    unconnected, unlisted, parallel = [], [], 0
    for s, t in itertools.product(units, repeat=2):
        ms = listing(s, t)
        back = add[t[1]][neg[s[1]]]
        shifted = sorted((add[f][back], theta) for f, theta in ms)
        if (B.identity, A.identity) not in shifted:
            unconnected.append((s, t))
        if shifted != graph:
            unlisted.append((s, t))
        parallel += len(ms) ** 2
    return units, unconnected, unlisted, parallel


# --------------------------------------------------------------------------
# subquotient without the Gaussian reduction


def oracle_dense_subquotient(d_in, orders, d_out, out_orders):
    """{x : d_out x in R'} / (im d_in + R) from the whole dense matrices,
    by rows: one integer kernel gives the cycle generators, a second one
    their relations, and the quotient is canonicalized.  Returns
    ``(group, reps)`` as ``abelian.subquotient`` does; no coordinate is
    cancelled first."""
    from unital.abelian import (
        _canonicalize_presentation, _exponent, _int_kernel, _with_relations)
    from unital.groups import _matmul
    n = len(orders)
    gens, seen = [], set()
    K = _int_kernel(_with_relations(d_out, out_orders),
                    n + sum(map(bool, out_orders)))
    for col in zip(*K[:n]):
        v = tuple(x % d if d else x for x, d in zip(col, orders))
        if any(v) and v not in seen:
            seen.add(v)
            gens.append(v)
    s = len(gens)
    M = _with_relations([[g[i] for g in gens] + list(row)
                         for i, row in enumerate(d_in)], orders)
    group, _, from_can = _canonicalize_presentation(
        _int_kernel(M, len(M[0]) if M else s)[:s], _exponent(orders))
    B = [[g[i] for g in gens] for i in range(n)]  # n x s
    return group, _matmul(B, from_can, n, s, group.ngens)
