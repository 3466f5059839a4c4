"""Smith normal forms, kernels, cokernels, homology and direct sums of
finitely generated abelian groups.

Groups, elements and homomorphisms are those of ``groups``: canonical
invariant factors, coordinate vectors and integer matrices with columns
indexed by source generators.  Everything here is exact integer
arithmetic on Smith normal forms, all from one elimination, ``_snf_full``:
elementary row and column steps around the smallest pivot, over Z or
modulo a certified exponent.  ``subquotient`` is the one homology
routine: ``kernel`` and ``complexes.homology`` each make one call to it.
``LinearSolver`` answers in coordinates: it takes a target coordinate
tuple and returns a source one, and ``lift_through`` assembles its
matrix from the solved columns.

This is a lazy layer (see ``unital._LAYERS``): ``homology``,
``unit-complex``, ``qiso`` and ``cech-classify`` execute it, the unit
scans and the crossed-module commands never do.  It re-exports
``GroupElem`` of ``groups``, which nothing here builds, for the
benchmark's tracer; the run contract is imported from ``verification``.

>>> G = FgAbGroup.from_divisors(2, 3)
>>> str(G)
'Z/6'
>>> f = GroupHom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [[2]])
>>> K, incl = kernel(f)
>>> str(K)
'0'
"""

from __future__ import annotations

import itertools
from math import gcd, inf, lcm

# GroupElem is re-exported for perfbench's tracer
from .groups import (
    FgAbGroup, GroupElem, GroupHom, _freeze, _identity, _matmul, _matvec)
from .record import Record


def smith_normal_form(M):
    """Diagonalize an integer matrix.

    Returns ``(U, D, V)`` with ``U * M * V == D``, ``U`` and ``V`` unimodular
    and ``D`` diagonal with each diagonal entry nonnegative and dividing the
    next.  Total on integer matrices, including empty shapes.

    >>> U, D, V = smith_normal_form([[2, 4], [-2, 6]])
    >>> [D[0][0], D[1][1]]
    [2, 10]
    """
    U, _, D, V = _snf_full(M, want_ui=False)
    return _freeze(U), _freeze(D), _freeze(V)


def _snf_full(M, want_u=True, want_ui=True, want_v=True, modulus=0):
    """Smith normal form with optionally tracked transforms.

    Returns ``(U, Ui, D, V)`` with ``U * M * V == D`` and ``Ui`` the inverse
    of ``U``; transforms not asked for come back None.

    Every step is elementary: a swap, a negated row, or a multiple of one
    row or column added to another.  Each pass moves the smallest nonzero
    |entry| of the remaining block to the corner (the first in row order on
    a tie).  Every row below loses the nearest multiple of the pivot row,
    and every column to the right the nearest multiple of the pivot column,
    so each remainder is at most half the pivot; a nonzero one is a smaller
    pivot for the next pass.  Once the pivot's row and column are clear, a
    row with an entry that the pivot does not divide is added to the pivot
    row, whose next column pass leaves a remainder.  So the pivot strictly
    decreases until it divides the whole block.  Pivoting on the smallest
    entry keeps the transforms small (Havas and Majewski, J. Symb. Comput.
    24, 1997).

    A nonzero ``modulus`` e runs the same steps with every entry that a step
    touches reduced into [0, e), so the two equations hold modulo e.  Its
    quotients are floors, so a remainder is the least residue modulo the
    pivot, again smaller.  Each reduction adjoins a vector of e * Z^m, so
    ``D`` then presents the quotient by the columns together with e * Z^m
    (see ``_canonicalize_presentation``).
    """
    e = modulus
    A = [[int(x) % e if e else int(x) for x in row] for row in M]
    m = len(A)
    n = len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    # Row i of W is row i of A followed by row i of U, and the rows of V
    # follow, so that a row step on W carries U along and a column step V.
    # Ui takes the inverse row steps on its columns, so it is held
    # transposed.
    W = ([row + u for row, u in zip(A, _identity(m))] if want_u else A) \
        + (_identity(n) if want_v else [])
    UiT = _identity(m) if want_ui else None

    def axpy(p, q, r):  # p + q * r, reduced
        return [(x + q * y) % e for x, y in zip(p, r)] if e \
            else [x + q * y for x, y in zip(p, r)]

    def add_row(i, k, q):  # row k += q * row i
        W[k] = axpy(W[k], q, W[i])
        if UiT is not None:  # Ui times the inverse step
            UiT[i] = axpy(UiT[i], -q, UiT[k])

    def quot(b, a):  # the floor mod e; over Z the nearest, for either sign
        return b // a if e else (2 * b + a) // (2 * a)

    t = 0
    while t < m and t < n:
        v, i = min((min(map(abs, filter(None, W[i][t:n])), default=inf), i)
                   for i in range(t, m))
        if v == inf:
            break
        j = next(j for j in range(t, n) if abs(W[i][j]) == v)
        W[t], W[i] = W[i], W[t]
        if UiT is not None:
            UiT[t], UiT[i] = UiT[i], UiT[t]
        for r in W:
            r[t], r[j] = r[j], r[t]
        a = W[t][t]
        for i in range(t + 1, m):
            if W[i][t]:
                add_row(t, i, -quot(W[i][t], a))
        for j in range(t + 1, n):
            if W[t][j]:
                q = quot(W[t][j], a)
                for r in W:
                    r[j] = (r[j] - q * r[t]) % e if e else r[j] - q * r[t]
        if any(W[i][t] for i in range(t + 1, m)) or any(W[t][t + 1:n]):
            continue
        if a < 0:  # never with a modulus
            W[t] = [-x for x in W[t]]
            if UiT is not None:
                UiT[t] = [-x for x in UiT[t]]
            a = -a
        bad = None if a == 1 else next(  # a unit pivot divides everything
            (i for i in range(t + 1, m) for j in range(t + 1, n)
             if W[i][j] % a), None)
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return ([r[n:] for r in W[:m]] if want_u else None,
            [list(c) for c in zip(*UiT)] if want_ui else None,
            [r[:n] for r in W[:m]],
            W[m:] if want_v else None)


def _canonicalize_presentation(R, exponent=None):
    """Quotient of Z^ngens by the columns of R, an ngens-row matrix by rows.

    Returns ``(group, to_can, from_can)`` where ``to_can`` maps ambient
    coordinates to canonical generators and ``from_can`` sends each canonical
    generator to an ambient representative.

    When ``exponent`` is given it must be a certified annihilator of the
    quotient, i.e. exponent * Z^ngens lies inside the relation lattice.
    The elimination then runs modulo the exponent, which computes
    Z^ngens / (lattice + exponent * Z^ngens) -- the same group -- with every
    working entry held below the exponent: exponent-sized sublattices are
    invariant under the row transforms, so the order of canonical coordinate
    i is gcd(d_i, exponent), and the coordinate transforms only matter
    modulo the generator orders, which divide the exponent.  Without one,
    ``e = 0`` and gcd(d_i, 0) = |d_i|, with 0 marking a free coordinate.
    """
    ngens, k = len(R), len(R[0]) if R else 0
    e = exponent or 0
    U, Ui, D, _ = _snf_full(R, want_v=False, modulus=e)
    orders = [gcd(D[i][i], e) if i < k else e for i in range(ngens)]
    free = [i for i, o in enumerate(orders) if o == 0]
    torsion = [i for i, o in enumerate(orders) if o >= 2]
    group = FgAbGroup(tuple(orders[i] for i in torsion), len(free))
    sel = torsion + free
    to_can = [U[i] for i in sel]
    from_can = [[Ui[i][j] for j in sel] for i in range(ngens)]
    return group, to_can, from_can


# --------------------------------------------------------------------------
# kernels, cokernels, sums, solving


def _with_relations(rows, orders):
    """The rows of a matrix into Z^m / R, followed by the columns of R, the
    diagonal lattice of the coordinate orders (0 marks a free one)."""
    rel = [i for i, d in enumerate(orders) if d]
    return [list(row) + [orders[i] if i == r else 0 for r in rel]
            for i, row in enumerate(rows)]


def _int_kernel(M, ncols):
    """A basis of the integer kernel of M (by rows, ncols wide), as the
    columns of a matrix given by its rows."""
    if not M:  # no equations: the kernel is everything
        return _identity(ncols)
    _, _, D, V = _snf_full(M, want_u=False, want_ui=False)
    rank = sum(1 for i in range(min(len(M), ncols)) if D[i][i])
    return [row[rank:] for row in V]


def _exponent(orders):
    """Annihilator of Z^n / R; None when a coordinate is free or n = 0."""
    return lcm(*orders) if orders and all(orders) else None


def subquotient(d_in, orders, d_out, out_orders):
    """Homology at the middle of  Z^k -> Z^n / R -> Z^m / R',  canonical.

    R and R' are the diagonal lattices of the coordinate orders ``orders``
    and ``out_orders`` (0 marks a free coordinate).  ``d_out`` (m x n) and
    ``d_in`` (n x k) are integer matrices, by rows, of well-defined maps
    with ``d_out . d_in`` in R'.  The result is

        {x : d_out x in R'} / (im d_in + R),

    found without a canonical form of either term: one integer kernel gives
    generators of the cycle lattice, a second one their relations, and only
    the quotient is canonicalized.  Cycle generators are reduced modulo R
    between the stages; the cycle lattice contains R, so this changes
    nothing but keeps the integers small.

    Returns ``(group, reps)``: column j of ``reps`` (n x ngens, by rows)
    is a cycle in the class of canonical generator j.

    >>> subquotient([[], []], [2, 4], [[1, 1]], [2])  # ker Z/2 x Z/4 -> Z/2
    (FgAbGroup([4], 0), [[1], [1]])
    """
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
    # the exponent of Z^n / R annihilates every cycle class, certifying the
    # entry-bounded elimination
    group, _, from_can = _canonicalize_presentation(
        _int_kernel(M, len(M[0]) if M else s)[:s], _exponent(orders))
    B = [[g[i] for g in gens] for i in range(n)]  # n x s
    return group, _matmul(B, from_can, n, s, group.ngens)


def kernel(f):
    """Kernel subgroup with its inclusion.

    Returns ``(K, incl)`` where ``incl`` is injective, ``f . incl = 0`` and
    every element killed by ``f`` factors through ``incl``.
    """
    K, reps = subquotient([[]] * f.source.ngens, f.source.orders, f.matrix,
                          f.target.orders)
    return K, GroupHom(K, f.source, reps)


def cokernel(f):
    """Cokernel quotient with its projection.  Returns ``(Q, proj)``."""
    orders = f.target.orders
    Q, to_can, _ = _canonicalize_presentation(
        _with_relations(f.matrix, orders), _exponent(orders))
    return Q, GroupHom(f.target, Q, to_can)


class LinearSolver:
    """Repeated preimage queries against one homomorphism.

    The Smith form of the augmented matrix (map columns next to the target
    relations) is computed once; each query is then two matrix-vector
    products and a divisibility pass.
    """

    def __init__(self, f):
        self.f = f
        n = f.source.ngens
        m = f.target.ngens
        self._n, self._m = n, m
        if m == 0:
            return
        M = _with_relations(f.matrix, f.target.orders)
        self._N = len(M[0])
        self._U, _, self._D, self._V = _snf_full(M, want_ui=False)

    def solve(self, y):
        """Source coordinates of one preimage of the target coordinates
        y, or None if y is not in the image; both are reduced as
        ``FgAbGroup.reduce`` reduces."""
        y = self.f.target.reduce(y)
        if self._m == 0:
            return (0,) * self._n
        m, N = self._m, self._N
        w = _matvec(self._U, y, m, m)
        zp = [0] * N
        for i in range(m):
            d = self._D[i][i] if i < N else 0
            if d:
                if w[i] % d:
                    return None
                zp[i] = w[i] // d
            elif w[i]:
                return None
        z = _matvec(self._V, zp, N, N)
        return self.f.source.reduce(z[:self._n])


def solve(f, y):
    """Source coordinates of one preimage of the target coordinates y
    under f, or None if y is not in the image."""
    return LinearSolver(f).solve(y)


def is_isomorphism(f):
    K, _ = kernel(f)
    Q, _ = cokernel(f)
    return K.is_trivial and Q.is_trivial


def lift_through(incl, f):
    """Factor f through an injective hom: h with incl . h == f, one solve
    per column of f."""
    if f.target != incl.target:
        raise ValueError("homomorphisms have different targets")
    solver = LinearSolver(incl)
    cols = [solver.solve([row[j] for row in f.matrix])
            for j in range(f.source.ngens)]
    if None in cols:
        raise ValueError("homomorphism does not factor through the inclusion")
    return GroupHom(f.source, incl.source,
                    [[c[i] for c in cols] for i in range(incl.source.ngens)])


class DirectSum(Record):
    group: FgAbGroup
    injections: tuple[GroupHom, ...]
    projections: tuple[GroupHom, ...]


def direct_sum_many(groups):
    """Canonical-form direct sum with all injections and projections."""
    groups = list(groups)
    offsets = list(itertools.accumulate([0] + [G.ngens for G in groups]))
    orders = [d for G in groups for d in G.orders]
    S, to_can, from_can = _canonicalize_presentation(
        _with_relations([[]] * len(orders), orders), _exponent(orders))
    injections = []
    projections = []
    for G, off in zip(groups, offsets):
        inj_rows = [[to_can[i][off + j] for j in range(G.ngens)]
                    for i in range(S.ngens)]
        proj_rows = [[from_can[off + i][j] for j in range(S.ngens)]
                     for i in range(G.ngens)]
        injections.append(GroupHom(G, S, inj_rows))
        projections.append(GroupHom(S, G, proj_rows))
    return DirectSum(S, tuple(injections), tuple(projections))


def direct_sum(G, H):
    """Binary direct sum: returns (S, inj_G, inj_H, proj_G, proj_H)."""
    ds = direct_sum_many([G, H])
    return (ds.group, ds.injections[0], ds.injections[1],
            ds.projections[0], ds.projections[1])
