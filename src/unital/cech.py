"""Finite combinatorial sites and cocycle calculus on truncated Cech nerves.

A cover (``covers.Cover``) is a finite list of named parts plus a table
saying which intersections are nonempty and how many connected components
each has.  Its Cech nerve has, at level n, one cell per (n+1)-tuple of part
indices (with repetition) and per connected component of the corresponding
intersection; face maps drop indices.  Levels 0..3 are kept, which is
exactly enough to state the degree-0 and degree-1 cocycle conditions.

The double complex of a coefficient complex X has K^(p,q) = X^p(V_q); the
total differential used throughout is

    D = d_X + (-1)^(p+1) * cech

chosen so that for a 2-term complex the component equations of a total
0-cocycle (a, b) read literally

    d0*(a) + d2*(a) = d1*(a)      and      d0*(b) = d1*(b) + lambda(a),

and the coboundary of alpha in A(V_0) acts by a += d0*alpha - d1*alpha,
b += lambda(alpha).  Total cochains live on block coordinates: one block of
X^p coordinates per (p, q, cell), each term presented by the orders of its
coordinates, and the differential is one integer block matrix, held as
sparse rows.  Classification groups are H^0 of this total complex: the
+-1 entries between coordinates of equal order, most of them Cech faces,
are cancelled by Gaussian elimination first, and the small remainder is
computed exactly and put in canonical form only at the end.  Units of the
point model are the total 0-cocycles of the unit complex up to
coboundaries (J and K below); for a 2-term complex these are the descent
data (a, a_phi, b).  One exhaustive scan on table-coded groups finds the
torsor cocycles (a, b), taking a from the lam-fibers over the Cech
differential of b, and quotients them by the coboundaries.  Unit cocycles
are the torsor cocycles (a, (a_phi, b)) of the unit complex, so the same
scan checks contractibility at sheaf level.

The report handlers of ``cech-classify``, and the nerve that
``crossed-units`` reads, are at the end of the module.
"""

from __future__ import annotations

import itertools
from math import lcm

# bound as modules: a nerve alone, as crossed-units needs it, executes
# none, and a 3-term cech-classify never executes coded
from . import abelian, coded, complexes, groups
from .covers import Cover, point_cover
from .record import Record
from .specfile import _built
from .verification import MAX_STATES, CapExceeded, charge

TOP_LEVEL = 3
MAX_CELLS_PER_LEVEL = 64


class CocycleError(ValueError):
    """A cocycle relation failed; ``relation`` names the violated equation."""

    def __init__(self, relation, where=None):
        self.relation = relation
        self.where = where
        msg = f"violated relation: {relation}"
        if where is not None:
            msg += f" at {where}"
        super().__init__(msg)


# --------------------------------------------------------------------------
# nerves


class Nerve:
    """Truncated simplicial set of a cover, levels 0..3.

    Cells are (index tuple, component name) pairs, sorted; ``face(n, i, c)``
    drops index i.  The simplicial identities d_i d_j = d_(j-1) d_i for
    i < j are verified exhaustively at construction.
    Level n+1 extends level-n index tuples by one index while the index
    set is declared; declared sets are closed under subsets, so no cell is
    missed.
    """

    def __init__(self, cover: Cover):
        self.cover = cover
        nparts = len(cover.parts)
        self._cells = []
        tuples = [()]
        for n in range(TOP_LEVEL + 1):
            tuples = [t + (j,) for t in tuples for j in range(nparts)
                      if frozenset(t + (j,)) in cover.components]
            level = sorted((t, comp) for t in tuples
                           for comp in cover.components[frozenset(t)])
            if len(level) > MAX_CELLS_PER_LEVEL:
                raise CapExceeded(
                    f"level {n} has {len(level)} cells (cap "
                    f"{MAX_CELLS_PER_LEVEL})")
            self._cells.append(tuple(level))
        self._faces = {}
        for n in range(1, TOP_LEVEL + 1):
            for i in range(n + 1):
                fm = {}
                for tup, comp in self._cells[n]:
                    sub = tup[:i] + tup[i + 1:]
                    sub_comp = cover.component_in(frozenset(tup), comp,
                                                  frozenset(sub))
                    fm[(tup, comp)] = (sub, sub_comp)
                self._faces[(n, i)] = fm
        self._verify_simplicial_identities()

    def level(self, n):
        return self._cells[n]

    def face(self, n, i, cell):
        """i-th face of a level-n cell (a cell at level n-1)."""
        return self._faces[(n, i)][cell]

    def face_index(self, n, i):
        """d_i on positions: entry k is the position in level n-1 of the
        i-th face of the k-th cell of level n."""
        position = {cell: k for k, cell in enumerate(self._cells[n - 1])}
        return [position[self.face(n, i, c)] for c in self._cells[n]]

    def _verify_simplicial_identities(self):
        for n in range(2, TOP_LEVEL + 1):
            for j in range(n + 1):
                for i in range(j):
                    for cell in self._cells[n]:
                        left = self.face(n - 1, i, self.face(n, j, cell))
                        right = self.face(n - 1, j - 1, self.face(n, i, cell))
                        if left != right:
                            raise ValueError(
                                f"simplicial identity d_{i} d_{j} = "
                                f"d_{j - 1} d_{i} fails at {cell}")

    def __str__(self):
        sizes = ", ".join(str(len(lv)) for lv in self._cells)
        return f"Nerve(levels [{sizes}] of cover {list(self.cover.parts)})"


def cech_nerve(cover: Cover) -> Nerve:
    return Nerve(cover)


# --------------------------------------------------------------------------
# torsor and unit cocycles on table-coded groups: a coded section holds the
# element indices of its cells, and sorts like its coordinates


def _coboundary(A, lam, faces1, alpha):
    """Re-choosing the local sections by alpha in A(V_0) adds
    d0*(alpha) - d1*(alpha) to a and lam(alpha) to b."""
    return (tuple(A.table[alpha[f0]][A.inverse[alpha[f1]]]
                  for f0, f1 in faces1),
            tuple(lam[x] for x in alpha))


def _add(adds, x, y):
    """Pointwise sum of coded cochains, each part in its own table."""
    return tuple(tuple(add[u][v] for u, v in zip(p, q))
                 for add, p, q in zip(adds, x, y))


class TorsorClasses(Record):
    count: int
    representatives: list


def _cocycle_classes(nerve, X: groups.Complex, max_states):
    """Every torsor cocycle (a, b) of X, labelled by its class.

    b runs over B(V_0), a over the lam-fiber of d0*(b) - d1*(b) on each V_1
    cell, and d0*(a) + d2*(a) = d1*(a) is tested on V_2.  One label sweep
    in key order, charged class by class, quotients by the coboundaries.
    Returns the class minima, every cocycle's label, and the addition
    tables of A and B.  CocycleError if a coboundary sum is not a cocycle
    found.
    """
    A, B = map(coded._coded, X.terms)
    lam, add_a, add_b = A.image_array(X.maps[0].matrix, B), A.table, B.table
    faces1 = list(zip(*(nerve.face_index(1, i) for i in range(2))))
    faces2 = list(zip(*(nerve.face_index(2, i) for i in range(3))))
    fibers, n0 = coded._fibers(A, B, lam), len(nerve.level(0))
    cocycles = []
    for b in itertools.product(B.elements(), repeat=n0):
        over = [fibers[add_b[b[f0]][B.inverse[b[f1]]]] for f0, f1 in faces1]
        cocycles += ((a, b) for a in itertools.product(*over) if all(
            add_a[a[f0]][a[f2]] == a[f1] for f0, f1, f2 in faces2))
    cocycles.sort()
    # a cocycle maps to itself until it is labelled, and the coboundaries
    # are held as those keys, so each cocycle tuple is held once
    label, count = dict(zip(cocycles, cocycles)), len(cocycles)
    del cocycles
    shifts = []
    for alpha in itertools.product(A.elements(), repeat=n0):
        s = _coboundary(A, lam, faces1, alpha)
        shifts.append(label.setdefault(s, s))
    reps, work = [], 0
    for c in label:
        if label[c] is not c:
            continue
        work += len(shifts)
        charge("coboundary quotient", work, "|A|^|V_0| per class swept",
               max_states)
        for s in shifts:
            label[_add((add_a, add_b), c, s)] = len(reps)
        if len(label) != count:  # a sum, or a coboundary, was added
            raise CocycleError("cocycle + coboundary is a cocycle", c)
        reps.append(c)
    return reps, label, (add_a, add_b)


def torsor_classes(nerve: Nerve, X: groups.Complex, max_states=MAX_STATES):
    """Classes of torsor cocycles (a, b) modulo re-choice of sections.

    Exhaustive on the coded tables (``_cocycle_classes``), charged the
    full candidate product |A|^|V_1| |B|^|V_0| up front.  Representatives
    are the smallest members of their classes, as coded pairs (a, b).
    """
    groups._require_finite(X, "torsor enumeration")
    n0, n1 = len(nerve.level(0)), len(nerve.level(1))
    A, B = X.terms
    charge("torsor scan", A.order() ** n1 * B.order() ** n0,
           "|A|^|V_1| |B|^|V_0|", max_states)
    reps = _cocycle_classes(nerve, X, max_states)[0]
    return TorsorClasses(len(reps), reps)


def unit_cocycles(nerve: Nerve, U: groups.Complex, max_states=MAX_STATES):
    """All unit cocycles of X modulo coboundaries, scanned on its unit
    complex U = ``unit_complex_1(X)[0]``.

    A unit cocycle is a descent datum (a, a_phi, b): a in A(V_1), a_phi in
    A(V_0), b in B(V_0).  With u = (a_phi, b) in ker(lam - id), (a, u) is
    a torsor cocycle of U, so the scan is the torsor scan of U, charged
    |A|^|V_0| (U's degree -1 term is A).  U's differential is injective,
    so the one value in each V_1 fiber is a = d0*(a_phi) - d1*(a_phi):
    finding other than one cocycle per a_phi raises CocycleError.  Returns
    ``(classes, group)``: the smallest member of each class as a coded
    pair (a, u), and the group the classes form under pointwise tensor
    (expected: trivial).
    """
    groups._require_finite(U, "unit-cocycle enumeration")
    states = U.terms[0].order() ** len(nerve.level(0))
    charge("unit-cocycle scan", states, "|A|^|V_0|", max_states)
    reps, label, adds = _cocycle_classes(nerve, U, max_states)
    if len(label) != states:
        raise CocycleError(f"{len(label)} unit cocycles, one per a_phi: "
                           f"|A|^|V_0| = {states}")
    orders = []  # of each class under the tensor: pointwise sum, then label
    for r in reps:
        acc, n = r, 1
        while label[acc] != 0:  # the zero cocycle is the smallest
            acc, n = _add(adds, acc, r), n + 1
        orders.append(n)
    return reps, _group_from_orders(orders)


def _group_from_orders(orders):
    """A finite abelian group from the orders of its elements.

    Its p-part has r_j cyclic factors of order divisible by p^j, where
    p^(r_j) is the ratio of the numbers of elements killed by p^j and by
    p^(j-1); the i-th largest factor takes one p for each r_j > i.
    """
    def killed(m):
        return sum(1 for o in orders if m % o == 0)

    divisors, rest, p = [], lcm(*orders), 2
    while rest > 1:
        j = 0
        while rest % p == 0:
            rest, j = rest // p, j + 1
            ratio, r = killed(p ** j) // killed(p ** (j - 1)), 0
            while ratio > 1:
                ratio, r = ratio // p, r + 1
            divisors += [1] * (r - len(divisors))
            for i in range(r):
                divisors[i] *= p
        p += 1
    return groups.FgAbGroup.from_divisors(*divisors)


# --------------------------------------------------------------------------
# total complex of a coefficient complex over the nerve


class _TotalLayout:
    """The total-degree-n part of the double complex X^p(V_q) on block
    coordinates: one block per (p, q, cell) holding the coordinates of
    X^p, each of the order it has there (0 for a free one).  The term is
    the product of its blocks, presented by the diagonal lattice of
    ``orders``; no canonical form is taken."""

    def __init__(self, X, nerve, total_degree):
        self.blocks = []  # (p, q, cell)
        self.offset = {}  # block -> its first coordinate
        self.orders = []
        for p in X.degrees:
            q = total_degree - p
            if 0 <= q <= TOP_LEVEL:
                for cell in nerve.level(q):
                    self.blocks.append((p, q, cell))
                    self.offset[(p, q, cell)] = len(self.orders)
                    self.orders += X.group_at(p).orders


def _block_differential(X, nerve, source, target):
    """D = d_X + (-1)^(p+1) cech as sparse rows {column: nonzero entry}:
    d_X from (p-1, q, c) to (p, q, c), and (-1)^(p+1+i) times the identity
    from (p, q-1, d_i c) to (p, q, c)."""
    rows = []
    for p, q, cell in target.blocks:
        block = [{} for _ in range(X.group_at(p).ngens)]
        off = source.offset.get((p - 1, q, cell))
        if off is not None:
            for row, d_row in zip(block, X.differential(p - 1).matrix):
                row.update((off + j, v) for j, v in enumerate(d_row) if v)
        for i in range(q + 1 if q else 0):
            off = source.offset[(p, q - 1, nerve.face(q, i, cell))]
            for k, row in enumerate(block):
                v = row.pop(off + k, 0) + (-1) ** (p + 1 + i)
                if v:
                    row[off + k] = v
        rows += block
    return rows


def _dense(rows, columns):
    """Sparse rows as dense ones over the given columns."""
    return [[row.get(j, 0) for j in columns] for row in rows]


def total_complex_piece(X, nerve):
    """The total complex T^-1 -> T^0 -> T^1 on block coordinates.

    Returns the layouts ``(lm1, l0, l1)`` and the integer block matrices
    ``(d_low, d_high)`` of the total differential, as sparse rows
    {column: entry}; T^n is presented by the diagonal lattice of its
    layout's ``orders``.
    """
    layouts = tuple(_TotalLayout(X, nerve, n) for n in (-1, 0, 1))
    return layouts, (_block_differential(X, nerve, *layouts[:2]),
                     _block_differential(X, nerve, *layouts[1:]))


class _SparseMap:
    """An integer matrix into Z^m / R, R diagonal with the row ``orders``,
    as sparse rows reduced modulo their orders, with a column index."""

    def __init__(self, rows, orders):
        self.orders = orders
        self.rows, self.cols = {}, {}
        for i, (row, d) in enumerate(zip(rows, orders)):
            reduced = ((j, v % d if d else v) for j, v in row.items())
            self.rows[i] = {j: v for j, v in reduced if v}
            for j in self.rows[i]:
                self.cols.setdefault(j, set()).add(i)

    def drop_row(self, i):
        for j in self.rows.pop(i):
            self.cols[j].discard(i)

    def drop_col(self, j):
        for i in self.cols.pop(j, ()):
            del self.rows[i][j]

    def cancel_units(self, col_orders):
        """Cancel every pair (column c, row r) of equal order d whose entry
        is u = +-1 mod d, an isomorphism Z/d -> Z/d, and yield it: each
        other row x loses D[x][c] u times row r, reduced mod orders[x],
        and row r and column c go.  A new unit pivot can appear in a
        column already passed over, so the sweep repeats until none does.
        """
        found = True
        while found:
            found = False
            for c in sorted(self.cols, key=lambda j: len(self.cols[j])):
                d, best = col_orders[c], None
                for r in self.cols.get(c, ()):
                    v = self.rows[r][c]  # reduced: -1 is d - 1, or -1 free
                    u = 1 if v == 1 else -1 if v in (-1, d - 1) else 0
                    if u and self.orders[r] == d and (best is None or len(
                            self.rows[r]) < len(self.rows[best[0]])):
                        best = r, u
                if best:
                    self._pivot(c, *best)
                    found = True
                    yield best[0], c

    def _pivot(self, c, r, u):
        pivot_row = self.rows.pop(r)
        for j in pivot_row:
            self.cols[j].discard(r)
        del pivot_row[c]
        for x in self.cols.pop(c):
            row, d = self.rows[x], self.orders[x]
            f = row.pop(c) * u
            for j, v in pivot_row.items():
                w = row.get(j, 0) - f * v
                if d:
                    w %= d
                if w:
                    if j not in row:
                        self.cols[j].add(x)
                    row[j] = w
                elif j in row:
                    del row[j]
                    self.cols[j].discard(x)


def classify_h0(nerve: Nerve, X) -> groups.FgAbGroup:
    """Total-degree-0 cocycles modulo coboundaries, as a canonical group.

    On block coordinates this is {x : D0 x in R1} / (im D-1 + R0), with R0
    and R1 the relation lattices of T^0 and T^1 (``abelian.subquotient``).
    Before that runs, the complex is reduced by Gaussian elimination: a
    component Z/d -> Z/d of D-1 or D0 with entry +-1 is an isomorphism, and
    cancelling it (``_SparseMap.cancel_units``) leaves a homotopy
    equivalent complex.  A T^-1 - T^0 pair also takes its T^0 coordinate
    out of D0's columns, and a T^0 - T^1 pair out of D-1's rows.  Most of
    the Cech face entries are such units, so only a small dense remainder,
    without the T^1 rows and T^-1 columns left all zero, reaches
    ``subquotient``.  For the unit complex of any coefficient complex the
    group is trivial; that is the classification form of contractibility.
    """
    groups._require_finite(X, "classification")
    return abelian.subquotient(*_reduced_piece(X, nerve))[0]


def _reduced_piece(X, nerve):
    """The total complex after cancelling unit pivots, as the dense
    arguments ``(d_in, orders, d_out, out_orders)`` of ``subquotient``."""
    (lm1, l0, l1), (d_low, d_high) = total_complex_piece(X, nerve)
    low, high = _SparseMap(d_low, l0.orders), _SparseMap(d_high, l1.orders)
    for r, _ in low.cancel_units(lm1.orders):
        high.drop_col(r)
    for _, c in high.cancel_units(l0.orders):
        low.drop_row(c)
    t0 = sorted(low.rows)
    t_m1 = sorted(j for j, rows in low.cols.items() if rows)
    t1 = sorted(i for i, row in high.rows.items() if row)
    return (_dense([low.rows[i] for i in t0], t_m1),
            [l0.orders[i] for i in t0],
            _dense([high.rows[x] for x in t1], t0),
            [l1.orders[x] for x in t1])


# --------------------------------------------------------------------------
# units <-> total 0-cocycles of the unit complex (J and K)


def _unit_frame(X):
    """The unit complex U of X, and the inclusion of U^0 into S (+) O with
    that sum's (inj_S, inj_O, proj_S, proj_O).

    A unit (e, phi) of the point model of X is the point (phi, e) of U^0:
    phi lies in the structure group S and e in the object group O, which
    are A and B for a 2-term X and B and C for a 3-term one, the terms
    in degrees -1 and 0.
    """
    U, emb = (complexes.unit_complex_1 if len(X.terms) == 2
              else complexes.unit_complex_2)(X)
    return U, emb, abelian.direct_sum(X.group_at(-1), X.group_at(0))[1:]


def cocycle_of_unit(X, unit, nerve: Nerve):
    """J: the constant total 0-cocycle of a unit (e, phi) of the point
    model of X, given as a coordinate pair.

    It is a T^0 coordinate vector of ``total_complex_piece(U, nerve)`` for
    the unit complex U: the unit's point of U^0 on every (0, 0, cell) block
    and zero on the other blocks.  ValueError if lam(phi) != e.
    """
    e, phi = unit
    U, emb, (inj_s, inj_o, _, _) = _unit_frame(X)
    # (phi, e) |-> inj_S phi + inj_O e, the injections side by side
    both = [s + o for s, o in zip(inj_s.matrix, inj_o.matrix)]
    point = abelian.solve(emb, groups._matvec(
        both, inj_s.source.reduce(phi) + inj_o.source.reduce(e),
        len(both), inj_s.source.ngens + inj_o.source.ngens))
    if point is None:
        raise ValueError("not a unit: lam(phi) != e")
    layout = _TotalLayout(U, nerve, 0)
    x = [0] * len(layout.orders)
    for cell in nerve.level(0):
        off = layout.offset[(0, 0, cell)]
        x[off:off + len(point)] = point
    return x


def unit_of_cocycle(x, nerve: Nerve, X):
    """K: the unit of a total 0-cocycle x of the unit complex U of X, as a
    coordinate pair (e, phi), with a cochain w of T^-1 such that x - D-1 w
    is J(unit) modulo R0.

    x is a T^0 coordinate vector of ``total_complex_piece(U, nerve)``; it
    is a cocycle iff D0 x lies in R1, and otherwise CocycleError names the
    first (p, q) block and cell of T^1 where it does not.  The unit is read
    off the base cell of V_0, then w is solved for exactly.
    """
    U, emb, (_, _, proj_s, proj_o) = _unit_frame(X)
    (lm1, l0, l1), (d_low, d_high) = total_complex_piece(U, nerve)
    if len(x) != len(l0.orders):
        raise ValueError(f"expected {len(l0.orders)} T^0 coordinates")
    for i, (row, d) in enumerate(zip(d_high, l1.orders)):
        value = sum(c * x[j] for j, c in row.items())
        if value % d if d else value:
            p, q, cell = next(b for b in reversed(l1.blocks)
                              if l1.offset[b] <= i)
            raise CocycleError(
                f"total differential nonzero at bidegree ({p}, {q})", cell)
    K, off = U.group_at(0), l0.offset[(0, 0, nerve.level(0)[0])]
    unit = tuple(p.target.reduce(groups._matvec(
        p.matrix, x[off:off + K.ngens], p.target.ngens, K.ngens))
        for p in (proj_o.compose(emb), proj_s.compose(emb)))
    target = [y - z for y, z in zip(x, cocycle_of_unit(X, unit, nerve))]
    # D-1 w + r = target with r in R0, an exact solve over the integers:
    # w then r are the coordinates of a free source
    free = groups.FgAbGroup.free
    source = free(len(lm1.orders) + sum(map(bool, l0.orders)))
    ambient = free(len(l0.orders))
    w = abelian.solve(groups.GroupHom(source, ambient, abelian._with_relations(
        _dense(d_low, range(len(lm1.orders))), l0.orders)), target)
    if w is None:
        raise CocycleError("cocycle is not cohomologous to a constant")
    return unit, list(w[:len(lm1.orders)])


# --------------------------------------------------------------------------
# the report handlers of cech-classify (see reporting)


def _nerve(opts):
    """The nerve of the --nerve cover, else of the input's, else a point;
    ``crossed-units`` reads its nerve here too."""
    # cech_nerve refuses faces the cover's containments cannot resolve
    return _built("nerve", cech_nerve, opts.cover or point_cover())


def _recorded_nerve(report, opts):
    """``_nerve(opts)``, with the sizes of its levels in the report."""
    nerve = _nerve(opts)
    report.data["nerve_levels"] = [len(nerve.level(n)) for n in range(4)]
    return nerve


def _classify(report, nerve, X, U):
    h0u = classify_h0(nerve, U)
    report.data["h0_of_unit_complex"] = h0u
    report.add("classification group of the unit complex is trivial",
               h0u.is_trivial, h0u)
    report.data["h0_of_coefficients"] = classify_h0(nerve, X)


def _cech_classify_1(report, X, opts):
    nerve = _recorded_nerve(report, opts)
    # the torsor scan is charged before any Smith form
    tc = torsor_classes(nerve, X, max_states=opts.max_states)
    report.data["torsor_classes"] = tc.count
    U, _ = complexes.unit_complex_1(X)
    classes, group = unit_cocycles(nerve, U, max_states=opts.max_states)
    report.data["unit_cocycle_classes"] = len(classes)
    report.data["unit_class_group"] = group
    report.add("unit cocycles form a single class", len(classes) == 1,
               len(classes))
    report.add("unit class group is trivial", group.is_trivial, group)
    _classify(report, nerve, X, U)


def _cech_classify_2(report, X, opts):
    nerve = _recorded_nerve(report, opts)
    _classify(report, nerve, X, complexes.unit_complex_2(X)[0])
