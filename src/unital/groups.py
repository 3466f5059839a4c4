"""Elements, homomorphisms and complexes of finitely generated abelian groups.

A group is stored in invariant-factor canonical form

    Z/d_1 (+) ... (+) Z/d_k (+) Z^r        with  2 <= d_1 | d_2 | ... | d_k,

elements are integer coordinate vectors (torsion coordinates reduced into
[0, d_i)), and homomorphisms are integer matrices acting on coordinates:
columns are indexed by source generators, rows by target generators, and
composition is the matrix product.  Invariant factors, free ranks,
matrix entries, coordinates and cyclic orders must be integers by
``record._is_int``: a float or a bool is refused with ValueError, never
rounded.  ``Complex`` holds a complex built from them, its length being
data: 2 terms present a Picard groupoid, 3 a Picard 2-groupoid.

The computing layers work on coordinate tuples.  ``GroupElem``, a tuple
with its group, keeps only what the benchmark's tracer and microbenchmark
bind by name: its addition, negation and subtraction, with
``FgAbGroup.elements`` and ``GroupHom.__call__``.  Only this module
builds one.

This is the bottom lazy layer (see ``unital._LAYERS``): every command
on a complex executes it.  Smith forms, kernels and direct sums live in
``abelian``, which re-exports these names; ``FgAbGroup.from_divisors``
is the one call up into it, made through the lazy module, so loading
this layer does not execute ``abelian``.
"""

from __future__ import annotations

import itertools
from math import prod

from . import abelian  # lazy: only from_divisors reaches into it
from .record import Record, _ints, _is_int
from .verification import FinitenessError


# --------------------------------------------------------------------------
# Integer matrices as lists of rows.  Dimensions are always passed explicitly
# where a matrix may have zero rows or columns, since [] cannot remember its
# width.

def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(A, B, m, k, n):
    """Product of an m-by-k and a k-by-n matrix; zeros of both factors are
    skipped, so it costs one multiplication per pair of nonzero entries
    A[i][t], B[t][j] that meet."""
    nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = [[0] * n for _ in range(m)]
    for row, a_row in zip(out, A):
        for a, b_row in zip(a_row, nonzero):
            for j, b in b_row if a else ():
                row[j] += a * b
    return out


def _matvec(A, v, m, k):
    """An m-by-k matrix times a vector; zeros of v are skipped."""
    nz = [(t, x) for t, x in zip(range(k), v) if x]
    return [sum(A[i][t] * x for t, x in nz) for i in range(m)]


def _freeze(A):
    return tuple(tuple(row) for row in A)


# --------------------------------------------------------------------------


class FgAbGroup(Record):
    """A finitely generated abelian group in invariant-factor form."""

    invariant_factors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        inv = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", inv)
        if not all(map(_is_int, inv + (self.free_rank,))):
            raise ValueError("invariant factors and free rank must be "
                             "integers")
        if any(d < 2 for d in inv):
            raise ValueError("invariant factors must be >= 2")
        if any(inv[i + 1] % inv[i] for i in range(len(inv) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")

    @classmethod
    def trivial(cls):
        return cls((), 0)

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise ValueError("cyclic(n) needs n >= 1")
        return cls((), 0) if n == 1 else cls((n,), 0)

    @classmethod
    def free(cls, rank):
        return cls((), rank)

    @classmethod
    def from_divisors(cls, *divisors):
        """Canonicalize an arbitrary list of cyclic orders (0 means Z).

        >>> FgAbGroup.from_divisors(2, 3).invariant_factors
        (6,)
        """
        divisors = _ints(divisors, "cyclic orders")
        group, _, _ = abelian._canonicalize_presentation(
            abelian._with_relations([[]] * len(divisors), divisors))
        return group

    @property
    def ngens(self):
        return len(self.invariant_factors) + self.free_rank

    @property
    def is_finite(self):
        return self.free_rank == 0

    @property
    def is_trivial(self):
        return self.ngens == 0

    def order(self):
        if not self.is_finite:
            raise FinitenessError(f"{self} is infinite")
        return prod(self.invariant_factors)

    def reduce(self, coords):
        coords = _ints(coords, "coordinates")
        if len(coords) != self.ngens:
            raise ValueError("coordinate length mismatch")
        for i, d in enumerate(self.invariant_factors):
            coords[i] %= d
        return tuple(coords)

    def elements(self):
        """All elements in lexicographic coordinate order (finite only)."""
        if not self.is_finite:
            raise FinitenessError(f"cannot enumerate {self}")
        ranges = [range(d) for d in self.invariant_factors]
        for coords in itertools.product(*ranges):
            yield GroupElem(self, coords)

    @property
    def orders(self):
        """The order of each coordinate, 0 for a free one."""
        return self.invariant_factors + (0,) * self.free_rank

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " x ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbGroup({list(self.invariant_factors)}, {self.free_rank})"


class GroupElem(Record):
    group: FgAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", self.group.reduce(self.coords))

    def _check(self, other):
        if self.group != other.group:
            raise ValueError(f"group mismatch: {self.group} vs {other.group}")

    def __add__(self, other):
        self._check(other)
        return GroupElem(self.group,
                         tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GroupElem(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other)


class GroupHom(Record):
    """Homomorphism given by an integer matrix on canonical generators.

    Well-definedness (each torsion relation maps to zero) is checked
    eagerly; every downstream computation assumes it.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = [list(row) for row in self.matrix]
        if not all(_is_int(x) for row in rows for x in row):
            raise ValueError("matrix entries must be integers")
        if len(rows) != self.target.ngens or \
                any(len(r) != self.source.ngens for r in rows):
            raise ValueError(
                f"matrix shape must be {self.target.ngens} x {self.source.ngens}")
        # reduce columns into canonical target coordinates
        for i, d in enumerate(self.target.invariant_factors):
            rows[i] = [x % d for x in rows[i]]
        object.__setattr__(self, "matrix", _freeze(rows))
        for j, d in enumerate(self.source.invariant_factors):
            img = self.target.reduce(d * row[j] for row in self.matrix)
            if any(img):
                raise ValueError(
                    f"not a homomorphism: generator {j} has order {d} but its "
                    f"image does not")

    @classmethod
    def identity(cls, group):
        return cls(group, group, _identity(group.ngens))

    @classmethod
    def zero(cls, source, target):
        return cls(source, target,
                   [[0] * source.ngens for _ in range(target.ngens)])

    def __call__(self, x):
        if x.group != self.source:
            raise ValueError("element not in the source group")
        return GroupElem(self.target, _matvec(
            self.matrix, x.coords, self.target.ngens, self.source.ngens))

    def compose(self, other):
        """self after other (matrix product)."""
        if other.target != self.source:
            raise ValueError("homomorphisms not composable")
        prod_rows = _matmul(self.matrix, other.matrix,
                            self.target.ngens, self.source.ngens,
                            other.source.ngens)
        return GroupHom(other.source, self.target, prod_rows)

    def _check_parallel(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("homomorphisms have different endpoints")

    def __add__(self, other):
        self._check_parallel(other)
        rows = [[a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.matrix, other.matrix)]
        return GroupHom(self.source, self.target, rows)

    def __neg__(self):
        return GroupHom(self.source, self.target,
                        [[-a for a in row] for row in self.matrix])

    def __sub__(self, other):
        return self + (-other)

    def __str__(self):
        return f"{self.source} -> {self.target}"


# --------------------------------------------------------------------------
# complexes as values: homology and the unit complexes are in ``complexes``

_TRIVIAL = FgAbGroup.trivial()


class Complex(Record):
    """terms[0] -> ... -> terms[-1] in degrees -n..0: ``maps[i]`` goes
    from ``terms[i]`` to ``terms[i + 1]``, and consecutive maps compose
    to zero."""

    terms: tuple[FgAbGroup, ...]
    maps: tuple[GroupHom, ...]

    def __post_init__(self):
        terms, maps = tuple(self.terms), tuple(self.maps)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "maps", maps)
        if len(terms) != len(maps) + 1:
            raise ValueError("need one term more than maps")
        for degree, f, S, T in zip(self.degrees, maps, terms, terms[1:]):
            if f.source != S or f.target != T:
                raise ValueError(f"map at degree {degree} does not match "
                                 f"the terms")
        for f, g in zip(maps, maps[1:]):
            rows = g.compose(f).matrix  # reduced, so zero means zero
            for j in range(f.source.ngens):
                if any(row[j] for row in rows):
                    raise ValueError(f"composite nonzero at generator {j}")

    @property
    def degrees(self):
        return tuple(range(-len(self.maps), 1))

    def _index(self, degree):
        index = degree + len(self.maps)
        if not 0 <= index <= len(self.maps):
            raise ValueError(f"degree {degree} out of range")
        return index

    def group_at(self, degree):
        return self.terms[self._index(degree)]

    def differential(self, degree):
        """The map leaving the given degree (zero map out of degree 0)."""
        index = self._index(degree)
        if index == len(self.maps):
            return GroupHom.zero(self.terms[-1], _TRIVIAL)
        return self.maps[index]

    def __str__(self):
        return f"[{' -> '.join(map(str, self.terms))}]"


def _require_finite(X, scan):
    """FinitenessError, naming the scan, unless every term of X is finite."""
    if not all(X.group_at(d).is_finite for d in X.degrees):
        raise FinitenessError(f"{scan} needs finite groups")
