"""Brute-force group arithmetic for the corpus generator.

Deliberately independent of `unital`: known answers and input construction
must not lean on the code under test.  Finite abelian groups are tuples of
invariant factors, elements are coordinate tuples, and homomorphisms are
row-major matrices with rows indexed by target generators (the spec-file
convention).  Nonabelian groups are multiplication tables on 0..n-1.
"""

from __future__ import annotations

import itertools
from math import prod


# ---- finite abelian groups -------------------------------------------------

def order(inv):
    return prod(inv, start=1)


def elements(inv):
    return list(itertools.product(*(range(d) for d in inv)))


def apply(matrix, x, target):
    return tuple(sum(row[j] * x[j] for j in range(len(x))) % t
                 for row, t in zip(matrix, target))


def matrix_of(images, target):
    """Matrix whose column j is the image of source generator j."""
    return [[img[i] for img in images] for i in range(len(target))]


def admissible(d, target):
    """Images allowed for a generator of order d: elements killed by d."""
    return [y for y in elements(target)
            if all((d * yi) % t == 0 for yi, t in zip(y, target))]


def random_hom(rng, source, target):
    return matrix_of([rng.choice(admissible(d, target)) for d in source],
                     target)


def kernel(matrix, source, target):
    zero = (0,) * len(target)
    return [x for x in elements(source) if apply(matrix, x, target) == zero]


def image(matrix, source, target):
    return {apply(matrix, x, target) for x in elements(source)}


def random_automorphism(rng, inv):
    """A uniformly drawn automorphism, as (matrix, inverse lookup table)."""
    size = order(inv)
    while True:
        m = random_hom(rng, inv, inv)
        table = {apply(m, x, inv): x for x in elements(inv)}
        if len(table) == size:
            return m, table


def conjugate(matrix, source, target, src_aut, tgt_aut):
    """beta . f . alpha^-1 for alpha in Aut(source), beta in Aut(target)."""
    _, alpha_inverse = src_aut
    beta, _ = tgt_aut
    images = []
    for j in range(len(source)):
        gen = tuple(int(i == j) for i in range(len(source)))
        images.append(apply(beta, apply(matrix, alpha_inverse[gen], target),
                            target))
    return matrix_of(images, target)


def complex3_maps(rng, A, B, C):
    """(delta, lam) with lam . delta = 0: delta lands in ker(lam)."""
    lam = random_hom(rng, B, C)
    ker = set(kernel(lam, B, C))
    images = [rng.choice([y for y in admissible(d, B) if y in ker])
              for d in A]
    return matrix_of(images, B), lam


def homology_orders(groups, maps):
    """Orders of H at each degree of a 2- or 3-term complex, by counting.

    ``groups`` runs from the lowest degree to degree 0; ``maps[k]`` goes
    from ``groups[k]`` to ``groups[k + 1]``.
    """
    out = []
    for k, G in enumerate(groups):
        cycles = (len(kernel(maps[k], G, groups[k + 1]))
                  if k < len(maps) else order(G))
        boundaries = (len(image(maps[k - 1], groups[k - 1], G))
                      if k > 0 else 1)
        out.append(cycles // boundaries)
    return out


# ---- finite groups by multiplication table --------------------------------

def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _table_of(elems, mul):
    index = {e: k for k, e in enumerate(elems)}
    return [[index[mul(x, y)] for y in elems] for x in elems]


def dihedral_table(n):
    """Order 2n: (i, f)(j, g) = (i + (-1)^f j, f + g)."""
    elems = [(i, f) for f in range(2) for i in range(n)]
    return _table_of(elems, lambda x, y: ((x[0] + (y[0] if x[1] == 0
                                                    else -y[0])) % n,
                                          (x[1] + y[1]) % 2))


def symmetric_table(n):
    elems = sorted(itertools.permutations(range(n)))
    return _table_of(elems, lambda p, q: tuple(q[p[i]] for i in range(n)))


def identity_of(table):
    return next(a for a in range(len(table))
                if all(table[a][b] == b for b in range(len(table))))


def inverse_of(table):
    e = identity_of(table)
    return [next(b for b in range(len(table)) if table[a][b] == e)
            for a in range(len(table))]


def closure(table, gens):
    out = {identity_of(table)}
    frontier = set(gens)
    while frontier:
        out |= frontier
        frontier = {table[a][b] for a in out for b in out} - out
    return sorted(out)


def is_normal(table, subset):
    inv = inverse_of(table)
    sub = set(subset)
    return all(table[table[inv[h]][n]][h] in sub
               for n in sub for h in range(len(table)))


def relabel(table, perm):
    """The same group with element k renamed perm[k]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out
