"""Constructions on complexes that only the tests use.

Unlike ``oracles``, these are built from the library's own operations
(kernels, direct sums, homology), so they check the library against
itself: they state identities the unit complexes must satisfy, not
independent answers.
"""

from unital.abelian import direct_sum, solve
from unital.complexes import (
    Complex, StrictMorphism, homology, unit_complex_1, unit_complex_2)
from unital.groups import GroupHom


def from_images(source, target, images) -> GroupHom:
    """The homomorphism sending generator i of the source to the target
    element with coordinates images[i]."""
    if len(images) != source.ngens:
        raise ValueError("need one image per source generator")
    if any(len(y) != target.ngens for y in images):
        raise ValueError("image coordinates of the wrong length")
    rows = [[y[i] for y in images] for i in range(target.ngens)]
    return GroupHom(source, target, rows)


def lift_by_images(incl: GroupHom, f: GroupHom) -> GroupHom:
    """The per-column route to ``lift_through``, its oracle: each column
    of f solved through incl, and the solutions assembled by
    ``from_images``."""
    images = []
    for j in range(f.source.ngens):
        x = solve(incl, [row[j] for row in f.matrix])
        if x is None:
            raise ValueError(
                "homomorphism does not factor through the inclusion")
        images.append(x)
    return from_images(f.source, incl.source, images)


def is_acyclic(X) -> bool:
    return all(homology(X, d).is_trivial for d in X.degrees)


def compose(g: StrictMorphism, f: StrictMorphism) -> StrictMorphism:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("strict morphisms not composable")
    return StrictMorphism(
        f.source, g.target,
        tuple(g.map_at(d).compose(f.map_at(d)) for d in g.source.degrees))


def forgetful_morphism_1(X: Complex) -> StrictMorphism:
    """unit_complex_1(X) -> X by (id_A, projection to B)."""
    U, emb = unit_complex_1(X)
    A, B = X.terms
    _, _, _, _, proj_b = direct_sum(A, B)
    return StrictMorphism(U, X, (GroupHom.identity(A), proj_b.compose(emb)))


def forgetful_morphism_2(X: Complex) -> StrictMorphism:
    """unit_complex_2(X) -> X by (id_A, projection to B, projection to C)."""
    U, emb = unit_complex_2(X)
    A, B, C = X.terms
    _, _, _, proj_b, _ = direct_sum(B, A)
    _, _, _, _, qroj_c = direct_sum(B, C)
    return StrictMorphism(U, X, (GroupHom.identity(A), proj_b,
                                 qroj_c.compose(emb)))


def identity_model_projection(X: Complex) -> StrictMorphism:
    """unit_complex_1(X) -> (A -> A), forgetting the B-coordinate."""
    U, emb = unit_complex_1(X)
    A, B = X.terms
    idA = Complex((A, A), (GroupHom.identity(A),))
    _, _, _, proj_a, _ = direct_sum(A, B)
    return StrictMorphism(U, idA, (GroupHom.identity(A), proj_a.compose(emb)))
