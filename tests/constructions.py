"""Constructions on complexes that only the tests use.

Unlike ``oracles``, these are built from the library's own operations
(kernels, direct sums, homology), so they check the library against
itself: they state identities the unit complexes must satisfy, not
independent answers.
"""

from unital.abelian import direct_sum
from unital.complexes import (
    Complex, StrictMorphism, homology, unit_complex_1, unit_complex_2)
from unital.groups import GroupHom


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
