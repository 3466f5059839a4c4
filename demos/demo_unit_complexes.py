"""The complexes that represent the structure of units.

For X = (A -> B) the units are presented by A -> ker(lam - id_B); it is
acyclic, which is the complex-level form of contractibility, and it is the
soft truncation of the cone of the identity, shifted back.  Smaller
quasi-isomorphic models (id on A, id on ker lam) exist, with explicit
comparison morphisms; the same happens one level up.
"""

from unital import (
    Complex,
    FgAbGroup,
    GroupHom,
    StrictMorphism,
    cone,
    cone_comparison,
    homology,
    identity_model,
    is_quasi_isomorphism,
    kernel_model,
    kernel_sum_model,
    sum_model,
    truncate_shift,
    unit_complex_1,
    unit_complex_2,
)

Z2, Z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
X = Complex((Z2, Z4), (GroupHom(Z2, Z4, [[2]]),))
print(f"X = {X}")
U, emb = unit_complex_1(X)
print(f"unit complex: {U}")
print("homology:", {d: str(homology(U, d)) for d in U.degrees})

C = cone(StrictMorphism.identity(X))
print(f"cone of id_X: {C}, truncates and shifts to "
      f"{truncate_shift(C)}")
cmp_iso = cone_comparison(X)
print(f"comparison with the unit complex is a quasi-isomorphism: "
      f"{is_quasi_isomorphism(cmp_iso).is_qiso}")

for name, build in (("id on A", identity_model),
                    ("id on ker(lam)", kernel_model)):
    model, mor = build(X)
    print(f"model {name}: {model}; quasi-isomorphism into the unit complex: "
          f"{is_quasi_isomorphism(mor).is_qiso}")

print()
Y = Complex((Z2, Z2, Z2), (GroupHom.zero(Z2, Z2), GroupHom.identity(Z2)))
print(f"Y = {Y}")
U2, _ = unit_complex_2(Y)
print(f"unit complex one level up: {U2}")
print("homology:", {d: str(homology(U2, d)) for d in U2.degrees})
for name, build in (("B (+) A model", sum_model),
                    ("ker(lam) (+) A model", kernel_sum_model)):
    alt, mor = build(Y)
    print(f"{name}: quasi-isomorphic to the unit complex: "
          f"{is_quasi_isomorphism(mor).is_qiso}")
