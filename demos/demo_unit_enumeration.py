"""Units of the Picard groupoid and 2-groupoid over a point.

A 2-term complex A -> B presents a strict Picard groupoid whose units are
pairs (e, a_phi) with lam(a_phi) = e.  They are all uniquely isomorphic:
the unit groupoid is contractible.  One level up, a 3-term complex presents
a Picard 2-groupoid whose units are unique up to a unique 2-morphism.
"""

from unital import (
    Complex2,
    Complex3,
    FgAbGroup,
    GroupHom,
    PicardModel1,
    PicardModel2,
    enumerate_units_1,
    enumerate_units_2,
    tensor_units_1,
    verify_contractible_1,
    verify_contractible_2,
)
from unital.point_models import count_unit_morphisms_1

Z2, Z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)

print("== units of the doubling complex Z/2 -> Z/4 ==")
model = PicardModel1(Complex2(Z2, Z4, GroupHom(Z2, Z4, [[2]])))
units = enumerate_units_1(model)
for u in units:
    print(f"  unit: e = {u.e}, a_phi = {u.a_phi}")
s, t = units
print(f"unique morphism first -> second has u = a_phi(s) - a_phi(t) = "
      f"{s.a_phi - t.a_phi}")
print(f"ordered pairs of units joined by that morphism: "
      f"{count_unit_morphisms_1(model)} of {len(units) ** 2}")
print(f"tensor of the nontrivial unit with itself: "
      f"{tensor_units_1(t, t).key()}")
print(verify_contractible_1(model).to_text())

print()
print("== units one level up ==")
model2 = PicardModel2(Complex3(Z2, Z2, Z2, GroupHom.zero(Z2, Z2),
                               GroupHom.identity(Z2)))
units2 = enumerate_units_2(model2)
print(f"units: {[u.key() for u in units2]}")
print(verify_contractible_2(model2).to_text())
