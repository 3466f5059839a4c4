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
    unit_1morphisms,
    unit_2morphisms,
    unit_morphisms_1,
    verify_contractible_1,
    verify_contractible_2,
)

Z2, Z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)

print("== units of the doubling complex Z/2 -> Z/4 ==")
model = PicardModel1(Complex2(Z2, Z4, GroupHom(Z2, Z4, [[2]])))
units = enumerate_units_1(model)
for u in units:
    print(f"  unit: e = {u.e}, a_phi = {u.a_phi}")
s, t = units
(mor,) = unit_morphisms_1(s, t)
print(f"unique morphism first -> second has u = {mor.u}")
print(f"tensor of the nontrivial unit with itself: "
      f"{tensor_units_1(t, t).key()}")
print(verify_contractible_1(model).to_text())

print()
print("== units one level up ==")
model2 = PicardModel2(Complex3(Z2, Z2, Z2, GroupHom.zero(Z2, Z2),
                               GroupHom.identity(Z2)))
units2 = enumerate_units_2(model2)
print(f"units: {[u.key() for u in units2]}")
ms = unit_1morphisms(units2[0], units2[1])
print(f"unit 1-morphisms between them: "
      f"{[(m.f.coords, m.theta.coords) for m in ms]}")
(g,) = unit_2morphisms(ms[0], ms[1])
print(f"the unique 2-morphism between those has gamma = {g.gamma}")
print(verify_contractible_2(model2).to_text())
