"""Units of the Picard groupoid and 2-groupoid over a point.

A 2-term complex A -> B presents a strict Picard groupoid whose units are
pairs (e, a_phi) with lam(a_phi) = e, listed by their coordinates.  They
are all uniquely isomorphic: the unit groupoid is contractible.  One level up, a 3-term complex presents
a Picard 2-groupoid whose units are unique up to a unique 2-morphism.
"""

from unital import (
    Complex,
    FgAbGroup,
    GroupElem,
    GroupHom,
    enumerate_units_1,
    enumerate_units_2,
    verify_contractible_1,
    verify_contractible_2,
)
from unital.point_models import units_and_morphism_count_1

Z2, Z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)

print("== units of the doubling complex Z/2 -> Z/4 ==")
X = Complex((Z2, Z4), (GroupHom(Z2, Z4, [[2]]),))
units = enumerate_units_1(X)
for e, a_phi in units:
    print(f"  unit: e = {e}, a_phi = {a_phi}")
(_, a_s), (e_t, a_t) = units
print(f"unique morphism first -> second has u = a_phi(s) - a_phi(t) = "
      f"{(GroupElem(Z2, a_s) - GroupElem(Z2, a_t)).coords}")
print(f"ordered pairs of units joined by that morphism: "
      f"{units_and_morphism_count_1(X)[1]} of {len(units) ** 2}")
e, a_phi = GroupElem(Z4, e_t), GroupElem(Z2, a_t)
print(f"tensor of the nontrivial unit with itself, the pointwise sum: "
      f"{((e + e).coords, (a_phi + a_phi).coords)}")
print(verify_contractible_1(X).to_text())

print()
print("== units one level up ==")
X2 = Complex((Z2, Z2, Z2), (GroupHom.zero(Z2, Z2), GroupHom.identity(Z2)))
print(f"units: {enumerate_units_2(X2)}")
print(verify_contractible_2(X2).to_text())
