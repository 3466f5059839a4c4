"""Descent: classifying torsors and units over finite covers.

The circle covered by three arcs gives a nerve whose cocycle calculus sees
H^1: torsors for Z/2 coefficients with zero differential fall into
|H^1| x |H^0| = 4 classes.  Unit cocycles, by contrast, always form exactly
one class, and the classification group of the unit complex is trivial on
every nerve -- contractibility in descent form.
"""

from unital import (
    Complex,
    FgAbGroup,
    GroupHom,
    cech_nerve,
    classify_h0,
    cocycle_of_unit,
    cover_of_parts,
    enumerate_units_1,
    point_cover,
    torsor_classes,
    unit_cocycles,
    unit_complex_1,
    unit_of_cocycle,
)

Z2 = FgAbGroup.cyclic(2)

circle = cover_of_parts(
    ("a0", "a1", "a2"),
    [(("a0", "a1"), ("c",)), (("a1", "a2"), ("c",)), (("a0", "a2"), ("c",))])
point = cech_nerve(point_cover())
nerve = cech_nerve(circle)
print(f"point nerve: {point}")
print(f"circle nerve: {nerve}")

X = Complex((Z2, Z2), (GroupHom.zero(Z2, Z2),))
print()
print(f"torsor classes on the circle for {X}: "
      f"{torsor_classes(nerve, X).count}  (H^1 x H^0 of the circle)")
print(f"torsor classes on the point: {torsor_classes(point, X).count}"
      "  (just coker)")

print()
U, _ = unit_complex_1(X)
classes, group = unit_cocycles(nerve, U)
print(f"unit cocycle classes on the circle: {len(classes)}, "
      f"class group {group}")
print(f"classification group of the unit complex on the circle: "
      f"{classify_h0(nerve, U)}")

print()
print("== round trip between units and cocycles ==")
unit = enumerate_units_1(X)[1]
x = cocycle_of_unit(X, unit, nerve)
back, w = unit_of_cocycle(x, nerve, X)
print(f"unit {unit} -> constant total 0-cocycle of the unit complex "
      f"({len(x)} block coordinates) -> unit {back}")
print(f"trivializing cochain of total degree -1: {w}")
