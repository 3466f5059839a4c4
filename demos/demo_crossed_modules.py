"""The nonabelian story: units of group-like groupoids from crossed modules.

A crossed module lam: G -> H (with right H-action on G) presents a
group-like groupoid; its units (e, g_phi) with lam(g_phi) = e are again all
uniquely isomorphic, the units over the identity are exactly ker(lam), and
the unit structure is presented by a crossed module with bijective boundary.
Descent triples (g, g', h) carry the twisted group law
(g1, g1', h1)(g2, g2', h2) = (g1^(d0* h2) g2, g1'^(h2) g2', h1 h2).
"""

from unital import (
    FiniteGroup,
    cech_nerve,
    enumerate_units_nonabelian,
    h0_group_law,
    pi0_order,
    pi1_order,
    point_cover,
    unit_crossed_module,
    verify_crossed_module,
)
from unital.crossed import CrossedModule, enumerate_unit_triples

S3 = FiniteGroup.symmetric(3)
mul, inv = S3.table, S3.inverse
conj = CrossedModule(
    S3, S3,
    boundary=tuple(S3.elements()),
    action=tuple(tuple(mul[mul[inv[h]][g]][h] for h in S3.elements())
                 for g in S3.elements()))  # g^h = h^-1 g h

print("== the conjugation crossed module on S3 ==")
print(verify_crossed_module(conj).to_text())
U = unit_crossed_module(conj)
print(f"unit crossed module has |K| = {U.H.order}, "
      f"pi0 = {pi0_order(U)}, pi1 = {pi1_order(U)}")
# K is S3 itself with the twisted product k1 * k2 = k1^(lam(k2)^-1) k2,
# and its boundary is the inverse map
print(f"boundary of K is the inverse map: {U.boundary == tuple(inv)}")
units, report = enumerate_units_nonabelian(conj)
print(report.to_text())

print()
print("== Z/3 with Z/2 acting by inversion ==")
Z3, Z2 = FiniteGroup.cyclic(3), FiniteGroup.cyclic(2)
inversion = CrossedModule(Z3, Z2, (0, 0, 0),
                          tuple((g, (-g) % 3) for g in range(3)))
units, report = enumerate_units_nonabelian(inversion)
print(f"units: {units}  (all over the identity: the kernel of the boundary)")

nerve = cech_nerve(point_cover())
triples = list(enumerate_unit_triples(inversion, nerve))
print(f"descent triples on the point nerve: {len(triples)}")
# a triple is (g, g', h) as index tuples over the cells; the triple of the
# unit (e, g_phi) is the one with g' = g_phi on every level-0 cell
e, g_phi = units[1]
t = next(t for t in triples if t[1] == (g_phi,))
g, gp, h = h0_group_law(inversion, nerve, t, t)
print(f"triple of unit {units[1]} squared has g' = {gp[0]}, h = {h[0]}")
