"""Exact arithmetic with finitely generated abelian groups.

Walks through Smith normal form, canonical forms, kernels/cokernels, and
homology of small complexes; everything is integer-exact.
"""

from unital import (
    Complex,
    FgAbGroup,
    GroupHom,
    cokernel,
    homology,
    kernel,
    smith_normal_form,
)

print("== Smith normal form ==")
M = [[2, 4], [-2, 6]]
U, D, V = smith_normal_form(M)
print(f"M = {M}")
print(f"diagonal of D: {[D[0][0], D[1][1]]}  (so Z^2/im(M) has order "
      f"{D[0][0] * D[1][1]})")

print()
print("== canonical forms ==")
G = FgAbGroup.from_divisors(2, 3)
print(f"Z/2 (+) Z/3 canonicalizes to {G}")
H = FgAbGroup.from_divisors(0, 4, 6)
print(f"Z (+) Z/4 (+) Z/6 canonicalizes to {H}")

print()
print("== kernel and cokernel ==")
f = GroupHom(FgAbGroup.cyclic(4), FgAbGroup.cyclic(2), [[1]])
K, incl = kernel(f)
print(f"reduction Z/4 -> Z/2 has kernel {K}, "
      f"embedded by 1 |-> {incl(K.element([1])).coords[0]}")
g = GroupHom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), [[2]])
Q, _ = cokernel(g)
print(f"doubling Z/2 -> Z/4 has cokernel {Q}")

print()
print("== homology of complexes ==")
X = Complex((FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)), (g,))
print(f"X = {X}: H^-1 = {homology(X, -1)}, H^0 = {homology(X, 0)}")
Z2 = FgAbGroup.cyclic(2)
Y = Complex((Z2, Z2, Z2), (GroupHom.zero(Z2, Z2), GroupHom.identity(Z2)))
print(f"Y = {Y}: " + ", ".join(f"H^{d} = {homology(Y, d)}"
                               for d in Y.degrees))
