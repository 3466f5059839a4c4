"""Two- and three-term complexes of finitely generated abelian groups.

Complexes sit in nonpositive cohomological degrees: a 2-term complex is
A -> B in degrees (-1, 0), a 3-term complex is A -> B -> C in degrees
(-2, -1, 0); both are ``Complex`` records, unpacked as ``X.terms`` and
``X.maps``.  The module provides homology with deterministic cycle
representatives (one ``abelian.subquotient`` call per degree, on the
incoming and outgoing differentials; classes and cycles are coordinate
tuples), strict morphisms, mapping cones,
soft truncation, and the complexes that represent the groupoid of units
of the structure presented by a complex:

* ``unit_complex_1``: A -> ker(lam - id_B), with ker taken inside A (+) B;
* ``unit_complex_2``: A -> B (+) A -> ker(lam - id_C), ``unit_complex_1``
  of lam: B -> C glued along delta;

each returned with the inclusion of its degree-0 kernel into the sum it is
taken in; explicit comparison morphisms to the smaller models built from
id_A and id_ker(lam), and a constructed isomorphism
truncate_shift(cone(id)) ~ unit_complex_1.  Level 2 is level 1 glued: one
function (``_glue``) turns a 2-term complex S -> T and a map A -> S into
A -> S (+) A -> T, and the two level-2 models, with their maps into
``unit_complex_2``, are the level-1 models of lam glued the same way.

Sign convention for the cone of f: X -> Y: in degree n the term is
X^(n+1) (+) Y^n and the differential is (x, y) |-> (-d x, f(x) + d y).

``Complex`` lives in ``groups``; ``homology``, ``unit-complex``, ``qiso``
and ``cech-classify`` execute this lazy layer.  The report handlers of the
first three are at the end of the module, one per command for both
lengths: each reads the level from ``len(X.maps)`` and calls the unit
complex or model builders of that level by their module names when it
runs.
"""

from __future__ import annotations

from functools import cached_property

from .abelian import (
    LinearSolver,
    _sparse,
    direct_sum,
    is_isomorphism,
    kernel,
    lift_through,
    subquotient,
)
# the complexes are values of the element layer, re-exported here
from .groups import Complex, FgAbGroup, GroupHom, _identity, _matvec
from .record import Record
from .specfile import SpecError


class StrictMorphism(Record):
    """Degreewise maps between complexes of the same length.

    Every square is required to commute; this is checked at construction.
    """

    source: Complex
    target: Complex
    maps: tuple[GroupHom, ...]  # ascending degree

    def __post_init__(self):
        if self.source.degrees != self.target.degrees:
            raise ValueError("complexes have different lengths")
        if len(self.maps) != len(self.source.degrees):
            raise ValueError("need one map per degree")
        object.__setattr__(self, "maps", tuple(self.maps))
        for deg, f in zip(self.source.degrees, self.maps):
            if f.source != self.source.group_at(deg) or \
                    f.target != self.target.group_at(deg):
                raise ValueError(f"map at degree {deg} has wrong endpoints")
        for deg in self.source.degrees[:-1]:
            left = self.target.differential(deg).compose(self.map_at(deg))
            right = self.map_at(deg + 1).compose(self.source.differential(deg))
            if left != right:
                raise ValueError(f"square at degree {deg} does not commute")

    def map_at(self, degree):
        return self.maps[degree - self.source.degrees[0]]

    @classmethod
    def identity(cls, X):
        return cls(X, X, tuple(GroupHom.identity(X.group_at(d))
                               for d in X.degrees))


def is_complex_isomorphism(f):
    return all(is_isomorphism(f.map_at(d)) for d in f.source.degrees)


# --------------------------------------------------------------------------
# homology


class HomologyData:
    """Homology at one degree with a cycle chooser: ``representative``
    uses the cycles ``subquotient`` fixes for the canonical generators.
    Classes and cycles are coordinate tuples.
    """

    def __init__(self, X, degree):
        self._term, out = X.group_at(degree), X.differential(degree)
        inc = X.differential(degree - 1) if degree > X.degrees[0] else None
        self._in = inc.matrix if inc else [[]] * self._term.ngens
        self.group, self._reps = subquotient(
            _sparse(self._in), inc.source.orders if inc else (),
            self._term.orders, _sparse(out.matrix), out.target.orders)

    @cached_property  # a Smith form, paid for on first use only
    def _solver(self):  # reps . h plus a boundary has class h
        rows = [r + list(b) for r, b in zip(self._reps, self._in)]
        free = FgAbGroup.free(len(rows[0]) if rows else 0)
        return LinearSolver(GroupHom(free, self._term, rows))

    def classify(self, x):
        """The homology coordinates of the class of the cycle with term
        coordinates x; ValueError if x is not a cycle."""
        z = self._solver.solve(x)
        if z is None:
            raise ValueError("element is not a cycle")
        return self.group.reduce(z[:self.group.ngens])

    def representative(self, h):
        """The term coordinates of the fixed cycle in the class with
        homology coordinates h."""
        return self._term.reduce(_matvec(self._reps, self.group.reduce(h),
                                         self._term.ngens, self.group.ngens))


def homology(X, degree) -> FgAbGroup:
    """ker(outgoing differential) / im(incoming differential), canonical."""
    return HomologyData(X, degree).group


class QuasiIsoResult(Record):
    is_qiso: bool
    induced: dict


def induced_on_homology(f: StrictMorphism, degree) -> GroupHom:
    """Column j is the class of f applied to the cycle of generator j."""
    hs = HomologyData(f.source, degree)
    ht = HomologyData(f.target, degree)
    g = f.map_at(degree)
    cols = [ht.classify(_matvec(g.matrix, hs.representative(e),
                                g.target.ngens, g.source.ngens))
            for e in _identity(hs.group.ngens)]
    return GroupHom(hs.group, ht.group,
                    [[c[i] for c in cols] for i in range(ht.group.ngens)])


def is_quasi_isomorphism(f: StrictMorphism) -> QuasiIsoResult:
    """True iff the induced maps on homology are all isomorphisms."""
    induced = {d: induced_on_homology(f, d) for d in f.source.degrees}
    return QuasiIsoResult(all(is_isomorphism(g) for g in induced.values()),
                          induced)


# --------------------------------------------------------------------------
# unit complexes and their comparisons


def unit_complex_1(X: Complex):
    """The 2-term complex A -> ker(lam - id_B) presenting the units.

    Returns ``(U, embedding)`` where the degree-0 term is realized as the
    kernel of (a, b) |-> lam(a) - b on A (+) B and ``embedding`` is its
    inclusion into A (+) B, kept for cocycle coordinates downstream.
    """
    (A, B), (lam,) = X.terms, X.maps
    _, inj_a, inj_b, proj_a, proj_b = direct_sum(A, B)
    K, incl = kernel(lam.compose(proj_a) - proj_b)
    graph = inj_a + inj_b.compose(lam)  # a |-> (a, lam a)
    d = lift_through(incl, graph)
    return Complex((A, K), (d,)), incl


def _glue(Y: Complex, delta_s: GroupHom):
    """Y = S -d-> T glued along delta_s: A -> S.

    Returns the 3-term complex A -> S (+) A -> T with differentials
    a |-> (delta_s a, a) and (s, a) |-> d(s - delta_s a), and the sum's
    ``(inj_s, inj_a, proj_s, proj_a)``.  Every level-2 complex here is a
    level-1 one glued: the unit complex, and the two models.
    """
    (S, T), (d,) = Y.terms, Y.maps
    SA, inj_s, inj_a, proj_s, proj_a = direct_sum(S, delta_s.source)
    d1 = inj_s.compose(delta_s) + inj_a
    d2 = d.compose(proj_s - delta_s.compose(proj_a))
    return (Complex((delta_s.source, SA, T), (d1, d2)),
            (inj_s, inj_a, proj_s, proj_a))


def unit_complex_2(X: Complex):
    """The 3-term complex A -> B (+) A -> ker(lam - id_C) for 2-level units:
    V = ``unit_complex_1`` of lam: B -> C glued along delta.  Degree 0 and
    the returned embedding into B (+) C are V's.
    """
    V, incl = unit_complex_1(Complex(X.terms[1:], X.maps[1:]))
    return _glue(V, X.maps[0])[0], incl


def cone(f: StrictMorphism) -> Complex:
    """Mapping cone of a morphism of 2-term complexes.

    Degree n is X^(n+1) (+) Y^n with differential
    (x, y) |-> (-d x, f(x) + d y); the cone of an identity is acyclic.
    """
    X, Y = f.source, f.target
    if X.degrees != (-1, 0):
        raise ValueError("cone is implemented for 2-term complexes")
    _, inj_b, inj_a, proj_b, proj_a = direct_sum(X.terms[1], Y.terms[0])
    d_low = inj_b.compose(-X.maps[0]) + inj_a.compose(f.map_at(-1))
    d_high = f.map_at(0).compose(proj_b) + Y.maps[0].compose(proj_a)
    return Complex((X.terms[0], d_low.target, Y.terms[1]), (d_low, d_high))


def truncate_shift(X: Complex) -> Complex:
    """Soft truncation below degree 0, shifted back into degrees (-1, 0).

    The degree-0 term becomes ker(B -> C) and the differential is induced.
    """
    K, incl = kernel(X.maps[1])
    return Complex((X.terms[0], K), (lift_through(incl, X.maps[0]),))


def cone_comparison(X: Complex) -> StrictMorphism:
    """Isomorphism truncate_shift(cone(id_X)) -> unit_complex_1(X).

    The cone's kernel consists of pairs (b, a) with b = -lam(a); the unit
    complex kernel of pairs (a, b) with lam(a) = b; the comparison swaps the
    coordinates and flips the sign of b.
    """
    C = cone(StrictMorphism.identity(X))
    ts = truncate_shift(C)
    _, incl_t = kernel(C.maps[1])  # same kernel truncate_shift used
    U, emb = unit_complex_1(X)
    A, B = X.terms
    _, inj_a, inj_b, _, _ = direct_sum(A, B)
    _, _, _, proj_b2, proj_a2 = direct_sum(B, A)
    swap = inj_a.compose(proj_a2) - inj_b.compose(proj_b2)
    deg0 = lift_through(emb, swap.compose(incl_t))
    return StrictMorphism(ts, U, (GroupHom.identity(A), deg0))


# ---- smaller models of the unit complex, with explicit comparison maps ----


def _identity_model_on(X: Complex, incl: GroupHom):
    """(S -> S by the identity, morphism (incl, d incl) into
    unit_complex_1(X)) for incl: S -> A, where d is the unit complex's
    differential a |-> (a, lam a)."""
    U, _ = unit_complex_1(X)
    model = Complex((incl.source,) * 2, (GroupHom.identity(incl.source),))
    return model, StrictMorphism(model, U, (incl, U.maps[0].compose(incl)))


def identity_model(X: Complex):
    """(A -> A, morphism into unit_complex_1) with a |-> (a, (a, lam a))."""
    return _identity_model_on(X, GroupHom.identity(X.terms[0]))


def kernel_model(X: Complex):
    """(ker lam -> ker lam, morphism into unit_complex_1)."""
    return _identity_model_on(X, kernel(X.maps[0])[1])


def _glued_model(X: Complex, f, delta_s):
    """The map f from a level-1 model of lam into V = unit_complex_1(lam),
    glued: its source, the model, along delta_s, and V along
    delta = f_-1 delta_s into unit_complex_2(X), with the map
    (id_A, f_-1 (+) id_A, f_0)."""
    glued, (_, _, proj_s, proj_a) = _glue(f.source, delta_s)
    U, (inj_b, inj_a, _, _) = _glue(f.target, X.maps[0])
    incl, f0 = f.maps
    mid = inj_b.compose(incl.compose(proj_s)) + inj_a.compose(proj_a)
    return glued, StrictMorphism(
        glued, U, (GroupHom.identity(X.terms[0]), mid, f0))


def sum_model(X: Complex):
    """Alternate 3-term model A -> B (+) A -> B with its map into
    unit_complex_2(X): ``identity_model`` of lam glued along delta, so the
    second differential is (b, a) |-> b - delta(a)."""
    _, f = identity_model(Complex(X.terms[1:], X.maps[1:]))
    return _glued_model(X, f, X.maps[0])


def kernel_sum_model(X: Complex):
    """Alternate 3-term model A -> ker(lam) (+) A -> ker(lam) with its map
    into unit_complex_2(X): ``kernel_model`` of lam glued along delta
    lifted through ker(lam)."""
    _, f = kernel_model(Complex(X.terms[1:], X.maps[1:]))
    return _glued_model(X, f, lift_through(f.maps[0], X.maps[0]))


# --------------------------------------------------------------------------
# the report handlers of homology, unit-complex and qiso (see reporting)


def _homology_table(X):
    return {str(d): homology(X, d) for d in X.degrees}


def _homology(report, X, opts):
    report.data["homology"] = _homology_table(X)
    report.add("complex is well formed", True)


def _unit_complex(report, X, opts):
    U, _ = (unit_complex_1 if len(X.maps) == 1 else unit_complex_2)(X)
    report.data["terms"] = {str(d): U.group_at(d) for d in U.degrees}
    table = _homology_table(U)
    report.data["homology"] = table
    if opts.check_acyclic:
        for d, H in table.items():
            report.add(f"homology in degree {d} is trivial", H.is_trivial, H)
    else:
        report.add("unit complex computed", True)


def _qiso(report, X, opts):
    # built per call from the module's names, so a rebound builder is seen
    builders = {"idA": identity_model, "idker": kernel_model} \
        if len(X.maps) == 1 else {"idA": sum_model, "idker": kernel_sum_model}
    for name in (opts.against,) if opts.against else tuple(builders):
        if name not in builders:
            raise SpecError(f"against: unknown model {name!r}")
        _, mor = builders[name](X)
        res = is_quasi_isomorphism(mor)
        report.add(f"comparison with {name} is a quasi-isomorphism",
                   res.is_qiso)
        report.data[f"induced_{name}"] = {
            str(d): {"source": g.source, "target": g.target,
                     "matrix": [list(r) for r in g.matrix]}
            for d, g in res.induced.items()}
